package object

import (
	"fmt"
	"sort"

	"gomdb/internal/storage"
)

// Durable directory of the object manager. The heap pages themselves are
// persisted by the storage checkpoint; what the pages do not contain is the
// mapping from OIDs to RIDs, the per-type extensions, and the allocation
// watermark. The watermark and the heap's page list are small and travel in
// every checkpoint's metadata header (DirectoryHeader). The OID→RID entries
// and the extensions grow with the base, so a checkpoint ships only what
// changed: while a durable store is attached, the manager journals every
// directory mutation as an op — create oid/type/rid, move oid→rid, delete
// oid — already in its on-disk encoding, and the checkpoint appends that
// journal to the store's directory file as one delta record. Recovery
// decodes the file's snapshot and replays the deltas through the same
// extent.add/remove the live mutations use, so swap-removal reproduces every
// extension's order exactly.
//
// Replaying costs one step per journaled op, so once the ops journaled since
// the last snapshot outnumber the live objects (a bulk load, a Recluster) the
// next checkpoint writes a fresh snapshot instead of a delta. That bounds the
// directory file at a small multiple of the live directory, and replay at a
// small multiple of decoding it, with nothing to tune.

// DirEntry maps one OID to the RID of its record.
type DirEntry struct {
	O OID
	R storage.RID
}

// ExtentDir is the extension of one exact type. OID order is preserved
// verbatim: extension iteration order is observable (seeded benchmarks,
// extension scans), so a restored manager must reproduce it.
type ExtentDir struct {
	Type string
	OIDs []OID
}

// Directory is the persistent state of a Manager, minus the heap pages, in a
// canonical order. It is the source of a snapshot record and the oracle the
// tests compare a recovered manager against.
type Directory struct {
	NextOID OID
	Heap    storage.HeapDir
	RIDs    []DirEntry
	Extents []ExtentDir
}

// DirectoryHeader returns the part of the directory that every checkpoint
// rewrites: the OID allocation watermark and the heap file's own directory.
func (m *Manager) DirectoryHeader() (OID, storage.HeapDir) {
	return m.nextOID, m.heap.Directory()
}

// ExportDirectory captures the manager's whole directory. Callers must hold
// the exclusive Database lock.
func (m *Manager) ExportDirectory() Directory {
	var dir Directory
	dir.NextOID, dir.Heap = m.DirectoryHeader()
	dir.RIDs = make([]DirEntry, 0, len(m.rids))
	for oid, rid := range m.rids {
		dir.RIDs = append(dir.RIDs, DirEntry{O: oid, R: rid})
	}
	sort.Slice(dir.RIDs, func(i, j int) bool { return dir.RIDs[i].O < dir.RIDs[j].O })
	types := make([]string, 0, len(m.extents))
	for tn := range m.extents {
		types = append(types, tn)
	}
	sort.Strings(types)
	for _, tn := range types {
		dir.Extents = append(dir.Extents, ExtentDir{
			Type: tn,
			OIDs: append([]OID(nil), m.extents[tn].order...),
		})
	}
	return dir
}

// Snapshot encodes the directory's entries and extensions as the payload of a
// snapshot record: the entry count, each entry as OID gap (entries ascend),
// page and slot, then the extent count and each extent as type name, length
// and OIDs — all varints.
func (dir Directory) Snapshot() []byte {
	var e Encoder
	e.Uvarint(uint64(len(dir.RIDs)))
	prev := OID(0)
	for _, ent := range dir.RIDs {
		e.Uvarint(uint64(ent.O - prev))
		e.rid(ent.R)
		prev = ent.O
	}
	e.Uvarint(uint64(len(dir.Extents)))
	for _, ed := range dir.Extents {
		e.Str(ed.Type)
		e.Uvarint(uint64(len(ed.OIDs)))
		for _, oid := range ed.OIDs {
			e.Uvarint(uint64(oid))
		}
	}
	return e.Buf
}

func (e *Encoder) rid(r storage.RID) {
	e.Uvarint(uint64(r.Page))
	e.Uvarint(uint64(r.Slot))
}

func (d *Decoder) rid() storage.RID {
	return storage.RID{Page: storage.PageID(d.Uvarint()), Slot: uint16(d.Uvarint())}
}

// Directory ops, as journaled and as stored in a delta record: the op byte,
// the OID, then the RID (create, move) and the type name (create, delete).
const (
	dirOpCreate = 1
	dirOpMove   = 2
	dirOpDelete = 3
)

// dirJournal is the directory ops since the last durable checkpoint, encoded
// as they happen. Managers of in-memory databases have none.
type dirJournal struct {
	enc Encoder
	ops int
	// sinceSnapshot counts the ops of the delta records that follow the
	// store's current snapshot, not counting this journal's own.
	sinceSnapshot int
}

// op starts one journaled op; the caller appends the op's own fields.
func (j *dirJournal) op(kind uint8, oid OID) {
	j.enc.U8(kind)
	j.enc.Uvarint(uint64(oid))
	j.ops++
}

func (j *dirJournal) create(oid OID, typeName string, rid storage.RID) {
	j.op(dirOpCreate, oid)
	j.enc.rid(rid)
	j.enc.Str(typeName)
}

func (j *dirJournal) move(oid OID, rid storage.RID) {
	j.op(dirOpMove, oid)
	j.enc.rid(rid)
}

func (j *dirJournal) delete(oid OID, typeName string) {
	j.op(dirOpDelete, oid)
	j.enc.Str(typeName)
}

// EnableDirJournal starts journaling directory mutations for a durable
// store's checkpoints. Called once, when the store is attached.
func (m *Manager) EnableDirJournal() { m.journal = &dirJournal{} }

// DirCheckpoint returns what the next checkpoint has to write for the
// directory: the journaled ops as a delta payload (empty when nothing
// changed), or — once the ops since the last snapshot outnumber the live
// objects — a fresh snapshot payload. The journal stays in place until
// DirCheckpointDone, so a failed checkpoint loses nothing. Callers must hold
// the exclusive Database lock.
func (m *Manager) DirCheckpoint() (payload []byte, snapshot bool) {
	if j := m.journal; j.sinceSnapshot+j.ops <= len(m.rids) {
		return j.enc.Buf, false
	}
	return m.ExportDirectory().Snapshot(), true
}

// DirCheckpointDone clears the journal after the checkpoint that wrote
// DirCheckpoint's payload succeeded.
func (m *Manager) DirCheckpointDone(snapshot bool) {
	since := 0
	if !snapshot {
		since = m.journal.sinceSnapshot + m.journal.ops
	}
	*m.journal = dirJournal{sinceSnapshot: since}
}

// DirJournalStats reports the directory ops journaled since the last
// checkpoint and those already shipped in deltas since the last snapshot —
// the two terms the snapshot rule compares with the live object count. Both
// are 0 on an in-memory database.
func (m *Manager) DirJournalStats() (pending, sinceSnapshot int) {
	if m.journal == nil {
		return 0, 0
	}
	return m.journal.ops, m.journal.sinceSnapshot
}

// extentOf returns the extension of typeName, creating it on first use.
func extentOf(extents map[string]*extent, typeName string) *extent {
	ext := extents[typeName]
	if ext == nil {
		ext = &extent{pos: make(map[OID]int)}
		extents[typeName] = ext
	}
	return ext
}

// RestoreDirectory replaces the manager's directory state with a persisted
// one: the snapshot payload (nil for a directory that starts empty) with the
// delta payloads replayed over it in order. heap must be the restored heap
// file handle (built by the caller with storage.RestoreHeapFile over the
// recovered pages, so the facade — not this package — owns the buffer pool
// plumbing). It returns the number of ops replayed. Lazily-built layout
// caches are left alone: they are derived from the registry, not from stored
// state. The extent undo logs go with the replaced extents: a restore runs
// with no snapshot reader pinned.
func (m *Manager) RestoreDirectory(heap *storage.HeapFile, nextOID OID, snapshot []byte, deltas [][]byte) (int, error) {
	rids, extents, err := decodeSnapshot(snapshot)
	if err != nil {
		return 0, err
	}
	ops := 0
	for _, delta := range deltas {
		n, err := replayDelta(rids, extents, delta)
		if err != nil {
			return 0, err
		}
		ops += n
	}
	if len(rids) != heap.Count() {
		return 0, fmt.Errorf("object: restore: directory holds %d entries, heap holds %d live records",
			len(rids), heap.Count())
	}
	m.heap = heap
	m.rids = rids
	m.extents = extents
	m.nextOID = nextOID
	if m.journal != nil {
		*m.journal = dirJournal{sinceSnapshot: ops}
	}
	return ops, nil
}

func decodeSnapshot(snapshot []byte) (map[OID]storage.RID, map[string]*extent, error) {
	if len(snapshot) == 0 {
		return make(map[OID]storage.RID), make(map[string]*extent), nil
	}
	d := NewDecoder(snapshot)
	n := d.Count(3)
	rids := make(map[OID]storage.RID, n)
	oid := OID(0)
	for i := 0; i < n && d.err == nil; i++ {
		gap := OID(d.Uvarint())
		if gap == 0 {
			d.Fail("object: restore: duplicate OID %v in directory", oid)
		}
		oid += gap
		rids[oid] = d.rid()
	}
	n = d.Count(2)
	extents := make(map[string]*extent, n)
	// listed holds every extension member so far: an OID listed twice would
	// outlive its delete in the other listing.
	listed := make(map[OID]struct{}, len(rids))
	for i := 0; i < n && d.err == nil; i++ {
		typeName := d.Str()
		if _, dup := extents[typeName]; dup {
			d.Fail("object: restore: extension of %q listed twice", typeName)
		}
		k := d.Count(1)
		ext := &extent{order: make([]OID, 0, k), pos: make(map[OID]int, k)}
		for ; k > 0 && d.err == nil; k-- {
			member := OID(d.Uvarint())
			if _, ok := rids[member]; !ok && d.err == nil {
				d.Fail("object: restore: extension of %q lists unknown OID %v", typeName, member)
			}
			if _, dup := listed[member]; dup {
				d.Fail("object: restore: OID %v listed twice in the extensions", member)
			}
			listed[member] = struct{}{}
			ext.add(member)
		}
		extents[typeName] = ext
	}
	if d.err == nil && d.off != len(d.buf) {
		d.Fail("object: restore: %d stray bytes after the directory snapshot", len(d.buf)-d.off)
	}
	return rids, extents, d.err
}

// replayDelta applies the ops of one delta payload and returns their number.
func replayDelta(rids map[OID]storage.RID, extents map[string]*extent, delta []byte) (int, error) {
	d := NewDecoder(delta)
	ops := 0
	for d.off < len(d.buf) && d.err == nil {
		op := d.U8()
		oid := OID(d.Uvarint())
		_, live := rids[oid]
		if d.err == nil && live == (op == dirOpCreate) {
			d.Fail("object: restore: directory op %d on OID %v (live: %v)", op, oid, live)
		}
		switch op {
		case dirOpCreate:
			rids[oid] = d.rid()
			extentOf(extents, d.Str()).add(oid)
		case dirOpMove:
			rids[oid] = d.rid()
		case dirOpDelete:
			delete(rids, oid)
			typeName := d.Str()
			if ext := extents[typeName]; ext == nil || !ext.remove(oid) {
				d.Fail("object: restore: delete of OID %v from the extension of %q, which does not list it", oid, typeName)
			}
		default:
			d.Fail("object: restore: unknown directory op %d", op)
		}
		ops++
	}
	return ops, d.err
}
