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
	var e encoder
	e.uvarint(uint64(len(dir.RIDs)))
	prev := OID(0)
	for _, ent := range dir.RIDs {
		e.uvarint(uint64(ent.O - prev))
		e.rid(ent.R)
		prev = ent.O
	}
	e.uvarint(uint64(len(dir.Extents)))
	for _, ed := range dir.Extents {
		e.str(ed.Type)
		e.uvarint(uint64(len(ed.OIDs)))
		for _, oid := range ed.OIDs {
			e.uvarint(uint64(oid))
		}
	}
	return e.buf
}

func (e *encoder) rid(r storage.RID) {
	e.uvarint(uint64(r.Page))
	e.uvarint(uint64(r.Slot))
}

func (d *decoder) rid() storage.RID {
	return storage.RID{Page: storage.PageID(d.uvarint()), Slot: uint16(d.uvarint())}
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
	enc encoder
	ops int
	// sinceSnapshot counts the ops of the delta records that follow the
	// store's current snapshot, not counting this journal's own.
	sinceSnapshot int
}

// op starts one journaled op; the caller appends the op's own fields.
func (j *dirJournal) op(kind uint8, oid OID) {
	j.enc.u8(kind)
	j.enc.uvarint(uint64(oid))
	j.ops++
}

func (j *dirJournal) create(oid OID, typeName string, rid storage.RID) {
	j.op(dirOpCreate, oid)
	j.enc.rid(rid)
	j.enc.str(typeName)
}

func (j *dirJournal) move(oid OID, rid storage.RID) {
	j.op(dirOpMove, oid)
	j.enc.rid(rid)
}

func (j *dirJournal) delete(oid OID, typeName string) {
	j.op(dirOpDelete, oid)
	j.enc.str(typeName)
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
		return j.enc.buf, false
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
	d := decoder{buf: snapshot}
	n := d.count(3)
	rids := make(map[OID]storage.RID, n)
	oid := OID(0)
	for i := 0; i < n && d.err == nil; i++ {
		gap := OID(d.uvarint())
		if gap == 0 {
			d.fail("object: restore: duplicate OID %v in directory", oid)
		}
		oid += gap
		rids[oid] = d.rid()
	}
	n = d.count(2)
	extents := make(map[string]*extent, n)
	// listed holds every extension member so far: an OID listed twice would
	// outlive its delete in the other listing.
	listed := make(map[OID]struct{}, len(rids))
	for i := 0; i < n && d.err == nil; i++ {
		typeName := d.str()
		if _, dup := extents[typeName]; dup {
			d.fail("object: restore: extension of %q listed twice", typeName)
		}
		k := d.count(1)
		ext := &extent{order: make([]OID, 0, k), pos: make(map[OID]int, k)}
		for ; k > 0 && d.err == nil; k-- {
			member := OID(d.uvarint())
			if _, ok := rids[member]; !ok && d.err == nil {
				d.fail("object: restore: extension of %q lists unknown OID %v", typeName, member)
			}
			if _, dup := listed[member]; dup {
				d.fail("object: restore: OID %v listed twice in the extensions", member)
			}
			listed[member] = struct{}{}
			ext.add(member)
		}
		extents[typeName] = ext
	}
	if d.err == nil && d.off != len(d.buf) {
		d.fail("object: restore: %d stray bytes after the directory snapshot", len(d.buf)-d.off)
	}
	return rids, extents, d.err
}

// replayDelta applies the ops of one delta payload and returns their number.
func replayDelta(rids map[OID]storage.RID, extents map[string]*extent, delta []byte) (int, error) {
	d := decoder{buf: delta}
	ops := 0
	for d.off < len(d.buf) && d.err == nil {
		op := d.u8()
		oid := OID(d.uvarint())
		_, live := rids[oid]
		if d.err == nil && live == (op == dirOpCreate) {
			d.fail("object: restore: directory op %d on OID %v (live: %v)", op, oid, live)
		}
		switch op {
		case dirOpCreate:
			rids[oid] = d.rid()
			extentOf(extents, d.str()).add(oid)
		case dirOpMove:
			rids[oid] = d.rid()
		case dirOpDelete:
			delete(rids, oid)
			typeName := d.str()
			if ext := extents[typeName]; ext == nil || !ext.remove(oid) {
				d.fail("object: restore: delete of OID %v from the extension of %q, which does not list it", oid, typeName)
			}
		default:
			d.fail("object: restore: unknown directory op %d", op)
		}
		ops++
	}
	return ops, d.err
}
