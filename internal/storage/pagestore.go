package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// PageStore is the optional durable backend behind the simulated Disk: a
// file-backed page store plus a physical write-ahead log with page-level redo
// records and checksums. The paper's GOM prototype inherited durability from
// the EXODUS storage manager; this reproduction gets it from three data files
// plus one metadata file in a directory:
//
//	data.gomdb  page records, one fixed-size slot per page id
//	wal.gomdb   the redo log of the checkpoint in flight (or last applied)
//	dir.gomdb   the OID directory: one snapshot record, then one delta record
//	            per checkpoint that changed the directory
//	meta.gomdb  the checkpoint sequence number and the engine metadata blob of
//	            the last committed checkpoint
//
// The durable unit is the checkpoint: the engine (gomdb facade) collects
// every page written since the last checkpoint, a small metadata blob and the
// directory ops journaled since the last checkpoint (a DirUpdate), and calls
// Checkpoint, which stamps all of it with the next sequence number and makes
// the transition atomic via the WAL:
//
//  1. append all page records, the directory record, the meta record and a
//     commit record to the WAL; fsync it    (crash before/during: the tail
//     is discarded, the previous checkpoint remains the durable state)
//  2. apply the page records to the data file, one write per run of adjacent
//     page ids; fsync it    (crash during: the committed WAL is replayed on
//     recovery, repairing torn records)
//  3. append the directory delta to dir.gomdb and fsync it — or, for a
//     snapshot, write dir.gomdb.tmp, fsync it, rename it over dir.gomdb and
//     fsync the directory
//  4. replace meta.gomdb: write meta.gomdb.tmp, fsync it, rename, fsync the
//     directory. Only now is the new sequence number durable.
//  5. truncate the WAL and fsync it
//
// Every step is durable before the next begins, so the WAL is never truncated
// beside a meta file that could still vanish, and a file that was just
// created (or renamed into place) has its directory entry fsynced before
// anything depends on it.
//
// Recovery (OpenPageStore) therefore always returns exactly the state of the
// last committed checkpoint: it removes leftover .tmp files, truncates
// dir.gomdb at the first torn record or the first record newer than
// meta.gomdb's sequence number (step 3 ran, step 4 did not), scans the WAL,
// discards an uncommitted tail, re-applies a committed batch (finishing the
// interrupted steps 2-5; a directory record dir.gomdb already holds is
// skipped), and validates every data-file record's checksum, preferring the
// WAL copy for a record a torn write corrupted.
//
// All PageStore I/O is real file I/O and is deliberately NEVER charged to the
// simulated Clock: the cost model of the paper's figures must be bit-identical
// whether durability is on or off.
type PageStore struct {
	dir   string
	dataF *os.File
	walF  *os.File
	dirF  *os.File
	// lockF holds an exclusive flock on LOCK for the store's lifetime so two
	// processes (or two Opens in one process) cannot write the same
	// directory concurrently. Released by Close and Abandon.
	lockF *os.File

	// walEnd is the append offset of the WAL (header-only after a completed
	// checkpoint); dirEnd that of dir.gomdb.
	walEnd int64
	dirEnd int64

	// seq is the sequence number of the last committed checkpoint (0 on a
	// fresh store); dirSeq that of the last record in dir.gomdb.
	seq    uint64
	dirSeq uint64

	// failAfter, when >= 0, cuts the next checkpoint's WAL batch off after
	// that many bytes and reports ErrSimulatedCrash — the crash-mid-flush
	// injection hook of the simulation harness. Disarmed after one
	// checkpoint regardless of whether it fired.
	failAfter int64

	// torn, when set, is consulted once per page during the data-file apply;
	// a true return tears that page's record (half of it is written) and the
	// checkpoint reports ErrSimulatedCrash, leaving the committed WAL in
	// place. Wired to Disk.CheckTornWrite so FaultPlan rules with
	// Op: FaultTornWrite script it.
	torn func(PageID) bool

	closed bool
}

// FormatVersion is the on-disk format version tag of all four files. Tests
// pin it; bump it (and regenerate the golden files under testdata/golden)
// only for a deliberate format change. There is no reader for older
// versions: a directory written by one is refused with the version error.
// Version 2 moved the OID directory out of the metadata blob into dir.gomdb.
const FormatVersion = 2

const (
	dataMagic = "GOMDBPG1"
	walMagic  = "GOMDBWAL"
	dirMagic  = "GOMDBDIR"
	metaMagic = "GOMDBMET"

	fileHeaderSize = 16
	// pageRecSize is one data-file record: the page image, the page id, and
	// a CRC32-Castagnoli checksum over both.
	pageRecSize = PageSize + 8

	walPageRec   = 1
	walMetaRec   = 2
	walCommitRec = 3
	walDirRec    = 4

	// walRecOverhead is the kind byte and length before a WAL record's
	// payload plus the checksum after it.
	walRecOverhead = 5 + 4
	walPageRecSize = walRecOverhead + 4 + PageSize

	dirSnapshotRec = 1
	dirDeltaRec    = 2
	// dirRecOverhead is the kind byte, sequence number and length before a
	// dir.gomdb record's payload plus the checksum after it.
	dirRecOverhead = 13 + 4
)

// DirUpdate is what one checkpoint does to the OID directory in dir.gomdb.
// The payload is the object manager's encoding and opaque here: the store
// frames it, stamps it with the checkpoint's sequence number, and makes it
// durable atomically with the pages it describes.
type DirUpdate struct {
	// Snapshot says Payload is the whole directory and replaces the file;
	// otherwise Payload holds the ops since the last checkpoint and extends
	// it. An empty delta writes nothing.
	Snapshot bool
	Payload  []byte
}

// ErrSimulatedCrash marks an injected crash point: a checkpoint that was
// deliberately cut short (FailNextCheckpointAfter) or torn (a FaultTornWrite
// rule). The store must be abandoned afterwards, exactly as after a real
// crash; reopening the directory runs recovery.
var ErrSimulatedCrash = errors.New("storage: simulated crash")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecoveredImage is what OpenPageStore recovered from the directory: the page
// images, metadata blob and OID directory of the last committed checkpoint,
// plus counters describing the repair work recovery performed.
type RecoveredImage struct {
	// Exists reports whether any committed checkpoint was found; false means
	// the directory is fresh (Pages and Meta are empty).
	Exists bool
	// Seq is the sequence number of the last committed checkpoint.
	Seq uint64
	// Meta is the engine metadata blob of the last committed checkpoint.
	Meta []byte
	// DirSnapshot is the payload of dir.gomdb's snapshot record (nil when the
	// directory was never snapshotted: it starts empty), DirDeltas the
	// payloads of the delta records after it, in checkpoint order.
	DirSnapshot []byte
	DirDeltas   [][]byte
	// Pages maps page id to the recovered page image.
	Pages map[PageID]*[PageSize]byte
	// WALPagesReplayed counts page records re-applied from a committed WAL
	// batch (nonzero when the crash hit between WAL commit and data-file
	// apply).
	WALPagesReplayed int
	// TornPagesRepaired counts data-file records whose checksum was invalid
	// and whose content was recovered from the WAL copy.
	TornPagesRepaired int
	// WALTailDiscarded reports whether an uncommitted (or torn) WAL tail was
	// thrown away — the crash hit mid-append, so the previous checkpoint is
	// the durable state.
	WALTailDiscarded bool
}

// OpenPageStore opens (creating if necessary) the durable page store in dir
// and runs recovery, returning the store and the recovered image.
func OpenPageStore(dir string) (*PageStore, *RecoveredImage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	ps := &PageStore{dir: dir, failAfter: -1}
	var err error
	if ps.lockF, err = lockDir(dir); err != nil {
		return nil, nil, err
	}
	img, err := ps.open()
	if err != nil {
		ps.Abandon()
		return nil, nil, err
	}
	return ps, img, nil
}

// open opens the three data files and recovers. On error the caller abandons
// the store, which closes whatever was opened.
func (ps *PageStore) open() (*RecoveredImage, error) {
	// A .tmp file is a replace that never reached its rename.
	for _, name := range []string{"meta.gomdb.tmp", "dir.gomdb.tmp"} {
		if err := os.Remove(filepath.Join(ps.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	created := false
	for _, f := range []struct {
		dst   **os.File
		name  string
		magic string
		extra uint32
	}{
		{&ps.dataF, "data.gomdb", dataMagic, pageRecSize},
		{&ps.walF, "wal.gomdb", walMagic, 0},
		{&ps.dirF, "dir.gomdb", dirMagic, 0},
	} {
		file, fresh, err := openWithHeader(filepath.Join(ps.dir, f.name), f.magic, f.extra)
		if err != nil {
			return nil, err
		}
		*f.dst = file
		created = created || fresh
	}
	if created {
		if err := syncDir(ps.dir); err != nil {
			return nil, err
		}
	}
	return ps.recover()
}

// Dir returns the directory the store lives in.
func (ps *PageStore) Dir() string { return ps.dir }

// fileHeader returns the 16-byte header every store file starts with.
func fileHeader(magic string, extra uint32) []byte {
	hdr := make([]byte, fileHeaderSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], extra)
	return hdr
}

// checkFileHeader verifies the magic and version of a store file's header.
func checkFileHeader(name string, hdr []byte, magic string) error {
	if len(hdr) < fileHeaderSize {
		return fmt.Errorf("storage: %s: short header (%d bytes)", name, len(hdr))
	}
	if string(hdr[:8]) != magic {
		return fmt.Errorf("storage: %s: bad magic %q (want %q)", name, hdr[:8], magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != FormatVersion {
		return fmt.Errorf("storage: %s: format version %d, this build reads version %d", name, v, FormatVersion)
	}
	return nil
}

// openWithHeader opens path read-write, writing (and fsyncing) the 16-byte
// header if the file is fresh and verifying magic and version otherwise.
// fresh tells the caller to fsync the directory too.
func openWithHeader(path, magic string, extra uint32) (f *os.File, fresh bool, err error) {
	f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		if err != nil {
			f.Close()
			f = nil
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return f, false, err
	}
	if st.Size() == 0 {
		if _, err = f.WriteAt(fileHeader(magic, extra), 0); err != nil {
			return f, false, err
		}
		return f, true, f.Sync()
	}
	hdr := make([]byte, fileHeaderSize)
	if _, err = io.ReadFull(io.NewSectionReader(f, 0, fileHeaderSize), hdr); err != nil {
		return f, false, fmt.Errorf("storage: %s: short header: %w", path, err)
	}
	return f, false, checkFileHeader(path, hdr, magic)
}

// syncDir fsyncs a directory, making the creations and renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReplaceFile atomically and durably replaces dir/name with content: the
// bytes are fsynced under a .tmp name before the rename and the directory
// after it, so a crash leaves either the old file or the complete new one.
// Exported for the other small metadata files that sit beside page stores
// (the shard router's router.json).
func ReplaceFile(dir, name string, content []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(content); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// FailNextCheckpointAfter arms the crash-mid-checkpoint injection: the next
// checkpoint writes only the first n bytes of its WAL batch, fsyncs, and
// reports ErrSimulatedCrash. If the batch turns out shorter than n the
// checkpoint completes normally; either way the hook disarms.
func (ps *PageStore) FailNextCheckpointAfter(n int64) { ps.failAfter = n }

// SetTornWriteHook installs the per-page torn-write oracle consulted during
// the data-file apply (see PageStore.torn).
func (ps *PageStore) SetTornWriteHook(fn func(PageID) bool) { ps.torn = fn }

// NextSeq returns the sequence number the next checkpoint will carry.
func (ps *PageStore) NextSeq() uint64 { return ps.seq + 1 }

// appendPageRecord appends the data-file record for page id to dst.
func appendPageRecord(dst []byte, id PageID, data []byte) []byte {
	start := len(dst)
	dst = append(dst, data...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// walRecordAt frames one WAL record with an n-byte payload at the start of
// dst and returns the payload for the caller to fill; sealWALRecord then
// checksums it.
func walRecordAt(dst []byte, kind byte, n int) (payload []byte) {
	dst[0] = kind
	binary.LittleEndian.PutUint32(dst[1:], uint32(n))
	return dst[5 : 5+n]
}

// sealWALRecord writes the checksum of the record with an n-byte payload at
// the start of dst and returns the record's length.
func sealWALRecord(dst []byte, n int) int {
	binary.LittleEndian.PutUint32(dst[5+n:], crc32.Checksum(dst[:5+n], castagnoli))
	return walRecOverhead + n
}

// pageImage is one page of a committed batch; data aliases the WAL bytes.
type pageImage struct {
	id   PageID
	data []byte
}

// dirRecord is one dir.gomdb record, or the directory record of a WAL batch.
type dirRecord struct {
	seq      uint64
	snapshot bool
	payload  []byte
}

// Checkpoint is CheckpointDir for a caller with no OID directory.
func (ps *PageStore) Checkpoint(pages []PageID, read func(PageID, *[PageSize]byte) error, meta []byte) error {
	return ps.CheckpointDir(pages, read, meta, DirUpdate{})
}

// CheckpointDir atomically advances the durable state: pages (the ids dirty
// since the last checkpoint) are snapshotted through read, logged to the WAL
// together with meta and the directory update, applied to the data file and
// dir.gomdb, and committed. On success the durable state is exactly the
// caller's current state; on error (including the injected ErrSimulatedCrash)
// the store must be abandoned and reopened — recovery then yields either the
// previous or, if the WAL batch committed, the new checkpoint.
func (ps *PageStore) CheckpointDir(pages []PageID, read func(PageID, *[PageSize]byte) error, meta []byte, dir DirUpdate) error {
	if ps.closed {
		return errors.New("storage: checkpoint on closed page store")
	}
	seq := ps.seq + 1
	hasDir := dir.Snapshot || len(dir.Payload) > 0

	// Assemble the WAL batch in one buffer sized up front: every page record
	// (read straight into place), the directory record, the meta record,
	// commit.
	size := len(pages)*walPageRecSize + walRecOverhead + 8 + len(meta) + walRecOverhead + 4
	if hasDir {
		size += walRecOverhead + 1 + len(dir.Payload)
	}
	batch := make([]byte, size)
	images := make([]pageImage, len(pages))
	off := 0
	for i, id := range pages {
		p := walRecordAt(batch[off:], walPageRec, 4+PageSize)
		binary.LittleEndian.PutUint32(p, uint32(id))
		if err := read(id, (*[PageSize]byte)(p[4:])); err != nil {
			return fmt.Errorf("storage: checkpoint snapshot of page %d: %w", id, err)
		}
		images[i] = pageImage{id, p[4:]}
		off += sealWALRecord(batch[off:], len(p))
	}
	var dirs []dirRecord
	if hasDir {
		p := walRecordAt(batch[off:], walDirRec, 1+len(dir.Payload))
		if dir.Snapshot {
			p[0] = 1
		}
		copy(p[1:], dir.Payload)
		dirs = []dirRecord{{seq, dir.Snapshot, p[1:]}}
		off += sealWALRecord(batch[off:], len(p))
	}
	p := walRecordAt(batch[off:], walMetaRec, 8+len(meta))
	binary.LittleEndian.PutUint64(p, seq)
	copy(p[8:], meta)
	off += sealWALRecord(batch[off:], len(p))
	p = walRecordAt(batch[off:], walCommitRec, 4)
	binary.LittleEndian.PutUint32(p, uint32(len(pages)))
	sealWALRecord(batch[off:], len(p))

	// Step 1: append the batch, honoring the injected crash point.
	if fa := ps.failAfter; fa >= 0 {
		ps.failAfter = -1
		if fa < int64(len(batch)) {
			if _, err := ps.walF.WriteAt(batch[:fa], ps.walEnd); err != nil {
				return err
			}
			if err := ps.walF.Sync(); err != nil {
				return err
			}
			ps.walEnd += fa
			return fmt.Errorf("storage: checkpoint WAL append cut off after %d bytes: %w", fa, ErrSimulatedCrash)
		}
	}
	if _, err := ps.walF.WriteAt(batch, ps.walEnd); err != nil {
		return err
	}
	if err := ps.walF.Sync(); err != nil {
		return err
	}
	ps.walEnd += int64(len(batch))

	// Steps 2-5.
	return ps.applyCommitted(images, dirs, seq, meta)
}

// applyCommitted performs checkpoint steps 2-5 (data-file apply, directory
// update, meta replace, WAL truncate) for a batch that is already committed
// in the WAL.
func (ps *PageStore) applyCommitted(pages []pageImage, dirs []dirRecord, seq uint64, meta []byte) error {
	// run holds the records of the current run of adjacent page ids, written
	// with one call when the run ends.
	var run []byte
	var runStart PageID
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		_, err := ps.dataF.WriteAt(run, fileHeaderSize+int64(runStart-1)*pageRecSize)
		run = run[:0]
		return err
	}
	for i, p := range pages {
		if i > 0 && p.id != pages[i-1].id+1 {
			if err := flush(); err != nil {
				return err
			}
		}
		if len(run) == 0 {
			runStart = p.id
		}
		run = appendPageRecord(run, p.id, p.data)
		if ps.torn != nil && ps.torn(p.id) {
			run = run[:len(run)-pageRecSize/2]
			if err := flush(); err != nil {
				return err
			}
			if err := ps.dataF.Sync(); err != nil {
				return err
			}
			return fmt.Errorf("storage: torn write of page %d during checkpoint apply: %w", p.id, ErrSimulatedCrash)
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := ps.dataF.Sync(); err != nil {
		return err
	}
	for _, d := range dirs {
		if err := ps.applyDirRecord(d); err != nil {
			return err
		}
	}
	if err := ps.writeMetaFile(seq, meta); err != nil {
		return err
	}
	ps.seq = seq
	if err := ps.walF.Truncate(fileHeaderSize); err != nil {
		return err
	}
	if err := ps.walF.Sync(); err != nil {
		return err
	}
	ps.walEnd = fileHeaderSize
	return nil
}

// appendDirRecord appends the dir.gomdb framing of d to dst.
func appendDirRecord(dst []byte, d dirRecord) []byte {
	start := len(dst)
	kind := byte(dirDeltaRec)
	if d.snapshot {
		kind = dirSnapshotRec
	}
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, d.seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.payload)))
	dst = append(dst, d.payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// applyDirRecord makes d durable in dir.gomdb (checkpoint step 3): a delta is
// appended and fsynced, a snapshot replaces the file. A record the file
// already holds — recovery replaying a batch whose step 3 had completed — is
// skipped.
func (ps *PageStore) applyDirRecord(d dirRecord) error {
	if d.seq <= ps.dirSeq {
		return nil
	}
	if !d.snapshot {
		rec := appendDirRecord(nil, d)
		if _, err := ps.dirF.WriteAt(rec, ps.dirEnd); err != nil {
			return err
		}
		if err := ps.dirF.Sync(); err != nil {
			return err
		}
		ps.dirEnd += int64(len(rec))
		ps.dirSeq = d.seq
		return nil
	}
	content := appendDirRecord(fileHeader(dirMagic, 0), d)
	if err := ReplaceFile(ps.dir, "dir.gomdb", content); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(ps.dir, "dir.gomdb"), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	ps.dirF.Close()
	ps.dirF, ps.dirEnd, ps.dirSeq = f, int64(len(content)), d.seq
	return nil
}

// loadDir parses dir.gomdb and cuts it back to what the checkpoint with
// sequence number metaSeq committed: it truncates the file at the first torn
// record and at the first record newer than metaSeq (a checkpoint whose meta
// replace never happened; a committed WAL batch will write it again).
// dropped reports that the cut removed a snapshot, which only that WAL batch
// can put back.
func (ps *PageStore) loadDir(metaSeq uint64) (recs []dirRecord, dropped bool, err error) {
	st, err := ps.dirF.Stat()
	if err != nil {
		return nil, false, err
	}
	buf := make([]byte, st.Size()-fileHeaderSize)
	if _, err := io.ReadFull(io.NewSectionReader(ps.dirF, fileHeaderSize, int64(len(buf))), buf); err != nil {
		return nil, false, err
	}
	off := 0
	for off+dirRecOverhead <= len(buf) {
		kind := buf[off]
		seq := binary.LittleEndian.Uint64(buf[off+1:])
		n := int(binary.LittleEndian.Uint32(buf[off+9:]))
		if off+dirRecOverhead+n > len(buf) ||
			crc32.Checksum(buf[off:off+13+n], castagnoli) != binary.LittleEndian.Uint32(buf[off+13+n:]) {
			break // torn append
		}
		if seq > metaSeq {
			dropped = kind == dirSnapshotRec
			break
		}
		// Past this point a bad record is not a crash artifact: it carries a
		// valid checksum.
		snapshot := kind == dirSnapshotRec
		if (!snapshot && kind != dirDeltaRec) || (snapshot && off != 0) || seq <= ps.dirSeq {
			return nil, false, fmt.Errorf("storage: dir.gomdb: record kind %d with sequence %d at offset %d is out of place",
				kind, seq, fileHeaderSize+off)
		}
		recs = append(recs, dirRecord{seq, snapshot, buf[off+13 : off+13+n]})
		ps.dirSeq = seq
		off += dirRecOverhead + n
	}
	ps.dirEnd = fileHeaderSize + int64(off)
	if off < len(buf) {
		if err := ps.dirF.Truncate(ps.dirEnd); err != nil {
			return nil, false, err
		}
		if err := ps.dirF.Sync(); err != nil {
			return nil, false, err
		}
	}
	return recs, dropped, nil
}

// writeMetaFile durably replaces meta.gomdb (checkpoint step 4).
func (ps *PageStore) writeMetaFile(seq uint64, meta []byte) error {
	buf := fileHeader(metaMagic, 0)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[fileHeaderSize:], castagnoli))
	return ReplaceFile(ps.dir, "meta.gomdb", buf)
}

// readMetaFile reads and validates meta.gomdb; a missing file returns
// (0, nil, false, nil).
func (ps *PageStore) readMetaFile() (seq uint64, meta []byte, ok bool, err error) {
	buf, err := os.ReadFile(filepath.Join(ps.dir, "meta.gomdb"))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, err
	}
	if err := checkFileHeader("meta.gomdb", buf, metaMagic); err != nil {
		return 0, nil, false, err
	}
	body := buf[fileHeaderSize:]
	if len(body) < 16 {
		return 0, nil, false, fmt.Errorf("storage: meta.gomdb truncated (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(body[8:]))
	if len(body) < 12+n+4 {
		return 0, nil, false, fmt.Errorf("storage: meta.gomdb truncated (blob wants %d bytes)", n)
	}
	if crc32.Checksum(body[:12+n], castagnoli) != binary.LittleEndian.Uint32(body[12+n:]) {
		return 0, nil, false, errors.New("storage: meta.gomdb: checksum mismatch")
	}
	return binary.LittleEndian.Uint64(body), body[12 : 12+n], true, nil
}

// walBatch is what the committed batches of a WAL add up to (in append
// order, later batches overriding earlier ones).
type walBatch struct {
	pages []pageImage // one per page id, first-seen order, latest image
	dirs  []dirRecord
	seq   uint64
	meta  []byte // nil when no batch committed
}

// scanWAL parses the WAL, returning its committed batches and whether an
// uncommitted/torn tail was found. Only records up to the last valid commit
// record count.
func (ps *PageStore) scanWAL() (committed walBatch, tail bool, err error) {
	st, err := ps.walF.Stat()
	if err != nil {
		return walBatch{}, false, err
	}
	buf := make([]byte, st.Size()-fileHeaderSize)
	if _, err := io.ReadFull(io.NewSectionReader(ps.walF, fileHeaderSize, int64(len(buf))), buf); err != nil {
		return walBatch{}, false, err
	}
	index := make(map[PageID]int) // position in committed.pages
	var batch walBatch            // the batch in flight
	var batchDir *dirRecord
	off := 0
	for off < len(buf) {
		if off+5 > len(buf) {
			break
		}
		kind := buf[off]
		n := int(binary.LittleEndian.Uint32(buf[off+1:]))
		if kind < walPageRec || kind > walDirRec || off+walRecOverhead+n > len(buf) ||
			crc32.Checksum(buf[off:off+5+n], castagnoli) != binary.LittleEndian.Uint32(buf[off+5+n:]) {
			break
		}
		payload := buf[off+5 : off+5+n]
		bad := false
		switch kind {
		case walPageRec:
			if bad = n != 4+PageSize; !bad {
				batch.pages = append(batch.pages, pageImage{PageID(binary.LittleEndian.Uint32(payload)), payload[4:]})
			}
		case walDirRec:
			if bad = n < 1; !bad {
				batchDir = &dirRecord{snapshot: payload[0] == 1, payload: payload[1:]}
			}
		case walMetaRec:
			if bad = n < 8; !bad {
				batch.seq, batch.meta = binary.LittleEndian.Uint64(payload), payload[8:]
			}
		case walCommitRec:
			if bad = batch.meta == nil; bad {
				break
			}
			for _, p := range batch.pages {
				if i, seen := index[p.id]; seen {
					committed.pages[i] = p
				} else {
					index[p.id] = len(committed.pages)
					committed.pages = append(committed.pages, p)
				}
			}
			if batchDir != nil {
				batchDir.seq = batch.seq
				committed.dirs = append(committed.dirs, *batchDir)
			}
			committed.seq, committed.meta = batch.seq, batch.meta
			batch, batchDir = walBatch{}, nil
		}
		if bad {
			break
		}
		off += walRecOverhead + n
	}
	// Anything after the last commit — a torn record, or whole records of an
	// unfinished batch — is the tail.
	tail = off < len(buf) || len(batch.pages) > 0 || batchDir != nil || batch.meta != nil
	return committed, tail, nil
}

// recover implements the OpenPageStore recovery path; see the type comment.
func (ps *PageStore) recover() (*RecoveredImage, error) {
	img := &RecoveredImage{Pages: make(map[PageID]*[PageSize]byte)}

	seq, metaBlob, haveMeta, err := ps.readMetaFile()
	if err != nil {
		return nil, err
	}
	ps.seq = seq
	dirRecs, droppedSnapshot, err := ps.loadDir(seq)
	if err != nil {
		return nil, err
	}
	wal, tail, err := ps.scanWAL()
	if err != nil {
		return nil, err
	}
	img.WALTailDiscarded = tail

	// Validate every data-file record.
	st, err := ps.dataF.Stat()
	if err != nil {
		return nil, err
	}
	numRecs := (st.Size() - fileHeaderSize) / pageRecSize
	torn := make(map[PageID]bool)
	rec := make([]byte, pageRecSize)
	for i := int64(1); i <= numRecs; i++ {
		off := fileHeaderSize + (i-1)*pageRecSize
		if _, err := io.ReadFull(io.NewSectionReader(ps.dataF, off, pageRecSize), rec); err != nil {
			torn[PageID(i)] = true
			continue
		}
		id := PageID(binary.LittleEndian.Uint32(rec[PageSize:]))
		if id == 0 {
			continue // never written
		}
		if id != PageID(i) ||
			crc32.Checksum(rec[:PageSize+4], castagnoli) != binary.LittleEndian.Uint32(rec[PageSize+4:]) {
			torn[PageID(i)] = true
			continue
		}
		p := new([PageSize]byte)
		copy(p[:], rec[:PageSize])
		img.Pages[id] = p
	}
	// A trailing partial record (file size not a multiple of pageRecSize) is
	// a torn append of the next page id.
	if rem := (st.Size() - fileHeaderSize) % pageRecSize; rem > 0 {
		torn[PageID(numRecs+1)] = true
	}

	if wal.meta != nil {
		// A committed batch outlived the crash: its apply (or directory
		// update, meta replace or WAL truncate) did not finish. Replay it —
		// the WAL copy supersedes whatever the data file holds, including
		// records a torn write corrupted — and finish the interrupted
		// checkpoint so the store is clean again.
		for _, p := range wal.pages {
			if torn[p.id] {
				img.TornPagesRepaired++
				delete(torn, p.id)
			}
			img.Pages[p.id] = (*[PageSize]byte)(p.data)
			img.WALPagesReplayed++
		}
		for _, d := range wal.dirs {
			switch {
			case d.seq <= ps.dirSeq: // dir.gomdb holds it already
			case d.snapshot:
				dirRecs, droppedSnapshot = []dirRecord{d}, false
			default:
				dirRecs = append(dirRecs, d)
			}
		}
		hook := ps.torn
		ps.torn = nil // recovery re-applies without re-injecting tears
		err := ps.applyCommitted(wal.pages, wal.dirs, wal.seq, wal.meta)
		ps.torn = hook
		if err != nil {
			return nil, fmt.Errorf("storage: finishing interrupted checkpoint: %w", err)
		}
		metaBlob, haveMeta = wal.meta, true
	} else {
		ps.walEnd = fileHeaderSize
		if tail {
			// Only an uncommitted tail: discard it so the next checkpoint
			// appends to a clean log.
			if err := ps.walF.Truncate(fileHeaderSize); err != nil {
				return nil, err
			}
			if err := ps.walF.Sync(); err != nil {
				return nil, err
			}
		}
	}
	if droppedSnapshot {
		return nil, fmt.Errorf("storage: dir.gomdb holds a snapshot newer than meta.gomdb (sequence %d) and no committed WAL batch rewrites it", ps.seq)
	}

	// Any record still torn was not healed by the WAL. That is only legal if
	// the metadata does not reference it (e.g. a record of a long-freed page);
	// the engine validates its live page set against img.Pages.
	for id := range torn {
		delete(img.Pages, id)
	}

	img.Exists = haveMeta
	img.Seq = ps.seq
	img.Meta = metaBlob
	for _, d := range dirRecs {
		if d.snapshot {
			img.DirSnapshot = d.payload
		} else {
			img.DirDeltas = append(img.DirDeltas, d.payload)
		}
	}
	return img, nil
}

// Close closes the store's files. It does NOT checkpoint; callers that want
// the current state durable checkpoint first (gomdb's Close does).
func (ps *PageStore) Close() error {
	if ps.closed {
		return nil
	}
	ps.closed = true
	var first error
	for _, f := range []*os.File{ps.dataF, ps.walF, ps.dirF} {
		if f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	unlockDir(ps.lockF)
	return first
}

// Abandon closes the underlying files without any syncing or checkpointing —
// the programmatic equivalent of the process dying. The on-disk state remains
// whatever the last fsync established; reopening the directory runs recovery.
func (ps *PageStore) Abandon() { ps.Close() }
