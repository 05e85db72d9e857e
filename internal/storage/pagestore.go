package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// PageStore is the optional durable backend behind the simulated Disk: a
// file-backed page store plus a physical write-ahead log with page-level redo
// records and checksums. The paper's GOM prototype inherited durability from
// the EXODUS storage manager; this reproduction gets it from three data files
// plus one metadata file in a directory:
//
//	data.gomdb  page records, one fixed-size slot per page id
//	wal.gomdb   the redo log: every group committed since the last checkpoint
//	dir.gomdb   the OID directory: one snapshot record, then one delta record
//	            per commit that changed the directory
//	meta.gomdb  the sequence number and engine metadata blob of the last
//	            group a checkpoint folded into the other files
//
// A commit is not a checkpoint. The durable unit is the commit: the engine
// (gomdb facade) collects every page written since the last commit, a small
// metadata blob and the directory ops journaled since the last commit (a
// DirUpdate), and calls Commit, which stamps all of it with the next
// sequence number and performs step 1 alone:
//
//  1. append all page records, the directory record, the meta record and a
//     commit record to the WAL with one write; fsync it    (crash
//     before/during: the tail is discarded, the previous commit remains the
//     durable state)
//
// The checkpoint (Apply) performs steps 2-5 over every group committed since
// the last one. It runs inside the Commit that takes the WAL past
// walCheckpointBytes, and whenever the engine asks (gomdb's Close and
// Checkpoint):
//
//  2. write each page's latest logged image to the data file, located
//     through the in-memory page → WAL offset index, one write per run of
//     adjacent page ids; fsync it    (crash during: the committed WAL is
//     replayed on recovery, repairing torn records)
//  3. append the directory deltas to dir.gomdb and fsync it — or, when a
//     group carried a snapshot, write dir.gomdb.tmp holding the last
//     snapshot and the deltas after it, fsync it, rename it over dir.gomdb
//     and fsync the directory
//  4. replace meta.gomdb: write meta.gomdb.tmp, fsync it, rename, fsync the
//     directory. Only now does the WAL stop being needed.
//  5. truncate the WAL and fsync it
//
// Every step is durable before the next begins, so the WAL is never truncated
// beside a meta file that could still vanish, and a file that was just
// created (or renamed into place) has its directory entry fsynced before
// anything depends on it. An acknowledged commit therefore costs one WAL
// write and one fsync; the checkpoint's five fsyncs are paid once per
// walCheckpointBytes of log.
//
// Recovery (OpenPageStore) always returns exactly the state of the last
// commit: it removes leftover .tmp files, truncates dir.gomdb at the first
// torn record or the first record newer than meta.gomdb's sequence number
// (step 3 ran, step 4 did not), scans the WAL, discards an uncommitted tail,
// replays every committed group (running steps 2-5 over them; a directory
// record dir.gomdb already holds is skipped), and validates every data-file
// record's checksum, preferring the WAL copy for a record a torn write
// corrupted. A crash between checkpoints thus replays up to
// walCheckpointBytes of log.
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

	// walEnd is the append offset of the WAL (header-only after a
	// checkpoint); dirEnd that of dir.gomdb.
	walEnd int64
	dirEnd int64

	// seq is the sequence number of the last committed group (0 on a fresh
	// store); dirSeq that of the last record in dir.gomdb.
	seq    uint64
	dirSeq uint64

	// logged indexes the groups committed since the last checkpoint: the
	// WAL offset of each page's latest image, the directory records in
	// commit order, and the meta blob of the last group. The checkpoint
	// reads the images back from the WAL through it.
	logged     map[PageID]int64
	loggedDirs []walDir
	meta       []byte

	// run is the checkpoint's reused buffer of data-file records for one run
	// of adjacent page ids (at most maxRunPages of them).
	run []byte
	// group is Commit's reused buffer for one WAL group, kept between
	// commits only while it is at most maxRetainedGroup bytes.
	group []byte

	// failAfter, when >= 0, cuts the next commit's WAL group off after that
	// many bytes and reports ErrSimulatedCrash — the crash-mid-flush
	// injection hook of the simulation harness. Disarmed after one commit
	// regardless of whether it fired.
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

	// walCheckpointBytes is the WAL size past which a commit runs the
	// checkpoint: large enough that its five fsyncs are paid once per
	// several dozen commits, small enough that recovery replays little.
	walCheckpointBytes = 8 << 20
	// maxRunPages bounds the checkpoint's run buffer: a longer run of
	// adjacent page ids is written in pieces of this many records.
	maxRunPages = 32
	// maxRetainedGroup bounds the WAL group buffer a store keeps between
	// commits: a batch's group is a few dozen pages, while the first commit
	// of a freshly loaded base logs every page, and keeping that buffer
	// would pin megabytes for the store's life.
	maxRetainedGroup = 512 << 10
)

// DirUpdate is what one commit does to the OID directory in dir.gomdb. The
// payload is the object manager's encoding and opaque here: the store frames
// it, stamps it with the commit's sequence number, and makes it durable
// atomically with the pages it describes.
type DirUpdate struct {
	// Snapshot says Payload is the whole directory and replaces the file;
	// otherwise Payload holds the ops since the last commit and extends it.
	// An empty delta writes nothing.
	Snapshot bool
	Payload  []byte
}

// ErrSimulatedCrash marks an injected crash point: a commit that was
// deliberately cut short (FailNextCommitAfter) or a checkpoint torn by a
// FaultTornWrite rule. The store must be abandoned afterwards, exactly as after a real
// crash; reopening the directory runs recovery.
var ErrSimulatedCrash = errors.New("storage: simulated crash")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecoveredImage is what OpenPageStore recovered from the directory: the page
// images, metadata blob and OID directory of the last commit, plus counters
// describing the repair work recovery performed.
type RecoveredImage struct {
	// Exists reports whether any commit was found; false means the directory
	// is fresh (Pages and Meta are empty).
	Exists bool
	// Seq is the sequence number of the last commit.
	Seq uint64
	// Meta is the engine metadata blob of the last commit.
	Meta []byte
	// DirSnapshot is the payload of dir.gomdb's snapshot record (nil when the
	// directory was never snapshotted: it starts empty), DirDeltas the
	// payloads of the delta records after it, in commit order.
	DirSnapshot []byte
	DirDeltas   [][]byte
	// Pages maps page id to the recovered page image.
	Pages map[PageID]*[PageSize]byte
	// WALPagesReplayed counts the pages re-applied from the groups the WAL
	// held (one per page id, its latest image): nonzero after any crash
	// between a commit and the checkpoint that would have applied it.
	WALPagesReplayed int
	// TornPagesRepaired counts data-file records whose checksum was invalid
	// and whose content was recovered from the WAL copy.
	TornPagesRepaired int
	// WALTailDiscarded reports whether an uncommitted (or torn) WAL tail was
	// thrown away — the crash hit mid-append, so the previous commit is the
	// durable state.
	WALTailDiscarded bool
}

// OpenPageStore opens (creating if necessary) the durable page store in dir
// and runs recovery, returning the store and the recovered image.
func OpenPageStore(dir string) (*PageStore, *RecoveredImage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	ps := &PageStore{dir: dir, failAfter: -1, logged: make(map[PageID]int64)}
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

// FailNextCommitAfter arms the crash-mid-commit injection: the next commit
// writes only the first n bytes of its WAL group, fsyncs, and reports
// ErrSimulatedCrash. If the group turns out shorter than n the commit
// completes normally; either way the hook disarms.
func (ps *PageStore) FailNextCommitAfter(n int64) { ps.failAfter = n }

// SetTornWriteHook installs the per-page torn-write oracle consulted during
// the data-file apply (see PageStore.torn).
func (ps *PageStore) SetTornWriteHook(fn func(PageID) bool) { ps.torn = fn }

// NextSeq returns the sequence number the next commit will carry.
func (ps *PageStore) NextSeq() uint64 { return ps.seq + 1 }

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

// dirRecord is one dir.gomdb record.
type dirRecord struct {
	seq      uint64
	snapshot bool
	payload  []byte
}

// walDir locates the directory record of a committed WAL group: its payload
// is the n bytes at WAL offset off.
type walDir struct {
	seq      uint64
	snapshot bool
	off      int64
	n        int
}

// Checkpoint is Commit with no directory update followed by Apply: the
// whole durable path in one call, for callers with no OID directory.
func (ps *PageStore) Checkpoint(pages []PageID, read func(PageID, *[PageSize]byte) error, meta []byte) error {
	if err := ps.Commit(pages, read, meta, DirUpdate{}); err != nil {
		return err
	}
	return ps.Apply()
}

// Commit atomically advances the durable state with one WAL append and one
// fsync: pages (the ids dirty since the last commit) are snapshotted through
// read and logged together with meta and the directory update as one group.
// The data file, dir.gomdb and meta.gomdb are left alone until the next
// checkpoint, which Commit runs itself once the WAL passes
// walCheckpointBytes. On success the durable state is exactly the caller's
// current state; on error (including the injected ErrSimulatedCrash) the
// store must be abandoned and reopened — recovery then yields either the
// previous commit or, if the group's commit record reached the disk, this
// one. read must fill the whole page. The group is assembled in a buffer the
// store reuses from commit to commit, kept only up to maxRetainedGroup
// (512 KiB), so every byte of it is written here.
func (ps *PageStore) Commit(pages []PageID, read func(PageID, *[PageSize]byte) error, meta []byte, dir DirUpdate) error {
	if ps.closed {
		return errors.New("storage: commit on closed page store")
	}
	seq := ps.seq + 1
	hasDir := dir.Snapshot || len(dir.Payload) > 0

	// Assemble the group in one buffer sized up front: every page record
	// (read straight into place), the directory record, the meta record,
	// commit.
	size := len(pages)*walPageRecSize + walRecOverhead + 8 + len(meta) + walRecOverhead + 4
	if hasDir {
		size += walRecOverhead + 1 + len(dir.Payload)
	}
	group := ps.group
	if cap(group) < size {
		group = make([]byte, size)
	}
	group = group[:size]
	if size <= maxRetainedGroup {
		ps.group = group
	}
	off := 0
	for _, id := range pages {
		p := walRecordAt(group[off:], walPageRec, 4+PageSize)
		binary.LittleEndian.PutUint32(p, uint32(id))
		if err := read(id, (*[PageSize]byte)(p[4:])); err != nil {
			return fmt.Errorf("storage: commit snapshot of page %d: %w", id, err)
		}
		off += sealWALRecord(group[off:], len(p))
	}
	dirOff := off
	if hasDir {
		p := walRecordAt(group[off:], walDirRec, 1+len(dir.Payload))
		p[0] = 0
		if dir.Snapshot {
			p[0] = 1
		}
		copy(p[1:], dir.Payload)
		off += sealWALRecord(group[off:], len(p))
	}
	p := walRecordAt(group[off:], walMetaRec, 8+len(meta))
	binary.LittleEndian.PutUint64(p, seq)
	copy(p[8:], meta)
	off += sealWALRecord(group[off:], len(p))
	p = walRecordAt(group[off:], walCommitRec, 4)
	binary.LittleEndian.PutUint32(p, uint32(len(pages)))
	sealWALRecord(group[off:], len(p))

	// Step 1: append the group, honoring the injected crash point.
	if fa := ps.failAfter; fa >= 0 {
		ps.failAfter = -1
		if fa < int64(len(group)) {
			if _, err := ps.walF.WriteAt(group[:fa], ps.walEnd); err != nil {
				return err
			}
			if err := ps.walF.Sync(); err != nil {
				return err
			}
			ps.walEnd += fa
			return fmt.Errorf("storage: commit WAL append cut off after %d bytes: %w", fa, ErrSimulatedCrash)
		}
	}
	if _, err := ps.walF.WriteAt(group, ps.walEnd); err != nil {
		return err
	}
	if err := ps.walF.Sync(); err != nil {
		return err
	}

	// The group is durable: index it for the checkpoint. A page's image
	// follows its record's kind, length and page id.
	for i, id := range pages {
		ps.logged[id] = ps.walEnd + int64(i*walPageRecSize+5+4)
	}
	if hasDir {
		ps.loggedDirs = append(ps.loggedDirs, walDir{seq, dir.Snapshot, ps.walEnd + int64(dirOff+5+1), len(dir.Payload)})
	}
	ps.meta = append(ps.meta[:0], meta...)
	ps.seq = seq
	ps.walEnd += int64(len(group))
	if ps.walEnd >= walCheckpointBytes {
		return ps.Apply()
	}
	return nil
}

// Apply is the checkpoint: steps 2-5 (data-file apply, directory update,
// meta replace, WAL truncate) over every group committed since the last
// checkpoint. Each page's latest image is read back from the WAL through the
// logged index into the reused run buffer, so the log is never re-read
// whole. A no-op when nothing was committed since the last checkpoint. On
// error the store must be abandoned and reopened; recovery replays the WAL.
func (ps *PageStore) Apply() error {
	if ps.closed {
		return errors.New("storage: checkpoint on closed page store")
	}
	if ps.walEnd == fileHeaderSize {
		return nil
	}
	ids := make([]PageID, 0, len(ps.logged))
	for id := range ps.logged {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	// run holds the records of the current run of adjacent page ids, written
	// with one call when the run ends.
	run := ps.run[:0]
	var runStart PageID
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		_, err := ps.dataF.WriteAt(run, fileHeaderSize+int64(runStart-1)*pageRecSize)
		run = run[:0]
		return err
	}
	defer func() { ps.run = run[:0] }()
	for i, id := range ids {
		if i > 0 && (id != ids[i-1]+1 || len(run) == maxRunPages*pageRecSize) {
			if err := flush(); err != nil {
				return err
			}
		}
		if len(run) == 0 {
			runStart = id
		}
		rec := len(run)
		run = slices.Grow(run, pageRecSize)[:rec+PageSize]
		if _, err := ps.walF.ReadAt(run[rec:], ps.logged[id]); err != nil {
			return fmt.Errorf("storage: checkpoint read of page %d from the WAL: %w", id, err)
		}
		run = binary.LittleEndian.AppendUint32(run, uint32(id))
		run = binary.LittleEndian.AppendUint32(run, crc32.Checksum(run[rec:], castagnoli))
		if ps.torn != nil && ps.torn(id) {
			run = run[:len(run)-pageRecSize/2]
			if err := flush(); err != nil {
				return err
			}
			if err := ps.dataF.Sync(); err != nil {
				return err
			}
			return fmt.Errorf("storage: torn write of page %d during checkpoint apply: %w", id, ErrSimulatedCrash)
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := ps.dataF.Sync(); err != nil {
		return err
	}
	if err := ps.applyDirRecords(); err != nil {
		return err
	}
	if err := ps.writeMetaFile(ps.seq, ps.meta); err != nil {
		return err
	}
	if err := ps.walF.Truncate(fileHeaderSize); err != nil {
		return err
	}
	if err := ps.walF.Sync(); err != nil {
		return err
	}
	ps.walEnd = fileHeaderSize
	clear(ps.logged)
	ps.loggedDirs = ps.loggedDirs[:0]
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

// applyDirRecords makes the logged directory records durable in dir.gomdb
// (checkpoint step 3). Records the file already holds — recovery replaying
// groups whose step 3 had completed — are skipped. The deltas are appended
// with one write and one fsync; when a snapshot is among them, the last one
// and the deltas after it replace the file instead.
func (ps *PageStore) applyDirRecords() error {
	var recs []walDir
	for _, d := range ps.loggedDirs {
		if d.seq > ps.dirSeq {
			recs = append(recs, d)
		}
	}
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	snapshot := false
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].snapshot {
			recs, snapshot = recs[i:], true
			buf = fileHeader(dirMagic, 0)
			break
		}
	}
	for _, d := range recs {
		payload := make([]byte, d.n)
		if _, err := ps.walF.ReadAt(payload, d.off); err != nil {
			return fmt.Errorf("storage: checkpoint read of directory record %d from the WAL: %w", d.seq, err)
		}
		buf = appendDirRecord(buf, dirRecord{d.seq, d.snapshot, payload})
	}
	last := recs[len(recs)-1].seq
	if !snapshot {
		if _, err := ps.dirF.WriteAt(buf, ps.dirEnd); err != nil {
			return err
		}
		if err := ps.dirF.Sync(); err != nil {
			return err
		}
		ps.dirEnd += int64(len(buf))
		ps.dirSeq = last
		return nil
	}
	if err := ReplaceFile(ps.dir, "dir.gomdb", buf); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(ps.dir, "dir.gomdb"), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	ps.dirF.Close()
	ps.dirF, ps.dirEnd, ps.dirSeq = f, int64(len(buf)), last
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

// walScan is what the committed groups of a WAL add up to, later groups
// overriding earlier ones. Offsets are WAL file offsets.
type walScan struct {
	groups int
	pages  map[PageID]int64 // the offset of each page's latest image
	dirs   []walDir
	seq    uint64
	meta   []byte
	end    int64 // the end of the last commit record
}

// scanWAL parses the WAL body (the bytes after its header). Only records up
// to the last valid commit record count; anything after it — a torn record,
// or whole records of an unfinished group — is the tail. A record whose
// framing and checksum are valid but whose content is not (a wrong payload
// length, page id 0, a commit record with no meta record before it or whose
// page count disagrees with its group's page records) is corruption, not a
// crash artifact: scanWAL returns an error, and no group is applied.
func scanWAL(buf []byte) (s walScan, tail bool, err error) {
	s.pages = make(map[PageID]int64)
	// The group in flight: its page records, directory record and meta.
	type pageAt struct {
		id  PageID
		off int64
	}
	var pages []pageAt
	var dir walDir
	var seq uint64
	var meta []byte
	hasDir, hasMeta := false, false
	off := 0
	for off+5 <= len(buf) {
		kind := buf[off]
		n := int(binary.LittleEndian.Uint32(buf[off+1:]))
		if kind < walPageRec || kind > walDirRec || n > len(buf)-off-walRecOverhead ||
			crc32.Checksum(buf[off:off+5+n], castagnoli) != binary.LittleEndian.Uint32(buf[off+5+n:]) {
			break
		}
		payload := buf[off+5 : off+5+n]
		at := int64(fileHeaderSize + off + 5)
		bad := ""
		switch kind {
		case walPageRec:
			if n != 4+PageSize {
				bad = "page record of the wrong length"
			} else if id := PageID(binary.LittleEndian.Uint32(payload)); id == 0 {
				bad = "page record for page 0"
			} else {
				pages = append(pages, pageAt{id, at + 4})
			}
		case walDirRec:
			if n < 1 {
				bad = "empty directory record"
			} else {
				dir, hasDir = walDir{snapshot: payload[0] == 1, off: at + 1, n: n - 1}, true
			}
		case walMetaRec:
			if n < 8 {
				bad = "short meta record"
			} else {
				seq, meta, hasMeta = binary.LittleEndian.Uint64(payload), payload[8:], true
			}
		case walCommitRec:
			switch {
			case n != 4:
				bad = "commit record of the wrong length"
			case !hasMeta:
				bad = "commit record without a meta record"
			case int(binary.LittleEndian.Uint32(payload)) != len(pages):
				bad = fmt.Sprintf("commit record counts %d pages, its group logged %d",
					binary.LittleEndian.Uint32(payload), len(pages))
			default:
				for _, p := range pages {
					s.pages[p.id] = p.off
				}
				if hasDir {
					dir.seq = seq
					s.dirs = append(s.dirs, dir)
				}
				s.groups++
				s.seq, s.meta, s.end = seq, meta, at+int64(n)+4
				pages, hasDir, hasMeta = pages[:0], false, false
			}
		}
		if bad != "" {
			return walScan{}, false, fmt.Errorf("storage: wal.gomdb: %s at offset %d", bad, fileHeaderSize+off)
		}
		off += walRecOverhead + n
	}
	tail = off < len(buf) || len(pages) > 0 || hasDir || hasMeta
	return s, tail, nil
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
	st, err := ps.walF.Stat()
	if err != nil {
		return nil, err
	}
	wal := make([]byte, st.Size()-fileHeaderSize)
	if _, err := io.ReadFull(io.NewSectionReader(ps.walF, fileHeaderSize, int64(len(wal))), wal); err != nil {
		return nil, err
	}
	scan, tail, err := scanWAL(wal)
	if err != nil {
		return nil, err
	}
	img.WALTailDiscarded = tail

	// Validate every data-file record.
	if st, err = ps.dataF.Stat(); err != nil {
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

	if scan.groups > 0 {
		// Committed groups outlived the crash: the checkpoint that would have
		// applied them (or its directory update, meta replace or WAL
		// truncate) did not run or did not finish. Replay them — the WAL
		// copy supersedes whatever the data file holds, including records a
		// torn write corrupted — and run that checkpoint now, so the store
		// is clean again.
		walBytes := func(off int64, n int) []byte { return wal[off-fileHeaderSize:][:n] }
		for id, off := range scan.pages {
			if torn[id] {
				img.TornPagesRepaired++
				delete(torn, id)
			}
			img.Pages[id] = (*[PageSize]byte)(walBytes(off, PageSize))
		}
		img.WALPagesReplayed = len(scan.pages)
		for _, d := range scan.dirs {
			switch {
			case d.seq <= ps.dirSeq: // dir.gomdb holds it already
			case d.snapshot:
				dirRecs, droppedSnapshot = []dirRecord{{d.seq, true, walBytes(d.off, d.n)}}, false
			default:
				dirRecs = append(dirRecs, dirRecord{d.seq, false, walBytes(d.off, d.n)})
			}
		}
		ps.logged, ps.loggedDirs = scan.pages, scan.dirs
		ps.meta = append(ps.meta[:0], scan.meta...)
		ps.seq = scan.seq
		ps.walEnd = scan.end
		hook := ps.torn
		ps.torn = nil // recovery re-applies without re-injecting tears
		err := ps.Apply()
		ps.torn = hook
		if err != nil {
			return nil, fmt.Errorf("storage: finishing interrupted checkpoint: %w", err)
		}
		metaBlob, haveMeta = scan.meta, true
	} else {
		ps.walEnd = fileHeaderSize
		if tail {
			// Only an uncommitted tail: discard it so the next commit
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
		return nil, fmt.Errorf("storage: dir.gomdb holds a snapshot newer than meta.gomdb (sequence %d) and no committed WAL group rewrites it", ps.seq)
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

// Close closes the store's files. It neither commits nor checkpoints;
// callers that want the current state folded into the data file commit and
// Apply first (gomdb's Close does). A commit that was not applied stays in
// the WAL and is replayed on the next open.
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

// Abandon closes the underlying files without any syncing, committing or
// checkpointing — the programmatic equivalent of the process dying. The
// on-disk state remains whatever the last fsync established; reopening the
// directory runs recovery.
func (ps *PageStore) Abandon() { ps.Close() }
