package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fillPage returns a page image with a recognizable deterministic pattern.
func fillPage(seed byte) *[PageSize]byte {
	p := new([PageSize]byte)
	for i := range p {
		p[i] = seed + byte(i%251)
	}
	return p
}

// memReader adapts a map of page images to the Checkpoint read callback.
func memReader(pages map[PageID]*[PageSize]byte) func(PageID, *[PageSize]byte) error {
	return func(id PageID, dst *[PageSize]byte) error {
		p, ok := pages[id]
		if !ok {
			return errors.New("missing page")
		}
		*dst = *p
		return nil
	}
}

func mustOpenStore(t *testing.T, dir string) (*PageStore, *RecoveredImage) {
	t.Helper()
	ps, img, err := OpenPageStore(dir)
	if err != nil {
		t.Fatalf("OpenPageStore(%s): %v", dir, err)
	}
	return ps, img
}

func TestPageStoreFreshDirectory(t *testing.T) {
	ps, img, err := OpenPageStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenPageStore: %v", err)
	}
	defer ps.Close()
	if img.Exists {
		t.Fatalf("fresh directory reported an existing checkpoint: %+v", img)
	}
	if len(img.Pages) != 0 || img.Meta != nil {
		t.Fatalf("fresh directory returned state: %+v", img)
	}
}

func TestPageStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	pages := map[PageID]*[PageSize]byte{1: fillPage(3), 2: fillPage(7), 5: fillPage(11)}
	meta := []byte(`{"hello":"durable world"}`)
	if err := ps.Checkpoint([]PageID{1, 2, 5}, memReader(pages), meta); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := ps.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ps2, img := mustOpenStore(t, dir)
	defer ps2.Close()
	if !img.Exists {
		t.Fatal("reopen found no checkpoint")
	}
	if !bytes.Equal(img.Meta, meta) {
		t.Fatalf("meta round trip: got %q want %q", img.Meta, meta)
	}
	if len(img.Pages) != 3 {
		t.Fatalf("recovered %d pages, want 3", len(img.Pages))
	}
	for id, want := range pages {
		got, ok := img.Pages[id]
		if !ok {
			t.Fatalf("page %d missing after reopen", id)
		}
		if *got != *want {
			t.Fatalf("page %d content mismatch", id)
		}
	}
	if img.WALPagesReplayed != 0 || img.TornPagesRepaired != 0 || img.WALTailDiscarded {
		t.Fatalf("clean reopen reported repair work: %+v", img)
	}
}

// A second checkpoint overwrites pages and meta; absent pages keep their old
// content.
func TestPageStoreIncrementalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	if err := ps.Checkpoint([]PageID{1, 2}, memReader(map[PageID]*[PageSize]byte{1: fillPage(1), 2: fillPage(2)}), []byte("v1")); err != nil {
		t.Fatalf("Checkpoint 1: %v", err)
	}
	if err := ps.Checkpoint([]PageID{2, 3}, memReader(map[PageID]*[PageSize]byte{2: fillPage(20), 3: fillPage(30)}), []byte("v2")); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	ps.Close()

	ps2, img := mustOpenStore(t, dir)
	defer ps2.Close()
	if string(img.Meta) != "v2" {
		t.Fatalf("meta = %q, want v2", img.Meta)
	}
	if *img.Pages[1] != *fillPage(1) || *img.Pages[2] != *fillPage(20) || *img.Pages[3] != *fillPage(30) {
		t.Fatal("incremental checkpoint content mismatch")
	}
}

// A crash during the WAL append (batch cut off before the commit record)
// must roll back to the previous checkpoint: the tail is discarded.
func TestPageStoreWALTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	if err := ps.Checkpoint([]PageID{1}, memReader(map[PageID]*[PageSize]byte{1: fillPage(1)}), []byte("base")); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ps.FailNextCheckpointAfter(100) // far before the commit record
	err := ps.Checkpoint([]PageID{1, 2}, memReader(map[PageID]*[PageSize]byte{1: fillPage(99), 2: fillPage(98)}), []byte("new"))
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("cut-off checkpoint: err=%v, want ErrSimulatedCrash", err)
	}
	ps.Abandon()

	ps2, img := mustOpenStore(t, dir)
	defer ps2.Close()
	if !img.WALTailDiscarded {
		t.Fatal("recovery did not report the discarded WAL tail")
	}
	if string(img.Meta) != "base" {
		t.Fatalf("meta = %q, want the pre-crash checkpoint", img.Meta)
	}
	if len(img.Pages) != 1 || *img.Pages[1] != *fillPage(1) {
		t.Fatal("recovered state is not the pre-crash checkpoint")
	}
	// The discarded tail must not resurface on a second reopen.
	ps2.Close()
	ps3, img3 := mustOpenStore(t, dir)
	defer ps3.Close()
	if img3.WALTailDiscarded {
		t.Fatal("tail reported again after it was already discarded")
	}
}

// A torn data-file write after the WAL batch committed must be repaired from
// the WAL copy: recovery detects the bad checksum and replays.
func TestPageStoreTornWriteRepairedFromWAL(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	if err := ps.Checkpoint([]PageID{1, 2}, memReader(map[PageID]*[PageSize]byte{1: fillPage(1), 2: fillPage(2)}), []byte("base")); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	tearNext := true
	ps.SetTornWriteHook(func(id PageID) bool {
		if id == 2 && tearNext {
			tearNext = false
			return true
		}
		return false
	})
	err := ps.Checkpoint([]PageID{1, 2}, memReader(map[PageID]*[PageSize]byte{1: fillPage(10), 2: fillPage(20)}), []byte("new"))
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("torn checkpoint: err=%v, want ErrSimulatedCrash", err)
	}
	ps.Abandon()

	ps2, img := mustOpenStore(t, dir)
	defer ps2.Close()
	// The WAL batch committed before the apply, so recovery must land on the
	// NEW checkpoint, repairing the torn record.
	if string(img.Meta) != "new" {
		t.Fatalf("meta = %q, want the committed (torn-apply) checkpoint", img.Meta)
	}
	if img.WALPagesReplayed == 0 {
		t.Fatal("recovery reported no WAL replay despite unfinished apply")
	}
	if img.TornPagesRepaired != 1 {
		t.Fatalf("TornPagesRepaired = %d, want 1", img.TornPagesRepaired)
	}
	if *img.Pages[1] != *fillPage(10) || *img.Pages[2] != *fillPage(20) {
		t.Fatal("recovered pages are not the committed checkpoint's content")
	}
}

// The torn-write hook wired to a Disk fault plan: a FaultTornWrite rule
// targets the owner-tagged page and fires exactly Count times.
func TestTornWriteFaultPlan(t *testing.T) {
	clock := NewClock()
	d := NewDisk(clock)
	id1 := d.Allocate()
	id2 := d.Allocate()
	d.tagOwner(id1, "objects")
	d.tagOwner(id2, "GMR:Gvw")
	d.SetFaultPlan(FaultPlan{Rules: []FaultRule{{Op: FaultTornWrite, File: "GMR:", After: 0, Count: 1}}})

	if d.CheckTornWrite(id1) {
		t.Fatal("rule with File=GMR: fired for an objects page")
	}
	if !d.CheckTornWrite(id2) {
		t.Fatal("rule did not fire for the targeted GMR page")
	}
	if d.CheckTornWrite(id2) {
		t.Fatal("transient rule fired twice")
	}
	if d.FaultsInjected() != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", d.FaultsInjected())
	}

	// FaultAny must NOT include torn writes, and FaultTornWrite rules must
	// not fail ordinary simulated I/O.
	d.SetFaultPlan(FaultPlan{Rules: []FaultRule{{Op: FaultAny, After: 0}}})
	if d.CheckTornWrite(id1) {
		t.Fatal("FaultAny rule tore a durable write")
	}
	d.SetFaultPlan(FaultPlan{Rules: []FaultRule{{Op: FaultTornWrite, After: 0}}})
	var buf [PageSize]byte
	if err := d.write(id1, &buf); err != nil {
		t.Fatalf("FaultTornWrite rule failed a simulated write: %v", err)
	}
	if err := d.read(id1, &buf); err != nil {
		t.Fatalf("FaultTornWrite rule failed a simulated read: %v", err)
	}
}

// goldenScript drives a deterministic checkpoint sequence against dir and
// abandons the store mid-crash, leaving all four files in a state that
// exercises every on-disk structure: applied records, a directory snapshot
// with a delta after it, a committed WAL batch carrying the next delta, a
// torn data record, and a stale meta file.
func goldenScript(t *testing.T, dir string) {
	t.Helper()
	ps, img := mustOpenStore(t, dir)
	if img.Exists {
		t.Fatal("golden script needs a fresh directory")
	}
	err := ps.CheckpointDir([]PageID{1, 2}, memReader(map[PageID]*[PageSize]byte{1: fillPage(1), 2: fillPage(2)}),
		[]byte(`{"golden":1}`), DirUpdate{Snapshot: true, Payload: []byte("golden snapshot")})
	if err != nil {
		t.Fatalf("golden checkpoint 1: %v", err)
	}
	err = ps.CheckpointDir([]PageID{1}, memReader(map[PageID]*[PageSize]byte{1: fillPage(11)}),
		[]byte(`{"golden":2}`), DirUpdate{Payload: []byte("golden delta 2")})
	if err != nil {
		t.Fatalf("golden checkpoint 2: %v", err)
	}
	ps.SetTornWriteHook(func(id PageID) bool { return id == 2 })
	err = ps.CheckpointDir([]PageID{2, 3}, memReader(map[PageID]*[PageSize]byte{2: fillPage(22), 3: fillPage(33)}),
		[]byte(`{"golden":3}`), DirUpdate{Payload: []byte("golden delta 3")})
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("golden checkpoint 3: err=%v, want ErrSimulatedCrash", err)
	}
	ps.Abandon()
}

var goldenFiles = []string{"data.gomdb", "wal.gomdb", "dir.gomdb", "meta.gomdb"}

// copyStoreFiles copies the named store files from one directory to another.
func copyStoreFiles(t *testing.T, from, to string, names ...string) {
	t.Helper()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenOnDiskFormat locks the on-disk format: the byte-exact files the
// golden script produces are committed under testdata/golden. A failure here
// means the format changed — if that is intentional, bump FormatVersion and
// regenerate with GOLDEN_UPDATE=1 go test ./internal/storage -run Golden.
func TestGoldenOnDiskFormat(t *testing.T) {
	if FormatVersion != 2 {
		t.Fatalf("FormatVersion = %d: regenerate testdata/golden and update this check", FormatVersion)
	}
	goldenDir := filepath.Join("testdata", "golden")
	dir := t.TempDir()
	goldenScript(t, dir)

	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		copyStoreFiles(t, dir, goldenDir, goldenFiles...)
		t.Log("golden files regenerated")
		return
	}
	for _, name := range goldenFiles {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from golden copy (%d vs %d bytes): on-disk format changed", name, len(got), len(want))
		}
	}
}

// TestGoldenRecovery proves a current build recovers a database written in
// the committed format: the golden directory (which ends mid-torn-write with
// a committed WAL batch) must recover to checkpoint 3's state.
func TestGoldenRecovery(t *testing.T) {
	// Recovery mutates the files (finishes the interrupted checkpoint), so
	// work on a copy.
	dir := t.TempDir()
	copyStoreFiles(t, filepath.Join("testdata", "golden"), dir, goldenFiles...)
	ps, img := mustOpenStore(t, dir)
	defer ps.Close()
	if !img.Exists {
		t.Fatal("golden directory recovered as empty")
	}
	if string(img.Meta) != `{"golden":3}` || img.Seq != 3 {
		t.Fatalf("recovered meta %q at sequence %d, want golden checkpoint 3", img.Meta, img.Seq)
	}
	if img.TornPagesRepaired != 1 {
		t.Fatalf("TornPagesRepaired = %d, want 1", img.TornPagesRepaired)
	}
	if *img.Pages[1] != *fillPage(11) || *img.Pages[2] != *fillPage(22) || *img.Pages[3] != *fillPage(33) {
		t.Fatal("golden recovery produced wrong page content")
	}
	if string(img.DirSnapshot) != "golden snapshot" || len(img.DirDeltas) != 2 ||
		string(img.DirDeltas[0]) != "golden delta 2" || string(img.DirDeltas[1]) != "golden delta 3" {
		t.Fatalf("golden recovery produced directory %q + %q", img.DirSnapshot, img.DirDeltas)
	}
}

// TestFormatV1Refused: there is no reader for the version 1 format (the OID
// directory inside the metadata blob). The last golden directory that format
// produced is kept as a fixture, and opening it must fail with the version
// error rather than misread it.
func TestFormatV1Refused(t *testing.T) {
	dir := t.TempDir()
	copyStoreFiles(t, filepath.Join("testdata", "golden_v1"), dir, "data.gomdb", "wal.gomdb", "meta.gomdb")
	ps, _, err := OpenPageStore(dir)
	if err == nil {
		ps.Close()
		t.Fatal("a version 1 directory opened")
	}
	if want := "format version 1, this build reads version 2"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to say %q", err, want)
	}
	// Refusing must not take the lock with it: a second attempt fails the
	// same way, not with "locked by another process".
	if _, _, err2 := OpenPageStore(dir); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second open: %v, want %v", err2, err)
	}
}
