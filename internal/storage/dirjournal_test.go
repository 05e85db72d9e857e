package storage

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Crash states around checkpoint step 3 (the dir.gomdb update), hand-built
// from the files of three runs of the same two checkpoints:
//
//	prev  checkpoint 1 complete, nothing of checkpoint 2
//	wal   checkpoint 2 committed in the WAL, its apply torn at the first page:
//	      dir.gomdb and meta.gomdb still as checkpoint 1 left them
//	next  checkpoint 2 complete
//
// Every mix of those files that a crash can leave behind must recover to
// exactly checkpoint 1 or exactly checkpoint 2.

type ckptState struct {
	seq      uint64
	meta     string
	page1    byte // fillPage seed of page 1
	pages    int
	snapshot string
	deltas   []string
}

func (want ckptState) check(t *testing.T, img *RecoveredImage) {
	t.Helper()
	var deltas []string
	for _, d := range img.DirDeltas {
		deltas = append(deltas, string(d))
	}
	if img.Seq != want.seq || string(img.Meta) != want.meta || len(img.Pages) != want.pages ||
		img.Pages[1] == nil || *img.Pages[1] != *fillPage(want.page1) ||
		string(img.DirSnapshot) != want.snapshot || !reflect.DeepEqual(deltas, want.deltas) {
		t.Fatalf("recovered seq=%d meta=%q pages=%d snapshot=%q deltas=%q\nwant %+v",
			img.Seq, img.Meta, len(img.Pages), img.DirSnapshot, deltas, want)
	}
}

// buildCrashSources runs checkpoint 1 and then checkpoint 2 (carrying update)
// three ways and returns the prev, wal and next directories.
func buildCrashSources(t *testing.T, update DirUpdate) (prev, wal, next string) {
	t.Helper()
	run := func(second func(ps *PageStore)) string {
		dir := t.TempDir()
		ps, _ := mustOpenStore(t, dir)
		err := ps.CheckpointDir([]PageID{1, 2}, memReader(map[PageID]*[PageSize]byte{1: fillPage(1), 2: fillPage(2)}),
			[]byte("one"), DirUpdate{Snapshot: true, Payload: []byte("snap1")})
		if err != nil {
			t.Fatalf("checkpoint 1: %v", err)
		}
		second(ps)
		ps.Abandon()
		return dir
	}
	two := func(ps *PageStore) error {
		return ps.CheckpointDir([]PageID{1, 3}, memReader(map[PageID]*[PageSize]byte{1: fillPage(10), 3: fillPage(30)}),
			[]byte("two"), update)
	}
	prev = run(func(*PageStore) {})
	wal = run(func(ps *PageStore) {
		ps.SetTornWriteHook(func(PageID) bool { return true })
		if err := two(ps); !errors.Is(err, ErrSimulatedCrash) {
			t.Fatalf("torn checkpoint 2: %v", err)
		}
	})
	next = run(func(ps *PageStore) {
		if err := two(ps); err != nil {
			t.Fatalf("checkpoint 2: %v", err)
		}
	})
	return prev, wal, next
}

func TestDirJournalCrashStates(t *testing.T) {
	one := ckptState{seq: 1, meta: "one", page1: 1, pages: 2, snapshot: "snap1"}
	twoDelta := ckptState{seq: 2, meta: "two", page1: 10, pages: 3, snapshot: "snap1", deltas: []string{"delta2"}}
	twoSnap := ckptState{seq: 2, meta: "two", page1: 10, pages: 3, snapshot: "snap2"}

	deltaPrev, deltaWAL, deltaNext := buildCrashSources(t, DirUpdate{Payload: []byte("delta2")})
	snapPrev, snapWAL, snapNext := buildCrashSources(t, DirUpdate{Snapshot: true, Payload: []byte("snap2")})

	type source struct{ base, dirFrom, walFrom string }
	cases := []struct {
		name string
		src  source
		// mangle edits the assembled directory before it is opened.
		mangle  func(t *testing.T, dir string)
		want    ckptState
		wantErr string
	}{
		{name: "committed WAL, nothing applied",
			src: source{base: deltaWAL}, want: twoDelta},
		{name: "delta appended, meta at previous sequence, WAL committed",
			src: source{base: deltaWAL, dirFrom: deltaNext}, want: twoDelta},
		{name: "delta appended, meta at previous sequence, no WAL",
			src: source{base: deltaPrev, dirFrom: deltaNext}, want: one},
		{name: "torn delta tail, WAL committed",
			src: source{base: deltaWAL, dirFrom: deltaNext}, mangle: chopDirFile(3), want: twoDelta},
		{name: "torn delta tail, no WAL",
			src: source{base: deltaPrev, dirFrom: deltaNext}, mangle: chopDirFile(3), want: one},
		{name: "delta header torn, no WAL",
			src: source{base: deltaPrev, dirFrom: deltaNext}, mangle: chopDirFile(dirRecOverhead + len("delta2") - 5), want: one},
		{name: "meta replaced, WAL not yet truncated",
			src: source{base: deltaNext, walFrom: deltaWAL}, want: twoDelta},
		{name: "leftover snapshot tmp",
			src: source{base: snapPrev}, want: one,
			mangle: func(t *testing.T, dir string) {
				copyStoreFiles(t, snapNext, dir, "dir.gomdb")
				if err := os.Rename(filepath.Join(dir, "dir.gomdb"), filepath.Join(dir, "dir.gomdb.tmp")); err != nil {
					t.Fatal(err)
				}
				copyStoreFiles(t, snapPrev, dir, "dir.gomdb")
			}},
		{name: "leftover meta tmp",
			src: source{base: deltaPrev}, want: one,
			mangle: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "meta.gomdb.tmp"), []byte("half a meta fi"), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "snapshot committed in the WAL, nothing applied",
			src: source{base: snapWAL}, want: twoSnap},
		{name: "snapshot renamed into place, meta at previous sequence, WAL committed",
			src: source{base: snapWAL, dirFrom: snapNext}, want: twoSnap},
		{name: "snapshot in place, meta replaced, WAL not yet truncated",
			src: source{base: snapNext, walFrom: snapWAL}, want: twoSnap},
		{name: "snapshot newer than meta and no WAL to rewrite it",
			src: source{base: snapPrev, dirFrom: snapNext}, wantErr: "snapshot newer than meta.gomdb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyStoreFiles(t, tc.src.base, dir, goldenFiles...)
			for name, from := range map[string]string{"dir.gomdb": tc.src.dirFrom, "wal.gomdb": tc.src.walFrom} {
				if from != "" {
					copyStoreFiles(t, from, dir, name)
				}
			}
			if tc.mangle != nil {
				tc.mangle(t, dir)
			}
			ps, img, err := OpenPageStore(dir)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("open: %v, want an error saying %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			tc.want.check(t, img)
			for _, tmp := range []string{"dir.gomdb.tmp", "meta.gomdb.tmp"} {
				if _, err := os.Stat(filepath.Join(dir, tmp)); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("%s survived recovery", tmp)
				}
			}
			// Recovery finished the interrupted checkpoint: a second open
			// finds the same state and nothing left to repair.
			ps.Close()
			ps, img = mustOpenStore(t, dir)
			tc.want.check(t, img)
			if img.WALPagesReplayed != 0 || img.TornPagesRepaired != 0 || img.WALTailDiscarded {
				t.Fatalf("second open still repairing: %+v", img)
			}
			// And the store goes on from there: the next checkpoint extends
			// the recovered directory.
			err = ps.CheckpointDir(nil, nil, []byte("after"), DirUpdate{Payload: []byte("after")})
			if err != nil {
				t.Fatalf("checkpoint after recovery: %v", err)
			}
			ps.Close()
			ps, img = mustOpenStore(t, dir)
			defer ps.Close()
			after := tc.want
			after.seq, after.meta, after.deltas = tc.want.seq+1, "after", append(append([]string(nil), tc.want.deltas...), "after")
			after.check(t, img)
		})
	}
}

// chopDirFile cuts n bytes off the end of dir.gomdb.
func chopDirFile(n int) func(t *testing.T, dir string) {
	return func(t *testing.T, dir string) {
		path := filepath.Join(dir, "dir.gomdb")
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-int64(n)); err != nil {
			t.Fatal(err)
		}
	}
}

// An empty delta writes nothing, so checkpoints that leave the directory
// alone leave dir.gomdb alone, and the sequence numbers of the records it
// holds may have gaps.
func TestDirJournalEmptyDeltaWritesNothing(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	size := func() int64 {
		st, err := os.Stat(filepath.Join(dir, "dir.gomdb"))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	for i, payload := range []string{"a", "", "", "b", ""} {
		before := size()
		if err := ps.CheckpointDir(nil, nil, []byte("m"), DirUpdate{Payload: []byte(payload)}); err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
		if grew := size() - before; (payload == "") != (grew == 0) {
			t.Fatalf("checkpoint %d with delta %q grew dir.gomdb by %d bytes", i+1, payload, grew)
		}
	}
	ps.Close()
	ps, img := mustOpenStore(t, dir)
	defer ps.Close()
	if img.Seq != 5 || img.DirSnapshot != nil || len(img.DirDeltas) != 2 ||
		string(img.DirDeltas[0]) != "a" || string(img.DirDeltas[1]) != "b" {
		t.Fatalf("recovered seq=%d snapshot=%q deltas=%q", img.Seq, img.DirSnapshot, img.DirDeltas)
	}
}

// A snapshot replaces the file: the records before it are gone.
func TestDirJournalSnapshotReplacesFile(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	for i, u := range []DirUpdate{
		{Payload: []byte("d1")}, {Payload: []byte("d2")},
		{Snapshot: true, Payload: []byte("s3")}, {Payload: []byte("d4")},
	} {
		if err := ps.CheckpointDir(nil, nil, []byte("m"), u); err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
	}
	ps.Close()
	ps, img := mustOpenStore(t, dir)
	defer ps.Close()
	if string(img.DirSnapshot) != "s3" || len(img.DirDeltas) != 1 || string(img.DirDeltas[0]) != "d4" {
		t.Fatalf("recovered snapshot=%q deltas=%q", img.DirSnapshot, img.DirDeltas)
	}
}

// A record with a valid checksum in the wrong place is corruption, not a
// crash artifact, and must not be silently cut off.
func TestDirJournalOutOfPlaceRecordRefused(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	for _, u := range []DirUpdate{{Payload: []byte("d1")}, {Payload: []byte("d2")}} {
		if err := ps.CheckpointDir(nil, nil, []byte("m"), u); err != nil {
			t.Fatal(err)
		}
	}
	ps.Close()
	// Append a second copy of the first delta: sequence 1 after sequence 2.
	path := filepath.Join(dir, "dir.gomdb")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := data[fileHeaderSize : fileHeaderSize+dirRecOverhead+2]
	if err := os.WriteFile(path, append(data, first...), 0o644); err != nil {
		t.Fatal(err)
	}
	if ps, _, err := OpenPageStore(dir); err == nil {
		ps.Close()
		t.Fatal("a directory file with sequence numbers going backwards opened")
	} else if !strings.Contains(err.Error(), "out of place") {
		t.Fatalf("err = %v", err)
	}
}

// The data-file apply groups adjacent page ids into one write each: runs of
// three, one and two pages here, with and without a tear inside a run.
func TestCheckpointRunsOfAdjacentPages(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	pages := map[PageID]*[PageSize]byte{}
	var ids []PageID
	for _, id := range []PageID{2, 3, 4, 7, 9, 10} {
		pages[id] = fillPage(byte(id))
		ids = append(ids, id)
	}
	if err := ps.Checkpoint(ids, memReader(pages), []byte("runs")); err != nil {
		t.Fatal(err)
	}
	ps.Close()
	ps, img := mustOpenStore(t, dir)
	defer ps.Close()
	if len(img.Pages) != len(ids) {
		t.Fatalf("recovered %d pages, want %d", len(img.Pages), len(ids))
	}
	for _, id := range ids {
		if *img.Pages[id] != *pages[id] {
			t.Fatalf("page %d content mismatch", id)
		}
	}
	// A tear in the middle of a run writes the records before it whole, half
	// of the torn one, and nothing after; recovery repairs all from the WAL.
	for _, id := range ids {
		pages[id] = fillPage(byte(100 + id))
	}
	ps.SetTornWriteHook(func(id PageID) bool { return id == 3 })
	if err := ps.Checkpoint(ids, memReader(pages), []byte("torn")); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("torn checkpoint: %v", err)
	}
	ps.Abandon()
	ps, img = mustOpenStore(t, dir)
	if img.TornPagesRepaired != 1 || string(img.Meta) != "torn" {
		t.Fatalf("recovery: torn=%d meta=%q", img.TornPagesRepaired, img.Meta)
	}
	for _, id := range ids {
		if *img.Pages[id] != *pages[id] {
			t.Fatalf("page %d not recovered to the committed image", id)
		}
	}
}
