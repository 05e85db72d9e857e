package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fileSize returns the size of dir/name, or -1 when it does not exist.
func fileSize(t *testing.T, dir, name string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return -1
	}
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// A commit appends to the WAL and touches no other file; recovery after N
// commits and a crash returns the last commit's meta, each page's latest
// image and every directory delta, and finishes the checkpoint.
func TestCommitsReplayedAfterAbandon(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	want := map[PageID]*[PageSize]byte{}
	var deltas []string
	for i := 1; i <= 5; i++ {
		// Page 1 is rewritten by every commit, page i+1 written once.
		pages := map[PageID]*[PageSize]byte{1: fillPage(byte(10 * i)), PageID(i + 1): fillPage(byte(i))}
		delta := fmt.Sprintf("delta %d", i)
		if err := ps.Commit([]PageID{1, PageID(i + 1)}, memReader(pages), []byte(fmt.Sprintf("meta %d", i)),
			DirUpdate{Payload: []byte(delta)}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		for id, p := range pages {
			want[id] = p
		}
		deltas = append(deltas, delta)
	}
	if fileSize(t, dir, "data.gomdb") != fileHeaderSize || fileSize(t, dir, "dir.gomdb") != fileHeaderSize ||
		fileSize(t, dir, "meta.gomdb") != -1 {
		t.Fatal("a commit wrote to a file other than the WAL")
	}
	ps.Abandon()

	ps, img := mustOpenStore(t, dir)
	if img.Seq != 5 || string(img.Meta) != "meta 5" {
		t.Fatalf("recovered meta %q at sequence %d, want the last commit's", img.Meta, img.Seq)
	}
	if len(img.Pages) != len(want) {
		t.Fatalf("recovered %d pages, want %d", len(img.Pages), len(want))
	}
	for id, p := range want {
		if img.Pages[id] == nil || *img.Pages[id] != *p {
			t.Fatalf("page %d is not its latest committed image", id)
		}
	}
	var gotDeltas []string
	for _, d := range img.DirDeltas {
		gotDeltas = append(gotDeltas, string(d))
	}
	if img.DirSnapshot != nil || !reflect.DeepEqual(gotDeltas, deltas) {
		t.Fatalf("recovered directory %q + %q, want the five deltas", img.DirSnapshot, gotDeltas)
	}
	if img.WALPagesReplayed != len(want) || img.TornPagesRepaired != 0 || img.WALTailDiscarded {
		t.Fatalf("repair counters: %+v", img)
	}
	// Recovery ran the checkpoint: the WAL is empty and a second open finds
	// the same state with nothing to replay.
	if fileSize(t, dir, "wal.gomdb") != fileHeaderSize {
		t.Fatal("recovery left the replayed groups in the WAL")
	}
	ps.Close()
	ps, img = mustOpenStore(t, dir)
	defer ps.Close()
	if img.Seq != 5 || img.WALPagesReplayed != 0 || *img.Pages[1] != *want[1] {
		t.Fatalf("second open: seq=%d replayed=%d", img.Seq, img.WALPagesReplayed)
	}
}

// The commit that takes the WAL past walCheckpointBytes runs the checkpoint
// itself: the WAL is back at its header and meta.gomdb carries that commit's
// sequence number.
func TestCommitCrossingThresholdCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	defer ps.Close()
	const perCommit = 512
	ids := make([]PageID, perCommit)
	for i := range ids {
		ids[i] = PageID(i + 1)
	}
	var seq uint64
	read := func(id PageID, dst *[PageSize]byte) error {
		*dst = *fillPage(byte(id) + byte(seq))
		return nil
	}
	for seq = 1; ; seq++ {
		before := fileSize(t, dir, "wal.gomdb")
		if err := ps.Commit(ids, read, []byte(fmt.Sprintf("meta %d", seq)), DirUpdate{}); err != nil {
			t.Fatalf("commit %d: %v", seq, err)
		}
		if before+int64(perCommit*walPageRecSize) >= walCheckpointBytes {
			break
		}
		if fileSize(t, dir, "meta.gomdb") != -1 || fileSize(t, dir, "wal.gomdb") <= before {
			t.Fatalf("commit %d below the threshold checkpointed", seq)
		}
	}
	if got := fileSize(t, dir, "wal.gomdb"); got != fileHeaderSize {
		t.Fatalf("wal.gomdb is %d bytes after the crossing commit, want its %d-byte header", got, fileHeaderSize)
	}
	metaSeq, meta, ok, err := ps.readMetaFile()
	if err != nil || !ok || metaSeq != seq || string(meta) != fmt.Sprintf("meta %d", seq) {
		t.Fatalf("meta.gomdb holds %q at sequence %d (ok=%v err=%v), want commit %d", meta, metaSeq, ok, err, seq)
	}
	if got, want := fileSize(t, dir, "data.gomdb"), int64(fileHeaderSize+perCommit*pageRecSize); got != want {
		t.Fatalf("data.gomdb is %d bytes, want %d", got, want)
	}
}

// A tear during a checkpoint over several groups is repaired from the WAL,
// which still holds every group: recovery lands on the last commit.
func TestCheckpointTornWriteOverGroupsRepaired(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	base := map[PageID]*[PageSize]byte{1: fillPage(1), 2: fillPage(2), 3: fillPage(3)}
	if err := ps.Checkpoint([]PageID{1, 2, 3}, memReader(base), []byte("base")); err != nil {
		t.Fatal(err)
	}
	latest := map[PageID]*[PageSize]byte{}
	for i, ids := range [][]PageID{{1, 2}, {2, 3}, {2}} {
		pages := map[PageID]*[PageSize]byte{}
		for _, id := range ids {
			pages[id] = fillPage(byte(100 + 10*i + int(id)))
			latest[id] = pages[id]
		}
		if err := ps.Commit(ids, memReader(pages), []byte(fmt.Sprintf("group %d", i)), DirUpdate{}); err != nil {
			t.Fatal(err)
		}
	}
	ps.SetTornWriteHook(func(id PageID) bool { return id == 2 })
	if err := ps.Apply(); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("torn checkpoint: %v", err)
	}
	ps.Abandon()

	ps, img := mustOpenStore(t, dir)
	defer ps.Close()
	if string(img.Meta) != "group 2" || img.TornPagesRepaired != 1 || img.WALPagesReplayed != 3 {
		t.Fatalf("recovery: meta=%q torn=%d replayed=%d", img.Meta, img.TornPagesRepaired, img.WALPagesReplayed)
	}
	for id, p := range latest {
		if *img.Pages[id] != *p {
			t.Fatalf("page %d not recovered to its latest committed image", id)
		}
	}
}

// A commit record whose checksum is valid but whose page count disagrees
// with the page records of its group is corruption: recovery fails and
// applies nothing.
func TestScanWALCommitCountMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	pages := map[PageID]*[PageSize]byte{1: fillPage(1), 2: fillPage(2)}
	if err := ps.Commit([]PageID{1, 2}, memReader(pages), []byte("m"), DirUpdate{}); err != nil {
		t.Fatal(err)
	}
	ps.Abandon()
	path := filepath.Join(dir, "wal.gomdb")
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The commit record is the last walRecOverhead+4 bytes: rewrite its
	// count and reseal it.
	rec := wal[len(wal)-walRecOverhead-4:]
	if rec[0] != walCommitRec {
		t.Fatalf("last WAL record has kind %d", rec[0])
	}
	binary.LittleEndian.PutUint32(rec[5:], 3)
	binary.LittleEndian.PutUint32(rec[9:], crc32.Checksum(rec[:9], castagnoli))
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	if ps, _, err := OpenPageStore(dir); err == nil {
		ps.Close()
		t.Fatal("a WAL whose commit record miscounts its group recovered")
	} else if !strings.Contains(err.Error(), "commit record counts 3 pages, its group logged 2") {
		t.Fatalf("err = %v", err)
	}
	if fileSize(t, dir, "data.gomdb") != fileHeaderSize || fileSize(t, dir, "meta.gomdb") != -1 {
		t.Fatal("the refused group was applied")
	}
}

// Commit reuses its WAL group buffer, so every byte of a group must be
// written afresh: a delta commit that follows a snapshot commit of the same
// shape lands its directory record where the snapshot's flag byte was, and
// recovery must still read it as a delta.
func TestReusedGroupLogsDeltaAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	ps, _ := mustOpenStore(t, dir)
	pages := map[PageID]*[PageSize]byte{1: fillPage(1)}
	if err := ps.Commit([]PageID{1}, memReader(pages), []byte("m1"), DirUpdate{Snapshot: true, Payload: []byte("snap1")}); err != nil {
		t.Fatal(err)
	}
	pages[1] = fillPage(2)
	if err := ps.Commit([]PageID{1}, memReader(pages), []byte("m2"), DirUpdate{Payload: []byte("delt2")}); err != nil {
		t.Fatal(err)
	}
	ps.Abandon()
	ps, img := mustOpenStore(t, dir)
	defer ps.Close()
	if string(img.DirSnapshot) != "snap1" || len(img.DirDeltas) != 1 || string(img.DirDeltas[0]) != "delt2" {
		t.Fatalf("recovered directory %q + %q, want snapshot \"snap1\" then delta \"delt2\"", img.DirSnapshot, img.DirDeltas)
	}
	if *img.Pages[1] != *fillPage(2) {
		t.Fatal("page 1 is not its latest committed image")
	}
}

// The group buffer a store keeps between commits is capped: a group larger
// than maxRetainedGroup is assembled in a buffer of its own, and the
// smaller buffer kept before it stays.
func TestGroupBufferRetentionCapped(t *testing.T) {
	ps, _ := mustOpenStore(t, t.TempDir())
	defer ps.Close()
	pages := map[PageID]*[PageSize]byte{}
	var small, large []PageID
	for id := PageID(1); int(id)*walPageRecSize <= 2*maxRetainedGroup; id++ {
		pages[id] = fillPage(byte(id))
		large = append(large, id)
		if id <= 4 {
			small = append(small, id)
		}
	}
	if err := ps.Commit(small, memReader(pages), []byte("s"), DirUpdate{}); err != nil {
		t.Fatal(err)
	}
	kept := cap(ps.group)
	if kept == 0 || kept > maxRetainedGroup {
		t.Fatalf("after a small commit the store keeps a %d-byte group buffer", kept)
	}
	if err := ps.Commit(large, memReader(pages), []byte("l"), DirUpdate{}); err != nil {
		t.Fatal(err)
	}
	if cap(ps.group) != kept {
		t.Fatalf("after a %d-page commit the store keeps a %d-byte group buffer, want the %d-byte one", len(large), cap(ps.group), kept)
	}
}
