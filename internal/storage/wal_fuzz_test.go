package storage

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocatedBy returns the bytes fn allocated on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzScanWAL feeds arbitrary wal.gomdb contents to recovery (the committed
// corpus under testdata/fuzz holds logs with whole groups, torn tails,
// snapshots and a miscounted commit). The decoder must accept or refuse the
// log, never panic, and never allocate more than a small multiple of its
// size, whatever the length fields inside it claim. A log it accepts with
// committed groups in it then goes through OpenPageStore beside fresh data
// and directory files, which must recover those groups or return an error.
// (The decoder runs alone first because a full recovery fsyncs several
// files: running it on every input would slow fuzzing a hundredfold.)
func FuzzScanWAL(f *testing.F) {
	f.Add(fileHeader(walMagic, 0))
	f.Fuzz(func(t *testing.T, wal []byte) {
		if len(wal) < fileHeaderSize || checkFileHeader("wal.gomdb", wal, walMagic) != nil {
			return // refused before the decoder runs
		}
		var scan walScan
		var err error
		if grew, limit := allocatedBy(func() { scan, _, err = scanWAL(wal[fileHeaderSize:]) }), uint64(2*len(wal)+64<<10); grew > limit {
			t.Fatalf("decoding a %d-byte log allocated %d bytes (limit %d)", len(wal), grew, limit)
		}
		if err != nil || scan.groups == 0 {
			return
		}
		for id, off := range scan.pages {
			if off < fileHeaderSize || off+PageSize > int64(len(wal)) {
				t.Fatalf("page %d located at offset %d, outside the %d-byte log", id, off, len(wal))
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.gomdb"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		var ps *PageStore
		var img *RecoveredImage
		if grew, limit := allocatedBy(func() { ps, img, err = OpenPageStore(dir) }), uint64(4*len(wal)+1<<20); grew > limit {
			t.Fatalf("recovering a %d-byte log allocated %d bytes (limit %d)", len(wal), grew, limit)
		}
		if err != nil {
			return
		}
		defer ps.Close()
		if !img.Exists || img.Seq != scan.seq || string(img.Meta) != string(scan.meta) ||
			img.WALPagesReplayed != len(scan.pages) {
			t.Fatalf("recovered seq=%d meta=%q replayed=%d, the log holds seq=%d meta=%q with %d pages",
				img.Seq, img.Meta, img.WALPagesReplayed, scan.seq, scan.meta, len(scan.pages))
		}
		for id, off := range scan.pages {
			if string(img.Pages[id][:]) != string(wal[off:off+PageSize]) {
				t.Fatalf("page %d is not its latest logged image", id)
			}
		}
	})
}
