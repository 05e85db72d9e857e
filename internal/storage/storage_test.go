package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newPool(frames int) (*BufferPool, *Clock) {
	clock := NewClock()
	disk := NewDisk(clock)
	return NewPool(disk, frames), clock
}

func TestSlottedPageBasics(t *testing.T) {
	var data [PageSize]byte
	p := slotted{&data}
	p.initIfNeeded()
	s1, ok := p.insert([]byte("hello"))
	if !ok {
		t.Fatal("insert failed")
	}
	s2, ok := p.insert([]byte("world!"))
	if !ok {
		t.Fatal("insert failed")
	}
	if b, _ := p.read(s1); string(b) != "hello" {
		t.Fatalf("read s1 = %q", b)
	}
	if b, _ := p.read(s2); string(b) != "world!" {
		t.Fatalf("read s2 = %q", b)
	}
	// Delete frees the slot for reuse.
	if !p.del(s1) {
		t.Fatal("del failed")
	}
	if _, ok := p.read(s1); ok {
		t.Fatal("read of deleted slot succeeded")
	}
	if p.del(s1) {
		t.Fatal("double delete succeeded")
	}
	s3, ok := p.insert([]byte("x"))
	if !ok || s3 != s1 {
		t.Fatalf("slot not reused: got %d, want %d", s3, s1)
	}
	// In-place update, shrink and grow.
	if !p.update(s2, []byte("hi")) {
		t.Fatal("shrinking update failed")
	}
	if b, _ := p.read(s2); string(b) != "hi" {
		t.Fatalf("after shrink: %q", b)
	}
	if !p.update(s2, bytes.Repeat([]byte("y"), 100)) {
		t.Fatal("growing update failed")
	}
	if b, _ := p.read(s2); len(b) != 100 {
		t.Fatalf("after grow: %d bytes", len(b))
	}
}

func TestSlottedPageCompaction(t *testing.T) {
	var data [PageSize]byte
	p := slotted{&data}
	p.initIfNeeded()
	var slots []uint16
	rec := bytes.Repeat([]byte("z"), 100)
	for {
		s, ok := p.insert(rec)
		if !ok {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 30 {
		t.Fatalf("only %d records fit", len(slots))
	}
	// Delete every other record; compaction should make room again.
	for i := 0; i < len(slots); i += 2 {
		p.del(slots[i])
	}
	p.compact()
	n := 0
	for {
		if _, ok := p.insert(rec); !ok {
			break
		}
		n++
	}
	if n < len(slots)/2-1 {
		t.Fatalf("after compaction only %d inserts fit", n)
	}
	// Survivors intact.
	for i := 1; i < len(slots); i += 2 {
		if b, ok := p.read(slots[i]); !ok || !bytes.Equal(b, rec) {
			t.Fatalf("survivor %d damaged", slots[i])
		}
	}
}

func TestHeapFileCRUD(t *testing.T) {
	pool, _ := newPool(10)
	h := NewHeapFile(pool, "t")
	var rids []RID
	for i := 0; i < 500; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.Count() != 500 {
		t.Fatalf("count = %d", h.Count())
	}
	for i, rid := range rids {
		b, err := h.Read(rid)
		if err != nil || string(b) != fmt.Sprintf("record-%04d", i) {
			t.Fatalf("read %d: %q, %v", i, b, err)
		}
	}
	// Update that grows beyond the page moves the record.
	big := bytes.Repeat([]byte("B"), 3000)
	newRID, err := h.Update(rids[0], big)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := h.Read(newRID); err != nil || len(b) != 3000 {
		t.Fatalf("moved record: %d bytes, %v", len(b), err)
	}
	// Delete and scan.
	if err := h.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[1]); err == nil {
		t.Fatal("double delete succeeded")
	}
	seen := 0
	if err := h.Scan(func(RID, []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != 499 {
		t.Fatalf("scan saw %d records, want 499", seen)
	}
}

func TestHeapFileRejectsOversizeRecord(t *testing.T) {
	pool, _ := newPool(4)
	h := NewHeapFile(pool, "t")
	if _, err := h.Insert(make([]byte, PageSize)); err == nil {
		t.Fatal("oversize insert succeeded")
	}
	rid, err := h.Insert([]byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Update(rid, make([]byte, PageSize)); err == nil {
		t.Fatal("oversize update succeeded")
	}
}

func TestBufferPoolLRUAndCounters(t *testing.T) {
	clock := NewClock()
	disk := NewDisk(clock)
	pool := NewPool(disk, 3)
	var ids []PageID
	for i := 0; i < 5; i++ {
		f, err := pool.PinNew()
		if err != nil {
			t.Fatal(err)
		}
		f.Data[0] = byte(i)
		ids = append(ids, f.ID())
		pool.Unpin(f.ID(), true)
	}
	// Pages 0 and 1 must have been evicted (written back).
	if pool.Resident(ids[0]) || pool.Resident(ids[1]) {
		t.Fatal("LRU did not evict oldest pages")
	}
	if clock.PhysWrites != 2 {
		t.Fatalf("expected 2 write-backs, got %d", clock.PhysWrites)
	}
	// Re-reading an evicted page is a physical read with intact contents.
	f, err := pool.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if f.Data[0] != 0 {
		t.Fatalf("page contents lost: %d", f.Data[0])
	}
	pool.Unpin(ids[0], false)
	if clock.PhysReads != 1 {
		t.Fatalf("expected 1 physical read, got %d", clock.PhysReads)
	}
	if hits, misses := pool.HitStats(); hits == 0 && misses == 0 {
		t.Fatal("hit/miss counters not maintained")
	}
}

func TestBufferPoolPinnedPagesNotEvicted(t *testing.T) {
	pool, _ := newPool(2)
	f1, _ := pool.PinNew()
	f2, _ := pool.PinNew()
	// Both frames pinned: a third pin must fail.
	if _, err := pool.PinNew(); err == nil {
		t.Fatal("pool allowed eviction of pinned page")
	}
	// f1 is invalid once unpinned (its frame is recycled by the next
	// eviction), so its page id is taken first.
	id1 := f1.ID()
	pool.Unpin(id1, false)
	f3, err := pool.PinNew()
	if err != nil {
		t.Fatal(err)
	}
	if pool.Resident(id1) {
		t.Fatal("unpinned page not chosen for eviction")
	}
	if !pool.Resident(f2.ID()) || !pool.Resident(f3.ID()) {
		t.Fatal("wrong page evicted")
	}
	if pool.PinnedCount() != 2 {
		t.Fatalf("pinned count = %d", pool.PinnedCount())
	}
}

func TestUnpinErrorsOnMisuse(t *testing.T) {
	pool, _ := newPool(2)
	f, _ := pool.PinNew()
	if err := pool.Unpin(f.ID(), false); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(f.ID(), false); err == nil {
		t.Fatal("double unpin did not report an error")
	}
	if err := pool.Unpin(PageID(9999), false); err == nil {
		t.Fatal("unpin of unbuffered page did not report an error")
	}
	// Misuse must not corrupt the pool: the frame stays resident and usable.
	if !pool.Resident(f.ID()) {
		t.Fatal("frame lost after unpin misuse")
	}
	if pool.PinnedCount() != 0 {
		t.Fatalf("pinned count = %d after misuse", pool.PinnedCount())
	}
}

func TestWriteThroughForcesPages(t *testing.T) {
	clock := NewClock()
	disk := NewDisk(clock)
	pool := NewPool(disk, 10)
	forced := NewForcedHeapFile(pool, "forced")
	buffered := NewHeapFile(pool, "buffered")

	if _, err := forced.Insert([]byte("a")); err != nil {
		t.Fatal(err)
	}
	forcedWrites := clock.PhysWrites
	if forcedWrites == 0 {
		t.Fatal("forced insert did not write through")
	}
	if _, err := buffered.Insert([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if clock.PhysWrites != forcedWrites {
		t.Fatal("buffered insert wrote through")
	}
}

func TestClockAccounting(t *testing.T) {
	clock := NewClock()
	clock.PhysReads = 4
	clock.PhysWrites = 2
	clock.AddCPU(1000)
	wantMicros := int64(6*DefaultIOCostMicros + 1000*DefaultCPUCostMicros)
	if clock.SimMicros() != wantMicros {
		t.Fatalf("SimMicros = %d, want %d", clock.SimMicros(), wantMicros)
	}
	snap := clock.Snapshot()
	clock.PhysReads += 10
	d := clock.Sub(snap)
	if d.PhysReads != 10 || d.PhysWrites != 0 || d.CPUOps != 0 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestProbePageChargesRead(t *testing.T) {
	clock := NewClock()
	disk := NewDisk(clock)
	pool := NewPool(disk, 2)
	h := NewHeapFile(pool, "p")
	// Empty file: probe is a no-op.
	if err := h.ProbePage(7); err != nil {
		t.Fatal(err)
	}
	if clock.LogReads != 0 {
		t.Fatal("probe of empty file charged a read")
	}
	for i := 0; i < 200; i++ {
		if _, err := h.Insert(make([]byte, 300)); err != nil {
			t.Fatal(err)
		}
	}
	before := clock.LogReads
	if err := h.ProbePage(12345); err != nil {
		t.Fatal(err)
	}
	if clock.LogReads != before+1 {
		t.Fatalf("probe charged %d logical reads", clock.LogReads-before)
	}
}

func TestFaultInjectionAtStorageLevel(t *testing.T) {
	clock := NewClock()
	disk := NewDisk(clock)
	pool := NewPool(disk, 1) // single frame: every access is physical
	h := NewHeapFile(pool, "f")
	rid1, err := h.Insert([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	rid2, err := h.Insert(make([]byte, 4000)) // forces a second page
	if err != nil {
		t.Fatal(err)
	}
	disk.SetFaultPlan(FaultPlan{Rules: []FaultRule{{After: 1}}})
	// First physical I/O still succeeds, then everything fails.
	sawErr := false
	for i := 0; i < 4; i++ {
		if _, err := h.Read(rid1); err != nil {
			sawErr = true
			break
		}
		if _, err := h.Read(rid2); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("injected failure never surfaced")
	}
	disk.ClearFaults()
	if _, err := h.Read(rid1); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

// TestQuickHeapAgainstReference drives random heap operations against a map
// reference.
func TestQuickHeapAgainstReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool, _ := newPool(5)
		h := NewHeapFile(pool, "q")
		ref := map[RID][]byte{}
		var rids []RID
		for i := 0; i < 300; i++ {
			switch rng.Intn(4) {
			case 0, 1: // insert
				rec := make([]byte, 1+rng.Intn(400))
				rng.Read(rec)
				rid, err := h.Insert(rec)
				if err != nil {
					return false
				}
				ref[rid] = rec
				rids = append(rids, rid)
			case 2: // update
				if len(rids) == 0 {
					continue
				}
				rid := rids[rng.Intn(len(rids))]
				if _, ok := ref[rid]; !ok {
					continue
				}
				rec := make([]byte, 1+rng.Intn(800))
				rng.Read(rec)
				newRID, err := h.Update(rid, rec)
				if err != nil {
					return false
				}
				if newRID != rid {
					delete(ref, rid)
					rids = append(rids, newRID)
				}
				ref[newRID] = rec
			case 3: // delete
				if len(rids) == 0 {
					continue
				}
				rid := rids[rng.Intn(len(rids))]
				if _, ok := ref[rid]; !ok {
					continue
				}
				if err := h.Delete(rid); err != nil {
					return false
				}
				delete(ref, rid)
			}
		}
		if h.Count() != len(ref) {
			return false
		}
		for rid, want := range ref {
			got, err := h.Read(rid)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		seen := 0
		_ = h.Scan(func(rid RID, rec []byte) bool {
			want, ok := ref[rid]
			if !ok || !bytes.Equal(rec, want) {
				seen = -1 << 30
			}
			seen++
			return true
		})
		return seen == len(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
