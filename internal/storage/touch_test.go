package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// viewRun is the reference for HeapFile.TouchRun: one View per slot, in
// order, stopping at the first failure.
func viewRun(h *HeapFile, page PageID, slots []uint16) (int, error) {
	for i, s := range slots {
		if err := h.View(RID{Page: page, Slot: s}, func([]byte) error { return nil }); err != nil {
			return i, err
		}
	}
	return len(slots), nil
}

// touchWorld is a heap file of records spread over several pages of a pool
// too small to hold them, with one record per page deleted so some slots
// name nothing.
type touchWorld struct {
	pool  *BufferPool
	clock *Clock
	heap  *HeapFile
	rids  []RID
}

func newTouchWorld(t *testing.T, frames int) *touchWorld {
	t.Helper()
	pool, clock := newPool(frames)
	w := &touchWorld{pool: pool, clock: clock, heap: NewHeapFile(pool, "T")}
	rec := make([]byte, 200)
	for i := 0; i < 90; i++ {
		rec[0] = byte(i)
		rid, err := w.heap.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		w.rids = append(w.rids, rid)
	}
	if w.heap.NumPages() < 4 {
		t.Fatalf("only %d pages", w.heap.NumPages())
	}
	for i := 7; i < len(w.rids); i += 17 {
		if err := w.heap.Delete(w.rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestTouchChargesAsPinUnpin runs one random sequence of single touches,
// page runs and record updates through Touch/TouchRun on one world and
// through View loops on a twin, on a 3-frame pool (misses, dirty
// evictions) and on a pool that holds everything. After every step the two
// must agree on the clock, the hit and miss counts, the replacement order,
// the count returned and the error.
func TestTouchChargesAsPinUnpin(t *testing.T) {
	for _, frames := range []int{3, 64} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			ref, got := newTouchWorld(t, frames), newTouchWorld(t, frames)
			rng := rand.New(rand.NewSource(int64(frames)))
			for step := 0; step < 600; step++ {
				rid := ref.rids[rng.Intn(len(ref.rids))]
				var nRef, nGot int
				var errRef, errGot error
				switch op := rng.Intn(4); op {
				case 0:
					nRef, errRef = viewRun(ref.heap, rid.Page, []uint16{rid.Slot})
					errGot = got.heap.Touch(rid)
					if errGot == nil {
						nGot = 1
					}
				case 1, 2:
					slots := make([]uint16, 1+rng.Intn(12))
					for i := range slots {
						slots[i] = uint16(rng.Intn(20))
					}
					nRef, errRef = viewRun(ref.heap, rid.Page, slots)
					nGot, errGot = got.heap.TouchRun(rid.Page, slots)
				case 3:
					rec := make([]byte, 150+rng.Intn(100))
					if _, err := ref.heap.Update(rid, rec); err != nil {
						continue // a deleted record: skip on both sides
					}
					if _, err := got.heap.Update(rid, rec); err != nil {
						t.Fatal(err)
					}
				}
				if nRef != nGot || fmt.Sprint(errRef) != fmt.Sprint(errGot) {
					t.Fatalf("step %d: got (%d, %v), want (%d, %v)", step, nGot, errGot, nRef, errRef)
				}
				if a, b := got.clock.Snapshot(), ref.clock.Snapshot(); a != b {
					t.Fatalf("step %d: clock %+v, want %+v", step, a, b)
				}
				gh, gm := got.pool.HitStats()
				rh, rm := ref.pool.HitStats()
				if gh != rh || gm != rm {
					t.Fatalf("step %d: hits/misses %d/%d, want %d/%d", step, gh, gm, rh, rm)
				}
				if a, b := got.pool.RecencyOrder(), ref.pool.RecencyOrder(); !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d: recency order %v, want %v", step, a, b)
				}
			}
			if _, misses := ref.pool.HitStats(); frames == 3 && misses == 0 {
				t.Fatal("the small pool never missed")
			}
			if ref.clock.PhysWrites == 0 && frames == 3 {
				t.Fatal("the small pool never wrote a dirty page back")
			}
			if got.pool.PinnedCount() != 0 {
				t.Fatal("a touch left a page pinned")
			}
		})
	}
}

// TestTouchHitAllocatesNothing: a touch of a resident record allocates
// nothing.
func TestTouchHitAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := newTouchWorld(t, 64)
	rid := w.rids[0]
	slots := []uint16{0, 1, 2, 3}
	if n := testing.AllocsPerRun(100, func() {
		if err := w.heap.Touch(rid); err != nil {
			t.Fatal(err)
		}
		if _, err := w.heap.TouchRun(rid.Page, slots); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Touch + TouchRun allocate %.1f times", n)
	}
}

// TestTouchRecycledFramesStress runs readers that Touch resident pages
// while a miss path evicts and recycles frames under them: a 4-frame pool
// over 12 pages, one goroutine pinning pages round-robin (so every pin
// misses and recycles a frame) and readers touching records of all pages.
// The fused touch reads a frame's slot directory under the stripe lock
// without pinning it; under the race detector this shows that a frame is
// never recycled while that read runs. Every record exists, so every touch
// must succeed. Meant to be run as
// go test -race -count=10 -run TestTouchRecycledFramesStress.
func TestTouchRecycledFramesStress(t *testing.T) {
	const (
		pages   = 12
		rounds  = 400
		readers = 3
	)
	pool, _ := newPool(4)
	h := NewHeapFile(pool, "T")
	var rids []RID
	rec := make([]byte, 1500)
	for h.NumPages() < pages {
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				rid := rids[rng.Intn(len(rids))]
				var err error
				if rng.Intn(2) == 0 {
					err = h.Touch(rid)
				} else {
					_, err = h.TouchRun(rid.Page, []uint16{rid.Slot, rid.Slot})
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < rounds*pages; i++ {
		id := rids[i%len(rids)].Page
		if _, err := pool.Pin(id); err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(id, i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, misses := pool.HitStats(); misses == 0 {
		t.Fatal("no misses: the stress did not recycle frames")
	}
	if pool.PinnedCount() != 0 {
		t.Fatal("a page was left pinned")
	}
}
