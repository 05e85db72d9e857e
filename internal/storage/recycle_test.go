package storage

import (
	"encoding/binary"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"gomdb/internal/mvcc"
)

// compactCopying is the original compaction: one heap copy per live record,
// then the records laid out again in slot order. It is kept as the oracle
// the in-place compact must match byte for byte.
func compactCopying(p slotted) {
	n := p.numSlots()
	type rec struct {
		slot uint16
		data []byte
	}
	var live []rec
	for i := uint16(0); i < n; i++ {
		off, length := p.slot(i)
		if off == 0 {
			continue
		}
		cp := make([]byte, length)
		copy(cp, p.data[off:off+length])
		live = append(live, rec{i, cp})
	}
	high := PageSize
	for _, r := range live {
		high -= len(r.data)
		copy(p.data[high:high+len(r.data)], r.data)
		p.setSlot(r.slot, uint16(high), uint16(len(r.data)))
	}
	p.setFreeHigh(uint16(high))
}

// TestCompactMatchesCopyingOracle drives random insert/update/delete
// sequences over a slotted page and, after every step, compacts two copies
// of the page — one in place, one with the copying oracle. The copies must
// be byte-identical, including the bytes compaction leaves untouched.
func TestCompactMatchesCopyingOracle(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var data [PageSize]byte
		p := slotted{&data}
		p.initIfNeeded()
		var slots []uint16
		for step := 0; step < 300; step++ {
			rec := make([]byte, 1+rng.Intn(300))
			rng.Read(rec)
			switch op := rng.Intn(5); {
			case op < 2:
				if p.freeSpace() >= len(rec) {
					p.compact()
					if s, ok := p.insert(rec); ok {
						slots = append(slots, s)
					}
				}
			case op < 4 && len(slots) > 0:
				p.update(slots[rng.Intn(len(slots))], rec)
			case len(slots) > 0:
				p.del(slots[rng.Intn(len(slots))])
			}
			inPlace, oracle := data, data
			slotted{&inPlace}.compact()
			compactCopying(slotted{&oracle})
			if inPlace != oracle {
				t.Fatalf("seed %d step %d: in-place compaction differs from the copying oracle", seed, step)
			}
		}
	}
}

// raceEnabled reports whether the test binary was built with -race. Its
// sync.Pool drops items at random and its runtime allocates on its own, so
// the allocation counts below only hold without it.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func TestCompactAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	data := new([PageSize]byte)
	p := slotted{data}
	p.initIfNeeded()
	for i := 0; i < 20; i++ {
		p.insert(make([]byte, 50+i))
	}
	for i := uint16(0); i < 20; i += 3 {
		p.del(i)
	}
	if n := testing.AllocsPerRun(100, p.compact); n != 0 {
		t.Fatalf("compact allocates %v times per call, want 0", n)
	}
}

// TestEvictingPinMissAllocatesNothing cycles more pages than the pool holds,
// so every Pin misses and evicts; the evicted frame must be reused for the
// incoming page.
func TestEvictingPinMissAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	pool, _ := newPool(4)
	var ids []PageID
	for i := 0; i < 8; i++ {
		f, err := pool.PinNew()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		if err := pool.Unpin(f.ID(), true); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		for _, id := range ids {
			f, err := pool.Pin(id)
			if err != nil {
				t.Fatal(err)
			}
			f.Data[0]++
			if err := pool.Unpin(id, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	_, missesBefore := pool.HitStats()
	const runs = 50
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Fatalf("a cycle of evicting misses allocates %v times, want 0", n)
	}
	// AllocsPerRun makes one extra warm-up call.
	if _, misses := pool.HitStats(); misses-missesBefore != int64(len(ids)*(runs+1)) {
		t.Fatalf("%d misses over %d pins: the cycle did not exercise the miss path",
			misses-missesBefore, len(ids)*(runs+1))
	}
}

// TestCaptureReclaimCycleAllocatesNothing runs the MVCC writer's steady
// state: mutate a few pages (capturing each pre-image), publish, reclaim.
// Capture buffers and capture slices must both be recycled.
func TestCaptureReclaimCycleAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	pool, _ := newPool(8)
	st := mvcc.NewState()
	pool.SetMVCC(st)
	var frames []*Frame
	for i := 0; i < 4; i++ {
		f, err := pool.PinNew()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f) // stay pinned for the whole test
	}
	cycle := func() {
		for _, f := range frames {
			pool.MutatePage(f, func() { f.Data[0]++ })
		}
		if n := pool.VersionCaptureCount(); n != len(frames) {
			t.Fatalf("%d captures after mutating %d pages", n, len(frames))
		}
		pool.ReclaimVersions(st.Publish())
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a capture and reclaim cycle allocates %v times, want 0", n)
	}
	if n := pool.VersionCaptureCount(); n != 0 {
		t.Fatalf("%d captures survive reclamation with no reader pinned", n)
	}
}

// TestRecycledFramesSnapshotStress runs one writer against snapshot readers
// on a 4-frame pool, so frames are evicted and recycled constantly while
// readers reconstruct pages from captures, live frames and disk. Each write
// fills a whole page with the version it becomes visible at; a reader pinned
// at version v must see, for every page, exactly the last such stamp <= v,
// never a torn page. Meant to be run as
// go test -race -count=10 -run TestRecycledFramesSnapshotStress.
func TestRecycledFramesSnapshotStress(t *testing.T) {
	const (
		pages   = 12
		epochs  = 600
		readers = 3
	)
	pool, _ := newPool(4)
	st := mvcc.NewState()
	pool.SetMVCC(st)
	ids := make([]PageID, pages)
	for i := range ids {
		f, err := pool.PinNew()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = f.ID()
		if err := pool.Unpin(ids[i], true); err != nil {
			t.Fatal(err)
		}
	}
	// history[i] lists the stamps written to page i, ascending; stamp 0 is
	// the zeroed page. Appended before the publish that makes it visible.
	var histMu sync.Mutex
	history := make([][]uint64, pages)
	for i := range history {
		history[i] = []uint64{0}
	}
	expected := func(i int, ver uint64) uint64 {
		histMu.Lock()
		defer histMu.Unlock()
		want := uint64(0)
		for _, s := range history[i] {
			if s <= ver {
				want = s
			}
		}
		return want
	}

	done := make(chan struct{})
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf [PageSize]byte
			for {
				select {
				case <-done:
					return
				default:
				}
				ver, release := st.Pin()
				i := rng.Intn(pages)
				if err := pool.ReadVersioned(ids[i], ver, &buf); err != nil {
					release()
					errs <- err.Error()
					return
				}
				release()
				got := binary.LittleEndian.Uint64(buf[:])
				for off := 8; off < PageSize; off += 8 {
					if w := binary.LittleEndian.Uint64(buf[off:]); w != got {
						errs <- "torn page"
						return
					}
				}
				if want := expected(i, ver); got != want {
					errs <- "stale or future page"
					return
				}
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(1))
	for e := 0; e < epochs; e++ {
		stamp := st.Stable() + 1
		for k := 0; k < 3; k++ {
			i := rng.Intn(pages)
			f, err := pool.Pin(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			pool.MutatePage(f, func() {
				for off := 0; off < PageSize; off += 8 {
					binary.LittleEndian.PutUint64(f.Data[off:], stamp)
				}
			})
			if err := pool.Unpin(ids[i], true); err != nil {
				t.Fatal(err)
			}
			histMu.Lock()
			if h := history[i]; h[len(h)-1] != stamp {
				history[i] = append(h, stamp)
			}
			histMu.Unlock()
		}
		pool.ReclaimVersions(st.Publish())
	}
	close(done)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if hits, misses := pool.HitStats(); misses == 0 {
		t.Fatalf("no evictions (hits=%d): the stress did not recycle frames", hits)
	}
}

// TestPublishVisitsOnlyStripesHoldingCaptures: the held mask tracks exactly
// the stripes with captures — set by a capture, kept while a pinned reader
// needs it, cleared by the publish that empties the stripe — and a publish
// after a write that captured nothing visits no stripe and allocates nothing.
func TestPublishVisitsOnlyStripesHoldingCaptures(t *testing.T) {
	pool, _ := newPool(8)
	st := mvcc.NewState()
	pool.SetMVCC(st)
	pv := pool.pv
	f, err := pool.PinNew()
	if err != nil {
		t.Fatal(err)
	}
	bit := uint64(1) << stripeOf(f.ID())
	_, release := st.Pin()
	pool.MutatePage(f, func() { f.Data[0]++ })
	if held := pv.held.Load(); held != bit {
		t.Fatalf("held = %#x after one capture, want %#x", held, bit)
	}
	pool.ReclaimVersions(st.Publish())
	if held := pv.held.Load(); held != bit || pool.VersionCaptureCount() != 1 {
		t.Fatalf("held = %#x with %d captures while a reader pins the pre-image", held, pool.VersionCaptureCount())
	}
	release()
	pool.ReclaimVersions(st.Publish())
	if held := pv.held.Load(); held != 0 || pool.VersionCaptureCount() != 0 {
		t.Fatalf("held = %#x with %d captures after the last reader left", held, pool.VersionCaptureCount())
	}

	// With every stripe locked, a publish that visited one would block.
	for i := range pv.stripes {
		pv.stripes[i].mu.Lock()
	}
	done := make(chan struct{})
	go func() {
		pool.ReclaimVersions(st.Publish())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("a publish with no captures held visited a stripe")
	}
	for i := range pv.stripes {
		pv.stripes[i].mu.Unlock()
	}
	<-done

	if raceEnabled() {
		return
	}
	if n := testing.AllocsPerRun(100, func() { pool.ReclaimVersions(st.Publish()) }); n != 0 {
		t.Fatalf("a publish with no captures allocates %v times, want 0", n)
	}
}
