package gomdb_test

// Writes cost O(change): the MVCC bookkeeping of a create or a delete is
// proportional to what it changed, not to the size of the base.

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
)

// raceEnabled reports whether the test binary was built with -race, whose
// runtime allocates on its own.
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

// writeCost measures one facade New and one Delete of a Rectangle on a base
// of n live rectangles: allocations per call (testing.AllocsPerRun) and the
// median bytes a single call allocates. The median leaves out the calls that
// happen to grow a map or slice, whose amortized cost is O(1) anyway.
func writeCost(t *testing.T, n int) (newAllocs, delAllocs float64, newBytes, delBytes uint64) {
	t.Helper()
	db := rectangleDB(t)
	for i := 0; i < n; i++ {
		db.MustNew("Rectangle", gomdb.Float(float64(i)), gomdb.Float(2))
	}
	const runs = 200
	made := make([]gomdb.OID, 0, 4*(runs+1))
	create := func() { made = append(made, db.MustNew("Rectangle", gomdb.Float(1), gomdb.Float(2))) }
	del := func() {
		if err := db.Delete(made[len(made)-1]); err != nil {
			t.Fatal(err)
		}
		made = made[:len(made)-1]
	}
	newAllocs = testing.AllocsPerRun(runs, create)
	delAllocs = testing.AllocsPerRun(runs, del)
	median := func(fn func()) uint64 {
		var sizes []uint64
		var before, after runtime.MemStats
		for i := 0; i < runs; i++ {
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			sizes = append(sizes, after.TotalAlloc-before.TotalAlloc)
		}
		slices.Sort(sizes)
		return sizes[runs/2]
	}
	newBytes = median(create)
	delBytes = median(del)
	return
}

// TestWriteCostIndependentOfBaseSize pins the O(change) rule for creates and
// deletes: their allocation count and their median allocated bytes are the
// same on 1 000 and on 8 000 live objects. The bytes are checked as well as
// the count: copying a type's whole extent per write would be one allocation
// at either size, but of 8 bytes per member.
func TestWriteCostIndependentOfBaseSize(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	na1, da1, nb1, db1 := writeCost(t, 1000)
	na8, da8, nb8, db8 := writeCost(t, 8000)
	t.Logf("New: %v allocs, %d B; Delete: %v allocs, %d B (1k objects)", na1, nb1, da1, db1)
	if na1 != na8 || da1 != da8 {
		t.Errorf("allocs per New %v at 1k objects, %v at 8k; per Delete %v and %v", na1, na8, da1, da8)
	}
	if nb1 != nb8 || db1 != db8 {
		t.Errorf("median bytes per New %d at 1k objects, %d at 8k; per Delete %d and %d", nb1, nb8, db1, db8)
	}
}

// TestVertexMoveAllocations pins what update-cold's vertex move allocates
// on BenchmarkVertexMove's configuration: GetAttr plus a hooked Set. The
// RRR lookup, the invalidation and the rematerialization keep their
// bookkeeping in reused buffers, the evaluation runs in pooled frames and
// passes call arguments in them, the hooks are lent their argument list and
// a receiver view read into the engine's buffers, and the entry's MVCC
// pre-image is filled in the columns of a reclaimed one, so a move
// allocates nothing, also one that rematerializes volume: nothing is left.
// Over the fixed schedule half the moves change nothing materialized.
func TestVertexMoveAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, g := updateColdDB(t)
	i := 0
	if got := testing.AllocsPerRun(400, func() {
		if err := vertexMove(db, g, i); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Errorf("a move of the schedule allocates %v times, want 0", got)
	}
	// V1 is one of the vertices volume reads: every move of it
	// rematerializes volume.
	c := g.Cuboids[0]
	ref, err := db.GetAttr(c, "V1")
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	remats := db.GMRs.Stats.Rematerializations
	if got := testing.AllocsPerRun(400, func() {
		x++
		if _, err := db.GetAttr(c, "V1"); err != nil {
			t.Fatal(err)
		}
		if err := db.Set(ref.R, "X", gomdb.Float(x)); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("a rematerializing move allocates %v times, want 0", got)
	}
	if n := db.GMRs.Stats.Rematerializations - remats; n != 401 {
		t.Errorf("%d rematerializations, want one per move of V1", n)
	}
}

// TestScaleAllocations pins update-cold's scale on BenchmarkUpdateColdScale's
// configuration: one Cuboid.scale runs 24 hooked set_X/Y/Z, 12 of which
// rematerialize volume, and allocates nothing: its hooks are handed
// receiver views, not decoded objects, and the entry's pre-image reuses a
// reclaimed one's columns. Nothing is left.
func TestScaleAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, g := updateColdDB(t)
	by := [2]gomdb.Value{
		gomdb.Ref(fixtures.NewVertex(db, 1.25, 0.8, 1.5)),
		gomdb.Ref(fixtures.NewVertex(db, 0.8, 1.25, 1/1.5)),
	}
	i, n := 0, len(g.Cuboids)
	remats := db.GMRs.Stats.Rematerializations
	if got := testing.AllocsPerRun(400, func() {
		if _, err := db.Call("Cuboid.scale", gomdb.Ref(g.Cuboids[i%n]), by[(i/n)%2]); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Errorf("a scale allocates %v times, want 0", got)
	}
	if r := db.GMRs.Stats.Rematerializations - remats; r != 12*401 {
		t.Errorf("%d rematerializations, want 12 per scale", r)
	}
}

// TestComputeAllocations pins the evaluation of a function without a GMR:
// Cuboid.volume evaluates volume, length, width and height and three
// Vertex.dist, with nine calls and three sqrt between them. Frames come from
// each function's pool and call arguments are passed in them, so the whole
// call allocates nothing.
func TestComputeAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if got := testing.AllocsPerRun(400, func() {
		if _, err := db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[i%len(g.Cuboids)])); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Errorf("Call(Cuboid.volume) without a GMR allocates %v times, want 0", got)
	}
}
