package shard_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
)

// parityRun is the outcome of the fixed op plan against one shard count: the
// merged clock delta over the op window (setup charges excluded — replica
// creation and fresh-heap population scale with shard count by construction)
// plus a canonical trace of every op's result. Sums are kept separate
// because shard partials add in shard order, so their float totals carry an
// addition-order wobble.
type parityRun struct {
	clock gomdb.Clock
	trace []string
	sums  []float64
}

// runParityPlan executes the fixed plan at the given shard count. The plan
// exercises every routed path: point forwards, scatter backward/tabular/
// aggregate reads, and point updates whose RRR invalidation and immediate
// rematerialization land on the owning shard only.
func runParityPlan(t *testing.T, shards int) parityRun {
	t.Helper()
	db := openSharded(t, shards)
	defer db.Close()
	g, err := fixtures.PopulateGeometryOn(db, 48, 17)
	if err != nil {
		t.Fatal(err)
	}
	// The plan's GMRs deliberately skip the MDS grid file: a grid directory
	// probe costs a number of pins that depends on how the grid has split,
	// and per-shard grids over disjoint subsets split differently than one
	// grid over the union. That is the single structure-dependent charge in
	// the engine — every per-entry charge (scans, forwards, invalidation,
	// rematerialization) is layout-independent, which is what this test
	// pins down. (TestScatterMatchesUnsharded covers MDS result parity.)
	if err := db.Materialize(gomdb.MaterializeOptions{
		Name: "Gvw", Funcs: []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true, Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize(gomdb.MaterializeOptions{
		Name: "Gdist", Funcs: []string{"Cuboid.distance"},
		Complete: true, Strategy: gomdb.Deferred, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}

	base := db.Snapshot()
	var run parityRun
	tr := func(format string, args ...any) {
		run.trace = append(run.trace, fmt.Sprintf(format, args...))
	}

	// Point-routed forwards.
	for i := 0; i < 12; i++ {
		c := g.Cuboids[(i*7)%len(g.Cuboids)]
		v, err := db.Call("Cuboid.volume", gomdb.Ref(c))
		if err != nil {
			t.Fatal(err)
		}
		tr("fwd %v=%.9f", c, v.F)
	}
	// Scatter backward.
	matches, err := db.Backward("Cuboid.volume", 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		tr("bwd %v=%.9f", m.Args[0].R, m.Result.F)
	}
	// Scatter aggregates (float totals: tolerance lane).
	s, err := db.Sum("Cuboid.weight", nil)
	if err != nil {
		t.Fatal(err)
	}
	run.sums = append(run.sums, s)
	sub := append([]gomdb.OID(nil), g.Cuboids[:10]...)
	s, err = db.Sum("Cuboid.weight", sub)
	if err != nil {
		t.Fatal(err)
	}
	run.sums = append(run.sums, s)
	// Scatter tabular, canonicalized by first-arg OID.
	rows, err := db.Retrieve("Gvw", []gomdb.FieldSpec{
		gomdb.AnySpec(), gomdb.RangeSpec(100, 400), gomdb.AnySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Args[0].R < rows[j].Args[0].R })
	for _, r := range rows {
		tr("tab %v=%.9f", r.Args[0].R, r.Results[0].F)
	}
	// Scatter GOMql aggregates.
	res, err := db.Query("range c: Cuboid retrieve count(c.volume), min(c.volume), max(c.volume)", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr("agg count=%d min=%.9f max=%.9f", res.Rows[0][0].I, res.Rows[0][1].F, res.Rows[0][2].F)
	// Point updates: vertex moves invalidate the owning shard's GMR entries;
	// Gvw rematerializes immediately, Gdist is marked deferred-invalid.
	for i := 0; i < 6; i++ {
		c := g.Cuboids[(i*5)%len(g.Cuboids)]
		v1, err := db.GetAttr(c, "V1")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Set(v1.R, "X", gomdb.Float(float64(3+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Re-read through the rematerialized entries.
	for i := 0; i < 6; i++ {
		c := g.Cuboids[(i*5)%len(g.Cuboids)]
		v, err := db.Call("Cuboid.volume", gomdb.Ref(c))
		if err != nil {
			t.Fatal(err)
		}
		tr("refwd %v=%.9f", c, v.F)
	}
	matches, err = db.Backward("Cuboid.volume", 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	tr("rebwd n=%d", len(matches))

	end := db.Snapshot()
	run.clock = gomdb.Clock{
		PhysReads:  end.PhysReads - base.PhysReads,
		PhysWrites: end.PhysWrites - base.PhysWrites,
		LogReads:   end.LogReads - base.LogReads,
		LogWrites:  end.LogWrites - base.LogWrites,
		CPUOps:     end.CPUOps - base.CPUOps,
	}
	return run
}

// TestChargeParityAcrossShardCounts: the same op plan against 1, 2, and 4
// shards produces an IDENTICAL merged clock delta and op trace. This is the
// router's accounting contract: with the shared OID allocator the same plan
// yields the same record bytes everywhere, point ops charge only the owning
// shard, and scatter ops charge the union of the per-shard work — so the
// merged ledger is a property of the plan, not the layout.
func TestChargeParityAcrossShardCounts(t *testing.T) {
	runs := map[int]parityRun{}
	for _, n := range []int{1, 2, 4} {
		runs[n] = runParityPlan(t, n)
	}
	ref := runs[1]
	// The pool is big enough that the warm working set never evicts: the op
	// window must be free of physical READS on every layout. (PhysWrites in
	// the window are the FORCE write-throughs of auxiliary GMR/RRR pages on
	// each invalidation — charged per op, not per layout, so the equality
	// check below covers them.)
	if ref.clock.PhysReads != 0 {
		t.Fatalf("op window did physical reads at shards=1: %+v", ref.clock)
	}
	for _, n := range []int{2, 4} {
		got := runs[n]
		if got.clock != ref.clock {
			t.Errorf("shards=%d clock delta %+v, want %+v", n, got.clock, ref.clock)
		}
		if len(got.trace) != len(ref.trace) {
			t.Fatalf("shards=%d trace has %d ops, want %d", n, len(got.trace), len(ref.trace))
		}
		for i := range ref.trace {
			if got.trace[i] != ref.trace[i] {
				t.Errorf("shards=%d trace[%d] = %q, want %q", n, i, got.trace[i], ref.trace[i])
			}
		}
		if len(got.sums) != len(ref.sums) {
			t.Fatalf("shards=%d has %d sums, want %d", n, len(got.sums), len(ref.sums))
		}
		for i := range ref.sums {
			if math.Abs(got.sums[i]-ref.sums[i]) > 1e-6*math.Abs(ref.sums[i]) {
				t.Errorf("shards=%d sum[%d] = %v, want %v", n, i, got.sums[i], ref.sums[i])
			}
		}
	}
}
