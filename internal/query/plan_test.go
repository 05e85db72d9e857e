package query_test

// Planner tests: multi-argument backward exploitation, window intersection,
// and plan selection.

import (
	"reflect"
	"strings"
	"testing"

	"gomdb"
)

// TestMultiArgBackwardPlan: distance(c, $r) < bound uses the two-argument
// distance GMR as a backward index, filtering the fixed robot position.
func TestMultiArgBackwardPlan(t *testing.T) {
	db, g := geomDB(t, 40)
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Cuboid.distance"}, Complete: true,
		Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
	r0, r1 := g.Robots[0], g.Robots[1]
	var plans []string
	db.Queries.Explain = func(s string) { plans = append(plans, s) }
	res, err := db.Query(`range c: Cuboid retrieve c where distance(c, $r) < $d`,
		map[string]gomdb.Value{"r": gomdb.Ref(r0), "d": gomdb.Float(120)})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || !strings.Contains(plans[0], "backward GMR index on Cuboid.distance") {
		t.Fatalf("multi-arg backward plan not used: %v", plans)
	}
	// Brute force with the other robot must differ if positions differ, and
	// with the same robot must agree.
	fn, _ := db.Schema.LookupFunction("Cuboid.distance")
	count := func(robot gomdb.OID, d float64) int {
		n := 0
		for _, c := range db.Extension("Cuboid") {
			v, err := db.Engine.EvalRaw(fn, []gomdb.Value{gomdb.Ref(c), gomdb.Ref(robot)})
			if err != nil {
				t.Fatal(err)
			}
			if f, _ := v.AsFloat(); f < d {
				n++
			}
		}
		return n
	}
	if len(res.Rows) != count(r0, 120) {
		t.Fatalf("plan returned %d rows, brute force %d", len(res.Rows), count(r0, 120))
	}
	// Rows for robot 1 via the same GMR.
	res1, err := db.Query(`range c: Cuboid retrieve c where distance(c, $r) < $d`,
		map[string]gomdb.Value{"r": gomdb.Ref(r1), "d": gomdb.Float(120)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) != count(r1, 120) {
		t.Fatalf("robot1: %d rows, brute force %d", len(res1.Rows), count(r1, 120))
	}
}

// TestWindowIntersection: two bounds on the same function intersect into
// one index window.
func TestWindowIntersection(t *testing.T) {
	db, _ := geomDB(t, 50)
	if _, err := db.Query(`range c: Cuboid materialize c.volume`, nil); err != nil {
		t.Fatal(err)
	}
	var plans []string
	db.Queries.Explain = func(s string) { plans = append(plans, s) }
	res, err := db.Query(`range c: Cuboid retrieve c where c.volume > 100.0 and c.volume < 200.0 and c.volume > 120.0`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || !strings.Contains(plans[0], "[120, 200]") {
		t.Fatalf("bounds not intersected: %v", plans)
	}
	for _, r := range res.Rows {
		v, err := db.Call("Cuboid.volume", r[0])
		if err != nil {
			t.Fatal(err)
		}
		f, _ := v.AsFloat()
		if f <= 120 || f >= 200 {
			t.Fatalf("row %v outside window: %g", r[0], f)
		}
	}
}

// TestEqualityBoundUsesIndex: c.volume = k plans as a degenerate window.
func TestEqualityBoundUsesIndex(t *testing.T) {
	db, g := geomDB(t, 20)
	if _, err := db.Query(`range c: Cuboid materialize c.volume`, nil); err != nil {
		t.Fatal(err)
	}
	v, _ := db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[4]))
	f, _ := v.AsFloat()
	var plans []string
	db.Queries.Explain = func(s string) { plans = append(plans, s) }
	res, err := db.Query(`range c: Cuboid retrieve c where c.volume = $v`,
		map[string]gomdb.Value{"v": gomdb.Float(f)})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || !strings.Contains(plans[0], "backward") {
		t.Fatalf("equality bound not planned as index probe: %v", plans)
	}
	if len(res.Rows) < 1 {
		t.Fatalf("equality query found nothing")
	}
}

// TestDisjunctionFallsBack: OR predicates cannot use the single-window
// backward plan and must scan (still correct).
func TestDisjunctionFallsBack(t *testing.T) {
	db, _ := geomDB(t, 30)
	if _, err := db.Query(`range c: Cuboid materialize c.volume`, nil); err != nil {
		t.Fatal(err)
	}
	var plans []string
	db.Queries.Explain = func(s string) { plans = append(plans, s) }
	res, err := db.Query(`range c: Cuboid retrieve c where c.volume < 50.0 or c.volume > 500.0`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || !strings.Contains(plans[len(plans)-1], "extension scan") {
		t.Fatalf("disjunction did not fall back: %v", plans)
	}
	// Cross-check against forward evaluation.
	n := 0
	for _, c := range db.Extension("Cuboid") {
		v, _ := db.Call("Cuboid.volume", gomdb.Ref(c))
		f, _ := v.AsFloat()
		if f < 50 || f > 500 {
			n++
		}
	}
	if len(res.Rows) != n {
		t.Fatalf("disjunction scan: %d rows, want %d", len(res.Rows), n)
	}
}

// TestNotEqualBoundIgnored: != cannot drive the index but must still filter.
func TestNotEqualBoundIgnored(t *testing.T) {
	db, _ := geomDB(t, 10)
	if _, err := db.Query(`range c: Cuboid materialize c.volume`, nil); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`range c: Cuboid retrieve c where c.volume != 0.0`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("!= filter returned %d rows", len(res.Rows))
	}
}

// TestIncompleteGMRFallsBackToScan: a window query over a function whose GMR
// is incomplete cannot be answered by a backward lookup (Backward reports
// core.ErrIncomplete, wrapped), so the planner falls back to the extension
// scan — on the live executor and on a snapshot executor alike — and
// answers exactly what evaluating the function on every cuboid answers.
func TestIncompleteGMRFallsBackToScan(t *testing.T) {
	db, _ := geomDB(t, 60)
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Cuboid.volume"}, Complete: false,
		Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
	const src = `range c: Cuboid retrieve c where c.volume > $lo and c.volume < $hi`
	lo, hi := 50.0, 250.0
	params := map[string]gomdb.Value{"lo": gomdb.Float(lo), "hi": gomdb.Float(hi)}
	fn, _ := db.Schema.LookupFunction("Cuboid.volume")
	var want []gomdb.OID
	for _, c := range db.Extension("Cuboid") {
		v, err := db.Engine.EvalRaw(fn, []gomdb.Value{gomdb.Ref(c)})
		if err != nil {
			t.Fatal(err)
		}
		if v.F > lo && v.F < hi {
			want = append(want, c)
		}
	}
	if len(want) == 0 {
		t.Fatal("empty window")
	}
	var plans []string
	db.Queries.Explain = func(s string) { plans = append(plans, s) }
	run := map[string]func() (*gomdb.QueryResult, error){
		"live": func() (*gomdb.QueryResult, error) { return db.Query(src, params) },
		"snapshot": func() (*gomdb.QueryResult, error) {
			v := db.SnapshotView()
			defer v.Release()
			return v.Query(src, params)
		},
	}
	for _, name := range []string{"live", "snapshot"} {
		plans = nil
		res, err := run[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(plans) != 1 || !strings.Contains(plans[0], "extension scan") {
			t.Fatalf("%s: plans %q, want one extension scan", name, plans)
		}
		var got []gomdb.OID
		for _, r := range res.Rows {
			got = append(got, r[0].R)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rows %v, want %v", name, got, want)
		}
	}
}
