package core_test

// End-to-end tests of function materialization over the paper's running
// Cuboid example (Figures 1-3). These exercise the full stack: storage,
// object manager, GOMpl evaluation, path extraction, schema rewrite, GMR
// maintenance.

import (
	"math"
	"sort"
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/core"
	"gomdb/internal/fixtures"
	"gomdb/internal/object"
)

func exampleDB(t *testing.T, encapsulated bool) (*gomdb.Database, *fixtures.Geometry) {
	t.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, encapsulated); err != nil {
		t.Fatalf("DefineGeometry: %v", err)
	}
	g, err := fixtures.ExampleGeometry(db)
	if err != nil {
		t.Fatalf("ExampleGeometry: %v", err)
	}
	return db, g
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// wantFloat invokes fn and checks the float result.
func wantFloat(t *testing.T, db *gomdb.Database, fn string, arg gomdb.OID, want float64) {
	t.Helper()
	v, err := db.Call(fn, gomdb.Ref(arg))
	if err != nil {
		t.Fatalf("%s(%v): %v", fn, arg, err)
	}
	f, ok := v.AsFloat()
	if !ok || !approx(f, want) {
		t.Fatalf("%s(%v) = %v, want %g", fn, arg, v, want)
	}
}

// checkConsistent verifies Definition 3.2 for a GMR: every valid entry's
// stored result equals the function recomputed against the current state.
func checkConsistent(t *testing.T, db *gomdb.Database, g *gomdb.GMR) {
	t.Helper()
	fids := g.FuncIDs()
	type row struct {
		args    []gomdb.Value
		results []gomdb.Value
		valid   []bool
	}
	var rows []row
	g.Entries(func(args, results []gomdb.Value, valid []bool) bool {
		r := row{
			args:    append([]gomdb.Value{}, args...),
			results: append([]gomdb.Value{}, results...),
			valid:   append([]bool{}, valid...),
		}
		rows = append(rows, r)
		return true
	})
	for _, r := range rows {
		for i, fid := range fids {
			if !r.valid[i] {
				continue
			}
			fn, err := db.Schema.LookupFunction(fid)
			if err != nil {
				t.Fatalf("lookup %s: %v", fid, err)
			}
			fresh, err := db.Engine.EvalRaw(fn, r.args)
			if err != nil {
				t.Fatalf("recompute %s(%v): %v", fid, r.args, err)
			}
			if !fresh.Equal(r.results[i]) {
				// Complex results are stored as references to result
				// objects; compare canonical expansions instead.
				a := canonValue(db, r.results[i], 0, map[gomdb.OID]bool{})
				b := canonValue(db, fresh, 0, map[gomdb.OID]bool{})
				if a != b {
					t.Fatalf("GMR %s inconsistent: stored %s(%v) = %v, fresh = %v",
						g.Name, fid, r.args, r.results[i], fresh)
				}
			}
		}
	}
}

// TestTable1ExampleGMR reproduces the paper's Section 3.1 example table: the
// extension of <<volume, weight>> over the Figure 2 database.
func TestTable1ExampleGMR(t *testing.T) {
	db, g := exampleDB(t, false)
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if gmr.Len() != 3 {
		t.Fatalf("GMR has %d entries, want 3", gmr.Len())
	}
	want := map[gomdb.OID][2]float64{
		g.Cuboids[0]: {300, 2358},
		g.Cuboids[1]: {200, 1572},
		g.Cuboids[2]: {100, 1900},
	}
	gmr.Entries(func(args, results []gomdb.Value, valid []bool) bool {
		w, ok := want[args[0].R]
		if !ok {
			t.Fatalf("unexpected entry for %v", args[0])
		}
		if v, _ := results[0].AsFloat(); !approx(v, w[0]) {
			t.Errorf("volume(%v) = %v, want %g", args[0], results[0], w[0])
		}
		if v, _ := results[1].AsFloat(); !approx(v, w[1]) {
			t.Errorf("weight(%v) = %v, want %g", args[0], results[1], w[1])
		}
		if !valid[0] || !valid[1] {
			t.Errorf("entry for %v not valid", args[0])
		}
		return true
	})
	checkConsistent(t, db, gmr)
}

// TestForwardInterception checks that invoking a materialized function is
// answered from the GMR (Section 3.2's rewrite into a forward query).
func TestForwardInterception(t *testing.T) {
	db, g := exampleDB(t, false)
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
	}); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	before := db.GMRs.Stats.ForwardHits
	wantFloat(t, db, "Cuboid.volume", g.Cuboids[0], 300)
	if db.GMRs.Stats.ForwardHits != before+1 {
		t.Fatalf("forward hit not recorded: %+v", db.GMRs.Stats)
	}
}

// TestImmediateRematerialization updates a relevant vertex coordinate and
// expects the stored volume to be recomputed at once.
func TestImmediateRematerialization(t *testing.T) {
	db, g := exampleDB(t, false)
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume"},
		Complete: true,
		Strategy: gomdb.Immediate,
		Mode:     gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	// Stretch cuboid 1 (10 x 6 x 5) to length 20 by moving V2's X.
	c, err := db.Objects.Get(g.Cuboids[0])
	if err != nil {
		t.Fatal(err)
	}
	v2 := c.Attrs[db.Objects.AttrIndex("Cuboid", "V2")].R
	if err := db.Set(v2, "X", gomdb.Float(20)); err != nil {
		t.Fatalf("set_X: %v", err)
	}
	if gmr.InvalidCount("Cuboid.volume") != 0 {
		t.Fatalf("immediate strategy left %d invalid entries", gmr.InvalidCount("Cuboid.volume"))
	}
	wantFloat(t, db, "Cuboid.volume", g.Cuboids[0], 600)
	checkConsistent(t, db, gmr)
}

// TestLazyInvalidation updates a relevant coordinate under the lazy strategy
// and expects the entry to be marked invalid, then recomputed on demand.
func TestLazyInvalidation(t *testing.T) {
	db, g := exampleDB(t, false)
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume"},
		Complete: true,
		Strategy: gomdb.Lazy,
		Mode:     gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	c, _ := db.Objects.Get(g.Cuboids[0])
	v2 := c.Attrs[db.Objects.AttrIndex("Cuboid", "V2")].R
	if err := db.Set(v2, "X", gomdb.Float(20)); err != nil {
		t.Fatal(err)
	}
	if gmr.InvalidCount("Cuboid.volume") != 1 {
		t.Fatalf("lazy strategy marked %d invalid entries, want 1", gmr.InvalidCount("Cuboid.volume"))
	}
	checkConsistent(t, db, gmr) // invalid entries are exempt from Def 3.2
	// The next forward query rematerializes.
	wantFloat(t, db, "Cuboid.volume", g.Cuboids[0], 600)
	if gmr.InvalidCount("Cuboid.volume") != 0 {
		t.Fatalf("forward query did not rematerialize")
	}
	checkConsistent(t, db, gmr)
}

// TestIrrelevantAttributeNoInvalidation is the Section 5.1 scenario: setting
// Value or Mat must not invalidate volume; setting Mat must invalidate
// weight only.
func TestIrrelevantAttributeNoInvalidation(t *testing.T) {
	db, g := exampleDB(t, false)
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
		Strategy: gomdb.Lazy,
		Mode:     gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatal(err)
	}
	// id1.set_Value(123.50) — relevant to neither volume nor weight.
	if err := db.Set(g.Cuboids[0], "Value", gomdb.Float(123.50)); err != nil {
		t.Fatal(err)
	}
	if n := gmr.InvalidCount("Cuboid.volume") + gmr.InvalidCount("Cuboid.weight"); n != 0 {
		t.Fatalf("set_Value invalidated %d results, want 0", n)
	}
	// id1.set_Mat(Copper) — invalidates weight but not volume.
	copper, err := db.New("Material", gomdb.Str("Copper"), gomdb.Float(8.96))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Set(g.Cuboids[0], "Mat", gomdb.Ref(copper)); err != nil {
		t.Fatal(err)
	}
	if n := gmr.InvalidCount("Cuboid.volume"); n != 0 {
		t.Fatalf("set_Mat invalidated %d volume results, want 0", n)
	}
	if n := gmr.InvalidCount("Cuboid.weight"); n != 1 {
		t.Fatalf("set_Mat invalidated %d weight results, want 1", n)
	}
	checkConsistent(t, db, gmr)
}

// TestBackwardQuery exercises the backward range query path.
func TestBackwardQuery(t *testing.T) {
	db, g := exampleDB(t, false)
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
	matches, err := db.GMRs.Backward("Cuboid.volume", 150, 400)
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	if len(matches) != 2 {
		t.Fatalf("backward query returned %d matches, want 2 (volumes 200, 300)", len(matches))
	}
	got := map[gomdb.OID]bool{}
	for _, m := range matches {
		got[m.Args[0].R] = true
	}
	if !got[g.Cuboids[0]] || !got[g.Cuboids[1]] {
		t.Fatalf("backward query returned wrong cuboids: %v", matches)
	}
}

// TestScaleInvalidations verifies the Section 5.3 motivation: one scale of a
// non-encapsulated cuboid triggers 12 invalidations of a materialized volume
// (4 relevant vertices x 3 coordinates), a rotation likewise.
func TestScaleInvalidations(t *testing.T) {
	db, g := exampleDB(t, false)
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume"},
		Complete: true,
		Strategy: gomdb.Immediate,
		Mode:     gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.GMRs.Stats = core.Stats{}
	if _, err := db.Call("Cuboid.scale", gomdb.Ref(g.Cuboids[0]),
		gomdb.Ref(fixtures.NewVertex(db, 2, 1, 1))); err != nil {
		t.Fatalf("scale: %v", err)
	}
	if db.GMRs.Stats.Invalidations != 12 {
		t.Fatalf("scale triggered %d invalidations, want 12", db.GMRs.Stats.Invalidations)
	}
	wantFloat(t, db, "Cuboid.volume", g.Cuboids[0], 600)
	checkConsistent(t, db, gmr)

	db.GMRs.Stats = core.Stats{}
	if _, err := db.Call("Cuboid.rotate", gomdb.Ref(g.Cuboids[0]),
		gomdb.Float(math.Pi/2), gomdb.Str("z")); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if db.GMRs.Stats.Invalidations != 12 {
		t.Fatalf("rotate triggered %d invalidations, want 12", db.GMRs.Stats.Invalidations)
	}
	checkConsistent(t, db, gmr)
}

// TestInfoHiding verifies Section 5.3 over the strictly encapsulated Cuboid:
// scale triggers exactly one invalidation, rotate and translate none, and
// "innocent" vertex-sharing types pay nothing because Vertex.set_X carries
// no hook at all.
func TestInfoHiding(t *testing.T) {
	db, g := exampleDB(t, true)
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume"},
		Complete: true,
		Strategy: gomdb.Immediate,
		Mode:     gomdb.ModeInfoHiding,
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Engine.Hooks.Installed("Vertex", "set_X") {
		t.Fatalf("information hiding left a hook on Vertex.set_X")
	}
	if !db.Engine.Hooks.Installed("Cuboid", "scale") {
		t.Fatalf("information hiding did not rewrite Cuboid.scale")
	}
	if db.Engine.Hooks.Installed("Cuboid", "rotate") {
		t.Fatalf("rotate was rewritten despite an empty InvalidatedFct")
	}

	db.GMRs.Stats = core.Stats{}
	if _, err := db.Call("Cuboid.rotate", gomdb.Ref(g.Cuboids[0]),
		gomdb.Float(math.Pi/4), gomdb.Str("z")); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if db.GMRs.Stats.Invalidations != 0 || db.GMRs.Stats.RRRLookups != 0 {
		t.Fatalf("rotate under info hiding: %+v, want no invalidation work", db.GMRs.Stats)
	}
	checkConsistent(t, db, gmr)

	db.GMRs.Stats = core.Stats{}
	if _, err := db.Call("Cuboid.scale", gomdb.Ref(g.Cuboids[0]),
		gomdb.Ref(fixtures.NewVertex(db, 2, 1, 1))); err != nil {
		t.Fatalf("scale: %v", err)
	}
	if db.GMRs.Stats.Invalidations != 1 {
		t.Fatalf("scale under info hiding triggered %d invalidations, want 1", db.GMRs.Stats.Invalidations)
	}
	checkConsistent(t, db, gmr)
}

// TestMarkingSeparatesInnocentObjects is the Section 5.2 scenario: updating
// a Vertex that no Cuboid references must not invoke the GMR manager at all
// under ModeObjDep (the in-object ObjDepFct check blocks it), while under
// ModeSchemaDep it costs an RRR lookup.
func TestMarkingSeparatesInnocentObjects(t *testing.T) {
	for _, mode := range []core.HookMode{core.ModeSchemaDep, core.ModeObjDep} {
		db, _ := exampleDB(t, false)
		if _, err := db.Materialize(gomdb.MaterializeOptions{
			Funcs:    []string{"Cuboid.volume"},
			Complete: true,
			Mode:     mode,
		}); err != nil {
			t.Fatal(err)
		}
		innocent := fixtures.NewVertex(db, 1, 2, 3) // not referenced by any cuboid
		db.GMRs.Stats = core.Stats{}
		if err := db.Set(innocent, "X", gomdb.Float(2.5)); err != nil {
			t.Fatal(err)
		}
		lookups := db.GMRs.Stats.RRRLookups
		switch mode {
		case core.ModeSchemaDep:
			if lookups != 1 {
				t.Errorf("mode %v: %d RRR lookups for innocent vertex, want 1", mode, lookups)
			}
		case core.ModeObjDep:
			if lookups != 0 {
				t.Errorf("mode %v: %d RRR lookups for innocent vertex, want 0", mode, lookups)
			}
		}
		if db.GMRs.Stats.Invalidations != 0 {
			t.Errorf("mode %v: innocent update invalidated %d results", mode, db.GMRs.Stats.Invalidations)
		}
	}
}

// TestCreateDelete exercises new_object and forget_object (Section 4.2).
func TestCreateDelete(t *testing.T) {
	db, g := exampleDB(t, false)
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatal(err)
	}
	iron := g.MaterialO[0]
	oid := fixtures.NewCuboid(db, 99, 0, 0, 0, 2, 3, 4, iron, 1.0)
	if gmr.Len() != 4 {
		t.Fatalf("after create: %d entries, want 4", gmr.Len())
	}
	wantFloat(t, db, "Cuboid.volume", oid, 24)
	checkConsistent(t, db, gmr)

	if err := db.Delete(oid); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if gmr.Len() != 3 {
		t.Fatalf("after delete: %d entries, want 3", gmr.Len())
	}
	checkConsistent(t, db, gmr)
}

// TestDematerialize drops the GMR and verifies the schema rewrite is fully
// undone and the original functions still evaluate.
func TestDematerialize(t *testing.T) {
	db, g := exampleDB(t, false)
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.GMRs.InstalledHookCount() == 0 {
		t.Fatalf("no hooks installed by materialization")
	}
	if err := db.Dematerialize(gmr.Name); err != nil {
		t.Fatalf("Dematerialize: %v", err)
	}
	if n := db.GMRs.InstalledHookCount(); n != 0 {
		t.Fatalf("%d hooks left after drop", n)
	}
	if db.GMRs.RRR().Len() != 0 {
		t.Fatalf("%d RRR tuples left after drop", db.GMRs.RRR().Len())
	}
	// ObjDepFct marks must be gone too.
	o, _ := db.Objects.Get(g.Cuboids[0])
	if len(o.DepFcts) != 0 {
		t.Fatalf("ObjDepFct not cleaned: %v", o.DepFcts)
	}
	wantFloat(t, db, "Cuboid.volume", g.Cuboids[0], 300)
}

// TestMultiArgumentDistance materializes the two-argument distance function
// (Cuboid x Robot) and checks invalidation through either argument.
func TestMultiArgumentDistance(t *testing.T) {
	db, g := exampleDB(t, false)
	for i := 0; i < 2; i++ {
		pos := fixtures.NewVertex(db, float64(100+50*i), 0, 0)
		if _, err := db.New("Robot", gomdb.Str("R"), gomdb.Ref(pos)); err != nil {
			t.Fatal(err)
		}
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.distance"},
		Complete: true,
		Strategy: gomdb.Immediate,
		Mode:     gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatal(err)
	}
	robots := db.Extension("Robot")
	if gmr.Len() != 3*len(robots) {
		t.Fatalf("distance GMR has %d entries, want %d", gmr.Len(), 3*len(robots))
	}
	checkConsistent(t, db, gmr)
	// Move a robot; its column of the cross product must rematerialize.
	r, _ := db.Objects.Get(robots[0])
	pos := r.Attrs[db.Objects.AttrIndex("Robot", "Pos")].R
	if err := db.Set(pos, "X", gomdb.Float(500)); err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, db, gmr)
	// Translate a cuboid; its row must rematerialize (translate moves V1).
	if _, err := db.Call("Cuboid.translate", gomdb.Ref(g.Cuboids[1]),
		gomdb.Ref(fixtures.NewVertex(db, 7, 0, 0))); err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, db, gmr)
}

// TestObjDepFctMarking checks the Figure 6 state: a vertex of a cuboid
// involved in <<volume, weight>> carries both function ids, the material
// only weight.
func TestObjDepFctMarking(t *testing.T) {
	db, g := exampleDB(t, false)
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
	c, _ := db.Objects.Get(g.Cuboids[0])
	v1 := c.Attrs[db.Objects.AttrIndex("Cuboid", "V1")].R
	vo, _ := db.Objects.Get(v1)
	if !vo.HasDepFct("Cuboid.volume") || !vo.HasDepFct("Cuboid.weight") {
		t.Fatalf("V1 ObjDepFct = %v, want volume and weight", vo.DepFcts)
	}
	mat, _ := db.Objects.Get(g.MaterialO[0])
	if mat.HasDepFct("Cuboid.volume") {
		t.Fatalf("material marked with volume: %v", mat.DepFcts)
	}
	if !mat.HasDepFct("Cuboid.weight") {
		t.Fatalf("material not marked with weight: %v", mat.DepFcts)
	}
	// V3 is not used by volume or weight.
	v3 := c.Attrs[db.Objects.AttrIndex("Cuboid", "V3")].R
	v3o, _ := db.Objects.Get(v3)
	if len(v3o.DepFcts) != 0 {
		t.Fatalf("V3 should be unmarked, got %v", v3o.DepFcts)
	}
}

// canonValue renders a value with object references expanded (collections
// and tuples alike) so a stored result object and a fresh transient value of
// the same shape canonicalize identically. Cycles and depth are bounded.
func canonValue(db *gomdb.Database, v gomdb.Value, depth int, seen map[gomdb.OID]bool) string {
	if depth > 6 {
		return v.String()
	}
	switch v.Kind {
	case object.KRef:
		if v.R == object.NilOID || seen[v.R] {
			return v.String()
		}
		o, err := db.Objects.Get(v.R)
		if err != nil {
			return v.String()
		}
		seen[v.R] = true
		defer delete(seen, v.R)
		// Dereferencing does not consume depth: a stored result object and
		// a transient value differ by exactly this indirection.
		if len(o.Elems) > 0 || db.Schema.Reg.Lookup(o.Type) != nil && db.Schema.Reg.Lookup(o.Type).Kind != object.TupleType {
			return canonValue(db, object.Value{Kind: object.KSet, Elems: o.Elems}, depth, seen)
		}
		return canonValue(db, object.Value{Kind: object.KTuple, TupleType: o.Type, Elems: o.Attrs}, depth, seen)
	case object.KSet:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = canonValue(db, e, depth+1, seen)
		}
		sort.Strings(parts)
		return "{" + strings.Join(parts, ";") + "}"
	case object.KList:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = canonValue(db, e, depth+1, seen)
		}
		return "<" + strings.Join(parts, ";") + ">"
	case object.KTuple:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = canonValue(db, e, depth+1, seen)
		}
		return v.TupleType + "[" + strings.Join(parts, ";") + "]"
	default:
		return v.String()
	}
}

var _ = object.NilOID
