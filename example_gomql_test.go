package gomdb_test

import (
	"fmt"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/lang"
)

// Example_quickstart defines a small object schema with a derived function,
// materializes the function through GOMql, and watches the GMR manager keep
// the precomputed results consistent under updates. The Explain lines show
// the plan the executor chose for the backward query.
func Example_quickstart() {
	db := gomdb.Open(gomdb.DefaultConfig())

	// A tuple-structured type with two public attributes ...
	db.MustDefineType(gomdb.NewTupleType("Rectangle",
		gomdb.PubAttr("Width", "float"),
		gomdb.PubAttr("Height", "float"),
	), "area")

	// ... and a side-effect-free, type-associated function in the paper's
	// textual syntax (bodies can equally be built as ASTs with the lang
	// package).
	if err := db.DefineOpSrc("Rectangle", `
		define area: float is
			return self.Width * self.Height
		end`, true); err != nil {
		panic(err)
	}

	var last gomdb.OID
	for i := 1; i <= 5; i++ {
		last = db.MustNew("Rectangle", gomdb.Float(float64(i)), gomdb.Float(float64(i)*2))
	}

	// range r: Rectangle materialize r.area
	res, err := db.Query(`range r: Rectangle materialize r.area`, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("materialized %v with %v precomputed entries\n", res.Rows[0][0], res.Rows[0][1])

	// A backward query now runs off the GMR's result index instead of
	// evaluating area for every instance.
	db.Queries.Explain = func(s string) { fmt.Println("  ", s) }
	res, err = db.Query(`range r: Rectangle retrieve r.Width where r.area > 10.0`, nil)
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("  rectangle with width %v has area > 10\n", row[0])
	}

	// Updates invalidate exactly the affected precomputed result; under the
	// (default) immediate strategy it is recomputed on the spot.
	fmt.Println("before update:", mustCall(db, "Rectangle.area", last))
	if err := db.Set(last, "Width", gomdb.Float(100)); err != nil {
		panic(err)
	}
	fmt.Println("after  update:", mustCall(db, "Rectangle.area", last))
	fmt.Printf("maintenance work: %+v\n", db.GMRs.Stats)
	fmt.Printf("simulated time so far: %.3fs\n", db.SimSeconds())

	// Output:
	// materialized "<<Rectangle.area>>" with 5 precomputed entries
	//    plan: backward GMR index on Rectangle.area over [10, +Inf], 3 candidates
	//   rectangle with width 3 has area > 10
	//   rectangle with width 4 has area > 10
	//   rectangle with width 5 has area > 10
	// before update: 50
	// after  update: 1000
	// maintenance work: {RRRLookups:1 Invalidations:1 Rematerializations:6 Compensations:0 ForwardHits:5 ForwardMisses:0 BackwardQueries:1 NewObjects:0 ForgottenObjects:0 PredicateUpdates:0 ForwardTraces:6 TraceObjects:6 TracePages:6 DeferredUpdates:0 CoalescedUpdates:0 DeferredForces:0 Flushes:0 FlushedItems:0 QueueHighWater:0 FlushEvalNanos:0 FlushWallNanos:0}
	// simulated time so far: 0.150s
}

// Example_restricted is Section 6 of the paper: a p-restricted GMR whose
// applicability the Rosenkrantz–Hunt test decides per backward query (the
// Explain lines), and a materialized function with an atomic argument type
// restricted to a set of values.
func Example_restricted() {
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		panic(err)
	}
	if _, err := fixtures.PopulateGeometry(db, 64, 3); err != nil {
		panic(err)
	}
	db.Queries.Explain = func(s string) { fmt.Println("  ", s) }

	// Volume and weight materialized for iron cuboids only.
	res, err := db.Query(`range c: Cuboid materialize c.volume, c.weight where c.Mat.Name = "Iron"`, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("restricted GMR %v holds %v entries (iron cuboids only)\n", res.Rows[0][0], res.Rows[0][1])

	fmt.Println("covered backward query (σ' implies the restriction):")
	if _, err := db.Query(`range c: Cuboid retrieve c where c.volume > 200.0 and c.Mat.Name = "Iron"`, nil); err != nil {
		panic(err)
	}
	fmt.Println("uncovered backward query (gold cuboids might match too):")
	if _, err := db.Query(`range c: Cuboid retrieve c where c.volume > 200.0`, nil); err != nil {
		panic(err)
	}

	// Changing a cuboid's material moves it in or out of the restricted
	// extension (the predicate(o) algorithm of Section 6.1).
	g, _ := db.GMRs.Get(db.GMRs.GMRs()[0])
	before := g.Len()
	gold := findMaterial(db, "Gold")
	iron := findMaterial(db, "Iron")
	someIron := firstWithMaterial(db, iron)
	if err := db.Set(someIron, "Mat", gomdb.Ref(gold)); err != nil {
		panic(err)
	}
	fmt.Printf("turned an iron cuboid to gold: GMR %d -> %d entries\n", before, g.Len())
	if err := db.Set(someIron, "Mat", gomdb.Ref(iron)); err != nil {
		panic(err)
	}
	fmt.Printf("and back to iron:              GMR now %d entries\n", g.Len())

	// weight_on: Cuboid || float -> float is the weight under a given
	// gravitational acceleration; its float argument is value-restricted.
	weightOn := &gomdb.Function{
		Name:           "weight_on",
		Params:         []gomdb.Param{lang.Prm("c", "Cuboid"), lang.Prm("gravitation", "float")},
		ResultType:     "float",
		SideEffectFree: true,
		Body: []gomdb.Stmt{
			lang.Ret(lang.Div(lang.Mul(lang.CallFn("Cuboid.weight", lang.V("c")), lang.V("gravitation")), lang.F(9.81))),
		},
	}
	if err := db.Schema.DefineFunc(weightOn); err != nil {
		panic(err)
	}
	planets := []struct {
		name string
		g    float64
	}{{"Mercury", 3.7}, {"Earth", 9.81}, {"Jupiter", 24.79}}
	var gs []gomdb.Value
	for _, p := range planets {
		gs = append(gs, gomdb.Float(p.g))
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:      []string{"weight_on"},
		Complete:   true,
		Strategy:   gomdb.Immediate,
		Mode:       gomdb.ModeObjDep,
		AtomicArgs: map[int]gomdb.ArgRestriction{1: {Values: gs}},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("materialized weight_on for %d (cuboid, gravitation) combinations\n", gmr.Len())

	c0 := firstWithMaterial(db, iron)
	for _, p := range planets {
		w, err := db.Call("weight_on", gomdb.Ref(c0), gomdb.Float(p.g))
		if err != nil {
			panic(err)
		}
		fmt.Printf("  weight of %v on %-8s %v\n", c0, p.name+":", w)
	}
	// Outside the restricted domain the normal function computes the answer
	// without extending the GMR.
	w, err := db.Call("weight_on", gomdb.Ref(c0), gomdb.Float(1.62)) // Moon
	if err != nil {
		panic(err)
	}
	fmt.Printf("  weight of %v on the Moon: %v (computed, not materialized; GMR still %d entries)\n",
		c0, w, gmr.Len())

	// Output:
	// restricted GMR "<<Cuboid.volume,Cuboid.weight>>" holds 24 entries (iron cuboids only)
	// covered backward query (σ' implies the restriction):
	//    plan: backward GMR index on Cuboid.volume over [200, +Inf], 4 candidates
	// uncovered backward query (gold cuboids might match too):
	//    plan: restricted GMR <<Cuboid.volume,Cuboid.weight>> not applicable (<nil>); falling back
	//    plan: extension scan over [{c Cuboid}]
	// turned an iron cuboid to gold: GMR 24 -> 23 entries
	// and back to iron:              GMR now 24 entries
	// materialized weight_on for 192 (cuboid, gravitation) combinations
	//   weight of id53 on Mercury: 245.71807429281986
	//   weight of id53 on Earth:   651.4849483277196
	//   weight of id53 on Jupiter: 1646.3110977618928
	//   weight of id53 on the Moon: 107.58467036604543 (computed, not materialized; GMR still 192 entries)
}

func mustCall(db *gomdb.Database, fn string, oid gomdb.OID) gomdb.Value {
	v, err := db.Call(fn, gomdb.Ref(oid))
	if err != nil {
		panic(err)
	}
	return v
}

func findMaterial(db *gomdb.Database, name string) gomdb.OID {
	for _, oid := range db.Extension("Material") {
		v, err := db.GetAttr(oid, "Name")
		if err == nil && v.S == name {
			return oid
		}
	}
	panic("no material " + name)
}

func firstWithMaterial(db *gomdb.Database, mat gomdb.OID) gomdb.OID {
	for _, oid := range db.Extension("Cuboid") {
		v, err := db.GetAttr(oid, "Mat")
		if err == nil && v.R == mat {
			return oid
		}
	}
	panic("no cuboid with that material")
}
