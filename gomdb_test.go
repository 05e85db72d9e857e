package gomdb_test

// Integration tests of the public gomdb API: the full lifecycle a downstream
// user goes through — schema definition, population, materialization via
// GOMql, queries, updates, and teardown.

import (
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/lang"
	"gomdb/internal/query"
	"gomdb/internal/schema"
)

func rectangleDB(t *testing.T) *gomdb.Database {
	t.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	db.MustDefineType(gomdb.NewTupleType("Rectangle",
		gomdb.PubAttr("Width", "float"),
		gomdb.PubAttr("Height", "float"),
	), "area", "perimeter")
	area := &gomdb.Function{
		Params:         []gomdb.Param{lang.Prm("self", "Rectangle")},
		ResultType:     "float",
		SideEffectFree: true,
		Body: []gomdb.Stmt{
			lang.Ret(lang.Mul(lang.A(lang.Self(), "Width"), lang.A(lang.Self(), "Height"))),
		},
	}
	db.MustDefineOp("Rectangle", "area", area)
	perimeter := &gomdb.Function{
		Params:         []gomdb.Param{lang.Prm("self", "Rectangle")},
		ResultType:     "float",
		SideEffectFree: true,
		Body: []gomdb.Stmt{
			lang.Ret(lang.Mul(lang.F(2), lang.Add(lang.A(lang.Self(), "Width"), lang.A(lang.Self(), "Height")))),
		},
	}
	db.MustDefineOp("Rectangle", "perimeter", perimeter)
	return db
}

func TestPublicAPILifecycle(t *testing.T) {
	db := rectangleDB(t)
	for i := 1; i <= 10; i++ {
		db.MustNew("Rectangle", gomdb.Float(float64(i)), gomdb.Float(2))
	}
	// Materialize via GOMql.
	res, err := db.Query(`range r: Rectangle materialize r.area, r.perimeter`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].I != 10 {
		t.Fatalf("materialized %v entries", res.Rows[0][1])
	}
	// Backward query.
	res, err = db.Query(`range r: Rectangle retrieve r.Width where r.area >= 10.0 and r.area <= 16.0`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // widths 5..8 (areas 10..16)
		t.Fatalf("got %d rows: %v", len(res.Rows), res.Rows)
	}
	// Aggregate over materialized results.
	res, err = db.Query(`range r: Rectangle retrieve sum(r.area), count(r.area), min(r.area), max(r.area), avg(r.area)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if s, _ := row[0].AsFloat(); s != 110 { // 2*(1+..+10)
		t.Fatalf("sum = %v", row[0])
	}
	if row[1].I != 10 {
		t.Fatalf("count = %v", row[1])
	}
	if mn, _ := row[2].AsFloat(); mn != 2 {
		t.Fatalf("min = %v", row[2])
	}
	if mx, _ := row[3].AsFloat(); mx != 20 {
		t.Fatalf("max = %v", row[3])
	}
	if av, _ := row[4].AsFloat(); av != 11 {
		t.Fatalf("avg = %v", row[4])
	}
	// Update and re-query.
	oid := db.Extension("Rectangle")[0]
	if err := db.Set(oid, "Height", gomdb.Float(100)); err != nil {
		t.Fatal(err)
	}
	v, err := db.Call("Rectangle.area", gomdb.Ref(oid))
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.AsFloat(); f != 100 {
		t.Fatalf("area after update = %v", v)
	}
	// Teardown restores the unmodified schema.
	for _, name := range db.GMRs.GMRs() {
		if err := db.Dematerialize(name); err != nil {
			t.Fatal(err)
		}
	}
	if db.GMRs.InstalledHookCount() != 0 {
		t.Fatal("hooks left after teardown")
	}
	v, err = db.Call("Rectangle.area", gomdb.Ref(oid))
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.AsFloat(); f != 100 {
		t.Fatalf("area after teardown = %v", v)
	}
}

func TestSimulatedCostVisible(t *testing.T) {
	db := rectangleDB(t)
	if db.SimSeconds() != 0 {
		t.Fatal("fresh database has nonzero simulated time")
	}
	for i := 0; i < 2000; i++ {
		db.MustNew("Rectangle", gomdb.Float(1), gomdb.Float(1))
	}
	if db.SimSeconds() <= 0 {
		t.Fatal("population charged nothing")
	}
	snap := db.Snapshot()
	if snap.LogWrites == 0 {
		t.Fatal("no logical writes recorded")
	}
}

func TestCollectionsAPI(t *testing.T) {
	db := rectangleDB(t)
	db.MustDefineType(gomdb.NewSetType("Rects", "Rectangle"), "insert", "remove")
	a := db.MustNew("Rectangle", gomdb.Float(1), gomdb.Float(1))
	bOid := db.MustNew("Rectangle", gomdb.Float(2), gomdb.Float(2))
	set, err := db.NewSet("Rects", gomdb.Ref(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(set, gomdb.Ref(bOid)); err != nil {
		t.Fatal(err)
	}
	elems, err := db.Engine.ReadElems(gomdb.Ref(set))
	if err != nil || len(elems) != 2 {
		t.Fatalf("elems = %v, %v", elems, err)
	}
	if err := db.Remove(set, gomdb.Ref(a)); err != nil {
		t.Fatal(err)
	}
	elems, _ = db.Engine.ReadElems(gomdb.Ref(set))
	if len(elems) != 1 || elems[0].R != bOid {
		t.Fatalf("after remove: %v", elems)
	}
	if err := db.Delete(bOid); err != nil {
		t.Fatal(err)
	}
	if db.Objects.Exists(bOid) {
		t.Fatal("delete failed")
	}
}

// TestTextualDefinitionLifecycle drives the interactive workflow: define a
// derived function textually, materialize it, query it through the GMR, and
// watch updates maintain it.
func TestTextualDefinitionLifecycle(t *testing.T) {
	db := rectangleDB(t)
	for i := 1; i <= 6; i++ {
		db.MustNew("Rectangle", gomdb.Float(float64(i)), gomdb.Float(3))
	}
	if err := db.DefineOpSrc("Rectangle", `
		define aspect: float is
			!! width-to-height ratio
			return self.Width / self.Height
		end`, true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`range r: Rectangle materialize r.aspect`, nil); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`range r: Rectangle retrieve r.Width where r.aspect > 1.0`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // widths 4, 5, 6 over height 3
		t.Fatalf("aspect query returned %d rows", len(res.Rows))
	}
	// An update must flow through the rewritten set_Height.
	oid := db.Extension("Rectangle")[0] // width 1
	if err := db.Set(oid, "Height", gomdb.Float(0.5)); err != nil {
		t.Fatal(err)
	}
	v, err := db.Call("Rectangle.aspect", gomdb.Ref(oid))
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.AsFloat(); f != 2 {
		t.Fatalf("aspect after update = %v, want 2", v)
	}
	// Textual definitions are statically analyzable: the GMR rewrote only
	// the relevant operations.
	if !db.Engine.Hooks.Installed("Rectangle", "set_Height") {
		t.Fatal("set_Height not rewritten")
	}
	// A non-side-effect-free textual definition cannot be materialized.
	if err := db.DefineOpSrc("Rectangle", `
		define widen is
			self.set_Width(self.Width + 1.0)
		end`, false); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`range r: Rectangle materialize r.widen`, nil); err == nil {
		t.Fatal("materialize of updating operation accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	db := rectangleDB(t)
	rect := db.MustNew("Rectangle", gomdb.Float(1), gomdb.Float(1))
	// Circle has no instances; Square overrides area with another result
	// type.
	db.MustDefineType(gomdb.NewTupleType("Circle", gomdb.PubAttr("Radius", "float")))
	sq := gomdb.NewTupleType("Square")
	sq.Super = "Rectangle"
	db.MustDefineType(sq)
	if err := db.DefineOpSrc("Square", `define area: int is return 1 end`, true); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src    string
		params map[string]gomdb.Value
		what   string
	}{
		{`range r: Missing retrieve r`, nil, "unknown type"},
		{`range r: Rectangle retrieve r.nope`, nil, "unknown path segment"},
		{`range r: Rectangle retrieve r where r.Width = $missing`, nil, "unbound parameter"},
		{`range r: Rectangle retrieve sum(r.Width), r.Width`, nil, "mixed aggregate/plain targets"},
		{`range a: Rectangle, b: Rectangle materialize a.area`, nil, "multi-range materialize"},
		// The static rules: each fails before any candidate is evaluated.
		{`range c: Circle retrieve c.nope`, nil, "unknown path segment over an empty extension"},
		{`range r: Rectangle retrieve r where r.Width > 100.0 and r.Height = $missing`, nil,
			"unbound parameter in a branch no candidate reaches"},
		{`range r: Rectangle retrieve r where p.Width > 0.0`, map[string]gomdb.Value{"p": gomdb.Ref(rect)},
			"step on a parameter-rooted path"},
		{`range r: Rectangle retrieve r.area`, nil, "operation step whose override declares another result type"},
	} {
		if _, err := db.Query(c.src, c.params); err == nil {
			t.Errorf("%s accepted: %s", c.what, c.src)
		}
	}
}

// TestCallClassifierMatchesGOMql: an embedded call and a GOMql explicit call
// of the same function classify alike. A snapshot view's Call refuses what
// the classifier does not admit; GOMql's plan walk classifies an explicit
// call of the same name.
func TestCallClassifierMatchesGOMql(t *testing.T) {
	db := rectangleDB(t)
	sq := gomdb.NewTupleType("Square")
	sq.Super = "Rectangle"
	db.MustDefineType(sq)
	mustSrc := func(typeName, src string, sideEffectFree bool) {
		t.Helper()
		var err error
		if typeName == "" {
			err = db.DefineFuncSrc(src, sideEffectFree)
		} else {
			err = db.DefineOpSrc(typeName, src, sideEffectFree)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	half := `define half: float is return self.Width / 2.0 end`
	mustSrc("Rectangle", half, true)
	mustSrc("Square", half, true)
	db.Engine.Hooks.Install("Square", "half", &schema.UpdateHook{Name: "test"})
	mustSrc("Square", `define perimeter: float is
		self.set_Width(self.Width + 1.0);
		return 4.0 * self.Width
	end`, false)
	mustSrc("", `define twice(x: float): float is return 2.0 * x end`, true)
	r := db.MustNew("Rectangle", gomdb.Float(1), gomdb.Float(2))

	cases := []struct {
		name string
		args []gomdb.Value
		want bool
	}{
		{"Rectangle.area", []gomdb.Value{gomdb.Ref(r)}, true},
		{"Rectangle.half", []gomdb.Value{gomdb.Ref(r)}, false},      // hooked override
		{"Rectangle.perimeter", []gomdb.Value{gomdb.Ref(r)}, false}, // updating override
		{"Nope.area", []gomdb.Value{gomdb.Ref(r)}, false},           // unknown type
		{"twice", []gomdb.Value{gomdb.Float(3)}, true},              // free function
		{"nope", nil, false},
	}
	view := db.SnapshotView()
	defer view.Release()
	for _, c := range cases {
		_, err := view.Call(c.name, c.args...)
		viewAdmits := err == nil || !strings.Contains(err.Error(), "not side-effect free")
		q := &query.Query{Targets: []query.Target{{Path: &query.PathE{Call: &query.CallE{Fn: c.name}}}}}
		gomqlAdmits := db.Queries.ReadOnlyPlan(q)
		if viewAdmits != c.want || gomqlAdmits != c.want {
			t.Errorf("%s: snapshot Call admits %v (err %v), GOMql admits %v; want %v",
				c.name, viewAdmits, err, gomqlAdmits, c.want)
		}
	}
}
