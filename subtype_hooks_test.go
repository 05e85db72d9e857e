package gomdb_test

import (
	"fmt"
	"slices"
	"testing"

	"gomdb"
	"gomdb/internal/core"
	"gomdb/internal/fixtures"
)

// TestSubtypeDefinedAfterMaterialize defines Square <: Rectangle after
// materializing Rectangle.area in a complete GMR, once through the facade and
// once through a db.Schema reach-in. A Square created afterwards must enter
// the GMR, a set on it must invalidate (and, immediate, rematerialize) its
// entry, a compensating action declared on Rectangle must compensate it, and
// the consistency audit must stay clean throughout.
func TestSubtypeDefinedAfterMaterialize(t *testing.T) {
	for _, via := range []struct {
		name       string
		defineType func(db *gomdb.Database, typ *gomdb.Type) error
	}{
		{"facade", func(db *gomdb.Database, typ *gomdb.Type) error { return db.DefineType(typ) }},
		{"schema", func(db *gomdb.Database, typ *gomdb.Type) error { return db.Schema.DefineType(typ) }},
		// Square as a grandchild: a middle type Quad <: Rectangle, defined
		// after Materialize, carries a compensating action of its own for
		// set_W, and Square <: Quad inherits it (the nearest action wins).
		{"grandchild", func(db *gomdb.Database, typ *gomdb.Type) error {
			quad := gomdb.NewTupleType("Quad")
			quad.Super = "Rectangle"
			if err := db.DefineType(quad); err != nil {
				return err
			}
			comp, err := db.Schema.DefineOpSrc("Quad",
				`define comp_w_quad(w: float, old: float): float is return w * self.H end`, true)
			if err != nil {
				return err
			}
			if err := db.GMRs.DefineCompensation("Quad", "set_W", "Rectangle.area", comp); err != nil {
				return err
			}
			typ.Super = "Quad"
			return db.DefineType(typ)
		}},
	} {
		t.Run(via.name, func(t *testing.T) {
			db := gomdb.Open(gomdb.DefaultConfig())
			db.MustDefineType(gomdb.NewTupleType("Rectangle",
				gomdb.PubAttr("W", "float"), gomdb.PubAttr("H", "float")), "area")
			if err := db.DefineOpSrc("Rectangle", `define area: float is return self.W * self.H end`, true); err != nil {
				t.Fatal(err)
			}
			db.MustNew("Rectangle", gomdb.Float(2), gomdb.Float(3))
			gmr, err := db.Materialize(gomdb.MaterializeOptions{
				Funcs: []string{"Rectangle.area"}, Complete: true,
				Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
			})
			if err != nil {
				t.Fatal(err)
			}
			consistent := func(step string) {
				t.Helper()
				rep, err := db.CheckConsistency(gmr.Name, 1e-9, true)
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Err(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			area := func(oid gomdb.OID) float64 {
				t.Helper()
				v, err := db.Call("Rectangle.area", gomdb.Ref(oid))
				if err != nil {
					t.Fatal(err)
				}
				return v.F
			}

			// A compensating action for set_W, defined on the supertype
			// before the subtype exists.
			comp, err := db.Schema.DefineOpSrc("Rectangle",
				`define comp_w(w: float, old: float): float is return w * self.H end`, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.GMRs.DefineCompensation("Rectangle", "set_W", "Rectangle.area", comp); err != nil {
				t.Fatal(err)
			}

			square := gomdb.NewTupleType("Square", gomdb.PubAttr("Tag", "string"))
			square.Super = "Rectangle"
			if err := via.defineType(db, square); err != nil {
				t.Fatal(err)
			}
			sq := db.MustNew("Square", gomdb.Float(4), gomdb.Float(4), gomdb.Str("s"))
			consistent("after creating a Square")
			hits := db.GMRs.Stats.ForwardHits
			if got := area(sq); got != 16 {
				t.Fatalf("area(square) = %v, want 16", got)
			}
			if db.GMRs.Stats.ForwardHits != hits+1 {
				t.Fatal("area(square) was not answered from the GMR")
			}
			invalidations := db.GMRs.Stats.Invalidations
			if err := db.Set(sq, "H", gomdb.Float(5)); err != nil {
				t.Fatal(err)
			}
			if db.GMRs.Stats.Invalidations == invalidations {
				t.Fatal("setting a Square's H invalidated nothing")
			}
			consistent("after setting a Square's H")
			if got := area(sq); got != 20 {
				t.Fatalf("area(square) after setting H = %v, want 20", got)
			}
			compensations := db.GMRs.Stats.Compensations
			if err := db.Set(sq, "W", gomdb.Float(6)); err != nil {
				t.Fatal(err)
			}
			if db.GMRs.Stats.Compensations == compensations {
				t.Fatal("setting a Square's W ran no compensating action")
			}
			consistent("after setting a Square's W")
			if got := area(sq); got != 30 {
				t.Fatalf("area(square) after setting W = %v, want 30", got)
			}
		})
	}
}

// TestOverrideHooksRunOnce materializes Rectangle.area where Square <:
// Rectangle overrides area with a body that reads W as well, so the rewrite
// plans set_W on both types. A hook resolves through the supertype chain,
// and a subtype key is planned only for the functions its supertype keys do
// not cover: one set_W on a square invalidates and rematerializes its entry
// once, and one delete forgets it once. The override is defined before
// Materialize, and after it (which re-plans the rewrite).
func TestOverrideHooksRunOnce(t *testing.T) {
	for _, overrideFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("overrideFirst=%v", overrideFirst), func(t *testing.T) {
			db := gomdb.Open(gomdb.DefaultConfig())
			db.MustDefineType(gomdb.NewTupleType("Rectangle",
				gomdb.PubAttr("W", "float"), gomdb.PubAttr("H", "float")), "area")
			square := gomdb.NewTupleType("Square")
			square.Super = "Rectangle"
			db.MustDefineType(square, "area")
			if err := db.DefineOpSrc("Rectangle", `define area: float is return self.W * self.H end`, true); err != nil {
				t.Fatal(err)
			}
			override := func() {
				t.Helper()
				if err := db.DefineOpSrc("Square", `define area: float is return self.W * self.W end`, true); err != nil {
					t.Fatal(err)
				}
			}
			if overrideFirst {
				override()
			}
			db.MustNew("Rectangle", gomdb.Float(2), gomdb.Float(3))
			sq := db.MustNew("Square", gomdb.Float(3), gomdb.Float(3))
			gmr, err := db.Materialize(gomdb.MaterializeOptions{
				Funcs: []string{"Rectangle.area"}, Complete: true,
				Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !overrideFirst {
				override()
			}
			consistent := func(step string) {
				t.Helper()
				rep, err := db.CheckConsistency(gmr.Name, 1e-9, true)
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Err(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			consistent("after materializing")
			for _, attr := range []string{"W", "H"} {
				before := db.GMRs.Stats
				if err := db.Set(sq, attr, gomdb.Float(4)); err != nil {
					t.Fatal(err)
				}
				if n := db.GMRs.Stats.Invalidations - before.Invalidations; n != 1 {
					t.Errorf("set_%s on a square: %d invalidations, want 1", attr, n)
				}
				if n := db.GMRs.Stats.Rematerializations - before.Rematerializations; n != 1 {
					t.Errorf("set_%s on a square: %d rematerializations, want 1", attr, n)
				}
				consistent("after set_" + attr)
			}
			before := db.GMRs.Stats.ForgottenObjects
			if err := db.Delete(sq); err != nil {
				t.Fatal(err)
			}
			if n := db.GMRs.Stats.ForgottenObjects - before; n != 1 {
				t.Errorf("deleting a square ran ForgetObject %d times, want 1", n)
			}
			consistent("after deleting the square")
		})
	}
}

// TestSubtypeHooksRunInInstallationOrder materializes two GMRs one after
// the other over the company schema, one on Person.tag and one on
// Employee.label, both reading Name. A set_Name on an Employee runs the
// hook declared on Person and the one declared on Employee in the order
// they were installed: neither the chain order nor the GMR names decide.
func TestSubtypeHooksRunInInstallationOrder(t *testing.T) {
	for _, order := range [][]string{
		{"Person.tag", "Employee.label"},
		{"Employee.label", "Person.tag"},
	} {
		t.Run(order[0], func(t *testing.T) {
			db := gomdb.Open(gomdb.DefaultConfig())
			if err := fixtures.DefineCompany(db); err != nil {
				t.Fatal(err)
			}
			for _, src := range []struct{ typ, body string }{
				{"Person", `define tag: string is return self.Name end`},
				{"Employee", `define label: string is return self.Name end`},
			} {
				if err := db.DefineOpSrc(src.typ, src.body, true); err != nil {
					t.Fatal(err)
				}
			}
			jobs, err := db.NewSet("Jobs")
			if err != nil {
				t.Fatal(err)
			}
			emp := db.MustNew("Employee", gomdb.Str("E1"), gomdb.Int(1), gomdb.Float(50000), gomdb.Ref(jobs))
			// The GMR materialized first sorts last by name.
			names := []string{"Gz", "Ga"}
			for i, fn := range order {
				if _, err := db.Materialize(gomdb.MaterializeOptions{
					Name: names[i], Funcs: []string{fn}, Complete: true,
					Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
				}); err != nil {
					t.Fatal(err)
				}
			}
			var ran []string
			db.GMRs.SetTrace(func(e core.TraceEvent) {
				if e.Op == "invalidate" {
					ran = append(ran, e.GMR)
				}
			})
			defer db.GMRs.SetTrace(nil)
			if err := db.Set(emp, "Name", gomdb.Str("E2")); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ran, names) {
				t.Fatalf("set_Name on an Employee invalidated %v, want %v (installation order)", ran, names)
			}
		})
	}
}
