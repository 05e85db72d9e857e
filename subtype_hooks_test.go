package gomdb_test

import (
	"testing"

	"gomdb"
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
