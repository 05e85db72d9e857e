package gomdb_test

import (
	"testing"

	"gomdb"
	"gomdb/internal/core"
)

// TestBorrowedArgumentsAreNeverKept: a forward call borrows its caller's
// argument list, so every path that keeps the arguments — the incremental
// insert of an entry and of its RRR tuples — must keep a copy. The first
// part fills an incremental GMR through Call with one caller-owned slice
// that is overwritten after every call; the second fills one through a
// GOMql query, whose path steps pass a stack argument array. Either way
// every entry and every RRR tuple must still name the object it was
// computed for.
func TestBorrowedArgumentsAreNeverKept(t *testing.T) {
	check := func(t *testing.T, db *gomdb.Database, gmr string, oids []gomdb.OID) {
		t.Helper()
		g, ok := db.GMRs.Get(gmr)
		if !ok {
			t.Fatalf("no GMR %s", gmr)
		}
		seen := make(map[gomdb.OID]bool)
		g.Entries(func(args, results []gomdb.Value, valid []bool) bool {
			oid := args[0].R
			if seen[oid] {
				t.Errorf("two entries name %v", oid)
			}
			seen[oid] = true
			w, _ := db.GetAttr(oid, "Width")
			h, _ := db.GetAttr(oid, "Height")
			if !valid[0] || results[0].F != w.F*h.F {
				t.Errorf("entry for %v holds %v (valid %v), want %v", oid, results[0], valid[0], w.F*h.F)
			}
			return true
		})
		if len(seen) != len(oids) {
			t.Errorf("%d entries, want %d", len(seen), len(oids))
		}
		for _, oid := range oids {
			if !seen[oid] {
				t.Errorf("no entry for %v", oid)
			}
		}
		tuples := 0
		if err := db.GMRs.RRR().Scan(func(tp core.Tuple) bool {
			if tp.F == "Rectangle.area" {
				tuples++
				if len(tp.Args) != 1 || tp.Args[0].R != tp.O {
					t.Errorf("RRR tuple of %v names arguments %v", tp.O, tp.Args)
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if tuples != len(oids) {
			t.Errorf("%d RRR tuples, want %d", tuples, len(oids))
		}
		rep, err := db.CheckConsistency(gmr, 1e-9, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Error(err)
		}
	}
	setup := func(t *testing.T) (*gomdb.Database, []gomdb.OID, string) {
		db := rectangleDB(t)
		for i := 1; i <= 12; i++ {
			db.MustNew("Rectangle", gomdb.Float(float64(i)), gomdb.Float(3))
		}
		g, err := db.Materialize(gomdb.MaterializeOptions{Funcs: []string{"Rectangle.area"}})
		if err != nil {
			t.Fatal(err)
		}
		return db, db.Extension("Rectangle"), g.Name
	}

	t.Run("Call", func(t *testing.T) {
		db, oids, gmr := setup(t)
		args := make([]gomdb.Value, 1)
		for i, oid := range oids {
			args[0] = gomdb.Ref(oid)
			if _, err := db.Call("Rectangle.area", args...); err != nil {
				t.Fatal(err)
			}
			// The caller owns args again: reuse it for a different object.
			args[0] = gomdb.Ref(oids[(i+1)%len(oids)])
		}
		check(t, db, gmr, oids)
	})

	t.Run("GOMql", func(t *testing.T) {
		db, oids, gmr := setup(t)
		res, err := db.Query(`range r: Rectangle retrieve r where r.area > 0.0`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(oids) {
			t.Fatalf("query returned %d rows, want %d", len(res.Rows), len(oids))
		}
		check(t, db, gmr, oids)
	})
}
