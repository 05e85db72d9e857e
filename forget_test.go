package gomdb_test

import (
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
)

// TestDeleteReferencedMemberInvalidates deletes a Cuboid a Workpieces set
// still holds. The set's materialized total read the cuboid through a
// reference, not as an argument, so forget_object must not leave the entry
// valid with the deleted cuboid's volume in it: the entry turns invalid
// under every strategy, the audit is clean, and the forward query reports
// the dangling reference a recomputation runs into. The deferred drain
// leaves such a result invalid instead of failing every later batch.
func TestDeleteReferencedMemberInvalidates(t *testing.T) {
	for _, strat := range []gomdb.Strategy{gomdb.Immediate, gomdb.Lazy, gomdb.Deferred} {
		t.Run(strat.String(), func(t *testing.T) {
			db := gomdb.Open(gomdb.DefaultConfig())
			if err := fixtures.DefineGeometry(db, false); err != nil {
				t.Fatal(err)
			}
			g, err := fixtures.PopulateGeometry(db, 8, 5)
			if err != nil {
				t.Fatal(err)
			}
			set, err := db.NewSet("Workpieces", gomdb.Ref(g.Cuboids[0]), gomdb.Ref(g.Cuboids[1]), gomdb.Ref(g.Cuboids[2]))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Materialize(gomdb.MaterializeOptions{
				Name: "Gtot", Funcs: []string{"Workpieces.total_volume"}, Complete: true, Strategy: strat,
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Call("Workpieces.total_volume", gomdb.Ref(set)); err != nil {
				t.Fatal(err)
			}
			if err := db.Delete(g.Cuboids[1]); err != nil {
				t.Fatal(err)
			}
			// A batch of an update elsewhere ends with the deferred drain.
			if err := db.Batch(func(tx *gomdb.Tx) error {
				return tx.Set(g.Cuboids[5], "Value", gomdb.Float(3))
			}); err != nil {
				t.Fatalf("a batch after the delete: %v", err)
			}
			rep, err := db.CheckConsistency("Gtot", 1e-9, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Fatalf("audit after the delete: %v", err)
			}
			if rep.Entries != 1 || rep.Invalid != 1 {
				t.Fatalf("audit after the delete: %v; want the one entry invalid", rep)
			}
			v, err := db.Call("Workpieces.total_volume", gomdb.Ref(set))
			if err == nil || !strings.Contains(err.Error(), "dangling reference") {
				t.Fatalf("total after the delete = %v, %v; want the dangling-reference error", v, err)
			}
		})
	}
}
