package gomdb_test

// Concurrency and resource-hygiene tests of the public API: buffer pins must
// balance after every operation (including failed ones), and the engine must
// stay consistent under a mixed concurrent workload — run these with the
// race detector (`make test-race`).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/storage"
)

// assertNoPins fails if any buffer frame is still pinned.
func assertNoPins(t *testing.T, db *gomdb.Database, ctx string) {
	t.Helper()
	if n := db.Pool.PinnedCount(); n != 0 {
		t.Fatalf("%s: %d frames left pinned", ctx, n)
	}
}

// TestNoPinLeaks walks the whole public surface — definition, population,
// materialization, queries, updates, retrieval, audit, teardown — asserting
// after each call that every buffer pin has been released.
func TestNoPinLeaks(t *testing.T) {
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	assertNoPins(t, db, "DefineGeometry")
	g, err := fixtures.ExampleGeometry(db)
	if err != nil {
		t.Fatal(err)
	}
	assertNoPins(t, db, "ExampleGeometry")
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Cuboid.volume", "Cuboid.weight"}, Complete: true,
		Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertNoPins(t, db, "Materialize")
	steps := []struct {
		name string
		run  func() error
	}{
		{"Call", func() error {
			_, err := db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[0]))
			return err
		}},
		{"Query", func() error {
			_, err := db.Query(`range c: Cuboid retrieve c.CuboidID where c.volume > 100.0`, nil)
			return err
		}},
		{"Retrieve", func() error {
			_, err := db.Retrieve(gmr.Name, []gomdb.FieldSpec{
				gomdb.AnySpec(), gomdb.RangeSpec(0, 500), gomdb.AnySpec(),
			})
			return err
		}},
		{"GetAttr", func() error {
			_, err := db.GetAttr(g.Cuboids[0], "Value")
			return err
		}},
		{"Set", func() error {
			return db.Set(g.MaterialO[0], "SpecWeight", gomdb.Float(8.0))
		}},
		{"CheckConsistency", func() error {
			rep, err := db.CheckConsistency(gmr.Name, 1e-6, true)
			if err != nil {
				return err
			}
			return rep.Err()
		}},
		{"Delete", func() error { return db.Delete(g.Cuboids[2]) }},
		{"Dematerialize", func() error { return db.Dematerialize(gmr.Name) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		assertNoPins(t, db, s.name)
	}
}

// TestNoPinLeaksOnErrors arms disk fault injection at every I/O offset and
// drives the update and query paths into the failure; whatever error
// surfaces, no buffer pin may remain held.
func TestNoPinLeaksOnErrors(t *testing.T) {
	for k := 1; k <= 50; k++ {
		db := rectangleDB(t)
		for i := 1; i <= 6; i++ {
			db.MustNew("Rectangle", gomdb.Float(float64(i)), gomdb.Float(2))
		}
		if _, err := db.Query(`range r: Rectangle materialize r.area`, nil); err != nil {
			t.Fatal(err)
		}
		oids := db.Extension("Rectangle")
		db.Disk.SetFaultPlan(storage.FaultPlan{Rules: []storage.FaultRule{{After: k}}})
		// Each step may or may not reach the armed failure; only the pin
		// balance matters.
		_, _ = db.Query(`range r: Rectangle retrieve r.Width where r.area >= 4.0`, nil)
		_ = db.Set(oids[0], "Width", gomdb.Float(9))
		_, _ = db.Call("Rectangle.area", gomdb.Ref(oids[1]))
		_, _ = db.New("Rectangle", gomdb.Float(7), gomdb.Float(7))
		_ = db.Delete(oids[2])
		db.Disk.ClearFaults()
		assertNoPins(t, db, fmt.Sprintf("fault after %d I/Os", k))
	}
}

// TestConcurrentStress runs four readers against two writers on a shared
// database with a complete two-function GMR, then verifies after quiescence
// that Definition 3.2 consistency, completeness, RRR soundness, and the pin
// balance all held up. The race detector turns any unguarded shared state
// into a hard failure.
func TestConcurrentStress(t *testing.T) {
	for _, mode := range []struct {
		name     string
		strategy gomdb.Strategy
	}{
		{"Immediate", gomdb.Immediate},
		{"Lazy", gomdb.Lazy},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db := gomdb.Open(gomdb.DefaultConfig())
			if err := fixtures.DefineGeometry(db, false); err != nil {
				t.Fatal(err)
			}
			g, err := fixtures.PopulateGeometry(db, 16, 42)
			if err != nil {
				t.Fatal(err)
			}
			gmr, err := db.Materialize(gomdb.MaterializeOptions{
				Funcs: []string{"Cuboid.volume", "Cuboid.weight"}, Complete: true,
				Strategy: mode.strategy, Mode: gomdb.ModeObjDep,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Stable snapshot for the readers; writers never touch these.
			base := append([]gomdb.OID{}, g.Cuboids...)
			iron := g.MaterialO[0]

			const readers, writers = 4, 2
			const readerOps, writerOps = 150, 100
			var wg sync.WaitGroup
			fail := make(chan error, readers+writers)

			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < readerOps; i++ {
						oid := base[rng.Intn(len(base))]
						var err error
						switch rng.Intn(4) {
						case 0:
							_, err = db.Call("Cuboid.volume", gomdb.Ref(oid))
						case 1:
							_, err = db.Query(`range c: Cuboid retrieve c.CuboidID where c.volume > 100.0`, nil)
						case 2:
							_, err = db.Retrieve(gmr.Name, []gomdb.FieldSpec{
								gomdb.AnySpec(), gomdb.RangeSpec(0, 500), gomdb.AnySpec(),
							})
						case 3:
							_, err = db.GetAttr(oid, "Value")
						}
						if err != nil {
							fail <- fmt.Errorf("reader: %w", err)
							return
						}
					}
				}(int64(100 + r))
			}

			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int, seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					var mine []gomdb.OID // cuboids this writer created
					for i := 0; i < writerOps; i++ {
						switch {
						case rng.Intn(10) == 0:
							// Invalidate every weight at once.
							if err := db.Set(iron, "SpecWeight", gomdb.Float(7+rng.Float64())); err != nil {
								fail <- fmt.Errorf("writer set material: %w", err)
								return
							}
						case rng.Intn(3) == 0 && len(mine) > 0:
							oid := mine[len(mine)-1]
							mine = mine[:len(mine)-1]
							if err := db.Delete(oid); err != nil {
								fail <- fmt.Errorf("writer delete: %w", err)
								return
							}
						case rng.Intn(2) == 0:
							// Move one vertex of an own cuboid: invalidates
							// just that cuboid's entry.
							if len(mine) == 0 {
								continue
							}
							v, err := db.GetAttr(mine[len(mine)-1], "V2")
							if err != nil {
								fail <- fmt.Errorf("writer read vertex: %w", err)
								return
							}
							if err := db.Set(v.R, "X", gomdb.Float(rng.Float64()*10)); err != nil {
								fail <- fmt.Errorf("writer set vertex: %w", err)
								return
							}
						default:
							id := int64(1000*(w+1) + i)
							oid := fixtures.NewCuboid(db, id, 0, 0, 0,
								1+rng.Float64()*5, 1+rng.Float64()*5, 1+rng.Float64()*5,
								iron, 10)
							mine = append(mine, oid)
						}
					}
				}(w, int64(200+w))
			}

			wg.Wait()
			close(fail)
			for err := range fail {
				t.Fatal(err)
			}

			// Quiescence reached. Freshness first: a forward hit must not
			// survive the write that obsoletes it.
			target := base[0]
			before, err := db.Call("Cuboid.volume", gomdb.Ref(target))
			if err != nil {
				t.Fatal(err)
			}
			v, err := db.GetAttr(target, "V2")
			if err != nil {
				t.Fatal(err)
			}
			watch := watchGMRs(db)
			if err := db.Set(v.R, "X", gomdb.Float(123.5)); err != nil {
				t.Fatal(err)
			}
			if watch() == "" {
				t.Fatal("moving a vertex of a materialized cuboid touched no GMR state")
			}
			after, err := db.Call("Cuboid.volume", gomdb.Ref(target))
			if err != nil {
				t.Fatal(err)
			}
			if after.F == before.F {
				t.Fatalf("volume unchanged (%v) after moving a vertex: stale result served", after.F)
			}

			// Then re-verify the paper's invariants.
			rep, err := db.CheckConsistency(gmr.Name, 1e-6, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
			// RRR soundness: a reorganization sweep may clear blind
			// references left by deletions; a second sweep must find none.
			if _, err := db.GMRs.ReorganizeRRR(); err != nil {
				t.Fatal(err)
			}
			n, err := db.GMRs.ReorganizeRRR()
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Fatalf("second RRR reorganization removed %d tuples", n)
			}
			assertNoPins(t, db, "after stress")
		})
	}
}
