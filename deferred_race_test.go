package gomdb_test

// Property test of the deferred update path under concurrency — run with the
// race detector (`make test-race`). Readers hammer forward lookups (some of
// which land on pending entries and force them), writers push vertex-move
// bursts through Batch (whose end is a flush point) or call Flush directly.
// After every round reaches quiescence, Definition 3.2 consistency and
// Definition 3.4 completeness must hold and the RRR must be sound.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
)

func TestDeferredConsistencyUnderConcurrency(t *testing.T) {
	for _, sc := range []bool{false, true} {
		sc := sc
		name := "plain"
		if sc {
			name = "secondchance"
		}
		t.Run(name, func(t *testing.T) {
			db := gomdb.Open(gomdb.DefaultConfig())
			if err := fixtures.DefineGeometry(db, false); err != nil {
				t.Fatal(err)
			}
			g, err := fixtures.PopulateGeometry(db, 24, 13)
			if err != nil {
				t.Fatal(err)
			}
			gmr, err := db.Materialize(gomdb.MaterializeOptions{
				Funcs: []string{"Cuboid.volume", "Cuboid.weight"}, Complete: true,
				Strategy: gomdb.Deferred, Mode: gomdb.ModeObjDep, SecondChance: sc,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := append([]gomdb.OID{}, g.Cuboids...)
			vertices := []string{"V1", "V2", "V4", "V5"}

			for round := 0; round < 3; round++ {
				const readers, writers = 3, 2
				const readerOps, writerBursts = 150, 12
				var wg sync.WaitGroup
				fail := make(chan error, readers+writers)
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < readerOps; i++ {
							oid := base[rng.Intn(len(base))]
							fn := "Cuboid.volume"
							if rng.Intn(2) == 0 {
								fn = "Cuboid.weight"
							}
							// Some of these land on pending entries and must
							// force exactly that entry, concurrently with
							// batch flushes.
							if _, err := db.Call(fn, gomdb.Ref(oid)); err != nil {
								fail <- fmt.Errorf("reader: %w", err)
								return
							}
						}
					}(int64(900*round + 10 + r))
				}
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for b := 0; b < writerBursts; b++ {
							if b%3 == 2 {
								// Bare updates outside a batch: these leave
								// the queue pending until the next flush, so
								// concurrent readers land on pending entries
								// and force them one at a time.
								for i := 0; i < 4; i++ {
									c := base[rng.Intn(len(base))]
									v, err := db.GetAttr(c, vertices[rng.Intn(len(vertices))])
									if err != nil {
										fail <- fmt.Errorf("writer read vertex: %w", err)
										return
									}
									if err := db.Set(v.R, "X", gomdb.Float(1+rng.Float64()*10)); err != nil {
										fail <- fmt.Errorf("writer set vertex: %w", err)
										return
									}
								}
								continue
							}
							// A burst of vertex moves against a handful of
							// cuboids; the Batch end flushes them in one
							// drain.
							err := db.Batch(func(tx *gomdb.Tx) error {
								for i := 0; i < 6; i++ {
									c := base[rng.Intn(len(base))]
									v, err := tx.GetAttr(c, vertices[rng.Intn(len(vertices))])
									if err != nil {
										return err
									}
									attr := []string{"X", "Y", "Z"}[rng.Intn(3)]
									if err := tx.Set(v.R, attr, gomdb.Float(1+rng.Float64()*10)); err != nil {
										return err
									}
								}
								return nil
							})
							if err != nil {
								fail <- fmt.Errorf("writer batch: %w", err)
								return
							}
							if rng.Intn(3) == 0 {
								if err := db.Flush(); err != nil {
									fail <- fmt.Errorf("writer flush: %w", err)
									return
								}
							}
						}
					}(int64(900*round + 50 + w))
				}
				wg.Wait()
				close(fail)
				for err := range fail {
					t.Fatal(err)
				}

				// Quiescent: drain whatever the last bursts left pending, then
				// audit.
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				if got := db.GMRs.PendingLen(); got != 0 {
					t.Fatalf("round %d: %d items still pending after flush", round, got)
				}
				rep, err := db.CheckConsistency(gmr.Name, 1e-6, true)
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Err(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				// RRR soundness: one reorganization sweep may clear blind
				// references; a second must find nothing.
				if _, err := db.GMRs.ReorganizeRRR(); err != nil {
					t.Fatal(err)
				}
				n, err := db.GMRs.ReorganizeRRR()
				if err != nil {
					t.Fatal(err)
				}
				if n != 0 {
					t.Fatalf("round %d: second RRR reorganization removed %d tuples", round, n)
				}
				assertNoPins(t, db, "after deferred stress")
			}
			st := &db.GMRs.Stats
			if atomic.LoadInt64(&st.Flushes) == 0 || atomic.LoadInt64(&st.DeferredUpdates) == 0 {
				t.Fatalf("workload did not exercise the deferred path (flushes=%d deferred=%d)",
					atomic.LoadInt64(&st.Flushes), atomic.LoadInt64(&st.DeferredUpdates))
			}
			t.Logf("deferred=%d coalesced=%d forces=%d flushes=%d flushedItems=%d highWater=%d",
				atomic.LoadInt64(&st.DeferredUpdates), atomic.LoadInt64(&st.CoalescedUpdates),
				atomic.LoadInt64(&st.DeferredForces), atomic.LoadInt64(&st.Flushes),
				atomic.LoadInt64(&st.FlushedItems), atomic.LoadInt64(&st.QueueHighWater))
		})
	}
}
