package core_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
)

// Tests of the Deferred rematerialization strategy: coalescing semantics,
// flush points, on-demand forcing, and the second-chance interaction.

func openDeferredGeometry(t *testing.T, n int, secondChance bool) (*gomdb.Database, *fixtures.Geometry, *gomdb.GMR) {
	t.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Cuboid.volume", "Cuboid.weight"}, Complete: true,
		Strategy: gomdb.Deferred, Mode: gomdb.ModeObjDep, SecondChance: secondChance,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, g, gmr
}

// vertexOf returns the OID of vertex attribute vn of cuboid c.
func vertexOf(t *testing.T, db *gomdb.Database, c gomdb.OID, vn string) gomdb.OID {
	t.Helper()
	v, err := db.GetAttr(c, vn)
	if err != nil {
		t.Fatal(err)
	}
	return v.R
}

// TestDeferredCoalescesBurst: N updates hitting the same entry between
// flushes are queued once and recomputed once.
func TestDeferredCoalescesBurst(t *testing.T) {
	db, g, gmr := openDeferredGeometry(t, 12, false)
	c := g.Cuboids[0]

	st := &db.GMRs.Stats
	remat0 := atomic.LoadInt64(&st.Rematerializations)
	// Move three different vertices of the same cuboid: three invalidations
	// per materialized column, all targeting the same two GMR entries.
	for i, vn := range []string{"V1", "V2", "V4"} {
		if err := db.Set(vertexOf(t, db, c, vn), "X", gomdb.Float(float64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.GMRs.PendingLen(); got != 2 {
		t.Fatalf("pending = %d, want 2 (volume and weight of one entry)", got)
	}
	// 3 updates x 2 columns = 6 deferred invalidations; the first per column
	// enqueues, the remaining 2x2 coalesce.
	if got := atomic.LoadInt64(&st.DeferredUpdates); got != 6 {
		t.Fatalf("DeferredUpdates = %d, want 6", got)
	}
	if got := atomic.LoadInt64(&st.CoalescedUpdates); got != 4 {
		t.Fatalf("CoalescedUpdates = %d, want 4", got)
	}
	if got := atomic.LoadInt64(&st.QueueHighWater); got != 2 {
		t.Fatalf("QueueHighWater = %d, want 2", got)
	}
	if gmr.InvalidCount("Cuboid.volume") != 1 || gmr.InvalidCount("Cuboid.weight") != 1 {
		t.Fatalf("expected exactly one invalid entry per column")
	}

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.GMRs.PendingLen(); got != 0 {
		t.Fatalf("pending after flush = %d, want 0", got)
	}
	if got := atomic.LoadInt64(&st.Flushes); got != 1 {
		t.Fatalf("Flushes = %d, want 1", got)
	}
	if got := atomic.LoadInt64(&st.FlushedItems); got != 2 {
		t.Fatalf("FlushedItems = %d, want 2", got)
	}
	// The whole burst cost one recomputation per column.
	if got := atomic.LoadInt64(&st.Rematerializations) - remat0; got != 2 {
		t.Fatalf("Rematerializations = %d, want 2", got)
	}
	rep, err := db.CheckConsistency(gmr.Name, 1e-6, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDeferredForceOnLookup: a forward lookup touching a pending entry
// forces just that entry; the rest of the queue stays for the flush.
func TestDeferredForceOnLookup(t *testing.T) {
	db, g, gmr := openDeferredGeometry(t, 12, false)
	st := &db.GMRs.Stats
	for _, c := range g.Cuboids[:2] {
		if err := db.Set(vertexOf(t, db, c, "V1"), "X", gomdb.Float(21)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.GMRs.PendingLen(); got != 4 {
		t.Fatalf("pending = %d, want 4 (2 entries x 2 columns)", got)
	}
	if _, err := db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[0])); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&st.DeferredForces); got != 1 {
		t.Fatalf("DeferredForces = %d, want 1", got)
	}
	if got := db.GMRs.PendingLen(); got != 3 {
		t.Fatalf("pending after force = %d, want 3", got)
	}
	// A backward query needs the whole column valid: it forces the pending
	// volume of the second cuboid, leaving the two weight items.
	if _, err := db.GMRs.Backward("Cuboid.volume", 0, 1e9); err != nil {
		t.Fatal(err)
	}
	if got := db.GMRs.PendingLen(); got != 2 {
		t.Fatalf("pending after backward = %d, want 2", got)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.GMRs.PendingLen(); got != 0 {
		t.Fatalf("pending after flush = %d, want 0", got)
	}
	rep, err := db.CheckConsistency(gmr.Name, 1e-6, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDeferredSecondChance: under the second-chance variant the RRR tuple of
// the triggering object is retained across the invalidate/flush cycle, so
// repeated updates of the same object coalesce instead of going unnoticed,
// and the flush does not pay the delete/insert pair for objects the
// recomputation still visits.
func TestDeferredSecondChance(t *testing.T) {
	db, g, gmr := openDeferredGeometry(t, 12, true)
	st := &db.GMRs.Stats
	c := g.Cuboids[0]
	v1 := vertexOf(t, db, c, "V1")

	if db.GMRs.RRR().FctCount(v1, "Cuboid.volume") != 1 {
		t.Fatalf("expected one volume RRR tuple for %v before update", v1)
	}
	for i := 0; i < 3; i++ {
		if err := db.Set(v1, "X", gomdb.Float(float64(30+i))); err != nil {
			t.Fatal(err)
		}
	}
	// The tuple survived the invalidation, so the second and third update
	// still found it and coalesced (2 extra updates x 2 columns).
	if got := db.GMRs.RRR().FctCount(v1, "Cuboid.volume"); got != 1 {
		t.Fatalf("volume RRR tuples for %v = %d, want 1 (second chance retains)", v1, got)
	}
	if got := atomic.LoadInt64(&st.CoalescedUpdates); got != 4 {
		t.Fatalf("CoalescedUpdates = %d, want 4", got)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.GMRs.RRR().FctCount(v1, "Cuboid.volume"); got != 1 {
		t.Fatalf("volume RRR tuples for %v after flush = %d, want 1", v1, got)
	}
	rep, err := db.CheckConsistency(gmr.Name, 1e-6, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDeferredBatch: Batch takes the engine lock once, and its end is a
// flush point.
func TestDeferredBatch(t *testing.T) {
	db, g, gmr := openDeferredGeometry(t, 12, false)
	st := &db.GMRs.Stats
	err := db.Batch(func(tx *gomdb.Tx) error {
		for _, c := range g.Cuboids[:4] {
			for _, vn := range []string{"V4", "V5"} {
				v, err := tx.GetAttr(c, vn)
				if err != nil {
					return err
				}
				if err := tx.Set(v.R, "Z", gomdb.Float(3.25)); err != nil {
					return err
				}
			}
		}
		if got := db.GMRs.PendingLen(); got != 8 {
			return fmt.Errorf("pending inside batch = %d, want 8", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.GMRs.PendingLen(); got != 0 {
		t.Fatalf("pending after batch = %d, want 0 (batch end is a flush point)", got)
	}
	if got := atomic.LoadInt64(&st.Flushes); got != 1 {
		t.Fatalf("Flushes = %d, want 1", got)
	}
	// 4 entries x 2 columns x 2 distinct vertices: half coalesced.
	if got := atomic.LoadInt64(&st.CoalescedUpdates); got != 8 {
		t.Fatalf("CoalescedUpdates = %d, want 8", got)
	}
	rep, err := db.CheckConsistency(gmr.Name, 1e-6, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}
