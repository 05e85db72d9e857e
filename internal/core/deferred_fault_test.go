package core_test

// Error paths of the deferred drain: a recomputation failing mid-Flush must
// leave the pending queue consistent (applied items retired, unapplied items
// still queued), keep the GMR forceable once the fault clears, and keep the
// flush statistics accurate.

import (
	"errors"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/storage"
)

// deferredWithPending builds a deferred Cuboid.volume GMR over n cuboids and
// invalidates every entry by scaling each cuboid once, so PendingLen() == n.
// The tiny buffer pool forces physical reads during phase-2 trace replay.
func deferredWithPending(t *testing.T, n int) (*gomdb.Database, *fixtures.Geometry, *gomdb.GMR) {
	t.Helper()
	cfg := gomdb.DefaultConfig()
	cfg.BufferPages = 4
	db := gomdb.Open(cfg)
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Cuboid.volume"}, Complete: true,
		Strategy: gomdb.Deferred, Mode: gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Cuboids {
		s := fixtures.NewVertex(db, 1.5, 1.0, 1.0)
		if _, err := db.Call("Cuboid.scale", gomdb.Ref(c), gomdb.Ref(s)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.GMRs.PendingLen(); got != n {
		t.Fatalf("expected %d pending recomputations, got %d", n, got)
	}
	return db, g, gmr
}

func TestDeferredFlushFaultMidDrain(t *testing.T) {
	const n = 20
	db, g, gmr := deferredWithPending(t, n)

	// The drain reads the objects heap through the charged path, so a
	// persistent read fault on "objects" fails it partway through.
	db.Disk.SetFaultPlan(storage.FaultPlan{Rules: []storage.FaultRule{
		{Op: storage.FaultRead, File: "objects", After: 3},
	}})
	err := db.Flush()
	if err == nil {
		t.Fatal("flush succeeded on a failing disk")
	}
	if !errors.Is(err, gomdb.ErrInjectedFault) {
		t.Fatalf("flush error does not wrap ErrInjectedFault: %v", err)
	}

	// The queue must stay consistent: every item is either revalidated
	// (setResult ran, retiring it from the queue) or still pending — nothing
	// lost, nothing duplicated. Revalidations are counted by
	// Stats.Rematerializations (the initial populate contributed n). Note
	// the item the fault interrupted can be "half applied": its result was
	// stored and its pending entry retired, but the RRR refresh after it
	// (which under ModeObjDep reads the object to maintain the ObjDepFct
	// marking) errored before FlushedItems was counted.
	revalidated := int(db.GMRs.Stats.Rematerializations) - n
	applied := int(db.GMRs.Stats.FlushedItems)
	remaining := db.GMRs.PendingLen()
	if revalidated+remaining != n {
		t.Fatalf("queue inconsistent after failed flush: %d revalidated + %d pending != %d",
			revalidated, remaining, n)
	}
	halfApplied := revalidated - applied
	if halfApplied < 0 || halfApplied > 1 {
		t.Fatalf("%d items counted flushed but %d revalidated: at most the interrupted item may differ",
			applied, revalidated)
	}
	if remaining == 0 {
		t.Fatal("fault fired but every item was applied; drain was not interrupted")
	}
	if flushes := db.GMRs.Stats.Flushes; flushes != 1 {
		t.Fatalf("Stats.Flushes = %d after one (failed) flush, want 1", flushes)
	}

	// Once the fault clears, a second flush drains the remainder and the GMR
	// is fully forceable and congruent again.
	db.Disk.ClearFaults()
	if err := db.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if got := db.GMRs.PendingLen(); got != 0 {
		t.Fatalf("%d items still pending after recovery flush", got)
	}
	// Each of the n invalidated entries was recomputed exactly once across
	// the two flushes — coalescing bookkeeping survived the interruption.
	if got := int(db.GMRs.Stats.Rematerializations); got != 2*n {
		t.Fatalf("Stats.Rematerializations = %d, want %d (populate %d + one recompute per entry)",
			got, 2*n, n)
	}
	if got := int(db.GMRs.Stats.FlushedItems); got != n-halfApplied {
		t.Fatalf("Stats.FlushedItems = %d, want %d", got, n-halfApplied)
	}
	if got := db.GMRs.Stats.Flushes; got != 2 {
		t.Fatalf("Stats.Flushes = %d, want 2", got)
	}
	rep, err := db.CheckConsistency(gmr.Name, 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("GMR inconsistent after recovery: %v", err)
	}
	// Forward force through the public path agrees with a fresh evaluation.
	c := g.Cuboids[0]
	v, err := db.Call("Cuboid.volume", gomdb.Ref(c))
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := db.Schema.LookupFunction("Cuboid.volume")
	fresh, err := db.Engine.EvalRaw(fn, []gomdb.Value{gomdb.Ref(c)})
	if err != nil {
		t.Fatal(err)
	}
	if !valuesClose(v, fresh) {
		t.Fatalf("post-recovery GMR answer %v differs from recomputation %v", v, fresh)
	}
}

// TestDeferredAbortedInvalidationDrains: an update whose deferred
// invalidation fails in markInvalid's write-through leaves the result
// invalid; the invalid result is pending, so the next flush recomputes it.
func TestDeferredAbortedInvalidationDrains(t *testing.T) {
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Cuboid.volume"}, Complete: true,
		Strategy: gomdb.Deferred, Mode: gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Disk.SetFaultPlan(storage.FaultPlan{Rules: []storage.FaultRule{
		{Op: storage.FaultWrite, File: "GMR:"},
	}})
	if err := db.Set(vertexOf(t, db, g.Cuboids[0], "V1"), "X", gomdb.Float(40)); err == nil {
		t.Fatal("update succeeded although the GMR write-through fails")
	}
	db.Disk.ClearFaults()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := gmr.InvalidCount("Cuboid.volume"); n != 0 {
		t.Fatalf("%d invalid results left after flush", n)
	}
	if n := db.GMRs.PendingLen(); n != 0 {
		t.Fatalf("PendingLen = %d after flush", n)
	}
	if !db.GMRs.Quiescent() {
		t.Fatal("manager not quiescent after flush")
	}
}

// TestDeferredFlushFaultThenForce: after a failed drain, individual forward
// forces (which recompute one entry under full charging) must still work on
// the entries left pending, retiring them from the queue one by one.
func TestDeferredFlushFaultThenForce(t *testing.T) {
	const n = 12
	db, g, _ := deferredWithPending(t, n)

	db.Disk.SetFaultPlan(storage.FaultPlan{Rules: []storage.FaultRule{
		{Op: storage.FaultRead, File: "objects", After: 0},
	}})
	if err := db.Flush(); err == nil {
		t.Fatal("flush succeeded on a failing disk")
	}
	db.Disk.ClearFaults()

	before := db.GMRs.PendingLen()
	if before == 0 {
		t.Fatal("no items left pending after interrupted drain")
	}
	// Force every cuboid's volume through the normal lookup path; each force
	// of an invalidated entry must retire its pending item.
	for _, c := range g.Cuboids {
		if _, err := db.Call("Cuboid.volume", gomdb.Ref(c)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.GMRs.PendingLen(); got != 0 {
		t.Fatalf("%d pending items survived forcing every entry", got)
	}
	// A final flush finds no work and must not inflate the statistics.
	flushes := db.GMRs.Stats.Flushes
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.GMRs.Stats.Flushes; got != flushes {
		t.Fatalf("empty flush counted as work: Flushes %d -> %d", flushes, got)
	}
}
