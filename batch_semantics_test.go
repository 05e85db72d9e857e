package gomdb_test

// Semantics of Batch when the callback errors: an error-only callback must
// leave no trace (no GMR maintenance event, no counter moved, nothing queued),
// while a callback that mutated before erroring still gets its flush point —
// applied updates must not leave the deferred queue stale across an unlocked
// window — and the callback's error takes precedence over the flush's.

import (
	"errors"
	"fmt"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/storage"
)

var errCallback = errors.New("callback failed")

func batchFixture(t *testing.T, n int) (*gomdb.Database, *fixtures.Geometry, *gomdb.GMR) {
	t.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, n, 23)
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
	return db, g, gmr
}

// watchGMRs starts recording the GMR manager's maintenance activity: every
// trace event and the Invalidations/Rematerializations counters. The
// returned function stops the recording and describes what happened, or
// returns "" when no GMR state was touched. Single-goroutine use only.
func watchGMRs(db *gomdb.Database) func() string {
	var events []string
	db.SetTrace(func(e gomdb.TraceEvent) { events = append(events, e.String()) })
	st0 := db.GMRs.Stats
	return func() string {
		db.SetTrace(nil)
		st := db.GMRs.Stats
		inv := st.Invalidations - st0.Invalidations
		remat := st.Rematerializations - st0.Rematerializations
		if len(events) == 0 && inv == 0 && remat == 0 {
			return ""
		}
		return fmt.Sprintf("%d invalidations, %d rematerializations, events %q", inv, remat, events)
	}
}

// TestBatchErrorOnlyCallback: a batch whose callback fails without mutating
// anything is a true no-op — no maintenance event, no counter moved, nothing
// pending, GMR answers unchanged.
func TestBatchErrorOnlyCallback(t *testing.T) {
	db, g, gmr := batchFixture(t, 10)

	c := g.Cuboids[0]
	before, err := db.Call("Cuboid.volume", gomdb.Ref(c))
	if err != nil {
		t.Fatal(err)
	}
	stored := gmr.Len()

	watch := watchGMRs(db)
	if err := db.Batch(func(tx *gomdb.Tx) error {
		return errCallback
	}); !errors.Is(err, errCallback) {
		t.Fatalf("Batch returned %v, want the callback error", err)
	}

	if got := watch(); got != "" {
		t.Fatalf("mutation-free batch touched GMR state: %s", got)
	}
	if got := db.GMRs.PendingLen(); got != 0 {
		t.Fatalf("%d recomputations queued by a mutation-free batch", got)
	}
	if got := gmr.Len(); got != stored {
		t.Fatalf("GMR size changed %d -> %d", stored, got)
	}
	after, err := db.Call("Cuboid.volume", gomdb.Ref(c))
	if err != nil {
		t.Fatal(err)
	}
	if after.F != before.F {
		t.Fatalf("volume changed %v -> %v across a failed empty batch", before, after)
	}
}

// TestBatchMutateThenError: updates applied before the callback's error are
// NOT rolled back (Batch is a flush point, not a transaction), so the flush
// still runs: the deferred queue is empty on return, the GMR is congruent
// with the mutated objects, and the callback's error wins. The no-op probe
// of TestBatchErrorOnlyCallback must fire here, so it is known to have teeth.
func TestBatchMutateThenError(t *testing.T) {
	db, g, gmr := batchFixture(t, 10)

	c := g.Cuboids[0]
	before, err := db.Call("Cuboid.volume", gomdb.Ref(c))
	if err != nil {
		t.Fatal(err)
	}

	watch := watchGMRs(db)
	err = db.Batch(func(tx *gomdb.Tx) error {
		s, err := tx.New("Vertex", gomdb.Float(2.0), gomdb.Float(1.0), gomdb.Float(1.0))
		if err != nil {
			return err
		}
		if _, err := tx.Call("Cuboid.scale", gomdb.Ref(c), gomdb.Ref(s)); err != nil {
			return err
		}
		return errCallback
	})
	if !errors.Is(err, errCallback) {
		t.Fatalf("Batch returned %v, want the callback error", err)
	}

	if got := watch(); got == "" {
		t.Fatal("no GMR maintenance recorded although the batch mutated an object")
	}
	if got := db.GMRs.PendingLen(); got != 0 {
		t.Fatalf("%d recomputations still pending: the flush point did not run", got)
	}
	after, err := db.Call("Cuboid.volume", gomdb.Ref(c))
	if err != nil {
		t.Fatal(err)
	}
	if after.F == before.F {
		t.Fatal("scale applied inside the failed batch is not visible")
	}
	rep, err := db.CheckConsistency(gmr.Name, 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("GMR inconsistent after failed batch: %v", err)
	}
}

// TestBatchFlushErrorSurfaces: when the callback succeeds but the flush at
// the batch boundary fails (injected disk fault), Batch returns the flush
// error; when both fail, the callback's error takes precedence.
func TestBatchFlushErrorSurfaces(t *testing.T) {
	cfg := gomdb.DefaultConfig()
	cfg.BufferPages = 4 // force physical reads so the fault fires in the drain
	db := gomdb.Open(cfg)
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 10, 23)
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

	scaleAll := func(tx *gomdb.Tx) error {
		for _, c := range g.Cuboids {
			s, err := tx.New("Vertex", gomdb.Float(1.1), gomdb.Float(1.0), gomdb.Float(1.0))
			if err != nil {
				return err
			}
			if _, err := tx.Call("Cuboid.scale", gomdb.Ref(c), gomdb.Ref(s)); err != nil {
				return err
			}
		}
		return nil
	}

	// Arm the fault inside the callback, after the mutations, so the first
	// charged read it can hit is the flush's phase-2 drain.
	armFault := func() {
		db.Disk.SetFaultPlan(storage.FaultPlan{Rules: []storage.FaultRule{
			{Op: storage.FaultRead, File: "objects", After: 0},
		}})
	}
	err = db.Batch(func(tx *gomdb.Tx) error {
		if err := scaleAll(tx); err != nil {
			return err
		}
		armFault()
		return nil
	})
	if err == nil {
		t.Fatal("Batch succeeded although its flush point hit a failing disk")
	}
	if !errors.Is(err, gomdb.ErrInjectedFault) {
		t.Fatalf("Batch error does not wrap ErrInjectedFault: %v", err)
	}
	db.Disk.ClearFaults()

	// Callback error outranks the flush error.
	err = db.Batch(func(tx *gomdb.Tx) error {
		if err := scaleAll(tx); err != nil {
			return err
		}
		armFault()
		return errCallback
	})
	if !errors.Is(err, errCallback) {
		t.Fatalf("Batch returned %v, want the callback error to take precedence", err)
	}

	// Recovery: clear the fault, flush, and the engine is congruent again.
	db.Disk.ClearFaults()
	if err := db.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	rep, err := db.CheckConsistency(gmr.Name, 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := rep.Err(); cerr != nil {
		t.Fatalf("GMR inconsistent after recovery: %v", cerr)
	}
}
