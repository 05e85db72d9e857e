package gomdb_test

// Tests of the MVCC snapshot read path: readers must not stall behind
// writers (the regression the snapshot path retires), snapshots must present
// one consistent version across every read surface, pins must drain, and
// barrier operations must exclude pinned readers.

import (
	"strings"
	"testing"
	"time"

	"gomdb"
)

// materializedRectangleDB is rectangleDB populated with n rectangles
// (Width=i, Height=2) and Rectangle.area materialized complete; it returns
// the database, the extension, and the GMR name.
func materializedRectangleDB(t *testing.T, n int) (*gomdb.Database, []gomdb.OID, string) {
	t.Helper()
	db := rectangleDB(t)
	for i := 1; i <= n; i++ {
		db.MustNew("Rectangle", gomdb.Float(float64(i)), gomdb.Float(2))
	}
	g, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Rectangle.area"}, Complete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, db.Extension("Rectangle"), g.Name
}

// TestReaderDoesNotStallBehindWriter is the tentpole regression: a
// side-effect-free Call arriving while an update batch holds the exclusive
// engine lock must be answered from a snapshot instead of queueing behind
// the writer. Before the MVCC read path this deadlocked until the batch
// finished (the write-preferring RWMutex also stalled every later reader).
func TestReaderDoesNotStallBehindWriter(t *testing.T) {
	db, oids, gmrName := materializedRectangleDB(t, 8)

	entered := make(chan struct{})
	hold := make(chan struct{})
	batchDone := make(chan error, 1)
	go func() {
		batchDone <- db.Batch(func(tx *gomdb.Tx) error {
			close(entered)
			<-hold
			return tx.Set(oids[0], "Width", gomdb.Float(100))
		})
	}()
	<-entered // the batch holds the exclusive lock from here until hold closes

	type res struct {
		v   gomdb.Value
		err error
	}
	callDone := make(chan res, 1)
	go func() {
		v, err := db.Call("Rectangle.area", gomdb.Ref(oids[0]))
		callDone <- res{v, err}
	}()
	select {
	case r := <-callDone:
		if r.err != nil {
			t.Fatalf("snapshot call: %v", r.err)
		}
		if f, _ := r.v.AsFloat(); f != 2 { // pre-batch: Width=1, Height=2
			t.Fatalf("snapshot call = %v, want 2 (pre-batch state)", r.v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader stalled behind the update batch")
	}

	// Query, Retrieve, GetAttr, Extension, CheckConsistency and Backward must
	// all be answerable while the writer still holds the engine.
	qr, err := db.Query(`range r: Rectangle retrieve r.Width where r.area >= 4.0 and r.area <= 8.0`, nil)
	if err != nil {
		t.Fatalf("snapshot query: %v", err)
	}
	if len(qr.Rows) != 3 { // widths 2,3,4
		t.Fatalf("snapshot query rows = %d, want 3", len(qr.Rows))
	}
	if v, err := db.GetAttr(oids[2], "Width"); err != nil {
		t.Fatalf("snapshot GetAttr: %v", err)
	} else if f, _ := v.AsFloat(); f != 3 {
		t.Fatalf("snapshot GetAttr = %v, want 3", v)
	}
	if got := len(db.Extension("Rectangle")); got != 8 {
		t.Fatalf("snapshot Extension = %d, want 8", got)
	}
	rows, err := db.Retrieve(gmrName, []gomdb.FieldSpec{
		gomdb.AnySpec(), gomdb.AnySpec(),
	})
	if err != nil {
		t.Fatalf("snapshot Retrieve: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("snapshot Retrieve rows = %d, want 8", len(rows))
	}
	rep, err := db.CheckConsistency(gmrName, 1e-9, true)
	if err != nil {
		t.Fatalf("snapshot CheckConsistency: %v", err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("snapshot audit: %v", err)
	}
	// Pre-batch areas in [0, 4] are those of widths 1 and 2.
	ms, err := db.Backward("Rectangle.area", 0, 4)
	if err != nil {
		t.Fatalf("snapshot Backward: %v", err)
	}
	if len(ms) != 2 {
		t.Fatalf("snapshot Backward matches = %d, want 2", len(ms))
	}
	if st := db.MVCCStats(); st.ActivePins != 0 {
		t.Fatalf("%d pins leaked by the snapshot reads", st.ActivePins)
	}

	close(hold)
	if err := <-batchDone; err != nil {
		t.Fatalf("batch: %v", err)
	}
	// The batch's update must be visible now, and no pin may remain.
	if v, _ := db.Call("Rectangle.area", gomdb.Ref(oids[0])); v.F != 200 {
		t.Fatalf("post-batch area = %v, want 200", v)
	}
	if st := db.MVCCStats(); st.ActivePins != 0 {
		t.Fatalf("%d pins leaked", st.ActivePins)
	}
}

// TestSnapshotViewConsistency pins an explicit view and verifies every read
// surface answers at the pinned version while the live engine moves on:
// updates, inserts, and deletes after the pin are all invisible.
func TestSnapshotViewConsistency(t *testing.T) {
	db, oids, gmrName := materializedRectangleDB(t, 6)
	view := db.SnapshotView()
	defer view.Release()

	if err := db.Set(oids[0], "Width", gomdb.Float(50)); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(oids[5]); err != nil {
		t.Fatal(err)
	}
	db.MustNew("Rectangle", gomdb.Float(7), gomdb.Float(2))

	// The view still sees the pre-update attribute and materialized result.
	if v, err := view.GetAttr(oids[0], "Width"); err != nil {
		t.Fatal(err)
	} else if f, _ := v.AsFloat(); f != 1 {
		t.Fatalf("view GetAttr = %v, want 1", v)
	}
	if v, err := view.Call("Rectangle.area", gomdb.Ref(oids[0])); err != nil {
		t.Fatal(err)
	} else if f, _ := v.AsFloat(); f != 2 {
		t.Fatalf("view area = %v, want 2", v)
	}
	// The deleted object is still readable at the pinned version; the
	// object created after the pin is invisible.
	if v, err := view.GetAttr(oids[5], "Width"); err != nil {
		t.Fatalf("view read of deleted object: %v", err)
	} else if f, _ := v.AsFloat(); f != 6 {
		t.Fatalf("view GetAttr(deleted) = %v, want 6", v)
	}
	if got := len(view.Extension("Rectangle")); got != 6 {
		t.Fatalf("view Extension = %d, want 6", got)
	}
	if got := len(db.Extension("Rectangle")); got != 6 { // 6 - 1 deleted + 1 new
		t.Fatalf("live Extension = %d, want 6", got)
	}
	// Query and Retrieve at the pinned version.
	qr, err := view.Query(`range r: Rectangle retrieve r.Width where r.area >= 2.0 and r.area <= 4.0`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 2 { // widths 1 and 2 at the pinned version
		t.Fatalf("view query rows = %d, want 2: %v", len(qr.Rows), qr.Rows)
	}
	rows, err := view.Retrieve(gmrName, []gomdb.FieldSpec{
		gomdb.AnySpec(), gomdb.RangeSpec(0, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("view retrieve rows = %d, want 2", len(rows))
	}
	// Definition 3.2 congruence at the pinned version: stored results must
	// match recomputation against the pinned object base even though the
	// live base has diverged.
	rep, err := view.CheckConsistency(gmrName, 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("view audit: %v", err)
	}
	// Live state reflects every post-pin change.
	if v, _ := db.GetAttr(oids[0], "Width"); v.F != 50 {
		t.Fatalf("live GetAttr = %v, want 50", v)
	}

	// A view refuses work it cannot answer read-only.
	if _, err := view.Query(`range r: Rectangle materialize r.perimeter`, nil); err == nil {
		t.Fatal("view accepted a materialize statement")
	}

	view.Release()
	if st := db.MVCCStats(); st.ActivePins != 0 {
		t.Fatalf("%d pins active after release", st.ActivePins)
	}
}

// TestSnapshotSeesInvalidEntriesRecomputed pins a view while a lazy GMR
// holds invalid entries; the snapshot must recompute them against the pinned
// object base rather than exposing stale results or repairing live state.
func TestSnapshotSeesInvalidEntriesRecomputed(t *testing.T) {
	db := rectangleDB(t)
	for i := 1; i <= 4; i++ {
		db.MustNew("Rectangle", gomdb.Float(float64(i)), gomdb.Float(2))
	}
	oids := db.Extension("Rectangle")
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Rectangle.area"}, Complete: true, Strategy: gomdb.Lazy,
	}); err != nil {
		t.Fatal(err)
	}
	// Invalidate entry 0 (lazy: marked, not recomputed), then pin.
	if err := db.Set(oids[0], "Width", gomdb.Float(10)); err != nil {
		t.Fatal(err)
	}
	view := db.SnapshotView()
	defer view.Release()
	// Move the live base past the pin.
	if err := db.Set(oids[0], "Width", gomdb.Float(30)); err != nil {
		t.Fatal(err)
	}
	// The snapshot recomputes the invalid entry at the pinned version.
	if v, err := view.Call("Rectangle.area", gomdb.Ref(oids[0])); err != nil {
		t.Fatal(err)
	} else if f, _ := v.AsFloat(); f != 20 {
		t.Fatalf("view area = %v, want 20 (pinned Width=10)", v)
	}
	// The live engine was not repaired by the snapshot read: forcing the
	// entry now must yield the live value.
	if v, err := db.Call("Rectangle.area", gomdb.Ref(oids[0])); err != nil {
		t.Fatal(err)
	} else if f, _ := v.AsFloat(); f != 60 {
		t.Fatalf("live area = %v, want 60", v)
	}
}

// TestBarrierExcludesPinnedReaders verifies the operations the capture
// protocol cannot version wait for pinned readers to drain.
func TestBarrierExcludesPinnedReaders(t *testing.T) {
	db, _, gmrName := materializedRectangleDB(t, 3)
	view := db.SnapshotView()
	done := make(chan error, 1)
	go func() { done <- db.Dematerialize(gmrName) }()
	select {
	case <-done:
		t.Fatal("Dematerialize completed while a snapshot pin was held")
	case <-time.After(50 * time.Millisecond):
	}
	view.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// After the barrier drains, captures must be fully reclaimed.
	st := db.MVCCStats()
	if st.ActivePins != 0 {
		t.Fatalf("%d pins active", st.ActivePins)
	}
	if st.PageCaptures != 0 || st.ObjectCaptures != 0 || st.EntryCaptures != 0 {
		t.Fatalf("captures leaked after barrier: %+v", st)
	}
}

// TestSnapshotBackwardTieOrder: a snapshot Backward returns ties in the
// order the live index scan does. Entries valid at the version keep their
// index order (the one rematerialized last comes last); results invalid at
// the version, which the live path would revalidate and re-index in
// argument-key order, come after them.
func TestSnapshotBackwardTieOrder(t *testing.T) {
	check := func(t *testing.T, db *gomdb.Database, lb, ub float64) {
		t.Helper()
		end := holdBatch(t, db)
		snap, err := db.Backward("Rectangle.area", lb, ub)
		end()
		if err != nil {
			t.Fatal(err)
		}
		live, err := db.Backward("Rectangle.area", lb, ub)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != len(live) {
			t.Fatalf("snapshot has %d matches, live %d", len(snap), len(live))
		}
		for i := range live {
			if snap[i].Args[0].R != live[i].Args[0].R {
				t.Fatalf("match %d: snapshot %v, live %v", i, snap[i].Args[0], live[i].Args[0])
			}
		}
	}
	t.Run("valid", func(t *testing.T) {
		db, oids, _ := materializedRectangleDB(t, 3)
		// Rectangle 0 now ties rectangle 1 at area 4 and was re-indexed last.
		if err := db.Set(oids[0], "Width", gomdb.Float(2)); err != nil {
			t.Fatal(err)
		}
		check(t, db, 4, 4)
	})
	t.Run("recomputed", func(t *testing.T) {
		db, oids, _ := materializedRectangleDBLazy(t, 4)
		// Rectangles 0 and 2 tie rectangle 1 at area 4 but are invalid.
		for _, i := range []int{2, 0} {
			if err := db.Set(oids[i], "Width", gomdb.Float(2)); err != nil {
				t.Fatal(err)
			}
		}
		check(t, db, 4, 4)
	})
}

// TestSnapshotQueryReportsLoweringError: a statement that breaks GOMql's
// static rules fails with its lowering error through SnapshotView.Query, as
// it does through Database.Query, not as a statement that is not read-only.
func TestSnapshotQueryReportsLoweringError(t *testing.T) {
	db, _, _ := materializedRectangleDB(t, 4)
	const src = `range r: Rectangle retrieve r.nope`
	_, dbErr := db.Query(src, nil)
	view := db.SnapshotView()
	defer view.Release()
	_, viewErr := view.Query(src, nil)
	if dbErr == nil || viewErr == nil {
		t.Fatalf("Database.Query error %v, SnapshotView.Query error %v; want both to fail", dbErr, viewErr)
	}
	if dbErr.Error() != viewErr.Error() {
		t.Errorf("SnapshotView.Query fails with %q, Database.Query with %q", viewErr, dbErr)
	}
	if !strings.Contains(viewErr.Error(), `"nope"`) {
		t.Errorf("error %q does not name the unknown step", viewErr)
	}
}
