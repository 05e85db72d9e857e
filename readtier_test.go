package gomdb_test

// Tests of the facade's read dispatch: which tier (shared lock, exclusive
// lock, MVCC snapshot) each read-classified method takes in each engine
// state, and what the uncontended tiers allocate.

import (
	"fmt"
	"testing"
	"time"

	"gomdb"
	"gomdb/internal/fixtures"
)

type readTier string

const (
	tierShared    readTier = "shared"    // no publish: StableVersion unchanged
	tierExclusive readTier = "exclusive" // one publish: StableVersion + 1
	tierSnapshot  readTier = "snapshot"  // answered while a batch holds the engine
	tierBlocked   readTier = "blocked"   // no snapshot tier: waits for the batch
)

// readMethod is one read-classified Database method, called on a database
// built by materializedRectangleDB or materializedRectangleDBLazy with 8
// rectangles.
type readMethod struct {
	name string
	call func(db *gomdb.Database, oids []gomdb.OID, gmr string) error
	// setup, when set, adds what call needs to the database and returns
	// the OIDs call is passed instead of the rectangles.
	setup func(t *testing.T, db *gomdb.Database) []gomdb.OID
}

// args runs m's setup on db and returns the OIDs m.call takes.
func (m readMethod) args(t *testing.T, db *gomdb.Database, oids []gomdb.OID) []gomdb.OID {
	if m.setup == nil {
		return oids
	}
	return m.setup(t, db)
}

// distanceDB adds the geometry schema, six cuboids and a complete GMR over
// the two-argument Cuboid.distance to db, and returns the robots.
func distanceDB(t *testing.T, db *gomdb.Database) []gomdb.OID {
	t.Helper()
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize(gomdb.MaterializeOptions{Funcs: []string{"Cuboid.distance"}, Complete: true}); err != nil {
		t.Fatal(err)
	}
	return g.Robots
}

var readMethods = []readMethod{
	{"Query", func(db *gomdb.Database, _ []gomdb.OID, _ string) error {
		_, err := db.Query(`range r: Rectangle retrieve r.Width where r.area >= 4.0 and r.area <= 8.0`, nil)
		return err
	}, nil},
	// The unqualified call is Cuboid.distance, qualified by c's static
	// type, and read-only like every call of it.
	{"Query call", func(db *gomdb.Database, robots []gomdb.OID, _ string) error {
		_, err := db.Query(`range c: Cuboid retrieve c where distance(c, $r) < $d`,
			map[string]gomdb.Value{"r": gomdb.Ref(robots[0]), "d": gomdb.Float(100)})
		return err
	}, distanceDB},
	{"Call", func(db *gomdb.Database, oids []gomdb.OID, _ string) error {
		_, err := db.Call("Rectangle.area", gomdb.Ref(oids[1]))
		return err
	}, nil},
	{"GetAttr", func(db *gomdb.Database, oids []gomdb.OID, _ string) error {
		_, err := db.GetAttr(oids[1], "Width")
		return err
	}, nil},
	{"Retrieve", func(db *gomdb.Database, _ []gomdb.OID, gmr string) error {
		_, err := db.Retrieve(gmr, []gomdb.FieldSpec{gomdb.AnySpec(), gomdb.RangeSpec(0, 100)})
		return err
	}, nil},
	{"Backward", func(db *gomdb.Database, _ []gomdb.OID, _ string) error {
		_, err := db.Backward("Rectangle.area", 0, 100)
		return err
	}, nil},
	{"Sum", func(db *gomdb.Database, _ []gomdb.OID, _ string) error {
		_, err := db.Sum("Rectangle.area", nil)
		return err
	}, nil},
	{"CheckConsistency", func(db *gomdb.Database, _ []gomdb.OID, gmr string) error {
		rep, err := db.CheckConsistency(gmr, 1e-9, true)
		if err == nil {
			err = rep.Err()
		}
		return err
	}, nil},
	{"Extension", func(db *gomdb.Database, _ []gomdb.OID, _ string) error {
		if n := len(db.Extension("Rectangle")); n != 8 {
			return fmt.Errorf("extension has %d members, want 8", n)
		}
		return nil
	}, nil},
}

// holdBatch opens a Batch that holds the engine until the returned function
// is called; that function waits for the batch to end.
func holdBatch(t *testing.T, db *gomdb.Database) (end func()) {
	t.Helper()
	entered := make(chan struct{})
	hold := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- db.Batch(func(*gomdb.Tx) error {
			close(entered)
			<-hold
			return nil
		})
	}()
	<-entered
	return func() {
		close(hold)
		if err := <-done; err != nil {
			t.Fatalf("batch: %v", err)
		}
	}
}

// TestReadTierTable pins the tier each read method takes in three engine
// states: free and quiescent, free with a lazy GMR holding an invalid
// entry, and a Batch holding the engine. The shared tier publishes nothing,
// the exclusive tier publishes exactly once, and the snapshot tier answers
// before the batch ends and leaves no pin behind. Sum has no snapshot tier;
// GetAttr, CheckConsistency and Extension skip the quiescence test.
func TestReadTierTable(t *testing.T) {
	want := map[string][3]readTier{ // quiescent, invalid entry, batch
		"Query":            {tierShared, tierExclusive, tierSnapshot},
		"Query call":       {tierShared, tierExclusive, tierSnapshot},
		"Call":             {tierShared, tierExclusive, tierSnapshot},
		"GetAttr":          {tierShared, tierShared, tierSnapshot},
		"Retrieve":         {tierShared, tierExclusive, tierSnapshot},
		"Backward":         {tierShared, tierExclusive, tierSnapshot},
		"Sum":              {tierShared, tierExclusive, tierBlocked},
		"CheckConsistency": {tierShared, tierShared, tierSnapshot},
		"Extension":        {tierShared, tierShared, tierSnapshot},
	}
	// lockTier tells the shared tier from the exclusive one by the number
	// of publishes the call made.
	lockTier := func(t *testing.T, db *gomdb.Database, oids []gomdb.OID, gmr string, m readMethod) readTier {
		t.Helper()
		before := db.MVCCStats().StableVersion
		if err := m.call(db, oids, gmr); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		switch d := db.MVCCStats().StableVersion - before; d {
		case 0:
			return tierShared
		case 1:
			return tierExclusive
		default:
			t.Fatalf("%s published %d versions", m.name, d)
			return ""
		}
	}

	for _, m := range readMethods {
		t.Run("quiescent/"+m.name, func(t *testing.T) {
			db, oids, gmr := materializedRectangleDB(t, 8)
			if got := lockTier(t, db, m.args(t, db, oids), gmr, m); got != want[m.name][0] {
				t.Fatalf("%s took the %s tier, want %s", m.name, got, want[m.name][0])
			}
		})
		t.Run("invalid/"+m.name, func(t *testing.T) {
			db, oids, gmr := materializedRectangleDBLazy(t, 8)
			// A lazy GMR marks the result invalid and leaves it so: the
			// engine is not quiescent until a read repairs it.
			if err := db.Set(oids[0], "Width", gomdb.Float(10)); err != nil {
				t.Fatal(err)
			}
			if got := lockTier(t, db, m.args(t, db, oids), gmr, m); got != want[m.name][1] {
				t.Fatalf("%s took the %s tier, want %s", m.name, got, want[m.name][1])
			}
		})
		t.Run("batch/"+m.name, func(t *testing.T) {
			db, oids, gmr := materializedRectangleDB(t, 8)
			args := m.args(t, db, oids)
			end := holdBatch(t, db)
			before := db.MVCCStats().StableVersion
			done := make(chan error, 1)
			go func() { done <- m.call(db, args, gmr) }()
			var got readTier
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				got = tierSnapshot
				if st := db.MVCCStats(); st.ActivePins != 0 || st.StableVersion != before {
					t.Fatalf("%s left %d pins and moved the stable version %d → %d",
						m.name, st.ActivePins, before, st.StableVersion)
				}
				end()
			case <-time.After(100 * time.Millisecond):
				got = tierBlocked
				end()
				if err := <-done; err != nil {
					t.Fatalf("%s after the batch: %v", m.name, err)
				}
			}
			if got != want[m.name][2] {
				t.Fatalf("%s took the %s tier, want %s", m.name, got, want[m.name][2])
			}
		})
	}
}

// TestQueryMaterializeTakesBarrier: a GOMql statement that is not read-only
// takes the reader barrier, so it waits for a pinned snapshot to drain; the
// exclusive lock alone would not.
func TestQueryMaterializeTakesBarrier(t *testing.T) {
	db, _, _ := materializedRectangleDB(t, 3)
	view := db.SnapshotView()
	done := make(chan error, 1)
	go func() {
		_, err := db.Query(`range r: Rectangle materialize r.perimeter`, nil)
		done <- err
	}()
	select {
	case err := <-done:
		view.Release()
		t.Fatalf("materialize statement ran while a snapshot was pinned (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	view.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestReadDispatchAllocations pins what the uncontended, quiescent read
// tiers allocate per call, so the dispatcher adds nothing: a closure that
// escaped to the heap would add one allocation per call. The GOMql queries
// box no plan-explanation arguments when nobody reads the explanation.
func TestReadDispatchAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, oids, gmr := materializedRectangleDB(t, 8)
	ref := gomdb.Ref(oids[0])
	window := map[string]gomdb.Value{"lo": gomdb.Float(1), "hi": gomdb.Float(7)}
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Call hit", 0, func() { db.Call("Rectangle.area", ref) }},
		{"GetAttr", 0, func() { db.GetAttr(oids[0], "Width") }},
		{"Backward", 1, func() { db.Backward("Rectangle.area", 2, 6) }},
		{"Extension", 1, func() { db.Extension("Rectangle") }},
		{"Retrieve", 13, func() {
			db.Retrieve(gmr, []gomdb.FieldSpec{gomdb.AnySpec(), gomdb.RangeSpec(2, 6)})
		}},
		{"Sum", 1, func() { db.Sum("Rectangle.area", nil) }},
		{"Query window", 14, func() { db.Query(windowQuery, window) }},
		{"Query scan", 17, func() { db.Query(`range r: Rectangle retrieve r.area`, nil) }},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got != c.want {
			t.Errorf("%s allocates %v times per call, want %v", c.name, got, c.want)
		}
	}
	// A hit inside a batch takes the same borrowed-argument path.
	if err := db.Batch(func(tx *gomdb.Tx) error {
		if got := testing.AllocsPerRun(200, func() { tx.Call("Rectangle.area", ref) }); got != 0 {
			t.Errorf("Tx.Call hit allocates %v times per call, want 0", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// windowQuery is a GOMql window query the backward GMR index answers.
const windowQuery = `range r: Rectangle retrieve r.area where r.area > $lo and r.area < $hi`

// TestWindowQueryAllocationsFlat pins that a GOMql window query allocates
// the same number of times whatever its candidate count: the projection and
// both comparisons of every candidate are forward hits that borrow a stack
// argument, the backward lookup sizes its result once, and the result rows
// are carved from one slab.
func TestWindowQueryAllocationsFlat(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, _, _ := materializedRectangleDB(t, 40) // areas 2, 4, ..., 80
	window := func(lo, hi float64, want int) float64 {
		params := map[string]gomdb.Value{"lo": gomdb.Float(lo), "hi": gomdb.Float(hi)}
		res, err := db.Query(windowQuery, params)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("window (%g, %g) has %d rows, want %d", lo, hi, len(res.Rows), want)
		}
		return testing.AllocsPerRun(100, func() { db.Query(windowQuery, params) })
	}
	one := window(1, 3, 1)
	many := window(1, 47, 23)
	if many != one {
		t.Errorf("a 23-candidate window allocates %v times, a 1-candidate window %v", many, one)
	}
	if one != 14 {
		t.Errorf("a window query allocates %v times, want 14", one)
	}
}
