package gomdb_test

// Race stress for the snapshot read path: unsynchronized reader goroutines
// drive every read surface while one writer updates attributes, runs batches,
// and periodically tears the GMR down and rebuilds it (barrier operations).
// Run under -race this covers the TOCTOU window the snapshot path closed —
// the seed classified Query read-only under the shared lock, dropped it, and
// re-ran under the exclusive lock against state that may have changed in
// between — as well as the capture/reclaim protocol itself.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
)

// materializedRectangleDBLazy is materializedRectangleDB with the lazy
// strategy, so the stress covers invalid-entry rematerialization as well.
func materializedRectangleDBLazy(t *testing.T, n int) (*gomdb.Database, []gomdb.OID, string) {
	t.Helper()
	db := rectangleDB(t)
	for i := 1; i <= n; i++ {
		db.MustNew("Rectangle", gomdb.Float(float64(i)), gomdb.Float(2))
	}
	g, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Rectangle.area"}, Complete: true,
		Strategy: gomdb.Lazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, db.Extension("Rectangle"), g.Name
}

func TestSnapshotReadersRaceWriters(t *testing.T) {
	const n = 8
	db, oids, gmrName := materializedRectangleDBLazy(t, n)

	const writerIters = 150
	var stop atomic.Bool
	errs := make(chan error, 16)
	report := func(err error) {
		if err != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}

	var wg sync.WaitGroup
	// Readers: every surface, no locking discipline of their own. Values are
	// checked for shape (area = Width*Height with Height fixed at 2), not for
	// a particular version — any published version is admissible.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				oid := oids[(r+i)%n]
				switch i % 5 {
				case 0:
					v, err := db.Call("Rectangle.area", gomdb.Ref(oid))
					if err != nil {
						report(fmt.Errorf("reader Call: %w", err))
						return
					}
					if f, _ := v.AsFloat(); f <= 0 || f != float64(int(f)) || int(f)%2 != 0 {
						report(fmt.Errorf("reader Call = %v, not an even positive width*2", v))
						return
					}
				case 1:
					if _, err := db.GetAttr(oid, "Width"); err != nil {
						report(fmt.Errorf("reader GetAttr: %w", err))
						return
					}
				case 2:
					if got := len(db.Extension("Rectangle")); got != n {
						report(fmt.Errorf("reader Extension = %d, want %d", got, n))
						return
					}
				case 3:
					qr, err := db.Query(`range r: Rectangle retrieve r.Width where r.area >= 0.0`, nil)
					if err != nil {
						report(fmt.Errorf("reader Query: %w", err))
						return
					}
					if len(qr.Rows) != n {
						report(fmt.Errorf("reader Query rows = %d, want %d", len(qr.Rows), n))
						return
					}
				case 4:
					// Audits sample the version state without the engine lock.
					db.MVCCStats()
				}
			}
		}(r)
	}

	// Writer: point updates, batches, and periodic dematerialize/materialize
	// pairs so readers race true barrier operations too.
	go func() {
		defer stop.Store(true)
		for i := 0; i < writerIters; i++ {
			oid := oids[i%n]
			switch {
			case i%50 == 49:
				if err := db.Dematerialize(gmrName); err != nil {
					report(fmt.Errorf("writer Dematerialize: %w", err))
					return
				}
				if _, err := db.Materialize(gomdb.MaterializeOptions{
					Funcs: []string{"Rectangle.area"}, Complete: true,
					Strategy: gomdb.Lazy,
				}); err != nil {
					report(fmt.Errorf("writer Materialize: %w", err))
					return
				}
			case i%10 == 9:
				if err := db.Batch(func(tx *gomdb.Tx) error {
					for j := 0; j < 3; j++ {
						w := float64((i+j)%5 + 1)
						if err := tx.Set(oids[(i+j)%n], "Width", gomdb.Float(w)); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					report(fmt.Errorf("writer Batch: %w", err))
					return
				}
			default:
				w := float64(i%5 + 1)
				if err := db.Set(oid, "Width", gomdb.Float(w)); err != nil {
					report(fmt.Errorf("writer Set: %w", err))
					return
				}
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesced: no pins may remain, captures must be reclaimed by the last
	// publish, and the rebuilt GMR must satisfy Definition 3.2.
	st := db.MVCCStats()
	if st.ActivePins != 0 {
		t.Fatalf("%d pins leaked", st.ActivePins)
	}
	if st.PageCaptures != 0 || st.ObjectCaptures != 0 || st.EntryCaptures != 0 {
		t.Fatalf("captures leaked after quiescence: %+v", st)
	}
	rep, err := db.CheckConsistency(gmrName, 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("post-race audit: %v", err)
	}
}

// TestExtensionSnapshotStress races snapshot views' Extension("Cuboid")
// against one writer that creates and deletes cuboids, singly and in
// batches, so the extent's undo log is appended to, replayed and reclaimed
// while readers hold pins. After every write the writer records the stable
// version and the live extension. The Cuboid extension changes only at those
// writes (the vertex creations between them publish too), so a view pinned
// at v must answer exactly the last record at or before v, order included.
// Meant to be run as go test -race -count=10 -run TestExtensionSnapshotStress.
func TestExtensionSnapshotStress(t *testing.T) {
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	type record struct {
		ver uint64
		ext []gomdb.OID
	}
	var mu sync.Mutex // guards records
	records := []record{{db.MVCCStats().StableVersion, db.Extension("Cuboid")}}
	// check compares an answer with the last record at or before its
	// version. Caller holds mu.
	check := func(a record) error {
		k := sort.Search(len(records), func(k int) bool { return records[k].ver > a.ver }) - 1
		if want := records[k]; !slices.Equal(a.ext, want.ext) {
			return fmt.Errorf("view at v%d: Extension = %v, the writer published %v at v%d", a.ver, a.ext, want.ext, want.ver)
		}
		return nil
	}

	var stop atomic.Bool
	var checked atomic.Int64
	// ready holds the writer back until every reader has completed one
	// snapshot read, so the writes cannot all finish before any reader ran.
	var wg, ready sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			markReady := sync.OnceFunc(ready.Done)
			defer markReady()
			// An answer is checked once the writer has recorded a later
			// version: until then the record for its version may be pending.
			var pending []record
			drain := func(final bool) {
				mu.Lock()
				defer mu.Unlock()
				for len(pending) > 0 && (final || records[len(records)-1].ver > pending[0].ver) {
					if err := check(pending[0]); err != nil {
						t.Error(err)
						stop.Store(true)
					}
					pending = pending[1:]
					checked.Add(1)
				}
			}
			for !stop.Load() {
				view := db.SnapshotView()
				pending = append(pending, record{view.Version(), view.Extension("Cuboid")})
				view.Release()
				markReady()
				drain(false)
			}
			drain(true)
		}()
	}
	stopReaders := sync.OnceFunc(func() {
		stop.Store(true)
		wg.Wait()
	})
	defer stopReaders()

	rng := rand.New(rand.NewSource(1))
	live := append([]gomdb.OID(nil), g.Cuboids...)
	pick := func() gomdb.OID {
		i := rng.Intn(len(live))
		oid := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return oid
	}
	v1, err := db.GetAttr(g.Cuboids[0], "V1")
	if err != nil {
		t.Fatal(err)
	}
	ready.Wait()
	for i := 0; i < 300 && !stop.Load(); i++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(live) < 8:
			live = append(live, g.CreateRandomCuboid())
		case r < 8:
			if err := db.Delete(pick()); err != nil {
				t.Fatal(err)
			}
		default:
			// Two deletes and a create in one epoch.
			a, b := pick(), pick()
			if err := db.Batch(func(tx *gomdb.Tx) error {
				if err := tx.Delete(a); err != nil {
					return err
				}
				attrs := []gomdb.Value{v1, v1, v1, v1, v1, v1, v1, v1,
					gomdb.Ref(g.MaterialO[0]), gomdb.Float(1), gomdb.Int(int64(10000 + i))}
				oid, err := tx.New("Cuboid", attrs...)
				if err != nil {
					return err
				}
				live = append(live, oid)
				return tx.Delete(b)
			}); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		records = append(records, record{db.MVCCStats().StableVersion, db.Extension("Cuboid")})
		mu.Unlock()
	}
	stopReaders()
	if checked.Load() == 0 {
		t.Fatal("no snapshot read completed")
	}
	t.Logf("%d snapshot answers checked against %d writes", checked.Load(), len(records)-1)
	// One more publish with no reader pinned reclaims every capture.
	if err := db.Delete(pick()); err != nil {
		t.Fatal(err)
	}
	if st := db.MVCCStats(); st.ActivePins != 0 || st.ObjectCaptures != 0 {
		t.Fatalf("after quiescence: %+v", st)
	}
}

// TestComputedCallsRaceWriter races evaluations of computed functions
// against a writer. Four readers call Cuboid.volume and Cuboid.length, which
// no GMR holds, through db.Call (the shared tier, or the snapshot tier while
// the writer holds the engine) and through snapshot views, so evaluations of
// one compiled body run concurrently, each in its own frame. The writer
// moves vertices of the other cuboids, singly and in batches, until the
// readers are done. Every answer must equal the geometry computed in Go from
// the readers' cuboids, which nothing moves. Meant to be run as
// go test -race -count=10 -run TestComputedCallsRaceWriter.
func TestComputedCallsRaceWriter(t *testing.T) {
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	read, moved := g.Cuboids[:8], g.Cuboids[8:]
	vertex := func(c gomdb.OID, v string) [3]float64 {
		ref, err := db.GetAttr(c, v)
		if err != nil {
			t.Fatal(err)
		}
		var p [3]float64
		for i, a := range vertexCoords {
			x, err := db.GetAttr(ref.R, a)
			if err != nil {
				t.Fatal(err)
			}
			p[i] = x.F
		}
		return p
	}
	// dist is Vertex.dist's arithmetic, operation for operation.
	dist := func(a, b [3]float64) float64 {
		dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	type geometry struct{ length, volume float64 }
	want := make(map[gomdb.OID]geometry, len(read))
	for _, c := range read {
		v1 := vertex(c, "V1")
		l, w, h := dist(v1, vertex(c, "V2")), dist(v1, vertex(c, "V4")), dist(v1, vertex(c, "V5"))
		want[c] = geometry{length: l, volume: l * w * h}
	}

	var stop atomic.Bool // set when the readers are done
	errs := make(chan error, 8)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				c := read[(r+i)%len(read)]
				fn, exp := "Cuboid.volume", want[c].volume
				if i%3 == 2 {
					fn, exp = "Cuboid.length", want[c].length
				}
				var v gomdb.Value
				var err error
				if i%2 == 0 {
					v, err = db.Call(fn, gomdb.Ref(c))
				} else {
					view := db.SnapshotView()
					v, err = view.Call(fn, gomdb.Ref(c))
					view.Release()
				}
				if err != nil {
					report(fmt.Errorf("reader %d: %s(%v): %w", r, fn, c, err))
					return
				}
				if f, ok := v.AsFloat(); !ok || f != exp {
					report(fmt.Errorf("reader %d: %s(%v) = %v, want %v", r, fn, c, v, exp))
					return
				}
			}
		}(r)
	}

	move := func(set func(gomdb.OID, string, gomdb.Value) error, i int) error {
		ref, err := db.GetAttr(moved[i%len(moved)], cuboidVertices[i%8])
		if err != nil {
			return err
		}
		return set(ref.R, vertexCoords[i%3], gomdb.Float(float64(i%13)))
	}
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		for i := 0; !stop.Load(); i++ {
			if i%5 == 4 {
				err := db.Batch(func(tx *gomdb.Tx) error {
					for j := 0; j < 8; j++ {
						if err := move(tx.Set, i+j); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					report(fmt.Errorf("writer batch: %w", err))
					return
				}
				continue
			}
			if err := move(db.Set, i); err != nil {
				report(fmt.Errorf("writer: %w", err))
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-writer
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := db.MVCCStats(); st.ActivePins != 0 {
		t.Fatalf("%d pins leaked", st.ActivePins)
	}
}
