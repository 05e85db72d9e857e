package gomdb_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
)

// TestEntryCapturesRecycledRaceWriter races snapshot views against one
// writer that rematerializes Gvol entries, so GMR entry pre-images are
// captured, reclaimed and their columns recycled into later captures while
// readers hold pins. The writer moves the vertices volume reads, singly and
// in batches, and after every write records the stable version and every
// cuboid's volume computed in Go. Readers hold each view across several of
// the writer's epochs and read it through Call, Retrieve and a backward
// query; every answer must equal the volumes the writer published up to the
// view's Version(). A capture recycled while a pin can still reach it would
// hand a reader another entry's or a later epoch's columns. Meant to be run
// as go test -race -count=10 -run TestEntryCapturesRecycledRaceWriter.
func TestEntryCapturesRecycledRaceWriter(t *testing.T) {
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Name: "Gvol", Funcs: []string{"Cuboid.volume"}, Complete: true,
		Mode: gomdb.ModeObjDep, Strategy: gomdb.Immediate,
	}); err != nil {
		t.Fatal(err)
	}
	cuboids := g.Cuboids
	index := make(map[gomdb.OID]int, len(cuboids))
	// corners[c] are the vertices V1, V2, V4, V5 of cuboid c, which volume
	// reads, and pos their coordinates as the writer last set them.
	corners := make([][4]gomdb.OID, len(cuboids))
	pos := make(map[gomdb.OID][3]float64)
	for c, oid := range cuboids {
		index[oid] = c
		for k, v := range [4]string{"V1", "V2", "V4", "V5"} {
			ref, err := db.GetAttr(oid, v)
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
			corners[c][k], pos[ref.R] = ref.R, p
		}
	}
	// volume is Cuboid.volume's arithmetic, operation for operation.
	dist := func(a, b [3]float64) float64 {
		dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	volumes := func() []float64 {
		out := make([]float64, len(cuboids))
		for c, vs := range corners {
			v1 := pos[vs[0]]
			out[c] = dist(v1, pos[vs[1]]) * dist(v1, pos[vs[2]]) * dist(v1, pos[vs[3]])
		}
		return out
	}
	type record struct {
		ver  uint64
		vols []float64
	}
	var mu sync.Mutex // guards records
	records := []record{{db.MVCCStats().StableVersion, volumes()}}
	var done atomic.Bool
	// published waits until the writer has recorded version ver (or has
	// stopped) and returns the volumes it published at ver.
	published := func(ver uint64) ([]float64, error) {
		for {
			mu.Lock()
			k := sort.Search(len(records), func(k int) bool { return records[k].ver >= ver })
			if k < len(records) && records[k].ver == ver {
				vols := records[k].vols
				mu.Unlock()
				return vols, nil
			}
			last := records[len(records)-1].ver
			mu.Unlock()
			if last > ver || done.Load() {
				return nil, fmt.Errorf("no write published version %d", ver)
			}
			runtime.Gosched()
		}
	}

	const lo, hi = 100.0, 400.0
	spec := make([]gomdb.FieldSpec, 2)
	params := map[string]gomdb.Value{"lo": gomdb.Float(lo), "hi": gomdb.Float(hi)}
	const window = `range c: Cuboid retrieve c where c.volume >= $lo and c.volume <= $hi`
	// read answers every cuboid's volume, and the cuboids in [lo, hi],
	// through the view's three surfaces.
	read := func(view *gomdb.SnapshotView, round int) (calls, rows []float64, in []int, err error) {
		calls = make([]float64, len(cuboids))
		for c, oid := range cuboids {
			v, err := view.Call("Cuboid.volume", gomdb.Ref(oid))
			if err != nil {
				return nil, nil, nil, err
			}
			calls[c] = v.F
			if c%4 == round%4 {
				runtime.Gosched()
			}
		}
		rs, err := view.Retrieve("Gvol", spec)
		if err != nil {
			return nil, nil, nil, err
		}
		rows = make([]float64, len(cuboids))
		for _, r := range rs {
			if !r.Valid[0] {
				return nil, nil, nil, fmt.Errorf("Retrieve: %v invalid", r.Args)
			}
			rows[index[r.Args[0].R]] = r.Results[0].F
		}
		if len(rs) != len(cuboids) {
			return nil, nil, nil, fmt.Errorf("Retrieve: %d rows, want %d", len(rs), len(cuboids))
		}
		qr, err := view.Query(window, params)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, row := range qr.Rows {
			in = append(in, index[row[0].R])
		}
		slices.Sort(in)
		return calls, rows, in, nil
	}

	var stop atomic.Bool
	var checked atomic.Int64
	errs := make(chan error, 4)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
		stop.Store(true)
	}
	var wg, ready sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		ready.Add(1)
		go func(r int) {
			defer wg.Done()
			markReady := sync.OnceFunc(ready.Done)
			defer markReady()
			for i := 0; !stop.Load(); i++ {
				view := db.SnapshotView()
				ver := view.Version()
				// Three rounds on one pin, so the writer publishes, reclaims
				// and captures again while the view still reads.
				for round := 0; round < 3 && !stop.Load(); round++ {
					calls, rows, in, err := read(view, r+round)
					if err != nil {
						view.Release()
						report(fmt.Errorf("reader %d at v%d: %w", r, ver, err))
						return
					}
					want, err := published(ver)
					if err != nil {
						view.Release()
						report(fmt.Errorf("reader %d: %w", r, err))
						return
					}
					var wantIn []int
					for c, v := range want {
						if v >= lo && v <= hi {
							wantIn = append(wantIn, c)
						}
					}
					switch {
					case !slices.Equal(calls, want):
						err = fmt.Errorf("Call answers %v, the writer published %v", calls, want)
					case !slices.Equal(rows, want):
						err = fmt.Errorf("Retrieve answers %v, the writer published %v", rows, want)
					case !slices.Equal(in, wantIn):
						err = fmt.Errorf("the backward query answers cuboids %v, the writer published %v in [%v, %v]", in, wantIn, lo, hi)
					}
					if err != nil {
						view.Release()
						report(fmt.Errorf("reader %d at v%d round %d: %w", r, ver, round, err))
						return
					}
					checked.Add(1)
				}
				view.Release()
				markReady()
			}
		}(r)
	}

	// Writer: moves of one vertex volume reads, and batches of four moves
	// over different cuboids published as one version.
	move := func(set func(gomdb.OID, string, gomdb.Value) error, i int) error {
		c := (i * 5) % len(cuboids)
		v := corners[c][1+i%3]
		p := pos[v]
		p[i%3] += float64(i%7) - 3
		if err := set(v, vertexCoords[i%3], gomdb.Float(p[i%3])); err != nil {
			return err
		}
		pos[v] = p
		return nil
	}
	ready.Wait()
	backward := db.GMRs.Stats.BackwardQueries
	for i := 0; i < 300 && !stop.Load(); i++ {
		var err error
		if i%4 == 3 {
			err = db.Batch(func(tx *gomdb.Tx) error {
				for j := 0; j < 4; j++ {
					if err := move(tx.Set, i*4+j); err != nil {
						return err
					}
				}
				return nil
			})
		} else {
			err = move(db.Set, i)
		}
		if err != nil {
			report(fmt.Errorf("writer: %w", err))
			break
		}
		mu.Lock()
		records = append(records, record{db.MVCCStats().StableVersion, volumes()})
		mu.Unlock()
	}
	done.Store(true)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if checked.Load() == 0 {
		t.Fatal("no snapshot read was checked")
	}
	t.Logf("%d snapshot reads checked against %d writes", checked.Load(), len(records)-1)
	// The views' window query takes the plan the live one takes, a
	// backward retrieval. One more publish with no reader pinned reclaims
	// every capture.
	if _, err := db.Query(window, params); err != nil {
		t.Fatal(err)
	}
	if db.GMRs.Stats.BackwardQueries == backward {
		t.Fatal("the window query is not answered by a backward retrieval")
	}
	if err := move(db.Set, 1); err != nil {
		t.Fatal(err)
	}
	if st := db.MVCCStats(); st.ActivePins != 0 || st.EntryCaptures != 0 {
		t.Fatalf("after quiescence: %+v", st)
	}
	consistent(t, db, "Gvol")
}
