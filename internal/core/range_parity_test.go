package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gomdb"
	"gomdb/internal/core"
	"gomdb/internal/fixtures"
)

// parityWorld is one database of the charge-parity pair.
type parityWorld struct {
	db  *gomdb.Database
	geo *fixtures.Geometry
	gmr *gomdb.GMR
}

func newParityWorld(t *testing.T, frames int, useMDS bool) parityWorld {
	t.Helper()
	db := gomdb.Open(gomdb.Config{BufferPages: frames})
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	geo, err := fixtures.PopulateGeometry(db, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Name:     "Gvw",
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
		Strategy: gomdb.Lazy,
		Mode:     gomdb.ModeObjDep,
		UseMDS:   useMDS,
	})
	if err != nil {
		t.Fatal(err)
	}
	return parityWorld{db: db, geo: geo, gmr: gmr}
}

// TestRangeReadChargeParity runs one random sequence of Backward,
// BackwardAny, All, Retrieve and GOMql window queries, interleaved with
// coordinate updates (lazy invalidations the range reads then repay) and
// attribute-read sweeps that push the GMR's pages out, through the per-row
// oracle (rowloop_oracle_test.go) on one database and through the engine on
// a twin. A 150-frame pool misses and writes dirty pages back on eviction;
// a 16 384-frame pool holds everything. After every step the two must
// return the same rows in the same order and agree on the simulated clock,
// the pool's hits and misses and its replacement order — so one logical
// record read is charged as one Pin/Unpin pair however it is implemented
// (DESIGN.md, "Record path").
func TestRangeReadChargeParity(t *testing.T) {
	const window = `range c: Cuboid retrieve c.volume where c.volume > $lo and c.volume < $hi`
	for _, frames := range []int{150, 16384} {
		for _, useMDS := range []bool{false, true} {
			t.Run(fmt.Sprintf("frames=%d/mds=%v", frames, useMDS), func(t *testing.T) {
				ref, got := newParityWorld(t, frames, useMDS), newParityWorld(t, frames, useMDS)
				rng := rand.New(rand.NewSource(int64(frames) + 7))
				var runs, touched int
				check := func(step int, what string, a, b any) {
					t.Helper()
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("step %d %s: answers differ:\n engine %v\n oracle %v", step, what, a, b)
					}
					if ca, cb := got.db.Clock.Snapshot(), ref.db.Clock.Snapshot(); ca != cb {
						t.Fatalf("step %d %s: clock %+v, oracle %+v", step, what, ca, cb)
					}
					gh, gm := got.db.Pool.HitStats()
					rh, rm := ref.db.Pool.HitStats()
					if gh != rh || gm != rm {
						t.Fatalf("step %d %s: hits/misses %d/%d, oracle %d/%d", step, what, gh, gm, rh, rm)
					}
					if ga, ra := got.db.Pool.RecencyOrder(), ref.db.Pool.RecencyOrder(); !reflect.DeepEqual(ga, ra) {
						t.Fatalf("step %d %s: replacement order differs", step, what)
					}
				}
				check(-1, "setup", nil, nil)
				start := ref.db.Clock.Snapshot()
				for step := 0; step < 60; step++ {
					lo := rng.Float64() * 400
					hi := lo + 5 + rng.Float64()*30
					switch op := rng.Intn(7); op {
					case 0: // lazy invalidations: move a vertex of a few cuboids
						for k := 0; k < 5; k++ {
							c := rng.Intn(len(ref.geo.Cuboids))
							x := float64(rng.Intn(20))
							for _, w := range []parityWorld{ref, got} {
								v, err := w.db.GetAttr(w.geo.Cuboids[c], "V2")
								if err != nil {
									t.Fatal(err)
								}
								if err := w.db.Set(v.R, "X", gomdb.Float(x)); err != nil {
									t.Fatal(err)
								}
							}
						}
						check(step, "update", nil, nil)
					case 1: // sweep: read vertex coordinates of many cuboids
						start := rng.Intn(len(ref.geo.Cuboids))
						for _, w := range []parityWorld{ref, got} {
							for k := 0; k < 300; k++ {
								c := w.geo.Cuboids[(start+k)%len(w.geo.Cuboids)]
								if _, err := w.db.GetAttr(c, "V5"); err != nil {
									t.Fatal(err)
								}
							}
						}
						check(step, "sweep", nil, nil)
					case 2:
						a, errA := got.db.GMRs.Backward("Cuboid.volume", lo, hi)
						b, errB := ref.db.GMRs.OracleBackward("Cuboid.volume", lo, hi)
						if errA != nil || errB != nil {
							t.Fatal(errA, errB)
						}
						touched += len(a)
						check(step, "Backward", a, b)
					case 3:
						a, okA, errA := got.db.GMRs.BackwardAny("Cuboid.weight", lo, hi)
						b, okB, errB := ref.db.GMRs.OracleBackwardAny("Cuboid.weight", lo, hi)
						if errA != nil || errB != nil {
							t.Fatal(errA, errB)
						}
						check(step, "BackwardAny", []any{a, okA}, []any{b, okB})
					case 4:
						a, errA := got.db.GMRs.All("Cuboid.weight")
						b, errB := ref.db.GMRs.OracleAll("Cuboid.weight")
						if errA != nil || errB != nil {
							t.Fatal(errA, errB)
						}
						runs++
						check(step, "All", a, b)
					case 5:
						spec := []core.FieldSpec{core.AnySpec(), core.RangeSpec(lo, hi), core.AnySpec()}
						if rng.Intn(2) == 0 {
							c := ref.geo.Cuboids[rng.Intn(len(ref.geo.Cuboids))]
							spec = []core.FieldSpec{core.ExactSpec(gomdb.Ref(c)), core.AnySpec(), core.AnySpec()}
						}
						a, errA := got.db.GMRs.Retrieve("Gvw", spec)
						b, errB := ref.db.GMRs.OracleRetrieve("Gvw", spec)
						if errA != nil || errB != nil {
							t.Fatal(errA, errB)
						}
						runs++
						check(step, "Retrieve", a, b)
					case 6:
						params := map[string]gomdb.Value{"lo": gomdb.Float(lo), "hi": gomdb.Float(hi)}
						res, errA := got.db.Queries.Run(window, params)
						b, errB := ref.db.GMRs.OracleWindow("Cuboid.volume", lo, hi)
						if errA != nil || errB != nil {
							t.Fatal(errA, errB)
						}
						var a []gomdb.Value
						for _, r := range res.Rows {
							a = append(a, r[0])
						}
						check(step, "window query", a, b)
					}
				}
				if runs == 0 || touched == 0 {
					t.Fatalf("the sequence ran %d scans and touched %d backward matches", runs, touched)
				}
				if d := ref.db.Clock.Sub(start); frames == 150 && (d.PhysReads == 0 || d.PhysWrites == 0) {
					t.Fatalf("the 150-frame pool did %d reads and %d dirty write-backs", d.PhysReads, d.PhysWrites)
				}
			})
		}
	}
}
