package bench

// The update-path suite for the deferred rematerialization strategy: bursty
// update workloads where each touched object receives several elementary
// updates between flush points. Immediate pays one recomputation per update,
// lazy pays one per first re-read, deferred coalesces the burst into one
// recomputation per entry at the flush. Costs are *simulated seconds* like
// the figure experiments.
//
// `gombench -figure updates` writes the results to BENCH_updates.json.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"gomdb"
	"gomdb/internal/fixtures"
)

// updatesSeed fixes the workload; every strategy replays the same operation
// sequence.
const updatesSeed = 271

// UpdatesPoint is one measurement: a burst size (elementary updates per
// touched object between flushes) and the simulated cost of the workload.
type UpdatesPoint struct {
	PerObject  int     `json:"updates_per_object"`
	SimSeconds float64 `json:"sim_seconds"`
}

// UpdatesStrategy is one maintenance discipline across the burst-size sweep.
type UpdatesStrategy struct {
	Name   string         `json:"name"`
	Points []UpdatesPoint `json:"points"`
}

// UpdatesReport is the JSON document gombench writes to BENCH_updates.json.
type UpdatesReport struct {
	Harness         string            `json:"harness"`
	GoVersion       string            `json:"go_version"`
	NumCPU          int               `json:"num_cpu"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
	Cuboids         int               `json:"cuboids"`
	Bursts          int               `json:"bursts"`
	ObjectsPerBurst int               `json:"objects_per_burst"`
	PerObjectSweep  []int             `json:"per_object_sweep"`
	Strategies      []UpdatesStrategy `json:"strategies"`
	// The deferred queue statistics of the largest burst size.
	QueueHighWater   int64  `json:"queue_high_water"`
	CoalescedUpdates int64  `json:"coalesced_updates"`
	Flushes          int64  `json:"flushes"`
	Notes            string `json:"notes"`
}

// updatesRun is the outcome of one burst workload: the simulated seconds of
// the measured phase and the deferred queue statistics.
type updatesRun struct {
	simSeconds float64
	highWater  int64
	coalesced  int64
	flushes    int64
}

// runUpdateBursts builds a fresh database, materializes <<volume,weight>>
// under the given strategy, and drives `bursts` rounds: each round touches
// `objects` cuboids with `perObj` elementary vertex updates apiece inside one
// Batch (whose end is a flush point — a no-op for immediate and lazy), then
// reads both functions of every touched cuboid back so lazy pays its
// rematerialization debt inside the measured window.
func runUpdateBursts(strategy gomdb.Strategy, nCuboids, bursts, objects, perObj int) (updatesRun, error) {
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		return updatesRun{}, err
	}
	g, err := fixtures.PopulateGeometry(db, nCuboids, cuboidSeed)
	if err != nil {
		return updatesRun{}, err
	}
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Cuboid.volume", "Cuboid.weight"}, Complete: true,
		Strategy: strategy, Mode: gomdb.ModeObjDep,
	}); err != nil {
		return updatesRun{}, err
	}
	rng := rand.New(rand.NewSource(updatesSeed))
	vertices := []string{"V1", "V2", "V4", "V5"}
	attrs := []string{"X", "Y", "Z"}
	start := db.Clock.Snapshot()
	for b := 0; b < bursts; b++ {
		touched := make([]gomdb.OID, objects)
		for i := range touched {
			touched[i] = g.Cuboids[rng.Intn(len(g.Cuboids))]
		}
		err := db.Batch(func(tx *gomdb.Tx) error {
			for _, c := range touched {
				for u := 0; u < perObj; u++ {
					v, err := tx.GetAttr(c, vertices[u%len(vertices)])
					if err != nil {
						return err
					}
					if err := tx.Set(v.R, attrs[rng.Intn(len(attrs))], gomdb.Float(1+rng.Float64()*10)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return updatesRun{}, err
		}
		for _, c := range touched {
			for _, fn := range []string{"Cuboid.volume", "Cuboid.weight"} {
				if _, err := db.Call(fn, gomdb.Ref(c)); err != nil {
					return updatesRun{}, err
				}
			}
		}
	}
	d := db.Clock.Sub(start)
	st := &db.GMRs.Stats
	return updatesRun{
		simSeconds: float64(d.PhysReads+d.PhysWrites)*float64(db.Clock.IOCostMicros)/1e6 +
			float64(d.CPUOps)*float64(db.Clock.CPUCostMicros)/1e6,
		highWater: atomic.LoadInt64(&st.QueueHighWater),
		coalesced: atomic.LoadInt64(&st.CoalescedUpdates),
		flushes:   atomic.LoadInt64(&st.Flushes),
	}, nil
}

// Updates runs the burst-update suite and returns the report plus a Figure
// (X = updates per object, one series per strategy, Y = simulated seconds).
func Updates(sc Scale) (*UpdatesReport, *Figure, error) {
	nCuboids := 400
	bursts := 8
	objects := 24
	if sc.OpsDivisor > 1 { // -short
		nCuboids = 100
		bursts = 3
		objects = 8
	}
	sweep := []int{1, 2, 4, 8}
	rep := &UpdatesReport{
		Harness:         "gombench -figure updates",
		GoVersion:       runtime.Version(),
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Cuboids:         nCuboids,
		Bursts:          bursts,
		ObjectsPerBurst: objects,
		PerObjectSweep:  sweep,
		Notes: "Simulated seconds of a bursty update workload (updates per object between flush points on the x-axis), " +
			"each burst followed by a read-back of every touched result so lazy pays its debt inside the window.",
	}
	fig := &Figure{
		ID:     "updates",
		Title:  "Burst updates: immediate vs lazy vs deferred (coalescing)",
		XLabel: "#updates/obj",
		YLabel: fmt.Sprintf("simulated seconds, %d bursts x %d objects", bursts, objects),
	}
	for _, u := range sweep {
		fig.X = append(fig.X, float64(u))
	}
	strategies := []struct {
		name     string
		strategy gomdb.Strategy
	}{
		{"Immediate", gomdb.Immediate},
		{"Lazy", gomdb.Lazy},
		{"Deferred", gomdb.Deferred},
	}
	for _, s := range strategies {
		us := UpdatesStrategy{Name: s.name}
		series := Series{Name: s.name}
		for _, perObj := range sweep {
			run, err := runUpdateBursts(s.strategy, nCuboids, bursts, objects, perObj)
			if err != nil {
				return nil, nil, fmt.Errorf("updates %s/%d: %w", s.name, perObj, err)
			}
			us.Points = append(us.Points, UpdatesPoint{PerObject: perObj, SimSeconds: run.simSeconds})
			series.Points = append(series.Points, run.simSeconds)
			if s.strategy == gomdb.Deferred && perObj == sweep[len(sweep)-1] {
				rep.QueueHighWater = run.highWater
				rep.CoalescedUpdates = run.coalesced
				rep.Flushes = run.flushes
			}
		}
		rep.Strategies = append(rep.Strategies, us)
		fig.Series = append(fig.Series, series)
	}
	return rep, fig, nil
}
