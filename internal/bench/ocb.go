package bench

// The OCB suite: materialization cost across a family of generated object
// bases instead of the two hand-built schemas. Each grid point expands an
// ocb.Params set (class count, fan-out, derived-function depth, attribute
// count, instance count, hot-set skew) into a base plus a reproducible op
// stream, then measures the same stream under immediate vs. lazy vs.
// deferred rematerialization, with and without one trace-driven reclustering
// pass. All numbers are simulated Clock charges: the committed
// BENCH_ocb.json is byte-identical run to run for the fixed seed.
//
// Measurement protocol per cell: build, materialize the point's GMR catalog
// under the cell's strategy, run the stream once unmeasured (warms the pool
// to the steady state an identical stream produces AND records the forward
// traces clustering feeds on), optionally recluster, flush, then measure the
// second pass. Result values are collected each pass and must be identical
// across every cell of a point — strategy and layout may never change an
// answer.
//
// The deep-chain point is the trade-off the hand-built fixtures cannot
// express: reference chains of depth 8 at fan-out 1 under an update-heavy,
// hot-skewed read-light stream. Deferred rematerialization recomputes every
// invalidated deep entry at each flush boundary whether or not anyone will
// read it; lazy recomputes only the hot-set entries the stream actually
// touches, and each recompute walks the full chain either way — so lazy
// undercuts deferred on CPU, inverting the ordering every geometry figure
// shows.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"

	"gomdb"
	"gomdb/internal/ocb"
	"gomdb/internal/shard"
)

// ocbSeed fixes every base and stream of the suite.
const ocbSeed = 2641

// ocbSelfDescription is the num_cpu_warning for this figure: unlike the
// wall-clock suites, core count cannot perturb these numbers.
const ocbSelfDescription = "all numbers are simulated Clock charges: deterministic, byte-identical run to run, " +
	"and independent of core count (num_cpu is recorded for provenance only)"

// OCBCell is one (strategy, clustering) measurement of a grid point's
// op stream — simulated charges of the second, steady-state pass.
type OCBCell struct {
	Strategy   string  `json:"strategy"`
	Clustered  bool    `json:"clustered"`
	PhysReads  int64   `json:"phys_reads"`
	PhysWrites int64   `json:"phys_writes"`
	CPUOps     int64   `json:"cpu_ops"`
	SimSeconds float64 `json:"sim_seconds"`
}

// OCBMix is one Params grid point with its six cells.
type OCBMix struct {
	Name    string     `json:"name"`
	Params  ocb.Params `json:"params"`
	Objects int        `json:"objects"`
	// HeapPages and BufferPages size the working set against the pool (a
	// quarter of the heap, floor 12, as in the clustering suite).
	HeapPages   int       `json:"heap_pages"`
	BufferPages int       `json:"buffer_pages"`
	Ops         int       `json:"ops"`
	Cells       []OCBCell `json:"cells"`
	// ResultsIdentical asserts every cell's stream returned byte-identical
	// values — neither strategy nor layout may change an answer.
	ResultsIdentical bool `json:"results_identical"`
	// LazyOverDeferredCPU is lazy CPUOps / deferred CPUOps (unclustered):
	// < 1 means lazy beat deferred on this point.
	LazyOverDeferredCPU float64 `json:"lazy_over_deferred_cpu"`
}

// OCBReport is the JSON document gombench writes to BENCH_ocb.json.
type OCBReport struct {
	Harness       string   `json:"harness"`
	GoVersion     string   `json:"go_version"`
	NumCPU        int      `json:"num_cpu"`
	NumCPUWarning string   `json:"num_cpu_warning"`
	Seed          int64    `json:"seed"`
	Mixes         []OCBMix `json:"mixes"`
	// Tradeoff calls out the grid point demonstrating a materialization
	// trade-off the hand-built schemas cannot show.
	Tradeoff string `json:"tradeoff"`
	Notes    string `json:"notes"`
}

// ocbMixDef is one grid point definition.
type ocbMixDef struct {
	Name string
	P    ocb.Params
	Ops  int
	W    ocb.Weights
}

// ocbReadHeavy is the forward-dominant profile without mat/demat, snapshot,
// or GC ops, so streams are re-runnable against an externally materialized
// catalog and every op charges the measured clock.
func ocbReadHeavy() ocb.Weights {
	return ocb.Weights{Forward: 35, Update: 15, Batch: 8, Backward: 8, Sum: 4,
		Retrieve: 6, Flush: 8}
}

// ocbMixes is the Params grid. baseline-small is the OCB baseline shape at
// bench scale; deep-chain is the lazy-beats-deferred regime; wide-fan
// stresses broad support sets; flat-hot is the degenerate no-reference base
// under extreme skew (pure hot-set caching behavior).
func ocbMixes(sc Scale) []ocbMixDef {
	mixes := []ocbMixDef{
		{
			Name: "baseline-small",
			P: ocb.Params{Classes: 6, FanOut: 3, Depth: 3, NumAttrs: 4,
				Instances: 60, HotFraction: 0.2, Skew: 0.8},
			Ops: 400,
			W:   ocbReadHeavy(),
		},
		{
			Name: "deep-chain",
			P: ocb.Params{Classes: 9, FanOut: 1, Depth: 8, NumAttrs: 3,
				Instances: 80, HotFraction: 0.15, Skew: 0.9},
			Ops: 400,
			W:   ocb.UpdateHeavyWeights(),
		},
		{
			Name: "wide-fan",
			P: ocb.Params{Classes: 3, FanOut: 8, Depth: 2, NumAttrs: 4,
				Instances: 48, HotFraction: 0.25, Skew: 0.7},
			Ops: 400,
			W:   ocbReadHeavy(),
		},
		{
			Name: "flat-hot",
			P: ocb.Params{Classes: 1, FanOut: 0, Depth: 0, NumAttrs: 8,
				Instances: 400, HotFraction: 0.1, Skew: 0.95},
			Ops: 400,
			W:   ocbReadHeavy(),
		},
	}
	if sc.OpsDivisor > 1 {
		for i := range mixes {
			mixes[i].Ops = 400 / sc.OpsDivisor
			if mixes[i].P.Instances > 16 {
				mixes[i].P.Instances /= 2
			}
		}
	}
	return mixes
}

var ocbStrategies = []struct {
	Name string
	S    gomdb.Strategy
}{
	{"immediate", gomdb.Immediate},
	{"lazy", gomdb.Lazy},
	{"deferred", gomdb.Deferred},
}

// OCB runs the synthetic-workload grid and returns the report plus a figure
// (simulated seconds per stream, one series per strategy, unclustered, plus
// the lazy+clustered series).
func OCB(sc Scale) (*OCBReport, *Figure, error) {
	mixes := ocbMixes(sc)
	rep := &OCBReport{
		Harness:       "gombench -figure ocb",
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		NumCPUWarning: ocbSelfDescription,
		Seed:          ocbSeed,
		Notes: "second-of-two-passes steady-state measurement; pool = heap/4; " +
			"streams are mat/demat-free so both passes run against the same catalog; " +
			"results_identical pins value equality across all six cells of each point",
	}
	fig := &Figure{
		ID:     "ocb",
		Title:  "OCB synthetic grid: simulated cost per op stream (immediate/lazy/deferred, clustering off/on)",
		XLabel: "grid point",
		YLabel: "SimSeconds",
	}
	series := map[string]*Series{}
	order := []string{"immediate", "lazy", "deferred", "lazy+clustered"}
	for _, name := range order {
		series[name] = &Series{Name: name}
	}

	for mi, def := range mixes {
		fig.X = append(fig.X, float64(mi))
		mix, err := measureOCBMix(def)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", def.Name, err)
		}
		rep.Mixes = append(rep.Mixes, *mix)
		for _, cell := range mix.Cells {
			key := cell.Strategy
			if cell.Clustered {
				if cell.Strategy != "lazy" {
					continue
				}
				key = "lazy+clustered"
			}
			series[key].Points = append(series[key].Points, cell.SimSeconds)
		}
	}
	for _, name := range order {
		fig.Series = append(fig.Series, *series[name])
	}

	for _, m := range rep.Mixes {
		if m.Name != "deep-chain" {
			continue
		}
		var lazyCPU, defCPU int64
		for _, c := range m.Cells {
			if c.Clustered {
				continue
			}
			switch c.Strategy {
			case "lazy":
				lazyCPU = c.CPUOps
			case "deferred":
				defCPU = c.CPUOps
			}
		}
		if lazyCPU > 0 && defCPU > lazyCPU {
			rep.Tradeoff = fmt.Sprintf(
				"deep-chain (Classes=9, FanOut=1, Depth=8, update-heavy hot-skewed stream): "+
					"lazy spends %.1fx less simulated CPU than deferred (%d vs %d CPU ops) — "+
					"deferred recomputes every invalidated depth-8 entry at each flush whether or not it is read; "+
					"lazy recomputes only the hot-set entries the stream touches. "+
					"The hand-built geometry/company schemas have no deep low-fan-out chains, so they cannot show this inversion.",
				float64(defCPU)/float64(lazyCPU), lazyCPU, defCPU)
		} else {
			rep.Tradeoff = fmt.Sprintf(
				"deep-chain: lazy %d vs deferred %d CPU ops (unclustered)", lazyCPU, defCPU)
		}
	}
	return rep, fig, nil
}

// measureOCBMix measures all six cells of one grid point.
func measureOCBMix(def ocbMixDef) (*OCBMix, error) {
	// Probe build: learn the heap footprint so the pool holds a quarter of it.
	base, err := ocb.Gen(def.P, ocbSeed)
	if err != nil {
		return nil, err
	}
	probe := gomdb.Open(gomdb.Config{BufferPages: 256})
	if err := ocb.Define(probe, def.P); err != nil {
		return nil, err
	}
	if _, err := ocb.Populate(shard.Single(probe), base); err != nil {
		return nil, err
	}
	heapPages := probe.Objects.HeapPages()
	pool := heapPages / 4
	if pool < 12 {
		pool = 12
	}

	mix := &OCBMix{
		Name:        def.Name,
		Params:      def.P,
		Objects:     def.P.Classes * def.P.Instances,
		HeapPages:   heapPages,
		BufferPages: pool,
		Ops:         def.Ops,
	}
	stream := ocb.GenStream(def.P, ocbSeed+1, ocb.StreamOptions{
		Ops: def.Ops, W: def.W, AuditEvery: -1})

	var first []string
	mix.ResultsIdentical = true
	for _, clustered := range []bool{false, true} {
		for _, strat := range ocbStrategies {
			cell, results, err := measureOCBCell(def, base, stream, strat.S, strat.Name, clustered, pool)
			if err != nil {
				return nil, fmt.Errorf("%s clustered=%v: %w", strat.Name, clustered, err)
			}
			if first == nil {
				first = results
			} else if !reflect.DeepEqual(first, results) {
				mix.ResultsIdentical = false
			}
			mix.Cells = append(mix.Cells, *cell)
		}
	}
	var lazyCPU, defCPU int64
	for _, c := range mix.Cells {
		if c.Clustered {
			continue
		}
		switch c.Strategy {
		case "lazy":
			lazyCPU = c.CPUOps
		case "deferred":
			defCPU = c.CPUOps
		}
	}
	if defCPU > 0 {
		mix.LazyOverDeferredCPU = float64(lazyCPU) / float64(defCPU)
	}
	return mix, nil
}

func measureOCBCell(def ocbMixDef, base *ocb.Base, stream []ocb.Op, strat gomdb.Strategy, stratName string, clustered bool, pool int) (*OCBCell, []string, error) {
	db := gomdb.Open(gomdb.Config{BufferPages: pool})
	if err := ocb.Define(db, def.P); err != nil {
		return nil, nil, err
	}
	w, err := ocb.Populate(shard.Single(db), base)
	if err != nil {
		return nil, nil, err
	}
	for _, spec := range ocb.Catalog(def.P) {
		if _, err := db.Materialize(gomdb.MaterializeOptions{
			Name: spec.Name, Funcs: spec.Funcs, Complete: spec.Complete,
			MaxEntries: spec.MaxEntries, Strategy: strat, Mode: gomdb.ModeObjDep,
		}); err != nil {
			return nil, nil, fmt.Errorf("materialize %s: %w", spec.Name, err)
		}
	}

	// Unmeasured pass: steady-state pool, forward traces for clustering.
	if _, err := applyOCBStream(db, w, def.P, stream); err != nil {
		return nil, nil, err
	}
	if clustered {
		if _, err := db.Recluster(); err != nil {
			return nil, nil, fmt.Errorf("recluster: %w", err)
		}
	}
	if err := db.Flush(); err != nil {
		return nil, nil, err
	}

	start := db.Clock.Snapshot()
	results, err := applyOCBStream(db, w, def.P, stream)
	if err != nil {
		return nil, nil, err
	}
	d := db.Clock.Sub(start)
	return &OCBCell{
		Strategy:   stratName,
		Clustered:  clustered,
		PhysReads:  d.PhysReads,
		PhysWrites: d.PhysWrites,
		CPUOps:     d.CPUOps,
		SimSeconds: d.SimSeconds(),
	}, results, nil
}

// applyOCBStream drives a mat/demat-free stream and renders every read
// result canonically. Operational errors surface as returned errors here —
// unlike the sim, the bench expects a fault-free engine.
func applyOCBStream(db *gomdb.Database, w *ocb.World, p ocb.Params, ops []ocb.Op) ([]string, error) {
	c0 := w.Classes[0]
	var out []string
	setOne := func(a interface {
		Set(oid gomdb.OID, attr string, v gomdb.Value) error
	}, op ocb.Op) error {
		cls := w.Classes[op.N%p.Classes]
		return a.Set(cls[op.X%len(cls)], op.S, gomdb.Float(op.F[0]))
	}
	for i, op := range ops {
		switch op.Kind {
		case "forward":
			v, err := db.Call(op.S, gomdb.Ref(c0[op.X%len(c0)]))
			if err != nil {
				return nil, fmt.Errorf("op %d forward %s: %w", i, op.S, err)
			}
			out = append(out, fmt.Sprintf("%s(%d)=%s", op.S, op.X, v))
		case "set-value":
			if err := setOne(db, op); err != nil {
				return nil, fmt.Errorf("op %d set: %w", i, err)
			}
		case "batch":
			err := db.Batch(func(tx *gomdb.Tx) error {
				for _, sub := range op.Sub {
					if err := setOne(tx, sub); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("op %d batch: %w", i, err)
			}
		case "backward":
			// Reverse lookups, sums, and retrieves over a function outside the
			// materialized catalog answer with a deterministic error line, as
			// in the sim driver — the stream generator draws from all forward
			// functions, the catalog materializes four of them.
			ms, err := db.Backward(op.S, op.F[0], op.F[1])
			if err != nil {
				out = append(out, fmt.Sprintf("bw %s ERR %v", op.S, err))
				continue
			}
			parts := make([]string, len(ms))
			for j, m := range ms {
				parts[j] = m.Result.String()
			}
			out = append(out, fmt.Sprintf("bw %s=%d[%s]", op.S, len(ms), strings.Join(parts, ",")))
		case "sum":
			k := 1 + op.N%len(c0)
			s, err := db.Sum(op.S, c0[:k])
			if err != nil {
				out = append(out, fmt.Sprintf("sum %s ERR %v", op.S, err))
				continue
			}
			out = append(out, fmt.Sprintf("sum %s/%d=%g", op.S, k, s))
		case "retrieve":
			cat := ocb.Catalog(p)
			spec := cat[op.X%len(cat)]
			rows, err := db.Retrieve(spec.Name, []gomdb.FieldSpec{
				gomdb.AnySpec(), gomdb.RangeSpec(op.F[0], op.F[1])})
			if err != nil {
				out = append(out, fmt.Sprintf("rt %s ERR %v", spec.Name, err))
				continue
			}
			out = append(out, fmt.Sprintf("rt %s=%d", spec.Name, len(rows)))
		case "flush":
			if err := db.Flush(); err != nil {
				return nil, fmt.Errorf("op %d flush: %w", i, err)
			}
		}
	}
	return out, nil
}
