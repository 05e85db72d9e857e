package bench

// The wall-clock throughput suite. Unlike the figure experiments, which
// report *simulated* seconds, this file measures real operations per second
// of the concurrent read path at increasing goroutine counts — the
// VOODB-style repeatable harness the ROADMAP's "as fast as the hardware
// allows" goal needs. Three engine configurations are compared:
//
//   - single-mutex: BufferShards = 1, the historical globally locked pool
//   - striped:      the default lock-striped pool
//   - striped+memo: striped pool plus the forward-lookup memo cache
//
// Because the simulated clock is independent of wall time, none of this
// perturbs the figure experiments; `gombench -figure throughput` writes the
// results to BENCH_throughput.json to seed the performance trajectory.

import (
	"fmt"
	"math/rand"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"gomdb"
	"gomdb/internal/fixtures"
)

// ThroughputPoint is one measurement: a goroutine count and the aggregate
// wall-clock operation rate it sustained.
type ThroughputPoint struct {
	Goroutines  int     `json:"goroutines"`
	Ops         int64   `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Speedup     float64 `json:"speedup_vs_1"`
	MutexWaitMs float64 `json:"mutex_wait_ms"`
}

// ThroughputMix is one operation mix measured across goroutine counts.
type ThroughputMix struct {
	Name   string            `json:"name"`
	Points []ThroughputPoint `json:"points"`
}

// ThroughputConfig is one engine configuration with all its mixes.
type ThroughputConfig struct {
	Name         string          `json:"name"`
	BufferShards int             `json:"buffer_shards"`
	MemoCache    bool            `json:"memo_cache"`
	Mixes        []ThroughputMix `json:"mixes"`
}

// ThroughputReport is the JSON document gombench writes to
// BENCH_throughput.json.
type ThroughputReport struct {
	Harness    string `json:"harness"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPUWarning is non-empty when the host has a single schedulable
	// CPU and the scaling numbers are therefore vacuous (see NumCPUWarning).
	NumCPUWarning string             `json:"num_cpu_warning,omitempty"`
	Cuboids       int                `json:"cuboids"`
	BufferPages   int                `json:"buffer_pages"`
	DurationMs    int64              `json:"duration_ms_per_point"`
	Goroutines    []int              `json:"goroutine_counts"`
	Configs       []ThroughputConfig `json:"configs"`
	Notes         string             `json:"notes"`
}

// throughputGoroutines are the measured concurrency levels (the -cpu 1,2,4,8
// sweep of the testing.B suite).
var throughputGoroutines = []int{1, 2, 4, 8}

// throughputMixes names the operation mixes; see runMixOp for the workloads.
var throughputMixes = []string{"forward", "retrieve", "query", "mixed"}

// throughputDB builds one warmed database for a configuration: the geometry
// schema, n cuboids, and a complete <<volume,weight>> GMR. The buffer pool
// is sized to hold the working set — read *scalability* is measured on a
// warm cache, where the paper's deliberately tiny 150-page pool would turn
// every measurement into a serialized miss storm.
func throughputDB(n, shards int, memo bool) (*gomdb.Database, *fixtures.Geometry, string, error) {
	db := gomdb.Open(gomdb.Config{BufferPages: 8192, BufferShards: shards})
	if err := fixtures.DefineGeometry(db, false); err != nil {
		return nil, nil, "", err
	}
	g, err := fixtures.PopulateGeometry(db, n, cuboidSeed)
	if err != nil {
		return nil, nil, "", err
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:     []string{"Cuboid.volume", "Cuboid.weight"},
		Complete:  true,
		Mode:      gomdb.ModeObjDep,
		Strategy:  gomdb.Immediate,
		MemoCache: memo,
	})
	if err != nil {
		return nil, nil, "", err
	}
	// Warm the pool (and the memo cache, when enabled) with one pass over
	// every access path the mixes use.
	for _, oid := range g.Cuboids {
		if _, err := db.Call("Cuboid.volume", gomdb.Ref(oid)); err != nil {
			return nil, nil, "", err
		}
	}
	if _, err := db.Retrieve(gmr.Name, []gomdb.FieldSpec{
		gomdb.AnySpec(), gomdb.RangeSpec(0, 50), gomdb.AnySpec(),
	}); err != nil {
		return nil, nil, "", err
	}
	if _, err := db.Query(`range c: Cuboid retrieve c.CuboidID where c.volume > 100.0 and c.volume < 120.0`, nil); err != nil {
		return nil, nil, "", err
	}
	return db, g, gmr.Name, nil
}

// runMixOp performs one operation of the named mix.
func runMixOp(db *gomdb.Database, g *fixtures.Geometry, gmrName, mix string, rng *rand.Rand) error {
	op := mix
	if mix == "mixed" {
		switch r := rng.Intn(10); {
		case r < 7:
			op = "forward"
		case r < 9:
			op = "query"
		default:
			op = "retrieve"
		}
	}
	switch op {
	case "forward":
		_, err := db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[rng.Intn(len(g.Cuboids))]))
		return err
	case "retrieve":
		lo := float64(rng.Intn(500))
		_, err := db.Retrieve(gmrName, []gomdb.FieldSpec{
			gomdb.AnySpec(), gomdb.RangeSpec(lo, lo+25), gomdb.AnySpec(),
		})
		return err
	case "query":
		lo := float64(rng.Intn(500))
		params := map[string]gomdb.Value{"lo": gomdb.Float(lo), "hi": gomdb.Float(lo + 25)}
		_, err := db.Query(`range c: Cuboid retrieve c.CuboidID where c.volume > $lo and c.volume < $hi`, params)
		return err
	}
	return fmt.Errorf("bench: unknown mix %q", mix)
}

// mutexWaitSeconds reads the runtime's cumulative mutex wait time; the delta
// across a measurement quantifies lock contention independently of the
// machine's core count (on a single-core CI runner, ops/sec cannot scale,
// but the single-mutex pool still shows its contention here).
func mutexWaitSeconds() float64 {
	samples := []runtimemetrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	runtimemetrics.Read(samples)
	if samples[0].Value.Kind() != runtimemetrics.KindFloat64 {
		return 0
	}
	return samples[0].Value.Float64()
}

// measureThroughput runs one mix at one goroutine count for roughly d of
// wall time and returns the point.
func measureThroughput(db *gomdb.Database, g *fixtures.Geometry, gmrName, mix string, goroutines int, d time.Duration) (ThroughputPoint, error) {
	var stop atomic.Bool
	var ops atomic.Int64
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	waitBefore := mutexWaitSeconds()
	start := time.Now()
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := int64(0)
			for !stop.Load() {
				if err := runMixOp(db, g, gmrName, mix, rng); err != nil {
					errs <- err
					return
				}
				n++
			}
			ops.Add(n)
		}(int64(1000 + i))
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return ThroughputPoint{}, err
	}
	waitAfter := mutexWaitSeconds()
	return ThroughputPoint{
		Goroutines:  goroutines,
		Ops:         ops.Load(),
		OpsPerSec:   float64(ops.Load()) / elapsed.Seconds(),
		MutexWaitMs: (waitAfter - waitBefore) * 1000,
	}, nil
}

// Throughput runs the wall-clock suite and returns the report plus a Figure
// (X = goroutines, one series per configuration, Y = forward-mix ops/sec)
// for terminal display.
func Throughput(sc Scale) (*ThroughputReport, *Figure, error) {
	n := 800
	d := 250 * time.Millisecond
	if sc.OpsDivisor > 1 { // -short
		n = 200
		d = 60 * time.Millisecond
	}
	// The striped configurations pin the shard count to 8 rather than the
	// GOMAXPROCS default so the measured lock layout is the same on every
	// host (on a single-core runner the default would collapse to 1 shard
	// and the comparison would be vacuous).
	configs := []struct {
		name   string
		shards int
		memo   bool
	}{
		{"single-mutex", 1, false},
		{"striped", 8, false},
		{"striped+memo", 8, true},
	}
	rep := &ThroughputReport{
		Harness:       "gombench -figure throughput",
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPUWarning: NumCPUWarning(),
		Cuboids:       n,
		BufferPages:   8192,
		DurationMs:    d.Milliseconds(),
		Goroutines:    throughputGoroutines,
		Notes: "Wall-clock ops/sec of the concurrent read path; simulated-clock figures are unaffected. " +
			"Speedup is relative to the same configuration at 1 goroutine; mutex_wait_ms is the runtime's " +
			"cumulative sync.Mutex wait over the measurement window (contention evidence independent of core count). " +
			"Scaling beyond 1x requires as many schedulable CPUs as goroutines.",
	}
	fig := &Figure{
		ID:     "throughput",
		Title:  "Wall-clock forward-lookup throughput vs. goroutines",
		XLabel: "goroutines",
		YLabel: "ops/sec",
	}
	for _, gr := range throughputGoroutines {
		fig.X = append(fig.X, float64(gr))
	}
	for _, cfg := range configs {
		db, g, gmrName, err := throughputDB(n, cfg.shards, cfg.memo)
		if err != nil {
			return nil, nil, fmt.Errorf("throughput %s: %w", cfg.name, err)
		}
		tc := ThroughputConfig{Name: cfg.name, BufferShards: db.Pool.NumShards(), MemoCache: cfg.memo}
		for _, mix := range throughputMixes {
			tm := ThroughputMix{Name: mix}
			for _, gr := range throughputGoroutines {
				pt, err := measureThroughput(db, g, gmrName, mix, gr, d)
				if err != nil {
					return nil, nil, fmt.Errorf("throughput %s/%s x%d: %w", cfg.name, mix, gr, err)
				}
				if len(tm.Points) > 0 && tm.Points[0].OpsPerSec > 0 {
					pt.Speedup = pt.OpsPerSec / tm.Points[0].OpsPerSec
				} else {
					pt.Speedup = 1
				}
				tm.Points = append(tm.Points, pt)
			}
			tc.Mixes = append(tc.Mixes, tm)
		}
		rep.Configs = append(rep.Configs, tc)
		s := Series{Name: cfg.name}
		for _, pt := range tc.Mixes[0].Points {
			s.Points = append(s.Points, pt.OpsPerSec)
		}
		fig.Series = append(fig.Series, s)
	}
	return rep, fig, nil
}
