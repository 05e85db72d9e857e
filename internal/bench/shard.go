package bench

// The horizontal-sharding wall-clock suite. Like throughput.go this measures
// real operations per second, but the axis is the SHARD COUNT of the
// scatter-gather router (internal/shard) rather than the goroutine count:
// the same geometry base is partitioned across 1, 2, 4, and 8 engines and a
// fixed worker pool drives each operation mix against the router facade.
//
//   - forward:  point-routed Call — one shard's engine lock per op, so
//     independent workers land on independent locks as shards grow
//   - backward: scatter Backward over every shard + deterministic merge
//   - tabular:  scatter Retrieve over the per-shard GMR extensions
//   - mixed:    70% forward / 20% backward / 10% tabular
//
// A separate update section measures vertex-move throughput: each move
// invalidates the affected <<volume,weight>> entries via the owning shard's
// RRR only, so writers on different shards never serialize on one
// invalidation path. Speedups are relative to the SAME mix at 1 shard.
// `gombench -figure shard` writes the results to BENCH_shard.json.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/shard"
)

// ShardPoint is one measurement: a shard count and the aggregate wall-clock
// operation rate the worker pool sustained against it.
type ShardPoint struct {
	Shards      int     `json:"shards"`
	Ops         int64   `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Speedup     float64 `json:"speedup_vs_1_shard"`
	MutexWaitMs float64 `json:"mutex_wait_ms"`
}

// ShardMix is one operation mix measured across shard counts.
type ShardMix struct {
	Name   string       `json:"name"`
	Points []ShardPoint `json:"points"`
}

// ShardReport is the JSON document gombench writes to BENCH_shard.json.
type ShardReport struct {
	Harness       string     `json:"harness"`
	GoVersion     string     `json:"go_version"`
	NumCPU        int        `json:"num_cpu"`
	GOMAXPROCS    int        `json:"gomaxprocs"`
	NumCPUWarning string     `json:"num_cpu_warning,omitempty"`
	Cuboids       int        `json:"cuboids"`
	BufferPages   int        `json:"buffer_pages_per_shard"`
	Workers       int        `json:"workers"`
	DurationMs    int64      `json:"duration_ms_per_point"`
	ShardCounts   []int      `json:"shard_counts"`
	Mixes         []ShardMix `json:"mixes"`
	Updates       ShardMix   `json:"updates"`
	Notes         string     `json:"notes"`
}

// shardCounts are the measured router widths.
var shardCounts = []int{1, 2, 4, 8}

// shardMixes names the read mixes; see runShardMixOp for the workloads.
var shardMixes = []string{"forward", "backward", "tabular", "mixed"}

// shardWorkers is the fixed driver pool: enough concurrency that per-shard
// locks, not the driver, bound the rate once cores allow it.
const shardWorkers = 8

// NumCPUWarning returns a non-empty caveat when the host cannot exhibit
// parallel speedups at all. The wall-clock reports embed it so a committed
// BENCH_*.json from a single-core CI runner is self-describing.
func NumCPUWarning() string {
	if runtime.NumCPU() > 1 {
		return ""
	}
	return fmt.Sprintf("runtime.NumCPU()==%d: single schedulable CPU; parallel speedups cannot exceed 1x "+
		"and ops/sec reflects serialized execution — rerun on a multi-core host for scaling numbers", runtime.NumCPU())
}

// shardBenchDB builds one warmed n-shard router: the geometry schema on
// every shard, the partitioned cuboid base, and a complete <<volume,weight>>
// GMR per shard. Each shard gets the same warm-cache pool sizing as the
// throughput suite so reads never serialize on miss storms.
func shardBenchDB(cuboids, shards int) (*shard.DB, *fixtures.Geometry, string, error) {
	db := shard.Open(shard.Config{
		Shards: shards,
		Engine: gomdb.Config{BufferPages: 8192},
	})
	if err := db.EachShard(func(_ int, sh *gomdb.Database) error {
		return fixtures.DefineGeometry(sh, false)
	}); err != nil {
		return nil, nil, "", err
	}
	g, err := fixtures.PopulateGeometryOn(db, cuboids, cuboidSeed)
	if err != nil {
		return nil, nil, "", err
	}
	gmrName := "Gvw"
	if err := db.Materialize(gomdb.MaterializeOptions{
		Name:     gmrName,
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
		Strategy: gomdb.Immediate,
	}); err != nil {
		return nil, nil, "", err
	}
	// Warm every access path the mixes use.
	for _, oid := range g.Cuboids {
		if _, err := db.Call("Cuboid.volume", gomdb.Ref(oid)); err != nil {
			return nil, nil, "", err
		}
	}
	if _, err := db.Backward("Cuboid.volume", 0, 50); err != nil {
		return nil, nil, "", err
	}
	if _, err := db.Retrieve(gmrName, []gomdb.FieldSpec{
		gomdb.AnySpec(), gomdb.RangeSpec(0, 50), gomdb.AnySpec(),
	}); err != nil {
		return nil, nil, "", err
	}
	return db, g, gmrName, nil
}

// runShardMixOp performs one operation of the named mix against the router.
func runShardMixOp(db *shard.DB, g *fixtures.Geometry, gmrName, mix string, rng *rand.Rand) error {
	op := mix
	if mix == "mixed" {
		switch r := rng.Intn(10); {
		case r < 7:
			op = "forward"
		case r < 9:
			op = "backward"
		default:
			op = "tabular"
		}
	}
	switch op {
	case "forward":
		_, err := db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[rng.Intn(len(g.Cuboids))]))
		return err
	case "backward":
		lo := float64(rng.Intn(500))
		_, err := db.Backward("Cuboid.volume", lo, lo+25)
		return err
	case "tabular":
		lo := float64(rng.Intn(500))
		_, err := db.Retrieve(gmrName, []gomdb.FieldSpec{
			gomdb.AnySpec(), gomdb.RangeSpec(lo, lo+25), gomdb.AnySpec(),
		})
		return err
	}
	return fmt.Errorf("bench: unknown shard mix %q", mix)
}

// runShardUpdateOp moves one vertex of a random cuboid: the RRR lookup and
// the <<volume,weight>> invalidation both run on the owning shard alone.
func runShardUpdateOp(db *shard.DB, g *fixtures.Geometry, rng *rand.Rand) error {
	c := g.Cuboids[rng.Intn(len(g.Cuboids))]
	v, err := db.GetAttr(c, "V1")
	if err != nil {
		return err
	}
	return db.Set(v.R, "X", gomdb.Float(float64(rng.Intn(100))))
}

// measureShard runs one op function against one router for roughly d of
// wall time across the fixed worker pool and returns the point.
func measureShard(db *shard.DB, op func(rng *rand.Rand) error, d time.Duration) (ShardPoint, error) {
	var stop atomic.Bool
	var ops atomic.Int64
	errs := make(chan error, shardWorkers)
	var wg sync.WaitGroup
	waitBefore := mutexWaitSeconds()
	start := time.Now()
	for i := 0; i < shardWorkers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := int64(0)
			for !stop.Load() {
				if err := op(rng); err != nil {
					errs <- err
					return
				}
				n++
			}
			ops.Add(n)
		}(int64(2000 + i))
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return ShardPoint{}, err
	}
	waitAfter := mutexWaitSeconds()
	return ShardPoint{
		Shards:      db.Shards(),
		Ops:         ops.Load(),
		OpsPerSec:   float64(ops.Load()) / elapsed.Seconds(),
		MutexWaitMs: (waitAfter - waitBefore) * 1000,
	}, nil
}

// speedups fills Speedup on every point relative to the mix's 1-shard rate.
func speedups(m *ShardMix) {
	if len(m.Points) == 0 || m.Points[0].OpsPerSec == 0 {
		return
	}
	base := m.Points[0].OpsPerSec
	for i := range m.Points {
		m.Points[i].Speedup = m.Points[i].OpsPerSec / base
	}
}

// Shard runs the sharding wall-clock suite and returns the report plus a
// Figure (X = shard count, one series per read mix, Y = ops/sec).
func Shard(sc Scale) (*ShardReport, *Figure, error) {
	n := 800
	d := 250 * time.Millisecond
	if sc.OpsDivisor > 1 { // -short
		n = 200
		d = 60 * time.Millisecond
	}
	rep := &ShardReport{
		Harness:       "gombench -figure shard",
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPUWarning: NumCPUWarning(),
		Cuboids:       n,
		BufferPages:   8192,
		Workers:       shardWorkers,
		DurationMs:    d.Milliseconds(),
		ShardCounts:   shardCounts,
		Notes: "Wall-clock ops/sec of the OID-hash partitioned router at increasing shard counts, driven by a " +
			"fixed worker pool; simulated-clock figures are unaffected. forward is point-routed, backward and " +
			"tabular scatter to every shard and merge deterministically; updates move one vertex per op and " +
			"invalidate through the owning shard's RRR only. speedup_vs_1_shard compares the same mix at 1 shard; " +
			"scaling beyond 1x requires multiple schedulable CPUs.",
	}
	fig := &Figure{
		ID:     "shard",
		Title:  "Wall-clock router throughput vs. shard count",
		XLabel: "shards",
		YLabel: "ops/sec",
	}
	for _, s := range shardCounts {
		fig.X = append(fig.X, float64(s))
	}
	mixes := make([]ShardMix, len(shardMixes))
	for i, mix := range shardMixes {
		mixes[i].Name = mix
	}
	rep.Updates = ShardMix{Name: "vertex-move"}
	for _, shards := range shardCounts {
		db, g, gmrName, err := shardBenchDB(n, shards)
		if err != nil {
			return nil, nil, fmt.Errorf("shard bench x%d: %w", shards, err)
		}
		for i, mix := range shardMixes {
			mix := mix
			pt, err := measureShard(db, func(rng *rand.Rand) error {
				return runShardMixOp(db, g, gmrName, mix, rng)
			}, d)
			if err != nil {
				return nil, nil, fmt.Errorf("shard bench %s x%d: %w", mix, shards, err)
			}
			mixes[i].Points = append(mixes[i].Points, pt)
		}
		pt, err := measureShard(db, func(rng *rand.Rand) error {
			return runShardUpdateOp(db, g, rng)
		}, d)
		if err != nil {
			return nil, nil, fmt.Errorf("shard bench updates x%d: %w", shards, err)
		}
		rep.Updates.Points = append(rep.Updates.Points, pt)
	}
	for i := range mixes {
		speedups(&mixes[i])
	}
	speedups(&rep.Updates)
	rep.Mixes = mixes
	for _, m := range mixes {
		s := Series{Name: m.Name}
		for _, pt := range m.Points {
			s.Points = append(s.Points, pt.OpsPerSec)
		}
		fig.Series = append(fig.Series, s)
	}
	return rep, fig, nil
}
