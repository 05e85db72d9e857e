package gomdb_test

// Wall-clock parallel benchmarks of the concurrent read path. Run the sweep
// the throughput suite automates with:
//
//	go test -run '^$' -bench 'Parallel' -cpu 1,2,4,8 .
//
// All but the last benchmark drive quiescent databases, so every operation
// takes the shared-lock fast path; the ns/op deltas across -cpu values
// isolate the buffer-pool striping effect from writer interference.

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
)

// parallelDB builds a warmed geometry database with a complete
// <<volume,weight>> GMR for the parallel benchmarks.
func parallelDB(b *testing.B, shards int) (*gomdb.Database, *fixtures.Geometry, string) {
	b.Helper()
	db := gomdb.Open(gomdb.Config{BufferPages: 8192, BufferShards: shards})
	if err := fixtures.DefineGeometry(db, false); err != nil {
		b.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 500, 42)
	if err != nil {
		b.Fatal(err)
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
		Strategy: gomdb.Immediate,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, oid := range g.Cuboids {
		if _, err := db.Call("Cuboid.volume", gomdb.Ref(oid)); err != nil {
			b.Fatal(err)
		}
	}
	return db, g, gmr.Name
}

// forwardParallel is the shared body: concurrent forward lookups of random
// cuboid volumes against a warm pool.
func forwardParallel(b *testing.B, shards int) {
	db, g, _ := parallelDB(b, shards)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		for pb.Next() {
			if _, err := db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[rng.Intn(len(g.Cuboids))])); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelForward is the default engine: lock-striped buffer pool.
func BenchmarkParallelForward(b *testing.B) { forwardParallel(b, 0) }

// BenchmarkParallelForwardSingleMutex pins the pool to one shard — the
// historical globally locked baseline.
func BenchmarkParallelForwardSingleMutex(b *testing.B) { forwardParallel(b, 1) }

// BenchmarkParallelBackward runs concurrent backward range queries through
// the query planner (selection on the GMR's result column).
func BenchmarkParallelBackward(b *testing.B) {
	db, _, _ := parallelDB(b, 0)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		for pb.Next() {
			lo := float64(rng.Intn(500))
			params := map[string]gomdb.Value{"lo": gomdb.Float(lo), "hi": gomdb.Float(lo + 25)}
			if _, err := db.Query(`range c: Cuboid retrieve c.CuboidID where c.volume > $lo and c.volume < $hi`, params); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelTabular runs concurrent tabular Retrieve calls (one
// FieldSpec per column).
func BenchmarkParallelTabular(b *testing.B) {
	db, _, gmrName := parallelDB(b, 0)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		for pb.Next() {
			lo := float64(rng.Intn(500))
			if _, err := db.Retrieve(gmrName, []gomdb.FieldSpec{
				gomdb.AnySpec(), gomdb.RangeSpec(lo, lo+25), gomdb.AnySpec(),
			}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelQueryMix interleaves forward lookups, backward queries,
// and tabular retrievals in a 70/20/10 read mix.
func BenchmarkParallelQueryMix(b *testing.B) {
	db, g, gmrName := parallelDB(b, 0)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		for pb.Next() {
			var err error
			switch r := rng.Intn(10); {
			case r < 7:
				_, err = db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[rng.Intn(len(g.Cuboids))]))
			case r < 9:
				lo := float64(rng.Intn(500))
				params := map[string]gomdb.Value{"lo": gomdb.Float(lo), "hi": gomdb.Float(lo + 25)}
				_, err = db.Query(`range c: Cuboid retrieve c.CuboidID where c.volume > $lo and c.volume < $hi`, params)
			default:
				lo := float64(rng.Intn(500))
				_, err = db.Retrieve(gmrName, []gomdb.FieldSpec{
					gomdb.AnySpec(), gomdb.RangeSpec(lo, lo+25), gomdb.AnySpec(),
				})
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelForwardWithWriter measures reader latency under writer
// interference: one background writer continuously moves vertices (each move
// invalidates and immediately rematerializes the GMR entry under the
// exclusive lock), and contended reads take the MVCC snapshot path instead of
// queueing behind it.
func BenchmarkParallelForwardWithWriter(b *testing.B) {
	db := gomdb.Open(gomdb.Config{BufferPages: 8192})
	if err := fixtures.DefineGeometry(db, false); err != nil {
		b.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 500, 42)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
		Strategy: gomdb.Immediate,
	}); err != nil {
		b.Fatal(err)
	}
	for _, oid := range g.Cuboids {
		if _, err := db.Call("Cuboid.volume", gomdb.Ref(oid)); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			oid := g.Cuboids[rng.Intn(len(g.Cuboids))]
			attr := []string{"V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8"}[rng.Intn(8)]
			vref, err := db.GetAttr(oid, attr)
			if err != nil {
				b.Error(err)
				return
			}
			if err := db.Set(vref.R, "X", gomdb.Float(rng.Float64()*100)); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		for pb.Next() {
			if _, err := db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[rng.Intn(len(g.Cuboids))])); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-writerDone
}
