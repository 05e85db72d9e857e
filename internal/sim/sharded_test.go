package sim

import (
	"strings"
	"testing"
)

// TestShardedMatrix sweeps the multi-shard cell: every strategy at 1, 2,
// and 4 shards, auditing per-shard invariants (Definition 3.2, RRR support,
// directory <-> heap) and the cross-shard routing invariants at every
// quiescent point.
func TestShardedMatrix(t *testing.T) {
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		for _, shards := range []int{1, 2, 4} {
			cfg := EngineConfig{Strategy: strat, Shards: shards}
			t.Run(cfg.String(), func(t *testing.T) {
				t.Parallel()
				seeds := int64(4)
				if testing.Short() {
					seeds = 2
				}
				for seed := int64(1); seed <= seeds; seed++ {
					plan := Generate(seed, GenOptions{Ops: 80})
					requireClean(t, cfg, plan)
				}
			})
		}
	}
}

// TestShardedDeterminism: the same plan at the same shard count is
// trace-identical run to run (the parallel scatter must not leak goroutine
// scheduling into the merge order).
func TestShardedDeterminism(t *testing.T) {
	cfg := EngineConfig{Strategy: "deferred", Shards: 4, UseMDS: true}
	plan := Generate(7, GenOptions{Ops: 100})
	first := requireClean(t, cfg, plan)
	for i := 0; i < 2; i++ {
		again := requireClean(t, cfg, plan)
		if again.TraceHash != first.TraceHash {
			t.Fatalf("run %d diverged: hash %x vs %x", i+2, again.TraceHash, first.TraceHash)
		}
	}
}

// TestShardedDurableCrashes: the crash campaign against a 2-shard durable
// router — mid-checkpoint failures are armed on one shard only, so recovery
// must rebuild a coherent routing table from shards at different checkpoint
// horizons.
func TestShardedDurableCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("durable sharded crash campaign skipped in -short")
	}
	cfg := EngineConfig{Strategy: "immediate", Shards: 2, Durable: true}
	cuts := 0
	for seed := int64(1); seed <= 3; seed++ {
		plan := Generate(seed, GenOptions{Ops: 60, Crashes: true})
		cuts += countCutsFired(requireClean(t, cfg, plan).Trace)
	}
	if cuts == 0 {
		t.Fatal("no mid-checkpoint cut fired on any shard across the seeds")
	}
}

// TestShardedFaults: a fault window armed on one shard's disk must leave the
// other shards untouched and recover cleanly at the window close.
func TestShardedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded fault campaign skipped in -short")
	}
	cfg := EngineConfig{Strategy: "deferred", Shards: 4}
	for seed := int64(1); seed <= 3; seed++ {
		plan := Generate(seed, GenOptions{Ops: 60, Faults: true})
		requireClean(t, cfg, plan)
	}
}

// TestShardedBrokenInvalidationCaught proves the sharded auditors have
// teeth: with the invalidation path deliberately broken on every shard, some
// audit must fail.
func TestShardedBrokenInvalidationCaught(t *testing.T) {
	cfg := EngineConfig{Strategy: "immediate", Shards: 2, Broken: true}
	for seed := int64(1); seed <= 8; seed++ {
		plan := Generate(seed, GenOptions{Ops: 100})
		res := Run(cfg, plan)
		if res.Violation != nil {
			if !strings.Contains(res.Violation.String(), "shard") {
				t.Fatalf("violation lacks shard attribution: %s", res.Violation)
			}
			return
		}
	}
	t.Fatal("broken invalidation survived 8 sharded seeds without an audit failure")
}
