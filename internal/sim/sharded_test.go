package sim

import (
	"fmt"
	"regexp"
	"strconv"
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

// cutsOffShard0 counts the mid-commit cuts that fired on a shard other
// than 0: the router prefixes the failing shard to the commit error.
func cutsOffShard0(trace []string) int {
	off := regexp.MustCompile(`ERR shard [1-9][0-9]*: .*WAL append cut off`)
	n := 0
	for _, line := range trace {
		if off.MatchString(line) {
			n++
		}
	}
	return n
}

// faultsOffShard0 sums the disk faults injected inside fault windows armed on
// a shard other than 0. Every fault-clear line carries the running total, so
// a window's share is the difference to the previous one; a window that
// overlaps one on a different shard is left out rather than guessed at.
func faultsOffShard0(trace []string) int {
	n, prev, armed := 0, 0, -1
	for _, line := range trace {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		switch f[1] {
		case "fault":
			sh, _ := strconv.Atoi(f[3])
			if armed >= 0 && armed != sh {
				sh = 0
			}
			armed = sh
		case "fault-clear":
			var rebuilt, total int
			if _, err := fmt.Sscanf(strings.Join(f[2:], " "), "recovered (%d GMRs rebuilt, %d faults so far)", &rebuilt, &total); err != nil {
				continue
			}
			if armed > 0 {
				n += total - prev
			}
			prev, armed = total, -1
		}
	}
	return n
}

// TestShardedDurableCrashes: the crash campaign against a 2-shard durable
// router — mid-checkpoint failures are armed on one shard only, so recovery
// must rebuild a coherent routing table from shards at different checkpoint
// horizons. Which shard is the op's selector mod the shard count; a campaign
// whose cuts all fired on shard 0 is the targeting bug this guards against.
func TestShardedDurableCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("durable sharded crash campaign skipped in -short")
	}
	cfg := EngineConfig{Strategy: "immediate", Shards: 2, Durable: true}
	cuts, torn, off := 0, 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		plan := Generate(seed, GenOptions{Ops: 60, Crashes: true})
		res := requireClean(t, cfg, plan)
		cuts += countCutsFired(res.Trace)
		torn += countTornFired(res.Trace)
		off += cutsOffShard0(res.Trace)
	}
	if cuts == 0 {
		t.Fatal("no mid-commit cut fired on any shard across the seeds")
	}
	if torn == 0 {
		t.Fatal("no torn write fired on any shard across the seeds")
	}
	if off == 0 {
		t.Fatalf("all %d cuts fired on shard 0: crash ops are not reaching the other shards", cuts)
	}
}

// TestShardedFaults: a fault window armed on one shard's disk must leave the
// other shards untouched and recover cleanly at the window close. A shard
// holding a quarter of the base rarely does the physical I/O a rule can fail,
// so the seed window is wide enough that some window bites — and at least one
// fault must land on a shard other than 0.
func TestShardedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded fault campaign skipped in -short")
	}
	cfg := EngineConfig{Strategy: "deferred", Shards: 4}
	total, off := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		plan := Generate(seed, GenOptions{Ops: 60, Faults: true})
		res := requireClean(t, cfg, plan)
		total += res.FaultsInjected
		off += faultsOffShard0(res.Trace)
	}
	if off == 0 {
		t.Fatalf("%d faults injected, none on a shard other than 0: fault windows are not reaching the other shards", total)
	}
	t.Logf("%d faults injected, %d of them on shards 1..3", total, off)
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
