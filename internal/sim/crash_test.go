package sim

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// countCrashes reports how many crash-restart points a plan contains, so the
// crash campaigns can assert they are not vacuously green.
func countCrashes(p Plan) int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind == OpCrash {
			n++
		}
	}
	return n
}

// countCutsFired reports how many of a run's armed mid-commit cuts
// (TestingFailNextCheckpoint at a generated byte offset) actually cut a WAL
// append short. A cut armed beyond the end of its group lets the commit
// complete, so a campaign whose batches all shrank below the generated
// offsets would stay green while no longer testing a torn WAL tail.
func countCutsFired(trace []string) int { return countTraceLines(trace, "WAL append cut off") }

// countTornFired reports how many of a run's armed torn writes actually tore
// a data-file record. The tear can only fire inside a checkpoint's apply, so
// a campaign in which no checkpoint ran one would stay green while no longer
// testing a torn data page repaired from the WAL.
func countTornFired(trace []string) int { return countTraceLines(trace, "torn write of page") }

// countTraceLines counts the trace lines containing substr.
func countTraceLines(trace []string, substr string) int {
	n := 0
	for _, line := range trace {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// TestCrashRecoveryMatrix is the durability acceptance sweep: seeded
// workloads with generated crash-restart points (crash now, mid-batch WAL
// cut, mid-flush, mid-materialize, torn data-file write) run against every
// strategy on a file-backed database, and every post-recovery and scheduled
// audit must pass. A recovery error — or a recovered state that violates
// Definition 3.2, loses committed objects, or resurrects discarded deferred
// work — fails here with a shrunk replayable artifact.
func TestCrashRecoveryMatrix(t *testing.T) {
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			seeds := int64(8)
			if testing.Short() {
				seeds = 3
			}
			crashes, cuts, torn := 0, 0, 0
			for seed := int64(900); seed < 900+seeds; seed++ {
				plan := Generate(seed, GenOptions{Ops: 100, Crashes: true})
				crashes += countCrashes(plan)
				res := requireClean(t, EngineConfig{Strategy: strat, Durable: true}, plan)
				cuts += countCutsFired(res.Trace)
				torn += countTornFired(res.Trace)
			}
			if crashes == 0 {
				t.Fatal("no crash ops generated across any seed; the campaign is vacuous")
			}
			if cuts == 0 {
				t.Fatal("no mid-commit cut fired across any seed: every generated cut point lies beyond its WAL group")
			}
			// The three -short seeds generate no torn op at all.
			if !testing.Short() && torn == 0 {
				t.Fatal("no torn write fired across any seed: no checkpoint applied a page the rule could tear")
			}
		})
	}
}

// TestCrashUnderFaultWindows combines the two failure axes: scripted disk
// faults AND crash-restart points in the same plan. A crash inside an open
// fault window implicitly closes it (the fault plan dies with the process),
// and the recovered engine must still audit clean.
func TestCrashUnderFaultWindows(t *testing.T) {
	for _, strat := range []string{"immediate", "deferred"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			seeds := int64(4)
			if testing.Short() {
				seeds = 2
			}
			for seed := int64(1300); seed < 1300+seeds; seed++ {
				plan := Generate(seed, GenOptions{Ops: 90, Faults: true, Crashes: true})
				requireClean(t, EngineConfig{Strategy: strat, Durable: true}, plan)
			}
		})
	}
}

// TestDurableTraceParity pins the "simulated Clock is bit-identical whether
// durability is on or off" guarantee end to end: the same crash-free plan,
// run in-memory and file-backed, must produce byte-identical traces and
// byte-identical Clock snapshots. Checkpoint I/O is real but charge-free.
func TestDurableTraceParity(t *testing.T) {
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			plan := Generate(77, GenOptions{Ops: 120})
			mem := requireClean(t, EngineConfig{Strategy: strat}, plan)
			dur := requireClean(t, EngineConfig{Strategy: strat, Durable: true}, plan)
			if mem.TraceHash != dur.TraceHash {
				t.Fatalf("durable trace diverges from in-memory:\n%s", firstTraceDiff(mem.Trace, dur.Trace))
			}
			if mem.Clock != dur.Clock {
				t.Fatalf("durable Clock diverges from in-memory:\nmem: %+v\ndur: %+v", mem.Clock, dur.Clock)
			}
		})
	}
}

// TestCrashDeterminism extends the charge-determinism contract across the
// crash-recovery path: the same durable crash plan must produce a
// byte-identical trace (including recovery counters: WAL pages replayed,
// torn pages repaired, objects restored) and Clock snapshot across
// buffer-shard counts. Recovery is replay plus rematerialization, both of
// which iterate in canonical order.
func TestCrashDeterminism(t *testing.T) {
	for _, strat := range []string{"immediate", "deferred"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			plan := Generate(911, GenOptions{Ops: 90, Crashes: true})
			if countCrashes(plan) == 0 {
				t.Fatal("seed 911 generated no crash ops; pick another seed")
			}
			base := requireClean(t, EngineConfig{Strategy: strat, Durable: true, BufferShards: 1}, plan)
			cfg := EngineConfig{Strategy: strat, Durable: true, BufferShards: 4}
			res := requireClean(t, cfg, plan)
			if res.TraceHash != base.TraceHash {
				t.Fatalf("%s: trace diverges:\n%s", cfg, firstTraceDiff(base.Trace, res.Trace))
			}
			if res.Clock != base.Clock {
				t.Fatalf("%s: clock diverges:\nbase: %+v\n got: %+v", cfg, base.Clock, res.Clock)
			}
		})
	}
}

// TestCrashViolationShrinksAndReplays proves a failure on the durable path
// flows through the whole reproducer pipeline: with the broken-invalidation
// hook armed, a crash plan still violates (the crash heals stale entries,
// but post-recovery updates re-break them), the trace shrinks, the artifact
// round-trips through JSON with its Durable flag intact, and the replay
// reproduces the violation on a fresh store.
func TestCrashViolationShrinksAndReplays(t *testing.T) {
	cfg := EngineConfig{Strategy: "immediate", Durable: true, Broken: true}
	var failing Plan
	found := false
	for seed := int64(1); seed <= 5 && !found; seed++ {
		plan := Generate(seed, GenOptions{Ops: 80, Crashes: true})
		if Run(cfg, plan).Violation != nil {
			failing, found = plan, true
		}
	}
	if !found {
		t.Fatal("broken invalidation survived 5 durable crash seeds undetected")
	}
	a := ShrinkToArtifact(cfg, failing, t.Name())
	if a.Violation == "" {
		t.Fatal("shrunk artifact lost the violation")
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Config.Durable {
		t.Fatalf("artifact dropped the Durable flag: %s", data)
	}
	if res := Replay(loaded); res.Violation == nil {
		t.Fatal("replayed durable artifact no longer reproduces the violation")
	}
}
