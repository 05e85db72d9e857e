package sim

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"gomdb/internal/ocb"
)

// ocbTestParams is the sim harness's generated-base fixture: deep enough for
// Omid/Odeep to exist, small enough that every matrix cell stays fast.
var ocbTestParams = ocb.Params{Classes: 4, FanOut: 2, Depth: 2, NumAttrs: 3,
	Instances: 12, HotFraction: 0.25, Skew: 0.8}

// TestOCBMatrix crosses the OCB fixture with the axes the hand-built fixture
// already covers: strategies x {base, durable, durable+crashes, faults,
// recluster, 1 and 4 router shards}. The auditors are the same
// fixture-agnostic ones — Def 3.2 congruence, RRR support, pins, directory,
// and under the router the routing table — now judging object bases nobody
// hand-designed. Every run is repeated and must reproduce its trace.
func TestOCBMatrix(t *testing.T) {
	type cell struct {
		name string
		cfg  EngineConfig
		opt  GenOptions
	}
	cells := []cell{
		{"base", EngineConfig{}, GenOptions{Ops: 120}},
		{"durable", EngineConfig{Durable: true}, GenOptions{Ops: 120}},
		{"durable+crashes", EngineConfig{Durable: true}, GenOptions{Ops: 120, Crashes: true}},
		{"faults", EngineConfig{}, GenOptions{Ops: 120, Faults: true}},
		{"recluster", EngineConfig{}, GenOptions{Ops: 120, Recluster: true}},
		{"sharded1", EngineConfig{Shards: 1}, GenOptions{Ops: 120}},
		{"sharded4", EngineConfig{Shards: 4}, GenOptions{Ops: 120}},
	}
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		for _, c := range cells {
			cfg := c.cfg
			cfg.Strategy = strat
			cfg.OCB = &ocbTestParams
			opt := c.opt
			name := strat + "/" + c.name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				seeds := int64(3)
				if testing.Short() {
					seeds = 1
				}
				cuts, torn := 0, 0
				for seed := int64(300); seed < 300+seeds; seed++ {
					run := cfg
					if run.Durable {
						run.CrashDir = filepath.Join(t.TempDir(), fmt.Sprintf("seed%d", seed))
					}
					plan := GenerateOCB(seed, ocbTestParams, opt)
					res := requireClean(t, run, plan)
					if again := requireClean(t, run, plan); again.TraceHash != res.TraceHash || again.Clock != res.Clock {
						t.Fatalf("seed %d: second run diverged:\n%s", seed, firstTraceDiff(res.Trace, again.Trace))
					}
					if opt.Crashes && !traceContains(res.Trace, "crash") {
						t.Fatal("crash cell generated no crash ops (vacuous)")
					}
					cuts += countCutsFired(res.Trace)
					torn += countTornFired(res.Trace)
					if opt.Recluster && !traceContains(res.Trace, "recluster") {
						t.Fatal("recluster cell generated no recluster ops (vacuous)")
					}
					if opt.Faults && !traceContains(res.Trace, "fault") {
						t.Fatal("fault cell generated no fault windows (vacuous)")
					}
				}
				// One seed (-short) arms too few cuts and tears to demand
				// that one fired.
				if opt.Crashes && !testing.Short() && cuts == 0 {
					t.Fatal("crash cell: no mid-commit cut fired across the seeds")
				}
				if opt.Crashes && !testing.Short() && torn == 0 {
					t.Fatal("crash cell: no torn write fired across the seeds")
				}
			})
		}
	}
}

func traceContains(trace []string, substr string) bool {
	for _, line := range trace {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

// TestOCBChargeDeterminism extends the charge-parity pin to the generated
// fixture: same plan, same strategy — byte-identical trace and Clock across
// buffer-shard counts {1,4}.
func TestOCBChargeDeterminism(t *testing.T) {
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			plan := GenerateOCB(42, ocbTestParams, GenOptions{Ops: 120})
			base := requireClean(t, EngineConfig{Strategy: strat, BufferShards: 1, OCB: &ocbTestParams}, plan)
			cfg := EngineConfig{Strategy: strat, BufferShards: 4, OCB: &ocbTestParams}
			res := requireClean(t, cfg, plan)
			if res.TraceHash != base.TraceHash {
				t.Fatalf("%s: trace diverges from shards=1 baseline:\n%s",
					cfg, firstTraceDiff(base.Trace, res.Trace))
			}
			if res.Clock != base.Clock {
				t.Fatalf("%s: clock snapshot diverges:\nbase: %+v\n got: %+v", cfg, base.Clock, res.Clock)
			}
		})
	}
}

// TestOCBSeedStability: GenerateOCB is pure — the same seed expands to the
// same plan, and the plan replays to the same trace hash.
func TestOCBSeedStability(t *testing.T) {
	a := GenerateOCB(7, ocbTestParams, GenOptions{Ops: 100, Faults: true})
	b := GenerateOCB(7, ocbTestParams, GenOptions{Ops: 100, Faults: true})
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("plan shape differs: %d vs %d ops", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if fmt.Sprint(a.Ops[i]) != fmt.Sprint(b.Ops[i]) {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
	cfg := EngineConfig{Strategy: "deferred", OCB: &ocbTestParams}
	r1 := requireClean(t, cfg, a)
	r2 := requireClean(t, cfg, b)
	if r1.TraceHash != r2.TraceHash {
		t.Fatalf("identical plans produced different traces:\n%s", firstTraceDiff(r1.Trace, r2.Trace))
	}
}

// TestOCBFaultWindowsBite sums injected faults across a seed window; zero
// would mean the OCB fault cells are vacuous.
func TestOCBFaultWindowsBite(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 8; seed++ {
		plan := GenerateOCB(seed, ocbTestParams, GenOptions{Ops: 120, Faults: true})
		res := requireClean(t, EngineConfig{Strategy: "lazy", OCB: &ocbTestParams}, plan)
		total += res.FaultsInjected
	}
	if total == 0 {
		t.Fatal("8 seeds of OCB fault plans injected zero faults")
	}
	t.Logf("faults injected across 8 seeds: %d", total)
}

// TestOCBMutationSmoke proves the auditors keep their teeth on generated
// bases: broken invalidation must be caught, the reproducer must shrink, and
// the artifact must replay — the OCB axis rides the existing Artifact
// machinery because EngineConfig (with its OCB field) is embedded in it.
func TestOCBMutationSmoke(t *testing.T) {
	cfg := EngineConfig{Strategy: "immediate", Broken: true, OCB: &ocbTestParams}
	var failing Plan
	found := false
	for seed := int64(1); seed <= 5 && !found; seed++ {
		plan := GenerateOCB(seed, ocbTestParams, GenOptions{Ops: 120})
		if Run(cfg, plan).Violation != nil {
			failing, found = plan, true
		}
	}
	if !found {
		t.Fatal("broken invalidation survived 5 OCB seeds undetected: auditors have no teeth on generated bases")
	}
	a := ShrinkToArtifact(cfg, failing, t.Name())
	if len(a.Ops) >= len(failing.Ops) {
		t.Errorf("shrink did not reduce: %d -> %d ops", len(failing.Ops), len(a.Ops))
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config.OCB == nil {
		t.Fatal("artifact round-trip dropped the OCB params")
	}
	if res := Replay(loaded); res.Violation == nil {
		t.Fatal("replayed OCB artifact no longer reproduces the violation")
	}
}
