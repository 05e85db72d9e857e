package sim

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// baseConfigs are the clean (non-broken, default-geometry) cells of the
// engine matrix the smoke sweeps cover.
func baseConfigs() []EngineConfig {
	var out []EngineConfig
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		for _, sc := range []bool{false, true} {
			out = append(out, EngineConfig{Strategy: strat, SecondChance: sc})
		}
	}
	return out
}

func requireClean(t *testing.T, cfg EngineConfig, plan Plan) *Result {
	t.Helper()
	res := Run(cfg, plan)
	if res.Violation != nil {
		a := ShrinkToArtifact(cfg, plan, t.Name())
		path := filepath.Join("testdata", "sim", "repro-"+t.Name()+".json")
		if err := a.Save(path); err != nil {
			t.Logf("saving reproducer: %v", err)
		} else {
			t.Logf("shrunk reproducer (%d ops) written to %s", len(a.Ops), path)
		}
		t.Fatalf("config %s seed %d: %s", cfg, plan.Seed, res.Violation)
	}
	return res
}

// TestSimShortSeeds runs a batch of seeded workloads against every strategy
// and expects every invariant audit to pass. On failure the trace is shrunk
// and a replayable artifact lands in testdata/sim/.
func TestSimShortSeeds(t *testing.T) {
	for _, cfg := range []EngineConfig{
		{Strategy: "immediate"},
		{Strategy: "lazy"},
		{Strategy: "deferred"},
	} {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			seeds := int64(10)
			if testing.Short() {
				seeds = 4
			}
			for seed := int64(1); seed <= seeds; seed++ {
				plan := Generate(seed, GenOptions{Ops: 120})
				requireClean(t, cfg, plan)
			}
		})
	}
}

// TestMatrixSweep smokes the full strategy x second-chance matrix
// (plus an MDS column) on a couple of seeds each.
func TestMatrixSweep(t *testing.T) {
	cfgs := baseConfigs()
	cfgs = append(cfgs,
		EngineConfig{Strategy: "immediate", UseMDS: true},
		EngineConfig{Strategy: "deferred", UseMDS: true},
	)
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(100); seed < 102; seed++ {
				plan := Generate(seed, GenOptions{Ops: 80})
				requireClean(t, cfg, plan)
			}
		})
	}
}

// TestChargeDeterminism pins the acceptance criterion: the same seed and
// strategy produce a byte-identical op trace and a byte-identical simulated
// Clock snapshot across buffer-shard counts {1,4,16}. Shards affect only
// locking — the simulated cost model must not notice them.
func TestChargeDeterminism(t *testing.T) {
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			plan := Generate(42, GenOptions{Ops: 150})
			base := requireClean(t, EngineConfig{Strategy: strat, BufferShards: 1}, plan)
			for _, shards := range []int{4, 16} {
				cfg := EngineConfig{Strategy: strat, BufferShards: shards}
				res := requireClean(t, cfg, plan)
				if res.TraceHash != base.TraceHash {
					diff := firstTraceDiff(base.Trace, res.Trace)
					t.Fatalf("%s: trace diverges from shards=1 baseline:\n%s", cfg, diff)
				}
				if res.Clock != base.Clock {
					t.Fatalf("%s: clock snapshot diverges:\nbase: %+v\n got: %+v", cfg, base.Clock, res.Clock)
				}
			}
		})
	}
}

func firstTraceDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return "base: " + a[i] + "\n got: " + b[i]
		}
	}
	return "traces differ in length: " + strconv.Itoa(len(a)) + " vs " + strconv.Itoa(len(b))
}

// TestSeedStability: the same seed must expand to the same plan — the
// generator is the other half of the determinism contract.
func TestSeedStability(t *testing.T) {
	a := Generate(7, GenOptions{Ops: 100, Faults: true})
	b := Generate(7, GenOptions{Ops: 100, Faults: true})
	if len(a.Ops) != len(b.Ops) || a.Init != b.Init {
		t.Fatalf("plan shape differs: %d/%d ops, init %d/%d", len(a.Ops), len(b.Ops), a.Init, b.Init)
	}
	ra := Run(EngineConfig{Strategy: "deferred"}, a)
	rb := Run(EngineConfig{Strategy: "deferred"}, b)
	if ra.TraceHash != rb.TraceHash {
		t.Fatal("same seed produced diverging traces")
	}
}

// TestFaultWindows runs seeds whose plans include scripted fault windows:
// the engine must survive injected read/write failures (typed errors, no
// panic), and after recovery every audit must pass. At least one seed must
// actually inject a fault, or the windows are vacuous.
func TestFaultWindows(t *testing.T) {
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			injected := 0
			seeds := int64(8)
			if testing.Short() {
				seeds = 3
			}
			// 493..495 all inject under every strategy, so the -short run
			// is not vacuous.
			for seed := int64(493); seed < 493+seeds; seed++ {
				plan := Generate(seed, GenOptions{Ops: 100, Faults: true})
				res := requireClean(t, EngineConfig{Strategy: strat}, plan)
				injected += res.FaultsInjected
			}
			if injected == 0 {
				t.Fatal("no faults injected across any seed; fault windows are vacuous")
			}
		})
	}
}

// TestMutationSmoke proves the auditors have teeth: with the deliberately
// broken invalidation path armed, updates leave stale valid entries behind,
// and the Definition 3.2 auditor MUST report a violation. The failing trace
// is then shrunk to a minimal reproducer, saved, reloaded, and replayed.
func TestMutationSmoke(t *testing.T) {
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			cfg := EngineConfig{Strategy: strat, Broken: true}
			var failing Plan
			found := false
			for seed := int64(1); seed <= 5 && !found; seed++ {
				plan := Generate(seed, GenOptions{Ops: 120})
				if Run(cfg, plan).Violation != nil {
					failing, found = plan, true
				}
			}
			if !found {
				t.Fatal("broken invalidation survived 5 seeds undetected: auditors have no teeth")
			}

			a := ShrinkToArtifact(cfg, failing, t.Name())
			if len(a.Ops) >= len(failing.Ops) {
				t.Errorf("shrink did not reduce: %d -> %d ops", len(failing.Ops), len(a.Ops))
			}
			if a.Violation == "" {
				t.Fatal("shrunk artifact lost the violation")
			}

			path := filepath.Join(t.TempDir(), "repro.json")
			if err := a.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			res := Replay(loaded)
			if res.Violation == nil {
				t.Fatal("replayed artifact no longer reproduces the violation")
			}
			t.Logf("shrunk %d -> %d ops; violation: %s", len(failing.Ops), len(a.Ops), res.Violation)
		})
	}
}

// TestBrokenHookOffIsClean is the other half of the mutation smoke test:
// with the hook disarmed the very same seeds pass, so the violations above
// are attributable to the sabotage, not the workload.
func TestBrokenHookOffIsClean(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plan := Generate(seed, GenOptions{Ops: 120})
		requireClean(t, EngineConfig{Strategy: "immediate"}, plan)
	}
}

// TestReplayCommittedArtifacts replays every artifact committed under
// testdata/sim and expects each to reproduce its recorded outcome: a
// violation when one was recorded, a clean run otherwise.
func TestReplayCommittedArtifacts(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "sim", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no committed artifacts")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			a, err := LoadArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			res := Replay(a)
			if a.Violation != "" && res.Violation == nil {
				t.Fatalf("artifact records violation %q but replay is clean", a.Violation)
			}
			if a.Violation == "" && res.Violation != nil {
				t.Fatalf("artifact records a clean run but replay violates: %s", res.Violation)
			}
		})
	}
}

// TestSnapshotReadsDontPerturbCharges pins the MVCC cost contract: snapshot
// reads charge a throwaway clock, so a plan runs to the same trace (snap-read
// lines aside) and the byte-identical Clock snapshot with its snap-read ops
// stripped. The generated plan must actually contain snap-reads, or the
// comparison is vacuous.
func TestSnapshotReadsDontPerturbCharges(t *testing.T) {
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			plan := Generate(1234, GenOptions{Ops: 140})
			snaps := 0
			stripped := Plan{Seed: plan.Seed, Init: plan.Init}
			for _, op := range plan.Ops {
				if op.Kind == OpSnapRead {
					snaps++
					continue
				}
				stripped.Ops = append(stripped.Ops, op)
			}
			if snaps == 0 {
				t.Fatal("plan contains no snap-read ops; the comparison is vacuous")
			}
			cfg := EngineConfig{Strategy: strat}
			full := requireClean(t, cfg, plan)
			base := requireClean(t, cfg, stripped)
			if full.Clock != base.Clock {
				t.Fatalf("snapshot reads perturbed the cost snapshot:\nwith:    %+v\nwithout: %+v",
					full.Clock, base.Clock)
			}
			// The non-snap portion of the trace must be identical op for op
			// (indices shift when ops are stripped, so compare kind+detail).
			var fullOps []string
			for _, line := range full.Trace {
				if len(line) > 5 && !strings.HasPrefix(line[5:], string(OpSnapRead)) {
					fullOps = append(fullOps, line[5:])
				}
			}
			for i, line := range base.Trace {
				if i >= len(fullOps) || fullOps[i] != line[5:] {
					t.Fatalf("trace diverges at stripped op %d:\nwith:    %s\nwithout: %s",
						i, fullOps[i], line[5:])
				}
			}
		})
	}
}

// TestReclusterMatrix runs plans with injected reclustering passes across
// the full strategy x durability matrix. Every quiescent audit — including
// the directory <-> heap correspondence auditor — must pass in every cell,
// and at least one pass per cell must actually move objects, or the coverage
// is vacuous.
func TestReclusterMatrix(t *testing.T) {
	for _, strat := range []string{"immediate", "lazy", "deferred"} {
		for _, durable := range []bool{false, true} {
			cfg := EngineConfig{Strategy: strat, Durable: durable}
			t.Run(cfg.String(), func(t *testing.T) {
				t.Parallel()
				seeds := int64(3)
				if testing.Short() {
					seeds = 1
				}
				moved := false
				for seed := int64(7000); seed < 7000+seeds; seed++ {
					plan := Generate(seed, GenOptions{Ops: 90, Recluster: true})
					reclusters := 0
					for _, op := range plan.Ops {
						if op.Kind == OpRecluster {
							reclusters++
						}
					}
					if reclusters == 0 {
						t.Fatalf("seed %d: generator injected no recluster ops", seed)
					}
					res := requireClean(t, cfg, plan)
					for _, line := range res.Trace {
						if strings.Contains(line, string(OpRecluster)) && strings.Contains(line, "moved") &&
							!strings.Contains(line, "moved 0/") {
							moved = true
						}
					}
				}
				if !moved {
					t.Fatal("no reclustering pass moved anything in any seed; coverage is vacuous")
				}
			})
		}
	}
}

// TestReclusterUnderFaultsAndCrashes: reclustering passes must coexist with
// fault windows (the relocation aborts all-or-nothing on an injected failure)
// and crash-restart points (recovery comes back in exactly one layout). Every
// post-recovery and quiescent audit must pass.
func TestReclusterUnderFaultsAndCrashes(t *testing.T) {
	dir := t.TempDir()
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	reclusters := 0
	for seed := int64(7700); seed < 7700+seeds; seed++ {
		plan := Generate(seed, GenOptions{Ops: 90, Faults: true, Crashes: true, Recluster: true})
		for _, op := range plan.Ops {
			if op.Kind == OpRecluster {
				reclusters++
			}
		}
		cfg := EngineConfig{Strategy: "lazy", Durable: true,
			CrashDir: filepath.Join(dir, fmt.Sprintf("seed%d", seed))}
		requireClean(t, cfg, plan)
	}
	if reclusters == 0 {
		t.Fatal("no recluster ops across any fault/crash plan; coverage is vacuous")
	}
}

// TestSnapshotReadsUnderFaultsAndCrashes: snap-read ops must coexist with
// scripted fault windows and crash-restart points — reads may fail inside a
// window (tolerated, recorded), pins never leak across a crash, and every
// post-recovery audit still passes.
func TestSnapshotReadsUnderFaultsAndCrashes(t *testing.T) {
	dir := t.TempDir()
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	snaps := 0
	for seed := int64(900); seed < 900+seeds; seed++ {
		plan := Generate(seed, GenOptions{Ops: 100, Faults: true, Crashes: true})
		for _, op := range plan.Ops {
			if op.Kind == OpSnapRead {
				snaps++
			}
		}
		cfg := EngineConfig{Strategy: "lazy", Durable: true,
			CrashDir: filepath.Join(dir, fmt.Sprintf("seed%d", seed))}
		requireClean(t, cfg, plan)
	}
	if snaps == 0 {
		t.Fatal("no snap-read ops across any fault/crash plan; coverage is vacuous")
	}
}
