// Command gomsim drives the deterministic simulation harness (internal/sim):
// seeded random workloads executed against a chosen engine configuration (or
// the whole strategy matrix), with invariant audits at every quiescent point.
// On an invariant violation the failing op trace is shrunk to a minimal
// reproducer and written as a replayable JSON artifact.
//
// Usage:
//
//	gomsim -seeds 25                         # 25 seeds, all strategies
//	gomsim -seed 42 -strategy deferred -v    # one seed, one config, full trace
//	gomsim -seeds 100 -faults -ops 250       # nightly-style fault campaign
//	gomsim -seed-base 20260805 -seeds 50     # rotating nightly seed window
//	gomsim -durable -crashes -seeds 25       # crash-recovery campaign
//	gomsim -shards 4 -faults -durable -crashes  # sharded fault+crash campaign
//	gomsim -ocb -seeds 25                    # generated OCB-style object bases
//	gomsim -ocb -shards 4 -faults -durable -crashes  # ... through the router
//	gomsim -replay testdata/sim/repro.json   # re-run a saved reproducer
//
// With -durable each run executes against a file-backed store; -crashes
// additionally inserts crash-restart points (crash mid-batch, mid-flush,
// mid-materialize, torn page write) into every plan. -recluster inserts
// trace-driven reclustering passes (after fault/crash injection, so they can
// land inside fault windows and next to crash points); the directory ↔ heap
// auditor then verifies every relocation left the base intact. With
// -shards N every plan runs through the internal/shard scatter-gather router
// over N engines; a fault window targets one shard's disk and a crash point
// kills all shards with the mid-checkpoint cut armed on one (the op's selector
// mod N picks it, so a campaign reaches every shard), and the audits add the
// router's cross-shard routing invariants. With -ocb each workload runs
// against a generated OCB-style object base (internal/ocb demo parameters)
// instead of the hand-built fixture. One runner executes every combination:
// -ocb and -shards are independent of each other and of all the other axes.
// A violating durable run is re-executed with its store pinned under -out, so
// the on-disk state that fed recovery ships alongside the shrunk reproducer.
//
// Exit status is 0 when every run is clean (or a replayed artifact
// reproduces its recorded outcome) and 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gomdb/internal/ocb"
	"gomdb/internal/sim"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 10, "number of consecutive seeds to run")
		seed      = flag.Int64("seed", 0, "run exactly this seed (overrides -seeds)")
		seedBase  = flag.Int64("seed-base", 1, "first seed of the window (nightly runs rotate this, e.g. -seed-base $(date +%Y%m%d))")
		ops       = flag.Int("ops", 150, "ops per workload")
		strategy  = flag.String("strategy", "", "immediate|lazy|deferred (default: all three)")
		sc        = flag.Bool("second-chance", false, "enable second-chance immediate(o)")
		mds       = flag.Bool("mds", false, "maintain the multidimensional index")
		shards    = flag.Int("shards", 0, "horizontal shard count: run plans through the scatter-gather router over this many engines (0 = single engine)")
		bufShards = flag.Int("buffer-shards", 0, "buffer pool lock-stripe count (0 = default)")
		faults    = flag.Bool("faults", false, "insert scripted fault windows into each plan")
		recl      = flag.Bool("recluster", false, "insert trace-driven reclustering passes into each plan")
		useOCB    = flag.Bool("ocb", false, "run each workload against a generated OCB-style object base (demo parameters)")
		durable   = flag.Bool("durable", false, "run against a file-backed store (checkpoints + WAL + recovery)")
		crashes   = flag.Bool("crashes", false, "insert crash-restart points into each plan (implies -durable)")
		broken    = flag.Bool("broken", false, "arm the deliberately-broken invalidation path (audits must fail)")
		outDir    = flag.String("out", filepath.Join("testdata", "sim"), "directory for shrunk reproducer artifacts")
		replay    = flag.String("replay", "", "replay a saved artifact instead of generating workloads")
		verbose   = flag.Bool("v", false, "print the full op trace of every run")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay, *verbose))
	}

	var configs []sim.EngineConfig
	strategies := []string{"immediate", "lazy", "deferred"}
	if *strategy != "" {
		strategies = []string{*strategy}
	}
	if *crashes {
		*durable = true
	}
	var ocbParams *ocb.Params
	if *useOCB {
		p := ocb.Demo()
		ocbParams = &p
	}
	for _, s := range strategies {
		configs = append(configs, sim.EngineConfig{
			Strategy: s, SecondChance: *sc, UseMDS: *mds,
			BufferShards: *bufShards, Shards: *shards,
			Broken: *broken, Durable: *durable,
			OCB: ocbParams,
		})
	}

	first, count := *seedBase, int64(*seeds)
	if *seed != 0 {
		first, count = *seed, 1
	}

	failures := 0
	for _, cfg := range configs {
		for s := first; s < first+count; s++ {
			opt := sim.GenOptions{Ops: *ops, Faults: *faults, Crashes: *crashes, Recluster: *recl}
			var plan sim.Plan
			if ocbParams != nil {
				plan = sim.GenerateOCB(s, *ocbParams, opt)
			} else {
				plan = sim.Generate(s, opt)
			}
			res := sim.Run(cfg, plan)
			status := "ok"
			if res.Violation != nil {
				status = "VIOLATION " + res.Violation.String()
			}
			fmt.Printf("seed %-6d %-24s ops=%-4d faults=%-3d sim=%8.2fs %s\n",
				s, cfg, len(plan.Ops), res.FaultsInjected, res.Clock.SimSeconds(), status)
			if *verbose {
				for _, line := range res.Trace {
					fmt.Println("  " + line)
				}
			}
			if res.Violation == nil {
				continue
			}
			failures++
			a := sim.ShrinkToArtifact(cfg, plan, "gomsim")
			path := filepath.Join(*outDir, fmt.Sprintf("repro-seed%d-%s.json", s, cfg))
			if err := a.Save(path); err != nil {
				fmt.Fprintf(os.Stderr, "saving reproducer: %v\n", err)
			} else {
				fmt.Printf("  shrunk to %d ops -> %s\n", len(a.Ops), path)
			}
			if cfg.Durable {
				// Re-run the shrunk reproducer with its store pinned next to
				// the artifact: the directory holds the exact on-disk state
				// (data file, WAL, checkpoint metadata) recovery last saw.
				pinned := a.Config
				pinned.CrashDir = filepath.Join(*outDir, fmt.Sprintf("db-seed%d-%s", s, cfg))
				sim.Run(pinned, a.Plan())
				fmt.Printf("  durable store preserved in %s\n", pinned.CrashDir)
			}
		}
	}
	if failures > 0 {
		fmt.Printf("%d run(s) violated invariants\n", failures)
		os.Exit(1)
	}
	fmt.Println("all runs clean")
}

func runReplay(path string, verbose bool) int {
	a, err := sim.LoadArtifact(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res := sim.Replay(a)
	if verbose {
		for _, line := range res.Trace {
			fmt.Println(line)
		}
	}
	switch {
	case res.Violation != nil:
		fmt.Printf("replay of %s: VIOLATION %s\n", path, res.Violation)
		if a.Violation == "" {
			return 1 // artifact claimed a clean run
		}
		return 0 // reproduced the recorded violation
	case a.Violation != "":
		fmt.Printf("replay of %s: clean, but artifact records %q — no longer reproduces\n", path, a.Violation)
		return 1
	default:
		fmt.Printf("replay of %s: clean\n", path)
		return 0
	}
}
