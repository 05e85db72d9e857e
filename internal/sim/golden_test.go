package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Every other determinism test compares two runs of the same binary, so a
// change that consistently shifted a selector or reordered a flush would pass
// them all. The golden pins absolute trace hashes and Clock snapshots; it
// moves only on purpose:
//
//	go test ./internal/sim -run TestTraceGolden -update
var (
	updateGolden = flag.Bool("update", false, "regenerate testdata/traces.golden from this binary")
	dumpTraces   = flag.String("dump", "", "write full traces (lines, not hashes) of every cell over 12 seeds to this file")
)

const goldenPath = "testdata/traces.golden"

// goldenSeeds are clean in every cell at the commit the golden was first
// recorded on (seed 12, for one, was not: the sharded fault+crash cells
// violated there).
var goldenSeeds = []int64{3, 5}

type simCell struct {
	name string
	cfg  EngineConfig
	opt  GenOptions
}

func (c simCell) plan(seed int64) Plan {
	if c.cfg.OCB != nil {
		return GenerateOCB(seed, *c.cfg.OCB, c.opt)
	}
	return Generate(seed, c.opt)
}

// simCells crosses backend x fixture x strategy x the given option sets.
// New backend/fixture combinations go at the END of backends, so the lines
// they add to the golden are appended rather than interleaved.
func simCells(optSets []simCell) []simCell {
	backends := []simCell{
		{name: "plain"},
		{name: "sharded1", cfg: EngineConfig{Shards: 1}},
		{name: "sharded4", cfg: EngineConfig{Shards: 4}},
		{name: "ocb", cfg: EngineConfig{OCB: &ocbTestParams}},
		{name: "ocb+sharded1", cfg: EngineConfig{OCB: &ocbTestParams, Shards: 1}},
		{name: "ocb+sharded4", cfg: EngineConfig{OCB: &ocbTestParams, Shards: 4}},
	}
	var out []simCell
	for _, b := range backends {
		for _, strat := range []string{"immediate", "lazy", "deferred"} {
			for _, o := range optSets {
				cfg := o.cfg
				cfg.Strategy, cfg.Shards, cfg.OCB = strat, b.cfg.Shards, b.cfg.OCB
				out = append(out, simCell{name: b.name + "/" + strat + "/" + o.name, cfg: cfg, opt: o.opt})
			}
		}
	}
	return out
}

var goldenOptSets = []simCell{
	{name: "base", opt: GenOptions{Ops: 100}},
	{name: "faults", opt: GenOptions{Ops: 100, Faults: true}},
	{name: "durable+crashes", cfg: EngineConfig{Durable: true}, opt: GenOptions{Ops: 100, Crashes: true}},
	{name: "recluster", opt: GenOptions{Ops: 100, Recluster: true}},
}

// runCells executes every (cell, seed) pair on a small worker pool and
// returns one rendered block per pair, in cell-major order.
func runCells(cells []simCell, seeds []int64, render func(simCell, int64, *Result) string) []string {
	out := make([]string, len(cells)*len(seeds))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				c, seed := cells[j/len(seeds)], seeds[j%len(seeds)]
				out[j] = render(c, seed, Run(c.cfg, c.plan(seed)))
			}
		}()
	}
	for j := range out {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	return out
}

// TestTraceGolden pins the absolute TraceHash and Clock of {plain, sharded1,
// sharded4, OCB, OCB x sharded} x {immediate, lazy, deferred} x {base,
// faults, durable+crashes, recluster} on two seeds.
func TestTraceGolden(t *testing.T) {
	lines := runCells(simCells(goldenOptSets), goldenSeeds, func(c simCell, seed int64, res *Result) string {
		if res.Violation != nil {
			t.Errorf("%s seed %d: %s", c.name, seed, res.Violation)
		}
		return fmt.Sprintf("%s seed=%d hash=%016x clock=%+v", c.name, seed, res.TraceHash, res.Clock)
	})
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if t.Failed() {
			t.Fatal("refusing to record a golden over violating runs")
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d lines, this binary produces %d", len(wantLines), len(lines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Errorf("golden line %d moved:\nwant: %s\n got: %s", i+1, wantLines[i], lines[i])
		}
	}
}

// TestTraceDump is the refactoring aid behind the golden: with -dump=FILE it
// writes every trace line (and violation) of a wider matrix — the golden's
// option sets plus everything-at-once, Broken and 2c+mds — over 12
// seeds, so two binaries can be diffed line by line.
func TestTraceDump(t *testing.T) {
	if *dumpTraces == "" {
		t.Skip("no -dump file given")
	}
	optSets := append(append([]simCell(nil), goldenOptSets...),
		simCell{name: "all", cfg: EngineConfig{Durable: true},
			opt: GenOptions{Ops: 100, Faults: true, Crashes: true, Recluster: true}},
		simCell{name: "broken", cfg: EngineConfig{Broken: true}, opt: GenOptions{Ops: 100}},
		simCell{name: "2c+mds", cfg: EngineConfig{SecondChance: true, UseMDS: true},
			opt: GenOptions{Ops: 100, Faults: true}},
	)
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	blocks := runCells(simCells(optSets), seeds, func(c simCell, seed int64, res *Result) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "== %s seed=%d clock=%+v faults=%d\n", c.name, seed, res.Clock, res.FaultsInjected)
		for _, line := range res.Trace {
			sb.WriteString(line + "\n")
		}
		if res.Violation != nil {
			fmt.Fprintf(&sb, "VIOLATION %s\n", res.Violation)
		}
		return sb.String()
	})
	if err := os.WriteFile(*dumpTraces, []byte(strings.Join(blocks, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}
