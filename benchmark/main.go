// Command benchmark is the repository's benchmark: four closed-loop,
// one-client workloads over the geometry base, measured end to end and — in
// a separate traced run — layer by layer, from outside the engine. See
// README.md in this directory for the workloads, the metrics and the method.
//
// The driver runs
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"gomdb"
	"gomdb/internal/core"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: read-hot, update-cold, durable-batch, served-point, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the base and of the operation stream")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "sizes the measured phase: it is this many times the workload's operations per second on the reference box")
	flag.BoolVar(&cfg.quick, "quick", false, "divide every operation count by 20")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass and the layer ladder")
	flag.StringVar(&cfg.work, "work", "", "directory for the durable workload's files (default: the system's temp directory)")
	flag.StringVar(&cfg.out, "out", "", "directory to write <workload>.trace.jsonl into (with -trace 1; default: not written)")
	aa := flag.Int("aa", 0, "run this many full sets and compare their medians against the bounds")
	runs := flag.Int("runs", 5, "with -aa: runs per workload in a set, each with its own seed")
	flag.Parse()

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	var err error
	if *aa > 0 {
		err = runAA(cfg, *aa, *runs)
	} else {
		err = runNamed(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	quick    bool
	trace    int
	work     string
	out      string
}

// segmentOps is the operation count of one segment of def's stream: a
// tenth of the measured phase.
func (cfg config) segmentOps(def workloadDef) int {
	ops := def.opsPerSecond * cfg.seconds / phaseSegments
	if cfg.quick {
		ops /= 20
	}
	return max(int(ops), 1)
}

// result is one run's verdict. Its JSON form is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	values metrics
	detail map[string]any
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func selected(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.Name == name {
			return []workloadDef{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runNamed runs the selected workloads and prints, per workload, a line of
// details (host, sizes, sample counts) and the result line.
func runNamed(cfg config) error {
	defs, err := selected(cfg.workload)
	if err != nil {
		return err
	}
	var failed []string
	for _, def := range defs {
		res, err := run(def, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		detail, _ := json.Marshal(res.detail)
		line, _ := json.Marshal(res)
		fmt.Printf("%s\n%s\n", detail, line)
		if !res.Correct {
			failed = append(failed, def.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("checks failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

// The stream of a run, by segment number: the warm-up, the measured phase,
// and the slices of the traced pass (a traced run makes the pass in place of
// the measured phase).
const (
	warmSegment      = 0
	measuredSegments = 1
	tracedSlices     = measuredSegments + phaseSegments
	// The traced pass is as long as one segment, cut into slices that are
	// alternately untraced and traced.
	traceSlices = 2 * phaseSegments
)

// run sets a workload up, warms it, measures it and checks it.
func run(def workloadDef, cfg config) (*result, error) {
	work := cfg.work
	if work == "" {
		work = os.TempDir()
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	segOps := cfg.segmentOps(def)
	res := &result{values: metrics{}, detail: map[string]any{
		"workload": def.Name, "seed": cfg.seed, "host": hostBlock(), "segment_ops": segOps,
	}}
	m := res.values
	// The traced pass of a stream of one-operation segments is the longer one.
	log, err := newSampleLog(max(phaseSegments*segOps, traceSlices))
	if err != nil {
		return nil, err
	}
	defer log.close()
	// The operations too stay outside the heap, for the sample log's reason.
	mem, buf, err := mapOffHeap[op](segOps)
	if err != nil {
		return nil, err
	}
	defer syscall.Munmap(mem)

	// Set-up is timed once, warm-up included: the first tenth of the stream.
	t := now()
	w := def.new()
	defer w.close()
	if err := w.setup(cfg.seed, dir); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.Attempted, res.Failed = phase(w, cfg.seed, warmSegment, 1, buf, untraced, nil, log)
	m["setup_s"] = float64(now()-t) / 1e9

	var checkErr error
	if cfg.trace == 0 {
		checkErr = measure(w, cfg, buf, log, res)
	} else {
		checkErr, err = layerPass(w, cfg, buf, dir, log, res)
		if err != nil {
			return nil, err
		}
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %v\n", def.Name, checkErr)
	}
	res.Correct = checkErr == nil && res.Failed == 0

	defs := endToEnd
	if cfg.trace != 0 {
		defs = perLayer
	}
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	return res, nil
}

// measure is the untraced measured phase: the end-to-end metrics. Rate and
// percentiles come from the segments kept by summarize, counts from the
// whole phase.
func measure(w workload, cfg config, buf []op, log *sampleLog, res *result) (checkErr error) {
	m, db := res.values, w.base().db
	log.n = 0
	sim0, pc0 := db.SimSeconds(), readProcCounters()
	att, fail := phase(w, cfg.seed, measuredSegments, phaseSegments, buf, untraced, nil, log)
	sim1, pc1 := db.SimSeconds(), readProcCounters()
	m["live_heap_mb"] = liveHeapMiB()
	res.Attempted += att
	res.Failed += fail

	pt := summarize(log.ns[:log.n], len(buf), func(int) bool { return true })
	ops := float64(att)
	m["ops_per_s"] = pt.opsPerSec()
	p50, _ := pt.h.quantile(0.5)
	m["op_p50_us"] = p50 / 1e3
	q, tail, beyond := pt.h.tailQuantile()
	m["op_tail_us"] = tail / 1e3
	m["allocs_per_op"] = float64(pc1.mallocs-pc0.mallocs) / ops
	m["alloc_bytes_per_op"] = float64(pc1.allocBytes-pc0.allocBytes) / ops
	m["sim_s_per_kop"] = (sim1 - sim0) / ops * 1000
	res.detail["measured"] = map[string]any{
		"ops": att, "seconds": float64(log.total()) / 1e9, "segments": pt.segments, "kept_segments": pt.kept,
		"kept_samples": pt.h.n, "tail_percentile": q * 100, "samples_beyond_tail": beyond,
	}
	return w.check(m)
}

// layerPass is the traced run: a pass whose slices alternate between
// untraced and traced, the per-class and counter metrics taken from it, the
// workload's own layer metrics, the embedded ladder and the host canaries.
// Only an error of the measuring itself is returned as err.
func layerPass(w workload, cfg config, buf []op, dir string, log *sampleLog, res *result) (checkErr, err error) {
	m, wd := res.values, w.base()
	buf = buf[:max(len(buf)/traceSlices, 1)]
	rec, err := newRecorder(traceSlices / 2 * len(buf) * w.spansPerOp())
	if err != nil {
		return nil, err
	}
	defer rec.close()
	log.n = 0
	heap0 := liveHeapMiB()
	before := wd.counters()
	att, fail := phase(w, cfg.seed, tracedSlices, traceSlices, buf, tracedSlice, rec, log)
	wd.counters().since(before, float64(att), m)
	m["runtime.live_heap_growth_b_per_op"] = (liveHeapMiB() - heap0) * (1 << 20) / float64(att)
	res.Attempted += att
	res.Failed += fail

	// Per-class medians, from the root spans.
	byClass := make([][]float64, len(w.classes()))
	for _, s := range rec.spans {
		if s.name >= spClass {
			byClass[s.name-spClass] = append(byClass[s.name-spClass], float64(s.end-s.start))
		}
	}
	for c, cl := range w.classes() {
		m[cl.metric] = median(byClass[c]) / cl.unitNS
	}
	plain := summarize(log.ns[:log.n], len(buf), func(k int) bool { return !tracedSlice(k) })
	traced := summarize(log.ns[:log.n], len(buf), tracedSlice)
	m["trace.overhead_pct"] = (plain.opsPerSec()/traced.opsPerSec() - 1) * 100
	res.detail["traced"] = map[string]any{"ops": att, "spans": len(rec.spans), "slice_ops": len(buf)}

	if err := w.layers(m, rec.spans); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	m["storage.heap_pages"] = float64(wd.db.Disk.NextPage())
	if err := wd.ladder(m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := canaries(m, dir); err != nil {
		return nil, fmt.Errorf("canaries: %w", err)
	}
	if cfg.out != "" {
		names := make([]string, len(w.classes()))
		for c, cl := range w.classes() {
			names[c] = cl.name
		}
		path := filepath.Join(cfg.out, res.detail["workload"].(string)+".trace.jsonl")
		if err := writeTrace(path, rec.spans, names); err != nil {
			return nil, err
		}
		res.detail["trace_file"] = path
	}
	return w.check(m), nil
}

// worldCounters are the counters the layers export, read around a phase.
type worldCounters struct {
	proc         procCounters
	clock        gomdb.Clock
	hits, misses int64
	core         core.Stats
	updates      int64
}

func (w *world) counters() worldCounters {
	c := worldCounters{proc: readProcCounters(), clock: w.db.Snapshot(), core: w.db.GMRs.Stats, updates: w.updates}
	c.hits, c.misses = w.db.Pool.HitStats()
	return c
}

// since writes the counter metrics of the phase between before and c.
func (c worldCounters) since(before worldCounters, ops float64, m metrics) {
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	s, s0 := &c.core, &before.core
	updates := c.updates - before.updates
	fwdHits, fwdMisses := s.ForwardHits-s0.ForwardHits, s.ForwardMisses-s0.ForwardMisses
	flushes := s.Flushes - s0.Flushes
	m["core.forward_hit_ratio"] = ratio(fwdHits, fwdHits+fwdMisses)
	m["core.rrr_lookups_per_update"] = ratio(s.RRRLookups-s0.RRRLookups, updates)
	m["core.invalidations_per_update"] = ratio(s.Invalidations-s0.Invalidations, updates)
	m["core.remats_per_update"] = ratio(s.Rematerializations-s0.Rematerializations, updates)
	m["core.coalesce_ratio"] = ratio(s.CoalescedUpdates-s0.CoalescedUpdates, s.DeferredUpdates-s0.DeferredUpdates)
	m["core.flush_wall_ms_per_batch"] = ratio(s.FlushWallNanos-s0.FlushWallNanos, flushes) / 1e6
	m["core.flush_eval_ms_per_batch"] = ratio(s.FlushEvalNanos-s0.FlushEvalNanos, flushes) / 1e6
	m["core.deferred_forces_per_op"] = float64(s.DeferredForces-s0.DeferredForces) / ops

	hits, misses := c.hits-before.hits, c.misses-before.misses
	m["storage.pool_hit_ratio"] = ratio(hits, hits+misses)
	m["storage.phys_reads_per_op"] = float64(c.clock.PhysReads-before.clock.PhysReads) / ops
	m["storage.phys_writes_per_op"] = float64(c.clock.PhysWrites-before.clock.PhysWrites) / ops
	m["storage.cpu_ops_per_op"] = float64(c.clock.CPUOps-before.clock.CPUOps) / ops

	p, q := c.proc, before.proc
	m["storage.disk_write_bytes_per_op"] = float64(p.wchar-q.wchar) / ops
	m["storage.write_syscalls_per_op"] = float64(p.syscw-q.syscw) / ops
	m["net.syscalls_per_op"] = float64(p.syscr-q.syscr+p.syscw-q.syscw) / ops
	m["runtime.gc_cycles_per_kop"] = float64(p.numGC-q.numGC) / ops * 1000
	m["runtime.gc_pause_us_per_kop"] = float64(p.gcPauseNS-q.gcPauseNS) / ops
	m["runtime.cpu_us_per_op"] = float64(p.cpuNS-q.cpuNS) / 1e3 / ops
	m["runtime.mutex_wait_us_per_kop"] = (p.mutexWaitS - q.mutexWaitS) * 1e9 / ops
}

// hostBlock describes the machine and the runtime a run was made on.
func hostBlock() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu, "cuboids": cuboids,
	}
}

// runAA runs n full sets of the selected workloads in order, each workload
// `runs` times per set with seeds seed, seed+1, ..., prints every end-to-end
// metric's median, quartiles and range per set, and fails when two sets'
// medians differ by more than the metric's bound: the benchmark's own test
// that it can tell a change from noise.
func runAA(cfg config, n, runs int) error {
	defs, err := selected(cfg.workload)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := make([]map[key][]float64, n)
	for s := range sets {
		sets[s] = map[key][]float64{}
		for _, def := range defs {
			for r := 0; r < runs; r++ {
				c := cfg
				c.seed, c.trace = cfg.seed+int64(r), 0
				res, err := run(def, c)
				if err != nil {
					return fmt.Errorf("%s: %w", def.Name, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s: seed %d: checks failed", def.Name, c.seed)
				}
				for _, d := range endToEnd {
					k := key{def.Name, d.Name}
					sets[s][k] = append(sets[s][k], res.values[d.Name])
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d: %.0f ops/s\n", s+1, def.Name, c.seed, res.values["ops_per_s"])
			}
		}
	}
	var bad []string
	for _, def := range defs {
		for _, d := range endToEnd {
			k := key{def.Name, d.Name}
			var lo, hi float64
			for s := range sets {
				v := append([]float64(nil), sets[s][k]...)
				sort.Float64s(v)
				med := median(v)
				fmt.Printf("%-14s %-19s set %d: median %-12.6g q1 %-12.6g q3 %-12.6g range/median %.4f\n",
					def.Name, d.Name, s+1, med, v[len(v)/4], v[len(v)*3/4], (v[len(v)-1]-v[0])/med)
				if s == 0 || med < lo {
					lo = med
				}
				if s == 0 || med > hi {
					hi = med
				}
			}
			switch diff := (hi - lo) / lo; {
			case diff > d.Bound:
				bad = append(bad, fmt.Sprintf("%s %s: set medians %g..%g differ by more than %g", def.Name, d.Name, lo, hi, d.Bound))
			case diff > d.Bound/2:
				fmt.Printf("%-14s %-19s set medians differ by %.4f, over half the bound\n", def.Name, d.Name, diff)
			}
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "\n"))
	}
	return nil
}
