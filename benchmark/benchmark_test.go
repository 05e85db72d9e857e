package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"gomdb"
)

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.record(v * 1000) // 1 µs .. 1 ms
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond uint64
	}{{0.5, 500_500, 500}, {0.99, 990_000, 10}, {0, 1000, 999}} {
		got, beyond := h.quantile(c.q)
		if math.Abs(got-c.want) > 0.016*c.want { // a bucket is at most 1.6 % wide
			t.Errorf("quantile(%v) = %v, want about %v", c.q, got, c.want)
		}
		if beyond != c.beyond {
			t.Errorf("quantile(%v) leaves %d samples beyond, want %d", c.q, beyond, c.beyond)
		}
	}
	if q, _, beyond := h.tailQuantile(); q != 0.99 || beyond != 10 {
		t.Errorf("tail of 1000 samples: p%v with %d beyond, want p99 with 10", q*100, beyond)
	}
	// 300 samples leave 3 beyond p99 and 15 beyond p95.
	var few hist
	for v := int64(1); v <= 300; v++ {
		few.record(v)
	}
	if q, _, beyond := few.tailQuantile(); q != 0.95 || beyond != 15 {
		t.Errorf("tail of 300 samples: p%v with %d beyond, want p95 with 15", q*100, beyond)
	}
	// Small values are exact, and bucket bounds invert the bucket function.
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 123456789, 1<<40 - 1} {
		lo, width := histBounds(histBucket(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d falls in bucket [%v, %v)", v, lo, lo+width)
		}
	}
}

func TestTrimDropsSlowestSegments(t *testing.T) {
	// Ten segments of two operations each; the per-operation latencies of
	// segment k are ms[k]/2 milliseconds twice.
	var samples []uint32
	for _, ms := range []uint32{10, 11, 50, 10, 12, 90, 10, 11, 70, 13} {
		samples = append(samples, ms*5e5, ms*5e5)
	}
	samples = append(samples, 1) // an unfinished segment does not count
	pt := summarize(samples, 2, func(int) bool { return true })
	if pt.segments != 10 || pt.kept != 7 || pt.ops != 14 {
		t.Fatalf("kept %d of %d segments, %d ops; want 7 of 10, 14", pt.kept, pt.segments, pt.ops)
	}
	if want := int64(77e6); pt.ns != want {
		t.Errorf("kept time %d, want %d: the three slowest segments go", pt.ns, want)
	}
	if got, want := pt.opsPerSec(), 14/0.077; math.Abs(got-want) > 1e-6*want {
		t.Errorf("rate %v, want %v", got, want)
	}
	if pt.h.n != 14 {
		t.Errorf("histogram has %d samples, want all 14 of the kept segments", pt.h.n)
	}
	if _, beyond := pt.h.quantile(0.5); beyond != 7 {
		t.Errorf("%d samples beyond the median, want 7", beyond)
	}
	// Only the odd slices: 11, 10, 90, 11, 13 → one of five goes.
	odd := summarize(samples, 2, tracedSlice)
	if odd.segments != 5 || odd.kept != 4 || odd.ns != 45e6 {
		t.Errorf("odd slices: kept %d of %d, %d ns; want 4 of 5, 45e6", odd.kept, odd.segments, odd.ns)
	}
	if one := summarize(samples[:2], 2, func(int) bool { return true }); one.kept != 1 {
		t.Errorf("a single segment must be kept, kept %d", one.kept)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op 0..100 ─ Batch 10..90 ─ tx.Set 20..30, tx.Set 40..70; then Call 92..98.
	r := &recorder{cur: -1}
	spans := []span{
		{parent: -1, name: spClass, start: 0, end: 100},
		{parent: 0, name: spBatch, start: 10, end: 90},
		{parent: 1, name: spTxSet, start: 20, end: 30},
		{parent: 1, name: spTxSet, start: 40, end: 70},
		{parent: 0, name: spCall, start: 92, end: 98},
	}
	if got, want := selfTimes(spans), []int64{14, 40, 10, 30, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	// The recorder parents a span to the innermost open one.
	op := r.beginOp(0)
	b := r.begin(spBatch)
	r.end(r.begin(spTxSet))
	r.end(b)
	r.end(r.begin(spCall))
	r.end(op)
	var parents []int32
	for _, s := range r.spans {
		parents = append(parents, s.parent)
	}
	if want := []int32{-1, 0, 1, 0}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin(spCall)) // a nil recorder records nothing and does not panic
}

func TestStreamIsPure(t *testing.T) {
	for _, def := range workloads {
		gen := func(seed int64) ([]op, []op) {
			w := def.new()
			stub := &world{cub: make([]gomdb.OID, 100)}
			switch w := w.(type) {
			case *readHot:
				w.world = stub
			case *updateCold:
				w.world, w.scaled = stub, make([]bool, 100)
			case *durableBatch:
				w.world = stub
			case *servedPoint:
				w.world = stub
			}
			buf := make([]op, 64)
			w.gen(rand.New(rand.NewSource(segmentSeed(seed, 3))), buf)
			var moves []op
			if d, ok := w.(*durableBatch); ok {
				moves = d.moves
			}
			return buf, moves
		}
		a, am := gen(7)
		b, bm := gen(7)
		c, cm := gen(8)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(am, bm) {
			t.Errorf("%s: the same seed gave two streams", def.Name)
		}
		if reflect.DeepEqual(a, c) && reflect.DeepEqual(am, cm) {
			t.Errorf("%s: two seeds gave the same stream", def.Name)
		}
	}
}

// TestCountsRepeat runs each workload twice on one seed, -quick and on a
// small base, untraced and traced, and requires every counted metric to
// repeat exactly: simulated seconds, the charges they are made of and the
// maintenance work per update. Bytes written repeat to within a page or a
// wake-up of the runtime's poller (8 bytes to an eventfd), which
// /proc/self/io counts too.
func TestCountsRepeat(t *testing.T) {
	defer func(c, r int) { cuboids, probeRounds = c, r }(cuboids, probeRounds)
	cuboids, probeRounds = 300, 1
	exact := []string{
		"storage.phys_reads_per_op", "storage.phys_writes_per_op", "storage.cpu_ops_per_op",
		"storage.heap_pages",
		"core.rrr_lookups_per_update", "core.invalidations_per_update", "core.remats_per_update",
		"core.forward_hit_ratio", "core.coalesce_ratio",
	}
	for _, def := range workloads {
		var sim [2]float64
		var layers [2]*result
		for k := range sim {
			cfg := config{seed: 5, seconds: 2, quick: true, work: t.TempDir()}
			for cfg.trace = 0; cfg.trace <= 1; cfg.trace++ {
				res, err := run(def, cfg)
				if err != nil {
					t.Fatalf("%s: %v", def.Name, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s: correct=%v attempted=%d failed=%d", def.Name, res.Correct, res.Attempted, res.Failed)
				}
				defs := [][]metricDef{endToEnd, perLayer}[cfg.trace]
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%s: trace %d: %d metrics printed, want %d", def.Name, cfg.trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit || (cfg.trace == 0 && v.Value <= 0) {
						t.Errorf("%s: %s = %+v: must be printed with its unit, an end-to-end metric positive", def.Name, d.Name, v)
					}
				}
				sim[k], layers[k] = max(sim[k], res.values["sim_s_per_kop"]), res
			}
		}
		if sim[0] != sim[1] {
			t.Errorf("%s: sim_s_per_kop = %v, then %v", def.Name, sim[0], sim[1])
		}
		for _, name := range exact {
			if a, b := layers[0].values[name], layers[1].values[name]; a != b {
				t.Errorf("%s: %s = %v, then %v", def.Name, name, a, b)
			}
		}
		const written = "storage.disk_write_bytes_per_op"
		if a, b := layers[0].values[written], layers[1].values[written]; math.Abs(a-b) > 0.01*a {
			t.Errorf("%s: %s = %v, then %v", def.Name, written, a, b)
		}
	}
}

// TestManifest compares BENCHMARK.json with the tables in metrics.go.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, want %d", got.RunSeconds, runSeconds)
	}
	if len(got.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(got.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if g := got.Workloads[i]; g.Name != w.Name || g.Why != w.Why {
			t.Errorf("workload %d is %q (%q), want %q (%q)", i, g.Name, g.Why, w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the table in metrics.go:\n%v\n%v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Error("per_layer differs from the table in metrics.go")
	}
}
