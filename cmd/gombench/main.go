// Command gombench regenerates the tables and figures of the paper's
// evaluation section (Section 7) on the simulated GOM object base.
//
// Usage:
//
//	gombench -figure all            # every experiment at full scale
//	gombench -figure figure10       # one experiment
//	gombench -figure figure7 -short # reduced scale for a quick look
//	gombench -list
//
// Output values are simulated seconds (see DESIGN.md for the cost model);
// the shapes and break-even points are the reproduction target, not the
// absolute numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gomdb/internal/bench"
)

func main() {
	figure := flag.String("figure", "all", "experiment id (table1, figure7..figure15, ablation, throughput, updates, cluster, shard, serve, ocb) or 'all'")
	short := flag.Bool("short", false, "run at reduced scale")
	list := flag.Bool("list", false, "list experiment ids and exit")
	cuboids := flag.Int("cuboids", 0, "override Cuboid database size (default 8000, paper scale)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	plot := flag.Bool("plot", false, "additionally render an ASCII log-scale plot")
	out := flag.String("out", "", "output path for -figure throughput/updates/cluster/shard/serve/ocb (default BENCH_<figure>.json)")
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		fmt.Println("throughput")
		fmt.Println("updates")
		fmt.Println("cluster")
		fmt.Println("shard")
		fmt.Println("serve")
		fmt.Println("ocb")
		return
	}
	sc := bench.FullScale()
	if *short {
		sc = bench.ShortScale()
	}
	if *cuboids > 0 {
		sc.Cuboids = *cuboids
	}

	// The throughput and updates suites report wall-clock numbers alongside
	// (or instead of) simulated seconds, so they live outside the Registry:
	// "-figure all" keeps producing exactly the simulated figures it always
	// has.
	switch strings.ToLower(*figure) {
	case "throughput":
		runThroughput(sc, jsonOut(*out, "BENCH_throughput.json"), *csv, *plot)
		return
	case "updates":
		runUpdates(sc, jsonOut(*out, "BENCH_updates.json"), *csv, *plot)
		return
	case "cluster":
		runCluster(sc, jsonOut(*out, "BENCH_cluster.json"), *csv, *plot)
		return
	case "shard":
		runShard(sc, jsonOut(*out, "BENCH_shard.json"), *csv, *plot)
		return
	case "serve":
		runServe(sc, jsonOut(*out, "BENCH_serve.json"), *csv, *plot)
		return
	case "ocb":
		runSyntheticGrid(sc, jsonOut(*out, "BENCH_ocb.json"), *csv, *plot)
		return
	}

	ids := bench.IDs()
	if *figure != "all" {
		id := strings.ToLower(*figure)
		if _, ok := bench.Registry[id]; !ok {
			fmt.Fprintf(os.Stderr, "gombench: unknown experiment %q (use -list)\n", *figure)
			os.Exit(1)
		}
		ids = []string{id}
	}
	for _, id := range ids {
		t0 := time.Now()
		fig, err := bench.Registry[id](sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gombench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			fig.PrintCSV(os.Stdout)
		} else {
			fig.Print(os.Stdout)
		}
		if *plot {
			fig.PrintPlot(os.Stdout)
		}
		fmt.Printf("  (%s completed in %v wall time)\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
}

// jsonOut resolves the -out flag against a per-figure default.
func jsonOut(out, def string) string {
	if out == "" {
		return def
	}
	return out
}

// writeJSON marshals the report and writes it to out.
func writeJSON(rep any, out, figure string) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gombench: %s: %v\n", figure, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "gombench: %s: %v\n", figure, err)
		os.Exit(1)
	}
	fmt.Printf("  wrote %s\n", out)
}

// warnNumCPU mirrors the report's single-core caveat on stderr so a CI log
// carries it even when nobody opens the JSON.
func warnNumCPU() {
	if w := bench.NumCPUWarning(); w != "" {
		fmt.Fprintf(os.Stderr, "gombench: warning: %s\n", w)
	}
}

// runShard runs the horizontal-sharding wall-clock suite and writes the
// JSON report.
func runShard(sc bench.Scale, out string, csv, plot bool) {
	t0 := time.Now()
	warnNumCPU()
	rep, fig, err := bench.Shard(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gombench: shard: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fig.PrintCSV(os.Stdout)
	} else {
		fig.Print(os.Stdout)
	}
	if plot {
		fig.PrintPlot(os.Stdout)
	}
	for _, m := range rep.Mixes {
		last := m.Points[len(m.Points)-1]
		fmt.Printf("  %-10s 1 shard %8.0f ops/s -> %d shards %8.0f ops/s (%.2fx)\n",
			m.Name, m.Points[0].OpsPerSec, last.Shards, last.OpsPerSec, last.Speedup)
	}
	if pts := rep.Updates.Points; len(pts) > 0 {
		last := pts[len(pts)-1]
		fmt.Printf("  %-10s 1 shard %8.0f ops/s -> %d shards %8.0f ops/s (%.2fx)\n",
			rep.Updates.Name, pts[0].OpsPerSec, last.Shards, last.OpsPerSec, last.Speedup)
	}
	writeJSON(rep, out, "shard")
	fmt.Printf("  (shard completed in %v wall time)\n\n", time.Since(t0).Round(time.Millisecond))
}

// runServe runs the network-service wall-clock suite and writes the JSON
// report.
func runServe(sc bench.Scale, out string, csv, plot bool) {
	t0 := time.Now()
	warnNumCPU()
	rep, fig, err := bench.Serve(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gombench: serve: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fig.PrintCSV(os.Stdout)
	} else {
		fig.Print(os.Stdout)
	}
	if plot {
		fig.PrintPlot(os.Stdout)
	}
	for _, m := range rep.Mixes {
		last := m.Points[len(m.Points)-1]
		fmt.Printf("  %-10s 1 client %8.0f ops/s -> %d clients %8.0f ops/s (%.2fx)\n",
			m.Name, m.Points[0].OpsPerSec, last.Clients, last.OpsPerSec, last.Speedup)
	}
	if pts := rep.Updates.Points; len(pts) > 0 {
		last := pts[len(pts)-1]
		fmt.Printf("  %-10s 1 client %8.0f ops/s -> %d clients %8.0f ops/s (%.2fx)\n",
			rep.Updates.Name, pts[0].OpsPerSec, last.Clients, last.OpsPerSec, last.Speedup)
	}
	writeJSON(rep, out, "serve")
	fmt.Printf("  (serve completed in %v wall time)\n\n", time.Since(t0).Round(time.Millisecond))
}

// runUpdates runs the burst-update suite and writes the JSON report.
func runUpdates(sc bench.Scale, out string, csv, plot bool) {
	t0 := time.Now()
	rep, fig, err := bench.Updates(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gombench: updates: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fig.PrintCSV(os.Stdout)
	} else {
		fig.Print(os.Stdout)
	}
	if plot {
		fig.PrintPlot(os.Stdout)
	}
	writeJSON(rep, out, "updates")
	fmt.Printf("  (updates completed in %v wall time)\n\n", time.Since(t0).Round(time.Millisecond))
}

// runCluster runs the trace-driven clustering suite and writes the JSON
// report.
func runCluster(sc bench.Scale, out string, csv, plot bool) {
	t0 := time.Now()
	rep, fig, err := bench.Cluster(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gombench: cluster: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fig.PrintCSV(os.Stdout)
	} else {
		fig.Print(os.Stdout)
	}
	if plot {
		fig.PrintPlot(os.Stdout)
	}
	for _, m := range rep.Mixes {
		fmt.Printf("  %-18s reads %6d -> %6d (%.1f%% reduction), miss rate %.3f -> %.3f, moved %d/%d, identical=%v\n",
			m.Name, m.Scattered.PhysReads, m.Clustered.PhysReads, 100*m.ReadReduction,
			m.Scattered.BufferMissRate, m.Clustered.BufferMissRate,
			m.Recluster.Moved, m.Recluster.Objects, m.ResultsIdentical)
	}
	writeJSON(rep, out, "cluster")
	fmt.Printf("  (cluster completed in %v wall time)\n\n", time.Since(t0).Round(time.Millisecond))
}

// runSyntheticGrid runs the synthetic-workload grid (generated object bases,
// all simulated charges) and writes the JSON report.
func runSyntheticGrid(sc bench.Scale, out string, csv, plot bool) {
	t0 := time.Now()
	rep, fig, err := bench.OCB(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gombench: ocb: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fig.PrintCSV(os.Stdout)
	} else {
		fig.Print(os.Stdout)
	}
	if plot {
		fig.PrintPlot(os.Stdout)
	}
	for _, m := range rep.Mixes {
		fmt.Printf("  %-15s classes=%d fanout=%d depth=%d objects=%d heap=%dp pool=%dp lazy/deferred CPU=%.2f identical=%v\n",
			m.Name, m.Params.Classes, m.Params.FanOut, m.Params.Depth,
			m.Objects, m.HeapPages, m.BufferPages, m.LazyOverDeferredCPU, m.ResultsIdentical)
	}
	if rep.Tradeoff != "" {
		fmt.Printf("  tradeoff: %s\n", rep.Tradeoff)
	}
	writeJSON(rep, out, "ocb")
	fmt.Printf("  (ocb completed in %v wall time)\n\n", time.Since(t0).Round(time.Millisecond))
}

// runThroughput runs the wall-clock suite and writes the JSON report.
func runThroughput(sc bench.Scale, out string, csv, plot bool) {
	t0 := time.Now()
	warnNumCPU()
	rep, fig, err := bench.Throughput(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gombench: throughput: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fig.PrintCSV(os.Stdout)
	} else {
		fig.Print(os.Stdout)
	}
	if plot {
		fig.PrintPlot(os.Stdout)
	}
	writeJSON(rep, out, "throughput")
	fmt.Printf("  (throughput completed in %v wall time)\n\n", time.Since(t0).Round(time.Millisecond))
}
