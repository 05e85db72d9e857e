package main

// The layer ladder of the embedded engine, and the host canaries. Every
// rung is timed from here, through the layer's exported functions; nothing
// in the engine is instrumented.

import (
	"os"
	"path/filepath"

	"gomdb"
	"gomdb/internal/query"
	"gomdb/internal/storage"
)

// ladder replays the same arguments at successive depths of the embedded
// engine — facade, schema engine, GMR manager, object manager, buffer pool —
// and reports each rung and the differences between neighbours. It runs on
// the workload's own world after the traced pass, over a few hundred
// cuboids so that on the cold pool the rungs compare resident pages.
func (w *world) ladder(m metrics) error {
	db := w.db
	hot := w.cub[:min(256, len(w.cub))]
	var fe firstErr
	keep := fe.keep
	arg := func(i int) gomdb.Value { return gomdb.Ref(hot[i%len(hot)]) }

	const fast, slow = 8000, 500
	rung := probeAll(fast,
		func(i int) { _, e := db.Call("Cuboid.volume", arg(i)); keep(e) },
		func(i int) { _, e := db.Engine.Invoke("Cuboid.volume", arg(i)); keep(e) },
		func(i int) { _, e := db.GMRs.Forward("Cuboid.volume", []gomdb.Value{arg(i)}); keep(e) },
		func(i int) { _, e := db.Objects.Get(hot[i%len(hot)]); keep(e) })
	m["gomdb.call_self_ns"] = rung[0] - rung[1]
	m["schema.invoke_self_ns"] = rung[1] - rung[2]
	m["core.forward_ns"] = rung[2]
	m["object.get_ns"] = rung[3]

	pages := make([]storage.PageID, len(hot))
	for i, c := range hot {
		rid, _ := db.Objects.RIDOf(c)
		pages[i] = rid.Page
	}
	m["storage.pin_unpin_ns"] = probe(fast, func(i int) {
		p := pages[i%len(pages)]
		_, e := db.Pool.Pin(p)
		keep(e)
		keep(db.Pool.Unpin(p, false))
	})

	volume, _ := db.Schema.ResolveOp("Cuboid", "volume")
	m["lang.eval_volume_us"] = probe(slow, func(i int) { _, e := db.Engine.EvalRaw(volume, []gomdb.Value{arg(i)}); keep(e) }) / 1e3
	m["object.put_us"] = probe(slow, func(i int) {
		o, e := db.Objects.Get(hot[i%len(hot)])
		keep(e)
		keep(db.Objects.Put(o))
	}) / 1e3

	// The access paths under a window query, below the facade.
	g, _ := db.GMRs.GMRFor("Cuboid.volume")
	window := func(i int) (lo, hi float64) { lo = float64(i%80) * 5; return lo, lo + 5 }
	m["core.backward_us"] = probe(slow, func(i int) {
		lo, hi := window(i)
		_, e := db.GMRs.Backward("Cuboid.volume", lo, hi)
		keep(e)
	}) / 1e3
	spec := make([]gomdb.FieldSpec, 1+len(g.Funcs))
	for k := range spec {
		spec[k] = gomdb.AnySpec()
	}
	m["core.retrieve_us"] = probe(slow, func(i int) {
		lo, hi := window(i)
		spec[1] = gomdb.RangeSpec(lo, hi)
		_, e := db.GMRs.Retrieve(g.Name, spec)
		keep(e)
	}) / 1e3
	q := probeAll(slow,
		func(int) { _, e := query.Parse(windowQuery); keep(e) },
		func(i int) {
			lo, hi := window(i)
			_, e := db.Query(windowQuery, map[string]gomdb.Value{"lo": gomdb.Float(lo), "hi": gomdb.Float(hi)})
			keep(e)
		})
	m["query.parse_us"] = q[0] / 1e3
	m["query.exec_us"] = (q[1] - q[0]) / 1e3

	// What materialization adds to an update: a set that the GMRs depend on
	// (written with the value it already has) against one they do not.
	set := probeAll(slow,
		func(i int) { k := i % len(hot); keep(db.Set(w.vert[k][0], "X", gomdb.Float(w.pos[k][0][0]))) },
		func(i int) { keep(db.Set(hot[i%len(hot)], "Value", gomdb.Float(50))) })
	m["core.update_overhead_us"] = (set[0] - set[1]) / 1e3
	keep(db.Flush()) // a deferred GMR must not carry the probes' invalidations into the checks
	return fe.err
}

// canaries tell a slow box from a slow program: a fixed integer loop, the
// cost of reading the clock, and a 4 KB write with fsync in the work
// directory. They should move with the host and with nothing in the
// repository.
func canaries(m metrics, dir string) error {
	var x uint32
	m["host.spin_ns"] = probe(1000, func(int) {
		for k := 0; k < 1000; k++ {
			x = x*1664525 + 1013904223
		}
	})
	spinSink = x
	m["host.timer_ns"] = probe(100000, func(int) { now() })

	f, err := os.Create(filepath.Join(dir, "fsync-canary"))
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var page [4096]byte
	var fe firstErr
	m["host.fsync_ms"] = probe(3, func(int) {
		_, e := f.WriteAt(page[:], 0)
		fe.keep(e)
		fe.keep(f.Sync())
	}) / 1e6
	return fe.err
}

// spinSink keeps the spin loop's result alive.
var spinSink uint32
