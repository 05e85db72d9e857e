package main

import (
	"math/rand"

	"gomdb"
)

// readHot is the read-only workload on a pool that holds the base many
// times over: the facade's fast path, core's lookup, the B+-tree and the
// query layer do all the work, and storage, wire and the WAL none.
type readHot struct {
	*world
	sorted []float64 // volumes ascending; the base never changes
}

const (
	rhFwd = iota
	rhGetAttr
	rhBackward
	rhQuery
	rhRetrieve
)

// The weights are chosen so that each class holds between 5 % and 40 % of
// the run time (the traced pass reports the shares).
var readHotClasses = []class{
	{"fwd", 7500, "gomdb.fwd_p50_ns", 1},
	{"getattr", 2250, "gomdb.getattr_p50_ns", 1},
	{"backward", 200, "gomdb.backward_p50_us", 1e3},
	{"query", 45, "gomdb.query_p50_us", 1e3},
	{"retrieve", 5, "gomdb.retrieve_p50_us", 1e3},
}

const windowQuery = `range c: Cuboid retrieve c.volume where c.volume > $lo and c.volume < $hi`

func (w *readHot) classes() []class { return readHotClasses }
func (w *readHot) spansPerOp() int  { return 2 }
func (w *readHot) base() *world     { return w.world }
func (w *readHot) close()           {}

func (w *readHot) setup(seed int64, _ string) (err error) {
	w.world, err = newWorld(gomdb.Config{BufferPages: hotPool}, seed, gvw(gomdb.Immediate))
	if err == nil {
		w.sorted = w.sortedVolumes()
	}
	return err
}

// genWindow draws a volume window of width 5, which a dozen of the 4000
// cuboids fall into.
func genWindow(rng *rand.Rand, o *op) {
	o.x = rng.Float64() * 400
	o.y = o.x + 5
}

func (w *readHot) gen(rng *rand.Rand, buf []op) {
	dealClasses(rng, buf, readHotClasses)
	for k := range buf {
		o := &buf[k]
		switch o.class {
		case rhFwd:
			o.i = uint32(rng.Intn(len(w.cub)))
		case rhGetAttr:
			o.i, o.v, o.c = uint32(rng.Intn(len(w.cub))), uint8(rng.Intn(8)), uint8(rng.Intn(3))
		default:
			genWindow(rng, o)
		}
	}
}

func (w *readHot) do(o *op, rec *recorder) bool {
	switch o.class {
	case rhFwd:
		id := rec.begin(spCall)
		v, err := w.db.Call("Cuboid.volume", gomdb.Ref(w.cub[o.i]))
		rec.end(id)
		return err == nil && closeTo(v.F, w.volume(o.i))
	case rhGetAttr:
		id := rec.begin(spGetAttr)
		v, err := w.db.GetAttr(w.vert[o.i][o.v], coordAttr[o.c])
		rec.end(id)
		return err == nil && v.F == w.pos[o.i][o.v][o.c]
	case rhBackward:
		id := rec.begin(spBackward)
		ms, err := w.db.Backward("Cuboid.volume", o.x, o.y)
		rec.end(id)
		if err != nil || len(ms) != inWindow(w.sorted, o.x, o.y, false) {
			return false
		}
		for _, m := range ms {
			if m.Result.F < o.x || m.Result.F > o.y {
				return false
			}
		}
		return true
	case rhQuery:
		id := rec.begin(spQuery)
		res, err := w.db.Query(windowQuery, map[string]gomdb.Value{"lo": gomdb.Float(o.x), "hi": gomdb.Float(o.y)})
		rec.end(id)
		if err != nil || len(res.Rows) != inWindow(w.sorted, o.x, o.y, true) {
			return false
		}
		for _, r := range res.Rows {
			if len(r) != 1 || r[0].F <= o.x || r[0].F >= o.y {
				return false
			}
		}
		return true
	default:
		id := rec.begin(spRetrieve)
		rows, err := w.db.Retrieve("Gvw", []gomdb.FieldSpec{gomdb.AnySpec(), gomdb.RangeSpec(o.x, o.y), gomdb.AnySpec()})
		rec.end(id)
		if err != nil || len(rows) != inWindow(w.sorted, o.x, o.y, false) {
			return false
		}
		for _, r := range rows {
			if len(r.Results) != 2 || r.Results[0].F < o.x || r.Results[0].F > o.y {
				return false
			}
		}
		return true
	}
}

func (w *readHot) layers(m metrics, spans []span) error {
	// The shares that show the class weights do what they are chosen for.
	var total float64
	byClass := make([]float64, len(readHotClasses))
	for _, s := range spans {
		if s.name >= spClass {
			byClass[s.name-spClass] += float64(s.end - s.start)
			total += float64(s.end - s.start)
		}
	}
	for c, cl := range readHotClasses {
		if total > 0 {
			m["gomdb."+cl.name+"_time_share"] = byClass[c] / total
		}
	}
	return nil
}

// check: the GMR is still consistent and complete. Every answer was checked
// against the oracle as it arrived.
func (w *readHot) check(metrics) error { return w.checkGMRs("Gvw") }
