package main

import (
	"fmt"
	"math/rand"

	"gomdb"
)

// updateCold is the paper's regime: a 600 KB pool under a base several
// times larger, volume rematerialized immediately and weight lazily. It uses
// core the other way round from readHot — RRR lookup, invalidation, both
// rematerialization strategies, through lang and object down to buffer-pool
// misses and dirty evictions.
type updateCold struct {
	*world
	scaleBy [2]gomdb.OID // the scale vector and its inverse
	scaled  []bool       // generator state: which cuboids are scaled up
}

const (
	ucMove = iota
	ucScale
	ucLazyFwd
)

var updateColdClasses = []class{
	{"move", 5500, "gomdb.move_p50_us", 1e3},
	{"scale", 500, "gomdb.scale_p50_us", 1e3},
	{"lazy_fwd", 4000, "gomdb.lazy_fwd_p50_us", 1e3},
}

// A cuboid is scaled by scaleUp and, the next time, by scaleDown, so
// volumes do not drift over a long run.
var (
	scaleUp   = [3]float64{1.25, 0.8, 1.5}
	scaleDown = [3]float64{0.8, 1.25, 1 / 1.5}
)

func (w *updateCold) classes() []class { return updateColdClasses }
func (w *updateCold) spansPerOp() int  { return 3 }
func (w *updateCold) base() *world     { return w.world }
func (w *updateCold) close()           {}

func (w *updateCold) setup(seed int64, _ string) (err error) {
	gvol := gomdb.MaterializeOptions{Name: "Gvol", Funcs: []string{"Cuboid.volume"},
		Complete: true, Mode: gomdb.ModeObjDep, Strategy: gomdb.Immediate}
	gwt := gomdb.MaterializeOptions{Name: "Gwt", Funcs: []string{"Cuboid.weight"},
		Complete: true, Mode: gomdb.ModeObjDep, Strategy: gomdb.Lazy}
	if w.world, err = newWorld(gomdb.Config{BufferPages: coldPool}, seed, gvol, gwt); err != nil {
		return err
	}
	for k, s := range [2][3]float64{scaleUp, scaleDown} {
		if w.scaleBy[k], err = w.db.New("Vertex", gomdb.Float(s[0]), gomdb.Float(s[1]), gomdb.Float(s[2])); err != nil {
			return err
		}
	}
	w.scaled = make([]bool, len(w.cub))
	return nil
}

// genMove draws one vertex move: any of the eight vertices (four of which
// volume depends on), one coordinate, a new absolute value.
func genMove(rng *rand.Rand, o *op, n int) {
	o.i, o.v, o.c = uint32(rng.Intn(n)), uint8(rng.Intn(8)), uint8(rng.Intn(3))
	o.x = rng.Float64() * 110
}

func (w *updateCold) gen(rng *rand.Rand, buf []op) {
	dealClasses(rng, buf, updateColdClasses)
	for k := range buf {
		o := &buf[k]
		switch o.class {
		case ucMove:
			genMove(rng, o, len(w.cub))
		case ucScale:
			o.i = uint32(rng.Intn(len(w.cub)))
			o.v = 0
			if w.scaled[o.i] {
				o.v = 1
			}
			w.scaled[o.i] = !w.scaled[o.i]
		default:
			o.i = uint32(rng.Intn(len(w.cub)))
		}
	}
}

// updater is what a vertex move needs; the facade and a batch's Tx both
// have it.
type updater interface {
	GetAttr(gomdb.OID, string) (gomdb.Value, error)
	Set(gomdb.OID, string, gomdb.Value) error
}

// move performs one vertex move — read the cuboid's vertex reference, set
// one coordinate of that vertex — and records it in the oracle.
func (w *world) move(o *op, u updater, rec *recorder, spGet, spSet uint8) bool {
	id := rec.begin(spGet)
	ref, err := u.GetAttr(w.cub[o.i], vertexAttr[o.v])
	rec.end(id)
	if err != nil || ref.R != w.vert[o.i][o.v] {
		return false
	}
	id = rec.begin(spSet)
	err = u.Set(ref.R, coordAttr[o.c], gomdb.Float(o.x))
	rec.end(id)
	if err != nil {
		return false
	}
	w.pos[o.i][o.v][o.c] = o.x
	w.updates++
	return true
}

func (w *updateCold) do(o *op, rec *recorder) bool {
	switch o.class {
	case ucMove:
		return w.move(o, w.db, rec, spGetAttr, spSet)
	case ucScale:
		id := rec.begin(spCall)
		_, err := w.db.Call("Cuboid.scale", gomdb.Ref(w.cub[o.i]), gomdb.Ref(w.scaleBy[o.v]))
		rec.end(id)
		if err != nil {
			return false
		}
		s := scaleUp
		if o.v == 1 {
			s = scaleDown
		}
		for v := range w.pos[o.i] {
			for c := range s {
				w.pos[o.i][v][c] *= s[c]
			}
		}
		w.updates += 24
		return true
	default:
		id := rec.begin(spCall)
		v, err := w.db.Call("Cuboid.weight", gomdb.Ref(w.cub[o.i]))
		rec.end(id)
		return err == nil && closeTo(v.F, w.weight(o.i))
	}
}

func (w *updateCold) layers(metrics, []span) error { return nil }

// check audits both GMRs, then recomputes 500 sampled weights in plain Go
// from coordinates read back through GetAttr — not from the oracle, which
// the per-operation checks already used.
func (w *updateCold) check(metrics) error {
	if err := w.checkGMRs("Gvol", "Gwt"); err != nil {
		return err
	}
	saved := w.pos
	defer func() { w.pos = saved }()
	if err := w.readBack(); err != nil {
		return err
	}
	for k := 0; k < 500; k++ {
		i := uint32(k * len(w.cub) / 500)
		v, err := w.db.Call("Cuboid.weight", gomdb.Ref(w.cub[i]))
		if err != nil {
			return err
		}
		if !closeTo(v.F, w.weight(i)) {
			return fmt.Errorf("cuboid %d: weight %v, recomputed %v", i, v.F, w.weight(i))
		}
		for vx := range saved[i] {
			if saved[i][vx] != w.pos[i][vx] {
				return fmt.Errorf("cuboid %d vertex %d: stored %v, last written %v", i, vx+1, w.pos[i][vx], saved[i][vx])
			}
		}
	}
	return nil
}
