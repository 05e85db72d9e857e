package main

// The object base every workload runs on, and the plain-Go oracle the
// answers are checked against.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gomdb"
	"gomdb/internal/fixtures"
)

// cuboids is the size of the base: 4000 cuboids with their 32 000 vertices
// are 36 000 objects on about 430 heap pages, about 1030 pages with the GMRs.
// The paper's base has 8000; populating is super-linear today (0.3 / 0.6 /
// 1.8 / 5.5 s at 1 / 2 / 4 / 8 k), which setup_s shows at 4000 without the
// set-up eating the time budget. (A variable only so that the tests can run
// on a smaller base.)
var cuboids = 4000

// op is one generated operation. Which fields a class reads is the
// workload's business; the stream carries no pointers.
type op struct {
	class uint8
	v, c  uint8   // vertex 0..7 and coordinate 0..2
	i     uint32  // cuboid index
	x, y  float64 // new coordinate, or the bounds of a window
}

// class describes one kind of operation of a workload: its share of the
// stream in ten-thousandths, and the per-layer metric its median latency in
// the traced pass is reported as (unitNS nanoseconds to the unit).
type class struct {
	name   string
	weight int
	metric string
	unitNS float64
}

// workload is one of the benchmark's four. A workload is set up, warmed,
// measured and checked by run; what it adds is its world, its stream and the
// layer metrics only it can take.
type workload interface {
	classes() []class
	spansPerOp() int // most spans one traced operation records
	setup(seed int64, dir string) error
	base() *world
	gen(rng *rand.Rand, buf []op)
	do(o *op, rec *recorder) bool // false: the operation failed or answered wrongly
	layers(m metrics, spans []span) error
	check(m metrics) error // end-of-run checks; the world is unusable afterwards
	close()
}

// dealClasses gives every operation of buf its class: each class gets its
// exact share of the segment (rounding leftovers go round), in an order drawn
// from rng. Every segment therefore holds the same mix, and a segment that
// runs slowly does so because the machine was busy, not because it drew many
// expensive operations.
func dealClasses(rng *rand.Rand, buf []op, cs []class) {
	n, k := len(buf), 0
	for c, cl := range cs {
		for j := cl.weight * n / 10000; j > 0 && k < n; j-- {
			buf[k].class = uint8(c)
			k++
		}
	}
	for c := 0; k < n; c, k = (c+1)%len(cs), k+1 { // what rounding left over
		buf[k].class = uint8(c)
	}
	rng.Shuffle(n, func(i, j int) { buf[i].class, buf[j].class = buf[j].class, buf[i].class })
}

var (
	vertexAttr = [8]string{"V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8"}
	coordAttr  = [3]string{"X", "Y", "Z"}
	// volumeVertices are the vertices Cuboid.volume reads: V1, V2, V4, V5.
	volumeVertices = [4]uint8{0, 1, 3, 4}
)

// world is a populated geometry base plus what the benchmark knows about it
// without asking the engine again: object identifiers resolved at set-up and
// the coordinates as last written.
type world struct {
	db   *gomdb.Database
	cub  []gomdb.OID
	vert [][8]gomdb.OID
	pos  [][8][3]float64
	spec []float64 // specific weight of each cuboid's material
	// updates counts the elementary updates (attribute sets) the workload
	// has made, the base of the per-update layer metrics.
	updates int64
}

func defineSchema(db *gomdb.Database) error { return fixtures.DefineGeometry(db, false) }

// newWorld opens a database (durable when cfg.Path is set), populates it
// from seed, materializes gmrs and reads the oracle's tables back through
// the facade.
func newWorld(cfg gomdb.Config, seed int64, gmrs ...gomdb.MaterializeOptions) (*world, error) {
	var db *gomdb.Database
	if cfg.Path != "" {
		cfg.DefineSchema = defineSchema
		var err error
		if db, err = gomdb.OpenAt(cfg); err != nil {
			return nil, err
		}
	} else {
		db = gomdb.Open(cfg)
		if err := defineSchema(db); err != nil {
			return nil, err
		}
	}
	g, err := fixtures.PopulateGeometry(db, cuboids, seed)
	if err != nil {
		return nil, err
	}
	w := &world{db: db, cub: g.Cuboids}
	for _, opts := range gmrs {
		if _, err := db.Materialize(opts); err != nil {
			return nil, err
		}
	}
	return w, w.readBack()
}

// readBack fills the oracle's tables from the database.
func (w *world) readBack() error {
	n := len(w.cub)
	w.vert = make([][8]gomdb.OID, n)
	w.pos = make([][8][3]float64, n)
	w.spec = make([]float64, n)
	for i, c := range w.cub {
		for v, va := range vertexAttr {
			ref, err := w.db.GetAttr(c, va)
			if err != nil {
				return err
			}
			w.vert[i][v] = ref.R
			for k, ca := range coordAttr {
				x, err := w.db.GetAttr(ref.R, ca)
				if err != nil {
					return err
				}
				w.pos[i][v][k] = x.F
			}
		}
		mat, err := w.db.GetAttr(c, "Mat")
		if err != nil {
			return err
		}
		sw, err := w.db.GetAttr(mat.R, "SpecWeight")
		if err != nil {
			return err
		}
		w.spec[i] = sw.F
	}
	return nil
}

func dist(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// volume and weight recompute Cuboid.volume and Cuboid.weight in plain Go,
// in the schema's order of operations.
func (w *world) volume(i uint32) float64 {
	p := &w.pos[i]
	return dist(p[0], p[1]) * dist(p[0], p[3]) * dist(p[0], p[4])
}

func (w *world) weight(i uint32) float64 { return w.volume(i) * w.spec[i] }

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
}

// sortedVolumes returns every cuboid's volume in ascending order, the table
// window queries are checked against.
func (w *world) sortedVolumes() []float64 {
	s := make([]float64, len(w.cub))
	for i := range s {
		s[i] = w.volume(uint32(i))
	}
	sort.Float64s(s)
	return s
}

// inWindow counts the values of sorted in [lo, hi], or in (lo, hi) when
// strict.
func inWindow(sorted []float64, lo, hi float64, strict bool) int {
	if strict {
		a := sort.Search(len(sorted), func(i int) bool { return sorted[i] > lo })
		b := sort.SearchFloat64s(sorted, hi)
		return max(b-a, 0)
	}
	a := sort.SearchFloat64s(sorted, lo)
	b := sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi })
	return b - a
}

// checkGMRs audits each named GMR against Definition 3.2 and completeness.
func (w *world) checkGMRs(names ...string) error {
	for _, name := range names {
		rep, err := w.db.CheckConsistency(name, 1e-9, true)
		if err != nil {
			return err
		}
		if err := rep.Err(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// gvw is the complete ⟨volume, weight⟩ GMR of the read, durable and served
// workloads.
func gvw(strategy gomdb.Strategy) gomdb.MaterializeOptions {
	return gomdb.MaterializeOptions{
		Name:     "Gvw",
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
		Strategy: strategy,
	}
}

// hotPool holds the whole base many times over, so a workload that uses it
// never waits for the simulated disk; coldPool is the paper's 600 KB.
const (
	hotPool  = 16384
	coldPool = 150
)
