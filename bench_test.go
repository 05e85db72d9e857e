package gomdb_test

// One testing.B benchmark per table and figure of the paper's evaluation
// section, plus micro-benchmarks of the hot maintenance paths. The figure
// benchmarks run at a reduced scale so `go test -bench=.` stays fast and
// report the key simulated-seconds numbers as custom metrics; the full-scale
// reproduction is `go run ./cmd/gombench -figure all` (results recorded in
// EXPERIMENTS.md).

import (
	"math"
	"testing"

	"gomdb"
	"gomdb/internal/bench"
	"gomdb/internal/fixtures"
)

func benchScale(b *testing.B) bench.Scale {
	b.Helper()
	sc := bench.ShortScale()
	if testing.Short() {
		sc = bench.Scale{Cuboids: 200, OpsDivisor: 10, Points: 10, CompanyDivisor: 10}
	}
	return sc
}

// runFigure runs one experiment per iteration and reports the endpoints of
// the first two series as metrics.
func runFigure(b *testing.B, id string) {
	sc := benchScale(b)
	x, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("%s not registered", id)
	}
	var fig *bench.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = x.Run(sc)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	if fig != nil && len(fig.Series) >= 2 {
		s0 := fig.Series[0].Points
		s1 := fig.Series[1].Points
		if len(s0) > 0 && len(s1) > 0 {
			b.ReportMetric(s0[0], fig.Series[0].Name+"_first_simsec")
			b.ReportMetric(s1[len(s1)-1], fig.Series[1].Name+"_last_simsec")
		}
	}
}

func BenchmarkTable1ExampleGMR(b *testing.B) { runFigure(b, "table1") }
func BenchmarkFigure7(b *testing.B)          { runFigure(b, "figure7") }
func BenchmarkFigure8(b *testing.B)          { runFigure(b, "figure8") }
func BenchmarkFigure9(b *testing.B)          { runFigure(b, "figure9") }
func BenchmarkFigure10(b *testing.B)         { runFigure(b, "figure10") }
func BenchmarkFigure11(b *testing.B)         { runFigure(b, "figure11") }
func BenchmarkFigure13(b *testing.B)         { runFigure(b, "figure13") }
func BenchmarkFigure14(b *testing.B)         { runFigure(b, "figure14") }
func BenchmarkFigure15(b *testing.B)         { runFigure(b, "figure15") }

// ---- micro-benchmarks ----------------------------------------------------

func geometryDB(b *testing.B, n int, encaps bool, materialize bool, strategy gomdb.MaterializeOptions) (*gomdb.Database, *fixtures.Geometry) {
	b.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, encaps); err != nil {
		b.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, n, 42)
	if err != nil {
		b.Fatal(err)
	}
	if materialize {
		strategy.Funcs = []string{"Cuboid.volume"}
		strategy.Complete = true
		if _, err := db.Materialize(strategy); err != nil {
			b.Fatal(err)
		}
	}
	return db, g
}

// BenchmarkForwardLookup measures a forward query against a materialized
// function (GMR probe).
func BenchmarkForwardLookup(b *testing.B) {
	db, g := geometryDB(b, 1000, false, true, gomdb.MaterializeOptions{Mode: gomdb.ModeObjDep})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[i%len(g.Cuboids)])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardCompute measures the same invocation without a GMR (full
// evaluation).
func BenchmarkForwardCompute(b *testing.B) {
	db, g := geometryDB(b, 1000, false, false, gomdb.MaterializeOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[i%len(g.Cuboids)])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackwardRange measures a backward range query on the result
// index.
func BenchmarkBackwardRange(b *testing.B) {
	db, _ := geometryDB(b, 1000, false, true, gomdb.MaterializeOptions{Mode: gomdb.ModeObjDep})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64(i % 500)
		if _, err := db.GMRs.Backward("Cuboid.volume", lo, lo+20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTabularRetrieve measures a tabular retrieval that constrains the
// result column on a GMR without a multidimensional index: an extension
// scan that reads every tuple.
func BenchmarkTabularRetrieve(b *testing.B) {
	db, _ := geometryDB(b, 1000, false, true, gomdb.MaterializeOptions{Name: "Gv", Mode: gomdb.ModeObjDep})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64(i % 500)
		if _, err := db.Retrieve("Gv", []gomdb.FieldSpec{gomdb.AnySpec(), gomdb.RangeSpec(lo, lo+20)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleWithGMR measures the full invalidation + rematerialization
// cost of a scale under immediate maintenance.
func BenchmarkScaleWithGMR(b *testing.B) {
	db, g := geometryDB(b, 1000, false, true, gomdb.MaterializeOptions{
		Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	})
	unit := gomdb.Ref(fixtures.NewVertex(db, 1, 1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Call("Cuboid.scale", gomdb.Ref(g.Cuboids[i%len(g.Cuboids)]), unit); err != nil {
			b.Fatal(err)
		}
	}
}

// updateColdDB builds update-cold's configuration at benchmark scale: 1 000
// cuboids on a 150-page pool, volume materialized in Gvol and rematerialized
// immediately, weight in Gwt and rematerialized lazily, both under ObjDepFct
// marking.
func updateColdDB(tb testing.TB) (*gomdb.Database, *fixtures.Geometry) {
	tb.Helper()
	cfg := gomdb.DefaultConfig()
	cfg.BufferPages = 150
	db := gomdb.Open(cfg)
	if err := fixtures.DefineGeometry(db, false); err != nil {
		tb.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 1000, 42)
	if err != nil {
		tb.Fatal(err)
	}
	for _, opts := range []gomdb.MaterializeOptions{
		{Name: "Gvol", Funcs: []string{"Cuboid.volume"}, Complete: true, Mode: gomdb.ModeObjDep, Strategy: gomdb.Immediate},
		{Name: "Gwt", Funcs: []string{"Cuboid.weight"}, Complete: true, Mode: gomdb.ModeObjDep, Strategy: gomdb.Lazy},
	} {
		if _, err := db.Materialize(opts); err != nil {
			tb.Fatal(err)
		}
	}
	return db, g
}

var (
	cuboidVertices = [...]string{"V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8"}
	vertexCoords   = [...]string{"X", "Y", "Z"}
)

// vertexMove performs move i of a fixed schedule over g's cuboids: read a
// cuboid's vertex reference, set one coordinate of that vertex.
func vertexMove(db *gomdb.Database, g *fixtures.Geometry, i int) error {
	ref, err := db.GetAttr(g.Cuboids[(i*7919)%len(g.Cuboids)], cuboidVertices[i%8])
	if err != nil {
		return err
	}
	return db.Set(ref.R, vertexCoords[i%3], gomdb.Float(float64(i%97)))
}

// BenchmarkVertexMove measures update-cold's vertex move on a 150-page pool
// under a larger base, volume rematerialized immediately and weight lazily:
// read a cuboid's vertex reference, set one coordinate of that vertex. Half
// the moves hit one of the four vertices volume and weight depend on: they
// rematerialize volume at once, demoting and re-adding its ObjDepFct marks,
// and invalidate weight. The other half change nothing materialized.
func BenchmarkVertexMove(b *testing.B) {
	db, g := updateColdDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vertexMove(db, g, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateColdScale measures update-cold's scale on
// BenchmarkVertexMove's configuration: Cuboid.scale moves all eight
// vertices, 24 elementary updates, and each of the 12 that hit a vertex
// volume depends on rematerializes volume at once. Each cuboid is scaled up
// on one visit and back down on the next, so volumes do not drift.
func BenchmarkUpdateColdScale(b *testing.B) {
	db, g := updateColdDB(b)
	by := [2]gomdb.Value{
		gomdb.Ref(fixtures.NewVertex(db, 1.25, 0.8, 1.5)),
		gomdb.Ref(fixtures.NewVertex(db, 0.8, 1.25, 1/1.5)),
	}
	n := len(g.Cuboids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Call("Cuboid.scale", gomdb.Ref(g.Cuboids[i%n]), by[(i/n)%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleInfoHiding measures the same update under information
// hiding (one invalidation per scale).
func BenchmarkScaleInfoHiding(b *testing.B) {
	db, g := geometryDB(b, 1000, true, true, gomdb.MaterializeOptions{
		Strategy: gomdb.Immediate, Mode: gomdb.ModeInfoHiding,
	})
	unit := gomdb.Ref(fixtures.NewVertex(db, 1, 1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Call("Cuboid.scale", gomdb.Ref(g.Cuboids[i%len(g.Cuboids)]), unit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRotateInfoHiding measures the no-op invalidation path: rotate is
// declared result-invariant.
func BenchmarkRotateInfoHiding(b *testing.B) {
	db, g := geometryDB(b, 1000, true, true, gomdb.MaterializeOptions{
		Strategy: gomdb.Immediate, Mode: gomdb.ModeInfoHiding,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Call("Cuboid.rotate", gomdb.Ref(g.Cuboids[i%len(g.Cuboids)]),
			gomdb.Float(math.Pi/7), gomdb.Str("z")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGOMqlBackwardQuery measures a parsed backward query end to end.
func BenchmarkGOMqlBackwardQuery(b *testing.B) {
	db, _ := geometryDB(b, 1000, false, true, gomdb.MaterializeOptions{Mode: gomdb.ModeObjDep})
	params := map[string]gomdb.Value{"lo": gomdb.Float(100), "hi": gomdb.Float(150)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`range c: Cuboid retrieve c where c.volume > $lo and c.volume < $hi`, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGOMqlWindowQuery measures the window query of the read-hot
// workload end to end: a backward plan whose candidates each make three
// forward calls (two comparisons and the projected c.volume).
func BenchmarkGOMqlWindowQuery(b *testing.B) {
	db, _ := geometryDB(b, 1000, false, true, gomdb.MaterializeOptions{Mode: gomdb.ModeObjDep})
	params := map[string]gomdb.Value{"lo": gomdb.Float(100), "hi": gomdb.Float(150)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`range c: Cuboid retrieve c.volume where c.volume > $lo and c.volume < $hi`, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjectReadWrite measures the raw object manager round trip.
func BenchmarkObjectReadWrite(b *testing.B) {
	db, g := geometryDB(b, 1000, false, false, gomdb.MaterializeOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := g.Cuboids[i%len(g.Cuboids)]
		o, err := db.Objects.Get(oid)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Objects.Put(o); err != nil {
			b.Fatal(err)
		}
	}
}
