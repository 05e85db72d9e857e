package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tinyScale keeps the harness tests fast while still exercising every code
// path (populate, materialize, every operation type, measurement).
func tinyScale() Scale {
	return Scale{Cuboids: 120, OpsDivisor: 10, Points: 20, CompanyDivisor: 10}
}

func TestFigureRunnersProduceSeries(t *testing.T) {
	sc := tinyScale()
	wantSeries := map[string]int{
		"table1":       2,
		"figure7":      3,
		"figure8":      3,
		"figure9":      2,
		"figure10":     4,
		"figure11":     3,
		"figure13":     3,
		"figure14":     3,
		"figure15":     4,
		"ablation":     5,
		"ablation-mds": 2,
	}
	for _, x := range Registry {
		id := x.ID
		fig, err := x.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if want := wantSeries[id]; len(fig.Series) != want {
			t.Errorf("%s: %d series, want %d", id, len(fig.Series), want)
		}
		if len(fig.X) == 0 {
			t.Errorf("%s: no x-axis points", id)
		}
		for _, s := range fig.Series {
			if len(s.Points) != len(fig.X) {
				t.Errorf("%s/%s: %d points for %d x values", id, s.Name, len(s.Points), len(fig.X))
			}
			for i, p := range s.Points {
				if p < 0 || math.IsNaN(p) {
					t.Errorf("%s/%s[%d]: bad value %g", id, s.Name, i, p)
				}
			}
		}
	}
}

func TestTable1ExactValues(t *testing.T) {
	fig, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	wantV := []float64{300, 200, 100}
	wantW := []float64{2358, 1572, 1900}
	for i := range wantV {
		if math.Abs(fig.Series[0].Points[i]-wantV[i]) > 1e-6 {
			t.Errorf("volume[%d] = %g, want %g", i, fig.Series[0].Points[i], wantV[i])
		}
		if math.Abs(fig.Series[1].Points[i]-wantW[i]) > 1e-6 {
			t.Errorf("weight[%d] = %g, want %g", i, fig.Series[1].Points[i], wantW[i])
		}
	}
}

// TestFigure9Shape: the GMR version must win clearly on forward-query-only
// workloads (the paper's factor 4-5; the simulated buffer makes it larger).
func TestFigure9Shape(t *testing.T) {
	fig, err := Figure9(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	last := len(fig.X) - 1
	without := fig.Series[0].Points[last]
	with := fig.Series[1].Points[last]
	if with >= without {
		t.Fatalf("WithGMR (%g) not cheaper than WithoutGMR (%g) for forward queries", with, without)
	}
}

// TestFigure10Shape: immediate maintenance pays a large rotation penalty;
// Lazy and InfoHiding stay near the unsupported version.
func TestFigure10Shape(t *testing.T) {
	fig, err := Figure10(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	last := len(fig.X) - 1
	get := func(name string) float64 {
		for _, s := range fig.Series {
			if s.Name == name {
				return s.Points[last]
			}
		}
		t.Fatalf("series %q missing", name)
		return 0
	}
	without, with := get("WithoutGMR"), get("WithGMR")
	lazy, ih := get("Lazy"), get("InfoHiding")
	if with < 2*without {
		t.Errorf("WithGMR rotation penalty too small: %g vs %g", with, without)
	}
	if lazy > 2*without {
		t.Errorf("Lazy (%g) not close to WithoutGMR (%g)", lazy, without)
	}
	if ih > 1.5*without {
		t.Errorf("InfoHiding (%g) not close to WithoutGMR (%g)", ih, without)
	}
}

// TestAblationOrdering: the Section 5 ladder must be monotone on the fixed
// workload: Basic >= SchemaDep >= ObjDep, and InfoHiding cheapest.
func TestAblationOrdering(t *testing.T) {
	fig, err := Ablation(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	last := len(fig.X) - 1
	v := map[string]float64{}
	for _, s := range fig.Series {
		v[s.Name] = s.Points[last]
	}
	if !(v["Basic"] >= v["SchemaDep"]*0.99) {
		t.Errorf("Basic (%g) cheaper than SchemaDep (%g)", v["Basic"], v["SchemaDep"])
	}
	if !(v["SchemaDep"] >= v["ObjDep"]*0.99) {
		t.Errorf("SchemaDep (%g) cheaper than ObjDep (%g)", v["SchemaDep"], v["ObjDep"])
	}
	if !(v["InfoHiding"] < v["ObjDep"]) {
		t.Errorf("InfoHiding (%g) not cheaper than ObjDep (%g)", v["InfoHiding"], v["ObjDep"])
	}
}

func TestFigurePrintAndCrossover(t *testing.T) {
	fig := &Figure{
		ID: "T", Title: "t", XLabel: "x", YLabel: "y",
		X: []float64{0, 1, 2},
		Series: []Series{
			{Name: "a", Points: []float64{0, 10, 20}},
			{Name: "b", Points: []float64{10, 10, 10}},
		},
	}
	var buf bytes.Buffer
	fig.Print(&buf)
	out := buf.String()
	for _, want := range []string{"T: t", "a", "b", "10.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
	// a crosses above b at x=1.
	x := fig.CrossoverX("a", "b")
	if math.Abs(x-1) > 1e-9 {
		t.Errorf("CrossoverX = %g, want 1", x)
	}
	if !math.IsNaN(fig.CrossoverX("b", "a")) == (fig.CrossoverX("b", "a") > 0) {
		// b never crosses above a after starting above; value may be NaN.
		_ = x
	}
	if !math.IsNaN(fig.CrossoverX("a", "missing")) {
		t.Error("CrossoverX with missing series not NaN")
	}
}

// TestDeterminism: the seeded workloads produce bit-identical simulated
// times across runs — the reproducibility claim of EXPERIMENTS.md.
func TestDeterminism(t *testing.T) {
	sc := tinyScale()
	for _, id := range []string{"figure9", "figure15"} {
		x, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		a, err := x.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := x.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		for si := range a.Series {
			for i := range a.Series[si].Points {
				if a.Series[si].Points[i] != b.Series[si].Points[i] {
					t.Fatalf("%s/%s[%d]: %g vs %g across runs",
						id, a.Series[si].Name, i, a.Series[si].Points[i], b.Series[si].Points[i])
				}
			}
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	sc := Scale{OpsDivisor: 4}
	if sc.ops(40) != 10 || sc.ops(2) != 1 {
		t.Errorf("ops scaling wrong: %d, %d", sc.ops(40), sc.ops(2))
	}
	xs := seq(0, 1, 0.25)
	if len(xs) != 5 || xs[4] != 1 {
		t.Errorf("seq = %v", xs)
	}
	th := thin(xs, 2)
	if len(th) != 3 || th[0] != 0 || th[len(th)-1] != 1 {
		t.Errorf("thin = %v (must keep first and last)", th)
	}
	if got := thin(xs, 1); len(got) != 5 {
		t.Errorf("thin k=1 changed input: %v", got)
	}
}
