package bench

import (
	"bytes"
	"testing"
)

// TestFigureDeterminism runs the same experiments twice in one process and
// requires byte-identical rendered output. The figures report the simulated
// clock, which only advances through deterministic page traffic — if a
// change makes the numbers depend on goroutine scheduling, map iteration
// order, or the machine's core count (e.g. a buffer-pool replacement policy
// that varies with the shard count), this catches it.
func TestFigureDeterminism(t *testing.T) {
	sc := Scale{Cuboids: 200, OpsDivisor: 10, Points: 10, CompanyDivisor: 10}
	for _, id := range []string{"table1", "figure9", "figure10"} {
		x, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		var runs [2]bytes.Buffer
		for i := range runs {
			fig, err := x.Run(sc)
			if err != nil {
				t.Fatalf("%s run %d: %v", id, i+1, err)
			}
			fig.Print(&runs[i])
			fig.PrintCSV(&runs[i])
		}
		if !bytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
			t.Errorf("%s: output differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
				id, runs[0].String(), runs[1].String())
		}
	}
}
