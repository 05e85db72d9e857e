package pred

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpNegation(t *testing.T) {
	pairs := map[CmpOp]CmpOp{Eq: Ne, Lt: Ge, Le: Gt, Gt: Le, Ge: Lt, Ne: Eq}
	for op, want := range pairs {
		if op.Negate() != want {
			t.Errorf("negate(%v) = %v, want %v", op, op.Negate(), want)
		}
		if op.Negate().Negate() != op {
			t.Errorf("double negation of %v", op)
		}
	}
}

func TestDNFShapes(t *testing.T) {
	a := CmpConst("x", Lt, 1)
	b := CmpConst("y", Gt, 2)
	c := CmpConst("z", Eq, 3)
	// (a or b) and c  ->  (a and c) or (b and c)
	conjs := DNF(And(Or(a, b), c))
	if len(conjs) != 2 || len(conjs[0]) != 2 || len(conjs[1]) != 2 {
		t.Fatalf("DNF = %v", conjs)
	}
	// not (a and b) -> not a or not b
	conjs = DNF(Not(And(a, b)))
	if len(conjs) != 2 || len(conjs[0]) != 1 {
		t.Fatalf("DNF(¬∧) = %v", conjs)
	}
	if conjs[0][0].Op != Ge {
		t.Fatalf("negation not pushed: %v", conjs[0][0])
	}
	if len(DNF(FalseP{})) != 0 {
		t.Fatal("DNF(false) not empty")
	}
	if conjs := DNF(TrueP{}); len(conjs) != 1 || len(conjs[0]) != 0 {
		t.Fatalf("DNF(true) = %v", conjs)
	}
	// Double negation.
	conjs = DNF(Not(Not(a)))
	if len(conjs) != 1 || conjs[0][0].Op != Lt {
		t.Fatalf("DNF(¬¬a) = %v", conjs)
	}
}

func TestInClass(t *testing.T) {
	if !InClass(And(CmpConst("x", Ne, 3), CmpVars("x", Le, "y"))) {
		t.Fatal("x != const should be in class")
	}
	if InClass(CmpVars("x", Ne, "y")) {
		t.Fatal("x != y should be outside the class")
	}
	// Negation can push ≠ into a variable comparison.
	if InClass(Not(CmpVars("x", Eq, "y"))) {
		t.Fatal("not(x = y) should be outside the class")
	}
	if !InClass(Not(CmpVars("x", Le, "y"))) {
		t.Fatal("not(x <= y) is x > y, in class")
	}
}

func TestSatisfiableConjCases(t *testing.T) {
	cases := []struct {
		name string
		conj []Atom
		want bool
	}{
		{"empty", nil, true},
		{"x<1 and x>0", []Atom{{X: "x", Op: Lt, C: 1}, {X: "x", Op: Gt, C: 0}}, true},
		{"x<1 and x>1", []Atom{{X: "x", Op: Lt, C: 1}, {X: "x", Op: Gt, C: 1}}, false},
		{"x<=1 and x>=1", []Atom{{X: "x", Op: Le, C: 1}, {X: "x", Op: Ge, C: 1}}, true},
		{"x<1 and x>=1", []Atom{{X: "x", Op: Lt, C: 1}, {X: "x", Op: Ge, C: 1}}, false},
		{"x=1 and x=2", []Atom{{X: "x", Op: Eq, C: 1}, {X: "x", Op: Eq, C: 2}}, false},
		{"x=1 and x!=1", []Atom{{X: "x", Op: Eq, C: 1}, {X: "x", Op: Ne, C: 1}}, false},
		{"x<=1 and x>=1 and x!=1", []Atom{{X: "x", Op: Le, C: 1}, {X: "x", Op: Ge, C: 1}, {X: "x", Op: Ne, C: 1}}, false},
		{"x<=2 and x>=1 and x!=1", []Atom{{X: "x", Op: Le, C: 2}, {X: "x", Op: Ge, C: 1}, {X: "x", Op: Ne, C: 1}}, true},
		// Variable chains: x <= y, y <= z, z <= x - 1 is a negative cycle.
		{"neg cycle", []Atom{{X: "x", Op: Le, Y: "y"}, {X: "y", Op: Le, Y: "z"}, {X: "z", Op: Le, Y: "x", C: -1}}, false},
		{"zero cycle ok", []Atom{{X: "x", Op: Le, Y: "y"}, {X: "y", Op: Le, Y: "x"}}, true},
		{"zero cycle strict", []Atom{{X: "x", Op: Lt, Y: "y"}, {X: "y", Op: Le, Y: "x"}}, false},
		// Offsets (Type 3): x = y + 5, x <= 3, y >= 0.
		{"offset unsat", []Atom{{X: "x", Op: Eq, Y: "y", C: 5}, {X: "x", Op: Le, C: 3}, {X: "y", Op: Ge, C: 0}}, false},
		{"offset sat", []Atom{{X: "x", Op: Eq, Y: "y", C: 5}, {X: "x", Op: Le, C: 8}, {X: "y", Op: Ge, C: 0}}, true},
		// Forced variable equality with disequality.
		{"x=y forced, x!=y", []Atom{{X: "x", Op: Le, Y: "y"}, {X: "y", Op: Le, Y: "x"}, {X: "x", Op: Ne, Y: "y"}}, false},
		{"x<=y, x!=y", []Atom{{X: "x", Op: Le, Y: "y"}, {X: "x", Op: Ne, Y: "y"}}, true},
	}
	for _, c := range cases {
		if got := SatisfiableConj(c.conj); got != c.want {
			t.Errorf("%s: SatisfiableConj = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSatisfiableFormula(t *testing.T) {
	// (x < 0 and x > 1) or x = 5 — second disjunct satisfiable.
	p := Or(And(CmpConst("x", Lt, 0), CmpConst("x", Gt, 1)), CmpConst("x", Eq, 5))
	sat, err := Satisfiable(p)
	if err != nil || !sat {
		t.Fatalf("sat = %v, %v", sat, err)
	}
	sat, err = Satisfiable(And(CmpConst("x", Lt, 0), CmpConst("x", Gt, 1)))
	if err != nil || sat {
		t.Fatalf("unsat formula reported sat")
	}
	if _, err := Satisfiable(CmpVars("x", Ne, "y")); err == nil {
		t.Fatal("out-of-class formula accepted")
	}
}

// TestCoversPaperExample reproduces the Section 6 scenario: the restriction
// p = (Mat.Name = "Iron") covers σ' = (volume > 100 ∧ Mat.Name = "Iron")
// but not σ' = (volume > 100).
func TestCoversPaperExample(t *testing.T) {
	in := NewInterner()
	iron := in.Code("Iron")
	gold := in.Code("Gold")
	p := CmpConst("O1.Mat.Name", Eq, iron)

	covered, err := Covers(p, And(CmpConst("O1.volume", Gt, 100), CmpConst("O1.Mat.Name", Eq, iron)))
	if err != nil || !covered {
		t.Fatalf("covered = %v, %v", covered, err)
	}
	covered, err = Covers(p, CmpConst("O1.volume", Gt, 100))
	if err != nil || covered {
		t.Fatalf("uncovered query reported covered")
	}
	covered, err = Covers(p, CmpConst("O1.Mat.Name", Eq, gold))
	if err != nil || covered {
		t.Fatalf("gold query covered by iron restriction")
	}
	// Interner stability.
	if in.Code("Iron") != iron {
		t.Fatal("interner not stable")
	}
}

// TestCoversRange: a range restriction covers contained query ranges.
func TestCoversRange(t *testing.T) {
	p := Between("O1.f", 0, 100)
	if ok, err := Covers(p, Between("O1.f", 10, 20)); err != nil || !ok {
		t.Fatalf("contained range not covered: %v, %v", ok, err)
	}
	if ok, err := Covers(p, Between("O1.f", 50, 150)); err != nil || ok {
		t.Fatalf("overflowing range covered")
	}
}

// TestCoversRejectsOutOfClass: ¬p must be in the decidable class — a
// restriction with x = y would negate to x ≠ y.
func TestCoversRejectsOutOfClass(t *testing.T) {
	p := CmpVars("O1.a", Eq, "O1.b")
	if _, err := Covers(p, CmpConst("O1.a", Gt, 0)); err == nil {
		t.Fatal("restriction with variable equality accepted")
	}
}

// chooser is the randomness the formula generators draw from: *rand.Rand in
// the quick checks, the fuzz input in FuzzCovers.
type chooser interface{ Intn(n int) int }

// maxConst bounds the magnitude of generated constants.
const maxConst = 3

// randomAtom generates an atom in the decidable class over vars with an
// integer constant in [-maxConst, maxConst].
func randomAtom(rng chooser, vars []string) Atom {
	ops := []CmpOp{Eq, Lt, Le, Gt, Ge, Ne}
	a := Atom{
		X:  vars[rng.Intn(len(vars))],
		Op: ops[rng.Intn(len(ops))],
		C:  float64(rng.Intn(2*maxConst+1) - maxConst),
	}
	if rng.Intn(2) == 0 {
		a.Y = vars[rng.Intn(len(vars))]
		if a.Op == Ne {
			a.Op = Le // keep in class
		}
	}
	return a
}

// randomFormula generates a Boolean combination of random atoms, nested at
// most depth levels, so Satisfiable and Covers take the DNF path through
// And, Or and Not. Negation may push an atom out of the decidable class; the
// callers check that the solver then refuses it.
func randomFormula(rng chooser, vars []string, depth int) P {
	if depth == 0 {
		return AtomP{randomAtom(rng, vars)}
	}
	switch rng.Intn(5) {
	case 0:
		return Not(randomFormula(rng, vars, depth-1))
	case 1:
		return Or(randomFormula(rng, vars, depth-1), randomFormula(rng, vars, depth-1))
	case 2:
		return And(randomFormula(rng, vars, depth-1), randomFormula(rng, vars, depth-1))
	}
	return AtomP{randomAtom(rng, vars)}
}

// gridSatisfiable is the brute-force oracle: it reports whether some
// assignment of multiples of ε = 1/(v+2) in [-v·(maxConst+ε), v·(maxConst+ε)]
// to the v variables satisfies every conjunct. For Boolean combinations of
// difference constraints with integer constants in [-maxConst, maxConst]
// that search is exact over the reals.
//
// Why the step is 1/(v+2): the solver adds an anchor node for constants, so
// the constraint graph has N = v+1 nodes. Split every x ≠ y+c of a DNF
// conjunct into x-y < c or x-y > c; the conjunct is satisfiable iff one of
// the resulting systems of difference constraints is. Such a system is
// satisfiable iff no simple cycle — at most N edges — has integer weight sum
// < 0, or sum 0 with a strict edge. Tightening each strict bound by
// ε = 1/(N+1) = 1/(v+2) keeps every cycle with integer sum ≥ 1 positive (1 - N·ε > 0)
// and leaves cycles without strict edges alone, so the tightened,
// non-strict system is feasible exactly when the original is, and its
// solutions satisfy the original. Its shortest-path solution sums at most
// N-1 = v edge weights of magnitude ≤ maxConst+ε, all multiples of ε, so it
// lies on the grid and, relative to the anchor, inside the box.
//
// The search runs on the grid scaled to integers (constants times v+2),
// where Eval compares exactly. Each conjunct is evaluated as soon as its
// last variable is assigned, which prunes the search without changing its
// answer.
func gridSatisfiable(vars []string, conjuncts ...P) bool {
	den := len(vars) + 2
	bound := len(vars) * (maxConst*den + 1) // v·(maxConst+ε) in grid units
	pos := make(map[string]int, len(vars))
	for i, v := range vars {
		pos[v] = i
	}
	// at[i] holds the conjuncts whose last variable is vars[i].
	at := make([][]P, len(vars))
	for _, c := range conjuncts {
		last := 0
		for _, v := range Vars(c) {
			last = max(last, pos[v])
		}
		at[last] = append(at[last], scale(c, float64(den)))
	}
	env := make(map[string]float64, len(vars))
	var search func(i int) bool
	search = func(i int) bool {
		if i == len(vars) {
			return true
		}
	values:
		for k := -bound; k <= bound; k++ {
			env[vars[i]] = float64(k)
			for _, c := range at[i] {
				if !Eval(c, env) {
					continue values
				}
			}
			if search(i + 1) {
				return true
			}
		}
		return false
	}
	return search(0)
}

// scale multiplies every constant of p by f.
func scale(p P, f float64) P {
	switch n := p.(type) {
	case AtomP:
		n.A.C *= f
		return n
	case AndP:
		return AndP{scale(n.L, f), scale(n.R, f)}
	case OrP:
		return OrP{scale(n.L, f), scale(n.R, f)}
	case NotP:
		return NotP{scale(n.E, f)}
	}
	return p
}

// TestGridOracleStrictBounds pins the oracle on the cases an integer grid
// gets wrong: solutions that exist only strictly between integers.
func TestGridOracleStrictBounds(t *testing.T) {
	vars := []string{"x", "y"}
	cases := []struct {
		p    P
		want bool
	}{
		{And(CmpConst("x", Gt, 0), CmpConst("x", Lt, 1)), true},
		{And(CmpConst("x", Gt, 0), CmpVars("x", Lt, "y"), CmpConst("y", Lt, 1)), true},
		{And(CmpConst("x", Gt, 0), CmpVars("x", Lt, "y"), CmpConst("y", Le, 0)), false},
		{And(CmpConst("x", Ge, 0), CmpConst("x", Le, 0), CmpConst("x", Ne, 0)), false},
		{And(CmpConst("x", Ge, 3), CmpOffset("y", Ge, "x", 3)), true},
	}
	for _, c := range cases {
		if got := gridSatisfiable(vars, c.p); got != c.want {
			t.Errorf("gridSatisfiable(%v) = %v, want %v", c.p, got, c.want)
		}
		if got, err := Satisfiable(c.p); err != nil || got != c.want {
			t.Errorf("Satisfiable(%v) = %v, %v, want %v", c.p, got, err, c.want)
		}
	}
}

// TestQuickSatisfiabilityAgainstBruteForce compares SatisfiableConj with the
// exact grid oracle on random conjunctions over three variables, in both
// directions: a SAT answer must have a grid witness and an UNSAT answer must
// have none.
func TestQuickSatisfiabilityAgainstBruteForce(t *testing.T) {
	vars := []string{"x", "y", "z"}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		conj := make([]Atom, 1+rng.Intn(5))
		ps := make([]P, len(conj))
		for i := range conj {
			conj[i] = randomAtom(rng, vars)
			ps[i] = AtomP{conj[i]}
		}
		got, want := SatisfiableConj(conj), gridSatisfiable(vars, ps...)
		if got != want {
			t.Logf("%v: SatisfiableConj = %v, oracle = %v", conj, got, want)
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSatisfiableFormulaAgainstBruteForce extends the oracle check to
// Satisfiable on random formulas with Or and Not, the DNF path.
func TestQuickSatisfiableFormulaAgainstBruteForce(t *testing.T) {
	vars := []string{"x", "y"}
	checked := 0
	check := func(seed int64) bool {
		p := randomFormula(rand.New(rand.NewSource(seed)), vars, 3)
		got, err := Satisfiable(p)
		if err != nil {
			return !InClass(p)
		}
		checked++
		if want := gridSatisfiable(vars, p); got != want {
			t.Logf("%v: Satisfiable = %v, oracle = %v", p, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("only %d of 300 formulas were in the decidable class", checked)
	}
}

// checkCovers compares Covers(p, sigma) with the oracle: p covers sigma iff
// no grid point satisfies sigma but not p. It returns false with a reason on
// disagreement, and reports whether the pair was in the decidable class.
func checkCovers(p, sigma P, vars []string) (inClass bool, problem string) {
	covered, err := Covers(p, sigma)
	if err != nil {
		if InClass(Not(p)) && InClass(sigma) {
			return false, fmt.Sprintf("Covers(%v, %v) refused an in-class pair: %v", p, sigma, err)
		}
		return false, ""
	}
	if want := !gridSatisfiable(vars, sigma, Not(p)); covered != want {
		return true, fmt.Sprintf("Covers(%v, %v) = %v, oracle = %v", p, sigma, covered, want)
	}
	return true, ""
}

// TestQuickCoversSoundness checks Covers against the exact oracle in both
// directions: a covered query has no point outside the restriction, and an
// uncovered one has a witness.
func TestQuickCoversSoundness(t *testing.T) {
	vars := []string{"x", "y"}
	checked := 0
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomFormula(rng, vars, 2)
		sigma := randomFormula(rng, vars, 2)
		inClass, problem := checkCovers(p, sigma, vars)
		if inClass {
			checked++
		}
		if problem != "" {
			t.Log(problem)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("only %d of 300 pairs were in the decidable class", checked)
	}
}

// fuzzChoices draws generator choices from fuzz input; an exhausted input
// yields zeros, so every input decodes to some pair of formulas.
type fuzzChoices []byte

func (c *fuzzChoices) Intn(n int) int {
	if len(*c) == 0 {
		return 0
	}
	v := int((*c)[0]) % n
	*c = (*c)[1:]
	return v
}

// FuzzCovers decodes a restriction and a query over two variables from the
// input and checks Covers against the exact grid oracle. The seed corpus is
// in testdata/fuzz/FuzzCovers; run with `make fuzz-pred`.
func FuzzCovers(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		vars := []string{"x", "y"}
		c := fuzzChoices(data)
		p := randomFormula(&c, vars, 2)
		sigma := randomFormula(&c, vars, 2)
		if _, problem := checkCovers(p, sigma, vars); problem != "" {
			t.Fatal(problem)
		}
	})
}

func TestVarsAndEval(t *testing.T) {
	p := And(CmpConst("b", Gt, 0), Or(CmpVars("a", Le, "c"), Not(CmpConst("a", Eq, 1))))
	vs := Vars(p)
	if len(vs) != 3 || vs[0] != "a" || vs[1] != "b" || vs[2] != "c" {
		t.Fatalf("Vars = %v", vs)
	}
	env := map[string]float64{"a": 1, "b": 1, "c": 0}
	if Eval(p, env) {
		t.Fatal("Eval wrong: a>c and a=1")
	}
	env["c"] = 5
	if !Eval(p, env) {
		t.Fatal("Eval wrong: a<=c")
	}
}
