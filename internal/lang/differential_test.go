package lang_test

// Differential tests of the compiled evaluator against the tree-walking
// oracle (oracle_test.go). Two databases are built from one fixture: on the
// first every evaluation runs compiled, on the second every function of the
// schema is switched to the oracle, so the calls and rematerializations an
// evaluation causes run on the oracle too. Each step evaluates one body on
// both, and afterwards the result, the error text, the CPU charge at each
// Runtime call of the body, the full Clock, the object base and the GMRs
// must be equal.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// twin is one database of a differential pair and the objects a body may
// name.
type twin struct {
	db      *gomdb.Database
	eval    func(rt lang.Runtime, fn *lang.Function, args []object.Value) (object.Value, error)
	cuboids []object.OID
	vertex  object.OID
	mat     object.OID
	set     object.OID
}

// newTwin builds the geometry fixture: three cuboids in a Workpieces set,
// volume materialized with immediate and weight with lazy
// rematerialization, so updates run hooks and recomputations.
func newTwin(t testing.TB, oracle bool) *twin {
	t.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	tw := &twin{db: db, eval: lang.Eval}
	if oracle {
		for _, fn := range db.Schema.Functions() {
			lang.UseOracle(fn)
		}
		tw.eval = lang.EvalOracle
	}
	g, err := fixtures.PopulateGeometry(db, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	tw.cuboids, tw.mat = g.Cuboids, g.MaterialO[0]
	refs := make([]object.Value, len(g.Cuboids))
	for i, c := range g.Cuboids {
		refs[i] = object.Ref(c)
	}
	if tw.set, err = db.NewSet("Workpieces", refs...); err != nil {
		t.Fatal(err)
	}
	v1, err := db.GetAttr(g.Cuboids[0], "V1")
	if err != nil {
		t.Fatal(err)
	}
	tw.vertex = v1.R
	for _, opts := range []gomdb.MaterializeOptions{
		{Name: "Gvol", Funcs: []string{"Cuboid.volume"}, Complete: true, Strategy: gomdb.Immediate},
		{Name: "Gwt", Funcs: []string{"Cuboid.weight"}, Complete: true, Strategy: gomdb.Lazy},
	} {
		if _, err := db.Materialize(opts); err != nil {
			t.Fatal(err)
		}
	}
	return tw
}

// state renders what a step may change: the Clock, every object, every GMR
// entry. The Clock is read first; rendering the objects reads them through
// the pool, alike on both twins.
func (tw *twin) state() (clock, base string) {
	clock = fmt.Sprintf("%+v", tw.db.Engine.Clock.Snapshot())
	var b strings.Builder
	for _, typ := range []string{"Vertex", "Material", "Robot", "Cuboid", "Workpieces", "Valuables"} {
		for _, oid := range tw.db.Extension(typ) {
			o, err := tw.db.Objects.Get(oid)
			fmt.Fprintf(&b, "%v %+v %v\n", oid, o, err)
		}
	}
	for _, name := range []string{"Gvol", "Gwt"} {
		g, _ := tw.db.GMRs.Get(name)
		g.Entries(func(args, results []object.Value, valid []bool) bool {
			fmt.Fprintf(&b, "%s %+v %+v %v\n", name, args, results, valid)
			return true
		})
	}
	return clock, b.String()
}

// clocked is the Runtime of a step's outermost evaluation: it passes every
// call on to the engine and logs the CPU charge on the clock as the call
// begins, so that the rule "every charge counted before a Runtime call
// reaches the clock before it" is compared too.
type clocked struct {
	*schema.Engine
	log []int64
}

func (c *clocked) note() { c.log = append(c.log, c.Clock.Snapshot().CPUOps) }

func (c *clocked) ReadAttr(recv object.Value, attr string) (object.Value, error) {
	c.note()
	return c.Engine.ReadAttr(recv, attr)
}

func (c *clocked) ReadElems(coll object.Value) ([]object.Value, error) {
	c.note()
	return c.Engine.ReadElems(coll)
}

func (c *clocked) CallFunction(fn string, args []object.Value) (object.Value, error) {
	c.note()
	return c.Engine.CallFunction(fn, args)
}

func (c *clocked) SetAttr(recv object.Value, attr string, v object.Value) error {
	c.note()
	return c.Engine.SetAttr(recv, attr, v)
}

func (c *clocked) InsertElem(coll, elem object.Value) error {
	c.note()
	return c.Engine.InsertElem(coll, elem)
}

func (c *clocked) RemoveElem(coll, elem object.Value) error {
	c.note()
	return c.Engine.RemoveElem(coll, elem)
}

// pair is a differential pair of twins.
type pair struct {
	t    testing.TB
	a, b *twin // compiled, oracle
	step int
}

func newPair(t testing.TB) *pair {
	return &pair{t: t, a: newTwin(t, false), b: newTwin(t, true)}
}

// args builds an argument list for fn's parameters on twin tw, choosing an
// object of the base for each reference type.
func (tw *twin) args(fn *lang.Function, k int) []object.Value {
	out := make([]object.Value, len(fn.Params))
	for i, p := range fn.Params {
		switch p.Type {
		case "Cuboid":
			out[i] = object.Ref(tw.cuboids[(k+i)%len(tw.cuboids)])
		case "Vertex":
			out[i] = object.Ref(tw.vertex)
		case "Material":
			out[i] = object.Ref(tw.mat)
		case "Workpieces":
			out[i] = object.Ref(tw.set)
		case "float", "decimal":
			out[i] = object.Float(1.5 + float64(k))
		case "int":
			out[i] = object.Int(int64(k + i))
		case "string":
			out[i] = object.String_("z")
		case "bool":
			out[i] = object.Bool(k%2 == 0)
		}
	}
	return out
}

// check evaluates fn on both twins and compares everything a step may
// change; it returns the compiled twin's result.
func (p *pair) check(fn *lang.Function, k int) (object.Value, error) {
	p.t.Helper()
	p.step++
	rta, rtb := &clocked{Engine: p.a.db.Engine}, &clocked{Engine: p.b.db.Engine}
	va, ea := p.a.eval(rta, fn, p.a.args(fn, k))
	vb, eb := p.b.eval(rtb, fn, p.b.args(fn, k))
	if ra, rb := fmt.Sprintf("%+v", va), fmt.Sprintf("%+v", vb); ra != rb {
		p.t.Fatalf("step %d, %s: compiled returns %s, oracle %s\nbody: %v", p.step, fn.Name, ra, rb, fn.Body)
	}
	if fmt.Sprint(ea) != fmt.Sprint(eb) {
		p.t.Fatalf("step %d, %s: compiled fails with %v, oracle with %v\nbody: %v", p.step, fn.Name, ea, eb, fn.Body)
	}
	if !slices.Equal(rta.log, rtb.log) {
		p.t.Fatalf("step %d, %s: compiled calls the Runtime at CPU charges %v, oracle at %v\nbody: %v", p.step, fn.Name, rta.log, rtb.log, fn.Body)
	}
	ca, sa := p.a.state()
	cb, sb := p.b.state()
	if ca != cb {
		p.t.Fatalf("step %d, %s: compiled leaves clock %s, oracle %s\nbody: %v", p.step, fn.Name, ca, cb, fn.Body)
	}
	if sa != sb {
		p.t.Fatalf("step %d, %s: compiled leaves base\n%s\noracle\n%s\nbody: %v", p.step, fn.Name, sa, sb, fn.Body)
	}
	return va, ea
}

// checkSource evaluates the function src defines, unbound as parsed and
// bound as a free function and as an operation of each geometry type.
func (p *pair) checkSource(src string) {
	p.t.Helper()
	pf, err := lang.ParseDefine(src)
	if err != nil {
		return
	}
	p.check(&lang.Function{Name: pf.Name, Params: pf.Params, Body: pf.Body}, 0)
	binder := p.a.db.Schema.Binder()
	for _, recv := range []string{"", "Vertex", "Cuboid", "Workpieces"} {
		fn, err := binder.Bind(pf, recv, false)
		if err != nil {
			continue
		}
		for k := 0; k < 2; k++ {
			p.check(fn, k)
		}
	}
}

// checkGenerated evaluates the body gen builds from data as an operation of
// Cuboid with a Vertex parameter.
func (p *pair) checkGenerated(data []byte) {
	p.t.Helper()
	g := &gen{data: data, refs: []object.Value{
		object.Ref(p.a.cuboids[1]), object.Ref(p.a.vertex), object.Ref(p.a.mat), object.Ref(p.a.set),
	}}
	fn := &lang.Function{
		Name:   "Cuboid.gen",
		Params: []lang.Param{lang.Prm("self", "Cuboid"), lang.Prm("v", "Vertex")},
		Body:   g.stmts(0),
	}
	for k := 0; k < 2; k++ {
		p.check(fn, k)
	}
}

// gen builds a GOMpl body in the binder's output form from fuzz bytes. It
// reaches every Stmt and Expr kind, well- and ill-formed: unknown names,
// wrong arities and kinds, unbound variables, nil nodes. Exhausted input
// reads as zeros, which pick leaves.
type gen struct {
	data []byte
	refs []object.Value
}

const genDepth = 3

func (g *gen) pick(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

func (g *gen) name(names ...string) string { return names[g.pick(len(names))] }

var (
	genVars  = []string{"x", "self", "v", "y", "s", "c", "nope"}
	genAttrs = []string{"X", "V1", "Y", "Z", "V2", "Mat", "SpecWeight", "Value", "CuboidID", "Name", "nope"}
	genCalls = []string{"Cuboid.volume", "Vertex.dist", "Cuboid.length", "Cuboid.weight",
		"Vertex.translate", "Vertex.scale", "Cuboid.scale", "Workpieces.total_volume", "Cuboid.nope", "nofree"}
	genBuiltins = []string{"sqrt", "abs", "min", "max", "sin", "cos", "count", "len", "union", "wat"}
)

func (g *gen) stmts(depth int) []lang.Stmt {
	out := make([]lang.Stmt, g.pick(4))
	for i := range out {
		out[i] = g.stmt(depth)
	}
	return out
}

func (g *gen) stmt(depth int) lang.Stmt {
	kinds := 9
	if depth >= genDepth {
		kinds = 2 // no nested blocks
	}
	switch g.pick(kinds) {
	case 0:
		if g.pick(4) == 0 {
			return lang.Return{}
		}
		return lang.Ret(g.expr(depth))
	case 1:
		return lang.Let(g.name(genVars...), g.expr(depth))
	case 2:
		return lang.SetA(g.expr(depth), g.name(genAttrs...), g.expr(depth))
	case 3:
		return lang.InsertInto(g.expr(depth), g.expr(depth))
	case 4:
		return lang.RemoveFrom(g.expr(depth), g.expr(depth))
	case 5:
		return lang.When(g.expr(depth), g.stmts(depth+1), g.stmts(depth+1)...)
	case 6:
		return lang.Each(g.name(genVars...), g.expr(depth), g.stmts(depth+1)...)
	case 7:
		return lang.Do(g.expr(depth))
	}
	return nil
}

func (g *gen) exprs(depth int) []lang.Expr {
	out := make([]lang.Expr, g.pick(4))
	for i := range out {
		out[i] = g.expr(depth)
	}
	return out
}

func (g *gen) expr(depth int) lang.Expr {
	kinds := 11
	if depth >= genDepth {
		kinds = 2 // leaves only
	}
	d := depth + 1
	switch g.pick(kinds) {
	case 0:
		return g.lit()
	case 1:
		return lang.V(g.name(genVars...))
	case 2:
		return lang.A(g.expr(d), g.name(genAttrs...))
	case 3:
		return lang.Call{Fn: g.name(genCalls...), Args: g.exprs(d)}
	case 4:
		return lang.Builtin{Name: g.name(genBuiltins...), Args: g.exprs(d)}
	case 5:
		return lang.Bin{Op: lang.BinOp(g.pick(int(lang.OpIn) + 2)), L: g.expr(d), R: g.expr(d)}
	case 6:
		return lang.Un{Op: g.name("-", "not", "?"), E: g.expr(d)}
	case 7:
		return lang.MkTuple{TypeName: g.name("Vertex", "Material", "Nope"), Fields: g.exprs(d)}
	case 8:
		return lang.MkSet{Elems: g.exprs(d)}
	case 9:
		return lang.ElemsOf(g.expr(d))
	}
	return nil
}

func (g *gen) lit() lang.Expr {
	switch g.pick(8) {
	case 0:
		return lang.I(int64(g.pick(7)) - 3)
	case 1:
		return lang.F(float64(g.pick(9))/2 - 2)
	case 2:
		return lang.S(g.name("a", "b", ""))
	case 3:
		return lang.B(g.pick(2) == 0)
	case 4:
		return lang.Lit{Val: object.Null()}
	case 5:
		return lang.Lit{Val: g.refs[g.pick(len(g.refs))]}
	case 6:
		return lang.Lit{Val: object.SetVal(object.Int(1), object.Float(2), g.refs[g.pick(len(g.refs))])}
	}
	return lang.Lit{Val: object.Int(0)}
}

// parseCorpus returns the sources of FuzzParseDefine's seed corpus.
func parseCorpus(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseDefine", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				src, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, src)
			}
		}
	}
	return out
}

// genSeeds returns generator inputs that between them build every
// statement and expression kind: one input per pair of a statement kind and
// an expression kind, which starts a one-statement body of the first and
// picks the second for every choice after it.
func genSeeds() [][]byte {
	var out [][]byte
	for st := 0; st < 9; st++ {
		for ex := 0; ex < 11; ex++ {
			seed := []byte{1, byte(st)}
			for i := 0; i < 24; i++ {
				seed = append(seed, byte(ex))
			}
			out = append(out, seed)
		}
	}
	return out
}

// nodeKinds records the dynamic type of every node of a body.
func nodeKinds(stmts []lang.Stmt, seen map[string]bool) {
	var expr func(e lang.Expr)
	expr = func(e lang.Expr) {
		seen[fmt.Sprintf("%T", e)] = true
		var subs []lang.Expr
		switch ex := e.(type) {
		case lang.Attr:
			subs = []lang.Expr{ex.Recv}
		case lang.Call:
			subs = ex.Args
		case lang.Builtin:
			subs = ex.Args
		case lang.Bin:
			subs = []lang.Expr{ex.L, ex.R}
		case lang.Un:
			subs = []lang.Expr{ex.E}
		case lang.MkTuple:
			subs = ex.Fields
		case lang.MkSet:
			subs = ex.Elems
		case lang.Elems:
			subs = []lang.Expr{ex.Coll}
		}
		for _, s := range subs {
			expr(s)
		}
	}
	for _, s := range stmts {
		seen[fmt.Sprintf("%T", s)] = true
		switch st := s.(type) {
		case lang.Assign:
			expr(st.E)
		case lang.SetAttr:
			expr(st.Recv)
			expr(st.E)
		case lang.Insert:
			expr(st.Recv)
			expr(st.E)
		case lang.Remove:
			expr(st.Recv)
			expr(st.E)
		case lang.If:
			expr(st.Cond)
			nodeKinds(st.Then, seen)
			nodeKinds(st.Else, seen)
		case lang.ForEach:
			expr(st.Coll)
			nodeKinds(st.Body, seen)
		case lang.Return:
			if st.E != nil {
				expr(st.E)
			}
		case lang.ExprStmt:
			expr(st.E)
		}
	}
}

// TestGenSeedsCoverEveryKind: the generator seeds of FuzzEvalMatchesOracle
// build every statement and expression kind, nil nodes included.
func TestGenSeedsCoverEveryKind(t *testing.T) {
	seen := map[string]bool{}
	for _, seed := range genSeeds() {
		g := &gen{data: seed, refs: []object.Value{object.Null()}}
		nodeKinds(g.stmts(0), seen)
	}
	for _, k := range []string{"lang.Assign", "lang.SetAttr", "lang.Insert", "lang.Remove", "lang.If",
		"lang.ForEach", "lang.Return", "lang.ExprStmt", "lang.Lit", "lang.Var", "lang.Attr", "lang.Call",
		"lang.Builtin", "lang.Bin", "lang.Un", "lang.MkTuple", "lang.MkSet", "lang.Elems", "<nil>"} {
		if !seen[k] {
			t.Errorf("no seed builds a %s", k)
		}
	}
}

// FuzzEvalMatchesOracle evaluates, compiled and on the oracle, the function
// src defines (unbound and bound several ways) and a body generated from
// gen, comparing results, errors, Clocks and object bases after every
// evaluation. The seeds are FuzzParseDefine's corpus and genSeeds; run the
// campaign with `make fuzz-parse`.
func FuzzEvalMatchesOracle(f *testing.F) {
	seeds := genSeeds()
	for i, src := range parseCorpus(f) {
		f.Add(src, seeds[i*7%len(seeds)])
	}
	for _, seed := range seeds {
		f.Add("", seed)
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		p := newPair(t)
		p.checkSource(src)
		p.checkGenerated(data)
	})
}

// TestEvalMatchesOracle pins the cases where slots and a map environment
// could part: each must behave as stated and identically on both twins.
func TestEvalMatchesOracle(t *testing.T) {
	p := newPair(t)
	ws := lang.Lit{Val: object.Ref(p.a.set)}
	set123 := lang.MkSet{Elems: []lang.Expr{lang.I(1), lang.I(2), lang.I(3)}}
	c, x, s := lang.V("c"), lang.V("x"), lang.V("s")
	cases := []struct {
		name string
		body []lang.Stmt
		want string // the result, or a fragment of the error
	}{
		{"unbound in one branch", []lang.Stmt{
			lang.When(lang.Gt(lang.A(lang.Self(), "CuboidID"), lang.I(1000)), []lang.Stmt{lang.Let("x", lang.I(1))}),
			lang.Ret(x),
		}, `unbound variable "x"`},
		{"bound in the branch taken", []lang.Stmt{
			lang.When(lang.Lt(lang.A(lang.Self(), "CuboidID"), lang.I(1000)), []lang.Stmt{lang.Let("x", lang.I(1))}),
			lang.Ret(x),
		}, "1"},
		{"foreach restores a shadowed variable", []lang.Stmt{
			lang.Let("c", lang.I(5)),
			lang.Each("c", set123, lang.Let("s", c), lang.Let("c", lang.I(40))),
			lang.Ret(lang.Add(c, s)),
		}, "8"},
		{"foreach unbinds its variable", []lang.Stmt{
			lang.Each("c", set123, lang.Let("s", c)),
			lang.Ret(c),
		}, `unbound variable "c"`},
		{"return inside foreach", []lang.Stmt{
			lang.Each("c", set123, lang.When(lang.Eq(c, lang.I(2)), []lang.Stmt{lang.Ret(lang.Mul(c, lang.I(10)))})),
			lang.Ret(lang.I(0)),
		}, "20"},
		{"division by zero after charges", []lang.Stmt{
			lang.Let("x", lang.A(lang.Self(), "V1", "X")),
			lang.Let("y", lang.CallFn("Cuboid.length", lang.Self())),
			lang.Ret(lang.Div(lang.Add(x, lang.V("y")), lang.F(0))),
		}, "division by zero"},
		{"in on a reference", []lang.Stmt{
			lang.Ret(lang.In(lang.Self(), ws)),
		}, "true"},
		{"union on null", []lang.Stmt{
			lang.Ret(lang.Union(lang.Lit{Val: object.Null()}, lang.I(1))),
		}, "1"},
	}
	for _, tc := range cases {
		fn := &lang.Function{Name: "Cuboid.case", Params: []lang.Param{lang.Prm("self", "Cuboid")}, Body: tc.body}
		v, err := p.check(fn, 0)
		got := v.String()
		if err != nil {
			got = err.Error()
		}
		if !strings.Contains(got, tc.want) {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
	pf, err := lang.ParseDefine("define f is return self.foo(1) end")
	if err != nil {
		t.Fatal(err)
	}
	unbound := &lang.Function{Name: "f", Params: []lang.Param{lang.Prm("self", "Cuboid")}, Body: pf.Body}
	if _, err := p.check(unbound, 0); err == nil || !strings.Contains(err.Error(), "unknown expression lang.rawCall") {
		t.Errorf("unbound rawCall: got %v", err)
	}
}
