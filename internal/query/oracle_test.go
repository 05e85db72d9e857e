package query_test

// The reference for the lowering: GOMql's tree-walking evaluator as it was
// before statements lowered to GOMpl. TestQueryMatchesOracle and
// FuzzQueryMatchesOracle run each statement lowered on one database and
// through the oracle on a twin built from the same fixture, and compare the
// rows in order, whether an error occurred, and the Clock.
//
// The oracle resolves every step on the receiver's dynamic type, read from
// the object (a charged read), whenever the static type has subtypes or is
// unknown, and qualifies an unqualified operation call by its first
// argument's dynamic type the same way. The lowering resolves both
// statically, so it makes those dispatch reads only where a call's own
// dispatch needs them (schema.Engine.Resolve): an attribute step on a type
// with subtypes reads no type tag, and an unqualified call qualified by a
// type without subtypes reads none either. Where the oracle made no dispatch
// read of its own the Clocks must match exactly; elsewhere the lowered one
// may only be lower.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/core"
	"gomdb/internal/fixtures"
	"gomdb/internal/object"
	"gomdb/internal/query"
	"gomdb/internal/schema"
	"gomdb/internal/storage"
)

// oracle evaluates retrieve statements the way the executor did before the
// lowering: a binding of range variables to objects, walked per candidate.
type oracle struct {
	ex  *query.Executor // plans backward retrievals and applies aggregates
	en  *schema.Engine
	mgr *core.Manager

	rangeTypes map[string]string
	// dispatched is set when the oracle read a receiver's type to resolve
	// a step or to qualify a call.
	dispatched bool
}

// binding maps range variables to their current object.
type binding map[string]object.Value

func newOracle(db *gomdb.Database) *oracle {
	return &oracle{ex: db.Queries, en: db.Engine, mgr: db.GMRs}
}

// run executes the retrieve statement q.
func (o *oracle) run(q *query.Query, params map[string]object.Value) (*query.Result, error) {
	o.rangeTypes = map[string]string{}
	o.dispatched = false
	for _, r := range q.Ranges {
		if o.en.Sch.Reg.Lookup(r.Type) == nil {
			return nil, fmt.Errorf("gomql: unknown range type %q", r.Type)
		}
		o.rangeTypes[r.Var] = r.Type
	}
	res := &query.Result{}
	for _, t := range q.Targets {
		label := t.Path.String()
		if t.Agg != "" {
			label = t.Agg + "(" + label + ")"
		}
		res.Columns = append(res.Columns, label)
	}
	emitRow := func(b binding) error {
		row := make([]object.Value, len(q.Targets))
		for i, t := range q.Targets {
			v, err := o.evalOperand(t.Path, b, params)
			if err != nil {
				return err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		return nil
	}
	cands, ok, err := query.BackwardCandidates(o.ex, q, params)
	if err != nil {
		return nil, err
	}
	if ok {
		b := binding{}
		for _, c := range cands {
			b[q.Ranges[0].Var] = c
			keep, err := o.evalPred(q.Where, b, params)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
			if err := emitRow(b); err != nil {
				return nil, err
			}
		}
		return query.Finish(o.ex, q, res)
	}
	var rec func(i int, b binding) error
	rec = func(i int, b binding) error {
		if i == len(q.Ranges) {
			if q.Where != nil {
				ok, err := o.evalPred(q.Where, b, params)
				if err != nil || !ok {
					return err
				}
			}
			return emitRow(b)
		}
		r := q.Ranges[i]
		for _, oid := range o.en.ExtensionOf(r.Type) {
			b[r.Var] = object.Ref(oid)
			if err := rec(i+1, b); err != nil {
				return err
			}
		}
		delete(b, r.Var)
		return nil
	}
	if err := rec(0, binding{}); err != nil {
		return nil, err
	}
	return query.Finish(o.ex, q, res)
}

func (o *oracle) evalOperand(op query.OperandE, b binding, params map[string]object.Value) (object.Value, error) {
	switch l := op.(type) {
	case query.LitE:
		switch {
		case l.IsNum:
			return object.Float(l.Num), nil
		case l.IsB:
			return object.Bool(l.Bool), nil
		default:
			return object.String_(l.Str), nil
		}
	case query.ParamE:
		v, ok := params[l.Name]
		if !ok {
			return object.Null(), fmt.Errorf("gomql: unbound parameter $%s", l.Name)
		}
		return v, nil
	case *query.PathE:
		return o.evalPath(l, b, params)
	}
	return object.Null(), fmt.Errorf("gomql: unknown operand %T", op)
}

func (o *oracle) evalPath(p *query.PathE, b binding, params map[string]object.Value) (object.Value, error) {
	if p.Call != nil {
		args := make([]object.Value, len(p.Call.Args))
		for i, a := range p.Call.Args {
			v, err := o.evalOperand(a, b, params)
			if err != nil {
				return object.Null(), err
			}
			args[i] = v
		}
		return o.invoke(p.Call.Fn, args)
	}
	var cur object.Value
	curType := ""
	if v, ok := b[p.Root]; ok {
		cur, curType = v, o.rangeTypes[p.Root]
	} else if v, ok := params[p.Root]; ok {
		cur = v
	} else {
		return object.Null(), fmt.Errorf("gomql: unbound variable %q", p.Root)
	}
	for _, seg := range p.Segs {
		v, nt, err := o.step(cur, curType, seg)
		if err != nil {
			return object.Null(), err
		}
		cur, curType = v, nt
	}
	return cur, nil
}

// step evaluates one path segment: an attribute read, or a nullary
// operation invocation dispatched on the receiver's dynamic type when its
// static type has subtypes or is unknown.
func (o *oracle) step(cur object.Value, curType, seg string) (object.Value, string, error) {
	switch cur.Kind {
	case object.KRef:
		dispatch := curType
		if dispatch == "" || o.en.Sch.Reg.HasSubtypes(dispatch) {
			typ, err := o.en.TypeOf(cur.R)
			o.dispatched = true
			if err != nil {
				return object.Null(), "", err
			}
			dispatch = typ
		}
		if at, ok := o.en.Sch.AttrType(dispatch, seg); ok {
			v, err := o.en.ReadAttr(cur, seg)
			return v, at, err
		}
		if fn, ok := o.en.Sch.ResolveOp(dispatch, seg); ok {
			if c, ok := o.en.Sch.Callee(dispatch + "." + seg); ok {
				v, err := o.mgr.Call(c, []object.Value{cur})
				return v, fn.ResultType, err
			}
		}
		return object.Null(), "", fmt.Errorf("gomql: type %q has neither attribute nor operation %q", dispatch, seg)
	case object.KTuple:
		v, err := o.en.ReadAttr(cur, seg)
		at, _ := o.en.Sch.AttrType(cur.TupleType, seg)
		return v, at, err
	}
	return object.Null(), "", fmt.Errorf("gomql: path step %q on %v value", seg, cur.Kind)
}

// invoke calls fn, qualifying an unqualified name by the dynamic type of the
// first argument when no free function matches.
func (o *oracle) invoke(fn string, args []object.Value) (object.Value, error) {
	if !strings.Contains(fn, ".") {
		if _, ok := o.en.Sch.ResolveStatic(fn); !ok && len(args) > 0 && args[0].Kind == object.KRef {
			typ, err := o.en.TypeOf(args[0].R)
			o.dispatched = true
			if err != nil {
				return object.Null(), err
			}
			fn = typ + "." + fn
		}
	}
	return o.en.CallFunction(fn, args)
}

func (o *oracle) evalPred(p query.PredE, b binding, params map[string]object.Value) (bool, error) {
	switch n := p.(type) {
	case query.AndE:
		l, err := o.evalPred(n.L, b, params)
		if err != nil || !l {
			return false, err
		}
		return o.evalPred(n.R, b, params)
	case query.OrE:
		l, err := o.evalPred(n.L, b, params)
		if err != nil || l {
			return l, err
		}
		return o.evalPred(n.R, b, params)
	case query.NotE:
		v, err := o.evalPred(n.E, b, params)
		return !v, err
	case query.CmpE:
		l, err := o.evalOperand(n.L, b, params)
		if err != nil {
			return false, err
		}
		r, err := o.evalOperand(n.R, b, params)
		if err != nil {
			return false, err
		}
		return compareValues(n.Op, l, r)
	case query.TruthE:
		v, err := o.evalOperand(n.Op, b, params)
		return v.Truth(), err
	case query.InE:
		el, err := o.evalOperand(n.Elem, b, params)
		if err != nil {
			return false, err
		}
		coll, err := o.evalOperand(n.Coll, b, params)
		if err != nil {
			return false, err
		}
		if coll.Kind == object.KRef {
			elems, err := o.en.ReadElems(coll)
			if err != nil {
				return false, err
			}
			coll = object.SetVal(elems...)
		}
		if coll.Kind != object.KSet && coll.Kind != object.KList {
			return false, fmt.Errorf("gomql: 'in' on %v value", coll.Kind)
		}
		return coll.Contains(el), nil
	}
	return false, fmt.Errorf("gomql: unknown predicate %T", p)
}

func compareValues(op string, l, r object.Value) (bool, error) {
	switch op {
	case "=":
		return l.Equal(r), nil
	case "!=":
		return !l.Equal(r), nil
	}
	if l.Kind == object.KString && r.Kind == object.KString {
		switch op {
		case "<":
			return l.S < r.S, nil
		case "<=":
			return l.S <= r.S, nil
		case ">":
			return l.S > r.S, nil
		case ">=":
			return l.S >= r.S, nil
		}
	}
	lf, okL := l.AsFloat()
	rf, okR := r.AsFloat()
	if !okL || !okR {
		return false, fmt.Errorf("gomql: cannot compare %v and %v", l.Kind, r.Kind)
	}
	switch op {
	case "<":
		return lf < rf, nil
	case "<=":
		return lf <= rf, nil
	case ">":
		return lf > rf, nil
	case ">=":
		return lf >= rf, nil
	}
	return false, fmt.Errorf("gomql: unknown comparison %q", op)
}

// twinDB builds the differential fixture: the geometry and company schemas
// in one database (Person has the subtype Employee), a Workpieces set, and
// complete GMRs over volume, distance and ranking plus a restricted one over
// weight, so statements take backward plans, restricted-GMR tests and scans.
// It returns the database and the parameters the corpus binds.
func twinDB(t testing.TB) (*gomdb.Database, map[string]object.Value) {
	t.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	if err := fixtures.DefineCompany(db); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 12, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fixtures.PopulateCompany(db, fixtures.CompanyConfig{
		Departments: 2, EmpsPerDep: 3, Projects: 3, JobsPerEmp: 2, ProgsPerProj: 2, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	db.MustNew("Person", gomdb.Str("Ada"))
	wp, err := db.NewSet("Workpieces", gomdb.Ref(g.Cuboids[0]), gomdb.Ref(g.Cuboids[3]), gomdb.Ref(g.Cuboids[7]))
	if err != nil {
		t.Fatal(err)
	}
	for _, fns := range [][]string{{"Cuboid.volume"}, {"Cuboid.distance"}, {"Employee.ranking"}} {
		if _, err := db.Materialize(gomdb.MaterializeOptions{
			Funcs: fns, Complete: true, Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query(`range c: Cuboid materialize c.weight where c.Mat.Name = "Iron"`, nil); err != nil {
		t.Fatal(err)
	}
	return db, map[string]object.Value{
		"r": gomdb.Ref(g.Robots[0]), "d": gomdb.Float(120), "id": gomdb.Int(3),
		"lo": gomdb.Float(50), "hi": gomdb.Float(250), "wp": gomdb.Ref(wp),
		"v": gomdb.Float(3), "name": gomdb.Str("Iron"),
	}
}

// twins is a pair of databases built from the same fixture: the lowered
// executor runs on a, the oracle on b.
type twins struct {
	a, b   *gomdb.Database
	o      *oracle
	params map[string]object.Value
}

func newTwins(t testing.TB) *twins {
	a, params := twinDB(t)
	b, _ := twinDB(t)
	return &twins{a: a, b: b, o: newOracle(b), params: params}
}

// compared tells what check ran on a statement.
type compared int

const (
	skipped  compared = iota // does not parse, or is not a read-only retrieve
	rejected                 // fails the static rules
	exact                    // Clocks must match
	atMost                   // the oracle made dispatch reads of its own
)

// check runs src on both twins and reports a difference with t.Errorf.
func (tw *twins) check(t testing.TB, src string) compared {
	t.Helper()
	qa, err := query.Parse(src)
	if err != nil || qa.Kind != query.Retrieve || len(qa.Ranges) > 2 {
		return skipped
	}
	qb, _ := query.Parse(src)
	ca, cb := tw.a.Engine.Clock, tw.b.Engine.Clock
	before := *ca
	if err := query.Admits(tw.a.Queries, qa, tw.params); err != nil {
		// Rejected before any candidate: nothing is charged.
		if _, err := tw.a.Queries.RunQuery(qa, tw.params); err == nil {
			t.Errorf("%s: admitted at run time, rejected statically", src)
		}
		if *ca != before {
			t.Errorf("%s: a rejected statement charged %+v", src, delta(*ca, before))
		}
		return rejected
	}
	if ok, _ := tw.a.Queries.ReadOnlyPlan(qa); !ok {
		return skipped
	}
	beforeB := *cb
	ra, errA := tw.a.Queries.RunQuery(qa, tw.params)
	rb, errB := tw.o.run(qb, tw.params)
	da, db := delta(*ca, before), delta(*cb, beforeB)
	if (errA == nil) != (errB == nil) {
		t.Errorf("%s: lowered error %v, oracle error %v", src, errA, errB)
		return exact
	}
	if errA == nil {
		if fmt.Sprint(ra.Columns) != fmt.Sprint(rb.Columns) || !sameRows(ra.Rows, rb.Rows) {
			t.Errorf("%s:\nlowered %v %v\noracle  %v %v", src, ra.Columns, ra.Rows, rb.Columns, rb.Rows)
		}
	}
	if !tw.o.dispatched {
		if da != db {
			t.Errorf("%s: lowered Clock %+v, oracle %+v", src, da, db)
		}
		return exact
	}
	if da.PhysReads > db.PhysReads || da.PhysWrites > db.PhysWrites || da.LogReads > db.LogReads ||
		da.LogWrites > db.LogWrites || da.CPUOps > db.CPUOps {
		t.Errorf("%s: lowered Clock %+v exceeds the oracle's %+v", src, da, db)
	}
	return atMost
}

// delta is the Clock charged between before and after.
func delta(after, before storage.Clock) storage.Clock {
	return storage.Clock{
		PhysReads: after.PhysReads - before.PhysReads, PhysWrites: after.PhysWrites - before.PhysWrites,
		LogReads: after.LogReads - before.LogReads, LogWrites: after.LogWrites - before.LogWrites,
		CPUOps: after.CPUOps - before.CPUOps,
	}
}

func sameRows(a, b [][]object.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// parseSeeds returns the statements of the FuzzParseQuery seed corpus.
func parseSeeds(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzParseQuery/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzParseQuery seeds: %v", err)
	}
	var out []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		line := strings.TrimSpace(string(b))
		line = line[strings.LastIndex(line, "\n")+1:]
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, src)
	}
	return out
}

// Path pools of the generated statements, per range type: numeric paths,
// paths of other kinds, and paths the static rules reject.
var genRanges = []struct {
	typ           string
	num, other    []string
	bad           []string
	boundary, lit []string
}{
	{
		typ: "Cuboid",
		num: []string{"%[1]s.CuboidID", "%[1]s.Value", "%[1]s.volume", "%[1]s.weight", "%[1]s.length",
			"%[1]s.V1.X", "%[1]s.Mat.SpecWeight", "volume(%[1]s)", "distance(%[1]s, $r)"},
		other:    []string{"%[1]s", "%[1]s.Mat", "%[1]s.Mat.Name", "%[1]s.V2"},
		bad:      []string{"%[1]s.nope", "%[1]s.V1.dist", "%[1]s.translate", "r.Pos", "nope(%[1]s)", "volume($r)"},
		boundary: []string{"%[1]s.CuboidID"},
		lit:      []string{"3", "3.0", "7", "100.0", "$lo", "$hi", "$d", "$v", "$id"},
	},
	{
		typ:      "Person",
		num:      []string{"%[1]s.Name"},
		other:    []string{"%[1]s", "%[1]s.Name"},
		bad:      []string{"%[1]s.ranking", "%[1]s.EmpNo"},
		boundary: []string{"%[1]s.Name"},
		lit:      []string{`"Ada"`, `"E"`, `"M"`},
	},
	{
		typ:      "Employee",
		num:      []string{"%[1]s.EmpNo", "%[1]s.Salary", "%[1]s.ranking", "ranking(%[1]s)"},
		other:    []string{"%[1]s", "%[1]s.Name", "%[1]s.JobHistory"},
		bad:      []string{"%[1]s.Jobs", "assessment(%[1]s)"},
		boundary: []string{"%[1]s.EmpNo"},
		lit:      []string{"1", "2", "3", "4.0", "$v", "$id", "0.5"},
	},
}

// genStatement draws one retrieve statement.
func genStatement(rng *rand.Rand) string {
	rt := genRanges[rng.Intn(len(genRanges))]
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	vars := []string{"x"}
	if rng.Intn(8) == 0 {
		vars = append(vars, "y")
	}
	path := func(v string, pool []string) string { return fmt.Sprintf(pick(pool), v) }
	anyPath := func(v string) string {
		switch n := rng.Intn(16); {
		case n == 0:
			return path(v, rt.bad)
		case n < 12:
			return path(v, rt.num)
		default:
			return path(v, rt.other)
		}
	}
	operand := func(v string) string {
		if rng.Intn(5) == 0 {
			return pick(rt.lit)
		}
		return anyPath(v)
	}
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	var pred func(depth int) string
	pred = func(depth int) string {
		v := pick(vars)
		switch n := rng.Intn(12); {
		case depth > 0 && n < 2:
			return pred(depth-1) + " and " + pred(depth-1)
		case depth > 0 && n < 3:
			return pred(depth-1) + " or " + pred(depth-1)
		case depth > 0 && n < 4:
			return "not (" + pred(depth-1) + ")"
		case n < 5:
			return pick([]string{"true", "false", v + " in $wp", "x.Mat.Name = $name"})
		case n < 8:
			return path(v, rt.boundary) + " " + pick(ops) + " " + pick(rt.lit)
		}
		return operand(v) + " " + pick(ops) + " " + operand(v)
	}
	var targets []string
	if rng.Intn(4) == 0 {
		for _, agg := range []string{"count", "sum", "min", "max", "avg"}[:1+rng.Intn(5)] {
			targets = append(targets, agg+"("+path("x", rt.num)+")")
		}
	} else {
		for i := 0; i <= rng.Intn(2); i++ {
			targets = append(targets, anyPath(pick(vars)))
		}
	}
	ranges := make([]string, len(vars))
	for i, v := range vars {
		ranges[i] = v + ": " + rt.typ
	}
	src := "range " + strings.Join(ranges, ", ") + " retrieve " + strings.Join(targets, ", ")
	if rng.Intn(6) > 0 {
		src += " where " + pred(2)
	}
	return src
}

// corpus is the differential corpus: the FuzzParseQuery seeds, statements
// that exercise each plan and rule once, and generated ones.
func corpus(t testing.TB) []string {
	out := append(parseSeeds(t),
		`range c: Cuboid retrieve c where distance(c, $r) < $d`,
		`range c: Cuboid retrieve c.CuboidID where c.volume > $lo and c.volume < $hi`,
		`range c: Cuboid retrieve c where c.volume > 100.0 and c.Mat.Name = "Iron"`,
		`range c: Cuboid retrieve c.weight where c.weight > 500.0 and c.Mat.Name = "Iron"`,
		`range c: Cuboid retrieve c.CuboidID where c.CuboidID < 3`,
		`range p: Person retrieve p.Name where p.Name < "M"`,
		`range e: Employee retrieve e.EmpNo, ranking(e) where e.ranking >= 0.0 and e.ranking < $v`,
		`range c: Cuboid retrieve c.Mat.Name where c in $wp`,
	)
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 400; i++ {
		out = append(out, genStatement(rng))
	}
	return out
}

// TestQueryMatchesOracle runs the corpus lowered and through the oracle.
func TestQueryMatchesOracle(t *testing.T) {
	tw := newTwins(t)
	var n [4]int
	for _, src := range corpus(t) {
		n[tw.check(t, src)]++
	}
	t.Logf("skipped %d, rejected %d, exact %d, at most %d", n[skipped], n[rejected], n[exact], n[atMost])
	if n[exact] < 150 || n[atMost] < 100 || n[rejected] < 40 {
		t.Errorf("corpus too thin: %d exact, %d at-most, %d rejected statements", n[exact], n[atMost], n[rejected])
	}
}

// FuzzQueryMatchesOracle is TestQueryMatchesOracle over arbitrary source
// text; run the campaign with `make fuzz-parse`.
func FuzzQueryMatchesOracle(f *testing.F) {
	for _, src := range corpus(f) {
		f.Add(src)
	}
	tw := newTwins(f)
	f.Fuzz(func(t *testing.T, src string) {
		tw.check(t, src)
	})
}
