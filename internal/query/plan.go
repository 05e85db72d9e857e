package query

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"gomdb/internal/core"
	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/pred"
)

// Backward-query planning (Section 3.2) and the materialize statement
// (Sections 3 and 6).

// flattenConjuncts returns the top-level conjunction as a list, or nil if
// the predicate is not a pure conjunction.
func flattenConjuncts(p PredE) []PredE {
	switch n := p.(type) {
	case AndE:
		l := flattenConjuncts(n.L)
		r := flattenConjuncts(n.R)
		if l == nil || r == nil {
			return nil
		}
		return append(l, r...)
	case CmpE, InE, TruthE:
		return []PredE{p}
	}
	return nil
}

// matFnBound describes a conjunct of the form f(...,var,...) ⊙ const over a
// materialized function f: the range variable appears at argument position
// varPos, every other argument is bound to a constant value.
type matFnBound struct {
	fid    string
	op     string
	bound  float64
	varPos int
	fixed  []object.Value // nil at varPos
}

// planKey identifies one (function, fixed-argument) combination so bounds
// on the same invocation intersect.
func (b matFnBound) planKey() string {
	k := b.fid
	for i, v := range b.fixed {
		if i == b.varPos {
			k += "|$"
			continue
		}
		k += "|" + v.String()
	}
	return k
}

// backward is a backward GMR range retrieval answering a single-variable
// query: its matches, and the bound the retrieval is for.
type backward struct {
	matches []core.Match
	bound   matFnBound
}

// candidate returns the range variable's object of match m, and false when
// m's fixed arguments differ from the constants the query binds them to (a
// multi-argument function's GMR holds every combination).
func (bw backward) candidate(m core.Match) (object.Value, bool) {
	for i, fv := range bw.bound.fixed {
		if i != bw.bound.varPos && !m.Args[i].Equal(fv) {
			return object.Null(), false
		}
	}
	return m.Args[bw.bound.varPos], true
}

// backwardPlan plans a single-variable query as a backward GMR range
// retrieval and runs the retrieval. ok=false means no such plan applies and
// the query scans; every candidate of a plan must still pass the where
// clause.
func (ex *Executor) backwardPlan(q *Query, params map[string]object.Value) (bw backward, ok bool, err error) {
	conjuncts := flattenConjuncts(q.Where)
	if conjuncts == nil {
		return bw, false, nil
	}
	rv := q.Ranges[0]
	var bounds []matFnBound
	for _, c := range conjuncts {
		cmp, ok := c.(CmpE)
		if !ok {
			continue
		}
		if b, ok := ex.classifyBound(cmp, rv, params); ok {
			bounds = append(bounds, b)
		}
	}
	if len(bounds) == 0 {
		return bw, false, nil
	}
	// Intersect the bounds per (function, fixed arguments) and pick the
	// combination with the tightest (finite) window.
	type window struct {
		lb, ub float64
		bound  matFnBound
	}
	windows := map[string]*window{}
	for _, b := range bounds {
		k := b.planKey()
		w := windows[k]
		if w == nil {
			w = &window{lb: math.Inf(-1), ub: math.Inf(1), bound: b}
			windows[k] = w
		}
		switch b.op {
		case "<", "<=":
			if b.bound < w.ub {
				w.ub = b.bound
			}
		case ">", ">=":
			if b.bound > w.lb {
				w.lb = b.bound
			}
		case "=":
			if b.bound > w.lb {
				w.lb = b.bound
			}
			if b.bound < w.ub {
				w.ub = b.bound
			}
		}
	}
	keys := make([]string, 0, len(windows))
	for k := range windows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bestKey := ""
	bestSpan := math.Inf(1)
	for _, k := range keys {
		span := windows[k].ub - windows[k].lb
		if bestKey == "" || span < bestSpan {
			bestSpan = span
			bestKey = k
		}
	}
	if bestKey == "" {
		return bw, false, nil
	}
	best := windows[bestKey].bound
	bestFid := best.fid
	g, ok := ex.Mgr.GMRFor(bestFid)
	if !ok {
		return bw, false, nil
	}
	// Restricted GMRs need the applicability test of Section 6: the
	// relevant part σ′ of the selection predicate must imply the
	// restriction predicate p, decided as ¬p ∧ σ′ unsatisfiable.
	if g.Restriction != nil {
		if g.Restriction.Formula == nil {
			if ex.Explain != nil {
				ex.explain("plan: GMR %s restricted without formula; falling back", g.Name)
			}
			return bw, false, nil
		}
		sigma, ok := ex.relevantFormula(conjuncts, rv, params)
		if !ok {
			if ex.Explain != nil {
				ex.explain("plan: σ′ not expressible in the decidable class; falling back")
			}
			return bw, false, nil
		}
		covered, err := pred.Covers(g.Restriction.Formula, sigma)
		if err != nil || !covered {
			if ex.Explain != nil {
				ex.explain("plan: restricted GMR %s not applicable (%v); falling back", g.Name, err)
			}
			return bw, false, nil
		}
	}
	w := windows[bestKey]
	if ex.Snap != nil {
		bw.matches, err = ex.Snap.Backward(bestFid, w.lb, w.ub)
	} else {
		bw.matches, err = ex.Mgr.Backward(bestFid, w.lb, w.ub)
	}
	if err != nil {
		if errors.Is(err, core.ErrIncomplete) {
			return bw, false, nil
		}
		return bw, false, err
	}
	if ex.Explain != nil {
		ex.explain("plan: backward GMR index on %s over [%g, %g], %d candidates", bestFid, w.lb, w.ub, len(bw.matches))
	}
	bw.bound = best
	return bw, true, nil
}

// classifyBound recognizes var.f ⊙ literal and f(..., var, ...) ⊙ literal
// (or their mirrored forms) over a materialized function whose other
// arguments are bound to constants — the paper's backward queries on unary
// functions like volume as well as on multi-argument functions like
// distance(c, r).
func (ex *Executor) classifyBound(cmp CmpE, rv RangeDecl, params map[string]object.Value) (matFnBound, bool) {
	path, lit, op := cmp.L, cmp.R, cmp.Op
	if _, ok := path.(*PathE); !ok {
		path, lit = cmp.R, cmp.L
		op = reverseOp(op)
	}
	pe, ok := path.(*PathE)
	if !ok {
		return matFnBound{}, false
	}
	if op == "!=" {
		return matFnBound{}, false
	}
	c, ok := constValue(lit, params)
	f, numeric := c.AsFloat()
	if !ok || !numeric {
		return matFnBound{}, false
	}

	if pe.Call != nil {
		return ex.classifyCallBound(pe.Call, op, f, rv, params)
	}
	if pe.Root != rv.Var || len(pe.Segs) != 1 {
		return matFnBound{}, false
	}
	fn, ok := ex.En.Sch.ResolveOp(rv.Type, pe.Segs[0])
	if !ok || len(fn.Params) != 1 {
		return matFnBound{}, false
	}
	if _, ok := ex.Mgr.GMRFor(fn.Name); !ok {
		return matFnBound{}, false
	}
	return matFnBound{fid: fn.Name, op: op, bound: f, varPos: 0}, true
}

// classifyCallBound handles f(args...) ⊙ const where the range variable is
// exactly one bare argument and the rest are constants or parameters.
func (ex *Executor) classifyCallBound(call *CallE, op string, bound float64, rv RangeDecl, params map[string]object.Value) (matFnBound, bool) {
	fn, ok := ex.En.Sch.ResolveStatic(call.Fn)
	if !ok {
		// Unqualified operation name: try the range type.
		fn, ok = ex.En.Sch.ResolveOp(rv.Type, call.Fn)
		if !ok {
			return matFnBound{}, false
		}
	}
	if _, ok := ex.Mgr.GMRFor(fn.Name); !ok {
		return matFnBound{}, false
	}
	if len(call.Args) != len(fn.Params) {
		return matFnBound{}, false
	}
	varPos := -1
	fixed := make([]object.Value, len(call.Args))
	for i, a := range call.Args {
		if p, isPath := a.(*PathE); isPath && p.Call == nil && p.Root == rv.Var && len(p.Segs) == 0 {
			if varPos >= 0 {
				return matFnBound{}, false // variable in two positions
			}
			varPos = i
			continue
		}
		v, ok := constValue(a, params)
		if !ok {
			return matFnBound{}, false
		}
		fixed[i] = v
	}
	if varPos < 0 {
		return matFnBound{}, false
	}
	return matFnBound{fid: fn.Name, op: op, bound: bound, varPos: varPos, fixed: fixed}, true
}

// constValue is the value of a literal or a bound parameter.
func constValue(op OperandE, params map[string]object.Value) (object.Value, bool) {
	switch l := op.(type) {
	case LitE:
		return l.value(), true
	case ParamE:
		v, ok := params[l.Name]
		return v, ok
	}
	return object.Null(), false
}

func reverseOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// relevantFormula translates the conjuncts referencing the range variable
// into a pred formula over canonical "O1.<path>" names (the convention the
// restriction formulas use). It fails if any relevant conjunct does not fit
// the decidable class.
func (ex *Executor) relevantFormula(conjuncts []PredE, rv RangeDecl, params map[string]object.Value) (pred.P, bool) {
	var parts []pred.P
	for _, c := range conjuncts {
		if !ex.mentionsVar(c, rv.Var) {
			continue
		}
		p, ok := ex.predToFormula(c, rv, params)
		if !ok {
			return nil, false
		}
		parts = append(parts, p)
	}
	return pred.And(parts...), true
}

func (ex *Executor) mentionsVar(p PredE, v string) bool {
	switch n := p.(type) {
	case AndE:
		return ex.mentionsVar(n.L, v) || ex.mentionsVar(n.R, v)
	case OrE:
		return ex.mentionsVar(n.L, v) || ex.mentionsVar(n.R, v)
	case NotE:
		return ex.mentionsVar(n.E, v)
	case CmpE:
		return operandMentions(n.L, v) || operandMentions(n.R, v)
	case InE:
		return operandMentions(n.Elem, v) || operandMentions(n.Coll, v)
	case TruthE:
		return operandMentions(n.Op, v)
	}
	return false
}

func operandMentions(op OperandE, v string) bool {
	pe, ok := op.(*PathE)
	if !ok {
		return false
	}
	if pe.Call != nil {
		for _, a := range pe.Call.Args {
			if operandMentions(a, v) {
				return true
			}
		}
		return false
	}
	return pe.Root == v
}

// predToFormula translates a predicate into the pred calculus, naming
// variable paths "O1.<segs>". String constants are interned via the shared
// interner so they agree with restriction formulas.
func (ex *Executor) predToFormula(p PredE, rv RangeDecl, params map[string]object.Value) (pred.P, bool) {
	switch n := p.(type) {
	case AndE:
		l, okL := ex.predToFormula(n.L, rv, params)
		r, okR := ex.predToFormula(n.R, rv, params)
		return pred.And(l, r), okL && okR
	case OrE:
		l, okL := ex.predToFormula(n.L, rv, params)
		r, okR := ex.predToFormula(n.R, rv, params)
		return pred.Or(l, r), okL && okR
	case NotE:
		e, ok := ex.predToFormula(n.E, rv, params)
		return pred.Not(e), ok
	case CmpE:
		return ex.cmpToFormula(n, rv, params)
	}
	return nil, false
}

func (ex *Executor) cmpToFormula(n CmpE, rv RangeDecl, params map[string]object.Value) (pred.P, bool) {
	opOf := map[string]pred.CmpOp{
		"=": pred.Eq, "!=": pred.Ne, "<": pred.Lt, "<=": pred.Le, ">": pred.Gt, ">=": pred.Ge,
	}
	op, ok := opOf[n.Op]
	if !ok {
		return nil, false
	}
	name := func(o OperandE) (string, bool) {
		pe, isPath := o.(*PathE)
		if !isPath || pe.Call != nil || pe.Root != rv.Var {
			return "", false
		}
		return "O1." + strings.Join(pe.Segs, "."), true
	}
	constOf := func(o OperandE) (float64, bool) {
		switch l := o.(type) {
		case LitE:
			if l.IsNum {
				return l.Num, true
			}
			if l.IsB {
				if l.Bool {
					return 1, true
				}
				return 0, true
			}
			return ex.Mgr.Intern.Code(l.Str), true
		case ParamE:
			v, ok := params[l.Name]
			if !ok {
				return 0, false
			}
			if f, okF := v.AsFloat(); okF {
				return f, true
			}
			if v.Kind == object.KString {
				return ex.Mgr.Intern.Code(v.S), true
			}
			return 0, false
		}
		return 0, false
	}
	if x, ok := name(n.L); ok {
		if y, ok := name(n.R); ok {
			return pred.CmpVars(x, op, y), true
		}
		if c, ok := constOf(n.R); ok {
			return pred.CmpConst(x, op, c), true
		}
		return nil, false
	}
	if y, ok := name(n.R); ok {
		if c, ok := constOf(n.L); ok {
			// c ⊙ y  ≡  y ⊙⁻¹ c
			return pred.CmpConst(y, opOf[reverseOp(n.Op)], c), true
		}
	}
	return nil, false
}

// runMaterialize executes "range v: T materialize v.f1, v.f2 [where p]".
func (ex *Executor) runMaterialize(q *Query, params map[string]object.Value) (*Result, error) {
	if len(q.Ranges) != 1 {
		return nil, fmt.Errorf("gomql: materialize needs exactly one range variable")
	}
	rv := q.Ranges[0]
	var funcs []string
	for _, t := range q.Targets {
		if t.Agg != "" || t.Path.Call != nil || t.Path.Root != rv.Var || len(t.Path.Segs) != 1 {
			return nil, fmt.Errorf("gomql: materialize target must be %s.<function>", rv.Var)
		}
		fn, ok := ex.En.Sch.ResolveOp(rv.Type, t.Path.Segs[0])
		if !ok {
			return nil, fmt.Errorf("gomql: no function %q on type %q", t.Path.Segs[0], rv.Type)
		}
		funcs = append(funcs, fn.Name)
	}
	opts := core.Options{
		Funcs:    funcs,
		Complete: true,
		Strategy: ex.DefaultStrategy,
		Mode:     ex.DefaultMode,
	}
	if q.Where != nil {
		body, err := lowerRestriction(ex.En.Sch, rv, q.Where, params)
		if err != nil {
			return nil, err
		}
		pfn := &lang.Function{
			Name:           "p$" + strings.Join(funcs, "_"),
			Params:         []lang.Param{lang.Prm(rv.Var, rv.Type)},
			ResultType:     "bool",
			SideEffectFree: true,
			Body:           []lang.Stmt{lang.Ret(body)},
		}
		formula, _ := ex.predToFormula(q.Where, rv, params)
		opts.Restriction = &core.Restriction{Fn: pfn, Formula: formula}
	}
	g, err := ex.Mgr.Materialize(opts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns: []string{"gmr", "entries"},
		Rows:    [][]object.Value{{object.String_(g.Name), object.Int(int64(g.Len()))}},
	}, nil
}
