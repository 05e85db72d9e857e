package query

import (
	"fmt"
	"slices"
	"strings"

	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// Lowering. A GOMql path step is a GOMpl attribute read or operation call
// (the paper's uniform treatment of stored and computed properties), so a
// statement's expressions are GOMpl expressions: each retrieve target and
// the where clause lower, once, to a lang.Function whose parameters are the
// statement's range variables followed by its parameters, and lang.Eval is
// the one evaluator that runs them. The lowering is static: every step
// resolves on the static type of its receiver, with the range variables
// typed by their declarations.
//
//   - An attribute step becomes lang.A, an operation step the call
//     lang.CallFn("T.op", recv) of a unary operation of T. An attribute of
//     T's flattened layout wins over an operation.
//   - The overrides of an operation must declare the operation's result
//     type, so the static type of the rest of the path holds for every
//     instance.
//   - An unqualified call f(a, ...) names a free function f if there is
//     one, else the operation f of a's static type.
//   - A parameter is a value of unknown type: a path rooted at one takes
//     no step, and a call cannot be qualified by it.
//   - not, and, or, in and the comparisons become their lang nodes.

// lowered is a statement lowered against one generation of one schema.
type lowered struct {
	sch *schema.Schema
	gen uint64

	targets []*lang.Function
	where   *lang.Function // nil without a where clause
	// params names the statement's parameters in the order the functions
	// take them, after the range variables.
	params []string
	// callees are the calls the functions emit, for ReadOnlyPlan.
	callees []schema.Callee
}

// lowering is the state of one statement's lowering.
type lowering struct {
	sch    *schema.Schema
	ranges []RangeDecl
	// consts, when set, lowers every parameter to the literal it binds
	// (the materialize statement's restriction predicate); otherwise a
	// parameter becomes a function parameter.
	consts  map[string]object.Value
	params  []string
	callees []schema.Callee
}

// lowerStatement lowers the targets and the where clause of q.
func lowerStatement(sch *schema.Schema, q *Query) (*lowered, error) {
	for _, r := range q.Ranges {
		if sch.Reg.Lookup(r.Type) == nil {
			return nil, fmt.Errorf("gomql: unknown range type %q", r.Type)
		}
	}
	lw := &lowering{sch: sch, ranges: q.Ranges}
	l := &lowered{sch: sch, gen: sch.Generation()}
	for _, t := range q.Targets {
		e, _, err := lw.path(t.Path)
		if err != nil {
			return nil, err
		}
		l.targets = append(l.targets, &lang.Function{Name: "gomql target " + t.Path.String(), Body: []lang.Stmt{lang.Ret(e)}})
	}
	if q.Where != nil {
		e, err := lw.pred(q.Where)
		if err != nil {
			return nil, err
		}
		l.where = &lang.Function{Name: "gomql where", ResultType: "bool", Body: []lang.Stmt{lang.Ret(e)}}
	}
	// The parameters are known only now that every expression is lowered.
	ps := make([]lang.Param, 0, len(q.Ranges)+len(lw.params))
	for _, r := range q.Ranges {
		ps = append(ps, lang.Prm(r.Var, r.Type))
	}
	for _, p := range lw.params {
		ps = append(ps, lang.Prm(paramVar(p), ""))
	}
	for _, fn := range l.targets {
		fn.Params = ps
	}
	if l.where != nil {
		l.where.Params = ps
	}
	l.params, l.callees = lw.params, lw.callees
	return l, nil
}

// bind returns the arguments the lowered functions of a statement over nr
// range variables take, with the parameters bound from params: every
// parameter the statement names must be bound, whether or not a candidate
// reaches it. The range variables' slots are the caller's to fill.
func (l *lowered) bind(nr int, params map[string]object.Value) ([]object.Value, error) {
	args := make([]object.Value, nr+len(l.params))
	for i, name := range l.params {
		v, ok := params[name]
		if !ok {
			return nil, fmt.Errorf("gomql: unbound parameter $%s", name)
		}
		args[nr+i] = v
	}
	return args, nil
}

// lowerRestriction lowers the where clause of a materialize statement over
// range variable rv, each parameter to the literal params binds.
func lowerRestriction(sch *schema.Schema, rv RangeDecl, p PredE, params map[string]object.Value) (lang.Expr, error) {
	lw := &lowering{sch: sch, ranges: []RangeDecl{rv}, consts: params}
	if params == nil {
		lw.consts = map[string]object.Value{}
	}
	return lw.pred(p)
}

// paramVar is the GOMpl variable a parameter lowers to; the $ keeps it apart
// from the range variables.
func paramVar(name string) string { return "$" + name }

// rangeType returns the declared type of range variable v.
func (lw *lowering) rangeType(v string) (string, bool) {
	for _, r := range lw.ranges {
		if r.Var == v {
			return r.Type, true
		}
	}
	return "", false
}

func (lw *lowering) pred(p PredE) (lang.Expr, error) {
	switch n := p.(type) {
	case AndE:
		return lw.binary(lang.And, n.L, n.R)
	case OrE:
		return lw.binary(lang.Or, n.L, n.R)
	case NotE:
		e, err := lw.pred(n.E)
		if err != nil {
			return nil, err
		}
		return lang.Un{Op: "not", E: e}, nil
	case CmpE:
		mk, ok := comparisons[n.Op]
		if !ok {
			return nil, fmt.Errorf("gomql: unknown comparison %q", n.Op)
		}
		l, _, err := lw.operand(n.L)
		if err != nil {
			return nil, err
		}
		r, _, err := lw.operand(n.R)
		if err != nil {
			return nil, err
		}
		return mk(l, r), nil
	case InE:
		el, _, err := lw.operand(n.Elem)
		if err != nil {
			return nil, err
		}
		coll, _, err := lw.operand(n.Coll)
		if err != nil {
			return nil, err
		}
		return lang.In(el, coll), nil
	case TruthE:
		e, _, err := lw.operand(n.Op)
		return e, err
	}
	return nil, fmt.Errorf("gomql: unknown predicate %T", p)
}

func (lw *lowering) binary(mk func(l, r lang.Expr) lang.Expr, l, r PredE) (lang.Expr, error) {
	le, err := lw.pred(l)
	if err != nil {
		return nil, err
	}
	re, err := lw.pred(r)
	if err != nil {
		return nil, err
	}
	return mk(le, re), nil
}

var comparisons = map[string]func(l, r lang.Expr) lang.Expr{
	"=": lang.Eq, "!=": lang.Ne, "<": lang.Lt, "<=": lang.Le, ">": lang.Gt, ">=": lang.Ge,
}

// operand lowers an operand and returns its static type ("" when unknown).
func (lw *lowering) operand(op OperandE) (lang.Expr, string, error) {
	switch o := op.(type) {
	case LitE:
		v := o.value()
		return lang.Lit{Val: v}, v.Kind.String(), nil
	case ParamE:
		e, err := lw.param(o.Name)
		return e, "", err
	case *PathE:
		return lw.path(o)
	}
	return nil, "", fmt.Errorf("gomql: unknown operand %T", op)
}

// param lowers a reference to parameter name.
func (lw *lowering) param(name string) (lang.Expr, error) {
	if lw.consts != nil {
		v, ok := lw.consts[name]
		if !ok {
			return nil, fmt.Errorf("gomql: unbound parameter $%s", name)
		}
		return lang.Lit{Val: v}, nil
	}
	if !slices.Contains(lw.params, name) {
		lw.params = append(lw.params, name)
	}
	return lang.V(paramVar(name)), nil
}

func (lw *lowering) path(pe *PathE) (lang.Expr, string, error) {
	if pe.Call != nil {
		return lw.call(pe.Call)
	}
	typ, ok := lw.rangeType(pe.Root)
	if !ok {
		if len(pe.Segs) > 0 {
			return nil, "", fmt.Errorf("gomql: path %s steps from parameter %q, whose type is unknown", pe, pe.Root)
		}
		e, err := lw.param(pe.Root)
		return e, "", err
	}
	e := lang.V(pe.Root)
	for _, seg := range pe.Segs {
		if at, ok := lw.sch.AttrType(typ, seg); ok {
			e, typ = lang.A(e, seg), at
			continue
		}
		fn, ok := lw.sch.ResolveOp(typ, seg)
		if !ok || len(fn.Params) != 1 {
			return nil, "", fmt.Errorf("gomql: type %q has neither attribute nor unary operation %q", typ, seg)
		}
		name := typ + "." + seg
		res, err := lw.callee(name)
		if err != nil {
			return nil, "", err
		}
		e, typ = lang.CallFn(name, e), res
	}
	return e, typ, nil
}

// call lowers a function application.
func (lw *lowering) call(c *CallE) (lang.Expr, string, error) {
	args := make([]lang.Expr, len(c.Args))
	first := ""
	for i, a := range c.Args {
		e, t, err := lw.operand(a)
		if err != nil {
			return nil, "", err
		}
		args[i] = e
		if i == 0 {
			first = t
		}
	}
	name := c.Fn
	if _, free := lw.sch.ResolveStatic(name); !free && !strings.Contains(name, ".") {
		if first == "" {
			return nil, "", fmt.Errorf("gomql: %s is no function, and its first argument has no static type to qualify it by", name)
		}
		name = first + "." + name
	}
	res, err := lw.callee(name)
	if err != nil {
		return nil, "", err
	}
	return lang.CallFn(name, args...), res, nil
}

// callee records the call of name ("Type.op" or a free function) and
// returns its static result type. An operation's overrides must all declare
// that type.
func (lw *lowering) callee(name string) (string, error) {
	c, ok := lw.sch.Callee(name)
	fn, declared := lw.sch.ResolveStatic(name)
	if !ok || !declared {
		return "", fmt.Errorf("gomql: unknown function %q", name)
	}
	if dot := strings.IndexByte(name, '.'); dot >= 0 {
		for _, sub := range lw.sch.Reg.WithSubtypes(name[:dot]) {
			if o, ok := lw.sch.ResolveOp(sub, name[dot+1:]); !ok || o.ResultType != fn.ResultType {
				return "", fmt.Errorf("gomql: %s overrides %s with a different result type", sub+"."+name[dot+1:], name)
			}
		}
	}
	lw.callees = append(lw.callees, c)
	return fn.ResultType, nil
}

// value is the literal's value.
func (l LitE) value() object.Value {
	switch {
	case l.IsNum:
		return object.Float(l.Num)
	case l.IsB:
		return object.Bool(l.Bool)
	}
	return object.String_(l.Str)
}
