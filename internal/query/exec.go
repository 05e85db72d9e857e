package query

import (
	"fmt"
	"math"
	"strings"

	"gomdb/internal/core"
	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// Executor runs GOMql statements against an engine and its GMR manager.
type Executor struct {
	En  *schema.Engine
	Mgr *core.Manager

	// Snap, when set, pins the executor to an MVCC snapshot: En is the
	// snapshot's engine (object reads resolve at the pinned version,
	// materialized calls route to the snapshot's forward path) and backward
	// GMR retrievals reconstruct at the version instead of consulting — and
	// possibly rematerializing — the live GMR. Set via Snapshot.
	Snap *core.Snapshot

	// Defaults for the materialize statement.
	DefaultStrategy core.Strategy
	DefaultMode     core.HookMode

	// Explain, when set, receives one line per query describing the chosen
	// plan (backward GMR index vs. extension scan).
	Explain func(string)

	// rangeTypes maps range variables of the executing query to their
	// declared types, enabling static dispatch in path steps. It is
	// query-local state: RunQuery populates it on a per-query shallow copy
	// of the executor, never on the shared receiver, so concurrent
	// read-only queries do not interfere.
	rangeTypes map[string]string
	// steps holds the path steps the executing query has resolved (see
	// resolveStep). Query-local like rangeTypes.
	steps []stepPlan
}

// stepPlan is the resolution of path step seg on static type typ: an
// attribute read, or (op) a call of the operation "typ.seg", resolved to
// the callee's dense ids; resType is the static type of the step's result.
type stepPlan struct {
	typ, seg string
	attr, op bool
	callee   schema.Callee
	resType  string
}

// NewExecutor returns an executor with the paper's default maintenance
// configuration (immediate rematerialization, ObjDepFct marking).
func NewExecutor(en *schema.Engine, mgr *core.Manager) *Executor {
	return &Executor{En: en, Mgr: mgr, DefaultStrategy: core.Immediate, DefaultMode: core.ModeObjDep}
}

// Snapshot returns a copy of the executor bound to snap: every object and
// GMR read resolves at the snapshot's pinned version, and nothing the copy
// does mutates engine or GMR state. The caller must only run plans that
// ReadOnlyPlan accepts (a materialize or mutation statement fails with
// schema.ErrReadOnlyView).
func (ex *Executor) Snapshot(snap *core.Snapshot) *Executor {
	cp := *ex
	cp.En = snap.Engine()
	cp.Snap = snap
	cp.rangeTypes = nil
	return &cp
}

// Result is a query result: column labels and rows of values.
type Result struct {
	Columns []string
	Rows    [][]object.Value
}

// Run parses and executes a GOMql statement. Parameters referenced as $name
// in the query are taken from params.
func (ex *Executor) Run(src string, params map[string]object.Value) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ex.RunQuery(q, params)
}

// RunQuery executes a parsed statement. It is safe to call concurrently for
// read-only plans (see ReadOnlyPlan): per-query state lives on a shallow
// copy of the executor, not the shared receiver.
func (ex *Executor) RunQuery(q *Query, params map[string]object.Value) (*Result, error) {
	rt := make(map[string]string, len(q.Ranges))
	for _, r := range q.Ranges {
		if ex.En.Sch.Reg.Lookup(r.Type) == nil {
			return nil, fmt.Errorf("gomql: unknown range type %q", r.Type)
		}
		rt[r.Var] = r.Type
	}
	exq := *ex
	exq.rangeTypes = rt
	exq.steps = nil
	if q.Kind == MaterializeStmt {
		return exq.runMaterialize(q, params)
	}
	return exq.runRetrieve(q, params)
}

// explain sends one plan line to Explain. Callers check Explain first, so
// a query nobody explains does not box the arguments.
func (ex *Executor) explain(format string, args ...any) {
	ex.Explain(fmt.Sprintf(format, args...))
}

// binding maps range variables to their current object.
type binding map[string]object.Value

func (ex *Executor) runRetrieve(q *Query, params map[string]object.Value) (*Result, error) {
	res := &Result{}
	for _, t := range q.Targets {
		label := t.Path.String()
		if t.Agg != "" {
			label = t.Agg + "(" + label + ")"
		}
		res.Columns = append(res.Columns, label)
	}

	// Rows are carved from slab, which reserve sizes by a plan's candidate
	// count; the full slice expression keeps an append to one row from
	// overwriting the next. Without a reservation each row is its own slab.
	var slab []object.Value
	reserve := func(rows int) {
		slab = make([]object.Value, rows*len(q.Targets))
		res.Rows = make([][]object.Value, 0, rows)
	}
	emitRow := func(b binding) error {
		n := len(q.Targets)
		if len(slab) < n {
			slab = make([]object.Value, n)
		}
		row := slab[:n:n]
		slab = slab[n:]
		for i, t := range q.Targets {
			v, err := ex.evalOperand(t.Path, b, params)
			if err != nil {
				return err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		return nil
	}

	// Try the backward-query plan for single-variable queries.
	if len(q.Ranges) == 1 && q.Where != nil {
		done, err := ex.tryBackward(q, params, reserve, emitRow)
		if err != nil {
			return nil, err
		}
		if done {
			return ex.finish(q, res)
		}
	}

	// Fallback: nested-loop scan over the range extensions.
	if ex.Explain != nil {
		ex.explain("plan: extension scan over %v", q.Ranges)
	}
	var rec func(i int, b binding) error
	rec = func(i int, b binding) error {
		if i == len(q.Ranges) {
			if q.Where != nil {
				ok, err := ex.evalPred(q.Where, b, params)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			return emitRow(b)
		}
		r := q.Ranges[i]
		for _, oid := range ex.En.ExtensionOf(r.Type) {
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
	return ex.finish(q, res)
}

// finish applies aggregates if all targets are aggregates.
func (ex *Executor) finish(q *Query, res *Result) (*Result, error) {
	hasAgg := false
	for _, t := range q.Targets {
		if t.Agg != "" {
			hasAgg = true
		}
	}
	if !hasAgg {
		return res, nil
	}
	for _, t := range q.Targets {
		if t.Agg == "" {
			return nil, fmt.Errorf("gomql: cannot mix aggregate and plain targets")
		}
	}
	row := make([]object.Value, len(q.Targets))
	for i, t := range q.Targets {
		var sum float64
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		for _, r := range res.Rows {
			f, ok := r[i].AsFloat()
			if !ok && t.Agg != "count" {
				return nil, fmt.Errorf("gomql: %s over non-numeric value %v", t.Agg, r[i])
			}
			sum += f
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
			n++
		}
		switch t.Agg {
		case "sum":
			row[i] = object.Float(sum)
		case "avg":
			if n == 0 {
				row[i] = object.Null()
			} else {
				row[i] = object.Float(sum / float64(n))
			}
		case "count":
			row[i] = object.Int(int64(n))
		case "min":
			if n == 0 {
				row[i] = object.Null()
			} else {
				row[i] = object.Float(lo)
			}
		case "max":
			if n == 0 {
				row[i] = object.Null()
			} else {
				row[i] = object.Float(hi)
			}
		}
	}
	res.Rows = [][]object.Value{row}
	return res, nil
}

// evalOperand evaluates an operand under a binding.
func (ex *Executor) evalOperand(op OperandE, b binding, params map[string]object.Value) (object.Value, error) {
	switch o := op.(type) {
	case LitE:
		switch {
		case o.IsNum:
			return object.Float(o.Num), nil
		case o.IsB:
			return object.Bool(o.Bool), nil
		default:
			return object.String_(o.Str), nil
		}
	case ParamE:
		v, ok := params[o.Name]
		if !ok {
			return object.Null(), fmt.Errorf("gomql: unbound parameter $%s", o.Name)
		}
		return v, nil
	case *PathE:
		return ex.evalPath(o, b, params)
	}
	return object.Null(), fmt.Errorf("gomql: unknown operand %T", op)
}

func (ex *Executor) evalPath(p *PathE, b binding, params map[string]object.Value) (object.Value, error) {
	if p.Call != nil {
		args := make([]object.Value, len(p.Call.Args))
		for i, a := range p.Call.Args {
			v, err := ex.evalOperand(a, b, params)
			if err != nil {
				return object.Null(), err
			}
			args[i] = v
		}
		return ex.invoke(p.Call.Fn, args)
	}
	var cur object.Value
	curType := ""
	if v, ok := b[p.Root]; ok {
		cur = v
		if rt, ok := ex.rangeTypes[p.Root]; ok {
			curType = rt
		}
	} else if v, ok := params[p.Root]; ok {
		cur = v
	} else {
		return object.Null(), fmt.Errorf("gomql: unbound variable %q", p.Root)
	}
	for _, seg := range p.Segs {
		v, nt, err := ex.step(cur, curType, seg)
		if err != nil {
			return object.Null(), err
		}
		cur = v
		curType = nt
	}
	return cur, nil
}

// step evaluates one path segment: an attribute read, or a (nullary)
// operation invocation — the paper's uniform treatment of stored and
// computed properties. curType is the static type when known; if it has no
// subtypes an operation step dispatches statically without reading the
// receiver object, so a materialized-function step goes straight to the GMR.
// It returns the value and the static type of the result (if derivable).
func (ex *Executor) step(cur object.Value, curType, seg string) (object.Value, string, error) {
	switch cur.Kind {
	case object.KRef:
		dispatch := curType
		if dispatch == "" || ex.En.Sch.Reg.HasSubtypes(dispatch) {
			typ, err := ex.En.TypeOf(cur.R)
			if err != nil {
				return object.Null(), "", err
			}
			dispatch = typ
		}
		sp := ex.resolveStep(dispatch, seg)
		switch {
		case sp.attr:
			v, err := ex.En.ReadAttr(cur, seg)
			return v, sp.resType, err
		case sp.op:
			arg := [1]object.Value{cur}
			v, err := ex.call(sp.callee, arg[:])
			return v, sp.resType, err
		}
		return object.Null(), "", fmt.Errorf("gomql: type %q has neither attribute nor operation %q", dispatch, seg)
	case object.KTuple:
		v, err := ex.En.ReadAttr(cur, seg)
		at := ""
		if sp := ex.resolveStep(cur.TupleType, seg); sp.attr {
			at = sp.resType
		}
		return v, at, err
	default:
		return object.Null(), "", fmt.Errorf("gomql: path step %q on %v value", seg, cur.Kind)
	}
}

// resolveStep resolves step seg on type typ once per query execution: an
// attribute of typ's flattened layout wins over an operation resolved along
// its supertype chain. Every candidate of the query then reuses the answer;
// the reads and calls the step issues stay per candidate.
func (ex *Executor) resolveStep(typ, seg string) stepPlan {
	for _, sp := range ex.steps {
		if sp.typ == typ && sp.seg == seg {
			return sp
		}
	}
	sp := stepPlan{typ: typ, seg: seg}
	if at, ok := ex.En.Sch.AttrType(typ, seg); ok {
		sp.attr, sp.resType = true, at
	} else if fn, ok := ex.En.Sch.ResolveOp(typ, seg); ok {
		sp.callee, sp.op = ex.En.Sch.Callee(typ + "." + seg)
		sp.resType = fn.ResultType
	}
	ex.steps = append(ex.steps, sp)
	return sp
}

// call invokes a resolved callee on the executor's call path: the pinned
// snapshot's when the executor has one, the GMR manager's otherwise. Both
// borrow args for a materialized hit.
func (ex *Executor) call(c schema.Callee, args []object.Value) (object.Value, error) {
	if ex.Snap != nil {
		return ex.Snap.Call(c, args)
	}
	return ex.Mgr.Call(c, args)
}

// invoke calls fn, qualifying an unqualified name by the dynamic type of the
// first argument when no free function matches.
func (ex *Executor) invoke(fn string, args []object.Value) (object.Value, error) {
	if !strings.Contains(fn, ".") {
		if _, ok := ex.En.Sch.ResolveStatic(fn); !ok && len(args) > 0 && args[0].Kind == object.KRef {
			typ, err := ex.En.TypeOf(args[0].R)
			if err != nil {
				return object.Null(), err
			}
			fn = typ + "." + fn
		}
	}
	return ex.En.CallFunction(fn, args)
}

// evalPred evaluates a predicate under a binding.
func (ex *Executor) evalPred(p PredE, b binding, params map[string]object.Value) (bool, error) {
	switch n := p.(type) {
	case AndE:
		l, err := ex.evalPred(n.L, b, params)
		if err != nil || !l {
			return false, err
		}
		return ex.evalPred(n.R, b, params)
	case OrE:
		l, err := ex.evalPred(n.L, b, params)
		if err != nil || l {
			return l, err
		}
		return ex.evalPred(n.R, b, params)
	case NotE:
		v, err := ex.evalPred(n.E, b, params)
		return !v, err
	case CmpE:
		l, err := ex.evalOperand(n.L, b, params)
		if err != nil {
			return false, err
		}
		r, err := ex.evalOperand(n.R, b, params)
		if err != nil {
			return false, err
		}
		return compareValues(n.Op, l, r)
	case TruthE:
		v, err := ex.evalOperand(n.Op, b, params)
		if err != nil {
			return false, err
		}
		return v.Truth(), nil
	case InE:
		el, err := ex.evalOperand(n.Elem, b, params)
		if err != nil {
			return false, err
		}
		coll, err := ex.evalOperand(n.Coll, b, params)
		if err != nil {
			return false, err
		}
		if coll.Kind == object.KRef {
			elems, err := ex.En.ReadElems(coll)
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
