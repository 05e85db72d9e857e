package query

// Static read-only classification of parsed statements: the Database facade
// runs a statement under its shared read lock only when ReadOnlyPlan proves
// that no evaluation step can mutate engine or GMR state. The analysis uses
// schema metadata exclusively — no object reads, no simulated-clock charges —
// so classifying a query does not perturb the deterministic cost accounting
// of single-threaded runs.

// ReadOnlyPlan reports whether executing q can be proven free of side
// effects on the object base. The proof is conservative: any construct the
// analysis cannot resolve statically (parameter-rooted path steps, unknown
// operations, dynamic dispatch with divergent signatures) classifies the
// statement as a write.
//
// A true result is only sufficient for shared-lock execution if the GMR
// manager is additionally quiescent (core.Manager.Quiescent): plan execution
// issues forward and backward GMR queries, which insert or rematerialize
// entries unless every GMR is complete and fully valid. The facade checks
// both conditions.
func (ex *Executor) ReadOnlyPlan(q *Query) bool {
	if q == nil || q.Kind == MaterializeStmt {
		return false
	}
	rt := make(map[string]string, len(q.Ranges))
	for _, r := range q.Ranges {
		if ex.En.Sch.Reg.Lookup(r.Type) == nil {
			return false
		}
		rt[r.Var] = r.Type
	}
	for _, t := range q.Targets {
		if !ex.pathReadOnly(t.Path, rt) {
			return false
		}
	}
	if q.Where != nil && !ex.predReadOnly(q.Where, rt) {
		return false
	}
	return true
}

func (ex *Executor) predReadOnly(p PredE, rt map[string]string) bool {
	switch n := p.(type) {
	case AndE:
		return ex.predReadOnly(n.L, rt) && ex.predReadOnly(n.R, rt)
	case OrE:
		return ex.predReadOnly(n.L, rt) && ex.predReadOnly(n.R, rt)
	case NotE:
		return ex.predReadOnly(n.E, rt)
	case CmpE:
		return ex.operandReadOnly(n.L, rt) && ex.operandReadOnly(n.R, rt)
	case TruthE:
		return ex.operandReadOnly(n.Op, rt)
	case InE:
		return ex.operandReadOnly(n.Elem, rt) && ex.operandReadOnly(n.Coll, rt)
	}
	return false
}

func (ex *Executor) operandReadOnly(op OperandE, rt map[string]string) bool {
	switch o := op.(type) {
	case LitE, ParamE:
		return true
	case *PathE:
		return ex.pathReadOnly(o, rt)
	}
	return false
}

func (ex *Executor) pathReadOnly(p *PathE, rt map[string]string) bool {
	if p == nil {
		return false
	}
	if p.Call != nil {
		for _, a := range p.Call.Args {
			if !ex.operandReadOnly(a, rt) {
				return false
			}
		}
		return ex.CallReadOnly(p.Call.Fn)
	}
	rootType, ok := rt[p.Root]
	if !ok {
		// Parameter-rooted path: the root's runtime type is unknown, so any
		// further step would dispatch dynamically on it. A bare reference is
		// harmless; anything longer is classified as a write.
		return len(p.Segs) == 0
	}
	curType := rootType
	for _, seg := range p.Segs {
		if at, ok := ex.En.Sch.AttrType(curType, seg); ok {
			// Attribute reads never mutate. Subtypes inherit the attribute
			// with the same declared type, so the runtime dispatch in step()
			// resolves the same way for every instance.
			curType = at
			continue
		}
		if !ex.En.Sch.OpReadOnly(curType, seg) {
			return false
		}
		fn, ok := ex.En.Sch.ResolveOp(curType, seg)
		if !ok {
			return false
		}
		// All dynamic-dispatch candidates must agree on the result type so
		// the remainder of the static walk stays valid for every instance.
		for _, tn := range ex.En.Sch.Reg.WithSubtypes(curType) {
			sub, ok := ex.En.Sch.ResolveOp(tn, seg)
			if !ok || sub.ResultType != fn.ResultType {
				return false
			}
		}
		curType = fn.ResultType
	}
	return true
}

// CallReadOnly classifies an explicit application of the function or
// operation name. Qualified names check every dynamic-dispatch override;
// unqualified names must resolve to a free function (an unqualified
// operation dispatches on the runtime type of its first argument, which is
// unknown statically). It reads the schema's precomputed classification
// (schema.Schema.CalleeReadOnly) — no object loads, no simulated-clock
// charges — the same table the facade admits Call's shared-lock and
// snapshot paths by, so an embedded call and a GOMql call of the same
// function classify alike.
func (ex *Executor) CallReadOnly(name string) bool {
	c, ok := ex.En.Sch.Callee(name)
	return ok && ex.En.Sch.CalleeReadOnly(c)
}
