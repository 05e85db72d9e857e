package query

// Static read-only classification of parsed statements: the Database facade
// runs a statement under its shared read lock only when ReadOnlyPlan proves
// that no evaluation step can mutate engine or GMR state. The analysis uses
// schema metadata exclusively — no object reads, no simulated-clock charges —
// so classifying a query does not perturb the deterministic cost accounting
// of single-threaded runs.

// ReadOnlyPlan reports whether executing q can be proven free of side
// effects on the object base: q is a retrieve statement, it lowers (see
// lower.go), and every call its lowering emits passes CallReadOnly's test.
// Attribute reads never mutate. A statement that does not lower classifies
// as a write; running it reports why.
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
	l, err := ex.lower(q)
	if err != nil {
		return false
	}
	for _, c := range l.callees {
		if !ex.En.Sch.CalleeReadOnly(c) {
			return false
		}
	}
	return true
}

// CallReadOnly classifies an application of the function or operation name
// as written ("Type.op" or a free function's name): an operation is
// read-only when every override a dynamic dispatch can reach is. It reads
// the schema's precomputed classification (schema.Schema.CalleeReadOnly) —
// no object loads, no simulated-clock charges — the same table the facade
// admits Call's shared-lock and snapshot paths by, so an embedded call and a
// GOMql call of the same function classify alike.
func (ex *Executor) CallReadOnly(name string) bool {
	c, ok := ex.En.Sch.Callee(name)
	return ok && ex.En.Sch.CalleeReadOnly(c)
}
