package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"gomdb/internal/btree"
	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// Retrieval operations on GMRs (Section 3.2): forward queries that probe a
// known argument combination and backward range queries over the result
// columns, plus the interceptor that rewrites ordinary invocations of
// materialized functions into forward queries.

// ErrNotMaterialized reports a lookup on a function with no GMR.
var ErrNotMaterialized = errors.New("core: function is not materialized")

// ErrIncomplete reports a backward query on an incomplete GMR extension; a
// complete answer would require computing the missing combinations, so the
// planner falls back to an extension scan instead.
var ErrIncomplete = errors.New("core: GMR extension is not complete")

// intercept is the CallInterceptor installed into the engine for calls
// nested inside GOMpl bodies: "an invocation f(o1,...,on) would be
// transformed to [a selection on] <<f1,...,fm>> if the GMR is present".
func (m *Manager) intercept(fid schema.FuncID, args []object.Value) (object.Value, bool, error) {
	c := m.colOf(fid)
	if c.g == nil {
		return object.Null(), false, nil
	}
	v, err := m.forward(c, fid, args)
	return v, true, err
}

// Call invokes the function or operation a call name resolved to (see
// schema.Schema.Callee) — the facade's and the query executor's call path.
// An invocation of a materialized function is answered by the forward
// query, any other by Apply; both borrow args, so a valid hit and an
// evaluation keep nothing of them.
func (m *Manager) Call(c schema.Callee, args []object.Value) (object.Value, error) {
	fid, dt, err := m.En.Resolve(c, args)
	if err != nil {
		return object.Null(), err
	}
	if col := m.colOf(fid); col.g != nil && m.En.Intercepts() {
		return m.forward(col, fid, args)
	}
	return m.En.Apply(c, fid, dt, args)
}

// Forward answers a forward query for the function named fid (a
// materialized function or one of its overrides); see forward.
func (m *Manager) Forward(fid string, args []object.Value) (object.Value, error) {
	id, c, ok := m.colByName(fid)
	if !ok {
		return object.Null(), fmt.Errorf("%w: %s", ErrNotMaterialized, fid)
	}
	return m.forward(c, id, args)
}

// forward answers a forward query: the result of function fid, materialized
// in column c, for the given argument combination. Invalid or missing
// results are (re)computed; computed results refresh or extend the GMR where
// the restriction and completeness rules allow it (Section 3.2). forward
// borrows args: the paths that keep them (the incremental insert) copy them.
func (m *Manager) forward(c colRef, fid schema.FuncID, args []object.Value) (object.Value, error) {
	g, i := c.g, c.col
	if !g.admitsArgs(args) {
		// Outside the restricted atomic domain: compute with the "normal"
		// function, do not store.
		atomic.AddInt64(&m.Stats.ForwardMisses, 1)
		return m.computeRaw(g.Funcs[i], args)
	}
	if e, ok := g.lookup(args); ok {
		if e.Valid[i] {
			m.noteForward(g, e, fid, true)
			if err := g.touch(e); err != nil {
				return object.Null(), err
			}
			return e.Results[i], nil
		}
		// Lazy rematerialization: "at the latest at the next time the
		// function result is needed".
		if err := m.rematerialize(g, e, i); err != nil {
			return object.Null(), err
		}
		m.noteForward(g, e, fid, false)
		return e.Results[i], nil
	}
	if g.Complete {
		// A complete extension misses an argument combination only when the
		// restriction predicate excludes it.
		atomic.AddInt64(&m.Stats.ForwardMisses, 1)
		return m.computeRaw(g.Funcs[i], args)
	}
	// Incremental GMR: cache the freshly computed result (Section 3.2,
	// "missing GMR entries whose results are computed during the evaluation
	// of some query may be inserted"). The entry and the RRR keep the
	// argument list, so it is copied here.
	owned := append([]object.Value(nil), args...)
	if g.Restriction != nil {
		holds, err := m.evalPredicate(g, owned)
		if err != nil {
			return object.Null(), err
		}
		if !holds {
			atomic.AddInt64(&m.Stats.ForwardMisses, 1)
			return m.computeRaw(g.Funcs[i], owned)
		}
	}
	if err := m.computeEntry(g, owned); err != nil {
		return object.Null(), err
	}
	e, _ := g.lookup(owned)
	if e == nil {
		return object.Null(), fmt.Errorf("core: entry vanished after insert in %s", g.Name)
	}
	m.noteForward(g, e, fid, false)
	return e.Results[i], nil
}

// noteForward records one forward access to entry e uniformly across the
// three exits of Forward — valid hit, lazy rematerialization, and
// incremental insert: the hit/miss counter, the trace event, and the entry's
// reference bit consulted by second-chance cache eviction. The physical
// tuple access is charged elsewhere (the hit path reads the record via
// touch; the other two exits pay the rematerialization itself), so this
// bookkeeping is deliberately free of simulated-clock charges.
func (m *Manager) noteForward(g *GMR, e *entry, fid schema.FuncID, hit bool) {
	op := "forward_miss"
	if hit {
		atomic.AddInt64(&m.Stats.ForwardHits, 1)
		op = "forward_hit"
	} else {
		atomic.AddInt64(&m.Stats.ForwardMisses, 1)
	}
	e.ref.Store(true)
	m.emit(op, g.Name, m.Sch.Func(fid).Name, object.NilOID)
}

// computeRaw evaluates the plain function (dynamically dispatched) without
// tracking, interception, or GMR bookkeeping.
func (m *Manager) computeRaw(fn *lang.Function, args []object.Value) (object.Value, error) {
	return m.En.EvalRaw(dispatch(m.En, fn, args), args)
}

// Match is one backward-query result row.
type Match struct {
	Args   []object.Value
	Result object.Value
}

// Backward answers a backward range query: all argument combinations whose
// materialized fid result lies in [lb, ub]. Backward queries need the whole
// column valid (an invalid result might lie in the range), so invalid
// entries are rematerialized first — this is where lazy GMRs pay their debt.
func (m *Manager) Backward(fid string, lb, ub float64) ([]Match, error) {
	_, c, ok := m.colByName(fid)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMaterialized, fid)
	}
	g, i := c.g, c.col
	if !g.Complete {
		return nil, fmt.Errorf("%w: %s", ErrIncomplete, g.Name)
	}
	if g.resIdx[i] == nil {
		return nil, fmt.Errorf("core: %s has a non-numeric result; no backward index", fid)
	}
	atomic.AddInt64(&m.Stats.BackwardQueries, 1)
	m.emit("backward", g.Name, fid, object.NilOID)
	if err := m.revalidateColumn(g, i); err != nil {
		return nil, err
	}
	// Count first, so the result is allocated once whatever the window
	// holds; the count reads no page and charges nothing.
	n := 0
	g.resIdx[i].Range(lb, ub, func(btree.Key, any) bool { n++; return true })
	var out []Match
	if n > 0 {
		out = make([]Match, 0, n)
	}
	var scanErr error
	g.resIdx[i].Range(lb, ub, func(_ btree.Key, v any) bool {
		e := v.(*entry)
		if err := g.touchIdx(e, i); err != nil {
			scanErr = err
			return false
		}
		if err := g.touch(e); err != nil {
			scanErr = err
			return false
		}
		out = append(out, Match{Args: e.Args, Result: e.Results[i]})
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return out, nil
}

// All returns every (args, result) pair of column fid with all results
// valid — the access path for aggregate queries over materialized results.
func (m *Manager) All(fid string) ([]Match, error) {
	_, c, ok := m.colByName(fid)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMaterialized, fid)
	}
	g, i := c.g, c.col
	if !g.Complete {
		return nil, fmt.Errorf("%w: %s", ErrIncomplete, g.Name)
	}
	if err := m.revalidateColumn(g, i); err != nil {
		return nil, err
	}
	out := make([]Match, 0, len(g.entries))
	if err := g.scan(func(e *entry) {
		out = append(out, Match{Args: e.Args, Result: e.Results[i]})
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// BackwardAny returns one argument combination whose fid result lies in
// [lb, ub] if one can be found among the currently valid entries, without
// recomputing anything — the paper's counterweight example: "if such a
// Cuboid can be found by inspecting the (incomplete) GMR no invalidated or
// missing results need be (re-)computed".
func (m *Manager) BackwardAny(fid string, lb, ub float64) (Match, bool, error) {
	_, c, ok := m.colByName(fid)
	if !ok {
		return Match{}, false, fmt.Errorf("%w: %s", ErrNotMaterialized, fid)
	}
	g, i := c.g, c.col
	if g.resIdx[i] == nil {
		return Match{}, false, fmt.Errorf("core: %s has a non-numeric result; no backward index", fid)
	}
	atomic.AddInt64(&m.Stats.BackwardQueries, 1)
	m.emit("backward", g.Name, fid, object.NilOID)
	var found *Match
	var scanErr error
	g.resIdx[i].Range(lb, ub, func(_ btree.Key, v any) bool {
		e := v.(*entry)
		if !e.Valid[i] {
			return true
		}
		if err := g.touch(e); err != nil {
			scanErr = err
			return false
		}
		found = &Match{Args: e.Args, Result: e.Results[i]}
		return false
	})
	if scanErr != nil {
		return Match{}, false, scanErr
	}
	if found == nil {
		return Match{}, false, nil
	}
	return *found, true, nil
}

// Sum aggregates a valid numeric column (the forward aggregate query
// "retrieve sum(c.weight)" over a set of argument objects, or over the full
// extension when oids is nil).
func (m *Manager) Sum(fid string, oids []object.OID) (float64, error) {
	if oids == nil {
		all, err := m.All(fid)
		if err != nil {
			return 0, err
		}
		sum := 0.0
		for _, mt := range all {
			f, ok := mt.Result.AsFloat()
			if !ok {
				return 0, fmt.Errorf("core: non-numeric result %v from %s", mt.Result, fid)
			}
			sum += f
		}
		return sum, nil
	}
	id, c, ok := m.colByName(fid)
	if !ok && len(oids) > 0 {
		return 0, fmt.Errorf("%w: %s", ErrNotMaterialized, fid)
	}
	sum := 0.0
	for _, oid := range oids {
		arg := [1]object.Value{object.Ref(oid)}
		v, err := m.forward(c, id, arg[:])
		if err != nil {
			return 0, err
		}
		f, ok := v.AsFloat()
		if !ok {
			return 0, fmt.Errorf("core: non-numeric result %v from %s", v, fid)
		}
		sum += f
	}
	return sum, nil
}

// FullRange is the (-inf, +inf) backward range.
var FullRange = [2]float64{math.Inf(-1), math.Inf(1)}
