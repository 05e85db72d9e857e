package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// Observability and self-verification: a trace hook on every maintenance
// action of the GMR manager, and an online checker for the paper's
// consistency definitions, usable by downstream code the way the test suite
// uses it.

// TraceEvent describes one maintenance action.
type TraceEvent struct {
	// Op is the action: "invalidate", "rematerialize", "compensate",
	// "new_object", "forget_object", "predicate", "forward_hit",
	// "forward_miss", "backward".
	Op string
	// GMR is the affected relation (may be empty for object-level events).
	GMR string
	// Fct is the materialized function involved, if any.
	Fct string
	// Obj is the triggering or argument object, if any.
	Obj object.OID
}

func (e TraceEvent) String() string {
	s := e.Op
	if e.Fct != "" {
		s += " " + e.Fct
	}
	if e.Obj != object.NilOID {
		s += " @" + e.Obj.String()
	}
	if e.GMR != "" {
		s += " [" + e.GMR + "]"
	}
	return s
}

// Trace, when set, receives one event per maintenance action — the paper's
// GMR_Manager invocations made visible. Keep the callback cheap; it runs
// inline with update processing. Forward hits and backward queries run under
// the Database read lock, so the callback may fire from several goroutines
// at once and must do its own synchronization if it accumulates state.
func (m *Manager) SetTrace(fn func(TraceEvent)) {
	if fn == nil {
		m.trace.Store(nil)
		return
	}
	m.trace.Store(&fn)
}

func (m *Manager) emit(op, gmr, fct string, obj object.OID) {
	if fn := m.trace.Load(); fn != nil {
		(*fn)(TraceEvent{Op: op, GMR: gmr, Fct: fct, Obj: obj})
	}
}

// ConsistencyReport summarizes a CheckConsistency run.
type ConsistencyReport struct {
	GMR        string
	Entries    int
	Valid      int
	Invalid    int
	Violations []string
}

func (r ConsistencyReport) String() string {
	return fmt.Sprintf("%s: %d entries (%d valid, %d invalid), %d violations",
		r.GMR, r.Entries, r.Valid, r.Invalid, len(r.Violations))
}

// Err returns an error if the report contains violations.
func (r ConsistencyReport) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("core: GMR %s violates consistency: %s (and %d more)",
		r.GMR, r.Violations[0], len(r.Violations)-1)
}

// CheckConsistency verifies Definition 3.2 for the named GMR: every valid
// entry must equal a fresh recomputation of its function against the
// current object base (numeric results compare with relative tolerance tol;
// complex results are compared by recomputing and canonically expanding
// both sides). With checkComplete it also verifies Definition 3.4/6.1
// completeness against the current type extensions. The check reads through
// the normal (charged) access paths, so it is also a realistic "audit"
// workload.
func (m *Manager) CheckConsistency(name string, tol float64, checkComplete bool) (*ConsistencyReport, error) {
	g, ok := m.gmrs[name]
	if !ok {
		return nil, fmt.Errorf("core: no GMR %q", name)
	}
	var rows []Row
	g.Entries(func(args, results []object.Value, valid []bool) bool {
		rows = append(rows, Row{Args: args, Results: results, Valid: valid})
		return true
	})
	get := func(oid object.OID) (*object.Obj, error) {
		if !m.Objs.Exists(oid) {
			return nil, fmt.Errorf("core: no object %v", oid)
		}
		return m.Objs.Get(oid)
	}
	return m.audit(g, rows, m.En, get, m.Objs.Extension, tol, checkComplete)
}

// audit is the consistency check shared by the live and the snapshot
// CheckConsistency, parameterized over where the state is read: the GMR
// rows, the engine that recomputes, the object getter that expands result
// references, and the extension reader that enumerates the domains. The
// live caller passes its charged read paths, so the audit charges the
// simulated clock like any other workload.
func (m *Manager) audit(g *GMR, rows []Row, en *schema.Engine, get func(object.OID) (*object.Obj, error),
	ext func(string) []object.OID, tol float64, checkComplete bool) (*ConsistencyReport, error) {
	rep := &ConsistencyReport{GMR: g.Name, Entries: len(rows)}
	for _, r := range rows {
		for i, fn := range g.Funcs {
			if !r.Valid[i] {
				rep.Invalid++
				continue
			}
			rep.Valid++
			if len(g.variants[i]) > 0 {
				// The entry holds the result of the override its
				// receiver dispatches to.
				fn = dispatch(en, fn, r.Args)
			}
			fresh, err := en.EvalRaw(fn, r.Args)
			if err != nil {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("%s(%v): recomputation failed: %v", fn.Name, r.Args, err))
				continue
			}
			if !m.valuesEquivalent(get, r.Results[i], fresh, tol) {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("%s(%v): stored %v != fresh %v", fn.Name, r.Args, r.Results[i], fresh))
			}
		}
	}
	if !checkComplete {
		return rep, nil
	}
	combos, err := m.argCombinationsVia(ext, g, -1, object.Null())
	if err != nil {
		return nil, err
	}
	present := make(map[string]bool, len(rows))
	for _, r := range rows {
		present[argKey(r.Args)] = true
	}
	want := 0
	for _, args := range combos {
		if !g.admitsArgs(args) {
			continue
		}
		if g.Restriction != nil {
			holds, err := en.EvalRaw(g.Restriction.Fn, args)
			if err != nil {
				return nil, err
			}
			if !holds.Truth() {
				if present[argKey(args)] {
					rep.Violations = append(rep.Violations,
						fmt.Sprintf("entry %v present but restriction predicate is false", args))
				}
				continue
			}
		}
		want++
		if !present[argKey(args)] {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("missing entry for argument combination %v", args))
		}
	}
	if want != len(rows) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("extension has %d entries, completeness requires %d", len(rows), want))
	}
	return rep, nil
}

// valuesEquivalent compares a stored result with a fresh recomputation,
// expanding result-object references through get: the live audit's charged
// reads, or reads at a snapshot's pinned version (snapshot.go).
func (m *Manager) valuesEquivalent(get func(object.OID) (*object.Obj, error), stored, fresh object.Value, tol float64) bool {
	if stored.Equal(fresh) {
		return true
	}
	sf, okS := stored.AsFloat()
	ff, okF := fresh.AsFloat()
	if okS && okF {
		diff := math.Abs(sf - ff)
		scale := math.Max(1, math.Max(math.Abs(sf), math.Abs(ff)))
		return diff <= tol*scale
	}
	// Complex results: canonical expansion.
	seen := map[object.OID]bool{}
	return m.canonValue(get, stored, 0, seen) == m.canonValue(get, fresh, 0, map[object.OID]bool{})
}

// canonValue renders a value with result-object references expanded (via
// get) so a stored result object and a transient recomputation compare
// structurally.
func (m *Manager) canonValue(get func(object.OID) (*object.Obj, error), v object.Value, depth int, seen map[object.OID]bool) string {
	if depth > 6 {
		return v.String()
	}
	switch v.Kind {
	case object.KRef:
		if v.R == object.NilOID || seen[v.R] {
			return v.String()
		}
		o, err := get(v.R)
		if err != nil {
			return v.String()
		}
		seen[v.R] = true
		defer delete(seen, v.R)
		t := m.Sch.Reg.Lookup(o.Type)
		if len(o.Elems) > 0 || (t != nil && t.Kind != object.TupleType) {
			return m.canonValue(get, object.Value{Kind: object.KSet, Elems: o.Elems}, depth, seen)
		}
		return m.canonValue(get, object.Value{Kind: object.KTuple, TupleType: o.Type, Elems: o.Attrs}, depth, seen)
	case object.KSet:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = m.canonValue(get, e, depth+1, seen)
		}
		sort.Strings(parts)
		return "{" + strings.Join(parts, ";") + "}"
	case object.KList:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = m.canonValue(get, e, depth+1, seen)
		}
		return "<" + strings.Join(parts, ";") + ">"
	case object.KTuple:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = m.canonValue(get, e, depth+1, seen)
		}
		return v.TupleType + "[" + strings.Join(parts, ";") + "]"
	default:
		return v.String()
	}
}
