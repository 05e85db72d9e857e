package query

import (
	"fmt"
	"math"
	"sync"

	"gomdb/internal/core"
	"gomdb/internal/lang"
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

	// stmts holds the statements Prepare parsed; Snapshot copies share it.
	stmts *stmtCache
}

// stmtCacheSize bounds the statements an executor keeps parsed. A source
// text past it empties the cache: a workload repeats a handful of
// statements, and one that does not gains nothing from a cache.
const stmtCacheSize = 256

// stmtCache maps source text to its parsed statement, which carries its
// lowering (Query.lowered).
type stmtCache struct {
	mu sync.Mutex
	m  map[string]*Query
}

// NewExecutor returns an executor with the paper's default maintenance
// configuration (immediate rematerialization, ObjDepFct marking).
func NewExecutor(en *schema.Engine, mgr *core.Manager) *Executor {
	return &Executor{
		En: en, Mgr: mgr, DefaultStrategy: core.Immediate, DefaultMode: core.ModeObjDep,
		stmts: &stmtCache{m: make(map[string]*Query)},
	}
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
	return &cp
}

// Prepare returns the parsed statement of src, parsing it only the first
// time: a repeated statement is neither parsed nor lowered again. The
// statement is shared; callers must not modify it.
func (ex *Executor) Prepare(src string) (*Query, error) {
	c := ex.stmts
	c.mu.Lock()
	q, ok := c.m[src]
	c.mu.Unlock()
	if ok {
		return q, nil
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if len(c.m) >= stmtCacheSize {
		clear(c.m)
	}
	c.m[src] = q
	c.mu.Unlock()
	return q, nil
}

// Result is a query result: column labels and rows of values.
type Result struct {
	Columns []string
	Rows    [][]object.Value
}

// Run prepares and executes a GOMql statement. Parameters referenced as
// $name in the query are taken from params.
func (ex *Executor) Run(src string, params map[string]object.Value) (*Result, error) {
	q, err := ex.Prepare(src)
	if err != nil {
		return nil, err
	}
	return ex.RunQuery(q, params)
}

// RunQuery executes a parsed statement. It is safe to call concurrently for
// read-only plans (see ReadOnlyPlan): a run keeps its state to itself, and
// the lowering it caches on q is published atomically.
func (ex *Executor) RunQuery(q *Query, params map[string]object.Value) (*Result, error) {
	if q.Kind == MaterializeStmt {
		return ex.runMaterialize(q, params)
	}
	l, err := ex.lower(q)
	if err != nil {
		return nil, err
	}
	return ex.runRetrieve(q, l, params)
}

// lower returns q lowered against the executor's schema, from q's cache
// while the schema's generation holds. A failed lowering is not cached.
func (ex *Executor) lower(q *Query) (*lowered, error) {
	sch := ex.En.Sch
	if l := q.lowered.Load(); l != nil && l.sch == sch && l.gen == sch.Generation() {
		return l, nil
	}
	l, err := lowerStatement(sch, q)
	if err != nil {
		return nil, err
	}
	q.lowered.Store(l)
	return l, nil
}

// uncharged is the Runtime lowered expressions run on: the engine, except
// that the lowered nodes charge nothing. A query expression costs the reads
// and calls it makes, and the bodies it calls charge through the engine.
type uncharged struct{ *schema.Engine }

func (uncharged) Charge(int64) {}

// explain sends one plan line to Explain. Callers check Explain first, so
// a query nobody explains does not box the arguments.
func (ex *Executor) explain(format string, args ...any) {
	ex.Explain(fmt.Sprintf(format, args...))
}

func (ex *Executor) runRetrieve(q *Query, l *lowered, params map[string]object.Value) (*Result, error) {
	nr := len(q.Ranges)
	args, err := l.bind(nr, params)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, t := range q.Targets {
		label := t.Path.String()
		if t.Agg != "" {
			label = t.Agg + "(" + label + ")"
		}
		res.Columns = append(res.Columns, label)
	}
	// Rows are carved from slab, which a backward plan sizes by its
	// candidate count; the full slice expression keeps an append to one row
	// from overwriting the next. Without a reservation each row is its own
	// slab.
	var slab []object.Value
	rt := uncharged{ex.En}
	// visit emits the row of the candidate in args when it passes the
	// where clause.
	visit := func() error {
		if l.where != nil {
			v, err := lang.Eval(rt, l.where, args)
			if err != nil || !v.Truth() {
				return err
			}
		}
		n := len(l.targets)
		if len(slab) < n {
			slab = make([]object.Value, n)
		}
		row := slab[:n:n]
		slab = slab[n:]
		for i, fn := range l.targets {
			v, err := lang.Eval(rt, fn, args)
			if err != nil {
				return err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		return nil
	}

	// Try the backward-query plan for single-variable queries.
	if nr == 1 && q.Where != nil {
		bw, ok, err := ex.backwardPlan(q, params)
		if err != nil {
			return nil, err
		}
		if ok {
			slab = make([]object.Value, len(bw.matches)*len(q.Targets))
			res.Rows = make([][]object.Value, 0, len(bw.matches))
			for _, m := range bw.matches {
				c, ok := bw.candidate(m)
				if !ok {
					continue
				}
				args[0] = c
				if err := visit(); err != nil {
					return nil, err
				}
			}
			return ex.finish(q, res)
		}
	}

	// Fallback: nested-loop scan over the range extensions.
	if ex.Explain != nil {
		ex.explain("plan: extension scan over %v", q.Ranges)
	}
	var rec func(i int) error
	rec = func(i int) error {
		if i == nr {
			return visit()
		}
		for _, oid := range ex.En.ExtensionOf(q.Ranges[i].Type) {
			args[i] = object.Ref(oid)
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
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
