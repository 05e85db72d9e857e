package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gomdb/internal/btree"
	"gomdb/internal/lang"
	"gomdb/internal/mvcc"
	"gomdb/internal/object"
	"gomdb/internal/pred"
	"gomdb/internal/schema"
	"gomdb/internal/storage"
)

// Stats counts the maintenance work the manager performs; benchmarks and
// tests read them to verify, e.g., that rotate under information hiding
// triggers no invalidations while the basic mechanism triggers twelve.
// Counters are incremented atomically (forward/backward counters are bumped
// on the concurrent read path); read them when the database is idle, or via
// atomic loads.
type Stats struct {
	RRRLookups         int64 // GMR_Manager.invalidate invocations that consulted the RRR
	Invalidations      int64 // materialized results invalidated (marked or recomputed)
	Rematerializations int64 // function recomputations for GMR maintenance
	Compensations      int64 // compensating-action applications
	ForwardHits        int64 // forward lookups answered from a valid entry
	ForwardMisses      int64 // forward lookups that had to compute
	BackwardQueries    int64
	NewObjects         int64
	ForgottenObjects   int64
	PredicateUpdates   int64

	// Forward-trace accounting (see access_trace.go): every recorded trace
	// bumps these, so benchmarks can see how much access history the
	// clustering pass has to work with.
	ForwardTraces int64 // forward computations whose access trace was recorded
	TraceObjects  int64 // objects across recorded traces (first accesses only)
	TracePages    int64 // distinct object-heap pages across recorded traces

	// Deferred-rematerialization accounting (see deferred.go).
	DeferredUpdates  int64 // invalidations of Deferred results
	CoalescedUpdates int64 // deferred invalidations of an already-invalid (pending) result
	DeferredForces   int64 // pending recomputations forced individually by a lookup before the flush
	Flushes          int64 // Flush calls that found work
	FlushedItems     int64 // pending recomputations performed by flushes
	QueueHighWater   int64 // maximum PendingLen observed
	FlushEvalNanos   int64 // cumulative wall time of the per-item recomputations of flushes
	FlushWallNanos   int64 // cumulative wall time of flush drains, including queue bookkeeping
}

// Manager is the GMR manager: it owns all GMR extensions and the RRR, and is
// notified of updates through the hooks it installs into the schema (the
// update notification mechanism of Section 4.3).
type Manager struct {
	En    *schema.Engine
	Sch   *schema.Schema
	Objs  *object.Manager
	Clock *storage.Clock
	Pool  *storage.BufferPool

	gmrs map[string]*GMR
	// cols maps a schema function id to the GMR column that materializes
	// it: a materialized function, or a subtype override of one. Indexed
	// by schema.FuncID, it is the forward path's only table (see
	// DESIGN.md, "Forward path"); Materialize, Drop and the definition of
	// an override after materialization rewrite it, all under the reader
	// barrier.
	cols []colRef
	rrr  *RRR
	ca   *CATable
	// uninstall undoes each GMR's schema rewrite (installHooks);
	// compensations undoes its compensating actions (DefineCompensation).
	uninstall     map[string][]func()
	compensations map[string][]func()
	extractor     *lang.Extractor

	// Intern maps string constants to numeric codes shared between
	// restriction formulas and query predicates, so the Section 6
	// applicability test can reason about string equality.
	Intern *pred.Interner

	// resultObjs tracks objects created to store complex materialized
	// results, the garbage-collection candidates of CollectResultGarbage.
	resultObjs map[object.OID]bool

	// trace receives maintenance events when set (SetTrace). Held through
	// an atomic pointer because read-path lookups emit events while other
	// goroutines may install or clear the hook.
	trace atomic.Pointer[func(TraceEvent)]

	// MVCC snapshot-read state (see snapshot.go). snapSt is the version
	// state of the pool the manager is built on; snapMu serializes the
	// entry mutators, which capture pre-images into each GMR's version
	// chains, against pinned snapshot readers reconstructing entry state.
	snapSt *mvcc.State
	snapMu sync.RWMutex

	// accessTraces holds the ordered forward trace of each materialized
	// result column; accessStats aggregates them per GMR (access_trace.go).
	// Mutated only under the exclusive Database lock, like the extensions
	// the traces describe.
	accessTraces map[traceKey][]object.OID
	accessStats  map[string]*AccessStats

	// sorted is sortAccessed's buffer, pages recordTrace's; tupleBufs are
	// Invalidate's lookup buffers, one per nested Invalidate (takeTuples).
	// Write-path state, like the extensions.
	sorted    []object.OID
	pages     []storage.PageID
	tupleBufs [][]Tuple

	// wbuf is the write buffer every GMR entry record is built in. It is
	// valid until the manager's next entry write; entry writes are
	// serialized like every GMR mutation, and the heap copies a record and
	// never keeps it.
	wbuf []byte

	// breakInvalidation, when set, makes Invalidate silently drop every
	// notification. It exists solely so the simulation harness
	// (internal/sim) can prove its invariant auditors have teeth: with the
	// hook armed, stale GMR entries must be reported as Def. 3.2
	// violations. Never set outside tests.
	breakInvalidation bool

	Stats Stats
}

// TestingBreakInvalidation arms or disarms the deliberate invalidation bug
// used by the simulator's mutation smoke test. See breakInvalidation.
func (m *Manager) TestingBreakInvalidation(broken bool) { m.breakInvalidation = broken }

// Quiescent reports whether no retrieval operation can mutate GMR state:
// every GMR is complete (so forward misses never insert entries) and no
// result column has invalid entries (so nothing triggers lazy
// rematerialization or column revalidation). The Database facade uses this
// to decide whether a retrieval may run under the shared read lock; it is
// evaluated without charging the simulated clock.
func (m *Manager) Quiescent() bool {
	for _, g := range m.gmrs {
		if !g.Complete {
			return false
		}
		for i := range g.invalid {
			if len(g.invalid[i]) > 0 {
				return false
			}
		}
	}
	return true
}

// NewManager creates a GMR manager over an engine and registers the
// materialized-call interceptor that maps invocations of materialized
// functions to forward GMR queries.
func NewManager(en *schema.Engine, pool *storage.BufferPool) *Manager {
	m := &Manager{
		En:            en,
		Sch:           en.Sch,
		Objs:          en.Objs,
		Clock:         en.Clock,
		Pool:          pool,
		snapSt:        pool.Versions(),
		gmrs:          make(map[string]*GMR),
		rrr:           NewRRR(pool),
		ca:            newCATable(),
		uninstall:     make(map[string][]func()),
		compensations: make(map[string][]func()),
		extractor:     lang.NewExtractor(en.Sch, en.Sch),
		Intern:        pred.NewInterner(),
		accessTraces:  make(map[traceKey][]object.OID),
		accessStats:   make(map[string]*AccessStats),
	}
	en.SetInterceptor(m.intercept)
	en.Sch.OnDefineOp(m.opDefined)
	return m
}

// colRef names the GMR column materializing a function; the zero value
// means the function is not materialized.
type colRef struct {
	g   *GMR
	col int
}

// colOf returns the column materializing function fid.
func (m *Manager) colOf(fid schema.FuncID) colRef {
	if uint(fid) < uint(len(m.cols)) {
		return m.cols[fid]
	}
	return colRef{}
}

// setCol records (or, with the zero colRef, clears) the column of fid.
func (m *Manager) setCol(fid schema.FuncID, c colRef) {
	for int(fid) >= len(m.cols) {
		m.cols = append(m.cols, colRef{})
	}
	m.cols[fid] = c
}

// colByName resolves a function name — a materialized function or an
// override, as the name-taking APIs and RRR tuples spell it — to its id and
// column.
func (m *Manager) colByName(name string) (schema.FuncID, colRef, bool) {
	fid, ok := m.Sch.FuncByName(name)
	if !ok {
		return schema.NoFunc, colRef{}, false
	}
	c := m.colOf(fid)
	return fid, c, c.g != nil
}

// RRR exposes the reverse reference relation for tests and diagnostics.
func (m *Manager) RRR() *RRR { return m.rrr }

// GMRs returns the names of all existing GMRs.
func (m *Manager) GMRs() []string {
	out := make([]string, 0, len(m.gmrs))
	for n := range m.gmrs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns the GMR with the given name.
func (m *Manager) Get(name string) (*GMR, bool) {
	g, ok := m.gmrs[name]
	return g, ok
}

// GMRFor returns the GMR materializing function fid, if any.
func (m *Manager) GMRFor(fid string) (*GMR, bool) {
	_, c, ok := m.colByName(fid)
	return c.g, ok
}

// Materialize creates a GMR per opts, precomputes its extension if Complete,
// and performs the schema rewrite installing the update notification hooks.
// This is the runtime of the GOMql statement
//
//	range c: Cuboid materialize c.volume, c.weight [where p]
func (m *Manager) Materialize(opts Options) (*GMR, error) {
	if len(opts.Funcs) == 0 {
		return nil, errors.New("core: materialize needs at least one function")
	}
	fns := make([]*lang.Function, len(opts.Funcs))
	fids := make([]schema.FuncID, len(opts.Funcs))
	for i, name := range opts.Funcs {
		fn, err := m.Sch.LookupFunction(name)
		if err != nil {
			return nil, err
		}
		if !fn.SideEffectFree {
			return nil, fmt.Errorf("core: %s is not declared side-effect free and cannot be materialized", fn.Name)
		}
		fids[i], _ = m.Sch.FuncIDOf(fn)
		if m.colOf(fids[i]).g != nil {
			return nil, fmt.Errorf("core: %s is already materialized", fn.Name)
		}
		fns[i] = fn
	}
	argTypes := fns[0].ParamTypes()
	for _, fn := range fns[1:] {
		ts := fn.ParamTypes()
		if len(ts) != len(argTypes) {
			return nil, fmt.Errorf("core: %s and %s do not share argument types", fns[0].Name, fn.Name)
		}
		for i := range ts {
			if ts[i] != argTypes[i] {
				return nil, fmt.Errorf("core: %s and %s do not share argument types", fns[0].Name, fn.Name)
			}
		}
	}
	for i, t := range argTypes {
		if object.IsAtomicName(t) {
			r, ok := opts.AtomicArgs[i]
			if !ok {
				return nil, fmt.Errorf("core: atomic argument %d (%s) must be value- or range-restricted (Section 6.2)", i, t)
			}
			if t == "float" && r.IsRange {
				return nil, fmt.Errorf("core: float argument %d must be value-restricted, not range-restricted", i)
			}
		} else if m.Sch.Reg.Lookup(t) == nil {
			return nil, fmt.Errorf("core: unknown argument type %q", t)
		}
	}
	if opts.Restriction != nil {
		p := opts.Restriction.Fn
		if p == nil {
			return nil, errors.New("core: restricted GMR needs an executable predicate")
		}
		if len(p.Params) != len(argTypes) {
			return nil, fmt.Errorf("core: restriction predicate arity %d does not match %d argument types", len(p.Params), len(argTypes))
		}
	}
	if opts.Complete && opts.MaxEntries > 0 {
		return nil, errors.New("core: MaxEntries applies to incremental (cache) GMRs only; a complete extension cannot evict entries")
	}
	name := opts.Name
	if name == "" {
		name = "<<" + strings.Join(opts.Funcs, ",") + ">>"
	}
	if _, dup := m.gmrs[name]; dup {
		return nil, fmt.Errorf("core: GMR %q already exists", name)
	}

	g := &GMR{
		Name:         name,
		Funcs:        fns,
		ArgTypes:     argTypes,
		Strategy:     opts.Strategy,
		Mode:         opts.Mode,
		Complete:     opts.Complete,
		MaxEntries:   opts.MaxEntries,
		Restriction:  opts.Restriction,
		AtomicArgs:   opts.AtomicArgs,
		SecondChance: opts.SecondChance,
		entries:      make(map[string]*entry),
		argIndex:     make(map[object.OID]map[string]bool),
		heap:         storage.NewForcedHeapFile(m.Pool, "GMR:"+name),
		resIdx:       make([]*btree.Tree, len(fns)),
		invalid:      make([]map[string]bool, len(fns)),
		mgr:          m,
	}
	if opts.UseMDS {
		if err := m.initMDS(g); err != nil {
			return nil, err
		}
	}
	g.idxHeap = make([]*storage.HeapFile, len(fns))
	for i, fn := range fns {
		g.invalid[i] = make(map[string]bool)
		if isNumericType(fn.ResultType) {
			g.resIdx[i] = btree.New()
			g.idxHeap[i] = storage.NewHeapFile(m.Pool, "IDX:"+name+":"+fn.Name)
		}
	}

	// EntryCaptureCount walks gmrs under snapMu alone, without the engine
	// lock, so the catalog changes under snapMu too.
	m.snapMu.Lock()
	m.gmrs[name] = g
	m.snapMu.Unlock()
	g.variants = make(map[int][]*lang.Function)
	for i, fn := range fns {
		m.setCol(fids[i], colRef{g, i})
		// Substitutability: the extension of the argument type includes
		// subtype instances, and the materialized invocation dispatches
		// dynamically. Register every subtype override of the operation so
		// (a) the forward path answers calls that resolve to the override
		// from the column, and (b) the hook planner analyzes the override's
		// relevant paths.
		for _, variant := range m.overridesOf(fn) {
			vid, _ := m.Sch.FuncIDOf(variant)
			if other := m.colOf(vid).g; other != nil && other != g {
				m.dropState(g)
				return nil, fmt.Errorf("core: override %s is already materialized in %s", variant.Name, other.Name)
			}
			m.setCol(vid, colRef{g, i})
			g.variants[i] = append(g.variants[i], variant)
		}
	}

	if opts.Complete {
		if err := m.populate(g); err != nil {
			m.dropState(g)
			return nil, err
		}
	}
	if err := m.installHooks(g); err != nil {
		m.dropState(g)
		return nil, err
	}
	return g, nil
}

func isNumericType(t string) bool {
	return t == "float" || t == "int" || t == "decimal"
}

// Drop deletes a GMR: its extension, its RRR tuples and ObjDepFct marks, and
// the hook rewrites — restoring the unmodified schema.
func (m *Manager) Drop(name string) error {
	g, ok := m.gmrs[name]
	if !ok {
		return fmt.Errorf("core: no GMR %q", name)
	}
	if err := m.removeTuplesOf(g); err != nil {
		return err
	}
	m.dropState(g)
	return nil
}

// removeTuplesOf removes the RRR tuples of g's functions and restriction
// predicate, demoting the ObjDepFct marks they carry. A scan that fails —
// an I/O fault, a record that does not decode — removes nothing.
func (m *Manager) removeTuplesOf(g *GMR) error {
	fids := make(map[string]bool, len(g.Funcs)+1)
	for _, f := range g.Funcs {
		fids[f.Name] = true
	}
	fids[g.predID()] = true
	var victims []Tuple
	err := m.rrr.Scan(func(t Tuple) bool {
		if fids[t.F] {
			victims = append(victims, t)
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, t := range victims {
		if err := m.removeTuple(t); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) dropState(g *GMR) {
	m.dropTraces(g.Name)
	for _, undo := range m.uninstall[g.Name] {
		undo()
	}
	delete(m.uninstall, g.Name)
	for _, undo := range m.compensations[g.Name] {
		undo()
	}
	delete(m.compensations, g.Name)
	for fid, c := range m.cols {
		if c.g == g {
			m.cols[fid] = colRef{}
		}
	}
	m.snapMu.Lock()
	delete(m.gmrs, g.Name)
	m.snapMu.Unlock()
}

// populate computes the complete extension (Definition 3.4 / 6.1): one entry
// per argument combination drawn from the type extensions (and restricted
// atomic values), filtered by the restriction predicate.
func (m *Manager) populate(g *GMR) error {
	combos, err := m.argCombinations(g, -1, object.Null())
	if err != nil {
		return err
	}
	for _, args := range combos {
		if err := m.considerEntry(g, args); err != nil {
			return err
		}
	}
	return nil
}

// argCombinations enumerates the cross product of the argument domains,
// optionally pinning position fixedPos to fixedVal (used by new_object).
func (m *Manager) argCombinations(g *GMR, fixedPos int, fixedVal object.Value) ([][]object.Value, error) {
	return m.argCombinationsVia(m.Objs.Extension, g, fixedPos, fixedVal)
}

// argCombinationsVia is argCombinations parameterized over the extension
// reader, so the MVCC snapshot completeness audit can enumerate the domains
// at a pinned version (snapshot.go).
func (m *Manager) argCombinationsVia(ext func(string) []object.OID, g *GMR, fixedPos int, fixedVal object.Value) ([][]object.Value, error) {
	domains := make([][]object.Value, len(g.ArgTypes))
	for i, t := range g.ArgTypes {
		if i == fixedPos {
			domains[i] = []object.Value{fixedVal}
			continue
		}
		if object.IsAtomicName(t) {
			r := g.AtomicArgs[i]
			if r.IsRange {
				for v := r.Lo; v <= r.Hi; v++ {
					domains[i] = append(domains[i], object.Int(v))
				}
			} else {
				domains[i] = append(domains[i], r.Values...)
			}
			continue
		}
		for _, oid := range ext(t) {
			domains[i] = append(domains[i], object.Ref(oid))
		}
	}
	var out [][]object.Value
	cur := make([]object.Value, len(domains))
	var rec func(int)
	rec = func(i int) {
		if i == len(domains) {
			args := make([]object.Value, len(cur))
			copy(args, cur)
			out = append(out, args)
			return
		}
		for _, v := range domains[i] {
			cur[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out, nil
}

// considerEntry evaluates the restriction predicate (if any) for args and
// computes an entry when it admits them. Predicate evaluation is tracked and
// recorded in the RRR under the pseudo-function id p:<gmr> (Section 6.1).
func (m *Manager) considerEntry(g *GMR, args []object.Value) error {
	if _, exists := g.lookup(args); exists {
		return nil
	}
	if !g.admitsArgs(args) {
		return nil
	}
	if g.Restriction != nil {
		ok, err := m.evalPredicate(g, args)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	return m.computeEntry(g, args)
}

// evalPredicate evaluates p(args) with tracking and refreshes the RRR tuples
// of the predicate materialization.
func (m *Manager) evalPredicate(g *GMR, args []object.Value) (bool, error) {
	v, _, order, err := m.En.EvalTrackedOrdered(g.Restriction.Fn, args)
	if err != nil {
		return false, err
	}
	pid := g.predID()
	for _, oid := range m.sortAccessed(order) {
		if err := m.addRRR(oid, pid, args); err != nil {
			return false, err
		}
	}
	return v.Truth(), nil
}

// dispatch resolves the variant of a materialized operation that a dynamic
// invocation on args would execute (subtype overrides win), reading the
// receiver's type through en: the live engine's charged read, or a snapshot
// engine's read at its pinned version. Free functions and non-reference
// receivers dispatch statically.
func dispatch(en *schema.Engine, fn *lang.Function, args []object.Value) *lang.Function {
	dot := strings.IndexByte(fn.Name, '.')
	if dot < 0 || len(args) == 0 || args[0].Kind != object.KRef {
		return fn
	}
	typ, err := en.TypeOf(args[0].R)
	if err != nil {
		return fn
	}
	if variant, ok := en.Sch.ResolveOp(typ, fn.Name[dot+1:]); ok {
		return variant
	}
	return fn
}

// opDefined keeps the GMRs current when DefineOp attaches an operation
// after materialization. An override of a materialized operation (or of one
// of its overrides) joins that column as a variant, as if it had been
// defined before Materialize: the column table maps it, the schema rewrite
// is re-planned over its body, and every entry whose receiver now
// dispatches to it is recomputed with it, so Definition 3.2 holds across
// the definition.
func (m *Manager) opDefined(typeName, opName string, fid schema.FuncID) error {
	t := m.Sch.Reg.Lookup(typeName)
	if t == nil || t.Super == "" {
		return nil
	}
	base, ok := m.Sch.ResolveOp(t.Super, opName)
	if !ok {
		return nil
	}
	bid, _ := m.Sch.FuncIDOf(base)
	c := m.colOf(bid)
	if c.g == nil {
		return nil
	}
	g, fn := c.g, m.Sch.Func(fid)
	m.setCol(fid, c)
	g.variants[c.col] = append(g.variants[c.col], fn)
	for _, undo := range m.uninstall[g.Name] {
		undo()
	}
	if err := m.installHooks(g); err != nil {
		return err
	}
	for _, e := range append([]*entry(nil), g.order...) {
		if dispatch(m.En, g.Funcs[c.col], e.Args) != fn {
			continue
		}
		if err := m.rematerializeWith(g, e, c.col, e.triggersOf(c.col)); err != nil {
			return err
		}
	}
	return nil
}

// overridesOf returns the subtype overrides of a type-associated operation.
func (m *Manager) overridesOf(fn *lang.Function) []*lang.Function {
	dot := strings.IndexByte(fn.Name, '.')
	if dot < 0 {
		return nil
	}
	declType, opName := fn.Name[:dot], fn.Name[dot+1:]
	var out []*lang.Function
	for _, sub := range m.Sch.Reg.WithSubtypes(declType)[1:] {
		if v, ok := m.Sch.ResolveOp(sub, opName); ok && v != fn {
			dup := false
			for _, seen := range out {
				if seen == v {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, v)
			}
		}
	}
	return out
}

// computeEntry materializes all function columns for args and inserts the
// entry plus its RRR tuples and ObjDepFct marks.
func (m *Manager) computeEntry(g *GMR, args []object.Value) error {
	results := make([]object.Value, len(g.Funcs))
	valid := make([]bool, len(g.Funcs))
	// The next column's evaluation reuses the tracker, so each column's
	// trace is copied out; its sorted access set is derived when its RRR
	// tuples go in.
	tracePer := make([][]object.OID, len(g.Funcs))
	for i, fn := range g.Funcs {
		v, _, trace, err := m.En.EvalTrackedOrdered(dispatch(m.En, fn, args), args)
		if err != nil {
			return fmt.Errorf("core: materializing %s: %w", fn.Name, err)
		}
		v, err = m.storeComplexResult(fn, v)
		if err != nil {
			return err
		}
		results[i] = v
		valid[i] = true
		tracePer[i] = slices.Clone(trace)
		atomic.AddInt64(&m.Stats.Rematerializations, 1)
	}
	e := &entry{Args: args, Results: results, Valid: valid}
	if err := g.insertEntry(e); err != nil {
		return err
	}
	for i, fn := range g.Funcs {
		for _, oid := range m.sortAccessed(tracePer[i]) {
			if err := m.addRRR(oid, fn.Name, args); err != nil {
				return err
			}
		}
		m.recordTrace(g, e.key, i, tracePer[i])
	}
	return nil
}

// storeComplexResult persists a complex (tuple/set/list) result as objects
// and returns the reference stored in the GMR (Section 3.1: the attributes
// store "references to the result objects").
func (m *Manager) storeComplexResult(fn *lang.Function, v object.Value) (object.Value, error) {
	switch v.Kind {
	case object.KTuple, object.KSet, object.KList:
		watermark := m.Objs.NextOID()
		out, err := m.Objs.MaterializeValue(v, fn.ResultType)
		if err != nil {
			return object.Null(), err
		}
		m.trackResultObjects(watermark, m.Objs.NextOID())
		return out, nil
	}
	return v, nil
}

// sortAccessed returns the objects of a tracked evaluation's first-access
// order in ascending order, so RRR tuples are inserted (and thus physically
// placed) deterministically. The result is the manager's buffer, valid until
// the next call: every caller consumes it before it evaluates again.
func (m *Manager) sortAccessed(order []object.OID) []object.OID {
	m.sorted = append(m.sorted[:0], order...)
	slices.Sort(m.sorted)
	return m.sorted
}

// addRRR inserts an RRR tuple and maintains the object's ObjDepFct marking.
func (m *Manager) addRRR(oid object.OID, fid string, args []object.Value) error {
	isNew, first, err := m.rrr.Insert(oid, fid, args)
	if err != nil {
		return err
	}
	if isNew && first {
		_, err = m.Objs.AddDepFct(oid, fid)
	}
	return err
}

// removeRRR removes an RRR tuple and demotes the ObjDepFct marking when the
// last tuple for (oid, fid) disappears. A vanished object is fine — its
// marking died with it.
func (m *Manager) removeRRR(oid object.OID, fid string, args []object.Value) error {
	return m.finishRemove(oid, fid)(m.rrr.Remove(oid, fid, args))
}

// removeTuple removes a tuple Lookup or Scan returned, by its index key
// instead of re-encoding the argument combination.
func (m *Manager) removeTuple(t Tuple) error {
	return m.finishRemove(t.O, t.F)(m.rrr.removeKey(t.O, t.k))
}

// finishRemove performs the post-removal bookkeeping shared by removeRRR and
// removeTuple: the ObjDepFct demotion.
func (m *Manager) finishRemove(oid object.OID, fid string) func(existed, last bool, err error) error {
	return func(existed, last bool, err error) error {
		if err != nil {
			return err
		}
		if existed && last && m.Objs.Exists(oid) {
			_, err = m.Objs.RemoveDepFct(oid, fid)
		}
		return err
	}
}

// Invalidate is GMR_Manager.invalidate(o[, RelevFct]): called by the
// rewritten update operations after an object was modified. relev == nil
// means "check everything" (the Figure 4 version); otherwise only tuples
// whose function is in relev are processed (Sections 5.1/5.2/5.3).
func (m *Manager) Invalidate(oid object.OID, relev []string) error {
	if m.breakInvalidation {
		// Deliberately-broken mode for the simulator's mutation smoke test:
		// drop the notification so dependent entries go stale undetected.
		return nil
	}
	atomic.AddInt64(&m.Stats.RRRLookups, 1)
	tuples, err := m.rrr.lookupInto(m.takeTuples(), oid)
	defer m.putTuples(tuples)
	if err != nil {
		return err
	}
	var kb [keyBufSize]byte
	for _, t := range tuples {
		if relev != nil && !slices.Contains(relev, t.F) {
			continue
		}
		if strings.HasPrefix(t.F, "p:") {
			if err := m.predicateUpdate(t); err != nil {
				return err
			}
			continue
		}
		_, c, ok := m.colByName(t.F)
		if !ok {
			// The GMR was dropped; stale tuple.
			if err := m.removeTuple(t); err != nil {
				return err
			}
			continue
		}
		g, i := c.g, c.col
		e, ok := g.entries[string(t.k.appendArgs(kb[:0]))]
		if !ok {
			// Blind reference (Section 4.2): the entry is gone; clean up
			// lazily.
			if err := m.removeTuple(t); err != nil {
				return err
			}
			continue
		}
		atomic.AddInt64(&m.Stats.Invalidations, 1)
		m.emit("invalidate", g.Name, t.F, oid)
		switch g.Strategy {
		case Lazy, Deferred:
			// lazy(o): (1) set Vi := false, (2) remove the RRR tuple so a
			// repeated update of o does not pay the GMR access again.
			// deferred(o) is lazy(o) whose invalid results Flush drains, so
			// an update of an already-invalid result coalesces. Under the
			// second-chance variant the tuple stays and o is remembered on
			// the entry, for the recomputation to prune the tuple if it no
			// longer visits o.
			deferred := g.Strategy == Deferred
			wasInvalid := !e.Valid[i]
			if err := g.markInvalid(e.key, i); err != nil {
				return err
			}
			if deferred && g.SecondChance {
				e.addTrigger(i, oid)
			} else if err := m.removeTuple(t); err != nil {
				return err
			}
			if deferred {
				atomic.AddInt64(&m.Stats.DeferredUpdates, 1)
				if wasInvalid {
					atomic.AddInt64(&m.Stats.CoalescedUpdates, 1)
				}
				if d := int64(m.PendingLen()); d > atomic.LoadInt64(&m.Stats.QueueHighWater) {
					atomic.StoreInt64(&m.Stats.QueueHighWater, d)
				}
			}
		case Immediate:
			if g.SecondChance {
				// Second-chance variant (Section 4.1): keep the tuple
				// through the rematerialization, which removes it only if
				// the recomputation no longer visited the object.
				if err := m.rematerializeWith(g, e, i, []object.OID{t.O}); err != nil {
					return err
				}
				break
			}
			// immediate(o): (1) remove the RRR tuple, (2) recompute and
			// replace, (3) re-insert tuples for all accessed objects.
			if err := m.removeTuple(t); err != nil {
				return err
			}
			if err := m.rematerialize(g, e, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// takeTuples returns an empty tuple buffer for one Invalidate. A hook run
// inside a rematerialization can nest an Invalidate in another, so each
// takes its own buffer and putTuples returns it.
func (m *Manager) takeTuples() []Tuple {
	n := len(m.tupleBufs)
	if n == 0 {
		return nil
	}
	b := m.tupleBufs[n-1]
	m.tupleBufs = m.tupleBufs[:n-1]
	return b
}

// putTuples returns a buffer takeTuples handed out, cleared so it keeps no
// decoded arguments alive.
func (m *Manager) putTuples(b []Tuple) {
	clear(b)
	m.tupleBufs = append(m.tupleBufs, b[:0])
}

// rematerialize recomputes column i of entry e and refreshes the RRR. An
// invalid Deferred result recomputed here, ahead of its flush, counts as a
// force.
func (m *Manager) rematerialize(g *GMR, e *entry, i int) error {
	if g.Strategy == Deferred && !e.Valid[i] {
		atomic.AddInt64(&m.Stats.DeferredForces, 1)
	}
	return m.rematerializeWith(g, e, i, e.triggersOf(i))
}

// rematerializeWith is the serial, fully charged recomputation shared by the
// immediate strategy, lazy/deferred forcing, and the deferred flush drain.
// triggers (ascending) are the second-chance objects whose RRR tuples were
// kept through the invalidation; those the recomputation no longer visits
// are removed.
func (m *Manager) rematerializeWith(g *GMR, e *entry, i int, triggers []object.OID) error {
	fn := g.Funcs[i]
	v, accessed, order, err := m.En.EvalTrackedOrdered(dispatch(m.En, fn, e.Args), e.Args)
	if err != nil {
		return fmt.Errorf("core: rematerializing %s: %w", fn.Name, err)
	}
	v, err = m.storeComplexResult(fn, v)
	if err != nil {
		return err
	}
	if err := g.setResult(e, i, v); err != nil {
		return err
	}
	atomic.AddInt64(&m.Stats.Rematerializations, 1)
	m.emit("rematerialize", g.Name, fn.Name, object.NilOID)
	for _, oid := range m.sortAccessed(order) {
		if err := m.addRRR(oid, fn.Name, e.Args); err != nil {
			return err
		}
	}
	for _, trig := range triggers {
		if _, ok := accessed[trig]; !ok {
			if err := m.removeRRR(trig, fn.Name, e.Args); err != nil {
				return err
			}
		}
	}
	m.recordTrace(g, e.key, i, order)
	return nil
}

// predicateUpdate implements the predicate(o) algorithm of Section 6.1: the
// update may have changed the restriction predicate's value for the
// argument combination, so the entry is admitted or expelled accordingly.
func (m *Manager) predicateUpdate(t Tuple) error {
	gname := strings.TrimPrefix(t.F, "p:")
	g, ok := m.gmrs[gname]
	if !ok || g.Restriction == nil {
		return m.removeTuple(t)
	}
	atomic.AddInt64(&m.Stats.PredicateUpdates, 1)
	m.emit("predicate", g.Name, t.F, t.O)
	k := t.argSuffix()
	// (1) remove the triple.
	if err := m.removeTuple(t); err != nil {
		return err
	}
	// Dangling argument objects mean the combination is being deleted.
	for _, a := range t.Args {
		if a.Kind == object.KRef && !m.Objs.Exists(a.R) {
			return g.removeEntry(k)
		}
	}
	// (2) recompute p and admit/expel; (3) re-insert predicate tuples —
	// evalPredicate performs (3) as a side effect.
	holds, err := m.evalPredicate(g, t.Args)
	if err != nil {
		return err
	}
	if holds {
		if _, exists := g.entries[k]; !exists {
			return m.computeEntry(g, t.Args)
		}
		return nil
	}
	return g.removeEntry(k)
}

// NewObject is GMR_Manager.new_object(o, t) (Section 4.2): extends every
// complete GMR with entries for all argument combinations containing o.
func (m *Manager) NewObject(oid object.OID, typ string) error {
	atomic.AddInt64(&m.Stats.NewObjects, 1)
	m.emit("new_object", "", "", oid)
	for _, name := range m.GMRs() {
		g := m.gmrs[name]
		if !g.Complete {
			continue
		}
		for i, at := range g.ArgTypes {
			if object.IsAtomicName(at) || !m.Sch.Reg.IsSubtypeOf(typ, at) {
				continue
			}
			combos, err := m.argCombinations(g, i, object.Ref(oid))
			if err != nil {
				return err
			}
			for _, args := range combos {
				if err := m.considerEntry(g, args); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ForgetObject is GMR_Manager.forget_object(o) (Section 4.2): removes the
// GMR entries whose argument list contains the object about to be deleted,
// plus the deleted object's own RRR tuples. Affected entries are found via
// each GMR's supplementary argument index — lazy invalidation may already
// have consumed the RRR tuple that step 1 of the paper's algorithm relies
// on. RRR tuples of *other* objects that still reference the removed
// entries become blind references, cleaned lazily on their next access.
//
// An entry the object does not appear in as an argument but that read it
// through a reference (a set's total over a deleted member) is marked
// invalid before its tuple goes, whatever the GMR's strategy, and not
// recomputed: its result held the deleted object's contribution, and a
// recomputation now runs into the dangling reference, which the next
// forward query reports.
func (m *Manager) ForgetObject(oid object.OID) error {
	atomic.AddInt64(&m.Stats.ForgottenObjects, 1)
	m.emit("forget_object", "", "", oid)
	for _, name := range m.GMRs() {
		g := m.gmrs[name]
		for _, k := range g.entryKeysWithArg(oid) {
			if err := g.removeEntry(k); err != nil {
				return err
			}
		}
	}
	tuples, err := m.rrr.lookupInto(nil, oid)
	if err != nil {
		return err
	}
	var kb [keyBufSize]byte
	for _, t := range tuples {
		if _, c, ok := m.colByName(t.F); ok {
			if e, ok := c.g.entries[string(t.k.appendArgs(kb[:0]))]; ok {
				if err := c.g.markInvalid(e.key, c.col); err != nil {
					return err
				}
			}
		}
		if err := m.removeTuple(t); err != nil {
			return err
		}
	}
	return nil
}

// hasEntriesWithArg reports whether any GMR has an entry whose argument
// list contains oid.
func (m *Manager) hasEntriesWithArg(oid object.OID) bool {
	for _, g := range m.gmrs {
		if len(g.argIndex[oid]) > 0 {
			return true
		}
	}
	return false
}

// InvalidateAll marks every result of the named GMR invalid and removes all
// of its RRR tuples and ObjDepFct marks — the starting state of the paper's
// Figure 10 "Lazy" configuration ("all materialized volume results had been
// invalidated before the benchmark was started — this causes the RRR and
// the sets ObjDepFct to be empty with respect to <<volume>>").
func (m *Manager) InvalidateAll(name string) error {
	g, ok := m.gmrs[name]
	if !ok {
		return fmt.Errorf("core: no GMR %q", name)
	}
	if err := m.removeTuplesOf(g); err != nil {
		return err
	}
	for _, e := range g.order {
		for i := range g.Funcs {
			if err := g.markInvalid(e.key, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Revalidate recomputes every invalid result of the named GMR — the
// background sweep lazy rematerialization performs "as soon as the load ...
// falls below a predetermined threshold".
func (m *Manager) Revalidate(name string) error {
	g, ok := m.gmrs[name]
	if !ok {
		return fmt.Errorf("core: no GMR %q", name)
	}
	for i := range g.Funcs {
		if err := m.revalidateColumn(g, i); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) revalidateColumn(g *GMR, i int) error {
	keys := make([]string, 0, len(g.invalid[i]))
	for k := range g.invalid[i] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e, ok := g.entries[k]
		if !ok {
			delete(g.invalid[i], k)
			continue
		}
		if err := m.rematerialize(g, e, i); err != nil {
			return err
		}
	}
	return nil
}
