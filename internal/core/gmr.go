// Package core implements the paper's primary contribution: function
// materialization. It provides Generalized Materialization Relations (GMRs,
// Definition 3.1), the Reverse Reference Relation (RRR, Definition 4.1), and
// the GMR manager with its invalidation and rematerialization machinery —
// lazy and immediate strategies (Section 4.1), creation and deletion of
// argument objects (Section 4.2), the update notification mechanism via
// schema rewrite (Section 4.3), the invalidation-overhead reductions of
// Section 5 (RelAttr/SchemaDepFct, ObjDepFct marking, information hiding,
// compensating actions), and restricted GMRs with atomic argument types
// (Section 6).
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"gomdb/internal/btree"
	"gomdb/internal/gridfile"
	"gomdb/internal/lang"
	"gomdb/internal/mvcc"
	"gomdb/internal/object"
	"gomdb/internal/pred"
	"gomdb/internal/storage"
)

// Strategy selects between the two rematerialization disciplines of
// Section 3.1.
type Strategy uint8

const (
	// Immediate recomputes an invalidated result as soon as the
	// invalidation occurs.
	Immediate Strategy = iota
	// Lazy only marks invalidated results; they are recomputed when next
	// needed (or by an explicit Revalidate sweep).
	Lazy
	// Deferred marks invalidated results like Lazy, and its invalid
	// results are the pending recomputations drained by Manager.Flush (see
	// deferred.go): N updates hitting the same entry between flushes cost a
	// single recomputation. A lookup that touches a pending entry forces
	// just that entry, like the lazy path.
	Deferred
)

func (s Strategy) String() string {
	switch s {
	case Lazy:
		return "lazy"
	case Deferred:
		return "deferred"
	}
	return "immediate"
}

// HookMode selects how much of Section 5's machinery the schema rewrite
// uses. The modes correspond to the program versions of the paper's
// benchmarks.
type HookMode uint8

const (
	// ModeBasic is the unsophisticated Section 4 mechanism: every
	// elementary update operation of every involved type notifies the GMR
	// manager, which always performs an RRR lookup (Figure 4).
	ModeBasic HookMode = iota
	// ModeSchemaDep rewrites only the update operations in SchemaDepFct
	// (Section 5.1) and passes the schema-dependent function set along.
	ModeSchemaDep
	// ModeObjDep additionally consults the per-object ObjDepFct marking, so
	// the manager is invoked only when an invalidation will actually occur
	// (Section 5.2, Figure 5). This is the paper's "WithGMR" version.
	ModeObjDep
	// ModeInfoHiding exploits strict encapsulation: public operations with a
	// declared non-empty InvalidatedFct are rewritten instead of the
	// elementary operations of subobject types (Section 5.3). Types without
	// encapsulation fall back to ModeObjDep behaviour.
	ModeInfoHiding
)

func (m HookMode) String() string {
	switch m {
	case ModeBasic:
		return "basic"
	case ModeSchemaDep:
		return "schemadep"
	case ModeObjDep:
		return "objdep"
	case ModeInfoHiding:
		return "infohiding"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ArgRestriction restricts an atomic argument position (Section 6.2): a
// float argument must be value-restricted, an int argument may be value- or
// range-restricted.
type ArgRestriction struct {
	// Values enumerates the admissible argument values (value-restricted).
	Values []object.Value
	// IsRange selects range restriction Lo <= x <= Hi for int arguments.
	IsRange bool
	Lo, Hi  int64
}

// Restriction is the restriction predicate p of a p-restricted GMR
// (Definition 6.1).
type Restriction struct {
	// Fn is the executable predicate p : t1,...,tn -> bool; it is treated
	// as a materialized function for invalidation purposes (Section 6.1).
	Fn *lang.Function
	// Formula is the declarative form of p used for the backward-query
	// applicability test (¬p ∧ σ′ unsatisfiable); variables are canonical
	// "arg<i>.<path>" strings. Optional: without it the GMR is only used
	// for forward queries.
	Formula pred.P
}

// Options configures a materialization request.
type Options struct {
	// Name identifies the GMR; defaults to "<<f1,...,fm>>".
	Name string
	// Funcs are the qualified names of the side-effect-free functions to
	// materialize; they must share their argument types (Definition 3.1).
	Funcs []string
	// Strategy selects lazy or immediate rematerialization.
	Strategy Strategy
	// Mode selects the invalidation machinery.
	Mode HookMode
	// Complete requests precomputation for every argument combination
	// (Definition 3.4); false creates an incrementally filled GMR that acts
	// as a cache of results computed during query evaluation.
	Complete bool
	// MaxEntries bounds an incremental GMR (0 = unlimited); beyond it the
	// least recently inserted entries are evicted.
	MaxEntries int
	// Restriction makes this a p-restricted GMR.
	Restriction *Restriction
	// AtomicArgs restricts atomic argument positions (by index).
	AtomicArgs map[int]ArgRestriction
	// SecondChance enables the second-chance variant of the immediate(o)
	// algorithm Section 4.1 sketches: instead of removing the updated
	// object's RRR tuple in step 1 and re-inserting it in step 3, the tuple
	// stays and is removed only if the rematerialization did not visit the
	// object again — saving a delete/insert pair in the common case where
	// an object is re-used after an update.
	SecondChance bool
	// UseMDS maintains a single multidimensional index (a Grid File) over
	// all argument and result columns instead of relying solely on the
	// conventional per-column indexes — the Section 3.3 option for GMRs of
	// at most four total columns with numeric results. It enables
	// Manager.Retrieve queries that constrain arbitrary column combinations.
	UseMDS bool
}

// entry is one tuple of a GMR extension:
// [O1,...,On, f1, V1, ..., fm, Vm].
type entry struct {
	// key is the entry's argument key (argKey(Args)), its key in entries.
	key     string
	Args    []object.Value
	Results []object.Value
	Valid   []bool
	// aux are the btree tie-break keys per function column.
	aux []uint64
	// idx are the records of this entry in the paged index files.
	idx []storage.RID
	rid storage.RID
	// ref is the second-chance reference bit: set on insertion and on every
	// forward access, cleared when cache eviction rotates past the entry.
	// Atomic because forward hits run on the concurrent read path.
	ref atomic.Bool
	// triggers holds, per column of a Deferred second-chance GMR, the
	// objects whose updates invalidated the result (see addTrigger); nil
	// unless used, and cleared by setResult.
	triggers []map[object.OID]struct{}
}

// GMR is a generalized materialization relation (Definition 3.1). The
// extension is stored in a paged heap file (so access is charged to the
// simulated clock) with an in-memory hash index on the argument combination
// and one B+ tree per numeric result column for backward range queries — the
// "conventional indexing schemes" Section 3.3 recommends over
// multidimensional structures for higher arities.
type GMR struct {
	Name     string
	Funcs    []*lang.Function
	ArgTypes []string
	Strategy Strategy
	Mode     HookMode
	Complete bool

	MaxEntries   int
	Restriction  *Restriction
	AtomicArgs   map[int]ArgRestriction
	SecondChance bool

	entries map[string]*entry
	order   []*entry // insertion order: determinism + cache eviction
	// argIndex maps an argument object to the entry keys whose argument
	// list contains it — the "supplementary index" Section 4.2 mentions as
	// the alternative to exhaustively searching the RRR. It guarantees
	// forget_object finds every affected entry even when lazy invalidation
	// already consumed the corresponding RRR tuples.
	argIndex map[object.OID]map[string]bool
	heap     *storage.HeapFile
	resIdx   []*btree.Tree // per function; nil for non-numeric results
	// idxHeap models the paged storage of each backward index: every index
	// insert, delete, and leaf visit during a range scan is charged as page
	// I/O through the buffer pool, like the conventional secondary indexes
	// Section 3.3 prescribes.
	idxHeap []*storage.HeapFile
	invalid []map[string]bool
	nextAux uint64
	// mds is the optional Grid File over all columns (Section 3.3).
	mds *gridfile.GridFile
	// vers holds the MVCC pre-images of entries by argument key (see
	// snapshot.go); guarded by the manager's snapMu.
	vers mvcc.Chains[string, entryState]

	// variants holds, per column, every subtype override of the column's
	// function, so the hook planner can analyze all of them; the
	// manager's column table maps each of them to the column.
	variants map[int][]*lang.Function

	mgr *Manager

	// spare holds the column slices of reclaimed pre-images, for the next
	// captures to fill (see snapshot.go); guarded by snapMu.
	spare [][]colState
}

// FuncIDs returns the qualified names of the materialized functions.
func (g *GMR) FuncIDs() []string {
	out := make([]string, len(g.Funcs))
	for i, f := range g.Funcs {
		out[i] = f.Name
	}
	return out
}

// predID is the pseudo-function identifier under which the restriction
// predicate of a restricted GMR is itself materialized (Section 6.1).
func (g *GMR) predID() string { return "p:" + g.Name }

// funcIndex returns the column of the named function — a materialized
// function or one of its overrides — or -1.
func (g *GMR) funcIndex(fid string) int {
	if _, c, ok := g.mgr.colByName(fid); ok && c.g == g {
		return c.col
	}
	return -1
}

// Len returns the number of entries in the extension.
func (g *GMR) Len() int { return len(g.entries) }

// InvalidCount returns the number of invalid results in column fid.
func (g *GMR) InvalidCount(fid string) int {
	i := g.funcIndex(fid)
	if i < 0 {
		return 0
	}
	return len(g.invalid[i])
}

// keyBufSize is the stack buffer an argument key is built in; longer keys
// spill to the heap.
const keyBufSize = 64

// appendArgKey appends the encoding of an argument combination — its values
// back to back — to buf.
func appendArgKey(buf []byte, args []object.Value) []byte {
	for _, a := range args {
		buf = object.AppendValue(buf, a)
	}
	return buf
}

// argKey encodes an argument combination as a map key.
func argKey(args []object.Value) string {
	var b [keyBufSize]byte
	return string(appendArgKey(b[:0], args))
}

// appendEntry appends an entry's heap record to b: the argument count, the
// arguments, then each result with its validity bit, every one a value.
func appendEntry(b []byte, e *entry) []byte {
	b = object.AppendValue(b, object.Int(int64(len(e.Args))))
	b = appendArgKey(b, e.Args)
	for i, r := range e.Results {
		b = object.AppendValue(b, r)
		b = object.AppendValue(b, object.Bool(e.Valid[i]))
	}
	return b
}

// entryRecord builds e's heap record in the manager's write buffer.
func (g *GMR) entryRecord(e *entry) []byte {
	g.mgr.wbuf = appendEntry(g.mgr.wbuf[:0], e)
	return g.mgr.wbuf
}

// insertEntry adds a new entry to the extension, heap, and indexes.
//
// Like every entry mutator it runs under the manager's snapshot mutex so
// pinned MVCC readers see entry state change atomically (see snapshot.go).
func (g *GMR) insertEntry(e *entry) error {
	g.mgr.snapMu.Lock()
	defer g.mgr.snapMu.Unlock()
	return g.insertEntryLocked(e)
}

func (g *GMR) insertEntryLocked(e *entry) error {
	k := argKey(e.Args)
	if _, dup := g.entries[k]; dup {
		return fmt.Errorf("core: duplicate GMR entry for %v in %s", e.Args, g.Name)
	}
	g.capture(k, nil)
	// A full cache frees a slot before the newcomer goes in: the eviction
	// sweep then only judges entries by accesses since the previous sweep,
	// and the fresh entry keeps its reference bit until the next one.
	if g.MaxEntries > 0 && len(g.entries) >= g.MaxEntries {
		g.evictOldest()
	}
	rid, err := g.heap.Insert(g.entryRecord(e))
	if err != nil {
		return err
	}
	e.rid = rid
	e.aux = make([]uint64, len(g.Funcs))
	e.idx = make([]storage.RID, len(g.Funcs))
	// A fresh entry counts as referenced, so it survives at least one
	// eviction sweep before becoming a candidate victim.
	e.ref.Store(true)
	e.key = k
	g.entries[k] = e
	g.order = append(g.order, e)
	for _, a := range e.Args {
		if a.Kind == object.KRef {
			if g.argIndex[a.R] == nil {
				g.argIndex[a.R] = make(map[string]bool)
			}
			g.argIndex[a.R][k] = true
		}
	}
	for i := range g.Funcs {
		if e.Valid[i] {
			if err := g.indexResult(e, i); err != nil {
				return err
			}
		} else {
			g.invalid[i][k] = true
		}
	}
	if err := g.mdsInsert(e); err != nil {
		return err
	}
	return nil
}

// idxRecordSize pads index records to model B-tree key/pointer overhead and
// fill factor: ~100 index entries per 4 KB page.
const idxRecordSize = 40

// indexResult inserts entry e's column i into the backward index if the
// result is numeric, charging the index-page write.
func (g *GMR) indexResult(e *entry, i int) error {
	if g.resIdx[i] == nil {
		return nil
	}
	f, ok := e.Results[i].AsFloat()
	if !ok {
		return nil
	}
	g.nextAux++
	e.aux[i] = g.nextAux
	g.resIdx[i].Insert(btree.Key{F: f, Aux: e.aux[i]}, e)
	g.mgr.Clock.AddCPU(4)
	rid, err := g.idxHeap[i].Insert(make([]byte, idxRecordSize))
	if err != nil {
		return err
	}
	e.idx[i] = rid
	return nil
}

// unindexResult removes entry e's column i from the backward index,
// charging the index-page access.
func (g *GMR) unindexResult(e *entry, i int) error {
	if g.resIdx[i] == nil || e.aux[i] == 0 {
		return nil
	}
	if f, ok := e.Results[i].AsFloat(); ok {
		g.resIdx[i].Delete(btree.Key{F: f, Aux: e.aux[i]})
	}
	e.aux[i] = 0
	g.mgr.Clock.AddCPU(4)
	if !e.idx[i].IsZero() {
		if err := g.idxHeap[i].Delete(e.idx[i]); err != nil {
			return err
		}
		e.idx[i] = storage.RID{}
	}
	return nil
}

// touchIdx charges the index-leaf visit of a range scan for entry e: one
// logical read of its index record.
func (g *GMR) touchIdx(e *entry, i int) error {
	if i < len(e.idx) && !e.idx[i].IsZero() {
		return g.idxHeap[i].Touch(e.idx[i])
	}
	return nil
}

// markInvalid sets Vi := false for column i of the entry with key k
// (step 1 of the lazy(o) algorithm). The backward index keeps its now-stale
// entry: lazy invalidation deliberately avoids index maintenance, and the
// index is repaired when the result is rematerialized.
func (g *GMR) markInvalid(k string, i int) error {
	e, ok := g.entries[k]
	if !ok {
		return nil
	}
	if !e.Valid[i] {
		return nil
	}
	g.mgr.snapMu.Lock()
	defer g.mgr.snapMu.Unlock()
	g.capture(k, e)
	e.Valid[i] = false
	g.invalid[i][k] = true
	return g.rewrite(e)
}

// setResult replaces column i of entry e (the rematerialization write) and
// makes it valid, which retires a pending deferred recomputation and its
// second-chance triggers.
func (g *GMR) setResult(e *entry, i int, v object.Value) error {
	g.mgr.snapMu.Lock()
	defer g.mgr.snapMu.Unlock()
	g.capture(e.key, e)
	if err := g.mdsDelete(e); err != nil {
		return err
	}
	if err := g.unindexResult(e, i); err != nil {
		return err
	}
	k := e.key
	e.Results[i] = v
	e.Valid[i] = true
	delete(g.invalid[i], k)
	if e.triggers != nil {
		e.triggers[i] = nil
	}
	if err := g.indexResult(e, i); err != nil {
		return err
	}
	if err := g.mdsInsert(e); err != nil {
		return err
	}
	return g.rewrite(e)
}

// rewrite persists the entry to the heap file (charging the I/O).
func (g *GMR) rewrite(e *entry) error {
	rid, err := g.heap.Update(e.rid, g.entryRecord(e))
	if err != nil {
		return err
	}
	e.rid = rid
	return nil
}

// touch reads the entry record from the heap file, charging the page access
// a real system would pay to fetch the tuple.
func (g *GMR) touch(e *entry) error {
	if err := g.heap.Touch(e.rid); err != nil {
		return err
	}
	g.mgr.Clock.AddCPU(2)
	return nil
}

// scan calls fn for every entry of the extension in insertion order, after
// reading its record as touch does. Consecutive entries whose records share
// a page are read as one page run (HeapFile.TouchRun), which charges exactly
// what one touch per entry charges.
func (g *GMR) scan(fn func(e *entry)) error {
	var slots [64]uint16
	for i := 0; i < len(g.order); {
		page := g.order[i].rid.Page
		n := 0
		for i+n < len(g.order) && n < len(slots) && g.order[i+n].rid.Page == page {
			slots[n] = g.order[i+n].rid.Slot
			n++
		}
		k, err := g.heap.TouchRun(page, slots[:n])
		g.mgr.Clock.AddCPU(2 * int64(k))
		for _, e := range g.order[i : i+k] {
			fn(e)
		}
		if err != nil {
			return err
		}
		i += n
	}
	return nil
}

// removeEntry deletes the entry with key k from the extension, heap, and
// indexes. RRR entries pointing at it become blind references that are
// lazily cleaned (Section 4.2).
func (g *GMR) removeEntry(k string) error {
	g.mgr.snapMu.Lock()
	defer g.mgr.snapMu.Unlock()
	return g.removeEntryLocked(k)
}

// removeEntryLocked is removeEntry's body; split out because evictOldest
// runs inside insertEntry's locked region and must not re-acquire snapMu.
func (g *GMR) removeEntryLocked(k string) error {
	e, ok := g.entries[k]
	if !ok {
		return nil
	}
	g.capture(k, e)
	if err := g.mdsDelete(e); err != nil {
		return err
	}
	for i := range g.Funcs {
		if err := g.unindexResult(e, i); err != nil {
			return err
		}
		delete(g.invalid[i], k)
	}
	delete(g.entries, k)
	g.mgr.clearEntryTraces(g, k)
	for i, oe := range g.order {
		if oe == e {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	for _, a := range e.Args {
		if a.Kind == object.KRef {
			delete(g.argIndex[a.R], k)
			if len(g.argIndex[a.R]) == 0 {
				delete(g.argIndex, a.R)
			}
		}
	}
	return g.heap.Delete(e.rid)
}

// entryKeysWithArg returns the keys of all entries whose argument list
// contains oid.
func (g *GMR) entryKeysWithArg(oid object.OID) []string {
	var out []string
	for k := range g.argIndex[oid] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// evictOldest frees one cache slot of an over-full incremental GMR using the
// second-chance variant of FIFO:
// entries whose reference bit is set (inserted or accessed since the last
// sweep) get their bit cleared and rotate to the back; the first unreferenced
// entry is evicted. Because rotation clears bits as it goes, the sweep
// terminates within two passes even when every entry was recently accessed.
func (g *GMR) evictOldest() {
	for pass := 0; pass < 2*len(g.order); pass++ {
		if len(g.order) == 0 {
			return
		}
		e := g.order[0]
		if e.ref.Load() {
			e.ref.Store(false)
			copy(g.order, g.order[1:])
			g.order[len(g.order)-1] = e
			continue
		}
		// Called from insertEntry's locked region: use the lock-free body
		// (the insert's deferred epoch bump covers the eviction too).
		_ = g.removeEntryLocked(e.key)
		return
	}
}

// lookup returns the entry for an argument combination.
func (g *GMR) lookup(args []object.Value) (*entry, bool) {
	var b [keyBufSize]byte
	e, ok := g.entries[string(appendArgKey(b[:0], args))]
	return e, ok
}

// Entries calls fn for every entry in insertion order; used by queries,
// diagnostics, and tests. args and results alias internal state and must not
// be mutated.
func (g *GMR) Entries(fn func(args []object.Value, results []object.Value, valid []bool) bool) {
	for _, e := range g.order {
		if !fn(e.Args, e.Results, e.Valid) {
			return
		}
	}
}

// admitsArgs checks atomic argument restrictions for an argument vector.
func (g *GMR) admitsArgs(args []object.Value) bool {
	for i, r := range g.AtomicArgs {
		if i >= len(args) {
			return false
		}
		if r.IsRange {
			if args[i].Kind != object.KInt || args[i].I < r.Lo || args[i].I > r.Hi {
				return false
			}
			continue
		}
		found := false
		for _, v := range r.Values {
			if v.Equal(args[i]) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
