package schema

import (
	"fmt"
	"strings"
	"sync/atomic"

	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/storage"
)

// CallInterceptor lets the GMR manager short-circuit invocations of
// materialized functions into forward GMR lookups (Section 3.2: "every
// invocation of a materialized function is mapped to a forward query").
// It returns handled=false to fall through to normal evaluation.
type CallInterceptor func(fid FuncID, args []object.Value) (v object.Value, handled bool, err error)

// Engine executes GOMpl operations against an object manager. It implements
// lang.Runtime and carries the update-hook table the GMR manager installs
// (the schema rewrite) plus the access-tracking used to build the RRR.
type Engine struct {
	Sch   *Schema
	Objs  *object.Manager
	Clock *storage.Clock
	Hooks *HookTable

	interceptor CallInterceptor

	// trackers[:depth] is the stack of active access recorders; each
	// (re)materialization pushes one to collect the objects a computation
	// visits. The recorders above depth are kept for reuse: the one at a
	// nesting depth serves every tracked evaluation at that depth (see
	// EvalTrackedOrdered). Tracking only runs during (re)materialization,
	// which executes under the exclusive Database lock, so the stack needs
	// no further synchronization.
	trackers []*accessTracker
	depth    int
	// levels[:lent] hold what the hooks of the hooked updates in progress
	// are lent, one level per update: an update run by the body of a hooked
	// public operation, or by a hook, takes the next level. Hooked updates
	// run on the exclusive tier only: a snapshot engine refuses them, and a
	// call the shared tier admits is unhooked.
	levels []hookLevel
	lent   int
	// suspend > 0 disables tracking: inside a public operation of a
	// strictly encapsulated type only the receiver is recorded, its
	// subobjects are not (Section 5.3). Write-path-only, like trackers.
	suspend int
	// noIntercept > 0 disables the GMR interceptor: rematerialization must
	// recompute from base objects, not from (possibly stale) GMR entries.
	// Counted atomically because EvalRaw runs on the concurrent read path
	// (consistency checks, non-materialized function evaluation).
	noIntercept atomic.Int64

	// snapshot marks a read-only MVCC clone created by SnapshotAt: object
	// reads resolve at version ver, mutations are refused with
	// ErrReadOnlyView. See snapshot.go.
	snapshot bool
	ver      uint64
}

// hookLevel is one nesting level's buffers: the argument list and the
// receiver view's ObjDepFct set an update lends its hooks.
type hookLevel struct {
	args []object.Value
	deps []string
}

// NewEngine wires an engine over a schema and object manager.
func NewEngine(sch *Schema, objs *object.Manager, clock *storage.Clock) *Engine {
	return &Engine{Sch: sch, Objs: objs, Clock: clock, Hooks: sch.hooks}
}

// SetInterceptor installs (or clears, with nil) the materialized-call
// interceptor.
func (en *Engine) SetInterceptor(ic CallInterceptor) { en.interceptor = ic }

// Charge implements lang.Runtime.
func (en *Engine) Charge(n int64) { en.Clock.AddCPU(n) }

// accessTracker records the objects a tracked evaluation visits: the set
// feeds RRR maintenance, the first-access order feeds the clustering pass
// (objects read together should live together, in the order they are read).
type accessTracker struct {
	set   map[object.OID]struct{}
	order []object.OID
}

// maxReusedSet bounds the set a recorder clears for reuse: clearing a map
// costs its capacity, so after one large evaluation (an aggregate over a big
// collection, say) the recorder starts afresh instead of slowing every later
// one.
const maxReusedSet = 1024

// reset empties the recorder for its next evaluation.
func (t *accessTracker) reset() {
	if t.set == nil || len(t.order) > maxReusedSet {
		t.set = make(map[object.OID]struct{})
		t.order = nil
		return
	}
	clear(t.set)
	t.order = t.order[:0]
}

func (en *Engine) track(oid object.OID) {
	if en.suspend > 0 || en.depth == 0 {
		return
	}
	for _, t := range en.trackers[:en.depth] {
		if _, seen := t.set[oid]; !seen {
			t.set[oid] = struct{}{}
			t.order = append(t.order, oid)
		}
	}
}

// Tracking reports whether any access tracker is active (and not suspended).
func (en *Engine) Tracking() bool { return en.depth > 0 && en.suspend == 0 }

// ReadAttr implements lang.Runtime.
func (en *Engine) ReadAttr(recv object.Value, attr string) (object.Value, error) {
	switch recv.Kind {
	case object.KRef:
		if !en.snapshot {
			// The charged path reads just the one field from the pinned page.
			v, err := en.Objs.ReadAttr(recv.R, attr)
			if err != nil {
				return object.Null(), err
			}
			en.track(recv.R)
			return v, nil
		}
		o, err := en.getObject(recv.R)
		if err != nil {
			return object.Null(), err
		}
		en.track(o.OID)
		return en.Objs.AttrOf(o, attr)
	case object.KTuple:
		layout := en.Objs.Layout(recv.TupleType)
		for i, a := range layout {
			if a.Name == attr && i < len(recv.Elems) {
				return recv.Elems[i], nil
			}
		}
		return object.Null(), fmt.Errorf("schema: tuple type %q has no attribute %q", recv.TupleType, attr)
	case object.KNull:
		return object.Null(), fmt.Errorf("schema: attribute %q read on null", attr)
	default:
		return object.Null(), fmt.Errorf("schema: attribute %q read on %v value", attr, recv.Kind)
	}
}

// ReadElems implements lang.Runtime.
func (en *Engine) ReadElems(coll object.Value) ([]object.Value, error) {
	switch coll.Kind {
	case object.KRef:
		o, err := en.getObject(coll.R)
		if err != nil {
			return nil, err
		}
		en.track(o.OID)
		out := make([]object.Value, len(o.Elems))
		copy(out, o.Elems)
		return out, nil
	case object.KSet, object.KList:
		return coll.Elems, nil
	case object.KNull:
		return nil, nil
	default:
		return nil, fmt.Errorf("schema: element read on %v value", coll.Kind)
	}
}

// CallFunction implements lang.Runtime: the call-name probe, dynamic
// dispatch, GMR interception, information-hiding atomicity, and
// public-operation update hooks. Calls nested inside GOMpl bodies come
// through here with args borrowed from the caller's frame; the interceptor
// and Apply borrow them in turn.
func (en *Engine) CallFunction(name string, args []object.Value) (object.Value, error) {
	c, ok := en.Sch.Callee(name)
	if !ok {
		return object.Null(), en.Unresolved(name, args)
	}
	fid, dt, err := en.Resolve(c, args)
	if err != nil {
		return object.Null(), err
	}
	if en.interceptor != nil && en.Intercepts() {
		v, handled, err := en.interceptor(fid, args)
		if handled || err != nil {
			return v, err
		}
	}
	return en.Apply(c, fid, dt, args)
}

// Intercepts reports whether invocations of materialized functions are
// answered from their GMRs: not while EvalRaw or a tracked
// (re)materialization runs.
func (en *Engine) Intercepts() bool { return en.noIntercept.Load() == 0 }

// Apply runs the resolved function fid of a call of c dispatched on type dt
// (Resolve's results) without GMR interception: the Section 5.3 atomicity
// rule, the public-operation update hooks, and the evaluation. Apply
// borrows args: the evaluation copies them into its frame, and the hooks
// are lent a copy of args[1:] under UpdateHook's rule.
func (en *Engine) Apply(c Callee, fid FuncID, dt int32, args []object.Value) (object.Value, error) {
	fn := en.Sch.ids.funcs[fid]
	if dt < 0 {
		return lang.Eval(en, fn, args)
	}
	dispatchType, opName := en.Sch.ids.types[dt].name, en.Sch.ids.slots[c.slot]

	// Section 5.3: a public operation of a strictly encapsulated type is
	// atomic with respect to materialization tracking — record the receiver
	// and suspend tracking for the subobjects it touches.
	if en.Tracking() {
		t := en.Sch.Reg.Lookup(dispatchType)
		if t != nil && t.StrictEncapsulated && en.Sch.HasInvalidatedFctDecl(dispatchType) &&
			en.Sch.IsPublic(dispatchType, opName) {
			if args[0].Kind == object.KRef {
				en.track(args[0].R)
			}
			en.suspend++
			defer func() { en.suspend-- }()
		}
	}

	// Public-operation update hooks (installed only for ops with a
	// non-empty InvalidatedFct or CompensatedFct under information hiding).
	var hooks []*UpdateHook
	var hookArgs []object.Value
	lvl := en.lent
	if len(args) > 0 && args[0].Kind == object.KRef {
		hooks = en.Hooks.lookup(dispatchType, opName)
		if len(hooks) > 0 && en.snapshot {
			// A hooked public operation mutates the receiver (and cascades
			// into GMR maintenance) — not allowed on a snapshot.
			return object.Null(), ErrReadOnlyView
		}
		if len(hooks) > 0 {
			recv, err := en.readRecv(lvl, args[0].R)
			if err != nil {
				return object.Null(), err
			}
			hookArgs = en.lendArgs(hooks, args[1:]...)
			defer en.returnArgs(hooks)
			if err := en.runBefore(hooks, recv, hookArgs); err != nil {
				return object.Null(), err
			}
		}
	}

	v, err := lang.Eval(en, fn, args)
	if err != nil {
		return object.Null(), err
	}

	if len(hooks) > 0 {
		// Re-read: the body may have changed the receiver.
		recv, err := en.readRecv(lvl, args[0].R)
		if err != nil {
			return object.Null(), err
		}
		if err := en.runAfter(hooks, recv, hookArgs); err != nil {
			return object.Null(), err
		}
	}
	return v, nil
}

// EvalTrackedOrdered evaluates fn(args) with access tracking and without
// GMR interception — the (re)materialization entry point. It returns the
// result, the set of accessed objects for RRR maintenance, and the forward
// trace: the accessed objects in first-access order. The trace is the input
// to trace-driven clustering — consecutive positions are objects the
// computation touched back-to-back, so co-locating them turns the
// function's read pattern into sequential page access.
//
// The set and the order are borrowed: they belong to the recorder of this
// evaluation's nesting depth, which the next tracked evaluation at the same
// depth clears and refills. A caller that evaluates again before it is done
// with them (the columns of one entry, say) copies what it keeps. An
// evaluation nested inside this one — a hook that rematerializes — runs at
// the next depth and leaves them alone. UpdateHook's arguments are lent the
// same way.
func (en *Engine) EvalTrackedOrdered(fn *lang.Function, args []object.Value) (object.Value, map[object.OID]struct{}, []object.OID, error) {
	if en.depth == len(en.trackers) {
		en.trackers = append(en.trackers, &accessTracker{})
	}
	tracker := en.trackers[en.depth]
	tracker.reset()
	en.depth++
	en.noIntercept.Add(1)
	// Track argument objects themselves: the paper's RRR examples include
	// the argument objects (e.g. [id1, volume, <id1>]).
	for _, a := range args {
		if a.Kind == object.KRef {
			en.track(a.R)
		}
	}
	// The Section 5.3 atomicity rule applies to the materialized function
	// itself: if it is a public operation of a strictly encapsulated type,
	// only the argument objects are marked, none of their subobjects.
	if dot := strings.IndexByte(fn.Name, '.'); dot >= 0 && len(args) > 0 && args[0].Kind == object.KRef {
		if typ, err := en.TypeOf(args[0].R); err == nil {
			t := en.Sch.Reg.Lookup(typ)
			if t != nil && t.StrictEncapsulated && en.Sch.HasInvalidatedFctDecl(typ) &&
				en.Sch.IsPublic(typ, fn.Name[dot+1:]) {
				en.suspend++
				defer func() { en.suspend-- }()
			}
		}
	}
	v, err := lang.Eval(en, fn, args)
	en.noIntercept.Add(-1)
	en.depth--
	if err != nil {
		return object.Null(), nil, nil, err
	}
	return v, tracker.set, tracker.order, nil
}

// EvalRaw evaluates fn(args) without access tracking and without GMR
// interception — the "normal" function of Section 6, used when a result is
// not (or may not be) materialized.
func (en *Engine) EvalRaw(fn *lang.Function, args []object.Value) (object.Value, error) {
	en.noIntercept.Add(1)
	defer en.noIntercept.Add(-1)
	return lang.Eval(en, fn, args)
}

// SetAttr implements lang.Runtime: the elementary update t.set_A with its
// rewritten hook pipeline (Figure 4 / Figure 5 of the paper). Compensation
// hooks run before the store, invalidation hooks after. Every update reads
// the record once and edits the attribute in it without decoding the
// object; a hooked one hands its hooks the receiver's view from that read.
func (en *Engine) SetAttr(recv object.Value, attr string, v object.Value) error {
	if recv.Kind != object.KRef {
		return fmt.Errorf("schema: set_%s on %v value", attr, recv.Kind)
	}
	if en.snapshot {
		return ErrReadOnlyView
	}
	op := "set_" + attr
	var hooks []*UpdateHook
	l := en.level(en.lent)
	e, err := en.Objs.SetAttr(recv.R, attr, v, l.deps, func(typ string) bool {
		hooks = en.Hooks.lookup(typ, op)
		return len(hooks) > 0
	})
	if !e.Hooked() || err != nil {
		return err
	}
	l.deps = e.Recv.DepFcts[:0]
	args := en.lendArgs(hooks, v)
	defer en.returnArgs(hooks)
	if err := en.runBefore(hooks, e.Recv, args); err != nil {
		e.Release()
		return err
	}
	if err := e.Store(); err != nil {
		return err
	}
	return en.runAfter(hooks, e.Recv, args)
}

// level returns nesting level i's buffers, adding the level when it is new.
// The pointer is valid until the next level is added.
func (en *Engine) level(i int) *hookLevel {
	if i == len(en.levels) {
		en.levels = append(en.levels, hookLevel{})
	}
	return &en.levels[i]
}

// readRecv reads oid's receiver view, charged as Get is, into nesting level
// i's ObjDepFct buffer.
func (en *Engine) readRecv(i int, oid object.OID) (object.Recv, error) {
	l := en.level(i)
	r, err := en.Objs.ReadRecv(oid, l.deps)
	if err == nil {
		l.deps = r.DepFcts[:0]
	}
	return r, err
}

// lendArgs returns the argument list an update's hooks are lent: the next
// nesting level's buffer holding a copy of vals, nil when no hook runs. It
// takes the level, whose ObjDepFct buffer the update may already have read
// its receiver view into, and the update gives it back with
// returnArgs(hooks) once its hooks are done. The copy keeps the hooks, which
// are dynamic calls, from making the caller's arguments escape.
func (en *Engine) lendArgs(hooks []*UpdateHook, vals ...object.Value) []object.Value {
	if len(hooks) == 0 {
		return nil
	}
	l := en.level(en.lent)
	l.args = append(l.args[:0], vals...)
	en.lent++
	return l.args
}

// returnArgs gives back the level lendArgs took for hooks. Its buffers keep
// their values until the next update at the level overwrites them.
func (en *Engine) returnArgs(hooks []*UpdateHook) {
	if len(hooks) > 0 {
		en.lent--
	}
}

// runBefore runs the Before hooks of an update.
func (en *Engine) runBefore(hooks []*UpdateHook, recv object.Recv, args []object.Value) error {
	for _, h := range hooks {
		if h.Before != nil {
			if err := h.Before(en, recv, args); err != nil {
				return err
			}
		}
	}
	return nil
}

// runAfter runs the After hooks of an update.
func (en *Engine) runAfter(hooks []*UpdateHook, recv object.Recv, args []object.Value) error {
	for _, h := range hooks {
		if h.After != nil {
			if err := h.After(en, recv, args); err != nil {
				return err
			}
		}
	}
	return nil
}

// InsertElem implements lang.Runtime: the elementary update t.insert.
// Inserting an element already present in a set-structured object is a
// no-op and triggers no hooks.
func (en *Engine) InsertElem(coll, elem object.Value) error {
	if coll.Kind != object.KRef {
		return fmt.Errorf("schema: insert on %v value", coll.Kind)
	}
	if en.snapshot {
		return ErrReadOnlyView
	}
	o, err := en.Objs.Get(coll.R)
	if err != nil {
		return err
	}
	t := en.Sch.Reg.Lookup(o.Type)
	if t == nil || (t.Kind != object.SetType && t.Kind != object.ListType) {
		return fmt.Errorf("schema: insert on non-collection type %q", o.Type)
	}
	if t.Kind == object.SetType {
		for _, e := range o.Elems {
			if e.Equal(elem) {
				return nil
			}
		}
	}
	hooks := en.Hooks.lookup(o.Type, "insert")
	args := en.lendArgs(hooks, elem)
	defer en.returnArgs(hooks)
	if err := en.runBefore(hooks, o.Recv(), args); err != nil {
		return err
	}
	o.Elems = append(o.Elems, elem)
	if err := en.Objs.Put(o); err != nil {
		return err
	}
	return en.runAfter(hooks, o.Recv(), args)
}

// RemoveElem implements lang.Runtime: the elementary update t.remove.
// Removing an absent element is a no-op and triggers no hooks.
func (en *Engine) RemoveElem(coll, elem object.Value) error {
	if coll.Kind != object.KRef {
		return fmt.Errorf("schema: remove on %v value", coll.Kind)
	}
	if en.snapshot {
		return ErrReadOnlyView
	}
	o, err := en.Objs.Get(coll.R)
	if err != nil {
		return err
	}
	idx := -1
	for i, e := range o.Elems {
		if e.Equal(elem) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	hooks := en.Hooks.lookup(o.Type, "remove")
	args := en.lendArgs(hooks, elem)
	defer en.returnArgs(hooks)
	if err := en.runBefore(hooks, o.Recv(), args); err != nil {
		return err
	}
	o.Elems = append(o.Elems[:idx], o.Elems[idx+1:]...)
	if err := en.Objs.Put(o); err != nil {
		return err
	}
	return en.runAfter(hooks, o.Recv(), args)
}

// Create stores a new tuple instance and fires the t.create hooks
// (GMR_Manager.new_object, Section 4.2).
func (en *Engine) Create(typeName string, attrs []object.Value) (object.OID, error) {
	oid, err := en.Objs.Create(typeName, attrs)
	if err != nil {
		return object.NilOID, err
	}
	return en.created(typeName, oid)
}

// CreateCollection stores a new set/list instance and fires create hooks.
func (en *Engine) CreateCollection(typeName string, elems []object.Value) (object.OID, error) {
	oid, err := en.Objs.CreateCollection(typeName, elems)
	if err != nil {
		return object.NilOID, err
	}
	return en.created(typeName, oid)
}

// created runs the t.create hooks of the new instance oid of typeName; an
// instance of a type without them is not read back.
func (en *Engine) created(typeName string, oid object.OID) (object.OID, error) {
	hooks := en.Hooks.lookup(typeName, "create")
	if len(hooks) == 0 {
		return oid, nil
	}
	recv, err := en.readRecv(en.lent, oid)
	if err != nil {
		return object.NilOID, err
	}
	en.lendArgs(hooks)
	defer en.returnArgs(hooks)
	if err := en.runAfter(hooks, recv, nil); err != nil {
		return object.NilOID, err
	}
	return oid, nil
}

// Delete removes an object after firing the t.delete hooks
// (GMR_Manager.forget_object runs before the object disappears, Figure 4).
// The receiver's view is read whether or not the type has hooks: its type
// names them.
func (en *Engine) Delete(oid object.OID) error {
	recv, err := en.readRecv(en.lent, oid)
	if err != nil {
		return err
	}
	hooks := en.Hooks.lookup(recv.Type, "delete")
	en.lendArgs(hooks)
	defer en.returnArgs(hooks)
	if err := en.runBefore(hooks, recv, nil); err != nil {
		return err
	}
	return en.Objs.Delete(oid)
}

// SetAttrByName is a convenience wrapper for host code (benchmark drivers,
// examples): oid.set_attr(v).
func (en *Engine) SetAttrByName(oid object.OID, attr string, v object.Value) error {
	return en.SetAttr(object.Ref(oid), attr, v)
}

// Invoke calls a declared function by name with the given arguments.
func (en *Engine) Invoke(name string, args ...object.Value) (object.Value, error) {
	return en.CallFunction(name, args)
}
