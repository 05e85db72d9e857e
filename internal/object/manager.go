package object

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gomdb/internal/mvcc"
	"gomdb/internal/storage"
)

// ErrDangling is the error of a read through a reference to an object that
// does not exist (at the version read).
var ErrDangling = errors.New("object: dangling reference")

// Obj is the in-memory form of a stored object. Callers obtain it from
// Manager.Get, mutate it, and write it back with Manager.Put.
type Obj struct {
	OID  OID
	Type string
	// Attrs are the attribute values of a tuple-structured object, in the
	// flattened inherited layout (Manager.Layout).
	Attrs []Value
	// Elems are the elements of a set- or list-structured object.
	Elems []Value
	// DepFcts is the ObjDepFct set of Section 5.2: the identifiers of all
	// materialized functions that used this object during materialization.
	// Sorted; maintained in lockstep with the RRR by the GMR manager.
	DepFcts []string
}

// HasDepFct reports whether fid is in the object's ObjDepFct set.
func (o *Obj) HasDepFct(fid string) bool { return hasDepFct(o.DepFcts, fid) }

// Recv returns the receiver view of o. Its ObjDepFct set is o's.
func (o *Obj) Recv() Recv { return Recv{OID: o.OID, Type: o.Type, DepFcts: o.DepFcts} }

// A Recv is a receiver view: what an update operation hands the GMR manager
// about the object it changes — which object it is, its type and which
// materialized functions depend on it (Sections 4.3 and 5.2) — without the
// object's state. ReadRecv reads one from the record; DepFcts then lives in
// the caller's buffer.
type Recv struct {
	OID  OID
	Type string
	// DepFcts is the object's ObjDepFct set, sorted.
	DepFcts []string
}

// HasDepFct reports whether fid is in the receiver's ObjDepFct set.
func (r Recv) HasDepFct(fid string) bool { return hasDepFct(r.DepFcts, fid) }

func hasDepFct(set []string, fid string) bool {
	i := sort.SearchStrings(set, fid)
	return i < len(set) && set[i] == fid
}

// extent tracks the instances of one exact type with O(1) membership and
// swap-removal while preserving deterministic iteration for seeded
// benchmarks.
type extent struct {
	order []OID
	pos   map[OID]int
	// undo logs, oldest first, every add and remove the MVCC writer made
	// since the reclamation floor (see appendAt).
	undo []extUndo
}

// extUndo undoes one extent mutation made in the epoch whose pre-state is
// publish version ver. An add has slot -1; a swap-remove records the slot
// the removed oid held.
type extUndo struct {
	ver  uint64
	slot int
	oid  OID
}

// logAdd records, before add runs, how to undo it.
func (e *extent) logAdd(ver uint64) {
	e.undo = append(e.undo, extUndo{ver: ver, slot: -1})
}

// logRemove records, before remove(oid) runs, how to undo it.
func (e *extent) logRemove(ver uint64, oid OID) {
	if i, ok := e.pos[oid]; ok {
		e.undo = append(e.undo, extUndo{ver: ver, slot: i, oid: oid})
	}
}

// appendAt appends the extent's membership as of version ver to out, in the
// order the live extent had then: the live order with every mutation logged
// at or after ver undone, newest first.
func (e *extent) appendAt(out []OID, ver uint64) []OID {
	base := len(out)
	out = append(out, e.order...)
	for k := len(e.undo) - 1; k >= 0 && e.undo[k].ver >= ver; k-- {
		u := e.undo[k]
		switch {
		case u.slot < 0:
			out = out[:len(out)-1]
		case base+u.slot == len(out):
			out = append(out, u.oid)
		default:
			out = append(out, out[base+u.slot])
			out[base+u.slot] = u.oid
		}
	}
	return out
}

// reclaim drops the undo records below floor, keeping the log's capacity.
func (e *extent) reclaim(floor uint64) {
	j := 0
	for j < len(e.undo) && e.undo[j].ver < floor {
		j++
	}
	if j > 0 {
		e.undo = e.undo[:copy(e.undo, e.undo[j:])]
	}
}

func (e *extent) add(oid OID) {
	e.pos[oid] = len(e.order)
	e.order = append(e.order, oid)
}

// remove swap-removes oid: the last member takes its slot. It reports whether
// oid was a member.
func (e *extent) remove(oid OID) bool {
	i, ok := e.pos[oid]
	if !ok {
		return false
	}
	last := len(e.order) - 1
	e.order[i] = e.order[last]
	e.pos[e.order[i]] = i
	e.order = e.order[:last]
	delete(e.pos, oid)
	return true
}

// Manager stores objects in a paged heap file, maintains the OID directory
// and per-type extensions, and charges all access to the simulated clock.
type Manager struct {
	Reg   *Registry
	Clock *storage.Clock

	heap    *storage.HeapFile
	rids    map[OID]storage.RID
	extents map[string]*extent
	nextOID OID
	// alloc, when non-nil, replaces the private nextOID counter: every
	// stored object draws its OID from the shared allocator instead. A
	// shard router injects one allocator into all of its engine instances
	// so the same logical plan assigns the same OIDs at every shard count
	// (references encode as varints, so OID magnitude affects record
	// length and thus CPU charges — a per-shard counter would break charge
	// parity). See internal/shard.
	alloc OIDAllocator

	// layouts is the lazily built per-type layout cache, published
	// read-only: Layout and AttrIndex run on the concurrent read path, so a
	// hit loads the map and takes no lock. A miss builds the type's layout
	// under layoutMu and publishes a copy of the map with it added; a
	// published map and its typeLayouts are never modified.
	layoutMu sync.Mutex
	layouts  atomic.Pointer[map[string]*typeLayout]

	// depFcts interns the ObjDepFct ids decoded from records (type names
	// are interned through Reg).
	depFcts internTable

	// Reads counts Get calls; used by tests and diagnostics. Updated
	// atomically: Get runs on the concurrent read path.
	Reads int64
	// Writes counts Put calls.
	Writes int64

	// MVCC snapshot-read state. st is the version state of the pool the
	// manager is built on. Writers capture pre-images of OID directory
	// entries and log extent mutations (extent.undo) under verMu before
	// mutating; pinned readers reconstruct both at their version under
	// verMu.RLock, with the record bytes served by the storage layer's page
	// overlay. Charged accessors skip verMu entirely: they run either under
	// the exclusive Database lock or with no writer present.
	st      *mvcc.State
	verMu   sync.RWMutex
	ridVers mvcc.Chains[OID, ridCapture]

	// journal, non-nil only while a durable store is attached, records every
	// directory mutation since the last checkpoint (see directory.go).
	journal *dirJournal

	// wbuf is the write buffer every record write (store, Put, edit) builds
	// its record in. It is valid until the manager's next write; writes are
	// serialized by the engine's exclusive lock, and the heap copies a
	// record into its page and never keeps it.
	wbuf []byte
	// held are the spare buffers a hooked SetAttr keeps its receiver's
	// record in until its AttrEdit stores or releases it: a stack, so that
	// hooked updates nested in another's hooks each take one.
	held [][]byte
}

// ridCapture is a pre-image of one OID-directory entry; present is false
// when the object did not exist.
type ridCapture struct {
	rid     storage.RID
	present bool
}

// NewManager returns an object manager storing objects via pool.
func NewManager(reg *Registry, pool *storage.BufferPool, clock *storage.Clock) *Manager {
	return &Manager{
		Reg:     reg,
		Clock:   clock,
		heap:    storage.NewHeapFile(pool, "objects"),
		rids:    make(map[OID]storage.RID),
		extents: make(map[string]*extent),
		nextOID: 1,
		st:      pool.Versions(),
	}
}

// OIDAllocator hands out object identifiers from a source shared by several
// managers. NextOID allocates (and consumes) the next OID; PeekOID reports
// the next OID without consuming it. Implementations must be safe for
// concurrent use; the manager itself calls them only under the engine's
// exclusive lock.
type OIDAllocator interface {
	NextOID() OID
	PeekOID() OID
}

// SetOIDAllocator replaces the manager's private OID counter with a shared
// allocator. Must be called before any object is stored (the shard router
// injects it at construction / open time, before schema definition).
func (m *Manager) SetOIDAllocator(a OIDAllocator) { m.alloc = a }

// captureRID records the pre-image of oid's directory entry for the epoch
// whose pre-state is stable. Caller holds verMu.
func (m *Manager) captureRID(oid OID, stable uint64) {
	if c := m.ridVers.Capture(oid, stable); c != nil {
		c.rid, c.present = m.rids[oid]
	}
}

// GetVersioned reads and decodes the object with the given OID as of MVCC
// version ver — charge-free, safe concurrently with a writer. It returns a
// dangling-reference error when the object did not exist at ver.
func (m *Manager) GetVersioned(oid OID, ver uint64) (*Obj, error) {
	m.verMu.RLock()
	c, ok := m.ridVers.At(oid, ver)
	if !ok {
		c.rid, c.present = m.rids[oid]
	}
	m.verMu.RUnlock()
	if !c.present {
		return nil, fmt.Errorf("%w %v", ErrDangling, oid)
	}
	rec, err := m.heap.ReadVersioned(c.rid, ver)
	if err != nil {
		return nil, err
	}
	return m.decodeObj(oid, rec)
}

// ExtensionVersioned returns the OIDs of all instances of typeName and its
// subtypes as of MVCC version ver, in the order Extension returned then. The
// slice is a copy.
func (m *Manager) ExtensionVersioned(typeName string, ver uint64) []OID {
	var out []OID
	m.verMu.RLock()
	defer m.verMu.RUnlock()
	for _, tn := range m.Reg.WithSubtypes(typeName) {
		if ext := m.extents[tn]; ext != nil {
			out = ext.appendAt(out, ver)
		}
	}
	return out
}

// ReclaimVersions drops directory captures and extent undo records no pinned
// reader can reach (tags below floor).
func (m *Manager) ReclaimVersions(floor uint64) {
	m.verMu.Lock()
	defer m.verMu.Unlock()
	m.ridVers.Reclaim(floor, nil)
	for _, ext := range m.extents {
		ext.reclaim(floor)
	}
}

// VersionCaptureCount reports the number of retained directory pre-images
// and extent undo records (audits).
func (m *Manager) VersionCaptureCount() int {
	m.verMu.RLock()
	defer m.verMu.RUnlock()
	n := m.ridVers.Len()
	for _, ext := range m.extents {
		n += len(ext.undo)
	}
	return n
}

// typeLayout is the flattened attribute layout of one type and the position
// of each attribute in it.
type typeLayout struct {
	attrs []AttrDef
	idx   map[string]int
}

// Layout returns the flattened (inheritance-resolved) attribute layout of a
// tuple type.
func (m *Manager) Layout(typeName string) []AttrDef { return m.layoutOf(typeName).attrs }

// AttrIndex returns the position of attr in the flattened layout of
// typeName, or -1.
func (m *Manager) AttrIndex(typeName, attr string) int {
	if i, ok := m.layoutOf(typeName).idx[attr]; ok {
		return i
	}
	return -1
}

// layoutOf returns typeName's layout from the published cache, building and
// publishing it on the first request.
func (m *Manager) layoutOf(typeName string) *typeLayout {
	if p := m.layouts.Load(); p != nil {
		if l, ok := (*p)[typeName]; ok {
			return l
		}
	}
	m.layoutMu.Lock()
	defer m.layoutMu.Unlock()
	var cur map[string]*typeLayout
	if p := m.layouts.Load(); p != nil {
		cur = *p
	}
	if l, ok := cur[typeName]; ok {
		return l
	}
	l := &typeLayout{attrs: m.Reg.InheritedAttrs(typeName)}
	l.idx = make(map[string]int, len(l.attrs))
	for i, a := range l.attrs {
		l.idx[a.Name] = i
	}
	next := make(map[string]*typeLayout, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[typeName] = l
	m.layouts.Store(&next)
	return l
}

// Create stores a new tuple-structured instance of typeName with the given
// attribute values (in flattened layout order) and returns its OID.
func (m *Manager) Create(typeName string, attrs []Value) (OID, error) {
	t := m.Reg.Lookup(typeName)
	if t == nil {
		return NilOID, fmt.Errorf("object: create of unknown type %q", typeName)
	}
	if t.Kind != TupleType {
		return NilOID, fmt.Errorf("object: Create on non-tuple type %q; use CreateCollection", typeName)
	}
	layout := m.Layout(typeName)
	if attrs == nil {
		attrs = make([]Value, len(layout))
		for i := range attrs {
			attrs[i] = Null()
		}
	}
	if len(attrs) != len(layout) {
		return NilOID, fmt.Errorf("object: type %q expects %d attributes, got %d", typeName, len(layout), len(attrs))
	}
	return m.store(&Obj{Type: typeName, Attrs: attrs})
}

// CreateCollection stores a new set- or list-structured instance.
func (m *Manager) CreateCollection(typeName string, elems []Value) (OID, error) {
	t := m.Reg.Lookup(typeName)
	if t == nil {
		return NilOID, fmt.Errorf("object: create of unknown type %q", typeName)
	}
	if t.Kind != SetType && t.Kind != ListType {
		return NilOID, fmt.Errorf("object: CreateCollection on non-collection type %q", typeName)
	}
	return m.store(&Obj{Type: typeName, Elems: elems})
}

func (m *Manager) store(o *Obj) (OID, error) {
	if m.alloc != nil {
		o.OID = m.alloc.NextOID()
	} else {
		o.OID = m.nextOID
		m.nextOID++
	}
	m.wbuf = appendObj(m.wbuf[:0], o)
	m.Clock.AddCPU(1 + int64(len(m.wbuf))/64)
	rid, err := m.heap.Insert(m.wbuf)
	if err != nil {
		return NilOID, err
	}
	m.verMu.Lock()
	defer m.verMu.Unlock()
	stable := m.st.Stable()
	m.captureRID(o.OID, stable)
	extentOf(m.extents, o.Type).logAdd(stable)
	m.rids[o.OID] = rid
	extentOf(m.extents, o.Type).add(o.OID)
	if m.journal != nil {
		m.journal.create(o.OID, o.Type, rid)
	}
	m.Writes++
	return o.OID, nil
}

// Exists reports whether oid denotes a live object.
func (m *Manager) Exists(oid OID) bool {
	_, ok := m.rids[oid]
	return ok
}

// view runs fn over oid's record on its pinned page, charging the access the
// way every charged object read is charged: the page Pin/Unpin,
// AddCPU(1+len/64) and one Reads increment. rec is valid only during fn.
func (m *Manager) view(oid OID, fn func(rec []byte) error) error {
	rid, ok := m.rids[oid]
	if !ok {
		return fmt.Errorf("%w %v", ErrDangling, oid)
	}
	return m.heap.View(rid, func(rec []byte) error {
		m.Clock.AddCPU(1 + int64(len(rec))/64)
		atomic.AddInt64(&m.Reads, 1)
		return fn(rec)
	})
}

// TypeOf returns the type name of oid, decoding only the record's type tag.
// It charges what Get charges: the type tag is stored with the object, so
// the record is still read.
func (m *Manager) TypeOf(oid OID) (string, error) {
	var typ string
	err := m.view(oid, func(rec []byte) error {
		d := NewDecoder(rec)
		typ = m.Reg.internName(d.RawStr())
		return d.err
	})
	return typ, err
}

// Get reads and decodes the object with the given OID.
func (m *Manager) Get(oid OID) (*Obj, error) {
	var o *Obj
	err := m.view(oid, func(rec []byte) (err error) {
		o, err = m.decodeObj(oid, rec)
		return err
	})
	return o, err
}

// ReadRecv reads the receiver view of oid, charged as Get is: the type tag
// and the ObjDepFct set, the latter appended to deps[:0], with the values
// between them skipped, not built. It fails where Get fails.
func (m *Manager) ReadRecv(oid OID, deps []string) (Recv, error) {
	var r Recv
	err := m.view(oid, func(rec []byte) (err error) {
		r, err = m.recvOf(oid, rec, deps)
		return err
	})
	return r, err
}

// recvOf reads the receiver view of oid's record rec into deps[:0].
func (m *Manager) recvOf(oid OID, rec []byte, deps []string) (Recv, error) {
	d := NewDecoder(rec)
	r := Recv{OID: oid, Type: m.Reg.internName(d.RawStr())}
	d.skipValues()
	d.skipValues()
	deps = deps[:0]
	for n := d.Count(1); n > 0 && d.err == nil; n-- {
		deps = append(deps, m.depFcts.intern(d.RawStr()))
	}
	r.DepFcts = deps
	return r, d.err
}

// ReadAttr reads attribute attr of the tuple object oid straight from its
// pinned page: it decodes the type tag, skips the attributes before attr and
// decodes only that value. It charges what Get charges.
func (m *Manager) ReadAttr(oid OID, attr string) (Value, error) {
	var v Value
	err := m.view(oid, func(rec []byte) error {
		d := NewDecoder(rec)
		typ := m.Reg.internName(d.RawStr())
		if d.err != nil {
			return d.err
		}
		i := m.AttrIndex(typ, attr)
		if i < 0 {
			return noAttr(typ, attr)
		}
		v = d.attr(i)
		return d.err
	})
	return v, err
}

// AttrOf returns attribute attr of an already decoded object, failing the
// way ReadAttr does when the object's type has no such attribute.
func (m *Manager) AttrOf(o *Obj, attr string) (Value, error) {
	i := m.AttrIndex(o.Type, attr)
	if i < 0 || i >= len(o.Attrs) {
		return Null(), noAttr(o.Type, attr)
	}
	return o.Attrs[i], nil
}

func noAttr(typ, attr string) error {
	return fmt.Errorf("object: type %q has no attribute %q", typ, attr)
}

// Put writes back a (possibly mutated) object.
func (m *Manager) Put(o *Obj) error {
	if _, ok := m.rids[o.OID]; !ok {
		return fmt.Errorf("object: put of deleted object %v", o.OID)
	}
	m.wbuf = appendObj(m.wbuf[:0], o)
	return m.write(o.OID, m.wbuf)
}

// write stores rec as the record of the live object oid and charges what
// every object write is charged: AddCPU(1+len/64), the heap update and one
// Writes increment. A record that no longer fits its page moves, and the
// directory entry follows it.
func (m *Manager) write(oid OID, rec []byte) error {
	rid := m.rids[oid]
	m.Clock.AddCPU(1 + int64(len(rec))/64)
	newRID, err := m.heap.Update(rid, rec)
	if err != nil {
		return err
	}
	if newRID != rid {
		m.verMu.Lock()
		m.captureRID(oid, m.st.Stable())
		m.rids[oid] = newRID
		m.verMu.Unlock()
		if m.journal != nil {
			m.journal.move(oid, newRID)
		}
	}
	m.Writes++
	return nil
}

// Delete removes the object from the store and its type extension.
func (m *Manager) Delete(oid OID) error {
	rid, ok := m.rids[oid]
	if !ok {
		return fmt.Errorf("object: delete of unknown object %v", oid)
	}
	typ, err := m.TypeOf(oid)
	if err != nil {
		return err
	}
	if err := m.heap.Delete(rid); err != nil {
		return err
	}
	ext := m.extents[typ]
	m.verMu.Lock()
	defer m.verMu.Unlock()
	stable := m.st.Stable()
	m.captureRID(oid, stable)
	if ext != nil {
		ext.logRemove(stable, oid)
	}
	delete(m.rids, oid)
	if ext != nil {
		ext.remove(oid)
	}
	if m.journal != nil {
		m.journal.delete(oid, typ)
	}
	return nil
}

// Extension returns the OIDs of all instances of typeName and its subtypes
// (Section 3: "the extension of type Cuboid, i.e., the set of instances of
// type Cuboid"). The slice is a copy.
func (m *Manager) Extension(typeName string) []OID {
	var out []OID
	for _, tn := range m.Reg.WithSubtypes(typeName) {
		if ext := m.extents[tn]; ext != nil {
			out = append(out, ext.order...)
		}
	}
	return out
}

// ExtensionSize returns the number of instances of typeName incl. subtypes.
func (m *Manager) ExtensionSize(typeName string) int {
	n := 0
	for _, tn := range m.Reg.WithSubtypes(typeName) {
		if ext := m.extents[tn]; ext != nil {
			n += len(ext.order)
		}
	}
	return n
}

// NumObjects returns the number of live objects.
func (m *Manager) NumObjects() int { return len(m.rids) }

// NextOID returns the OID the next created object will receive; the GMR
// manager uses the watermark to identify result objects for garbage
// collection.
func (m *Manager) NextOID() OID {
	if m.alloc != nil {
		return m.alloc.PeekOID()
	}
	return m.nextOID
}

// HeapPages returns the number of pages occupied by the object heap.
func (m *Manager) HeapPages() int { return m.heap.NumPages() }

// MaterializeValue persists a transient complex value (tuple/set/list) as
// one or more objects and returns a Ref to the root. Atomic values are
// returned unchanged. The GMR manager uses this to store complex function
// results as objects, per Section 3.1 ("references to the result objects").
func (m *Manager) MaterializeValue(v Value, typeName string) (Value, error) {
	switch v.Kind {
	case KTuple:
		tn := v.TupleType
		if tn == "" {
			tn = typeName
		}
		layout := m.Layout(tn)
		attrs := make([]Value, len(layout))
		for i := range layout {
			if i < len(v.Elems) {
				av, err := m.MaterializeValue(v.Elems[i], layout[i].Type)
				if err != nil {
					return Null(), err
				}
				attrs[i] = av
			} else {
				attrs[i] = Null()
			}
		}
		oid, err := m.Create(tn, attrs)
		if err != nil {
			return Null(), err
		}
		return Ref(oid), nil
	case KSet, KList:
		t := m.Reg.Lookup(typeName)
		elemType := ""
		if t != nil {
			elemType = t.Elem
		}
		elems := make([]Value, len(v.Elems))
		for i, e := range v.Elems {
			ev, err := m.MaterializeValue(e, elemType)
			if err != nil {
				return Null(), err
			}
			elems[i] = ev
		}
		if t == nil || (t.Kind != SetType && t.Kind != ListType) {
			// No declared collection type: keep it transient.
			return Value{Kind: v.Kind, Elems: elems}, nil
		}
		oid, err := m.CreateCollection(typeName, elems)
		if err != nil {
			return Null(), err
		}
		return Ref(oid), nil
	default:
		return v, nil
	}
}
