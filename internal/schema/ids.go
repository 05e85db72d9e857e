package schema

import (
	"fmt"
	"strings"

	"gomdb/internal/lang"
	"gomdb/internal/object"
)

// Dense ids: the schema numbers its types, operation names and functions so
// that a call, once its name is resolved, dispatches by index — the
// defunctionalized form of a call. The tables are rebuilt where their inputs
// change (DefineType, DefineOp, DefineFunc, and hook installation for the
// read-only classification and the resolved hooks), which the Database
// facade runs under its reader barrier, so no concurrent reader ever sees a
// table move.

// FuncID densely numbers the declared functions — every operation attached
// with DefineOp and every free function — in definition order. Ids are never
// reused; the GMR manager indexes its column table by them.
type FuncID int32

// NoFunc is the FuncID of an operation a type does not have.
const NoFunc FuncID = -1

// Callee is a call name resolved to dense ids: the declared type and the
// operation slot of "Type.op", or the function of a free-function name.
// Resolve turns it into the function a call runs.
type Callee struct {
	typ  int32  // declared type id; -1 for a free function
	slot int32  // operation slot of a qualified call
	fn   FuncID // the free function, when typ < 0
}

// typeEntry is one type of the id tables.
type typeEntry struct {
	name string
	// chain is the type followed by its supertypes, nearest first: what an
	// update hook or a compensating action declared on any of them applies
	// to.
	chain []string
	// subtypes: the type has subtypes, so a call declared on it dispatches
	// on its receiver's dynamic type (which costs an object read).
	subtypes bool
	// disp maps an operation slot to the function instances of this type
	// run: their own definition, an inherited one, or NoFunc.
	disp []FuncID
	// readOnly maps an operation slot to the read-only classification of a
	// call declared on this type: every function an instance of the type
	// or of a subtype runs is side-effect free and carries no update hook.
	readOnly []bool
}

// idTables are the schema's dense-id tables.
type idTables struct {
	funcs  []*lang.Function // by FuncID
	idOf   map[*lang.Function]FuncID
	byName map[string]FuncID // function name -> id (RRR tuples name functions)

	types  []typeEntry
	typeOf map[string]int32

	slots  []string // operation names by slot
	slotOf map[string]int32

	// callees holds every name a call can resolve: "Type.op" for every
	// type and every operation defined on it, a supertype or a subtype,
	// and every free function's name.
	callees map[string]Callee
}

func newIDTables() idTables {
	return idTables{
		idOf:    make(map[*lang.Function]FuncID),
		byName:  make(map[string]FuncID),
		typeOf:  make(map[string]int32),
		slotOf:  make(map[string]int32),
		callees: make(map[string]Callee),
	}
}

// addFunc numbers fn (once; a function attached twice keeps its id).
func (s *Schema) addFunc(fn *lang.Function) FuncID {
	if id, ok := s.ids.idOf[fn]; ok {
		return id
	}
	id := FuncID(len(s.ids.funcs))
	s.ids.funcs = append(s.ids.funcs, fn)
	s.ids.idOf[fn] = id
	if _, dup := s.ids.byName[fn.Name]; !dup {
		s.ids.byName[fn.Name] = id
	}
	return id
}

// reindex rebuilds the type, slot and callee tables from the registry and
// the operation maps, and starts a new generation. Ids already handed out
// keep their values: new types and operation names are appended.
func (s *Schema) reindex() {
	s.gen++
	t := &s.ids
	known := len(t.types)
	for _, name := range s.Reg.Types() {
		if _, ok := t.typeOf[name]; !ok {
			var chain []string
			for ty := s.Reg.Lookup(name); ty != nil; ty = s.Reg.Lookup(ty.Super) {
				chain = append(chain, ty.Name)
			}
			t.typeOf[name] = int32(len(t.types))
			t.types = append(t.types, typeEntry{name: name, chain: chain})
		}
	}
	if len(t.types) > known {
		s.hooks.resolve()
	}
	for _, tn := range s.Reg.Types() {
		for op := range s.ops[tn] {
			if _, ok := t.slotOf[op]; !ok {
				t.slotOf[op] = int32(len(t.slots))
				t.slots = append(t.slots, op)
			}
		}
	}
	for i := range t.types {
		te := &t.types[i]
		te.subtypes = s.Reg.HasSubtypes(te.name)
		te.disp = make([]FuncID, len(t.slots))
		for slot, op := range t.slots {
			te.disp[slot] = NoFunc
			if fn, ok := s.ResolveOp(te.name, op); ok {
				te.disp[slot] = t.idOf[fn]
			}
		}
	}
	for i := range t.types {
		te := &t.types[i]
		for slot, op := range t.slots {
			if _, ok := t.callees[te.name+"."+op]; ok {
				continue
			}
			for _, sub := range s.Reg.WithSubtypes(te.name) {
				if t.types[t.typeOf[sub]].disp[slot] != NoFunc {
					t.callees[te.name+"."+op] = Callee{typ: int32(i), slot: int32(slot), fn: NoFunc}
					break
				}
			}
		}
	}
	for name, fn := range s.free {
		t.callees[name] = Callee{typ: -1, fn: t.idOf[fn]}
	}
	s.classify()
}

// classify recomputes the read-only classification of every (type,
// operation) pair; reindex runs it.
func (s *Schema) classify() {
	for i := range s.ids.types {
		s.ids.types[i].readOnly = make([]bool, len(s.ids.slots))
	}
	for slot := range s.ids.slots {
		s.classifySlot(slot)
	}
}

// classifyOp recomputes the read-only classification of operation op on
// every type; every hook installation and removal runs it.
func (s *Schema) classifyOp(op string) {
	if slot, ok := s.ids.slotOf[op]; ok {
		s.classifySlot(int(slot))
	}
}

func (s *Schema) classifySlot(slot int) {
	t := &s.ids
	op := t.slots[slot]
	for i := range t.types {
		te := &t.types[i]
		ro := true
		for _, sub := range s.Reg.WithSubtypes(te.name) {
			id := t.types[t.typeOf[sub]].disp[slot]
			if id == NoFunc || !t.funcs[id].SideEffectFree || s.hooks.Installed(sub, op) {
				ro = false
				break
			}
		}
		te.readOnly[slot] = ro
	}
}

// Generation numbers the schema's definitions: every DefineType, DefineOp
// and DefineFunc starts a new one. What was resolved against the schema
// (a lowered GOMql statement) holds while the generation does.
func (s *Schema) Generation() uint64 { return s.gen }

// Chain returns typeName followed by its supertypes, nearest first; nil for
// an unknown type.
func (s *Schema) Chain(typeName string) []string {
	if ti, ok := s.ids.typeOf[typeName]; ok {
		return s.ids.types[ti].chain
	}
	return nil
}

// Func returns the function with id id.
func (s *Schema) Func(id FuncID) *lang.Function { return s.ids.funcs[id] }

// FuncIDOf returns the id of a declared function.
func (s *Schema) FuncIDOf(fn *lang.Function) (FuncID, bool) {
	id, ok := s.ids.idOf[fn]
	return id, ok
}

// FuncByName returns the id of the declared function named name (its
// qualified Function.Name, as RRR tuples record it).
func (s *Schema) FuncByName(name string) (FuncID, bool) {
	id, ok := s.ids.byName[name]
	return id, ok
}

// Callee resolves a call name as written ("Type.op" or a free function's
// name) to dense ids: the one name probe of a call.
func (s *Schema) Callee(name string) (Callee, bool) {
	c, ok := s.ids.callees[name]
	return c, ok
}

// CalleeReadOnly reports whether a call of c can be proven free of side
// effects from schema metadata alone: a free function must be declared
// side-effect free; an operation must be side-effect free and unhooked in
// every override a dynamic dispatch can reach.
func (s *Schema) CalleeReadOnly(c Callee) bool {
	if c.typ < 0 {
		return s.ids.funcs[c.fn].SideEffectFree
	}
	return s.ids.types[c.typ].readOnly[c.slot]
}

// OpReadOnly is CalleeReadOnly for operation op declared on typeName; false
// when the type does not have the operation.
func (s *Schema) OpReadOnly(typeName, op string) bool {
	ti, ok := s.ids.typeOf[typeName]
	if !ok {
		return false
	}
	slot, ok := s.ids.slotOf[op]
	return ok && s.ids.types[ti].readOnly[slot]
}

// Resolve determines the function a call of c with args runs, and the type
// it dispatches on (-1 for a free function). A call declared on a type with
// subtypes dispatches on the dynamic type of a reference receiver, read
// through the engine (a charged object read); otherwise dispatch is static —
// in particular, invoking a materialized function then reaches the GMR
// without touching the argument object, as the paper's rewrite into a
// forward query implies. Resolve only reads args.
func (en *Engine) Resolve(c Callee, args []object.Value) (FuncID, int32, error) {
	if c.typ < 0 {
		return c.fn, -1, nil
	}
	t := &en.Sch.ids
	dt := c.typ
	if len(args) > 0 && args[0].Kind == object.KRef && t.types[dt].subtypes {
		typ, err := en.TypeOf(args[0].R)
		if err != nil {
			return NoFunc, -1, err
		}
		ti, ok := t.typeOf[typ]
		if !ok {
			return NoFunc, -1, fmt.Errorf("schema: no operation %q on type %q", t.slots[c.slot], typ)
		}
		dt = ti
	}
	if id := t.types[dt].disp[c.slot]; id != NoFunc {
		return id, dt, nil
	}
	return NoFunc, -1, fmt.Errorf("schema: no operation %q on type %q", t.slots[c.slot], t.types[dt].name)
}

// Unresolved returns the error of a call whose name the callee table does
// not hold. It runs the name-based resolution the table replaces, so a
// failing call pays the same charged receiver read it always did. It only
// reads args.
func (en *Engine) Unresolved(name string, args []object.Value) error {
	dot := strings.IndexByte(name, '.')
	if dot < 0 {
		return fmt.Errorf("schema: unknown function %q", name)
	}
	declType, opName := name[:dot], name[dot+1:]
	dispatchType := declType
	if len(args) > 0 && args[0].Kind == object.KRef && en.Sch.Reg.HasSubtypes(declType) {
		typ, err := en.TypeOf(args[0].R)
		if err != nil {
			return err
		}
		dispatchType = typ
	}
	return fmt.Errorf("schema: no operation %q on type %q", opName, dispatchType)
}
