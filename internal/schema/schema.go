// Package schema implements GOM type definition frames and the execution
// engine for type-associated operations. It owns the two mechanisms the
// GMR manager plugs into:
//
//   - the schema rewrite of Section 4.3: elementary update operations
//     (set_A, insert, remove, create, delete) and — for strictly
//     encapsulated types — public updating operations carry hook pipelines
//     that are rebuilt ("recompiled") whenever a GMR is created or dropped,
//     so only involved types pay any overhead; and
//   - the evaluation of GOMpl bodies with optional access tracking, which
//     feeds the Reverse Reference Relation during (re)materialization.
package schema

import (
	"fmt"
	"strings"

	"gomdb/internal/lang"
	"gomdb/internal/object"
)

// Schema holds the type definitions and declared functions of an object
// base.
type Schema struct {
	Reg *object.Registry

	// ops maps typeName -> opName -> function for type-associated
	// operations (receiver is Params[0]).
	ops map[string]map[string]*lang.Function
	// free maps free-function names to declarations.
	free map[string]*lang.Function
	// public maps typeName -> exported member names (operations and the
	// built-in A / set_A attribute operations listed in the public clause).
	public map[string]map[string]bool
	// invalidatedFct holds the data-type implementor's InvalidatedFct sets
	// (Definition 5.3): typeName -> public op -> materialized function ids
	// whose results the op may affect. Ops of strictly encapsulated types
	// that do not appear here are declared result-invariant (e.g. rotate
	// for volume).
	invalidatedFct map[string]map[string]map[string]bool

	// ids are the dense-id tables (ids.go); hooks is the schema rewrite's
	// hook table, whose installations feed the read-only classification.
	ids   idTables
	gen   uint64 // Generation
	hooks *HookTable
	// opDefined, when set, is told of every operation DefineOp attaches
	// (the GMR manager registers subtype overrides of materialized
	// operations with it).
	opDefined func(typeName, opName string, id FuncID) error

	// fp caches Fingerprint while fpValid; changed drops it.
	fp      uint64
	fpValid bool
}

// New returns an empty schema.
func New() *Schema {
	s := &Schema{
		Reg:            object.NewRegistry(),
		ops:            make(map[string]map[string]*lang.Function),
		free:           make(map[string]*lang.Function),
		public:         make(map[string]map[string]bool),
		invalidatedFct: make(map[string]map[string]map[string]bool),
		ids:            newIDTables(),
	}
	s.hooks = &HookTable{sch: s}
	return s
}

// DefineType registers a type with its public clause. Attribute operations
// A and set_A are exported if the attribute is listed in publicNames or
// marked Public in its AttrDef. A subtype inherits the update hooks of its
// supertypes, also those installed before it was defined.
func (s *Schema) DefineType(t *object.Type, publicNames ...string) error {
	if err := s.Reg.Register(t); err != nil {
		return err
	}
	pub := make(map[string]bool)
	for _, n := range publicNames {
		pub[n] = true
	}
	for _, a := range t.Attrs {
		if a.Public {
			pub[a.Name] = true
			pub["set_"+a.Name] = true
		}
	}
	s.public[t.Name] = pub
	s.changed()
	s.reindex()
	return nil
}

// DefineOp attaches a type-associated operation. The function's first
// parameter is the receiver and must be declared with the type's name (or a
// supertype for inherited redefinitions).
func (s *Schema) DefineOp(typeName string, opName string, fn *lang.Function) error {
	if s.Reg.Lookup(typeName) == nil {
		return fmt.Errorf("schema: operation %s on unknown type %q", opName, typeName)
	}
	if len(fn.Params) == 0 {
		return fmt.Errorf("schema: operation %s.%s needs a receiver parameter", typeName, opName)
	}
	if fn.Name == "" {
		fn.Name = typeName + "." + opName
	}
	m := s.ops[typeName]
	if m == nil {
		m = make(map[string]*lang.Function)
		s.ops[typeName] = m
	}
	if _, dup := m[opName]; dup {
		return fmt.Errorf("schema: duplicate operation %s.%s", typeName, opName)
	}
	m[opName] = fn
	s.changed()
	id := s.addFunc(fn)
	s.reindex()
	if s.opDefined != nil {
		return s.opDefined(typeName, opName, id)
	}
	return nil
}

// OnDefineOp registers the function DefineOp tells of every operation it
// attaches, after the id tables include it; an error it returns is
// DefineOp's.
func (s *Schema) OnDefineOp(fn func(typeName, opName string, id FuncID) error) {
	s.opDefined = fn
}

// DefineFunc registers a free function (e.g. a multi-argument function such
// as distance: Cuboid, Robot -> float).
func (s *Schema) DefineFunc(fn *lang.Function) error {
	if fn.Name == "" || strings.Contains(fn.Name, ".") {
		return fmt.Errorf("schema: free function needs an unqualified name, got %q", fn.Name)
	}
	if _, dup := s.free[fn.Name]; dup {
		return fmt.Errorf("schema: duplicate function %q", fn.Name)
	}
	s.free[fn.Name] = fn
	s.changed()
	s.addFunc(fn)
	s.reindex()
	return nil
}

// MakePublic adds names to a type's public clause after definition.
func (s *Schema) MakePublic(typeName string, names ...string) {
	pub := s.public[typeName]
	if pub == nil {
		pub = make(map[string]bool)
		s.public[typeName] = pub
	}
	for _, n := range names {
		pub[n] = true
	}
	s.changed()
}

// IsPublic reports whether member name is in typeName's public clause
// (searching supertypes for inherited operations).
func (s *Schema) IsPublic(typeName, name string) bool {
	for tn := typeName; tn != ""; {
		if s.public[tn][name] {
			return true
		}
		t := s.Reg.Lookup(tn)
		if t == nil {
			break
		}
		tn = t.Super
	}
	return false
}

// DeclareInvalidatedFct records the implementor-supplied InvalidatedFct set
// for a public operation of a strictly encapsulated type (Definition 5.3).
func (s *Schema) DeclareInvalidatedFct(typeName, opName string, materializedFns ...string) {
	byOp := s.invalidatedFct[typeName]
	if byOp == nil {
		byOp = make(map[string]map[string]bool)
		s.invalidatedFct[typeName] = byOp
	}
	set := byOp[opName]
	if set == nil {
		set = make(map[string]bool)
		byOp[opName] = set
	}
	for _, f := range materializedFns {
		set[f] = true
	}
	s.changed()
}

// InvalidatedFct returns the declared InvalidatedFct(typeName.opName) set
// and whether any declaration exists for the operation.
func (s *Schema) InvalidatedFct(typeName, opName string) (map[string]bool, bool) {
	set, ok := s.invalidatedFct[typeName][opName]
	return set, ok
}

// HasInvalidatedFctDecl reports whether the type has any InvalidatedFct
// declarations at all; used to decide whether information hiding can be
// exploited for it.
func (s *Schema) HasInvalidatedFctDecl(typeName string) bool {
	return len(s.invalidatedFct[typeName]) > 0
}

// ResolveOp resolves opName against typeName's operation table, walking the
// supertype chain (single inheritance with substitutability).
func (s *Schema) ResolveOp(typeName, opName string) (*lang.Function, bool) {
	for tn := typeName; tn != ""; {
		if fn, ok := s.ops[tn][opName]; ok {
			return fn, true
		}
		t := s.Reg.Lookup(tn)
		if t == nil {
			break
		}
		tn = t.Super
	}
	return nil, false
}

// ResolveStatic implements lang.FuncResolver: it resolves a name as written
// in a Call node ("Type.op" or free name).
func (s *Schema) ResolveStatic(fn string) (*lang.Function, bool) {
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		return s.ResolveOp(fn[:i], fn[i+1:])
	}
	f, ok := s.free[fn]
	return f, ok
}

// LookupFunction resolves a possibly qualified function name like
// ResolveStatic, returning an error with context on failure.
func (s *Schema) LookupFunction(fn string) (*lang.Function, error) {
	f, ok := s.ResolveStatic(fn)
	if !ok {
		return nil, fmt.Errorf("schema: unknown function %q", fn)
	}
	return f, nil
}

// AttrType implements lang.TypeInfo over the flattened (inherited) layout.
func (s *Schema) AttrType(typeName, attr string) (string, bool) {
	for _, a := range s.Reg.InheritedAttrs(typeName) {
		if a.Name == attr {
			return a.Type, true
		}
	}
	return "", false
}

// ElemType implements lang.TypeInfo.
func (s *Schema) ElemType(typeName string) (string, bool) {
	t := s.Reg.Lookup(typeName)
	if t == nil || (t.Kind != object.SetType && t.Kind != object.ListType) {
		return "", false
	}
	return t.Elem, true
}

// IsCollection implements lang.TypeKinder.
func (s *Schema) IsCollection(typeName string) bool {
	t := s.Reg.Lookup(typeName)
	return t != nil && (t.Kind == object.SetType || t.Kind == object.ListType)
}

// IsKnownType implements lang.TypeKinder.
func (s *Schema) IsKnownType(typeName string) bool {
	return object.IsAtomicName(typeName) || s.Reg.Lookup(typeName) != nil
}

// Binder returns a GOMpl binder resolving against this schema.
func (s *Schema) Binder() *lang.Binder {
	return &lang.Binder{Types: s, Funcs: s, Kinds: s}
}

// DefineOpSrc parses and type-checks a textual GOMpl definition and
// attaches it as an operation of typeName — the concrete syntax of the
// paper's type definition frames:
//
//	define volume: float is
//	    return self.length * self.width * self.height
//	end
//
// The receiver parameter self: typeName is implicit. sideEffectFree marks
// the function materializable (Definition 3.1).
func (s *Schema) DefineOpSrc(typeName, src string, sideEffectFree bool) (*lang.Function, error) {
	pf, err := lang.ParseDefine(src)
	if err != nil {
		return nil, err
	}
	if pf.RecvType != "" && pf.RecvType != typeName {
		return nil, fmt.Errorf("schema: define %s.%s attached to type %q", pf.RecvType, pf.Name, typeName)
	}
	fn, err := s.Binder().Bind(pf, typeName, sideEffectFree)
	if err != nil {
		return nil, err
	}
	if err := s.DefineOp(typeName, pf.Name, fn); err != nil {
		return nil, err
	}
	return fn, nil
}

// DefineFuncSrc parses, type-checks, and registers a textual free-function
// definition (all parameters explicit).
func (s *Schema) DefineFuncSrc(src string, sideEffectFree bool) (*lang.Function, error) {
	pf, err := lang.ParseDefine(src)
	if err != nil {
		return nil, err
	}
	if pf.RecvType != "" {
		fn, err := s.Binder().Bind(pf, pf.RecvType, sideEffectFree)
		if err != nil {
			return nil, err
		}
		if err := s.DefineOp(pf.RecvType, pf.Name, fn); err != nil {
			return nil, err
		}
		return fn, nil
	}
	fn, err := s.Binder().Bind(pf, "", sideEffectFree)
	if err != nil {
		return nil, err
	}
	if err := s.DefineFunc(fn); err != nil {
		return nil, err
	}
	return fn, nil
}

// Functions returns all declared functions (operations and free functions),
// for diagnostics and documentation tools.
func (s *Schema) Functions() []*lang.Function {
	var out []*lang.Function
	for _, byOp := range s.ops {
		for _, fn := range byOp {
			out = append(out, fn)
		}
	}
	for _, fn := range s.free {
		out = append(out, fn)
	}
	return out
}

// OpNames returns the operation names defined directly on typeName.
func (s *Schema) OpNames(typeName string) []string {
	var out []string
	for n := range s.ops[typeName] {
		out = append(out, n)
	}
	return out
}
