package object

import (
	"fmt"
	"sort"
)

// TypeKind enumerates the structural descriptions a GOM type may have
// (Section 2: "The structural description of a new object type can be either
// a tuple, a set, or a list"), plus the built-in atomic types.
type TypeKind uint8

const (
	// Atomic covers the built-in value types float, int, string, bool.
	Atomic TypeKind = iota
	// TupleType is a tuple-structured object type: [a1:t1, ..., an:tn].
	TupleType
	// SetType is a set-structured object type: {t}.
	SetType
	// ListType is a list-structured object type: <t>.
	ListType
)

func (k TypeKind) String() string {
	switch k {
	case Atomic:
		return "atomic"
	case TupleType:
		return "tuple"
	case SetType:
		return "set"
	case ListType:
		return "list"
	}
	return fmt.Sprintf("typekind(%d)", uint8(k))
}

// AttrDef describes one attribute of a tuple-structured type. Public
// attributes have their built-in A / set_A operations in the public clause;
// strictly encapsulated types keep them private.
type AttrDef struct {
	Name   string
	Type   string
	Public bool
}

// Type is a type descriptor. Operation bodies are attached at the schema
// layer; the object layer only needs structure.
type Type struct {
	Name  string
	Kind  TypeKind
	Super string // name of the supertype; "" means ANY

	// Attrs describes the tuple attributes (TupleType only).
	Attrs []AttrDef
	// Elem names the element type (SetType/ListType only).
	Elem string

	// StrictEncapsulated marks the type as strictly encapsulated in the
	// Section 5.3 sense: its representation (including all subobjects) is
	// reachable only through public operations, so only those operations
	// need invalidation hooks.
	StrictEncapsulated bool

	attrIdx map[string]int
}

// NewTupleType constructs a tuple-structured type descriptor.
func NewTupleType(name string, attrs ...AttrDef) *Type {
	t := &Type{Name: name, Kind: TupleType, Attrs: attrs}
	t.buildIndex()
	return t
}

// NewSetType constructs a set-structured type descriptor with the given
// element type.
func NewSetType(name, elem string) *Type {
	return &Type{Name: name, Kind: SetType, Elem: elem}
}

// NewListType constructs a list-structured type descriptor.
func NewListType(name, elem string) *Type {
	return &Type{Name: name, Kind: ListType, Elem: elem}
}

func (t *Type) buildIndex() {
	t.attrIdx = make(map[string]int, len(t.Attrs))
	for i, a := range t.Attrs {
		t.attrIdx[a.Name] = i
	}
}

// AttrIndex returns the position of the named attribute, or -1.
func (t *Type) AttrIndex(name string) int {
	if t.attrIdx == nil {
		t.buildIndex()
	}
	if i, ok := t.attrIdx[name]; ok {
		return i
	}
	return -1
}

// AttrType returns the declared type of the named attribute, or "".
func (t *Type) AttrType(name string) string {
	i := t.AttrIndex(name)
	if i < 0 {
		return ""
	}
	return t.Attrs[i].Type
}

// IsAtomicName reports whether a type name denotes one of the built-in
// atomic value types.
func IsAtomicName(name string) bool {
	switch name {
	case "float", "int", "string", "bool", "void", "decimal", "char":
		return true
	}
	return false
}

// Registry maps type names to descriptors and answers subtype questions.
type Registry struct {
	types map[string]*Type
	// subs maps a type name to its direct subtypes.
	subs map[string][]string
}

// NewRegistry returns an empty type registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[string]*Type), subs: make(map[string][]string)}
}

// Register adds a type descriptor. Registering a duplicate name is an error.
func (r *Registry) Register(t *Type) error {
	if _, dup := r.types[t.Name]; dup {
		return fmt.Errorf("object: duplicate type %q", t.Name)
	}
	if IsAtomicName(t.Name) {
		return fmt.Errorf("object: type %q collides with a built-in atomic type", t.Name)
	}
	if t.Super != "" {
		sup, ok := r.types[t.Super]
		if !ok {
			return fmt.Errorf("object: type %q declares unknown supertype %q", t.Name, t.Super)
		}
		if sup.Kind != t.Kind {
			return fmt.Errorf("object: type %q (%v) cannot extend %q (%v)", t.Name, t.Kind, sup.Name, sup.Kind)
		}
		r.subs[t.Super] = append(r.subs[t.Super], t.Name)
	}
	r.types[t.Name] = t
	return nil
}

// Lookup returns the descriptor for name, or nil.
func (r *Registry) Lookup(name string) *Type { return r.types[name] }

// internName returns the registered type name spelled by b, sharing the
// registry's string, or a new string when no such type is registered. The
// object decoder uses it for type tags, which then cost no allocation.
func (r *Registry) internName(b []byte) string {
	if t := r.types[string(b)]; t != nil {
		return t.Name
	}
	return string(b)
}

// MustLookup returns the descriptor for name or panics; for internal use
// where the schema has already validated the name.
func (r *Registry) MustLookup(name string) *Type {
	t := r.types[name]
	if t == nil {
		panic(fmt.Sprintf("object: unknown type %q", name))
	}
	return t
}

// Types returns all registered type names in sorted order, so callers that
// iterate the schema (hooks installation, garbage collection, tooling) do so
// deterministically.
func (r *Registry) Types() []string {
	out := make([]string, 0, len(r.types))
	for n := range r.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsSubtypeOf reports whether sub = sup or sub is a (transitive) subtype of
// sup. Atomic names are only subtypes of themselves.
func (r *Registry) IsSubtypeOf(sub, sup string) bool {
	if sub == sup || sup == "ANY" {
		return true
	}
	t := r.types[sub]
	for t != nil && t.Super != "" {
		if t.Super == sup {
			return true
		}
		t = r.types[t.Super]
	}
	return false
}

// HasSubtypes reports whether any type names name as its supertype. When
// false, the declared type of an expression is also the dynamic type of
// every value it denotes, so operation dispatch can be resolved statically.
func (r *Registry) HasSubtypes(name string) bool { return len(r.subs[name]) > 0 }

// WithSubtypes returns name followed by all of its transitive subtypes.
func (r *Registry) WithSubtypes(name string) []string {
	out := []string{name}
	for i := 0; i < len(out); i++ {
		out = append(out, r.subs[out[i]]...)
	}
	return out
}

// InheritedAttrs returns the full attribute list of a tuple type, with
// inherited attributes first — the physical layout of instances. The object
// manager stores instances with this flattened layout.
func (r *Registry) InheritedAttrs(name string) []AttrDef {
	t := r.types[name]
	if t == nil || t.Kind != TupleType {
		return nil
	}
	var chain []*Type
	for cur := t; cur != nil; cur = r.types[cur.Super] {
		chain = append(chain, cur)
		if cur.Super == "" {
			break
		}
	}
	var out []AttrDef
	for i := len(chain) - 1; i >= 0; i-- {
		out = append(out, chain[i].Attrs...)
	}
	return out
}
