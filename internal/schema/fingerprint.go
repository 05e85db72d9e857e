package schema

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Fingerprint returns a stable hash of the schema's structure: types (with
// attribute layouts, supertypes, element types, encapsulation), public
// clauses, operation and free-function signatures, and InvalidatedFct
// declarations.
//
// The durable checkpoint stores the fingerprint, and OpenAt compares it
// against the schema the application's DefineSchema callback rebuilt: GOMpl
// function bodies are Go ASTs and closures, so the schema itself is code, not
// data — what is persisted is only the check that the code reopening the base
// is congruent with the code that wrote it. A mismatch fails recovery rather
// than silently decoding records against the wrong layout.
//
// Every durable commit stores it, so the value is cached: each mutator of
// the hashed structure drops the cache (changed).
func (s *Schema) Fingerprint() uint64 {
	if !s.fpValid {
		s.fp, s.fpValid = s.fingerprint(), true
	}
	return s.fp
}

// changed drops the cached fingerprint; every schema mutator calls it.
func (s *Schema) changed() { s.fpValid = false }

// fingerprint computes the fingerprint anew.
func (s *Schema) fingerprint() uint64 {
	var b strings.Builder
	for _, tn := range s.Reg.Types() {
		t := s.Reg.Lookup(tn)
		fmt.Fprintf(&b, "type %s kind=%d super=%q elem=%q strict=%t\n",
			t.Name, t.Kind, t.Super, t.Elem, t.StrictEncapsulated)
		for _, a := range t.Attrs {
			fmt.Fprintf(&b, "  attr %s:%s public=%t\n", a.Name, a.Type, a.Public)
		}
		for _, n := range sortedKeys(s.public[tn]) {
			fmt.Fprintf(&b, "  public %s\n", n)
		}
		ops := make([]string, 0, len(s.ops[tn]))
		for op := range s.ops[tn] {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			fn := s.ops[tn][op]
			fmt.Fprintf(&b, "  op %s(%s):%s sef=%t\n",
				op, strings.Join(fn.ParamTypes(), ","), fn.ResultType, fn.SideEffectFree)
		}
		byOp := s.invalidatedFct[tn]
		invOps := make([]string, 0, len(byOp))
		for op := range byOp {
			invOps = append(invOps, op)
		}
		sort.Strings(invOps)
		for _, op := range invOps {
			fmt.Fprintf(&b, "  invalidatedFct %s -> %s\n",
				op, strings.Join(sortedKeys(byOp[op]), ","))
		}
	}
	free := make([]string, 0, len(s.free))
	for n := range s.free {
		free = append(free, n)
	}
	sort.Strings(free)
	for _, n := range free {
		fn := s.free[n]
		fmt.Fprintf(&b, "func %s(%s):%s sef=%t\n",
			n, strings.Join(fn.ParamTypes(), ","), fn.ResultType, fn.SideEffectFree)
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return h.Sum64()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
