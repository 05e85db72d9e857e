package schema

import (
	"slices"

	"gomdb/internal/object"
)

// This file models the schema rewrite of Section 4.3. In GOM the elementary
// update operations (t.set_A, t.insert, t.remove, t.create, t.delete) of
// every type involved in a materialization are modified and recompiled so
// that each invocation also notifies the GMR manager. Here the "recompiled"
// operation is the hook pipeline attached to the (type, operation) pair:
// installing a hook is the rewrite, removing it restores the original
// operation, and types without hooks run the unmodified fast path — the
// remainder of the object system stays invariant, exactly the modularity
// argument the paper makes.

// UpdateHook is one notification inserted into a rewritten update operation.
// Before runs before the update is applied (compensating actions must see
// the pre-update state, Section 5.4); After runs after it (invalidation must
// see the post-update state, Section 4.3). Like the paper's rewritten
// operation, a hook is told which object changed and which materialized
// functions depend on it, not the object's state: recv is the receiver's
// view, read from its record. recv's ObjDepFct set and args are lent for the
// call: they live in the engine's buffers of the update's nesting level, and
// a hook must neither modify them nor keep them after it returns (copy what
// it keeps). A tracked evaluation's results are lent the same way:
// EvalTrackedOrdered's access set and order belong to the recorder of its
// nesting depth and are refilled by the next tracked evaluation at that
// depth.
type UpdateHook struct {
	// Name identifies the hook for diagnostics (typically the GMR name).
	Name string
	// Before is invoked with the receiver's view in its pre-update state
	// and the update's arguments (the new attribute value, or the
	// inserted/removed element).
	Before func(en *Engine, recv object.Recv, args []object.Value) error
	// After is invoked after the update with the receiver's view. The
	// ObjDepFct set of a set_A's view is the one read before the update,
	// which the update does not change; a public operation's receiver is
	// read again after its body, an insert's or remove's is the rewritten
	// collection's.
	After func(en *Engine, recv object.Recv, args []object.Value) error
}

type hookKey struct {
	Type string
	Op   string // "set_<A>", "insert", "remove", "create", "delete", or a public op name
}

// HookTable holds the update hooks, each installed once on its declared
// (type, operation). Like any operation, a rewritten one is inherited: an
// update of an instance runs the hooks installed on its type and on every
// supertype, in installation order. The table resolves that once per
// installation, removal and type definition — all under the facade's reader
// barrier — so an update finds its hooks with one map probe. A hooked public
// operation is not read-only, so every installation and removal also
// re-classifies the schema's calls.
type HookTable struct {
	installed []installation
	// m maps (type, operation) to the hooks an update of an instance of the
	// type runs: installed's hooks on the type's supertype chain.
	m   map[hookKey][]*UpdateHook
	sch *Schema
}

type installation struct {
	key  hookKey
	hook *UpdateHook
}

// Install rewrites operation op of typeName, and of its subtypes, to
// additionally run hook, and returns a function that undoes the rewrite
// (used when a GMR is dropped).
func (ht *HookTable) Install(typeName, op string, hook *UpdateHook) func() {
	in := installation{hookKey{typeName, op}, hook}
	ht.installed = append(ht.installed, in)
	ht.resolve()
	ht.sch.classifyOp(op)
	return func() {
		if i := slices.Index(ht.installed, in); i >= 0 {
			ht.installed = slices.Delete(ht.installed, i, i+1)
		}
		ht.resolve()
		ht.sch.classifyOp(op)
	}
}

// resolve rebuilds m from the installations and the types' supertype chains.
func (ht *HookTable) resolve() {
	m := make(map[hookKey][]*UpdateHook, len(ht.m))
	for _, in := range ht.installed {
		for _, te := range ht.sch.ids.types {
			if slices.Contains(te.chain, in.key.Type) {
				k := hookKey{te.name, in.key.Op}
				m[k] = append(m[k], in.hook)
			}
		}
	}
	ht.m = m
}

func (ht *HookTable) lookup(typeName, op string) []*UpdateHook {
	return ht.m[hookKey{typeName, op}]
}

// Installed reports whether any hook rewrites (typeName, op), its own or a
// supertype's; tests use it to verify that uninvolved types remain
// unmodified.
func (ht *HookTable) Installed(typeName, op string) bool {
	return len(ht.m[hookKey{typeName, op}]) > 0
}

// Count returns the number of installations: a hook counts once, on its
// declared type, however many subtypes inherit it.
func (ht *HookTable) Count() int { return len(ht.installed) }
