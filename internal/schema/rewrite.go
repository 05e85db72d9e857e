package schema

import "gomdb/internal/object"

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
// see the post-update state, Section 4.3). recv and args are lent for the
// call: an update builds them once for all of its hooks, and a hook must
// neither modify them nor keep them after it returns (copy what it keeps).
// A tracked evaluation's results are lent the same way: EvalTrackedOrdered's
// access set and order belong to the recorder of its nesting depth and are
// refilled by the next tracked evaluation at that depth.
type UpdateHook struct {
	// Name identifies the hook for diagnostics (typically the GMR name).
	Name string
	// Before is invoked with the receiver object in its pre-update state and
	// the update's arguments (the new attribute value, or the inserted/
	// removed element).
	Before func(en *Engine, recv *object.Obj, args []object.Value) error
	// After is invoked with the receiver in its post-update state.
	After func(en *Engine, recv *object.Obj, args []object.Value) error
}

type hookKey struct {
	Type string
	Op   string // "set_<A>", "insert", "remove", "create", "delete", or a public op name
}

// HookTable holds the installed update hooks per (type, operation). A hooked
// public operation is not read-only, so every installation and removal
// re-classifies the schema's calls.
type HookTable struct {
	m   map[hookKey][]*UpdateHook
	sch *Schema
}

func newHookTable(sch *Schema) *HookTable {
	return &HookTable{m: make(map[hookKey][]*UpdateHook), sch: sch}
}

// Install rewrites operation op of typeName to additionally run hook, and
// returns a function that undoes the rewrite (used when a GMR is dropped).
func (ht *HookTable) Install(typeName, op string, hook *UpdateHook) func() {
	k := hookKey{typeName, op}
	ht.m[k] = append(ht.m[k], hook)
	ht.sch.classifyOp(op)
	return func() {
		defer ht.sch.classifyOp(op)
		hooks := ht.m[k]
		for i, h := range hooks {
			if h == hook {
				ht.m[k] = append(hooks[:i], hooks[i+1:]...)
				break
			}
		}
		if len(ht.m[k]) == 0 {
			delete(ht.m, k)
		}
	}
}

func (ht *HookTable) lookup(typeName, op string) []*UpdateHook {
	return ht.m[hookKey{typeName, op}]
}

// Installed reports whether any hook rewrites (typeName, op); tests use it
// to verify that uninvolved types remain unmodified.
func (ht *HookTable) Installed(typeName, op string) bool {
	return len(ht.m[hookKey{typeName, op}]) > 0
}

// Count returns the total number of installed hooks.
func (ht *HookTable) Count() int {
	n := 0
	for _, hs := range ht.m {
		n += len(hs)
	}
	return n
}
