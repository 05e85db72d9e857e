package core

import (
	"fmt"
	"slices"
	"sort"

	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// This file performs the schema rewrite for one GMR: deciding, per hook
// mode, which update operations of which types must notify the GMR manager,
// and installing the corresponding hook closures. The captured function sets
// play the role of the set-valued constants the paper compiles into the
// modified operations ("the set SchemaDepFct(t.set_A) is inserted as a
// set-valued constant into the body of the modified update operation").

type opKey struct {
	Type string
	Op   string
}

// hookPlan is the computed rewrite plan for one GMR.
type hookPlan struct {
	// elementary maps an elementary update operation to SchemaDepFct — the
	// materialized functions (incl. the restriction pseudo-function) that
	// depend on it (Definition 5.2).
	elementary map[opKey]map[string]bool
	// public maps a public operation of a strictly encapsulated type to the
	// relevant part of its declared InvalidatedFct (Definition 5.3).
	public map[opKey]map[string]bool
	// involved is the set of types touched by any materialization of this
	// GMR; delete hooks are installed on those without an involved
	// supertype, whose hook they inherit.
	involved map[string]bool
	// conservative is set when static analysis failed; the basic Section 4
	// machinery is used for every operation of every type.
	conservative bool
}

// planHooks runs the Appendix analysis over the GMR's functions and derives
// the rewrite plan.
func (m *Manager) planHooks(g *GMR) (*hookPlan, error) {
	plan := &hookPlan{
		elementary: make(map[opKey]map[string]bool),
		public:     make(map[opKey]map[string]bool),
		involved:   make(map[string]bool),
	}
	type fctBody struct {
		fid string
		fn  *lang.Function
	}
	fcts := make([]fctBody, 0, len(g.Funcs)+1)
	for i, fn := range g.Funcs {
		fcts = append(fcts, fctBody{fn.Name, fn})
		// Subtype overrides contribute their relevant paths under the
		// column's function id: an update relevant only to the override
		// must still invalidate the column's entries.
		for _, variant := range g.variants[i] {
			fcts = append(fcts, fctBody{fn.Name, variant})
		}
	}
	if g.Restriction != nil {
		fcts = append(fcts, fctBody{g.predID(), g.Restriction.Fn})
	}
	addElementary := func(t, op, fid string) {
		k := opKey{t, op}
		if plan.elementary[k] == nil {
			plan.elementary[k] = make(map[string]bool)
		}
		plan.elementary[k][fid] = true
	}
	gmrFids := make(map[string]bool, len(fcts))
	for _, fb := range fcts {
		gmrFids[fb.fid] = true
	}
	for _, fb := range fcts {
		typed, err := m.extractor.TypedPaths(fb.fn)
		if err != nil {
			// ErrUnanalyzable (or typing failure): fall back to the
			// unsophisticated mechanism for the whole GMR.
			plan.conservative = true
			for _, tn := range m.Sch.Reg.Types() {
				plan.involved[tn] = true
			}
			return plan, nil
		}
		for _, tp := range typed {
			plan.involved[tp.RootType] = true
			// Walk the path outside-in. The first strictly encapsulated
			// type (with InvalidatedFct declarations) encountered covers
			// the rest of the path: its subobjects cannot be updated
			// without going through one of its public operations
			// (Section 5.3), so only those operations are rewritten and
			// all deeper elementary operations stay unmodified. Tracking
			// suspends at the same boundary (schema.Engine.CallFunction),
			// so ObjDepFct markings and hooks agree — which is also why the
			// coverage rule applies in every mode, not only ModeInfoHiding:
			// an encapsulated type's subobjects never carry RRR tuples.
			for _, pair := range tp.Pairs {
				plan.involved[pair.Type] = true
				t := m.Sch.Reg.Lookup(pair.Type)
				if t != nil && t.StrictEncapsulated && m.Sch.HasInvalidatedFctDecl(pair.Type) {
					for _, opName := range m.declaredInvalidatingOps(pair.Type, gmrFids) {
						k := opKey{pair.Type, opName}
						if plan.public[k] == nil {
							plan.public[k] = make(map[string]bool)
						}
						decl, _ := m.Sch.InvalidatedFct(pair.Type, opName)
						for fid := range decl {
							if gmrFids[fid] {
								plan.public[k][fid] = true
							}
						}
					}
					break
				}
				if pair.Attr == lang.ElemSeg {
					addElementary(pair.Type, "insert", fb.fid)
					addElementary(pair.Type, "remove", fb.fid)
				} else {
					addElementary(pair.Type, "set_"+pair.Attr, fb.fid)
				}
			}
		}
	}
	m.dropInherited(plan.elementary)
	m.dropInherited(plan.public)
	return plan, nil
}

// dropInherited removes from each (type, op) key of a plan the functions a
// key of the same operation on a proper supertype carries, and the keys left
// with none: a hook installed on the supertype runs for the type's
// instances too, so one update invalidates each function at most once.
func (m *Manager) dropInherited(plan map[opKey]map[string]bool) {
	for k, fids := range plan {
		for _, super := range m.Sch.Chain(k.Type) {
			if super != k.Type {
				for fid := range plan[opKey{super, k.Op}] {
					delete(fids, fid)
				}
			}
		}
		if len(fids) == 0 {
			delete(plan, k)
		}
	}
}

// inherits reports whether keys holds k's operation on a proper supertype of
// k's type, whose hook k's type inherits.
func (m *Manager) inherits(k opKey, keys map[opKey]bool) bool {
	for _, super := range m.Sch.Chain(k.Type) {
		if super != k.Type && keys[opKey{super, k.Op}] {
			return true
		}
	}
	return false
}

// declaredInvalidatingOps returns the public operations of typeName whose
// declared InvalidatedFct intersects fids, sorted for determinism.
func (m *Manager) declaredInvalidatingOps(typeName string, fids map[string]bool) []string {
	var out []string
	for _, opName := range m.Sch.OpNames(typeName) {
		decl, ok := m.Sch.InvalidatedFct(typeName, opName)
		if !ok {
			continue
		}
		for fid := range decl {
			if fids[fid] {
				out = append(out, opName)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// installHooks applies the rewrite plan: this is the point where "only those
// types whose instances are involved in some materialization are modified
// and recompiled" while the remainder of the schema stays untouched. Each
// hook is installed once, on its declared type; subtypes, also those
// defined later, inherit it through the hook table.
func (m *Manager) installHooks(g *GMR) error {
	plan, err := m.planHooks(g)
	if err != nil {
		return err
	}
	var undo []func()
	install := func(typeName, op string, h *schema.UpdateHook) {
		undo = append(undo, m.En.Hooks.Install(typeName, op, h))
	}
	// installTop installs h on the keys no supertype key covers.
	installTop := func(keys map[opKey]bool, h *schema.UpdateHook) {
		for k := range keys {
			if !m.inherits(k, keys) {
				install(k.Type, k.Op, h)
			}
		}
	}

	mode := g.Mode
	if plan.conservative {
		mode = ModeBasic
	}

	switch mode {
	case ModeBasic:
		// Figure 4: every elementary update operation of every involved
		// type notifies the manager unconditionally. Strictly encapsulated
		// types with InvalidatedFct declarations are additionally hooked on
		// those public operations: access tracking stops at the
		// encapsulation boundary (only the outer object carries RRR
		// tuples), so the notification must come from the outer operation.
		keys := make(map[opKey]bool)
		for tn := range plan.involved {
			t := m.Sch.Reg.Lookup(tn)
			if t == nil {
				continue
			}
			if t.StrictEncapsulated && m.Sch.HasInvalidatedFctDecl(tn) {
				for _, opName := range m.Sch.OpNames(tn) {
					if _, ok := m.Sch.InvalidatedFct(tn, opName); ok {
						keys[opKey{tn, opName}] = true
					}
				}
				continue
			}
			switch t.Kind {
			case object.TupleType:
				for _, a := range m.Objs.Layout(tn) {
					keys[opKey{tn, "set_" + a.Name}] = true
				}
			case object.SetType, object.ListType:
				keys[opKey{tn, "insert"}] = true
				keys[opKey{tn, "remove"}] = true
			}
		}
		installTop(keys, &schema.UpdateHook{
			Name: g.Name,
			After: func(_ *schema.Engine, recv object.Recv, _ []object.Value) error {
				return m.Invalidate(recv.OID, nil)
			},
		})
	case ModeSchemaDep, ModeObjDep, ModeInfoHiding:
		for k, fids := range plan.elementary {
			k, schemaDep := k, fids
			hook := &schema.UpdateHook{Name: g.Name}
			if mode == ModeSchemaDep {
				// Figure: invalidate(o, SchemaDepFct(t.op)); the manager is
				// invoked on every update of a relevant operation.
				deps := sortedKeys(schemaDep)
				hook.After = func(_ *schema.Engine, recv object.Recv, _ []object.Value) error {
					var buf [relevBuf]string
					relev := m.subtractCompensated(recv.Type, k.Op, append(buf[:0], deps...))
					if len(relev) == 0 {
						return nil
					}
					return m.Invalidate(recv.OID, relev)
				}
			} else {
				// Figure 5: RelevFct := o.ObjDepFct ∩ SchemaDepFct(t.op);
				// only a non-empty intersection invokes the manager, so
				// "innocent" objects pay a single in-memory check.
				hook.After = func(_ *schema.Engine, recv object.Recv, _ []object.Value) error {
					var buf [relevBuf]string
					relev := intersectDep(buf[:0], recv.DepFcts, schemaDep)
					relev = m.subtractCompensated(recv.Type, k.Op, relev)
					if len(relev) == 0 {
						return nil
					}
					return m.Invalidate(recv.OID, relev)
				}
			}
			install(k.Type, k.Op, hook)
		}
		// Public-operation hooks for strictly encapsulated types
		// (information hiding): one invalidation per outer-level operation,
		// none at all for operations declared result-invariant.
		for k, fids := range plan.public {
			k, invFct := k, fids
			hook := &schema.UpdateHook{
				Name: g.Name,
				After: func(_ *schema.Engine, recv object.Recv, _ []object.Value) error {
					var buf [relevBuf]string
					relev := intersectDep(buf[:0], recv.DepFcts, invFct)
					relev = m.subtractCompensated(recv.Type, k.Op, relev)
					if len(relev) == 0 {
						return nil
					}
					return m.Invalidate(recv.OID, relev)
				},
			}
			install(k.Type, k.Op, hook)
		}
	}

	// Deletion: forget_object before the object disappears (Figure 4/5).
	// The ObjDepFct check of Figure 5 alone is not sufficient under lazy
	// rematerialization: lazy(o) strips the marks while the (invalidated)
	// entry still exists, so the supplementary argument index is consulted
	// as well.
	deleteHook := &schema.UpdateHook{
		Name: g.Name,
		Before: func(_ *schema.Engine, recv object.Recv, _ []object.Value) error {
			if mode != ModeBasic && len(recv.DepFcts) == 0 && !m.hasEntriesWithArg(recv.OID) {
				return nil
			}
			return m.ForgetObject(recv.OID)
		},
	}
	deletes := make(map[opKey]bool, len(plan.involved))
	for tn := range plan.involved {
		deletes[opKey{tn, "delete"}] = true
	}
	installTop(deletes, deleteHook)

	// Creation: new_object on the argument types of complete GMRs.
	if g.Complete {
		creates := make(map[opKey]bool)
		for _, at := range g.ArgTypes {
			if !object.IsAtomicName(at) {
				creates[opKey{at, "create"}] = true
			}
		}
		installTop(creates, &schema.UpdateHook{
			Name: g.Name,
			After: func(_ *schema.Engine, recv object.Recv, _ []object.Value) error {
				return m.NewObject(recv.OID, recv.Type)
			},
		})
	}

	m.uninstall[g.Name] = undo
	return nil
}

// relevBuf is the stack buffer a hook builds its RelevFct in; an object
// marked with more relevant functions spills to the heap.
const relevBuf = 4

// intersectDep appends to dst the functions of an object's ObjDepFct marks
// that are in a schema set.
func intersectDep(dst, dep []string, set map[string]bool) []string {
	for _, f := range dep {
		if set[f] {
			dst = append(dst, f)
		}
	}
	return dst
}

// subtractCompensated removes functions with a compensating action for
// (typeName, op) from relev, in place — the "\\ RelevFct" of the modified
// insert' in Section 5.4: compensated results were already fixed up by the
// Before hook and must not be invalidated.
func (m *Manager) subtractCompensated(typeName, op string, relev []string) []string {
	return slices.DeleteFunc(relev, func(f string) bool {
		return m.ca.action(m.Sch, typeName, op, f) != nil
	})
}

// InstalledHookCount reports how many hooks are installed, each counted once
// on its declared type; tests use it to show that dropping a GMR restores
// the original schema.
func (m *Manager) InstalledHookCount() int { return m.En.Hooks.Count() }

// DescribePlan returns a human-readable rewrite plan; the gomql shell's
// ".gmr" command prints it.
func (m *Manager) DescribePlan(g *GMR) string {
	plan, err := m.planHooks(g)
	if err != nil {
		return fmt.Sprintf("plan error: %v", err)
	}
	var lines []string
	if plan.conservative {
		lines = append(lines, "  (conservative: static analysis unavailable)")
	}
	var keys []opKey
	for k := range plan.elementary {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Type != keys[j].Type {
			return keys[i].Type < keys[j].Type
		}
		return keys[i].Op < keys[j].Op
	})
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("  %s.%s -> SchemaDepFct %v", k.Type, k.Op, sortedKeys(plan.elementary[k])))
	}
	keys = keys[:0]
	for k := range plan.public {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Type != keys[j].Type {
			return keys[i].Type < keys[j].Type
		}
		return keys[i].Op < keys[j].Op
	})
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("  %s.%s -> InvalidatedFct %v", k.Type, k.Op, sortedKeys(plan.public[k])))
	}
	if len(lines) == 0 {
		return "  (no update operations rewritten)"
	}
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += l
	}
	return out
}

func sortedKeys(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
