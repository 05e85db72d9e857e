package core

import (
	"fmt"
	"sync/atomic"

	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// Compensating actions (Section 5.4): instead of recomputing an invalidated
// result from scratch, a database-programmer-supplied action c computes the
// new result from the update's parameters and the old result. The manager
// keeps the CA table [Upd_Op, Mat_Fct, Comp_Act] (Definition 5.5) and
// invokes GMR_Manager.compensate *before* the update executes, so actions
// see the pre-update object base.

// CATable is the CA relation.
type CATable struct {
	m map[opKey]map[string]*lang.Function
}

func newCATable() *CATable { return &CATable{m: make(map[opKey]map[string]*lang.Function)} }

// action returns the compensating action of fid for typeName.op, resolving
// typeName through its supertype chain so an action declared on a supertype
// covers subtype receivers and the nearest declaration wins; nil means fid
// is not in CompensatedFct(t.u) (Definition 5.5).
func (ca *CATable) action(sch *schema.Schema, typeName, op, fid string) *lang.Function {
	for _, tn := range sch.Chain(typeName) {
		if c, ok := ca.m[opKey{tn, op}][fid]; ok {
			return c
		}
	}
	return nil
}

// DefineCompensation registers compensating action c for the materialized
// function fid and the update operation typeName.opName, and rewrites the
// operation to call GMR_Manager.compensate before executing. Per
// Definition 5.4 the operation must belong to an *argument type* of fid
// (compensating a non-argument type's update can make the GMR inconsistent,
// as the paper's Cuboid.scale example shows) and must already be a modified
// (hook-carrying) update operation.
func (m *Manager) DefineCompensation(typeName, opName, fid string, c *lang.Function) error {
	_, ref, ok := m.colByName(fid)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotMaterialized, fid)
	}
	g, i := ref.g, ref.col
	argOK := false
	for _, at := range g.ArgTypes {
		if m.Sch.Reg.IsSubtypeOf(typeName, at) || m.Sch.Reg.IsSubtypeOf(at, typeName) {
			argOK = true
			break
		}
	}
	if !argOK {
		return fmt.Errorf("core: compensating action for %s may only be attached to an argument type of the function, not %q", fid, typeName)
	}
	modified := m.En.Hooks.Installed(typeName, opName)
	if !modified {
		return fmt.Errorf("core: %s.%s is not a modified update operation; compensating actions may only compensate modified operations", typeName, opName)
	}
	// Arity check: c : ti || t1',...,tk', tn+1 -> tn+1.
	if len(c.Params) < 2 {
		return fmt.Errorf("core: compensating action %s needs at least a receiver and the old result", c.Name)
	}
	k := opKey{typeName, opName}
	if m.ca.m[k] == nil {
		m.ca.m[k] = make(map[string]*lang.Function)
	}
	if _, dup := m.ca.m[k][fid]; dup {
		return fmt.Errorf("core: duplicate compensating action for %s.%s / %s", typeName, opName, fid)
	}
	m.ca.m[k][fid] = c

	// The hook is installed once, on typeName: its subtypes inherit it, and
	// it stands aside for a receiver whose nearer supertype declares an
	// action of its own for the same operation and function.
	hook := &schema.UpdateHook{
		Name: "CA:" + g.Name,
		Before: func(_ *schema.Engine, recv object.Recv, args []object.Value) error {
			if !recv.HasDepFct(fid) || m.ca.action(m.Sch, recv.Type, opName, fid) != c {
				return nil
			}
			return m.Compensate(recv.OID, fid, i, c, args)
		},
	}
	m.compensations[g.Name] = append(m.compensations[g.Name],
		m.En.Hooks.Install(typeName, opName, hook), func() { delete(m.ca.m[k], fid) })
	return nil
}

// Compensate applies the compensating action c of fid to every valid GMR
// entry whose argument list contains recv, invoked before the update with
// the update's arguments: new := recv.c(args..., old).
func (m *Manager) Compensate(recv object.OID, fid string, col int, c *lang.Function, updArgs []object.Value) error {
	_, ref, ok := m.colByName(fid)
	if !ok {
		return nil
	}
	g := ref.g
	tuples, err := m.rrr.Lookup(recv)
	if err != nil {
		return err
	}
	for _, t := range tuples {
		if t.F != fid {
			continue
		}
		inArgs := false
		for _, a := range t.Args {
			if a.Kind == object.KRef && a.R == recv {
				inArgs = true
				break
			}
		}
		if !inArgs {
			continue
		}
		e, ok := g.lookup(t.Args)
		if !ok {
			// Blind reference; clean lazily.
			if err := m.removeRRR(t.O, t.F, t.Args); err != nil {
				return err
			}
			continue
		}
		if !e.Valid[col] {
			// An already-invalid result cannot be compensated (the old
			// value is unusable); it stays invalid.
			continue
		}
		cargs := make([]object.Value, 0, len(updArgs)+2)
		cargs = append(cargs, object.Ref(recv))
		cargs = append(cargs, updArgs...)
		cargs = append(cargs, e.Results[col])
		// The action is evaluated with access tracking and its accesses are
		// added to the RRR: the compensated result now also depends on the
		// objects the action read (e.g. increase_total reads the inserted
		// cuboid's volume, so a later scale of that cuboid must invalidate
		// the total). The paper leaves the RRR untouched here, which would
		// let updates to the newly involved objects go unnoticed until the
		// next full rematerialization.
		v, _, order, err := m.En.EvalTrackedOrdered(c, cargs)
		if err != nil {
			return fmt.Errorf("core: compensating action %s: %w", c.Name, err)
		}
		if err := g.setResult(e, col, v); err != nil {
			return err
		}
		for _, oid := range m.sortAccessed(order) {
			if oid == recv {
				continue // the receiver's own tuples are already maintained
			}
			if err := m.addRRR(oid, fid, t.Args); err != nil {
				return err
			}
		}
		atomic.AddInt64(&m.Stats.Compensations, 1)
		m.emit("compensate", g.Name, fid, recv)
	}
	return nil
}
