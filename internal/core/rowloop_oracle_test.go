package core

import (
	"gomdb/internal/btree"
	"gomdb/internal/gridfile"
	"gomdb/internal/object"
)

// The per-row read loops that HeapFile.Touch, HeapFile.TouchRun and
// GMR.scan replaced, kept as the oracle of TestRangeReadChargeParity: an
// index-leaf visit copies the index record through HeapFile.Read, a tuple
// read pins and unpins through View, and All and Retrieve's extension scan
// read one entry at a time, probing entries by key. The oracle entry points
// answer exactly as their Manager counterparts and must charge exactly the
// same.

func (g *GMR) oracleTouchIdx(e *entry, i int) error {
	if i < len(e.idx) && !e.idx[i].IsZero() {
		if _, err := g.idxHeap[i].Read(e.idx[i]); err != nil {
			return err
		}
	}
	return nil
}

func (g *GMR) oracleTouch(e *entry) error {
	if err := g.heap.View(e.rid, func([]byte) error { return nil }); err != nil {
		return err
	}
	g.mgr.Clock.AddCPU(2)
	return nil
}

// OracleBackward is Backward with the per-row loop.
func (m *Manager) OracleBackward(fid string, lb, ub float64) ([]Match, error) {
	g, _ := m.GMRFor(fid)
	i := g.funcIndex(fid)
	m.Stats.BackwardQueries++
	m.emit("backward", g.Name, fid, object.NilOID)
	if err := m.revalidateColumn(g, i); err != nil {
		return nil, err
	}
	var out []Match
	var scanErr error
	g.resIdx[i].Range(lb, ub, func(_ btree.Key, v any) bool {
		e := v.(*entry)
		if err := g.oracleTouchIdx(e, i); err != nil {
			scanErr = err
			return false
		}
		if err := g.oracleTouch(e); err != nil {
			scanErr = err
			return false
		}
		out = append(out, Match{Args: e.Args, Result: e.Results[i]})
		return true
	})
	return out, scanErr
}

// OracleBackwardAny is BackwardAny with the per-row loop.
func (m *Manager) OracleBackwardAny(fid string, lb, ub float64) (Match, bool, error) {
	g, _ := m.GMRFor(fid)
	i := g.funcIndex(fid)
	m.Stats.BackwardQueries++
	m.emit("backward", g.Name, fid, object.NilOID)
	var found *Match
	var scanErr error
	g.resIdx[i].Range(lb, ub, func(_ btree.Key, v any) bool {
		e := v.(*entry)
		if !e.Valid[i] {
			return true
		}
		if err := g.oracleTouch(e); err != nil {
			scanErr = err
			return false
		}
		found = &Match{Args: e.Args, Result: e.Results[i]}
		return false
	})
	if scanErr != nil || found == nil {
		return Match{}, false, scanErr
	}
	return *found, true, nil
}

// OracleAll is All with the per-entry loop.
func (m *Manager) OracleAll(fid string) ([]Match, error) {
	g, _ := m.GMRFor(fid)
	i := g.funcIndex(fid)
	if err := m.revalidateColumn(g, i); err != nil {
		return nil, err
	}
	out := make([]Match, 0, len(g.entries))
	for _, oe := range g.order {
		e := g.entries[argKey(oe.Args)]
		if err := g.oracleTouch(e); err != nil {
			return nil, err
		}
		out = append(out, Match{Args: e.Args, Result: e.Results[i]})
	}
	return out, nil
}

// OracleRetrieve is Retrieve with the per-entry extension scan and a View
// per MDS candidate.
func (m *Manager) OracleRetrieve(name string, spec []FieldSpec) ([]Row, error) {
	g := m.gmrs[name]
	match, err := retrieveFilter(g, spec)
	if err != nil {
		return nil, err
	}
	n, mm := len(g.ArgTypes), len(g.Funcs)
	for i := 0; i < mm; i++ {
		if spec[n+i].constrained() {
			if err := m.revalidateColumn(g, i); err != nil {
				return nil, err
			}
		}
	}
	var rows []Row
	if g.mds != nil {
		q := make([]gridfile.Range, n+mm)
		for i, f := range spec {
			switch {
			case f.Exact != nil:
				v := *f.Exact
				fv, _ := v.AsFloat()
				if v.Kind == object.KRef {
					fv = float64(v.R)
				}
				q[i] = gridfile.Exact(fv)
			case f.Lo != nil || f.Hi != nil:
				lo, hi := -1e308, 1e308
				if f.Lo != nil {
					lo = *f.Lo
				}
				if f.Hi != nil {
					hi = *f.Hi
				}
				q[i] = gridfile.Between(lo, hi)
			default:
				q[i] = gridfile.Any()
			}
		}
		var touchErr error
		err := g.mds.Search(q, func(ge gridfile.Entry) bool {
			e := ge.Val.(*entry)
			if match(e.Args, e.Results) {
				if terr := g.oracleTouch(e); terr != nil {
					touchErr = terr
					return false
				}
				rows = append(rows, detachedRow(e))
			}
			return true
		})
		if err == nil {
			err = touchErr
		}
		return rows, err
	}
	for _, oe := range g.order {
		e := g.entries[argKey(oe.Args)]
		if err := g.oracleTouch(e); err != nil {
			return nil, err
		}
		if match(e.Args, e.Results) {
			rows = append(rows, detachedRow(e))
		}
	}
	return rows, nil
}

// oracleForward is Forward with the per-row tuple read on a valid hit.
func (m *Manager) oracleForward(fid string, args []object.Value) (object.Value, error) {
	id, c, _ := m.colByName(fid)
	g, i := c.g, c.col
	if e, ok := g.lookup(args); ok && e.Valid[i] && g.admitsArgs(args) {
		m.noteForward(g, e, id, true)
		if err := g.oracleTouch(e); err != nil {
			return object.Null(), err
		}
		return e.Results[i], nil
	}
	return m.Forward(fid, args)
}

// OracleWindow answers the GOMql window query
//
//	range c: T retrieve c.f where c.f > lo and c.f < hi
//
// over the unary materialized function fid = "T.f" as the executor did when
// it resolved every path step per candidate: a backward lookup over
// [lo, hi], then per candidate a forward call for each comparison evaluated
// (the conjunction stops at the first false one) and one for the target.
func (m *Manager) OracleWindow(fid string, lo, hi float64) ([]object.Value, error) {
	matches, err := m.OracleBackward(fid, lo, hi)
	if err != nil {
		return nil, err
	}
	var out []object.Value
	for _, mt := range matches {
		keep := true
		for _, cmp := range []func(float64) bool{
			func(v float64) bool { return v > lo },
			func(v float64) bool { return v < hi },
		} {
			v, err := m.oracleForward(fid, mt.Args)
			if err != nil {
				return nil, err
			}
			f, _ := v.AsFloat()
			if !cmp(f) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		v, err := m.oracleForward(fid, mt.Args)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
