package core

import (
	"fmt"

	"gomdb/internal/gridfile"
	"gomdb/internal/object"
)

// Section 3.2 describes GMR retrieval operations "in a tabular way" (QBE
// style): each column of the GMR — arguments O1..On and results f1..fm —
// carries a constant, a range, a '?' (retrieve), or a '-' (don't care).
// Section 3.3 proposes a single multidimensional storage structure (MDS)
// over all columns for GMRs of low arity. This file implements both: an
// optional Grid File over the n+m key columns, and the generic Retrieve
// entry point that uses it (falling back to an extension scan when the GMR
// has no MDS).

// FieldSpec constrains one GMR column in a Retrieve call. The zero value is
// the "don't care" / '?' column: unconstrained.
type FieldSpec struct {
	// Exact matches the column against one value (object identity for
	// argument columns).
	Exact *object.Value
	// Lo/Hi give an inclusive range for numeric columns.
	Lo, Hi *float64
}

// constrained reports whether the column restricts the search.
func (f FieldSpec) constrained() bool { return f.Exact != nil || f.Lo != nil || f.Hi != nil }

// ExactSpec constrains a column to a single value.
func ExactSpec(v object.Value) FieldSpec { return FieldSpec{Exact: &v} }

// RangeSpec constrains a numeric column to [lo, hi].
func RangeSpec(lo, hi float64) FieldSpec { return FieldSpec{Lo: &lo, Hi: &hi} }

// AnySpec leaves a column unconstrained.
func AnySpec() FieldSpec { return FieldSpec{} }

// Row is one retrieved GMR tuple. Valid mirrors the GMR's validity flags:
// a column that was neither constrained nor revalidated may carry a stale
// value with Valid[i] == false — the '-' (don't care) columns of the
// paper's tabular notation. Constrain a column (or call Revalidate) to
// force it valid.
type Row struct {
	Args    []object.Value
	Results []object.Value
	Valid   []bool
}

// mdsKey maps a GMR tuple onto the grid file's numeric key space: argument
// references by their OID, atomic values numerically.
func mdsKey(args, results []object.Value) ([]float64, bool) {
	key := make([]float64, 0, len(args)+len(results))
	for _, v := range append(append([]object.Value{}, args...), results...) {
		switch v.Kind {
		case object.KRef:
			key = append(key, float64(v.R))
		case object.KInt:
			key = append(key, float64(v.I))
		case object.KFloat:
			key = append(key, v.F)
		case object.KBool:
			if v.B {
				key = append(key, 1)
			} else {
				key = append(key, 0)
			}
		default:
			return nil, false
		}
	}
	return key, true
}

// initMDS creates the grid file when the GMR qualifies: requested, arity
// n+m within the grid file's limit, and all result columns numeric.
func (m *Manager) initMDS(g *GMR) error {
	dims := len(g.ArgTypes) + len(g.Funcs)
	if dims > gridfile.MaxDims {
		return fmt.Errorf("core: GMR %s has arity %d; the MDS supports at most %d dimensions (Section 3.3) — use the conventional indexes", g.Name, dims, gridfile.MaxDims)
	}
	for _, fn := range g.Funcs {
		if !isNumericType(fn.ResultType) {
			return fmt.Errorf("core: MDS requires numeric result columns; %s returns %s", fn.Name, fn.ResultType)
		}
	}
	mds, err := gridfile.New(m.Pool, g.Name, dims)
	if err != nil {
		return err
	}
	g.mds = mds
	return nil
}

// mdsInsert/mdsDelete keep the grid file synchronized with the extension.
func (g *GMR) mdsInsert(e *entry) error {
	if g.mds == nil {
		return nil
	}
	key, ok := mdsKey(e.Args, e.Results)
	if !ok {
		return nil
	}
	return g.mds.Insert(key, e)
}

func (g *GMR) mdsDelete(e *entry) error {
	if g.mds == nil {
		return nil
	}
	key, ok := mdsKey(e.Args, e.Results)
	if !ok {
		return nil
	}
	_, err := g.mds.Delete(key, func(v any) bool { return v == any(e) })
	return err
}

// HasMDS reports whether the GMR carries a multidimensional index.
func (g *GMR) HasMDS() bool { return g.mds != nil }

// detachedRow builds a result row that does not alias the entry's live
// Results/Valid slices. Retrieve is answered under the shared lock, but
// callers read the rows after it is released, while a later update may be
// rematerializing the same entries in place (setResult/Invalidate mutate
// Results and Valid element-wise). Args are immutable once an entry is
// inserted — entries are keyed by them — so they stay shared, mirroring
// the MVCC snapshot's entryRowAt.
func detachedRow(e *entry) Row {
	return Row{
		Args:    e.Args,
		Results: append([]object.Value(nil), e.Results...),
		Valid:   append([]bool(nil), e.Valid...),
	}
}

// retrieveFilter checks that spec has one FieldSpec per column of g and
// returns the row filter both Retrieve paths (live and snapshot) apply. A
// column is read by index: args[i] for the n argument columns, then
// results[i-n]. An Exact spec compares with Value.Equal; a Lo/Hi range reads
// numbers as floats and references by their OID, and fails any other kind.
func retrieveFilter(g *GMR, spec []FieldSpec) (func(args, results []object.Value) bool, error) {
	n := len(g.ArgTypes)
	if len(spec) != n+len(g.Funcs) {
		return nil, fmt.Errorf("core: Retrieve on %s needs %d field specs, got %d", g.Name, n+len(g.Funcs), len(spec))
	}
	return func(args, results []object.Value) bool {
		for i, f := range spec {
			if !f.constrained() {
				continue
			}
			var v object.Value
			if i < n {
				v = args[i]
			} else {
				v = results[i-n]
			}
			if f.Exact != nil && !v.Equal(*f.Exact) {
				return false
			}
			if f.Lo == nil && f.Hi == nil {
				continue
			}
			x, ok := v.AsFloat()
			if !ok {
				if v.Kind != object.KRef {
					return false
				}
				x = float64(v.R)
			}
			if (f.Lo != nil && x < *f.Lo) || (f.Hi != nil && x > *f.Hi) {
				return false
			}
		}
		return true
	}, nil
}

// Retrieve answers a tabular GMR query: spec has one FieldSpec per column
// (n argument columns followed by m result columns). Constrained result
// columns are revalidated first — an invalid result could otherwise
// wrongly miss the window. With an MDS the search visits only intersecting
// buckets; otherwise the extension is scanned.
func (m *Manager) Retrieve(name string, spec []FieldSpec) ([]Row, error) {
	g, ok := m.gmrs[name]
	if !ok {
		return nil, fmt.Errorf("core: no GMR %q", name)
	}
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
				fv, ok := v.AsFloat()
				if !ok && v.Kind == object.KRef {
					fv, ok = float64(v.R), true
				}
				if !ok {
					return nil, fmt.Errorf("core: non-numeric exact spec %v on MDS column %d", v, i)
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
		err := g.mds.Search(q, func(e gridfile.Entry) bool {
			ge := e.Val.(*entry)
			// Skip stale keys of invalidated-but-unconstrained columns and
			// re-check exact values (OID-to-float mapping is injective for
			// realistic OIDs, but the residual check keeps it airtight).
			if match(ge.Args, ge.Results) {
				if terr := g.touch(ge); terr != nil {
					touchErr = terr
					return false
				}
				rows = append(rows, detachedRow(ge))
			}
			return true
		})
		if err == nil {
			err = touchErr
		}
		if err != nil {
			return nil, err
		}
		return rows, nil
	}
	// Extension scan: every tuple is read to test the specification (unlike
	// the MDS path, which visits only intersecting buckets).
	if err := g.scan(func(e *entry) {
		if match(e.Args, e.Results) {
			rows = append(rows, detachedRow(e))
		}
	}); err != nil {
		return nil, err
	}
	return rows, nil
}
