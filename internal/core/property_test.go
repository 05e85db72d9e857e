package core_test

// Property-based tests of the Definition 3.2 consistency invariant: random
// operation sequences are driven through every maintenance mode and
// strategy, and after every step each valid GMR entry must equal a fresh
// recomputation, completeness (Definition 3.4) must hold, and the RRR must
// agree with the ObjDepFct markings.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gomdb"
	"gomdb/internal/core"
	"gomdb/internal/fixtures"
)

// geomWorld is a small mutable world for the property tests.
type geomWorld struct {
	t   *testing.T
	db  *gomdb.Database
	g   *fixtures.Geometry
	gmr *gomdb.GMR
	rng *rand.Rand
	enc bool
}

func newGeomWorld(t *testing.T, seed int64, mode core.HookMode, strategy core.Strategy) *geomWorld {
	t.Helper()
	enc := mode == core.ModeInfoHiding
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, enc); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
		Strategy: strategy,
		Mode:     mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &geomWorld{t: t, db: db, g: g, gmr: gmr, rng: rand.New(rand.NewSource(seed * 31)), enc: enc}
}

// randomOp applies one random update. Under the encapsulated schema only
// public operations are used (strict encapsulation is the contract the
// information-hiding machinery depends on).
func (w *geomWorld) randomOp() error {
	if len(w.g.Cuboids) == 0 {
		w.g.CreateRandomCuboid()
		return nil
	}
	c := w.g.RandomCuboid()
	ops := 8
	if w.enc {
		ops = 6
	}
	switch w.rng.Intn(ops) {
	case 0: // scale
		s := fixtures.NewVertex(w.db, 0.5+w.rng.Float64(), 0.5+w.rng.Float64(), 0.5+w.rng.Float64())
		_, err := w.db.Call("Cuboid.scale", gomdb.Ref(c), gomdb.Ref(s))
		return err
	case 1: // rotate
		_, err := w.db.Call("Cuboid.rotate", gomdb.Ref(c), gomdb.Float(w.rng.Float64()*3),
			gomdb.Str([]string{"x", "y", "z"}[w.rng.Intn(3)]))
		return err
	case 2: // translate
		d := fixtures.NewVertex(w.db, w.rng.Float64()*5, 0, 0)
		_, err := w.db.Call("Cuboid.translate", gomdb.Ref(c), gomdb.Ref(d))
		return err
	case 3: // create
		w.g.CreateRandomCuboid()
		return nil
	case 4: // delete
		return w.g.DeleteRandomCuboid()
	case 5: // forward query (may rematerialize under lazy)
		_, err := w.db.Call("Cuboid.volume", gomdb.Ref(c))
		return err
	case 6: // raw vertex update (open schema only)
		o, err := w.db.Objects.Get(c)
		if err != nil {
			return err
		}
		vi := w.db.Objects.AttrIndex("Cuboid", fmt.Sprintf("V%d", 1+w.rng.Intn(8)))
		v := o.Attrs[vi].R
		attr := []string{"X", "Y", "Z"}[w.rng.Intn(3)]
		return w.db.Set(v, attr, gomdb.Float(w.rng.Float64()*20))
	default: // set Value / set Mat (open schema only)
		if w.rng.Intn(2) == 0 {
			return w.db.Set(c, "Value", gomdb.Float(w.rng.Float64()*100))
		}
		mat := w.g.MaterialO[w.rng.Intn(len(w.g.MaterialO))]
		return w.db.Set(c, "Mat", gomdb.Ref(mat))
	}
}

// checkInvariants verifies Definition 3.2 consistency, Definition 3.4
// completeness, and RRR/ObjDepFct agreement.
func (w *geomWorld) checkInvariants() error {
	// Consistency.
	type row struct {
		args    []gomdb.Value
		results []gomdb.Value
		valid   []bool
	}
	var rows []row
	w.gmr.Entries(func(args, results []gomdb.Value, valid []bool) bool {
		rows = append(rows, row{
			append([]gomdb.Value{}, args...),
			append([]gomdb.Value{}, results...),
			append([]bool{}, valid...),
		})
		return true
	})
	fids := w.gmr.FuncIDs()
	for _, r := range rows {
		for i, fid := range fids {
			if !r.valid[i] {
				continue
			}
			fn, err := w.db.Schema.LookupFunction(fid)
			if err != nil {
				return err
			}
			fresh, err := w.db.Engine.EvalRaw(fn, r.args)
			if err != nil {
				return fmt.Errorf("recompute %s(%v): %w", fid, r.args, err)
			}
			// InvalidatedFct declarations assert *mathematical* invariance
			// (rotation preserves volume); numerically the coordinates
			// change in the last ulps, so float results compare with a
			// relative epsilon.
			if !valuesClose(fresh, r.results[i]) {
				return fmt.Errorf("inconsistent: %s(%v) stored %v, fresh %v", fid, r.args, r.results[i], fresh)
			}
		}
	}
	// Completeness: exactly one entry per live cuboid.
	ext := w.db.Extension("Cuboid")
	if len(rows) != len(ext) {
		return fmt.Errorf("incomplete: %d entries for %d cuboids", len(rows), len(ext))
	}
	seen := map[gomdb.OID]bool{}
	for _, r := range rows {
		seen[r.args[0].R] = true
	}
	for _, oid := range ext {
		if !seen[oid] {
			return fmt.Errorf("missing entry for %v", oid)
		}
	}
	// RRR / ObjDepFct agreement: every object with an RRR tuple for f must
	// carry f in its marking (if it still exists).
	var agreeErr error
	_ = w.db.GMRs.RRR().Scan(func(tp core.Tuple) bool {
		if !w.db.Objects.Exists(tp.O) {
			return true
		}
		o, err := w.db.Objects.Get(tp.O)
		if err != nil {
			agreeErr = err
			return false
		}
		if !o.HasDepFct(tp.F) {
			agreeErr = fmt.Errorf("RRR tuple %v but %v not marked", tp, tp.O)
			return false
		}
		return true
	})
	return agreeErr
}

func TestPropertyConsistencyAllModes(t *testing.T) {
	configs := []struct {
		name     string
		mode     core.HookMode
		strategy core.Strategy
	}{
		{"basic/immediate", core.ModeBasic, core.Immediate},
		{"basic/lazy", core.ModeBasic, core.Lazy},
		{"schemadep/immediate", core.ModeSchemaDep, core.Immediate},
		{"schemadep/lazy", core.ModeSchemaDep, core.Lazy},
		{"objdep/immediate", core.ModeObjDep, core.Immediate},
		{"objdep/lazy", core.ModeObjDep, core.Lazy},
		{"infohiding/immediate", core.ModeInfoHiding, core.Immediate},
		{"infohiding/lazy", core.ModeInfoHiding, core.Lazy},
		{"basic/deferred", core.ModeBasic, core.Deferred},
		{"objdep/deferred", core.ModeObjDep, core.Deferred},
		{"infohiding/deferred", core.ModeInfoHiding, core.Deferred},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			check := func(seed int64) bool {
				w := newGeomWorld(t, seed%1000+1, cfg.mode, cfg.strategy)
				for i := 0; i < 25; i++ {
					if err := w.randomOp(); err != nil {
						t.Logf("seed %d op %d: %v", seed, i, err)
						return false
					}
					// Every fifth op is a flush point, so the deferred
					// configurations exercise both the pending window (valid
					// entries must still be consistent while siblings wait)
					// and the flush drain. A no-op for the other
					// strategies.
					if i%5 == 4 {
						if err := w.db.Flush(); err != nil {
							t.Logf("seed %d flush after op %d: %v", seed, i, err)
							return false
						}
					}
					if err := w.checkInvariants(); err != nil {
						t.Logf("seed %d after op %d: %v", seed, i, err)
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPropertyImmediateKeepsAllValid: under immediate rematerialization no
// entry is ever left invalid.
func TestPropertyImmediateKeepsAllValid(t *testing.T) {
	check := func(seed int64) bool {
		w := newGeomWorld(t, seed%1000+1, core.ModeObjDep, core.Immediate)
		for i := 0; i < 25; i++ {
			if err := w.randomOp(); err != nil {
				return false
			}
			for _, fid := range w.gmr.FuncIDs() {
				if w.gmr.InvalidCount(fid) != 0 {
					t.Logf("seed %d: %d invalid %s entries under immediate", seed, w.gmr.InvalidCount(fid), fid)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBackwardMatchesBruteForce: backward queries agree with brute
// force after arbitrary updates (forcing revalidation under lazy).
func TestPropertyBackwardMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		w := newGeomWorld(t, seed%1000+1, core.ModeObjDep, core.Lazy)
		for i := 0; i < 15; i++ {
			if err := w.randomOp(); err != nil {
				return false
			}
		}
		lo := 50 + w.rng.Float64()*100
		hi := lo + 200
		matches, err := w.db.GMRs.Backward("Cuboid.volume", lo, hi)
		if err != nil {
			return false
		}
		got := map[gomdb.OID]bool{}
		for _, m := range matches {
			got[m.Args[0].R] = true
		}
		fn, _ := w.db.Schema.LookupFunction("Cuboid.volume")
		want := 0
		for _, oid := range w.db.Extension("Cuboid") {
			v, err := w.db.Engine.EvalRaw(fn, []gomdb.Value{gomdb.Ref(oid)})
			if err != nil {
				return false
			}
			f, _ := v.AsFloat()
			if f >= lo && f <= hi {
				want++
				if !got[oid] {
					t.Logf("seed %d: missing %v (volume %g)", seed, oid, f)
					return false
				}
			}
		}
		return want == len(got)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// valuesClose compares values exactly, except numeric values which compare
// with a relative tolerance of 1e-9.
func valuesClose(a, b gomdb.Value) bool {
	if a.Equal(b) {
		return true
	}
	af, okA := a.AsFloat()
	bf, okB := b.AsFloat()
	if !okA || !okB {
		return false
	}
	diff := af - bf
	if diff < 0 {
		diff = -diff
	}
	scale := 1.0
	if s := af; s < 0 {
		s = -s
		if s > scale {
			scale = s
		}
	} else if af > scale {
		scale = af
	}
	return diff <= 1e-9*scale
}
