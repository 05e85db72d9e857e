package gomdb_test

// Tests of the schema's dense-id tables and the GMR manager's column table:
// definitions made after materialization, or after the first call, must be
// followed by dispatch, by the forward path and by the read-only tiers, and
// the tables must stay safe while readers run beside barrier DDL.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gomdb"
	"gomdb/internal/lang"
)

// overrideDB defines Base [X] with f = 2*X and g = X + 1, Sub <: Base [Y]
// without overrides, three instances of each, and materializes Base.f.
func overrideDB(t *testing.T) (*gomdb.Database, []gomdb.OID, []gomdb.OID, *gomdb.GMR) {
	t.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	db.MustDefineType(gomdb.NewTupleType("Base", gomdb.PubAttr("X", "float")), "f", "g")
	sub := gomdb.NewTupleType("Sub", gomdb.PubAttr("Y", "float"))
	sub.Super = "Base"
	db.MustDefineType(sub, "f", "g")
	for _, src := range []string{
		`define f: float is return 2.0 * self.X end`,
		`define g: float is return self.X + 1.0 end`,
	} {
		if err := db.DefineOpSrc("Base", src, true); err != nil {
			t.Fatal(err)
		}
	}
	var bases, subs []gomdb.OID
	for i := 1; i <= 3; i++ {
		bases = append(bases, db.MustNew("Base", gomdb.Float(float64(i))))
		subs = append(subs, db.MustNew("Sub", gomdb.Float(float64(i)), gomdb.Float(100)))
	}
	g, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Base.f"}, Complete: true,
		Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, bases, subs, g
}

// subOp is Sub's override of op: 2*X + Y.
func subOp(op string, sideEffectFree bool) *gomdb.Function {
	return &gomdb.Function{
		Name:           "Sub." + op,
		Params:         []gomdb.Param{lang.Prm("self", "Sub")},
		ResultType:     "float",
		SideEffectFree: sideEffectFree,
		Body: []gomdb.Stmt{
			lang.Ret(lang.Add(lang.Mul(lang.F(2), lang.A(lang.Self(), "X")), lang.A(lang.Self(), "Y"))),
		},
	}
}

// TestIDTablesFollowDefinitions defines a subtype override after
// Materialize, and a non-side-effect-free override after the first call,
// once through the facade and once through a db.Schema reach-in. Dispatch,
// the column of the override variant and the read-only tier must follow
// each definition.
func TestIDTablesFollowDefinitions(t *testing.T) {
	for _, via := range []struct {
		name     string
		defineOp func(db *gomdb.Database, typeName, op string, fn *gomdb.Function) error
	}{
		{"facade", func(db *gomdb.Database, typeName, op string, fn *gomdb.Function) error {
			return db.DefineOp(typeName, op, fn)
		}},
		{"schema", func(db *gomdb.Database, typeName, op string, fn *gomdb.Function) error {
			return db.Schema.DefineOp(typeName, op, fn)
		}},
	} {
		t.Run(via.name, func(t *testing.T) {
			db, bases, subs, gmr := overrideDB(t)
			// call returns fn(oid) and whether the call took the shared
			// tier (it published no version).
			call := func(fn string, oid gomdb.OID) (float64, bool) {
				t.Helper()
				before := db.MVCCStats().StableVersion
				v, err := db.Call(fn, gomdb.Ref(oid))
				if err != nil {
					t.Fatalf("%s(%v): %v", fn, oid, err)
				}
				return v.F, db.MVCCStats().StableVersion == before
			}
			consistent := func() {
				t.Helper()
				rep, err := db.CheckConsistency(gmr.Name, 1e-9, true)
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Err(); err != nil {
					t.Fatal(err)
				}
			}
			hits := func() int64 { return atomic.LoadInt64(&db.GMRs.Stats.ForwardHits) }

			if v, shared := call("Base.f", subs[0]); v != 2 || !shared {
				t.Fatalf("Base.f(sub) before the override = %v (shared %v), want 2 on the shared tier", v, shared)
			}

			// A side-effect-free override of the materialized function.
			if err := via.defineOp(db, "Sub", "f", subOp("f", true)); err != nil {
				t.Fatal(err)
			}
			if g, ok := db.GMRs.GMRFor("Sub.f"); !ok || g != gmr {
				t.Fatalf("the override maps to GMR %v (%v), want %s", g, ok, gmr.Name)
			}
			consistent()
			for _, fn := range []string{"Base.f", "Sub.f"} {
				h := hits()
				if v, shared := call(fn, subs[0]); v != 102 || !shared {
					t.Fatalf("%s(sub) = %v (shared %v), want the override's 102 on the shared tier", fn, v, shared)
				}
				if hits() != h+1 {
					t.Fatalf("%s(sub) was not answered from the GMR", fn)
				}
			}
			if v, _ := call("Base.f", bases[0]); v != 2 {
				t.Fatalf("Base.f(base) = %v, want 2", v)
			}
			// The re-planned schema rewrite covers the override's Y.
			if err := db.Set(subs[0], "Y", gomdb.Float(50)); err != nil {
				t.Fatal(err)
			}
			if v, _ := call("Base.f", subs[0]); v != 52 {
				t.Fatalf("Base.f(sub) after Set Y = %v, want 52", v)
			}
			consistent()

			// A non-side-effect-free override of an unmaterialized
			// operation, after the first call of it.
			if v, shared := call("Base.g", bases[0]); v != 2 || !shared {
				t.Fatalf("Base.g(base) = %v (shared %v), want 2 on the shared tier", v, shared)
			}
			if err := via.defineOp(db, "Sub", "g", subOp("g", false)); err != nil {
				t.Fatal(err)
			}
			if v, shared := call("Base.g", bases[0]); v != 2 || shared {
				t.Fatalf("Base.g(base) = %v (shared %v), want 2 on the exclusive tier", v, shared)
			}
			if v, shared := call("Base.g", subs[1]); v != 104 || shared {
				t.Fatalf("Base.g(sub) = %v (shared %v), want 104 on the exclusive tier", v, shared)
			}
			if db.Queries.CallReadOnly("Base.g") || !db.Queries.CallReadOnly("Base.f") {
				t.Fatal("read-only classification did not follow the definitions")
			}
			view := db.SnapshotView()
			defer view.Release()
			if _, err := view.Call("Base.g", gomdb.Ref(bases[0])); err == nil {
				t.Fatal("a snapshot view ran a call that may have side effects")
			}
			if v, err := view.Call("Base.f", gomdb.Ref(subs[2])); err != nil || v.F != 106 {
				t.Fatalf("view Base.f(sub) = %v, %v; want 106", v, err)
			}
		})
	}
}

// TestIDTablesRaceDDL runs shared-tier and snapshot-tier callers of a
// materialized function beside a goroutine that materializes,
// dematerializes and defines operations under the reader barrier. Every
// call must return the right value whatever the tables hold at that moment.
// One GOMql reader names an operation the DDL defines mid-run: its statement
// fails until the definition and answers correctly after it, prepared once
// and lowered again when the schema's generation moves.
func TestIDTablesRaceDDL(t *testing.T) {
	db, oids, _ := materializedRectangleDB(t, 8)
	want := make([]float64, len(oids))
	widths := make([]float64, len(oids))
	for i, oid := range oids {
		w, _ := db.GetAttr(oid, "Width")
		h, _ := db.GetAttr(oid, "Height")
		want[i], widths[i] = w.F*h.F, w.F
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	check := func(who string, i int, v gomdb.Value, err error) bool {
		if err != nil || v.F != want[i] {
			t.Errorf("%s: area(%v) = %v, %v; want %v", who, oids[i], v, err, want[i])
			return false
		}
		return true
	}
	reader := func(who string, call func(i int) (gomdb.Value, error)) {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			i := n % len(oids)
			v, err := call(i)
			if !check(who, i, v, err) {
				return
			}
		}
	}
	wg.Add(3)
	go reader("shared", func(i int) (gomdb.Value, error) {
		return db.Call("Rectangle.area", gomdb.Ref(oids[i]))
	})
	go reader("view", func(i int) (gomdb.Value, error) {
		view := db.SnapshotView()
		defer view.Release()
		return view.Call("Rectangle.area", gomdb.Ref(oids[i]))
	})
	for _, q := range []struct {
		who string
		run func(src string, params map[string]gomdb.Value) (*gomdb.QueryResult, error)
	}{
		{"query", db.Query},
		{"view query", func(src string, params map[string]gomdb.Value) (*gomdb.QueryResult, error) {
			view := db.SnapshotView()
			defer view.Release()
			return view.Query(src, params)
		}},
	} {
		wg.Add(1)
		go reader(q.who, func(i int) (gomdb.Value, error) {
			res, err := q.run(`range r: Rectangle retrieve r.area where r.area = $a`,
				map[string]gomdb.Value{"a": gomdb.Float(want[i])})
			if err != nil || len(res.Rows) == 0 {
				return gomdb.Null(), fmt.Errorf("query: %v", err)
			}
			return res.Rows[0][0], nil
		})
	}
	// The op reader: op10 = Width once round 10 defined it.
	const opRound = 10 // the op query names op10
	var opDefined atomic.Bool
	failed, answered := make(chan struct{}), make(chan struct{})
	var failOnce, answerOnce sync.Once
	wg.Add(1)
	go func() {
		defer wg.Done()
		// An early return must not leave the DDL loop waiting.
		defer failOnce.Do(func() { close(failed) })
		defer answerOnce.Do(func() { close(answered) })
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			i := n % len(oids)
			defined := opDefined.Load()
			res, err := db.Query(`range r: Rectangle retrieve r.op10 where r.area = $a`,
				map[string]gomdb.Value{"a": gomdb.Float(want[i])})
			switch {
			case err != nil && (defined || !strings.Contains(err.Error(), "op10")):
				t.Errorf("op query (defined %v): %v", defined, err)
				return
			case err != nil:
				failOnce.Do(func() { close(failed) })
			case len(res.Rows) == 0 || res.Rows[0][0].F != widths[i]:
				t.Errorf("op query: rows %v, want width %v", res.Rows, widths[i])
				return
			default:
				answerOnce.Do(func() { close(answered) })
			}
		}
	}()
	// A batch holds the engine now and then, so readers take the snapshot
	// tier; its own calls run on the exclusive one.
	go reader("batch", func(i int) (gomdb.Value, error) {
		var v gomdb.Value
		err := db.Batch(func(tx *gomdb.Tx) error {
			var err error
			v, err = tx.Call("Rectangle.area", gomdb.Ref(oids[i]))
			return err
		})
		return v, err
	})

	for round := 0; round < 20; round++ {
		if round == opRound {
			<-failed
		}
		if _, err := db.Materialize(gomdb.MaterializeOptions{
			Name: "Gp", Funcs: []string{"Rectangle.perimeter"}, Complete: true,
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineOpSrc("Rectangle", fmt.Sprintf(`define op%d: float is return self.Width end`, round), true); err != nil {
			t.Fatal(err)
		}
		if round == opRound {
			opDefined.Store(true)
		}
		if err := db.Dematerialize("Gp"); err != nil {
			t.Fatal(err)
		}
	}
	<-answered
	close(stop)
	wg.Wait()
}

// TestIDTablesFollowHookInstallation: a side-effect-free public operation
// of a strictly encapsulated type that is declared to invalidate a
// materialized function carries an update hook while the function is
// materialized, and a hooked operation is not read-only. Its classification
// follows the hook's installation and removal.
func TestIDTablesFollowHookInstallation(t *testing.T) {
	db := gomdb.Open(gomdb.DefaultConfig())
	box := gomdb.NewTupleType("Box", gomdb.Attr("X", "float"))
	box.StrictEncapsulated = true
	db.MustDefineType(box, "size", "probe")
	for _, src := range []string{
		`define size: float is return self.X end`,
		`define probe: float is return self.X end`,
	} {
		if err := db.DefineOpSrc("Box", src, true); err != nil {
			t.Fatal(err)
		}
	}
	db.Schema.DeclareInvalidatedFct("Box", "probe", "Box.size")
	oid := db.MustNew("Box", gomdb.Float(3))
	readOnly := func(want bool) {
		t.Helper()
		if got := db.Queries.CallReadOnly("Box.probe"); got != want {
			t.Fatalf("Box.probe read-only = %v, want %v", got, want)
		}
		before := db.MVCCStats().StableVersion
		if _, err := db.Call("Box.probe", gomdb.Ref(oid)); err != nil {
			t.Fatal(err)
		}
		if shared := db.MVCCStats().StableVersion == before; shared != want {
			t.Fatalf("Box.probe took the shared tier: %v, want %v", shared, want)
		}
	}
	readOnly(true)
	g, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Box.size"}, Complete: true, Mode: gomdb.ModeInfoHiding,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Engine.Hooks.Installed("Box", "probe") {
		t.Fatal("materializing Box.size did not hook Box.probe")
	}
	readOnly(false)
	if err := db.Dematerialize(g.Name); err != nil {
		t.Fatal(err)
	}
	readOnly(true)
}
