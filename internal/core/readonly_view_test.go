package core_test

import (
	"errors"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/schema"
)

// TestSnapshotEngineRefusesMutations drives a snapshot's evaluation engine
// into each of its four refusal sites — a hooked public operation, an
// attribute update and the two elementary set updates — and requires
// schema.ErrReadOnlyView from every one, with the live state untouched.
func TestSnapshotEngineRefusesMutations(t *testing.T) {
	db, g := exampleDB(t, true)
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Name: "Gv", Funcs: []string{"Cuboid.volume"}, Complete: true,
		Strategy: gomdb.Immediate, Mode: gomdb.ModeInfoHiding,
	}); err != nil {
		t.Fatal(err)
	}
	if !db.Engine.Hooks.Installed("Cuboid", "scale") {
		t.Fatal("information hiding did not hook Cuboid.scale")
	}
	c, other := g.Cuboids[0], g.Cuboids[1]
	ws, err := db.NewSet("Workpieces", gomdb.Ref(c))
	if err != nil {
		t.Fatal(err)
	}
	s := fixtures.NewVertex(db, 2, 1, 1)

	ver, release := db.Pool.Versions().Pin()
	en := db.GMRs.SnapshotAt(ver).Engine()
	for _, tc := range []struct {
		site string
		run  func() error
	}{
		{"hooked public op", func() error {
			// Refused at the hook, before the receiver is read: a refusal
			// further down (the vertices' SetAttr) would charge reads.
			before := en.Clock.SimMicros()
			_, err := en.CallFunction("Cuboid.scale", []gomdb.Value{gomdb.Ref(c), gomdb.Ref(s)})
			if spent := en.Clock.SimMicros() - before; spent != 0 {
				t.Errorf("refused hooked op charged %d µs", spent)
			}
			return err
		}},
		{"SetAttr", func() error { return en.SetAttr(gomdb.Ref(c), "Value", gomdb.Float(1)) }},
		{"InsertElem", func() error { return en.InsertElem(gomdb.Ref(ws), gomdb.Ref(other)) }},
		{"RemoveElem", func() error { return en.RemoveElem(gomdb.Ref(ws), gomdb.Ref(c)) }},
	} {
		if err := tc.run(); !errors.Is(err, schema.ErrReadOnlyView) {
			t.Errorf("%s on a snapshot engine: got %v, want ErrReadOnlyView", tc.site, err)
		}
	}
	release()

	wantFloat(t, db, "Cuboid.volume", c, 300)
	if v, err := db.GetAttr(c, "Value"); err != nil || v.F != 39.99 {
		t.Fatalf("Value after refused SetAttr: %v, %v", v, err)
	}
	if n, err := db.Call("Workpieces.total_volume", gomdb.Ref(ws)); err != nil || !approx(n.F, 300) {
		t.Fatalf("total_volume after refused set updates: %v, %v", n, err)
	}
}
