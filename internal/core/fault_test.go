package core_test

// Failure injection: once the simulated disk starts failing, every layer —
// object manager, engine, GMR manager, query executor — must surface the
// error instead of panicking or silently corrupting results, and must
// recover once the fault clears.

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/storage"
)

func TestDiskFailurePropagatesAndRecovers(t *testing.T) {
	// A tiny buffer pool forces physical I/O on nearly every access so the
	// injected fault is hit quickly.
	cfg := gomdb.DefaultConfig()
	cfg.BufferPages = 4
	db := gomdb.Open(cfg)
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Cuboid.volume"}, Complete: true,
		Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}

	db.Disk.SetFaultPlan(storage.FaultPlan{Rules: []storage.FaultRule{{After: 1}}})
	defer db.Disk.ClearFaults()

	// Drive operations until the fault fires; every error must mention the
	// injection and nothing may panic.
	sawError := false
	for i := 0; i < 50 && !sawError; i++ {
		c := g.Cuboids[i%len(g.Cuboids)]
		if _, err := db.Call("Cuboid.volume", gomdb.Ref(c)); err != nil {
			if !strings.Contains(err.Error(), "injected disk failure") {
				t.Fatalf("unexpected error: %v", err)
			}
			sawError = true
		}
		s := fixtures.NewVertex(db, 1, 1, 1)
		if _, err := db.Call("Cuboid.scale", gomdb.Ref(c), gomdb.Ref(s)); err != nil {
			if !strings.Contains(err.Error(), "injected disk failure") {
				t.Fatalf("unexpected error: %v", err)
			}
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("fault never surfaced")
	}
	// Queries fail cleanly too.
	if _, err := db.Query(`range c: Cuboid retrieve c where c.volume > 0.0`, nil); err == nil {
		t.Fatal("query succeeded on a failing disk")
	}

	// After the fault clears the system keeps working; results computed
	// afterwards are correct (maintenance errors abort the operation, so
	// the affected entry may be stale-but-valid only if its update never
	// applied — verify by re-scaling through the normal path).
	db.Disk.ClearFaults()
	if _, err := db.Query(`range c: Cuboid retrieve c where c.volume > 0.0`, nil); err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	c := g.Cuboids[0]
	s := fixtures.NewVertex(db, 2, 1, 1)
	if _, err := db.Call("Cuboid.scale", gomdb.Ref(c), gomdb.Ref(s)); err != nil {
		t.Fatalf("scale after recovery: %v", err)
	}
	v, err := db.Call("Cuboid.volume", gomdb.Ref(c))
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := db.Schema.LookupFunction("Cuboid.volume")
	fresh, err := db.Engine.EvalRaw(fn, []gomdb.Value{gomdb.Ref(c)})
	if err != nil {
		t.Fatal(err)
	}
	if !valuesClose(v, fresh) {
		t.Fatalf("post-recovery GMR answer %v differs from recomputation %v", v, fresh)
	}
}

func TestDiskFailureDuringMaterialization(t *testing.T) {
	cfg := gomdb.DefaultConfig()
	cfg.BufferPages = 4
	db := gomdb.Open(cfg)
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	if _, err := fixtures.PopulateGeometry(db, 30, 5); err != nil {
		t.Fatal(err)
	}
	db.Disk.SetFaultPlan(storage.FaultPlan{Rules: []storage.FaultRule{{After: 3}}})
	_, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Cuboid.volume"}, Complete: true, Mode: gomdb.ModeObjDep,
	})
	if err == nil {
		t.Fatal("materialization succeeded on a failing disk")
	}
	db.Disk.ClearFaults()
	// The failed materialization must have been rolled out of the catalog:
	// no hooks, no GMR, and a retry succeeds.
	if db.GMRs.InstalledHookCount() != 0 {
		t.Fatalf("%d hooks left after failed materialization", db.GMRs.InstalledHookCount())
	}
	if len(db.GMRs.GMRs()) != 0 {
		t.Fatalf("GMR left registered after failure: %v", db.GMRs.GMRs())
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs: []string{"Cuboid.volume"}, Complete: true, Mode: gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	rep, err := db.GMRs.CheckConsistency(gmr.Name, 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskFailureDuringDematerialize fails the RRR scan that Dematerialize
// and InvalidateAll start with. The fault must surface, and nothing may be
// removed before it: the GMR, its hooks, its RRR tuples and its ObjDepFct
// marks all stay, and a retry on a healthy disk removes them.
func TestDiskFailureDuringDematerialize(t *testing.T) {
	cfg := gomdb.DefaultConfig()
	cfg.BufferPages = 4
	db := gomdb.Open(cfg)
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Name: "Gvol", Funcs: []string{"Cuboid.volume"}, Complete: true, Mode: gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatal(err)
	}
	hooks, tuples := db.GMRs.InstalledHookCount(), db.GMRs.RRR().Len()
	marked := func() int {
		n := 0
		for _, c := range g.Cuboids {
			n += db.GMRs.RRR().FctCount(c, "Cuboid.volume")
		}
		return n
	}
	marks := marked()
	if tuples == 0 || marks == 0 {
		t.Fatalf("%d RRR tuples, %d of them on cuboids", tuples, marks)
	}
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"Dematerialize", func() error { return db.Dematerialize(gmr.Name) }},
		{"InvalidateAll", func() error { return db.GMRs.InvalidateAll(gmr.Name) }},
	} {
		db.Disk.SetFaultPlan(storage.FaultPlan{Rules: []storage.FaultRule{{Op: storage.FaultRead, File: "RRR"}}})
		err := op.run()
		db.Disk.ClearFaults()
		if !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("%s on a failing RRR heap: %v", op.name, err)
		}
		if _, ok := db.GMRs.Get(gmr.Name); !ok {
			t.Fatalf("%s dropped the GMR", op.name)
		}
		if n := db.GMRs.InstalledHookCount(); n != hooks {
			t.Fatalf("%s left %d hooks, want %d", op.name, n, hooks)
		}
		if n := db.GMRs.RRR().Len(); n != tuples {
			t.Fatalf("%s left %d RRR tuples, want %d", op.name, n, tuples)
		}
		if n := marked(); n != marks {
			t.Fatalf("%s left %d volume tuples on cuboids, want %d", op.name, n, marks)
		}
		for _, c := range g.Cuboids {
			o, err := db.Objects.Get(c)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(o.DepFcts, "Cuboid.volume") {
				t.Fatalf("%s unmarked cuboid %v", op.name, c)
			}
		}
	}
	if err := db.Dematerialize(gmr.Name); err != nil {
		t.Fatal(err)
	}
	if n := db.GMRs.RRR().Len(); n != 0 {
		t.Fatalf("%d RRR tuples left after Dematerialize", n)
	}
	if n := db.GMRs.InstalledHookCount(); n != 0 {
		t.Fatalf("%d hooks left after Dematerialize", n)
	}
}
