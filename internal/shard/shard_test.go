package shard_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/shard"
)

func openSharded(t *testing.T, n int) *shard.DB {
	t.Helper()
	db := shard.Open(shard.Config{
		Shards: n,
		Engine: gomdb.Config{BufferPages: 4096},
	})
	if err := db.EachShard(func(_ int, sh *gomdb.Database) error { return fixtures.DefineGeometry(sh, false) }); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRoutingAndCoLocation(t *testing.T) {
	db := openSharded(t, 4)
	g, err := fixtures.PopulateGeometryOn(db, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Every cuboid graph is co-located: the cuboid and its 8 vertices share
	// an owner.
	for _, c := range g.Cuboids {
		own, ok := db.Owner(c)
		if !ok {
			t.Fatalf("cuboid %v unowned", c)
		}
		for _, attr := range []string{"V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8"} {
			v, err := db.GetAttr(c, attr)
			if err != nil {
				t.Fatal(err)
			}
			vo, ok := db.Owner(v.R)
			if !ok || vo != own {
				t.Fatalf("cuboid %v on shard %d, its %s on shard %d", c, own, attr, vo)
			}
		}
	}
	// The population actually spread across shards.
	used := map[int]bool{}
	for _, c := range g.Cuboids {
		own, _ := db.Owner(c)
		used[own] = true
	}
	if len(used) < 2 {
		t.Fatalf("population used %d shards, want >= 2", len(used))
	}
	// A reference crossing shards is refused.
	var s0, s1 gomdb.OID
	for _, c := range g.Cuboids {
		own, _ := db.Owner(c)
		if own == 0 && s0 == 0 {
			s0 = c
		}
		if own == 1 && s1 == 0 {
			s1 = c
		}
	}
	if s0 == 0 || s1 == 0 {
		t.Skip("hash placed no cuboids on shards 0 and 1")
	}
	v1, err := db.GetAttr(s1, "V1")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Set(s0, "V1", v1); !errors.Is(err, shard.ErrCrossShardRef) {
		t.Fatalf("cross-shard Set: got %v, want ErrCrossShardRef", err)
	}
	if _, err := db.New("Robot", gomdb.Str("X"), gomdb.Ref(42424242)); !errors.Is(err, shard.ErrUnknownOID) {
		t.Fatalf("unknown ref: got %v, want ErrUnknownOID", err)
	}
	// New with a routed ref lands on the ref's shard.
	own0, _ := db.Owner(s0)
	v0, _ := db.GetAttr(s0, "V1")
	r, err := db.New("Robot", gomdb.Str("RX"), v0)
	if err != nil {
		t.Fatal(err)
	}
	if ro, _ := db.Owner(r); ro != own0 {
		t.Fatalf("affinity create landed on shard %d, ref owner is %d", ro, own0)
	}
}

func TestReplicatedObjects(t *testing.T) {
	db := openSharded(t, 3)
	mat, err := db.NewReplicated("Material", gomdb.Str("Iron"), gomdb.Float(7.86))
	if err != nil {
		t.Fatal(err)
	}
	if own, ok := db.Owner(mat); !ok || own != -1 {
		t.Fatalf("replicated owner = %d, %v", own, ok)
	}
	// Every shard holds the replica under the same OID.
	if err := db.EachShard(func(i int, sh *gomdb.Database) error {
		v, err := sh.GetAttr(mat, "SpecWeight")
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if v.F != 7.86 {
			return fmt.Errorf("shard %d: SpecWeight %v", i, v.F)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Updates broadcast to all replicas.
	if err := db.Set(mat, "SpecWeight", gomdb.Float(8.0)); err != nil {
		t.Fatal(err)
	}
	_ = db.EachShard(func(i int, sh *gomdb.Database) error {
		v, _ := sh.GetAttr(mat, "SpecWeight")
		if v.F != 8.0 {
			t.Errorf("shard %d missed broadcast: %v", i, v.F)
		}
		return nil
	})
	// The scattered extension reports the replica once.
	exts := db.Extension("Material")
	if len(exts) != 1 || exts[0] != mat {
		t.Fatalf("Extension dedup: %v", exts)
	}
	// A replicated object may not reference a routed one.
	v, err := db.NewOn(1, "Vertex", gomdb.Float(1), gomdb.Float(2), gomdb.Float(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewReplicated("Robot", gomdb.Str("R"), gomdb.Ref(v)); !errors.Is(err, shard.ErrCrossShardRef) {
		t.Fatalf("replicated->routed ref: got %v, want ErrCrossShardRef", err)
	}
	// Delete broadcasts.
	if err := db.Delete(mat); err != nil {
		t.Fatal(err)
	}
	if got := db.Extension("Material"); len(got) != 0 {
		t.Fatalf("replica survived delete: %v", got)
	}
}

// materializeStandard creates the volume+weight GMR (immediate) and the
// distance GMR (deferred) on every engine of the configuration.
func materializeStandard(t *testing.T, mat func(gomdb.MaterializeOptions) error) {
	t.Helper()
	if err := mat(gomdb.MaterializeOptions{
		Name: "Gvw", Funcs: []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true, Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep, UseMDS: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := mat(gomdb.MaterializeOptions{
		Name: "Gdist", Funcs: []string{"Cuboid.distance"},
		Complete: true, Strategy: gomdb.Deferred, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestScatterMatchesUnsharded: the same logical plan against a 4-shard
// router and a plain single-engine database yields identical results for
// every scatter operation (modulo float addition order in aggregates and
// row order across shards).
func TestScatterMatchesUnsharded(t *testing.T) {
	const n, seed = 60, 23

	ref := gomdb.Open(gomdb.Config{BufferPages: 4096})
	if err := fixtures.DefineGeometry(ref, false); err != nil {
		t.Fatal(err)
	}
	rg, err := fixtures.PopulateGeometry(ref, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	materializeStandard(t, func(o gomdb.MaterializeOptions) error {
		_, err := ref.Materialize(o)
		return err
	})

	db := openSharded(t, 4)
	sg, err := fixtures.PopulateGeometryOn(db, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	materializeStandard(t, db.Materialize)

	// Identical OIDs: the shared allocator and identical creation order make
	// the sharded population OID-compatible with the unsharded one.
	for i := range rg.Cuboids {
		if rg.Cuboids[i] != sg.Cuboids[i] {
			t.Fatalf("cuboid %d: OID %v (unsharded) vs %v (sharded)", i, rg.Cuboids[i], sg.Cuboids[i])
		}
	}

	// Forward: every cuboid's volume matches.
	for _, c := range rg.Cuboids {
		want, err := ref.Call("Cuboid.volume", gomdb.Ref(c))
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Call("Cuboid.volume", gomdb.Ref(c))
		if err != nil {
			t.Fatal(err)
		}
		if got.F != want.F {
			t.Fatalf("volume(%v): %v vs %v", c, got.F, want.F)
		}
	}

	// Backward: merged in result order, identical rows.
	wantB, err := ref.Backward("Cuboid.volume", 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := db.Backward("Cuboid.volume", 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotB) != len(wantB) {
		t.Fatalf("backward: %d vs %d matches", len(gotB), len(wantB))
	}
	for i := range wantB {
		if gotB[i].Args[0].R != wantB[i].Args[0].R || gotB[i].Result.F != wantB[i].Result.F {
			t.Fatalf("backward row %d: %v=%v vs %v=%v", i,
				gotB[i].Args[0].R, gotB[i].Result.F, wantB[i].Args[0].R, wantB[i].Result.F)
		}
	}

	// Sum: partials add to the same total (float order tolerance).
	wantS, err := ref.Sum("Cuboid.weight", nil)
	if err != nil {
		t.Fatal(err)
	}
	gotS, err := db.Sum("Cuboid.weight", nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotS-wantS) > 1e-6*math.Abs(wantS) {
		t.Fatalf("sum: %v vs %v", gotS, wantS)
	}

	// Tabular: same row set (order canonicalized by first-arg OID).
	spec := []gomdb.FieldSpec{gomdb.AnySpec(), gomdb.RangeSpec(100, 400), gomdb.AnySpec()}
	wantR, err := ref.Retrieve("Gvw", spec)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := db.Retrieve("Gvw", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotR) != len(wantR) {
		t.Fatalf("retrieve: %d vs %d rows", len(gotR), len(wantR))
	}
	key := func(r gomdb.Row) gomdb.OID { return r.Args[0].R }
	sort.Slice(wantR, func(i, j int) bool { return key(wantR[i]) < key(wantR[j]) })
	sort.Slice(gotR, func(i, j int) bool { return key(gotR[i]) < key(gotR[j]) })
	for i := range wantR {
		if key(gotR[i]) != key(wantR[i]) || gotR[i].Results[0].F != wantR[i].Results[0].F {
			t.Fatalf("retrieve row %d differs", i)
		}
	}

	// Extension: same OID set.
	wantE := append([]gomdb.OID(nil), ref.Extension("Cuboid")...)
	gotE := append([]gomdb.OID(nil), db.Extension("Cuboid")...)
	sort.Slice(wantE, func(i, j int) bool { return wantE[i] < wantE[j] })
	sort.Slice(gotE, func(i, j int) bool { return gotE[i] < gotE[j] })
	if len(gotE) != len(wantE) {
		t.Fatalf("extension: %d vs %d", len(gotE), len(wantE))
	}
	for i := range wantE {
		if gotE[i] != wantE[i] {
			t.Fatalf("extension[%d]: %v vs %v", i, gotE[i], wantE[i])
		}
	}

	// GOMql aggregates combine across shards.
	for _, q := range []string{
		"range c: Cuboid retrieve count(c.volume)",
		"range c: Cuboid retrieve sum(c.volume)",
		"range c: Cuboid retrieve min(c.volume), max(c.volume)",
	} {
		want, err := ref.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for col := range want.Rows[0] {
			w, g := want.Rows[0][col], got.Rows[0][col]
			if w.Kind != g.Kind {
				t.Fatalf("%s col %d: kind %v vs %v", q, col, g.Kind, w.Kind)
			}
			if w.Kind == gomdb.Float(0).Kind && math.Abs(g.F-w.F) > 1e-6*math.Abs(w.F) {
				t.Fatalf("%s col %d: %v vs %v", q, col, g.F, w.F)
			}
			if w.Kind == gomdb.Int(0).Kind && g.I != w.I {
				t.Fatalf("%s col %d: %v vs %v", q, col, g.I, w.I)
			}
		}
	}

	// Plain GOMql rows: same set.
	wantQ, err := ref.Query("range c: Cuboid retrieve c.volume where c.volume > $v", map[string]gomdb.Value{"v": gomdb.Float(300)})
	if err != nil {
		t.Fatal(err)
	}
	gotQ, err := db.Query("range c: Cuboid retrieve c.volume where c.volume > $v", map[string]gomdb.Value{"v": gomdb.Float(300)})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotQ.Rows) != len(wantQ.Rows) {
		t.Fatalf("query rows: %d vs %d", len(gotQ.Rows), len(wantQ.Rows))
	}

	// Consistency audit merges across shards.
	rep, err := db.CheckConsistency("Gvw", 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 || rep.Entries != n {
		t.Fatalf("consistency: %+v", rep)
	}
}

func TestQueryRefusals(t *testing.T) {
	db := openSharded(t, 2)
	if _, err := fixtures.PopulateGeometryOn(db, 8, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("range c: Cuboid retrieve avg(c.volume)", nil); !errors.Is(err, shard.ErrNotCombinable) {
		t.Fatalf("avg: got %v, want ErrNotCombinable", err)
	}
	if _, err := db.Query("range c: Cuboid materialize c.volume", nil); !errors.Is(err, shard.ErrNotReadOnly) {
		t.Fatalf("materialize stmt: got %v, want ErrNotReadOnly", err)
	}
}

func TestMultiPartitionedArgsRefused(t *testing.T) {
	db := openSharded(t, 2)
	g, err := fixtures.PopulateGeometryOn(db, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	// Robots are replicated: Cuboid x Robot materializes shard-locally.
	if err := db.Materialize(gomdb.MaterializeOptions{
		Name: "Gdist", Funcs: []string{"Cuboid.distance"},
		Complete: true, Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Dematerialize("Gdist"); err != nil {
		t.Fatal(err)
	}
	// A routed robot makes Robot a partitioned type: two partitioned
	// argument extensions cannot be crossed.
	pos, err := db.NewOn(0, "Vertex", gomdb.Float(0), gomdb.Float(0), gomdb.Float(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewOn(0, "Robot", gomdb.Str("routed"), gomdb.Ref(pos)); err != nil {
		t.Fatal(err)
	}
	err = db.Materialize(gomdb.MaterializeOptions{
		Name: "Gdist2", Funcs: []string{"Cuboid.distance"},
		Complete: true, Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	})
	if !errors.Is(err, shard.ErrPartitionedArgs) {
		t.Fatalf("two partitioned args: got %v, want ErrPartitionedArgs", err)
	}
}

func TestBatchRouting(t *testing.T) {
	db := openSharded(t, 3)
	g, err := fixtures.PopulateGeometryOn(db, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	materializeStandard(t, db.Materialize)
	target := g.Cuboids[0]
	err = db.Batch(func(tx *shard.Tx) error {
		if err := tx.Set(target, "Value", gomdb.Float(999)); err != nil {
			return err
		}
		// A create inside the batch routes by affinity.
		v, err := tx.GetAttr(target, "V1")
		if err != nil {
			return err
		}
		if _, err := tx.New("Robot", gomdb.Str("batchbot"), v); err != nil {
			return err
		}
		// And a cross-shard write inside the batch is still refused.
		other := gomdb.OID(0)
		for _, c := range g.Cuboids {
			o1, _ := tx.Owner(c)
			o2, _ := tx.Owner(target)
			if o1 != o2 {
				other = c
				break
			}
		}
		if other != 0 {
			ov, err := tx.GetAttr(other, "V1")
			if err != nil {
				return err
			}
			if err := tx.Set(target, "V2", ov); !errors.Is(err, shard.ErrCrossShardRef) {
				return fmt.Errorf("batch cross-shard Set: got %v", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.GetAttr(target, "Value")
	if err != nil || v.F != 999 {
		t.Fatalf("batch write lost: %v, %v", v, err)
	}
	// The batch was a flush point: the deferred Gdist GMR is quiescent and
	// consistent on every shard.
	rep, err := db.CheckConsistency("Gdist", 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("post-batch consistency: %v", rep.Violations)
	}
}
