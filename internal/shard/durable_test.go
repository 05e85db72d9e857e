package shard_test

import (
	"errors"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/shard"
)

func durableShardConfig(path string, n int) shard.Config {
	ecfg := gomdb.DefaultConfig()
	ecfg.Path = path
	ecfg.BufferPages = 4096
	ecfg.DefineSchema = func(db *gomdb.Database) error {
		return fixtures.DefineGeometry(db, false)
	}
	return shard.Config{Shards: n, Engine: ecfg}
}

// TestDurableShardedReopen: a durable sharded database survives a clean
// close — the reopened router rebuilds its routing table from the per-shard
// recovered state (owners, replicas), the data and GMRs come back, and the
// allocator is seeded past every recovered OID so new creates get fresh ids.
func TestDurableShardedReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := shard.OpenAt(durableShardConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometryOn(db, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	materializeStandard(t, db.Materialize)
	type owned struct {
		oid gomdb.OID
		sh  int
		vol float64
	}
	var want []owned
	var maxOID gomdb.OID
	for _, c := range g.Cuboids {
		sh, ok := db.Owner(c)
		if !ok {
			t.Fatalf("cuboid %v unowned", c)
		}
		v, err := db.Call("Cuboid.volume", gomdb.Ref(c))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, owned{c, sh, v.F})
		if c > maxOID {
			maxOID = c
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := shard.OpenAt(durableShardConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, w := range want {
		sh, ok := db2.Owner(w.oid)
		if !ok || sh != w.sh {
			t.Fatalf("cuboid %v owner after reopen = %d,%v, want %d", w.oid, sh, ok, w.sh)
		}
		v, err := db2.Call("Cuboid.volume", gomdb.Ref(w.oid))
		if err != nil {
			t.Fatal(err)
		}
		if v.F != w.vol {
			t.Fatalf("volume(%v) after reopen = %v, want %v", w.oid, v.F, w.vol)
		}
	}
	// Replicated reference data is recognized as replicated (present on every
	// shard under the same OID).
	for _, m := range g.MaterialO {
		if sh, ok := db2.Owner(m); !ok || sh != -1 {
			t.Fatalf("material %v after reopen: owner %d,%v, want replicated", m, sh, ok)
		}
	}
	// A post-reopen create draws a fresh OID past everything recovered.
	v0, err := db2.GetAttr(g.Cuboids[0], "V1")
	if err != nil {
		t.Fatal(err)
	}
	oid, err := db2.New("Robot", gomdb.Str("reborn"), v0)
	if err != nil {
		t.Fatal(err)
	}
	if oid <= maxOID {
		t.Fatalf("post-reopen create got OID %v, want > %v", oid, maxOID)
	}
	rep, err := db2.CheckConsistency("Gvw", 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 || rep.Invalid != 0 {
		t.Fatalf("Gvw inconsistent after reopen: %+v", rep)
	}

	// Reopening with a different shard count is refused.
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.OpenAt(durableShardConfig(dir, 3)); !errors.Is(err, shard.ErrShardCountMismatch) {
		t.Fatalf("reopen with 3 shards: got %v, want ErrShardCountMismatch", err)
	}
}

// TestDurableShardedCrashRecovery: after a hard crash, every shard recovers
// to its own last checkpoint, uncheckpointed work is lost, and the rebuilt
// routing table and allocator reflect what actually survived.
func TestDurableShardedCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := shard.OpenAt(durableShardConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometryOn(db, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	materializeStandard(t, db.Materialize)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointed := len(g.Cuboids)
	// Uncheckpointed work: more cuboid graphs after the checkpoint.
	for i := 0; i < 4; i++ {
		g.CreateRandomCuboid()
	}
	lost := g.Cuboids[checkpointed:]
	db.Crash()

	db2, err := shard.OpenAt(durableShardConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, c := range g.Cuboids[:checkpointed] {
		if _, ok := db2.Owner(c); !ok {
			t.Fatalf("checkpointed cuboid %v lost in crash", c)
		}
	}
	for _, c := range lost {
		if _, ok := db2.Owner(c); ok {
			t.Fatalf("uncheckpointed cuboid %v survived crash", c)
		}
	}
	rep, err := db2.CheckConsistency("Gvw", 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 || rep.Invalid != 0 {
		t.Fatalf("Gvw inconsistent after crash recovery: %+v", rep)
	}
	// The allocator was re-seeded from recovered state: a new create must
	// not collide with any surviving OID.
	v0, err := db2.GetAttr(g.Cuboids[0], "V1")
	if err != nil {
		t.Fatal(err)
	}
	oid, err := db2.New("Robot", gomdb.Str("phoenix"), v0)
	if err != nil {
		t.Fatal(err)
	}
	if sh, ok := db2.Owner(oid); !ok || sh == -1 {
		t.Fatalf("post-crash create %v owner %d,%v", oid, sh, ok)
	}
}
