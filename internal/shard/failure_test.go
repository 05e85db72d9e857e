package shard_test

import (
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/shard"
	"gomdb/internal/storage"
)

// The engine stores a new object before it runs the type's new-object hooks
// and runs the forget hooks before it removes one, so create and delete can
// both return an error over an object that is alive. These tests make a GMR
// page write fail under exactly those hooks and check the routing table
// against what each shard actually holds.

// requireAllRouted fails unless every live object on every shard has a
// routing entry.
func requireAllRouted(t *testing.T, db *shard.DB) {
	t.Helper()
	db.EachShard(func(i int, sh *gomdb.Database) error {
		for _, oid := range sh.Objects.AllOIDs() {
			if _, ok := db.Owner(oid); !ok {
				t.Errorf("object %v lives on shard %d without a routing entry", oid, i)
			}
		}
		return nil
	})
}

// failGMRWrites arms a persistent write fault on shard sh's GMR pages.
func failGMRWrites(db *shard.DB, sh int) *storage.Disk {
	disk := db.Shard(sh).Disk
	disk.SetFaultPlan(storage.FaultPlan{Rules: []storage.FaultRule{{Op: storage.FaultWrite, File: "GMR:"}}})
	return disk
}

func TestCreateFailingAfterStoreIsRouted(t *testing.T) {
	for _, inBatch := range []bool{false, true} {
		db := openSharded(t, 2)
		g, err := fixtures.PopulateGeometryOn(db, 12, 5)
		if err != nil {
			t.Fatal(err)
		}
		materializeStandard(t, db.Materialize)
		own, _ := db.Owner(g.Cuboids[0])
		attrs := make([]gomdb.Value, 0, 11)
		for _, a := range []string{"V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8", "Mat", "Value"} {
			v, err := db.GetAttr(g.Cuboids[0], a)
			if err != nil {
				t.Fatal(err)
			}
			attrs = append(attrs, v)
		}
		attrs = append(attrs, gomdb.Int(1000))

		disk := failGMRWrites(db, own)
		if inBatch {
			db.Batch(func(tx *shard.Tx) error {
				_, err = tx.NewOn(own, "Cuboid", attrs...)
				return nil
			})
		} else {
			_, err = db.NewOn(own, "Cuboid", attrs...)
		}
		fired := disk.FaultsInjected()
		disk.ClearFaults()
		if err == nil || fired == 0 {
			t.Fatalf("inBatch=%v: the complete GMR's new-object hook did not hit the fault (err=%v, injected=%d)", inBatch, err, fired)
		}
		requireAllRouted(t, db)
	}
}

func TestDeleteFailingBeforeRemovalStaysRouted(t *testing.T) {
	for _, inBatch := range []bool{false, true} {
		db := openSharded(t, 2)
		g, err := fixtures.PopulateGeometryOn(db, 12, 5)
		if err != nil {
			t.Fatal(err)
		}
		materializeStandard(t, db.Materialize)
		victim := g.Cuboids[0]
		own, _ := db.Owner(victim)

		disk := failGMRWrites(db, own)
		if inBatch {
			db.Batch(func(tx *shard.Tx) error {
				err = tx.Delete(victim)
				return nil
			})
		} else {
			err = db.Delete(victim)
		}
		fired := disk.FaultsInjected()
		disk.ClearFaults()
		if err == nil || fired == 0 {
			t.Fatalf("inBatch=%v: the forget hook did not hit the fault (err=%v, injected=%d)", inBatch, err, fired)
		}
		if !db.Shard(own).Exists(victim) {
			t.Fatalf("inBatch=%v: the failed delete removed the object after all; pick another fault", inBatch)
		}
		requireAllRouted(t, db)
		// Still routed means still deletable once the disk is healthy.
		if err := db.Delete(victim); err != nil {
			t.Fatalf("inBatch=%v: retry after the fault cleared: %v", inBatch, err)
		}
		if _, ok := db.Owner(victim); ok {
			t.Fatalf("inBatch=%v: deleted object kept its routing entry", inBatch)
		}
	}
}

// TestPartialGMRDroppedOnReopen: Materialize fans out shard by shard with a
// checkpoint each. A crash after shard 0's checkpoint and inside shard 1's
// recovers the GMR on shard 0 alone; OpenAt must drop it there, or every
// later Materialize / Dematerialize of that name fails half-way.
func TestPartialGMRDroppedOnReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := shard.OpenAt(durableShardConfig(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fixtures.PopulateGeometryOn(db, 18, 9); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gvw := gomdb.MaterializeOptions{Name: "Gvw", Funcs: []string{"Cuboid.volume", "Cuboid.weight"}, Complete: true}
	db.Shard(1).TestingFailNextCheckpoint(0)
	if err := db.Materialize(gvw); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("materialize with shard 1's checkpoint cut: got %v, want a shard 1 error", err)
	}
	db.Crash()

	db, err = shard.OpenAt(durableShardConfig(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.EachShard(func(i int, sh *gomdb.Database) error {
		if _, ok := sh.GMRs.Get("Gvw"); ok {
			t.Errorf("shard %d recovered Gvw, which did not survive on every shard", i)
		}
		return nil
	})
	if err := db.Materialize(gvw); err != nil {
		t.Fatalf("materialize after recovery: %v", err)
	}
	rep, err := db.CheckConsistency("Gvw", 1e-9, true)
	if err != nil || len(rep.Violations) != 0 {
		t.Fatalf("Gvw after recovery: %v, %+v", err, rep)
	}
	if err := db.Dematerialize("Gvw"); err != nil {
		t.Fatalf("dematerialize after recovery: %v", err)
	}
}
