package gomdb_test

// Tests of the durable backend: open/close/reopen round trips, crash
// semantics (uncheckpointed work is lost, checkpointed work survives),
// recovery-by-rematerialization, the deferred-queue staleness regression,
// schema fingerprint verification, and charge parity (durability must never
// change the simulated cost accounting).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/storage"
)

func durableConfig(path string) gomdb.Config {
	cfg := gomdb.DefaultConfig()
	cfg.Path = path
	cfg.DefineSchema = func(db *gomdb.Database) error {
		return fixtures.DefineGeometry(db, false)
	}
	return cfg
}

func mustVolume(t *testing.T, db *gomdb.Database, c gomdb.OID) float64 {
	t.Helper()
	v, err := db.Call("Cuboid.volume", gomdb.Ref(c))
	if err != nil {
		t.Fatalf("Cuboid.volume: %v", err)
	}
	return v.F
}

func TestDurableOpenCloseReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("OpenAt fresh: %v", err)
	}
	geo, err := fixtures.PopulateGeometry(db, 8, 42)
	if err != nil {
		t.Fatalf("populate: %v", err)
	}
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Name: "Gvw", Funcs: []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true, Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	c0 := geo.Cuboids[0]
	wantVol := mustVolume(t, db, c0)
	wantObjs := db.Objects.NumObjects()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("OpenAt reopen: %v", err)
	}
	defer db2.Close()
	if db2.Recovery == nil || !db2.Recovery.Recovered {
		t.Fatal("reopen did not report recovery")
	}
	if db2.Recovery.GMRsRebuilt != 1 {
		t.Fatalf("GMRsRebuilt = %d, want 1", db2.Recovery.GMRsRebuilt)
	}
	if got := db2.Objects.NumObjects(); got != wantObjs {
		t.Fatalf("objects after reopen = %d, want %d", got, wantObjs)
	}
	if _, ok := db2.GMRs.Get("Gvw"); !ok {
		t.Fatal("GMR Gvw not rebuilt")
	}
	if got := mustVolume(t, db2, c0); got != wantVol {
		t.Fatalf("volume after reopen = %v, want %v", got, wantVol)
	}
	rep, err := db2.CheckConsistency("Gvw", 1e-9, true)
	if err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	if rep.Err() != nil {
		t.Fatalf("rebuilt GMR inconsistent: %+v", rep)
	}
}

func TestDurableCrashLosesOnlyUncheckpointedWork(t *testing.T) {
	dir := t.TempDir()
	db, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	geo, err := fixtures.PopulateGeometry(db, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	c0 := geo.Cuboids[0]
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, err := db.GetAttr(c0, "Value")
	if err != nil {
		t.Fatal(err)
	}

	// A bare Set is not a checkpoint point: the update must vanish at a
	// crash...
	if err := db.Set(c0, "Value", gomdb.Float(before.F+1000)); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	db2, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	got, err := db2.GetAttr(c0, "Value")
	if err != nil {
		t.Fatal(err)
	}
	if got.F != before.F {
		t.Fatalf("uncheckpointed update survived the crash: %v, want %v", got.F, before.F)
	}

	// ...while the same update inside a Batch (a checkpoint point) survives.
	if err := db2.Batch(func(tx *gomdb.Tx) error {
		return tx.Set(c0, "Value", gomdb.Float(before.F+1000))
	}); err != nil {
		t.Fatal(err)
	}
	db2.Crash()
	db3, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("reopen after second crash: %v", err)
	}
	defer db3.Close()
	got, err = db3.GetAttr(c0, "Value")
	if err != nil {
		t.Fatal(err)
	}
	if got.F != before.F+1000 {
		t.Fatalf("batched update lost: %v, want %v", got.F, before.F+1000)
	}
}

// Regression for the deferred-queue durability hazard: a crash while
// coalesced rematerializations are pending must not reopen into a database
// whose GMR entries are silently stale (valid flags set, values predating the
// updates). Recovery rebuilds GMRs from current attribute values, so the
// reopened entries must match a fresh recomputation and the queue must be
// empty.
func TestDurableCrashWithPendingDeferredEntries(t *testing.T) {
	dir := t.TempDir()
	db, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	geo, err := fixtures.PopulateGeometry(db, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Name: "Gvw", Funcs: []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true, Strategy: gomdb.Deferred, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
	c0 := geo.Cuboids[0]
	volBefore := mustVolume(t, db, c0)

	// Stretch the cuboid via a bare elementary update: the deferred GMR
	// enqueues the recomputation instead of performing it.
	v2, err := db.GetAttr(c0, "V2")
	if err != nil {
		t.Fatal(err)
	}
	x, err := db.GetAttr(v2.R, "X")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Set(v2.R, "X", gomdb.Float(x.F+50)); err != nil {
		t.Fatal(err)
	}
	if db.GMRs.PendingLen() == 0 {
		t.Fatal("test premise broken: no pending deferred entries after the update")
	}
	// Checkpoint with the queue non-empty (as a Materialize checkpoint
	// would), then crash before any flush.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pending := db.GMRs.PendingLen()
	db.Crash()

	db2, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if db2.Recovery == nil {
		t.Fatal("no recovery info")
	}
	if db2.Recovery.PendingDiscarded != pending {
		t.Fatalf("PendingDiscarded = %d, want %d", db2.Recovery.PendingDiscarded, pending)
	}
	if got := db2.GMRs.PendingLen(); got != 0 {
		t.Fatalf("reopened database has %d pending entries, want 0", got)
	}
	// The stretched volume must be served, not the pre-update value.
	gotVol := mustVolume(t, db2, c0)
	if gotVol == volBefore {
		t.Fatalf("reopened GMR serves the stale pre-update volume %v", gotVol)
	}
	rep, err := db2.CheckConsistency("Gvw", 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() != nil {
		t.Fatalf("reopened GMR inconsistent with recomputation: %+v", rep)
	}
}

func TestDurableSchemaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	db, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fixtures.PopulateGeometry(db, 4, 3); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := gomdb.DefaultConfig()
	cfg.Path = dir
	cfg.DefineSchema = func(db *gomdb.Database) error {
		return db.DefineType(gomdb.NewTupleType("Widget", gomdb.Attr("W", "float")))
	}
	_, err = gomdb.OpenAt(cfg)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("reopen with a different schema: err=%v, want fingerprint mismatch", err)
	}
}

// TestDurableCatalogMemoKeyIgnored: catalogs written while GMRs could enable
// a forward memo cache carry "memo":true on such entries. The key no longer
// means anything and encoding/json skips it, so the directory must still
// open, rebuild the GMR and pass the consistency audit.
func TestDurableCatalogMemoKeyIgnored(t *testing.T) {
	dir := t.TempDir()
	db, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	geo, err := fixtures.PopulateGeometry(db, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Name: "Gvw", Funcs: []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true, Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
	wantVol := mustVolume(t, db, geo.Cuboids[0])
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rewriteMeta(t, dir, func(blob []byte) []byte {
		out := bytes.Replace(blob, []byte(`"name":"Gvw",`), []byte(`"name":"Gvw","memo":true,`), 1)
		if bytes.Equal(out, blob) {
			t.Fatalf("catalog entry for Gvw not found in meta blob %s", blob)
		}
		return out
	})

	db2, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("OpenAt with a memo-flagged catalog: %v", err)
	}
	defer db2.Close()
	if db2.Recovery == nil || db2.Recovery.GMRsRebuilt != 1 {
		t.Fatalf("recovery = %+v, want one GMR rebuilt", db2.Recovery)
	}
	if got := mustVolume(t, db2, geo.Cuboids[0]); got != wantVol {
		t.Fatalf("volume after reopen = %v, want %v", got, wantVol)
	}
	rep, err := db2.CheckConsistency("Gvw", 1e-9, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("rebuilt GMR inconsistent: %v", err)
	}
}

// rewriteMeta replaces the engine metadata blob of a closed durable
// directory, keeping meta.gomdb's framing: file header, checkpoint sequence
// number, blob length, blob, and a CRC-32C over everything after the header.
func rewriteMeta(t *testing.T, dir string, edit func([]byte) []byte) {
	t.Helper()
	ps, img, err := storage.OpenPageStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join(dir, "meta.gomdb"))
	if err != nil {
		t.Fatal(err)
	}
	blob := edit(img.Meta)
	out := append([]byte(nil), old[:len(old)-(8+4+len(img.Meta)+4)]...)
	hdr := len(out)
	out = binary.LittleEndian.AppendUint64(out, img.Seq)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
	out = append(out, blob...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[hdr:], crc32.MakeTable(crc32.Castagnoli)))
	if err := storage.ReplaceFile(dir, "meta.gomdb", out); err != nil {
		t.Fatal(err)
	}
}

func TestDurableRestrictedGMRRefused(t *testing.T) {
	db, err := gomdb.OpenAt(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := fixtures.PopulateGeometry(db, 4, 3); err != nil {
		t.Fatal(err)
	}
	_, err = db.Materialize(gomdb.MaterializeOptions{
		Funcs:      []string{"Cuboid.volume"},
		Complete:   true,
		AtomicArgs: map[int]gomdb.ArgRestriction{0: {}},
	})
	if err == nil || !strings.Contains(err.Error(), "restricted") {
		t.Fatalf("restricted GMR on durable database: err=%v, want refusal", err)
	}
}

// A torn data-file write during a checkpoint apply surfaces the simulated
// crash, and recovery repairs the page from the WAL copy — landing on the
// committed (new) state, not the pre-image.
func TestDurableTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	geo, err := fixtures.PopulateGeometry(db, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Creating a cuboid inserts records into the objects heap: every touched
	// page's slotted header (at the page start, inside the half a torn write
	// replaces) changes, so the tear is guaranteed to corrupt the record
	// regardless of where on the page the new data landed.
	mat := geo.MaterialO[0]
	created := fixtures.NewCuboid(db, 9001, 1, 2, 3, 4, 5, 6, mat, 77)
	wantObjs := db.Objects.NumObjects()
	db.Disk.SetFaultPlan(storage.FaultPlan{Rules: []storage.FaultRule{
		{Op: storage.FaultTornWrite, File: "objects", After: 0, Count: 1},
	}})
	err = db.Checkpoint() // commits, then the checkpoint's data-file apply tears
	if !errors.Is(err, gomdb.ErrSimulatedCrash) {
		t.Fatalf("torn checkpoint: err=%v, want ErrSimulatedCrash", err)
	}
	if db.Disk.FaultsInjected() != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", db.Disk.FaultsInjected())
	}
	db.Crash()

	db2, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery after torn write: %v", err)
	}
	defer db2.Close()
	if db2.Recovery.TornPagesRepaired == 0 {
		t.Fatal("recovery did not detect and repair the torn page from the WAL")
	}
	if db2.Recovery.WALPagesReplayed == 0 {
		t.Fatal("recovery replayed no WAL pages despite the unfinished apply")
	}
	// The WAL batch committed before the torn apply, so the created cuboid
	// is durable.
	if got := db2.Objects.NumObjects(); got != wantObjs {
		t.Fatalf("objects after recovery = %d, want %d", got, wantObjs)
	}
	if v, err := db2.GetAttr(created, "Value"); err != nil || v.F != 77 {
		t.Fatalf("created cuboid not recovered: v=%v err=%v", v, err)
	}
}

// A page logged by one commit and freed before the next — a heap relocation
// releases the pages it moved objects off — is still in the WAL a crash
// between checkpoints leaves behind. Recovery replays its image but must not
// bring it back as a live heap page.
func TestDurableFreedPageNotResurrected(t *testing.T) {
	dir := t.TempDir()
	db, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	geo, err := fixtures.PopulateGeometry(db, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	materializeGvw(t, db, gomdb.Lazy) // a commit: the heap pages are logged
	_, before := db.Objects.DirectoryHeader()
	if rep, err := db.Recluster(); err != nil || rep.Moved == 0 {
		t.Fatalf("recluster: %+v %v", rep, err)
	}
	if err := db.Flush(); err != nil { // commits the relocation; no checkpoint
		t.Fatal(err)
	}
	_, after := db.Objects.DirectoryHeader()
	live := map[storage.PageID]bool{}
	for _, id := range after.Pages {
		live[id] = true
	}
	var freed []storage.PageID
	for _, id := range before.Pages {
		if !live[id] {
			freed = append(freed, id)
		}
	}
	if len(freed) == 0 {
		t.Fatal("the relocation freed no heap page")
	}
	want := allVolumes(t, db, geo.Cuboids)
	db.Crash()

	db2, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	if db2.Recovery.WALPagesReplayed == 0 {
		t.Fatal("recovery replayed no WAL pages although no checkpoint ran")
	}
	_, got := db2.Objects.DirectoryHeader()
	if !reflect.DeepEqual(got.Pages, after.Pages) {
		t.Fatalf("recovered heap pages %v, want the committed %v (freed %v)", got.Pages, after.Pages, freed)
	}
	if msgs := db2.Objects.AuditDirectory(); len(msgs) != 0 {
		t.Fatalf("directory audit after recovery: %v", msgs)
	}
	if vols := allVolumes(t, db2, geo.Cuboids); !reflect.DeepEqual(vols, want) {
		t.Fatal("recovered base computes different volumes")
	}
}

// Durability must be invisible to the simulated cost model: an identical
// workload charges bit-identical Clock counters with and without a durable
// store underneath.
func TestDurableChargeParity(t *testing.T) {
	workload := func(db *gomdb.Database) {
		t.Helper()
		geo, err := fixtures.PopulateGeometry(db, 10, 99)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Materialize(gomdb.MaterializeOptions{
			Name: "Gvw", Funcs: []string{"Cuboid.volume", "Cuboid.weight"},
			Complete: true, Strategy: gomdb.Deferred, Mode: gomdb.ModeObjDep,
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range geo.Cuboids {
			if i%2 == 0 {
				if err := db.Set(c, "Value", gomdb.Float(float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			mustVolume(t, db, c)
		}
		if err := db.Batch(func(tx *gomdb.Tx) error {
			v2, err := tx.GetAttr(geo.Cuboids[1], "V2")
			if err != nil {
				return err
			}
			return tx.Set(v2.R, "X", gomdb.Float(123))
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	memCfg := gomdb.DefaultConfig()
	memDB := gomdb.Open(memCfg)
	if err := fixtures.DefineGeometry(memDB, false); err != nil {
		t.Fatal(err)
	}
	workload(memDB)
	memClock := memDB.Snapshot()

	durDB, err := gomdb.OpenAt(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	workload(durDB)
	durClock := durDB.Snapshot()
	if err := durDB.Close(); err != nil {
		t.Fatal(err)
	}

	if memClock != durClock {
		t.Fatalf("durability changed the simulated cost accounting:\n  in-memory: %+v\n  durable:   %+v",
			memClock, durClock)
	}
}

// TestDurableDirectoryJournalAcrossCheckpoints drives the OID directory
// through many small checkpoints — creates and deletes, so extension order
// depends on swap-removal history — past the point where the journaled ops
// outnumber the live objects and a checkpoint compacts them into a fresh
// snapshot, then crashes with uncheckpointed work in flight. Recovery must
// replay exactly the ops of the deltas since that snapshot and land on the
// directory of the last checkpoint: same entries, same extension order.
func TestDurableDirectoryJournalAcrossCheckpoints(t *testing.T) {
	dir := t.TempDir()
	db, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	geo, err := fixtures.PopulateGeometry(db, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	materializeGvw(t, db, gomdb.Immediate)

	compactions, deltas := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 3; i++ {
			geo.CreateRandomCuboid()
		}
		for i := 0; i < 3; i++ {
			if err := geo.DeleteRandomCuboid(); err != nil {
				t.Fatal(err)
			}
		}
		pending, since := db.Objects.DirJournalStats()
		if pending == 0 {
			t.Fatalf("round %d: creates and deletes journaled nothing", round)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		switch gotPending, gotSince := db.Objects.DirJournalStats(); {
		case gotPending != 0:
			t.Fatalf("round %d: checkpoint left %d ops in the journal", round, gotPending)
		case gotSince == 0:
			compactions++
		case gotSince == since+pending:
			deltas++
		default:
			t.Fatalf("round %d: %d ops since the snapshot after shipping %d on top of %d", round, gotSince, pending, since)
		}
	}
	if compactions == 0 || deltas == 0 {
		t.Fatalf("%d compactions and %d delta checkpoints in 40 rounds: the test must see both", compactions, deltas)
	}
	// End on deltas, so recovery has ops to replay.
	for _, since := db.Objects.DirJournalStats(); since == 0; _, since = db.Objects.DirJournalStats() {
		geo.CreateRandomCuboid()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	_, wantOps := db.Objects.DirJournalStats()
	want := db.Objects.ExportDirectory()
	wantVolumes := allVolumes(t, db, geo.Cuboids)

	// Work after the last checkpoint dies with the crash.
	geo.CreateRandomCuboid()
	if err := db.Delete(geo.Cuboids[0]); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	db2, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	if got := db2.Recovery.DirOpsReplayed; got != wantOps {
		t.Fatalf("DirOpsReplayed = %d, want the %d ops shipped since the last snapshot", got, wantOps)
	}
	got := db2.Objects.ExportDirectory()
	if !reflect.DeepEqual(got.RIDs, want.RIDs) || !reflect.DeepEqual(got.Extents, want.Extents) || got.NextOID != want.NextOID {
		t.Fatal("recovered directory is not the last checkpoint's")
	}
	if _, since := db2.Objects.DirJournalStats(); since != wantOps {
		t.Fatalf("recovered journal counts %d ops since the snapshot, want %d", since, wantOps)
	}
	if msgs := db2.Objects.AuditDirectory(); len(msgs) != 0 {
		t.Fatalf("directory audit after recovery: %v", msgs)
	}
	rep, err := db2.CheckConsistency("Gvw", 1e-9, true)
	if err != nil || rep.Err() != nil {
		t.Fatalf("CheckConsistency after recovery: %v %+v", err, rep)
	}
	if got := allVolumes(t, db2, geo.Cuboids[:len(wantVolumes)]); !reflect.DeepEqual(got, wantVolumes) {
		t.Fatal("recovered base computes different volumes")
	}
}
