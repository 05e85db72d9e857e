package gomdb_test

// Tests of trace-driven object clustering: the Recluster pass must preserve
// every materialized result and the directory <-> heap correspondence, and on
// a durable database a crash between Recluster and the next checkpoint must
// recover the old layout while a crash after the checkpoint recovers the
// clustered one — never a mix of the two.

import (
	"reflect"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
)

func materializeGvw(t *testing.T, db *gomdb.Database, strategy gomdb.Strategy) {
	t.Helper()
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Name: "Gvw", Funcs: []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true, Strategy: strategy, Mode: gomdb.ModeObjDep,
	}); err != nil {
		t.Fatalf("materialize: %v", err)
	}
}

func allVolumes(t *testing.T, db *gomdb.Database, cuboids []gomdb.OID) []float64 {
	t.Helper()
	out := make([]float64, len(cuboids))
	for i, c := range cuboids {
		out[i] = mustVolume(t, db, c)
	}
	return out
}

func TestReclusterPreservesResultsAndDirectory(t *testing.T) {
	for _, strategy := range []gomdb.Strategy{gomdb.Immediate, gomdb.Lazy, gomdb.Deferred} {
		t.Run(strategy.String(), func(t *testing.T) {
			db := gomdb.Open(gomdb.DefaultConfig())
			if err := fixtures.DefineGeometry(db, false); err != nil {
				t.Fatal(err)
			}
			geo, err := fixtures.PopulateGeometry(db, 20, 42)
			if err != nil {
				t.Fatal(err)
			}
			materializeGvw(t, db, strategy)
			before := allVolumes(t, db, geo.Cuboids)

			rep, err := db.Recluster()
			if err != nil {
				t.Fatalf("recluster: %v", err)
			}
			if rep.Objects != db.Objects.NumObjects() {
				t.Fatalf("report places %d objects, base holds %d", rep.Objects, db.Objects.NumObjects())
			}
			if rep.Traces == 0 || rep.HotObjects == 0 || rep.Edges == 0 {
				t.Fatalf("materialization left no usable traces: %+v", rep)
			}
			if rep.Moved == 0 {
				t.Fatalf("reclustering a populated base moved nothing: %+v", rep)
			}
			if msgs := db.Objects.AuditDirectory(); len(msgs) != 0 {
				t.Fatalf("directory audit after recluster: %v", msgs)
			}
			after := allVolumes(t, db, geo.Cuboids)
			if !reflect.DeepEqual(before, after) {
				t.Fatal("reclustering changed materialized results")
			}
			crep, err := db.CheckConsistency("Gvw", 1e-9, true)
			if err != nil {
				t.Fatal(err)
			}
			if crep.Err() != nil {
				t.Fatalf("GMR inconsistent after recluster: %+v", crep)
			}
			// A second pass over the already-clustered base is a no-op
			// placement-wise (same traces, same order) and must stay clean.
			if _, err := db.Recluster(); err != nil {
				t.Fatalf("second recluster: %v", err)
			}
			if msgs := db.Objects.AuditDirectory(); len(msgs) != 0 {
				t.Fatalf("directory audit after second recluster: %v", msgs)
			}
		})
	}
}

func TestReclusterAccessStats(t *testing.T) {
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	if _, err := fixtures.PopulateGeometry(db, 10, 7); err != nil {
		t.Fatal(err)
	}
	materializeGvw(t, db, gomdb.Immediate)
	st := &db.GMRs.Stats
	if st.ForwardTraces == 0 || st.TraceObjects == 0 || st.TracePages == 0 {
		t.Fatalf("trace counters not populated: traces=%d objects=%d pages=%d",
			st.ForwardTraces, st.TraceObjects, st.TracePages)
	}
	per := db.GMRs.GMRAccessStats()
	g, ok := per["Gvw"]
	if !ok {
		t.Fatalf("no per-GMR access stats for Gvw: %v", per)
	}
	// Two columns per cuboid entry.
	if g.Traces != 20 {
		t.Fatalf("Gvw traces = %d, want 20", g.Traces)
	}
	if g.TraceObjects < g.Traces || g.DistinctPages < g.Traces {
		t.Fatalf("implausible access stats: %+v", g)
	}
	// Dropping the GMR drops its traces and stats.
	if err := db.Dematerialize("Gvw"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.GMRs.GMRAccessStats()["Gvw"]; ok {
		t.Fatal("dematerialize left access stats behind")
	}
	if db.GMRs.TraceCount() != 0 {
		t.Fatalf("dematerialize left %d traces behind", db.GMRs.TraceCount())
	}
}

func TestReclusterDurableCrashBeforeCheckpointRecoversOldLayout(t *testing.T) {
	dir := t.TempDir()
	db, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	geo, err := fixtures.PopulateGeometry(db, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	materializeGvw(t, db, gomdb.Lazy)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oldDir := db.Objects.ExportDirectory()
	want := allVolumes(t, db, geo.Cuboids)

	rep, err := db.Recluster()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved == 0 {
		t.Fatalf("recluster moved nothing: %+v", rep)
	}
	// Crash WITHOUT checkpointing the relocation: recovery must come back in
	// the pre-relocation layout — consistent, never a mix.
	db.Crash()
	db2, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	gotDir := db2.Objects.ExportDirectory()
	if !reflect.DeepEqual(oldDir.RIDs, gotDir.RIDs) {
		t.Fatal("recovery did not restore the pre-relocation directory")
	}
	if msgs := db2.Objects.AuditDirectory(); len(msgs) != 0 {
		t.Fatalf("directory audit after recovery: %v", msgs)
	}
	if got := allVolumes(t, db2, geo.Cuboids); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered base computes different volumes")
	}
}

func TestReclusterDurableCheckpointCommitsClusteredLayout(t *testing.T) {
	dir := t.TempDir()
	db, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	geo, err := fixtures.PopulateGeometry(db, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	materializeGvw(t, db, gomdb.Lazy)
	rep, err := db.Recluster()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved == 0 {
		t.Fatalf("recluster moved nothing: %+v", rep)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	newDir := db.Objects.ExportDirectory()
	want := allVolumes(t, db, geo.Cuboids)

	db.Crash()
	db2, err := gomdb.OpenAt(durableConfig(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	gotDir := db2.Objects.ExportDirectory()
	if !reflect.DeepEqual(newDir.RIDs, gotDir.RIDs) {
		t.Fatal("recovery did not restore the clustered directory")
	}
	if msgs := db2.Objects.AuditDirectory(); len(msgs) != 0 {
		t.Fatalf("directory audit after recovery: %v", msgs)
	}
	if got := allVolumes(t, db2, geo.Cuboids); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered base computes different volumes")
	}
}

// TestReclusterOnCheckpointConfig: a checkpoint-time pass is two explicit
// calls, Recluster then Checkpoint.
func TestReclusterOnCheckpointConfig(t *testing.T) {
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	geo, err := fixtures.PopulateGeometry(db, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	materializeGvw(t, db, gomdb.Immediate)
	want := allVolumes(t, db, geo.Cuboids)
	before := db.Objects.ExportDirectory()
	if _, err := db.Recluster(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint on an in-memory database persists nothing.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := db.Objects.ExportDirectory()
	if reflect.DeepEqual(before.RIDs, after.RIDs) {
		t.Fatal("Recluster + Checkpoint did not relocate anything")
	}
	if msgs := db.Objects.AuditDirectory(); len(msgs) != 0 {
		t.Fatalf("directory audit: %v", msgs)
	}
	if got := allVolumes(t, db, geo.Cuboids); !reflect.DeepEqual(got, want) {
		t.Fatal("checkpoint-time reclustering changed results")
	}
}
