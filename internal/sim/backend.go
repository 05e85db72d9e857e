package sim

import (
	"fmt"

	"gomdb"
	"gomdb/internal/shard"
)

// mutator is the update half of the backend seam: the surface a workload op
// needs, served either at top level (per-op locking and routing) or by the
// handle of one open batch, so the same fixture code applies an op at top
// level and inside a batch body. Placement is part of it because the router
// needs it: a new graph goes to the shard its key hashes to (ShardFor), is
// created there object by object (NewOn), and a transient argument object is
// put next to its receiver (Owner). A single engine has one place, 0.
// *shard.DB and *shard.Tx serve it, and shard.Single serves it for one
// engine and for its batch.
type mutator interface {
	ShardFor(key uint64) int
	NewOn(sh int, typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
	Delete(oid gomdb.OID) error
	Set(oid gomdb.OID, attr string, v gomdb.Value) error
	GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error)
	Call(fn string, args ...gomdb.Value) (gomdb.Value, error)
	// Owner reports where oid lives and whether it is live at all.
	Owner(oid gomdb.OID) (int, bool)
}

// placer is the top-level mutator, which can also replicate: what a fixture
// populates its base through (it is a shard.Placement).
type placer interface {
	mutator
	NewReplicated(typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
}

// backend is the engine under test: one *gomdb.Database or the *shard.DB
// router. The upper-case methods are the surface the two already share
// verbatim — both implementations get them by embedding — and the lower-case
// ones are everything that genuinely differs between them. (That split is
// the measured input for ROADMAP item 5's facade: eleven methods need no
// adapter, nine do.)
type backend interface {
	Call(fn string, args ...gomdb.Value) (gomdb.Value, error)
	Dematerialize(name string) error
	Flush() error
	Checkpoint() error
	Crash()
	Backward(fid string, lb, ub float64) ([]gomdb.Match, error)
	Sum(fid string, oids []gomdb.OID) (float64, error)
	Retrieve(gmrName string, spec []gomdb.FieldSpec) ([]gomdb.Row, error)
	Recluster() (*gomdb.ReclusterReport, error)
	Extension(typeName string) []gomdb.OID
	// Snapshot is the simulated-cost snapshot, summed over the engines.
	Snapshot() gomdb.Clock

	materialize(opts gomdb.MaterializeOptions) error
	// direct is the per-op mutation handle, which also populates the
	// fixture; batch runs fn on the handle of one update batch (one critical
	// section, one flush + checkpoint point at its end).
	direct() placer
	batch(fn func(mutator)) error
	// engines lists the engine instances in index order: what GC, the
	// broken-invalidation hook and fault clearing iterate over.
	engines() []*gomdb.Database
	// target picks the one engine a fault window or a mid-checkpoint cut is
	// armed on — selector x mod the engine count — and the fragment that
	// names it in the trace line.
	target(x int) (*gomdb.Database, string)
	// view pins an MVCC snapshot of the whole backend, or returns nil and
	// the trace detail saying why there is none.
	view() (*gomdb.SnapshotView, string)
	// audit runs every invariant auditor at a quiescent point.
	audit() []string
	// scope is appended to the census of an "audit ok" line.
	scope() string
	// recovered describes a crash recovery, given the fixture's census.
	recovered(noun string, n int) string
}

// openBackend opens the engine one run — or one post-crash recovery —
// executes against: cfg.Shards picks the implementation, dir != "" makes it
// file-backed. define installs the fixture's schema on one engine; durable
// opens hand it to Config.DefineSchema so recovery can fingerprint-check it.
func openBackend(cfg EngineConfig, dir string, define func(*gomdb.Database) error) (backend, error) {
	gc := gomdb.Config{
		BufferPages:  cfg.BufferPages,
		BufferShards: cfg.BufferShards,
	}
	if dir != "" {
		gc.Path, gc.DefineSchema = dir, define
	}
	if cfg.Shards > 0 {
		scfg := shard.Config{Shards: cfg.Shards, Engine: gc}
		if dir != "" {
			db, err := shard.OpenAt(scfg)
			if err != nil {
				return nil, err
			}
			return routed{db}, nil
		}
		db := shard.Open(scfg)
		if err := db.EachShard(func(_ int, sh *gomdb.Database) error { return define(sh) }); err != nil {
			return nil, fmt.Errorf("schema: %w", err)
		}
		return routed{db}, nil
	}
	if dir != "" {
		db, err := gomdb.OpenAt(gc)
		if err != nil {
			return nil, err
		}
		return single{db}, nil
	}
	db := gomdb.Open(gc)
	if err := define(db); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	return single{db}, nil
}

// single is the one-engine backend.
type single struct{ *gomdb.Database }

func (s single) direct() placer { return shard.Single(s.Database) }

func (s single) materialize(opts gomdb.MaterializeOptions) error {
	_, err := s.Materialize(opts)
	return err
}

func (s single) batch(fn func(mutator)) error {
	return s.Batch(func(tx *gomdb.Tx) error {
		fn(shard.Single(tx))
		return nil
	})
}

func (s single) engines() []*gomdb.Database           { return []*gomdb.Database{s.Database} }
func (s single) target(int) (*gomdb.Database, string) { return s.Database, "" }
func (s single) audit() []string                      { return Audit(s.Database) }
func (s single) scope() string                        { return "" }

func (s single) view() (*gomdb.SnapshotView, string) { return s.SnapshotView(), "" }

func (s single) recovered(string, int) string {
	info := s.Recovery
	if info == nil || !info.Recovered {
		return "fresh"
	}
	return fmt.Sprintf("objs=%d gmrs=%d pend=%d wal=%d torn=%d",
		info.ObjectsRestored, info.GMRsRebuilt, info.PendingDiscarded,
		info.WALPagesReplayed, info.TornPagesRepaired)
}

// routed is the scatter-gather router over cfg.Shards engines.
type routed struct{ *shard.DB }

func (r routed) direct() placer { return r.DB }

func (r routed) materialize(opts gomdb.MaterializeOptions) error { return r.Materialize(opts) }

func (r routed) batch(fn func(mutator)) error {
	return r.Batch(func(tx *shard.Tx) error {
		fn(tx)
		return nil
	})
}

func (r routed) engines() []*gomdb.Database {
	out := make([]*gomdb.Database, r.Shards())
	for i := range out {
		out[i] = r.Shard(i)
	}
	return out
}

func (r routed) target(x int) (*gomdb.Database, string) {
	sh := x % r.Shards()
	return r.Shard(sh), fmt.Sprintf("shard %d ", sh)
}

// The router has no cross-shard snapshot view; per-shard MVCC is exercised
// through the engines' own suites.
func (r routed) view() (*gomdb.SnapshotView, string) { return nil, "skip (sharded)" }

func (r routed) audit() []string { return AuditSharded(r.DB) }
func (r routed) scope() string   { return fmt.Sprintf(", %d shards", r.Shards()) }

func (r routed) recovered(noun string, n int) string { return fmt.Sprintf("%s=%d", noun, n) }
