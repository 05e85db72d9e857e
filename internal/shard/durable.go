package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"gomdb"
	"gomdb/internal/object"
	"gomdb/internal/storage"
)

// Durable layout: Config.Engine.Path is the router root. Shard i keeps its
// page store under <root>/shard-<i>/, and the router persists its own small
// metadata file at <root>/router.json (storage.ReplaceFile: fsynced tmp,
// rename, fsynced directory — after a power loss it is either the old or the
// complete new version, never empty). There is no cross-shard atomic
// commit: every shard commits independently, and a crash mid-fan-out leaves
// the shards at different commit horizons. Recovery tolerates that — each
// shard replays to its own last commit, and the router rebuilds its routing
// table from what actually survived — but a multi-shard batch is NOT atomic
// across a crash, only per shard. (A
// two-phase commit across shards is the served-process tier's problem;
// within one process the paper's recovery unit is the engine.)
//
// What a crash may expose, rule by rule (ROADMAP 5(d); this list grows as
// the sim audits more of it):
//
//  1. A GMR exists on the router iff it exists on ALL shards. Materialize
//     and Dematerialize fan out shard by shard with a commit each, so a
//     crash mid-fan-out recovers the GMR on shards 0..k only; OpenAt drops
//     it from those (dropPartialGMRs) and the materialization is simply
//     lost, like any work after the last commit. Without the rule every
//     later fan-out on that name fails half-way, forever.
//
// OID safety across crashes does not depend on router.json freshness: on
// reopen the allocator is seeded past both the persisted floor and the
// maximum OID actually recovered on any shard, so an OID persisted by a
// shard commit that outran the last metadata write is never reissued.

const metaVersion = 1

type routerMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	// NextOID is the allocator floor at the last metadata write.
	NextOID uint64 `json:"next_oid"`
	// Partitioned lists type names with routed instances (sorted, for
	// deterministic files).
	Partitioned []string `json:"partitioned,omitempty"`
}

func (db *DB) shardPath(i int) string {
	return filepath.Join(db.path, fmt.Sprintf("shard-%d", i))
}

func (db *DB) metaPath() string { return filepath.Join(db.path, "router.json") }

// prepareDirs validates an existing router directory (shard count must
// match) or lays out a fresh one.
func (db *DB) prepareDirs(n int) error {
	if raw, err := os.ReadFile(db.metaPath()); err == nil {
		var meta routerMeta
		if err := json.Unmarshal(raw, &meta); err != nil {
			return fmt.Errorf("shard: corrupt router.json: %w", err)
		}
		if meta.Version != metaVersion {
			return fmt.Errorf("shard: router.json version %d, want %d", meta.Version, metaVersion)
		}
		if meta.Shards != n {
			return fmt.Errorf("%w: directory has %d, Config.Shards is %d", ErrShardCountMismatch, meta.Shards, n)
		}
		db.alloc.seed(object.OID(meta.NextOID))
		for _, tn := range meta.Partitioned {
			db.partitioned[tn] = true
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(db.shardPath(i), 0o755); err != nil {
			return err
		}
	}
	return nil
}

// saveMeta persists the routing metadata under the read lock; a no-op on an
// in-memory router.
func (db *DB) saveMeta() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.saveMetaLocked()
}

// saveMetaLocked replaces router.json atomically and durably. Caller holds
// db.mu (read or write). In-memory routers skip it.
func (db *DB) saveMetaLocked() error {
	if db.path == "" {
		return nil
	}
	meta := routerMeta{
		Version: metaVersion,
		Shards:  len(db.shards),
		NextOID: uint64(db.alloc.PeekOID()),
	}
	for tn := range db.partitioned {
		meta.Partitioned = append(meta.Partitioned, tn)
	}
	sort.Strings(meta.Partitioned)
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return storage.ReplaceFile(db.path, "router.json", raw)
}

// recoverRouting rebuilds the owner table after the shards have recovered:
// every shard's live OID set is scanned (a charge-free directory walk — no
// pages are touched), an OID present on more than one shard is a replica,
// and one present on exactly one shard is owned by it. The allocator is
// then seeded past the maximum recovered OID, so even a shard commit that
// outran the last router.json write cannot cause an OID to be reissued.
func (db *DB) recoverRouting() error {
	counts := make(map[gomdb.OID]int)
	last := make(map[gomdb.OID]int)
	var maxOID gomdb.OID
	for i, sh := range db.shards {
		for _, oid := range sh.Objects.AllOIDs() {
			counts[oid]++
			last[oid] = i
			if oid > maxOID {
				maxOID = oid
			}
		}
	}
	for oid, n := range counts {
		if n > 1 {
			db.owner[oid] = replicated
		} else {
			db.owner[oid] = last[oid]
		}
	}
	db.alloc.seed(object.OID(maxOID) + 1)
	return nil
}

// dropPartialGMRs enforces rule 1 of the file header after the shards have
// recovered: a GMR some shard lacks is dematerialized on the shards that have
// it (a commit point each, so the drop itself survives the next crash).
func (db *DB) dropPartialGMRs() error {
	on := make(map[string]int)
	for _, sh := range db.shards {
		for _, name := range sh.GMRs.GMRs() {
			on[name]++
		}
	}
	for i, sh := range db.shards {
		for _, name := range sh.GMRs.GMRs() {
			if on[name] == len(db.shards) {
				continue
			}
			if err := sh.Dematerialize(name); err != nil {
				return fmt.Errorf("shard %d: dropping partially recovered GMR %s: %w", i, name, err)
			}
		}
	}
	return nil
}

// OpenAt opens (or creates) a durable sharded database rooted at
// Config.Engine.Path, running each shard's recovery in shard order, dropping
// GMRs that did not survive on every shard, and then rebuilding the routing
// table from the recovered state.
func OpenAt(cfg Config) (*DB, error) {
	if cfg.Engine.Path == "" {
		return nil, fmt.Errorf("shard: OpenAt requires Config.Engine.Path")
	}
	if err := os.MkdirAll(cfg.Engine.Path, 0o755); err != nil {
		return nil, err
	}
	return open(cfg)
}
