package shard

import (
	"fmt"

	"gomdb"
	"gomdb/internal/object"
)

// Write fan-outs run SEQUENTIALLY in shard-index order, never in parallel.
// This is a determinism requirement, not a simplification: deferred
// rematerialization allocates result objects from the shared OID allocator,
// so a parallel fan-out would interleave allocations nondeterministically
// and break the OID identity (and hence charge parity) across runs and
// shard counts. Each shard's call takes that shard's own write barrier; the
// other shards keep serving reads until their turn.

// Schema DDL replicates to every shard: each engine holds the full schema,
// so any shard can classify, dispatch, and compute any function over the
// objects it owns.

// DefineType registers a type on every shard.
func (db *DB) DefineType(t *gomdb.Type, publicNames ...string) error {
	for i, sh := range db.shards {
		if err := sh.DefineType(t, publicNames...); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// MustDefineType is DefineType, panicking on error.
func (db *DB) MustDefineType(t *gomdb.Type, publicNames ...string) {
	if err := db.DefineType(t, publicNames...); err != nil {
		panic(err)
	}
}

// DefineOp registers a type-associated operation on every shard.
func (db *DB) DefineOp(typeName, opName string, fn *gomdb.Function) error {
	for i, sh := range db.shards {
		if err := sh.DefineOp(typeName, opName, fn); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// MustDefineOp is DefineOp, panicking on error.
func (db *DB) MustDefineOp(typeName, opName string, fn *gomdb.Function) {
	if err := db.DefineOp(typeName, opName, fn); err != nil {
		panic(err)
	}
}

// DefineFunc registers a free function on every shard.
func (db *DB) DefineFunc(fn *gomdb.Function) error {
	for i, sh := range db.shards {
		if err := sh.DefineFunc(fn); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Materialize creates the GMR on every shard: each shard precomputes over
// the argument objects it owns, so the per-shard extensions partition the
// logical GMR and scatter queries union them without duplicates. At most
// one argument type may be partitioned — the cross product of two routed
// extensions would need argument combinations no single shard can see;
// replicate all but one argument extension instead (the geometry schema
// replicates robots so Cuboid×Robot materializes shard-locally).
func (db *DB) Materialize(opts gomdb.MaterializeOptions) error {
	if err := db.checkPartitionedArgs(opts); err != nil {
		return err
	}
	for i, sh := range db.shards {
		if _, err := sh.Materialize(opts); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// checkPartitionedArgs counts partitioned argument types of the functions to
// materialize (subtype extensions included — materialization ranges over
// them). Schema metadata is identical on every shard; shard 0's copy
// answers.
func (db *DB) checkPartitionedArgs(opts gomdb.MaterializeOptions) error {
	sch := db.shards[0].Schema
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, fname := range opts.Funcs {
		var fn *gomdb.Function
		if i := indexByte(fname, '.'); i >= 0 {
			f, ok := sch.ResolveOp(fname[:i], fname[i+1:])
			if !ok {
				continue // Materialize itself reports the unknown function
			}
			fn = f
		} else {
			f, ok := sch.ResolveStatic(fname)
			if !ok {
				continue
			}
			fn = f
		}
		routed := 0
		for _, pt := range fn.ParamTypes() {
			for _, tn := range sch.Reg.WithSubtypes(pt) {
				if db.partitioned[tn] {
					routed++
					break
				}
			}
		}
		if routed > 1 {
			return fmt.Errorf("%w: %s", ErrPartitionedArgs, fname)
		}
	}
	return nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Dematerialize drops the named GMR on every shard.
func (db *DB) Dematerialize(name string) error {
	for i, sh := range db.shards {
		if err := sh.Dematerialize(name); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Flush drains every shard's deferred-rematerialization queue in shard
// order (a commit point per shard on durable databases). The router
// metadata is saved first so recovery never sees a shard commit whose OIDs
// outrun the router's allocator floor.
func (db *DB) Flush() error {
	if err := db.saveMeta(); err != nil {
		return err
	}
	for i, sh := range db.shards {
		if err := sh.Flush(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Checkpoint makes every shard's state durable and checkpoints it: the
// router metadata (allocator floor, partitioned types) commits first, then
// each shard commits and checkpoints in shard order. There is no cross-shard
// atomic commit — a crash mid-fan-out leaves shards at different commit
// horizons, which recovery tolerates (see durable.go).
func (db *DB) Checkpoint() error {
	if err := db.saveMeta(); err != nil {
		return err
	}
	for i, sh := range db.shards {
		if err := sh.Checkpoint(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Recluster runs the trace-driven clustering pass on every shard, returning
// the merged relocation report.
func (db *DB) Recluster() (*gomdb.ReclusterReport, error) {
	merged := &gomdb.ReclusterReport{}
	for i, sh := range db.shards {
		r, err := sh.Recluster()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		merged.Objects += r.Objects
		merged.Moved += r.Moved
		merged.HotObjects += r.HotObjects
		merged.Hubs += r.Hubs
		merged.Chains += r.Chains
		merged.Edges += r.Edges
		merged.Traces += r.Traces
		merged.PagesBefore += r.PagesBefore
		merged.PagesAfter += r.PagesAfter
	}
	return merged, nil
}

// Close flushes and closes every shard (router metadata first).
func (db *DB) Close() error {
	err := db.saveMeta()
	for i, sh := range db.shards {
		if cerr := sh.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("shard %d: %w", i, cerr)
		}
	}
	return err
}

// Crash abandons every shard's durable store without committing — the
// whole-process crash. Durable state stays at each shard's last commit.
func (db *DB) Crash() {
	for _, sh := range db.shards {
		sh.Crash()
	}
}

// SetTrace installs fn as every shard's GMR maintenance trace hook.
func (db *DB) SetTrace(fn func(gomdb.TraceEvent)) {
	for _, sh := range db.shards {
		sh.SetTrace(fn)
	}
}

// Tx is the batch-update handle for a coordinated multi-shard batch: it
// routes each operation to the owner shard's open batch, with the same
// placement rules as the router's top-level methods. The batch holds the
// router's routing lock for its whole extent (see Batch), so Tx methods
// touch the owner table without locking; a Tx must not escape its batch
// function and is not safe for concurrent use.
type Tx struct {
	db  *DB
	txs []*gomdb.Tx
}

// New creates a tuple-structured instance inside the batch, placed like
// DB.New (reference affinity, else OID hash).
func (tx *Tx) New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	db := tx.db
	sh, constrained, err := db.routeRefsLocked(attrs)
	if err != nil {
		return 0, err
	}
	if !constrained {
		sh = db.ShardFor(uint64(db.alloc.PeekOID()))
	}
	return tx.create(sh, typeName, func(t *gomdb.Tx) (gomdb.OID, error) { return t.New(typeName, attrs...) })
}

// create runs create in shard sh's open batch and records ownership
// (DB.createLocked; the batch holds every shard's lock, so the shard is
// probed directly).
func (tx *Tx) create(sh int, typeName string, create func(*gomdb.Tx) (gomdb.OID, error)) (gomdb.OID, error) {
	db := tx.db
	next := db.alloc.PeekOID()
	oid, err := create(tx.txs[sh])
	return db.routeCreatedLocked(sh, typeName, next, oid, err, db.shards[sh].Objects.Exists)
}

// NewOn creates a tuple-structured instance on an explicit shard inside the
// batch (DB.NewOn).
func (tx *Tx) NewOn(sh int, typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	db := tx.db
	if err := db.checkRefsOnLocked(sh, attrs); err != nil {
		return 0, err
	}
	return tx.create(sh, typeName, func(t *gomdb.Tx) (gomdb.OID, error) { return t.New(typeName, attrs...) })
}

// NewSet creates a set-structured instance inside the batch, placed like
// DB.NewSet (element-reference affinity, else OID hash).
func (tx *Tx) NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error) {
	db := tx.db
	sh, constrained, err := db.routeRefsLocked(elems)
	if err != nil {
		return 0, err
	}
	if !constrained {
		sh = db.ShardFor(uint64(db.alloc.PeekOID()))
	}
	return tx.create(sh, typeName, func(t *gomdb.Tx) (gomdb.OID, error) { return t.NewSet(typeName, elems...) })
}

// Delete removes an object inside the batch (DB.Delete).
func (tx *Tx) Delete(oid gomdb.OID) error {
	db := tx.db
	sh, ok := db.owner[oid]
	if !ok {
		return fmt.Errorf("%w: oid %v", ErrUnknownOID, oid)
	}
	err := deleteOn(sh, len(tx.txs), func(i int) error { return tx.txs[i].Delete(oid) })
	if err == nil || !liveOn(sh, len(tx.txs), func(i int) bool { return db.shards[i].Objects.Exists(oid) }) {
		delete(db.owner, oid)
	}
	return err
}

// Set performs an elementary update inside the batch (DB.Set).
func (tx *Tx) Set(oid gomdb.OID, attr string, v gomdb.Value) error {
	db := tx.db
	sh, ok := db.owner[oid]
	if !ok {
		return fmt.Errorf("%w: oid %v", ErrUnknownOID, oid)
	}
	if sh == replicated {
		if v.Kind == object.KRef && db.owner[v.R] != replicated {
			return fmt.Errorf("%w: replicated object would reference routed oid %v", ErrCrossShardRef, v.R)
		}
		for i, t := range tx.txs {
			if err := t.Set(oid, attr, v); err != nil {
				return fmt.Errorf("shard %d replica: %w", i, err)
			}
		}
		return nil
	}
	if err := db.checkRefsOnLocked(sh, []gomdb.Value{v}); err != nil {
		return err
	}
	return tx.txs[sh].Set(oid, attr, v)
}

// GetAttr reads an attribute inside the batch (DB.GetAttr).
func (tx *Tx) GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error) {
	sh, ok := tx.db.owner[oid]
	if !ok {
		return gomdb.Null(), fmt.Errorf("%w: oid %v", ErrUnknownOID, oid)
	}
	if sh == replicated {
		sh = 0
	}
	return tx.txs[sh].GetAttr(oid, attr)
}

// Owner reports oid's owning shard inside the batch (DB.Owner). The batch
// holds the routing lock, so DB.Owner would self-deadlock here.
func (tx *Tx) Owner(oid gomdb.OID) (int, bool) {
	sh, ok := tx.db.owner[oid]
	return sh, ok
}

// Insert performs set.insert(elem) inside the batch (DB.Insert).
func (tx *Tx) Insert(set gomdb.OID, elem gomdb.Value) error {
	sh, ok := tx.db.owner[set]
	if !ok {
		return fmt.Errorf("%w: oid %v", ErrUnknownOID, set)
	}
	if sh == replicated {
		sh = 0
	}
	if err := tx.db.checkRefsOnLocked(sh, []gomdb.Value{elem}); err != nil {
		return err
	}
	return tx.txs[sh].Insert(set, elem)
}

// Remove performs set.remove(elem) inside the batch (DB.Remove).
func (tx *Tx) Remove(set gomdb.OID, elem gomdb.Value) error {
	sh, ok := tx.db.owner[set]
	if !ok {
		return fmt.Errorf("%w: oid %v", ErrUnknownOID, set)
	}
	if sh == replicated {
		sh = 0
	}
	return tx.txs[sh].Remove(set, elem)
}

// Call invokes a function inside the batch, routed like DB.Call.
func (tx *Tx) Call(fn string, args ...gomdb.Value) (gomdb.Value, error) {
	sh, _, err := tx.db.routeRefsLocked(args)
	if err != nil {
		return gomdb.Null(), err
	}
	return tx.txs[sh].Call(fn, args...)
}

// Batch runs fn as one coordinated update batch. The router's routing lock
// is taken first, then every shard's exclusive lock in shard-index order —
// one fixed acquisition order, so concurrent router operations cannot
// deadlock — and fn routes its operations through the multi-shard Tx. Each
// shard then flushes its deferred queue and commits in shard order: the
// batch is a flush point on every shard even when only some were written,
// matching the single-engine contract that a batch ends quiescent. Router
// metadata is saved before the shard commits run.
func (db *DB) Batch(fn func(*Tx) error) error {
	tx := db.BeginBatch()
	return db.EndBatch(tx, fn(tx))
}

// BeginBatch opens a coordinated update batch interactively: the routing
// lock and every shard's exclusive lock are taken here (in the same fixed
// order as Batch) and held until EndBatch. The split form exists for
// callers that cannot express the batch as one closure — a network session
// holding a batch open across request frames, for instance. The caller owns
// the pairing: every BeginBatch must reach EndBatch exactly once, even on
// client failure, or the router stays locked.
func (db *DB) BeginBatch() *Tx {
	db.mu.Lock()
	tx := &Tx{db: db, txs: make([]*gomdb.Tx, len(db.shards))}
	for i, sh := range db.shards {
		tx.txs[i] = sh.BeginBatch()
	}
	return tx
}

// EndBatch closes a batch opened by BeginBatch: router metadata is saved,
// then every shard flushes its deferred queue and commits in shard order,
// and all locks release. err is the batch verdict (the closure error in
// Batch's terms); the first error among verdict, metadata save, and shard
// commits is returned.
func (db *DB) EndBatch(tx *Tx, err error) error {
	defer db.mu.Unlock()
	if merr := db.saveMetaLocked(); err == nil {
		err = merr
	}
	for i, sh := range db.shards {
		if eerr := sh.EndBatch(tx.txs[i], nil); err == nil && eerr != nil {
			err = fmt.Errorf("shard %d: %w", i, eerr)
		}
	}
	return err
}
