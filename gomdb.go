// Package gomdb is the public API of this reproduction of "Function
// Materialization in Object Bases" (Kemper, Kilger, Moerkotte; SIGMOD 1991).
//
// It wires together the GOM object model, the paged storage substrate with
// its simulated cost model, the GOMpl operation language, and the GMR
// manager implementing function materialization, and re-exports the types a
// downstream user needs:
//
//	db := gomdb.Open(gomdb.DefaultConfig())
//	db.MustDefineType(gomdb.NewTupleType("Vertex",
//	    gomdb.Attr("X", "float"), gomdb.Attr("Y", "float"), gomdb.Attr("Z", "float")))
//	...
//	gmr, err := db.Materialize(gomdb.MaterializeOptions{
//	    Funcs: []string{"Cuboid.volume", "Cuboid.weight"},
//	    Complete: true,
//	})
//	res, err := db.Query(`range c: Cuboid retrieve c where c.volume > 20.0`)
//
// See the examples/ directory for complete programs.
package gomdb

import (
	"sync"

	"gomdb/internal/core"
	"gomdb/internal/lang"
	"gomdb/internal/mvcc"
	"gomdb/internal/object"
	"gomdb/internal/query"
	"gomdb/internal/schema"
	"gomdb/internal/storage"
)

// Re-exported value and identity types.
type (
	// Value is a runtime value of the data model.
	Value = object.Value
	// OID is an object identifier.
	OID = object.OID
	// Type is a type descriptor.
	Type = object.Type
	// AttrDef declares one tuple attribute.
	AttrDef = object.AttrDef
	// Obj is the in-memory form of a stored object.
	Obj = object.Obj
	// Function is a declared GOMpl function.
	Function = lang.Function
	// Param is a formal parameter.
	Param = lang.Param
	// Expr is a GOMpl expression node.
	Expr = lang.Expr
	// Stmt is a GOMpl statement node.
	Stmt = lang.Stmt
	// MaterializeOptions configures Materialize.
	MaterializeOptions = core.Options
	// Strategy selects immediate, lazy, or deferred rematerialization.
	Strategy = core.Strategy
	// HookMode selects the invalidation mechanism (ModeBasic ... ModeInfoHiding).
	HookMode = core.HookMode
	// GMR is a generalized materialization relation.
	GMR = core.GMR
	// Restriction is a restriction predicate for a p-restricted GMR.
	Restriction = core.Restriction
	// ArgRestriction restricts an atomic argument position.
	ArgRestriction = core.ArgRestriction
	// Match is one backward-query result row.
	Match = core.Match
	// FieldSpec constrains one GMR column in a tabular Retrieve call.
	FieldSpec = core.FieldSpec
	// Row is one retrieved GMR tuple.
	Row = core.Row
	// TraceEvent is one GMR-manager maintenance action (SetTrace).
	TraceEvent = core.TraceEvent
	// ConsistencyReport summarizes a CheckConsistency run.
	ConsistencyReport = core.ConsistencyReport
	// Clock is the simulated-work accumulator.
	Clock = storage.Clock
)

// Re-exported strategy and mode constants.
const (
	// Immediate rematerialization recomputes on invalidation.
	Immediate = core.Immediate
	// Lazy rematerialization marks and recomputes on demand.
	Lazy = core.Lazy
	// Deferred rematerialization marks, coalesces repeated invalidations of
	// the same result, and recomputes in parallel at the next Flush (or when
	// a lookup forces a single pending entry).
	Deferred = core.Deferred

	// ModeBasic is the unsophisticated Section 4 invalidation mechanism.
	ModeBasic = core.ModeBasic
	// ModeSchemaDep uses SchemaDepFct (Section 5.1).
	ModeSchemaDep = core.ModeSchemaDep
	// ModeObjDep adds the ObjDepFct marking check (Section 5.2).
	ModeObjDep = core.ModeObjDep
	// ModeInfoHiding exploits strict encapsulation (Section 5.3).
	ModeInfoHiding = core.ModeInfoHiding
)

// Value constructors.
var (
	// Null returns the null value.
	Null = object.Null
	// Bool returns a boolean value.
	Bool = object.Bool
	// Int returns an integer value.
	Int = object.Int
	// Float returns a float value.
	Float = object.Float
	// Str returns a string value.
	Str = object.String_
	// Ref returns an object reference.
	Ref = object.Ref
	// SetOf returns a transient set value.
	SetOf = object.SetVal
	// ListOf returns a transient list value.
	ListOf = object.ListVal
	// TupleOf returns a transient tuple value.
	TupleOf = object.TupleVal
)

// Type constructors.
var (
	// NewTupleType constructs a tuple-structured type descriptor.
	NewTupleType = object.NewTupleType
	// NewSetType constructs a set-structured type descriptor.
	NewSetType = object.NewSetType
	// NewListType constructs a list-structured type descriptor.
	NewListType = object.NewListType
)

// Attr declares a private tuple attribute.
func Attr(name, typeName string) AttrDef { return AttrDef{Name: name, Type: typeName} }

// PubAttr declares a public tuple attribute (its A and set_A operations are
// added to the public clause).
func PubAttr(name, typeName string) AttrDef {
	return AttrDef{Name: name, Type: typeName, Public: true}
}

// Config configures a Database.
type Config struct {
	// BufferPages is the buffer pool capacity in 4 KB pages. The paper's
	// setup used 600 KB = 150 pages.
	BufferPages int
	// BufferShards is the number of lock stripes of the buffer pool's
	// resident-page table (rounded up to a power of two). 0 selects the
	// default, the next power of two >= GOMAXPROCS. 1 reproduces the
	// historical single-mutex pool and serves as the contended baseline in
	// the throughput benchmarks. The shard count only affects locking:
	// replacement uses an exact global LRU, so simulated cost accounting
	// is identical for every value.
	BufferShards int
	// Path, when non-empty, makes the database durable: pages and engine
	// metadata are committed to this directory (see DESIGN.md,
	// "Durability & recovery") and recovered on the next open. Durability
	// never changes simulated cost accounting: all durable file I/O is real
	// I/O outside the simulated Clock.
	Path string
	// DefineSchema rebuilds the schema (types, operations, public clauses,
	// InvalidatedFct declarations) on every durable open. GOMpl function
	// bodies are code, not data, so they cannot be read back from disk; the
	// commit stores a schema fingerprint and recovery verifies the
	// callback rebuilt a congruent schema before decoding any record. The
	// callback must only define schema — it must not create objects or
	// materialize. Required when Path is set and the directory holds an
	// existing database.
	DefineSchema func(*Database) error
	// OIDAllocator, when non-nil, replaces the engine's private OID counter
	// with a shared allocator. The shard router (internal/shard) injects one
	// global allocator into all of its engine instances so the same logical
	// plan assigns the same OIDs — and therefore the same record bytes and
	// the same simulated charges — at every shard count. It is wired before
	// schema definition and recovery, so recovery-time rematerializations
	// also allocate from it. Leave nil for a standalone database.
	OIDAllocator OIDAllocator
}

// OIDAllocator is a shared source of object identifiers (see
// Config.OIDAllocator).
type OIDAllocator = object.OIDAllocator

// DefaultConfig returns the paper's measurement configuration.
func DefaultConfig() Config {
	return Config{BufferPages: 150}
}

// Database is an in-process GOM object base with function materialization.
//
// # Concurrency
//
// Database methods are safe for concurrent use. A write-preferring
// reader/writer lock guards the engine: schema definitions, object creation
// and deletion, elementary updates, materialization, dematerialization, and
// any statement that may mutate GMR state run exclusively; provably
// side-effect-free work — forward queries, backward and retrieval queries,
// consistency audits, attribute reads — runs shared when the lock is free.
// When it is not, read-classified operations do not wait for the writer:
// they pin the current stable version and answer from an MVCC snapshot (see
// DESIGN.md, "MVCC snapshot reads"), so a long update batch no longer stalls
// the read side. Classification is static and charge-free (schema metadata
// only), and snapshot reads charge a throwaway clock, so a single-threaded
// program observes bit-identical simulated cost accounting with or without
// concurrent-safety in play. The embedded field pointers (Engine, GMRs, ...)
// remain exported for single-threaded tooling such as the benchmark driver;
// concurrent clients must go through Database methods.
type Database struct {
	// mu is the engine-wide reader/writer lock. Go's sync.RWMutex is
	// write-preferring: a blocked writer stops later readers, so update
	// transactions cannot starve behind a stream of queries.
	mu sync.RWMutex

	Clock   *storage.Clock
	Disk    *storage.Disk
	Pool    *storage.BufferPool
	Schema  *schema.Schema
	Objects *object.Manager
	Engine  *schema.Engine
	GMRs    *core.Manager
	Queries *query.Executor

	// mvccSt is the version state shared by the MVCC snapshot read path:
	// the stable version, the reader pin registry, and the barrier taken by
	// the few operations that cannot be versioned. The buffer pool owns it;
	// the object and GMR managers take it from the pool. See internal/mvcc.
	mvccSt *mvcc.State

	// store is the durable page store (nil for an in-memory database); see
	// durable.go.
	store *storage.PageStore
	// Recovery describes what the durable open recovered; nil when the
	// database is in-memory or the directory was fresh.
	Recovery *RecoveryInfo
}

// QueryResult is the result of a GOMql query.
type QueryResult = query.Result

// Open creates a database. With Config.Path unset the database is purely
// in-memory (the historical behaviour). With Path set it delegates to OpenAt,
// panicking on error — use OpenAt directly to handle recovery failures.
func Open(cfg Config) *Database {
	if cfg.Path != "" {
		db, err := OpenAt(cfg)
		if err != nil {
			panic(err)
		}
		return db
	}
	return newDatabase(cfg)
}

// newDatabase builds the in-memory engine stack shared by Open and OpenAt.
func newDatabase(cfg Config) *Database {
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 150
	}
	clock := storage.NewClock()
	disk := storage.NewDisk(clock)
	pool := storage.NewPoolShards(disk, cfg.BufferPages, cfg.BufferShards)
	sch := schema.New()
	objs := object.NewManager(sch.Reg, pool, clock)
	if cfg.OIDAllocator != nil {
		objs.SetOIDAllocator(cfg.OIDAllocator)
	}
	en := schema.NewEngine(sch, objs, clock)
	mgr := core.NewManager(en, pool)
	return &Database{
		Clock:   clock,
		Disk:    disk,
		Pool:    pool,
		Schema:  sch,
		Objects: objs,
		Engine:  en,
		GMRs:    mgr,
		Queries: query.NewExecutor(en, mgr),

		mvccSt: pool.Versions(),
	}
}

// lockWrite acquires the exclusive engine lock for a write-classified
// operation; unlockWrite publishes its effects.
func (db *Database) lockWrite() {
	db.mu.Lock()
}

// unlockWrite ends a write-classified operation: the mutated state is
// published as the new stable version, pre-image captures no pinned reader
// can still reach are reclaimed, and the exclusive lock is released.
// Publishing even when the operation changed nothing is harmless — a capture
// tagged with an older stable version stays valid for every reader at or
// below it.
func (db *Database) unlockWrite() {
	db.publish()
	db.mu.Unlock()
}

// publish makes the mutated state the new stable version and reclaims the
// pre-image captures no pinned reader can still reach. Caller holds db.mu
// exclusively.
func (db *Database) publish() {
	floor := db.mvccSt.Publish()
	db.Pool.ReclaimVersions(floor)
	db.Objects.ReclaimVersions(floor)
	db.GMRs.ReclaimEntryCaptures(floor)
}

// lockBarrier acquires the exclusive lock AND the reader barrier, for the
// few operations the capture protocol does not cover: schema DDL (the
// registry maps are mutated in place, unversioned), materialization and
// dematerialization (the GMR catalog and the schema rewrite), and durable
// store teardown (Close, Crash). New snapshot pins block and active ones
// drain before the operation proceeds, so it has the engine entirely to
// itself. Snapshot readers never take db.mu, so draining them while holding
// it cannot deadlock.
func (db *Database) lockBarrier() {
	db.mu.Lock()
	db.mvccSt.BeginBarrier()
}

// unlockBarrier publishes, reclaims (trivially: the barrier guarantees no
// pins, so every capture goes), lifts the barrier, and unlocks.
func (db *Database) unlockBarrier() {
	db.publish()
	db.mvccSt.EndBarrier()
	db.mu.Unlock()
}

// readSpec classifies a read-classified method for dispatch.
type readSpec struct {
	// quiescent: the shared tier also requires GMRs.Quiescent(), because
	// the live body may repair GMR state (force, revalidate, insert).
	quiescent bool
	// barrier: a call its classifier finds not read-only takes the reader
	// barrier rather than the exclusive lock (a GOMql statement that may
	// materialize).
	barrier bool
}

// dispatch runs a read-classified method in one of three tiers:
//
//   - shared: the engine lock is free, the call is read-only and, when
//     spec.quiescent, GMRs.Quiescent() holds — live() runs under the shared
//     lock;
//   - snapshot: a writer holds (or waits for) the engine and the call is
//     read-only — snap() runs against an MVCC snapshot at the pinned stable
//     version, without waiting. The pin is taken before classifying: it
//     excludes barrier operations, so the schema metadata readOnly reads
//     cannot change underneath it;
//   - exclusive: otherwise — live() runs under the write lock, or under the
//     barrier when the call is not read-only and spec.barrier is set.
//
// readOnly == nil means the call is always read-only. readOnly may resolve
// names for the body it admits: the body runs under the same lock or pin,
// and the exclusive tier runs readOnly again once it holds its lock.
// snap == nil means the method has no snapshot tier: it waits for the
// shared lock instead. The
// shared and exclusive tiers issue exactly the live body's calls, and the
// snapshot tier charges a throwaway clock, so a single-threaded program's
// simulated costs do not depend on the tier.
func dispatch[T any](db *Database, spec readSpec, readOnly func() bool, live func() (T, error), snap func(*core.Snapshot) (T, error)) (T, error) {
	var ro bool
	if snap != nil && !db.mu.TryRLock() {
		ver, release := db.mvccSt.Pin()
		if ro = readOnly == nil || readOnly(); ro {
			defer release()
			return snap(db.GMRs.SnapshotAt(ver))
		}
		release()
	} else {
		if snap == nil {
			db.mu.RLock()
		}
		if ro = readOnly == nil || readOnly(); ro && (!spec.quiescent || db.GMRs.Quiescent()) {
			defer db.mu.RUnlock()
			return live()
		}
		db.mu.RUnlock()
	}
	if !ro && spec.barrier {
		db.lockBarrier()
		defer db.unlockBarrier()
	} else {
		db.lockWrite()
		defer db.unlockWrite()
	}
	if readOnly != nil {
		// What readOnly resolved was valid under the hold it ran in, which
		// is released: resolve again under the exclusive one.
		readOnly()
	}
	return live()
}

// Query parses and executes a GOMql statement; $name parameters are bound
// from params (pass nil when the query has none). Retrieve statements whose
// plan is provably read-only execute under the shared lock when every GMR is
// quiescent, exclusively when not, and against an MVCC snapshot when a
// writer holds the engine. Materialize statements and statements the
// classifier cannot prove side effect free run under the reader barrier.
func (db *Database) Query(src string, params map[string]Value) (*QueryResult, error) {
	q, err := db.Queries.Prepare(src)
	if err != nil {
		return nil, err
	}
	return dispatch(db, readSpec{quiescent: true, barrier: true},
		func() bool { return db.Queries.ReadOnlyPlan(q) },
		func() (*QueryResult, error) { return db.Queries.RunQuery(q, params) },
		func(s *core.Snapshot) (*QueryResult, error) { return db.Queries.Snapshot(s).RunQuery(q, params) })
}

// DefineType registers a type with its public clause.
func (db *Database) DefineType(t *Type, publicNames ...string) error {
	db.lockBarrier()
	defer db.unlockBarrier()
	return db.Schema.DefineType(t, publicNames...)
}

// MustDefineType is DefineType panicking on error; for schema-building code
// where a failure is a programming bug.
func (db *Database) MustDefineType(t *Type, publicNames ...string) {
	if err := db.DefineType(t, publicNames...); err != nil {
		panic(err)
	}
}

// DefineOp attaches an operation to a type.
func (db *Database) DefineOp(typeName, opName string, fn *Function) error {
	db.lockBarrier()
	defer db.unlockBarrier()
	return db.Schema.DefineOp(typeName, opName, fn)
}

// MustDefineOp is DefineOp panicking on error.
func (db *Database) MustDefineOp(typeName, opName string, fn *Function) {
	if err := db.DefineOp(typeName, opName, fn); err != nil {
		panic(err)
	}
}

// DefineFunc registers a free function.
func (db *Database) DefineFunc(fn *Function) error {
	db.lockBarrier()
	defer db.unlockBarrier()
	return db.Schema.DefineFunc(fn)
}

// DefineOpSrc parses, type-checks, and attaches a textual GOMpl operation —
// the paper's concrete syntax:
//
//	db.DefineOpSrc("Cuboid", `
//	    define volume: float is
//	        return self.length * self.width * self.height
//	    end`, true)
//
// sideEffectFree marks the function materializable.
func (db *Database) DefineOpSrc(typeName, src string, sideEffectFree bool) error {
	db.lockBarrier()
	defer db.unlockBarrier()
	_, err := db.Schema.DefineOpSrc(typeName, src, sideEffectFree)
	return err
}

// DefineFuncSrc parses and registers a textual free function (or, with the
// qualified "define Type.op" form, a type-associated operation).
func (db *Database) DefineFuncSrc(src string, sideEffectFree bool) error {
	db.lockBarrier()
	defer db.unlockBarrier()
	_, err := db.Schema.DefineFuncSrc(src, sideEffectFree)
	return err
}

// New creates a tuple-structured instance; attribute order follows the
// flattened inherited layout.
func (db *Database) New(typeName string, attrs ...Value) (OID, error) {
	db.lockWrite()
	defer db.unlockWrite()
	return db.Engine.Create(typeName, attrs)
}

// MustNew is New panicking on error.
func (db *Database) MustNew(typeName string, attrs ...Value) OID {
	oid, err := db.New(typeName, attrs...)
	if err != nil {
		panic(err)
	}
	return oid
}

// NewSet creates a set- or list-structured instance.
func (db *Database) NewSet(typeName string, elems ...Value) (OID, error) {
	db.lockWrite()
	defer db.unlockWrite()
	return db.Engine.CreateCollection(typeName, elems)
}

// Delete removes an object (running forget_object hooks first).
func (db *Database) Delete(oid OID) error {
	db.lockWrite()
	defer db.unlockWrite()
	return db.Engine.Delete(oid)
}

// Exists reports whether oid denotes a live object: a directory probe under
// the shared lock, touching no page and charging nothing. A create or delete
// that returned an error may or may not have taken effect (their hooks run
// after the store and before the removal); this is how a coordinator finds
// out which.
func (db *Database) Exists(oid OID) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.Objects.Exists(oid)
}

// Set performs the elementary update oid.set_attr(v).
func (db *Database) Set(oid OID, attr string, v Value) error {
	db.lockWrite()
	defer db.unlockWrite()
	return db.Engine.SetAttrByName(oid, attr, v)
}

// GetAttr reads attribute attr of oid: under the shared lock, or from an
// MVCC snapshot when a writer holds the engine.
func (db *Database) GetAttr(oid OID, attr string) (Value, error) {
	return dispatch(db, readSpec{}, nil,
		func() (Value, error) { return db.Engine.ReadAttr(Ref(oid), attr) },
		func(s *core.Snapshot) (Value, error) { return s.Engine().ReadAttr(Ref(oid), attr) })
}

// Insert performs the elementary update set.insert(elem).
func (db *Database) Insert(set OID, elem Value) error {
	db.lockWrite()
	defer db.unlockWrite()
	return db.Engine.InsertElem(Ref(set), elem)
}

// Remove performs the elementary update set.remove(elem).
func (db *Database) Remove(set OID, elem Value) error {
	db.lockWrite()
	defer db.unlockWrite()
	return db.Engine.RemoveElem(Ref(set), elem)
}

// Call invokes a declared function or operation; materialized functions are
// answered from their GMR (forward query) when possible. A call to a
// side-effect-free function runs under the shared lock when every GMR is
// quiescent (complete and fully valid) — concurrent callers then hit the
// materialized results in parallel. When a writer holds the engine, a
// side-effect-free call does not wait: it answers from an MVCC snapshot
// (quiescence does not matter there — the snapshot recomputes entries that
// were invalid at its version without storing anything). All other calls
// run exclusively.
//
// The name is resolved to dense ids once (one map probe), and a
// materialized hit borrows args: it allocates nothing.
func (db *Database) Call(fn string, args ...Value) (Value, error) {
	var c schema.Callee
	var known bool
	return dispatch(db, readSpec{quiescent: true},
		func() bool {
			c, known = db.Schema.Callee(fn)
			return known && db.Schema.CalleeReadOnly(c)
		},
		func() (Value, error) {
			if !known {
				return Null(), db.Engine.Unresolved(fn, args)
			}
			return db.GMRs.Call(c, args)
		},
		func(s *core.Snapshot) (Value, error) { return s.Call(c, args) })
}

// Flush drains the deferred-rematerialization queue: every result a Deferred
// GMR has marked invalid since the last flush point is recomputed once,
// serially in a canonical order, regardless of how many updates invalidated
// it. A no-op when nothing is pending. On a durable
// database a flush is a commit point: the drained state is made durable
// before the lock is released.
func (db *Database) Flush() error {
	db.lockWrite()
	defer db.unlockWrite()
	err := db.GMRs.Flush()
	if cerr := db.commitLocked(); err == nil {
		err = cerr
	}
	return err
}

// Tx is the batch-update handle passed to Batch: it exposes the update
// operations of Database without per-call locking, for use inside the single
// exclusive critical section a batch holds. A Tx must not escape its batch
// function and is not safe for concurrent use.
type Tx struct {
	db *Database
}

// New creates a tuple-structured instance (Database.New).
func (tx *Tx) New(typeName string, attrs ...Value) (OID, error) {
	return tx.db.Engine.Create(typeName, attrs)
}

// NewSet creates a set- or list-structured instance (Database.NewSet).
func (tx *Tx) NewSet(typeName string, elems ...Value) (OID, error) {
	return tx.db.Engine.CreateCollection(typeName, elems)
}

// Delete removes an object (Database.Delete).
func (tx *Tx) Delete(oid OID) error { return tx.db.Engine.Delete(oid) }

// Exists reports whether oid denotes a live object (Database.Exists).
func (tx *Tx) Exists(oid OID) bool { return tx.db.Objects.Exists(oid) }

// Set performs the elementary update oid.set_attr(v) (Database.Set).
func (tx *Tx) Set(oid OID, attr string, v Value) error {
	return tx.db.Engine.SetAttrByName(oid, attr, v)
}

// GetAttr reads attribute attr of oid (Database.GetAttr).
func (tx *Tx) GetAttr(oid OID, attr string) (Value, error) {
	return tx.db.Engine.ReadAttr(Ref(oid), attr)
}

// Insert performs the elementary update set.insert(elem) (Database.Insert).
func (tx *Tx) Insert(set OID, elem Value) error {
	return tx.db.Engine.InsertElem(Ref(set), elem)
}

// Remove performs the elementary update set.remove(elem) (Database.Remove).
func (tx *Tx) Remove(set OID, elem Value) error {
	return tx.db.Engine.RemoveElem(Ref(set), elem)
}

// Call invokes a declared function or operation (Database.Call).
func (tx *Tx) Call(fn string, args ...Value) (Value, error) {
	c, ok := tx.db.Schema.Callee(fn)
	if !ok {
		return Null(), tx.db.Engine.Unresolved(fn, args)
	}
	return tx.db.GMRs.Call(c, args)
}

// Batch runs fn as one update batch: the exclusive engine lock is taken once
// for the whole batch instead of per operation, and the end of the batch is a
// flush point for Deferred GMRs — all results the batch invalidated are
// recomputed before the lock is released. If fn
// returns an error the flush still runs (updates already applied must not
// leave the queue stale across an unlocked window for readers that force
// entries individually), and fn's error takes precedence. On a durable
// database the end of the batch is also a commit point.
func (db *Database) Batch(fn func(*Tx) error) error {
	tx := db.BeginBatch()
	return db.EndBatch(tx, fn(tx))
}

// BeginBatch opens an update batch explicitly: the exclusive engine lock is
// taken and a Tx handle returned. Every BeginBatch must be paired with exactly
// one EndBatch — most callers should use Batch, which pairs them around a
// function. The split form exists for coordinators that hold several
// databases' batches open at once (the shard router opens one per shard and
// routes each operation to its owner before closing them all).
func (db *Database) BeginBatch() *Tx {
	db.lockWrite()
	return &Tx{db: db}
}

// EndBatch closes a batch opened by BeginBatch: the deferred-rematerialization
// queue is flushed, the state committed (durable databases), and the
// exclusive lock released. err is the batch body's verdict; it takes
// precedence over flush and commit errors, matching Batch — the flush
// still runs on a failed batch because updates already applied must not leave
// the queue stale across an unlocked window.
func (db *Database) EndBatch(tx *Tx, err error) error {
	defer db.unlockWrite()
	if ferr := db.GMRs.Flush(); err == nil {
		err = ferr
	}
	if cerr := db.commitLocked(); err == nil {
		err = cerr
	}
	return err
}

// Field-spec constructors for tabular GMR retrieval (Section 3.2's
// QBE-style operations).
var (
	// ExactSpec constrains a column to one value.
	ExactSpec = core.ExactSpec
	// RangeSpec constrains a numeric column to [lo, hi].
	RangeSpec = core.RangeSpec
	// AnySpec leaves a column unconstrained.
	AnySpec = core.AnySpec
)

// ErrInjectedFault is the sentinel wrapped by every error the simulated
// disk's fault-injection layer produces (fault plans armed with
// db.Disk.SetFaultPlan); match it with errors.Is.
var ErrInjectedFault = storage.ErrInjectedFault

// Materialize creates a GMR per the options — the API form of the GOMql
// statement "range ... materialize ...". On a durable database a successful
// materialization is a commit point, and restricted GMRs (Restriction or
// AtomicArgs set) are refused: their predicates are function values that
// cannot be persisted, so they could not be rebuilt on recovery.
func (db *Database) Materialize(opts MaterializeOptions) (*GMR, error) {
	db.lockBarrier()
	defer db.unlockBarrier()
	if db.store != nil && (opts.Restriction != nil || len(opts.AtomicArgs) > 0) {
		return nil, errRestrictedDurable
	}
	g, err := db.GMRs.Materialize(opts)
	if err != nil {
		return nil, err
	}
	if cerr := db.commitLocked(); cerr != nil {
		return g, cerr
	}
	return g, nil
}

// Retrieve answers a tabular GMR query (one FieldSpec per argument and
// result column), using the GMR's multidimensional index when present.
// Quiescent GMRs answer under the shared lock; otherwise the retrieval may
// rematerialize invalid entries and runs exclusively. When a writer holds
// the engine the retrieval is answered from an MVCC snapshot instead of
// waiting (invalid columns are recomputed at the snapshot version, not
// repaired in place).
func (db *Database) Retrieve(gmrName string, spec []FieldSpec) ([]Row, error) {
	return dispatch(db, readSpec{quiescent: true}, nil,
		func() ([]Row, error) { return db.GMRs.Retrieve(gmrName, spec) },
		func(s *core.Snapshot) ([]Row, error) { return s.Retrieve(gmrName, spec) })
}

// Backward answers a backward query on a Complete GMR: every materialized
// argument combination whose stored result lies in [lb, ub]. Quiescent GMRs
// answer under the shared lock; a GMR with invalid entries must revalidate
// them first and runs exclusively. When a writer holds the engine the query
// is answered from an MVCC snapshot instead of waiting.
func (db *Database) Backward(fid string, lb, ub float64) ([]Match, error) {
	return dispatch(db, readSpec{quiescent: true}, nil,
		func() ([]Match, error) { return db.GMRs.Backward(fid, lb, ub) },
		func(s *core.Snapshot) ([]Match, error) { return s.Backward(fid, lb, ub) })
}

// Sum aggregates a materialized function over the given argument objects
// (nil = every materialized entry), forcing invalid entries first. Because the
// forcing path may store recomputed results, a non-quiescent GMR manager runs
// the aggregation exclusively; quiescent managers answer under the shared
// lock. There is no snapshot tier: a contended Sum blocks on the writer.
func (db *Database) Sum(fid string, oids []OID) (float64, error) {
	return dispatch(db, readSpec{quiescent: true}, nil,
		func() (float64, error) { return db.GMRs.Sum(fid, oids) }, nil)
}

// CheckConsistency audits a GMR against Definition 3.2 (and, with
// checkComplete, Definition 3.4/6.1): every valid entry must match a fresh
// recomputation within relative tolerance tol.
// The audit only recomputes and compares (invalid entries are counted, not
// repaired), so it always runs under the shared lock — or, when a writer
// holds the engine, against an MVCC snapshot, verifying Definition 3.2
// congruence at the pinned version.
func (db *Database) CheckConsistency(gmrName string, tol float64, checkComplete bool) (*ConsistencyReport, error) {
	return dispatch(db, readSpec{}, nil,
		func() (*ConsistencyReport, error) { return db.GMRs.CheckConsistency(gmrName, tol, checkComplete) },
		func(s *core.Snapshot) (*ConsistencyReport, error) {
			return s.CheckConsistency(gmrName, tol, checkComplete)
		})
}

// SetTrace installs (or, with nil, removes) a callback observing every
// GMR-manager maintenance action. The hook is stored atomically and may be
// swapped while queries run; forward hits and backward queries execute under
// the shared lock, so the callback can fire from several goroutines at once
// and must synchronize any state it accumulates.
func (db *Database) SetTrace(fn func(TraceEvent)) { db.GMRs.SetTrace(fn) }

// Dematerialize drops a GMR and undoes its schema rewrite. On a durable
// database the drop is a commit point.
func (db *Database) Dematerialize(name string) error {
	db.lockBarrier()
	defer db.unlockBarrier()
	if err := db.GMRs.Drop(name); err != nil {
		return err
	}
	return db.commitLocked()
}

// Extension returns the OIDs of all instances of typeName (and subtypes).
// When a writer holds the engine the extension is reconstructed from an MVCC
// snapshot instead of waiting.
func (db *Database) Extension(typeName string) []OID {
	oids, _ := dispatch(db, readSpec{}, nil,
		func() ([]OID, error) { return db.Objects.Extension(typeName), nil },
		func(s *core.Snapshot) ([]OID, error) { return s.Extension(typeName), nil })
	return oids
}

// SimSeconds returns the simulated seconds of work performed so far. The
// counters are atomic, so no lock is taken; concurrent in-flight operations
// may or may not be included.
func (db *Database) SimSeconds() float64 { return db.Clock.SimSeconds() }

// Snapshot returns a copy of the cost counters (atomically per counter; see
// SimSeconds).
func (db *Database) Snapshot() Clock { return db.Clock.Snapshot() }
