// Package shard implements horizontal sharding: a router (DB) that exposes
// the facade surface of gomdb.Database over N independent engine instances,
// partitioning type extensions across shards. Point operations — forward
// lookups, attribute reads and updates, elementary set updates — route to the
// single shard that owns the argument object, so an update's RRR invalidation
// sweep touches only that shard's structures and the other N-1 shards keep
// serving reads. Scatter operations — backward queries, tabular retrievals,
// extensions, aggregates, read-classified GOMql — fan out to all shards in
// parallel goroutines and merge the partials under deterministic rules.
// Maintenance operations — Materialize, Dematerialize, Flush, Checkpoint,
// Batch — are coordinated fan-outs that take each shard's write barrier in
// shard-index order.
//
// # Placement
//
// An object lives on exactly one shard (its owner), chosen when it is
// created: by the owner of the first object it references, by an explicit
// NewOn, or — for an unconstrained create — by an OID hash (ShardFor).
// Whole object graphs are therefore co-located, and a create or update that
// would make an object reference another shard's object is refused with
// ErrCrossShardRef: the engines are fully independent (separate buffer
// pools, heaps, clocks) and a cross-shard pointer would dangle locally.
//
// Shared reference data — objects every shard's computations need, like the
// materials and robots of the geometry schema — is replicated instead:
// NewReplicated creates the object on every shard under the same OID, reads
// are served by any replica, and updates broadcast to all of them. A
// replicated object may only reference other replicated objects.
//
// # Charge parity
//
// Every shard draws OIDs from one router-owned allocator, injected via
// gomdb.Config.OIDAllocator. References encode as varints, so OID magnitude
// affects record length and therefore CPU charges; the shared counter makes
// the same logical plan assign the same OIDs — the same record bytes, the
// same simulated charges — at every shard count. Write fan-outs run
// sequentially in shard-index order for the same reason (deferred
// rematerialization allocates result objects); only scatter reads run in
// parallel. See DESIGN.md "Horizontal sharding" for the parity class this
// buys and its limits.
package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"gomdb"
	"gomdb/internal/object"
)

// Typed refusal errors. Each names a structural limit of the sharded
// configuration, not a transient condition.
var (
	// ErrCrossShardRef is returned when a create or update would make an
	// object reference an object owned by a different shard.
	ErrCrossShardRef = errors.New("shard: reference would cross shards (co-locate the graph with NewOn or replicate the target with NewReplicated)")
	// ErrUnknownOID is returned when an operation names an OID no shard owns.
	ErrUnknownOID = errors.New("shard: unknown object")
	// ErrNotCombinable is returned for GOMql aggregates that cannot be
	// reconstructed from per-shard partials (avg: per-shard averages lose
	// the weights).
	ErrNotCombinable = errors.New("shard: aggregate not combinable from per-shard partials (rewrite avg as sum and count)")
	// ErrNotReadOnly is returned when a GOMql statement routed through the
	// router cannot be proven read-only; materialize statements and
	// side-effecting queries must use the typed API (Materialize, Call).
	ErrNotReadOnly = errors.New("shard: statement is not provably read-only; use the typed API for sharded writes")
	// ErrPartitionedArgs is returned when a materialization names more than
	// one partitioned argument type: the cross product of two partitioned
	// extensions spans shard boundaries, which the independent engines
	// cannot enumerate.
	ErrPartitionedArgs = errors.New("shard: materialization over more than one partitioned argument type (replicate all but one argument extension)")
	// ErrShardCountMismatch is returned by OpenAt when the directory was
	// written with a different shard count.
	ErrShardCountMismatch = errors.New("shard: directory shard count differs from Config.Shards")
	// ErrNoSuchShard is returned by NewOn for a shard number outside
	// [0, shard count).
	ErrNoSuchShard = errors.New("shard: no such shard")
)

// Config configures a sharded database.
type Config struct {
	// Shards is the number of engine instances (default 1).
	Shards int
	// Engine is the per-shard engine configuration. Path, if set, is the
	// router's root directory: shard i stores its pages under
	// Path/shard-i/ and the router keeps its own metadata in
	// Path/router.json. OIDAllocator must be left nil (the router injects
	// its own).
	Engine gomdb.Config
}

// replicated marks an OID owned by every shard in the owner table.
const replicated = -1

// DB is the shard router. It is safe for concurrent use under the same
// contract as gomdb.Database: point and scatter reads run concurrently,
// writes serialize per shard, maintenance fan-outs serialize globally.
type DB struct {
	// points serves the point operations, routing through the shards'
	// engines under mu.
	points
	shards []*gomdb.Database
	alloc  *allocator
	path   string

	// mu guards the routing state below. It orders creates (which consult
	// the allocator and the owner table together) but never wraps a shard
	// call that can block on a shard's own lock for long: routing lookups
	// release it before dispatching.
	mu sync.RWMutex
	// owner maps every live OID to its shard index, or `replicated`.
	owner map[gomdb.OID]int
	// partitioned records type names that have at least one routed (non-
	// replicated) instance; Materialize uses it to refuse multi-partitioned
	// argument cross products.
	partitioned map[string]bool
}

// allocator is the shared OID source injected into every shard
// (object.OIDAllocator). pin makes the next allocation return a specific
// OID once — the replication primitive: the router pins the first replica's
// OID before each subsequent shard's create so all replicas coincide.
type allocator struct {
	mu     sync.Mutex
	next   object.OID
	pinned object.OID // 0 = none
}

func (a *allocator) NextOID() object.OID {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pinned != 0 {
		oid := a.pinned
		a.pinned = 0
		return oid
	}
	oid := a.next
	a.next++
	return oid
}

func (a *allocator) PeekOID() object.OID {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pinned != 0 {
		return a.pinned
	}
	return a.next
}

func (a *allocator) pin(oid object.OID) {
	a.mu.Lock()
	a.pinned = oid
	a.mu.Unlock()
}

// seed raises the counter to at least next.
func (a *allocator) seed(next object.OID) {
	a.mu.Lock()
	if next > a.next {
		a.next = next
	}
	a.mu.Unlock()
}

// Open creates a sharded database. With Engine.Path unset it is in-memory;
// with Path set it delegates to OpenAt, panicking on error.
func Open(cfg Config) *DB {
	if cfg.Engine.Path != "" {
		db, err := OpenAt(cfg)
		if err != nil {
			panic(err)
		}
		return db
	}
	db, err := open(cfg)
	if err != nil {
		panic(err) // unreachable in-memory: open only fails on durable paths
	}
	return db
}

// open builds the router and its engines; durable plumbing is in durable.go.
func open(cfg Config) (*DB, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	db := &DB{
		alloc:       &allocator{next: 1},
		owner:       make(map[gomdb.OID]int),
		partitioned: make(map[string]bool),
		path:        cfg.Engine.Path,
	}
	db.points = points{db: db, lock: &db.mu}
	durable := cfg.Engine.Path != ""
	if durable {
		if err := db.prepareDirs(n); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		ecfg := cfg.Engine
		ecfg.OIDAllocator = db.alloc
		var sh *gomdb.Database
		if durable {
			ecfg.Path = db.shardPath(i)
			var err error
			sh, err = gomdb.OpenAt(ecfg)
			if err != nil {
				for _, prev := range db.shards {
					prev.Crash()
				}
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		} else {
			sh = gomdb.Open(ecfg)
		}
		db.shards = append(db.shards, sh)
		db.on = append(db.on, sh)
	}
	if durable {
		err := db.dropPartialGMRs()
		if err == nil {
			err = db.recoverRouting()
		}
		if err != nil {
			for _, sh := range db.shards {
				sh.Crash()
			}
			return nil, err
		}
	}
	return db, nil
}

// Shards returns the number of engine instances.
func (db *DB) Shards() int { return len(db.shards) }

// Shard returns shard i's engine, for audits and diagnostics. Mutating it
// directly bypasses the routing table; production writes go through the
// router.
func (db *DB) Shard(i int) *gomdb.Database { return db.shards[i] }

// EachShard calls fn for every shard in index order, stopping on error.
func (db *DB) EachShard(fn func(i int, sh *gomdb.Database) error) error {
	for i, sh := range db.shards {
		if err := fn(i, sh); err != nil {
			return err
		}
	}
	return nil
}

// RoutedOIDs returns every OID the routing table knows, in ascending order —
// the audit surface for checking that every entry resolves to a live object.
func (db *DB) RoutedOIDs() []gomdb.OID {
	db.mu.RLock()
	out := make([]gomdb.OID, 0, len(db.owner))
	for oid := range db.owner {
		out = append(out, oid)
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// routeRefs inspects the KRef values among vals and returns the owning shard
// they agree on: ok=false when no value constrains placement (no refs, or
// only replicated refs). Two refs owned by different shards, or a ref to an
// unknown OID, are errors. Caller holds at least db.mu.RLock.
func (db *DB) routeRefsLocked(vals []gomdb.Value) (int, bool, error) {
	shard, constrained := 0, false
	for _, v := range vals {
		if v.Kind != object.KRef {
			continue
		}
		own, ok := db.owner[v.R]
		if !ok {
			return 0, false, fmt.Errorf("%w: oid %v", ErrUnknownOID, v.R)
		}
		if own == replicated {
			continue
		}
		if constrained && own != shard {
			return 0, false, fmt.Errorf("%w: oid %v on shard %d, earlier ref on shard %d", ErrCrossShardRef, v.R, own, shard)
		}
		shard, constrained = own, true
	}
	return shard, constrained, nil
}

// checkRefsOnLocked verifies every KRef in vals is replicated or owned by
// shard sh. Caller holds at least db.mu.RLock.
func (db *DB) checkRefsOnLocked(sh int, vals []gomdb.Value) error {
	for _, v := range vals {
		if v.Kind != object.KRef {
			continue
		}
		own, ok := db.owner[v.R]
		if !ok {
			return fmt.Errorf("%w: oid %v", ErrUnknownOID, v.R)
		}
		if own != replicated && own != sh {
			return fmt.Errorf("%w: oid %v owned by shard %d, object placed on shard %d", ErrCrossShardRef, v.R, own, sh)
		}
	}
	return nil
}

// NewReplicated creates the object on every shard under the same OID — the
// replication primitive for shared reference data (materials, robots). The
// first shard allocates; each subsequent shard's allocation is pinned to the
// same OID, so one replicated create consumes exactly one OID regardless of
// shard count (charge parity across shard counts depends on this). All
// attrs references must themselves be replicated.
func (db *DB) NewReplicated(typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, v := range attrs {
		if v.Kind != object.KRef {
			continue
		}
		own, ok := db.owner[v.R]
		if !ok {
			return 0, fmt.Errorf("%w: oid %v", ErrUnknownOID, v.R)
		}
		if own != replicated {
			return 0, fmt.Errorf("%w: replicated object would reference oid %v owned by shard %d", ErrCrossShardRef, v.R, own)
		}
	}
	oid := db.alloc.PeekOID()
	for i, sh := range db.shards {
		if i > 0 {
			db.alloc.pin(oid)
		}
		got, err := sh.New(typeName, attrs...)
		if err != nil {
			return 0, fmt.Errorf("shard %d replica: %w", i, err)
		}
		if got != oid {
			return 0, fmt.Errorf("shard: replica OID skew: shard %d allocated %v, expected %v", i, got, oid)
		}
	}
	db.owner[oid] = replicated
	return oid, nil
}

// handle is one shard's point-op surface: its *gomdb.Database at top level,
// or the *gomdb.Tx of its open batch.
type handle interface {
	New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
	NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error)
	Delete(oid gomdb.OID) error
	Exists(oid gomdb.OID) bool
	Set(oid gomdb.OID, attr string, v gomdb.Value) error
	GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error)
	Insert(set gomdb.OID, elem gomdb.Value) error
	Remove(set gomdb.OID, elem gomdb.Value) error
	Call(fn string, args ...gomdb.Value) (gomdb.Value, error)
}

// points is the routing scope DB and Tx both embed: the point operations,
// written once. The two scopes differ in what on[i] is (shard i's engine, or
// its batch handle) and in lock: &db.mu at top level, held{} inside a batch,
// which took db.mu when it began. At top level the routing lock is never held
// across a shard call except by a create, whose PeekOID-based placement and
// owner-table entry must stay coherent.
type points struct {
	db   *DB
	on   []handle
	lock rwLocker
}

type rwLocker interface {
	Lock()
	Unlock()
	RLock()
	RUnlock()
}

// held is the routing lock of a batch body: the batch already holds db.mu.
type held struct{}

func (held) Lock()    {}
func (held) Unlock()  {}
func (held) RLock()   {}
func (held) RUnlock() {}

// Owner reports which shard owns oid: the shard index, or -1 with ok=true
// for a replicated object. ok=false means no shard knows the OID.
func (p *points) Owner(oid gomdb.OID) (int, bool) {
	p.lock.RLock()
	defer p.lock.RUnlock()
	sh, ok := p.db.owner[oid]
	return sh, ok
}

// ShardFor is the placement hash: it maps a key (normally a prospective OID)
// to a shard index by Fibonacci multiplicative hashing — the same constant
// the RRR uses to scramble OIDs into page probes, applied here to spread
// consecutively allocated OIDs evenly across shards.
func (p *points) ShardFor(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> 33 % uint64(len(p.on)))
}

// New creates a tuple-structured instance, placing it with the graph it
// references: the owner of the first routed reference among attrs wins; an
// unconstrained create (no refs, or only replicated refs) is placed by OID
// hash. References owned by two different shards are refused.
func (p *points) New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	return p.create(typeName, attrs, p.placeLocked, handle.New)
}

// NewOn creates a tuple-structured instance on an explicit shard — the
// placement primitive for co-locating a graph before its internal references
// exist (create the vertices on shard s, then the cuboid referencing them).
func (p *points) NewOn(sh int, typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	on := func(vals []gomdb.Value) (int, error) {
		if sh < 0 || sh >= len(p.on) {
			return 0, fmt.Errorf("%w: %d of %d", ErrNoSuchShard, sh, len(p.on))
		}
		return sh, p.db.checkRefsOnLocked(sh, vals)
	}
	return p.create(typeName, attrs, on, handle.New)
}

// NewSet creates a set- or list-structured instance, routed like New.
func (p *points) NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error) {
	return p.create(typeName, elems, p.placeLocked, handle.NewSet)
}

// placeLocked picks the shard of a create that names none: the owner of the
// first routed reference among vals, else the OID hash.
func (p *points) placeLocked(vals []gomdb.Value) (int, error) {
	sh, constrained, err := p.db.routeRefsLocked(vals)
	if err == nil && !constrained {
		sh = p.ShardFor(uint64(p.db.alloc.PeekOID()))
	}
	return sh, err
}

// create runs a create on the shard place picks and records ownership, under
// the routing lock (creates serialize through the router so the PeekOID-based
// placement and the owner table stay coherent). The engine stores an object
// BEFORE it runs the type's new-object hooks, so a hook that fails (a GMR
// insert hitting a disk fault) returns an error over an object that exists:
// next, the OID the allocator was about to hand out, is then live on the
// shard and must be routed like any other — a live object without an entry
// can be neither reached nor deleted. The caller still gets the error.
func (p *points) create(typeName string, vals []gomdb.Value, place func([]gomdb.Value) (int, error),
	create func(h handle, typeName string, vals ...gomdb.Value) (gomdb.OID, error)) (gomdb.OID, error) {
	p.lock.Lock()
	defer p.lock.Unlock()
	sh, err := place(vals)
	if err != nil {
		return 0, err
	}
	next := p.db.alloc.PeekOID()
	oid, err := create(p.on[sh], typeName, vals...)
	if err != nil {
		if !p.on[sh].Exists(next) {
			return 0, err
		}
		oid = next
	}
	p.db.owner[oid] = sh
	p.db.partitioned[typeName] = true
	if err != nil {
		return 0, err
	}
	return oid, nil
}

// route resolves oid's shard for a point operation; a replicated object
// routes reads to shard 0.
func (p *points) route(oid gomdb.OID) (int, error) {
	p.lock.RLock()
	defer p.lock.RUnlock()
	sh, ok := p.db.owner[oid]
	if !ok {
		return 0, fmt.Errorf("%w: oid %v", ErrUnknownOID, oid)
	}
	if sh == replicated {
		return 0, nil
	}
	return sh, nil
}

// each runs fn on owner sh, or on every replica in shard order for a
// replicated object, stopping at the first error.
func (p *points) each(sh int, fn func(handle) error) error {
	if sh != replicated {
		return fn(p.on[sh])
	}
	for i, h := range p.on {
		if err := fn(h); err != nil {
			return fmt.Errorf("shard %d replica: %w", i, err)
		}
	}
	return nil
}

// live reports whether oid still exists on owner sh (on any replica for a
// replicated object).
func (p *points) live(sh int, oid gomdb.OID) bool {
	if sh != replicated {
		return p.on[sh].Exists(oid)
	}
	for _, h := range p.on {
		if h.Exists(oid) {
			return true
		}
	}
	return false
}

// Delete removes an object: point-routed to its owner, or broadcast to every
// replica in shard order for a replicated object. The engine runs the forget
// hooks before it removes the object, so a failed delete can leave the object
// alive; its routing entry then comes back (the mirror of create).
func (p *points) Delete(oid gomdb.OID) error {
	p.lock.Lock()
	sh, ok := p.db.owner[oid]
	delete(p.db.owner, oid)
	p.lock.Unlock()
	if !ok {
		return fmt.Errorf("%w: oid %v", ErrUnknownOID, oid)
	}
	err := p.each(sh, func(h handle) error { return h.Delete(oid) })
	if err != nil && p.live(sh, oid) {
		p.lock.Lock()
		p.db.owner[oid] = sh
		p.lock.Unlock()
	}
	return err
}

// Set performs the elementary update oid.set_attr(v), point-routed to the
// owner — its RRR invalidation sweep runs on that shard alone. A replicated
// object's update broadcasts to every replica in shard order. A reference
// value must stay on the owner's shard (or be replicated).
func (p *points) Set(oid gomdb.OID, attr string, v gomdb.Value) error {
	p.lock.RLock()
	sh, ok := p.db.owner[oid]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("%w: oid %v", ErrUnknownOID, oid)
	case sh == replicated:
		if v.Kind == object.KRef && p.db.owner[v.R] != replicated {
			err = fmt.Errorf("%w: replicated object would reference routed oid %v", ErrCrossShardRef, v.R)
		}
	default:
		err = p.db.checkRefsOnLocked(sh, []gomdb.Value{v})
	}
	p.lock.RUnlock()
	if err != nil {
		return err
	}
	return p.each(sh, func(h handle) error { return h.Set(oid, attr, v) })
}

// GetAttr reads attribute attr of oid from its owner (shard 0 for a
// replicated object — all replicas are identical).
func (p *points) GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error) {
	sh, err := p.route(oid)
	if err != nil {
		return gomdb.Null(), err
	}
	return p.on[sh].GetAttr(oid, attr)
}

// Insert performs set.insert(elem), point-routed to the set's owner.
func (p *points) Insert(set gomdb.OID, elem gomdb.Value) error {
	sh, err := p.route(set)
	if err != nil {
		return err
	}
	p.lock.RLock()
	err = p.db.checkRefsOnLocked(sh, []gomdb.Value{elem})
	p.lock.RUnlock()
	if err != nil {
		return err
	}
	return p.on[sh].Insert(set, elem)
}

// Remove performs set.remove(elem), point-routed to the set's owner.
func (p *points) Remove(set gomdb.OID, elem gomdb.Value) error {
	sh, err := p.route(set)
	if err != nil {
		return err
	}
	return p.on[sh].Remove(set, elem)
}

// Call invokes a declared function or operation, point-routed by its
// reference arguments: the owner of the first routed ref serves the call (a
// forward lookup then probes only that shard's GMR). Arguments owned by two
// different shards are refused; a call with no routed refs (literals,
// replicated objects) runs on shard 0.
func (p *points) Call(fn string, args ...gomdb.Value) (gomdb.Value, error) {
	p.lock.RLock()
	sh, _, err := p.db.routeRefsLocked(args)
	p.lock.RUnlock()
	if err != nil {
		return gomdb.Null(), err
	}
	return p.on[sh].Call(fn, args...)
}
