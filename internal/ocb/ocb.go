// Package ocb is an OCB-style synthetic workload generator (after Darmont &
// Schneider's "Object Clustering Benchmark" / "Object Database Benchmarks"):
// a Params struct — class count, reference fan-out, derived-function depth,
// numeric attribute mix, instance count, hot-set fraction, Zipf-like access
// skew — expands seed-deterministically into
//
//	(a) a gomdb schema whose derived functions span support-set sizes from a
//	    single attribute read up to FanOut^Depth transitive loads,
//	(b) a populated object base (plain or sharded through the router's shared
//	    OID allocator, so OIDs and charges are shard-count-independent), and
//	(c) a reproducible op stream over that base with per-op-class weights.
//
// The determinism contract matches sim.Generate: ALL randomness is consumed
// at generation time (Gen and GenStream), producing pure values — a Base of
// pre-drawn attribute values and reference indices, and ops whose targets are
// resolved indices. Applying either consumes no randomness, so the same
// Params+seed yields byte-identical schemas, population traces, and op
// streams regardless of GOMAXPROCS, shard count, or how often they are
// replayed.
//
// The class graph is a layered DAG: instances of class C<i> hold FanOut
// references into class C<i+1>, and the deepest class holds none. Layering
// (rather than OCB's general random graph) keeps the base cycle-free — every
// derived function terminates — and maps directly onto the shard router's
// placement rule: class 0 partitions across shards, deeper classes replicate,
// and references only ever point from shallower to deeper, so no edge crosses
// shards.
package ocb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"gomdb"
	"gomdb/internal/lang"
	"gomdb/internal/shard"
)

// Params parameterizes one synthetic object base. The zero value is invalid;
// start from Baseline or Demo and override.
type Params struct {
	// Classes is the number of classes in the layered reference DAG (OCB NC).
	Classes int `json:"classes"`
	// FanOut is the reference count per instance into the next class
	// (OCB MAXNREF). 0 yields a flat base with no derived chains.
	FanOut int `json:"fanout"`
	// Depth bounds the derived-function recursion depth: class 0 defines
	// tot1..tot<min(Depth, Classes-1)>, where tot<d>'s support set spans
	// FanOut^d transitively referenced instances.
	Depth int `json:"depth"`
	// NumAttrs is the numeric (float) attribute count per class.
	NumAttrs int `json:"numattrs"`
	// Instances is the instance count per class (total objects =
	// Classes*Instances; OCB NO is the total).
	Instances int `json:"instances"`
	// HotFraction is the fraction of each extension forming the hot set.
	HotFraction float64 `json:"hot_fraction"`
	// Skew is the probability an access targets the hot set; within the hot
	// set ranks are drawn Zipf-like (weight 1/(rank+1)). 0 is uniform.
	Skew float64 `json:"skew"`
}

// Baseline returns OCB's published baseline: NC=50 classes, MAXNREF=10
// references, NO=20,000 instances (400 per class), 10 numeric attributes,
// with the conventional 20% hot set taking 80% of accesses. Derived-function
// depth 4 keeps the deepest support set at 10^4 — the paper's "expensive
// function" regime. Full-baseline materialization of the deep GMR is
// intentionally costly; tests and figures use scaled-down Params.
func Baseline() Params {
	return Params{Classes: 50, FanOut: 10, Depth: 4, NumAttrs: 10,
		Instances: 400, HotFraction: 0.2, Skew: 0.8}
}

// Demo returns a small base suitable for serving, conformance runs, and sim
// plans: 4 classes x 12 instances, fan-out 2, depth 2.
func Demo() Params {
	return Params{Classes: 4, FanOut: 2, Depth: 2, NumAttrs: 3,
		Instances: 12, HotFraction: 0.25, Skew: 0.8}
}

// ErrBadParams is wrapped by every Validate failure, so callers can
// errors.Is-gate on invalid parameter sets.
var ErrBadParams = errors.New("ocb: invalid params")

// Validate reports the first invalid field. Degenerate-but-meaningful corners
// (Depth 0, FanOut 0, HotFraction 1.0, a single class) are valid.
func (p Params) Validate() error {
	switch {
	case p.Classes < 1:
		return fmt.Errorf("%w: Classes %d < 1", ErrBadParams, p.Classes)
	case p.Instances < 1:
		return fmt.Errorf("%w: Instances %d < 1", ErrBadParams, p.Instances)
	case p.NumAttrs < 1:
		return fmt.Errorf("%w: NumAttrs %d < 1", ErrBadParams, p.NumAttrs)
	case p.FanOut < 0:
		return fmt.Errorf("%w: FanOut %d < 0", ErrBadParams, p.FanOut)
	case p.Depth < 0:
		return fmt.Errorf("%w: Depth %d < 0", ErrBadParams, p.Depth)
	case p.HotFraction < 0 || p.HotFraction > 1:
		return fmt.Errorf("%w: HotFraction %g outside [0,1]", ErrBadParams, p.HotFraction)
	case p.Skew < 0 || p.Skew > 1:
		return fmt.Errorf("%w: Skew %g outside [0,1]", ErrBadParams, p.Skew)
	}
	return nil
}

// ClassName names class c ("C0" is the shallow, partitioned class).
func ClassName(c int) string { return fmt.Sprintf("C%d", c) }

// maxDepth is the deepest tot<d> function class 0 defines: recursion is
// bounded by Depth and by the layers below class 0, and vanishes entirely
// without references.
func (p Params) maxDepth() int {
	if p.FanOut <= 0 || p.Classes <= 1 {
		return 0
	}
	d := p.Classes - 1
	if p.Depth < d {
		d = p.Depth
	}
	return d
}

// classDepth is the deepest tot<d> class c defines.
func (p Params) classDepth(c int) int {
	if p.FanOut <= 0 {
		return 0
	}
	d := p.Classes - 1 - c
	if p.Depth < d {
		d = p.Depth
	}
	return d
}

// hasRefs reports whether class c carries reference attributes.
func (p Params) hasRefs(c int) bool { return p.FanOut > 0 && c < p.Classes-1 }

// SchemaTrace renders the schema Define(p) builds as one canonical line per
// class — the byte-identity surface the determinism tests pin. The schema is
// a pure function of Params (the seed only drives values and edges), which is
// what lets a durable store's DefineSchema closure re-derive it on recovery.
func SchemaTrace(p Params) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ocb schema classes=%d fanout=%d depth=%d numattrs=%d\n",
		p.Classes, p.FanOut, p.Depth, p.NumAttrs)
	for c := p.Classes - 1; c >= 0; c-- {
		fmt.Fprintf(&sb, "%s attrs=[Id", ClassName(c))
		for a := 0; a < p.NumAttrs; a++ {
			fmt.Fprintf(&sb, " N%d", a)
		}
		if p.hasRefs(c) {
			for j := 0; j < p.FanOut; j++ {
				fmt.Fprintf(&sb, " R%d:%s", j, ClassName(c+1))
			}
		}
		fmt.Fprintf(&sb, "] ops=[n0 tot0")
		for d := 1; d <= p.classDepth(c); d++ {
			fmt.Fprintf(&sb, " tot%d", d)
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// Define builds the schema for p on db: per class, an Id, NumAttrs float
// attributes, FanOut references to the next class, and the derived functions
// n0 (one attribute read), tot0 (local numeric sum), and tot<d> (local sum
// plus tot<d-1> over every reference — support set ~FanOut^d). Classes are
// defined deepest-first so referenced types exist before referencing types.
func Define(db *gomdb.Database, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for c := p.Classes - 1; c >= 0; c-- {
		attrs := make([]gomdb.AttrDef, 0, 1+p.NumAttrs+p.FanOut)
		attrs = append(attrs, gomdb.PubAttr("Id", "int"))
		for a := 0; a < p.NumAttrs; a++ {
			attrs = append(attrs, gomdb.PubAttr(fmt.Sprintf("N%d", a), "float"))
		}
		if p.hasRefs(c) {
			for j := 0; j < p.FanOut; j++ {
				attrs = append(attrs, gomdb.PubAttr(fmt.Sprintf("R%d", j), ClassName(c+1)))
			}
		}
		ops := []string{"n0", "tot0"}
		for d := 1; d <= p.classDepth(c); d++ {
			ops = append(ops, fmt.Sprintf("tot%d", d))
		}
		if err := db.DefineType(gomdb.NewTupleType(ClassName(c), attrs...), ops...); err != nil {
			return err
		}
		if err := defineOps(db, p, c); err != nil {
			return err
		}
	}
	return nil
}

func defineOps(db *gomdb.Database, p Params, c int) error {
	self := lang.Self()
	name := ClassName(c)

	n0 := &lang.Function{
		Params:         []lang.Param{lang.Prm("self", name)},
		ResultType:     "float",
		SideEffectFree: true,
		Body:           []lang.Stmt{lang.Ret(lang.A(self, "N0"))},
	}
	if err := db.DefineOp(name, "n0", n0); err != nil {
		return err
	}

	localSum := func() lang.Expr {
		e := lang.A(self, "N0")
		for a := 1; a < p.NumAttrs; a++ {
			e = lang.Add(e, lang.A(self, fmt.Sprintf("N%d", a)))
		}
		return e
	}
	tot0 := &lang.Function{
		Params:         []lang.Param{lang.Prm("self", name)},
		ResultType:     "float",
		SideEffectFree: true,
		Body:           []lang.Stmt{lang.Ret(localSum())},
	}
	if err := db.DefineOp(name, "tot0", tot0); err != nil {
		return err
	}

	for d := 1; d <= p.classDepth(c); d++ {
		e := localSum()
		callee := fmt.Sprintf("%s.tot%d", ClassName(c+1), d-1)
		for j := 0; j < p.FanOut; j++ {
			e = lang.Add(e, lang.CallFn(callee, lang.A(self, fmt.Sprintf("R%d", j))))
		}
		totd := &lang.Function{
			Params:         []lang.Param{lang.Prm("self", name)},
			ResultType:     "float",
			SideEffectFree: true,
			Body:           []lang.Stmt{lang.Ret(e)},
		}
		if err := db.DefineOp(name, fmt.Sprintf("tot%d", d), totd); err != nil {
			return err
		}
	}
	return nil
}

// Inst is one pre-drawn instance: numeric attribute values and, for
// non-deepest classes, indices into the next class's extension.
type Inst struct {
	Nums []float64 `json:"nums"`
	Refs []int     `json:"refs,omitempty"`
}

// Base is a fully expanded object base — a pure value. Insts[c][i] is
// instance i of class c; Populate walks it without consuming randomness.
type Base struct {
	P     Params   `json:"params"`
	Seed  int64    `json:"seed"`
	Insts [][]Inst `json:"insts"`
}

// Gen expands p into a Base, consuming all population randomness from seed.
func Gen(p Params, seed int64) (*Base, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := &Base{P: p, Seed: seed, Insts: make([][]Inst, p.Classes)}
	// Draw in creation order (deepest class first) so the trace reads in the
	// order objects come into being.
	for c := p.Classes - 1; c >= 0; c-- {
		insts := make([]Inst, p.Instances)
		for i := range insts {
			nums := make([]float64, p.NumAttrs)
			for a := range nums {
				nums[a] = math.Round(rng.Float64()*10000) / 100 // 2 decimals: stable %g rendering
			}
			insts[i].Nums = nums
			if p.hasRefs(c) {
				refs := make([]int, p.FanOut)
				for j := range refs {
					refs[j] = rng.Intn(p.Instances)
				}
				insts[i].Refs = refs
			}
		}
		b.Insts[c] = insts
	}
	return b, nil
}

// id is the 1-based creation-order id of instance i of class c (deepest class
// created first). It doubles as the sharding key for class 0.
func (b *Base) id(c, i int) int64 {
	return int64((b.P.Classes-1-c)*b.P.Instances + i + 1)
}

// PopTrace renders the population byte-identically: one line per instance in
// creation order. Two bases are the same object base iff their traces match.
func (b *Base) PopTrace() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ocb base seed=%d classes=%d instances=%d\n", b.Seed, b.P.Classes, b.P.Instances)
	for c := b.P.Classes - 1; c >= 0; c-- {
		for i, inst := range b.Insts[c] {
			fmt.Fprintf(&sb, "%s[%d] id=%d n=%v", ClassName(c), i, b.id(c, i), inst.Nums)
			if len(inst.Refs) > 0 {
				fmt.Fprintf(&sb, " r=%v", inst.Refs)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// World maps the Base back to live OIDs: Classes[c][i] is the OID of
// Insts[c][i]. Streams contain no creates or deletes, so it is stable for the
// life of a run (crash recovery re-reads it from the extensions).
type World struct {
	Classes [][]gomdb.OID
}

// Populate creates every instance of b through p, deepest class first so
// references resolve to already-created objects. The creation order does not
// depend on p, so the router's shared OID allocator hands out the same OIDs
// at every shard count. Deep classes (1..Classes-1) replicate — they are
// reference data every class-0 chain may traverse, and one replicated create
// consumes exactly one OID — while class 0 partitions by creation id.
func Populate(p shard.Placement, b *Base) (*World, error) {
	w := &World{Classes: make([][]gomdb.OID, b.P.Classes)}
	for c := b.P.Classes - 1; c >= 0; c-- {
		oids := make([]gomdb.OID, 0, len(b.Insts[c]))
		for i := range b.Insts[c] {
			var oid gomdb.OID
			var err error
			if c > 0 {
				oid, err = p.NewReplicated(ClassName(c), b.attrs(w, c, i)...)
			} else {
				oid, err = p.NewOn(p.ShardFor(uint64(b.id(c, i))), ClassName(c), b.attrs(w, c, i)...)
			}
			if err != nil {
				return nil, fmt.Errorf("ocb: populate %s[%d]: %w", ClassName(c), i, err)
			}
			oids = append(oids, oid)
		}
		w.Classes[c] = oids
	}
	return w, nil
}

// attrs renders Insts[c][i] as a creation attribute list in schema order.
func (b *Base) attrs(w *World, c, i int) []gomdb.Value {
	inst := b.Insts[c][i]
	attrs := make([]gomdb.Value, 0, 1+len(inst.Nums)+len(inst.Refs))
	attrs = append(attrs, gomdb.Int(b.id(c, i)))
	for _, n := range inst.Nums {
		attrs = append(attrs, gomdb.Float(n))
	}
	for _, r := range inst.Refs {
		attrs = append(attrs, gomdb.Ref(w.Classes[c+1][r]))
	}
	return attrs
}

// GMRSpec is one entry of the GMR catalog a Params set derives. Every spec is
// a single-function GMR over class 0: the partitioned class under the shard
// router (single partitioned argument, so sharded Materialize accepts it),
// and the only class whose functions span the full depth range.
type GMRSpec struct {
	Name       string
	Funcs      []string
	Complete   bool
	MaxEntries int
}

// Catalog derives the GMR catalog for p: a trivial-support complete GMR
// (On0), mid- and max-depth complete GMRs when the graph is deep enough
// (Omid, Odeep), and a bounded incomplete result cache (Ocache). Each spec
// materializes a distinct function.
func Catalog(p Params) []GMRSpec {
	maxd := p.maxDepth()
	specs := []GMRSpec{{Name: "On0", Funcs: []string{"C0.n0"}, Complete: true}}
	if maxd >= 2 {
		specs = append(specs, GMRSpec{Name: "Omid",
			Funcs: []string{fmt.Sprintf("C0.tot%d", (maxd+1)/2)}, Complete: true})
	}
	if maxd >= 1 {
		specs = append(specs, GMRSpec{Name: "Odeep",
			Funcs: []string{fmt.Sprintf("C0.tot%d", maxd)}, Complete: true})
	}
	specs = append(specs, GMRSpec{Name: "Ocache", Funcs: []string{"C0.tot0"},
		Complete: false, MaxEntries: 16})
	return specs
}

// ForwardFuncs lists the class-0 functions forward lookups draw from.
func ForwardFuncs(p Params) []string {
	fns := []string{"C0.n0", "C0.tot0"}
	for d := 1; d <= p.maxDepth(); d++ {
		fns = append(fns, fmt.Sprintf("C0.tot%d", d))
	}
	return fns
}

// Op is one fully parameterized stream operation. Kind values equal the sim
// package's OpKind strings so streams convert field-for-field into sim plans;
// X is a resolved instance index (hot/cold skew already applied) or a catalog
// index, N a class or count selector, S a function or attribute name.
type Op struct {
	Kind string    `json:"kind"`
	X    int       `json:"x,omitempty"`
	N    int       `json:"n,omitempty"`
	S    string    `json:"s,omitempty"`
	F    []float64 `json:"f,omitempty"`
	Sub  []Op      `json:"sub,omitempty"`
}

// Weights sets the relative frequency of each op class in a stream; they
// need not sum to anything in particular. The zero value means
// DefaultWeights.
type Weights struct {
	Forward  int // forward lookup of a class-0 function
	Update   int // elementary numeric-attribute update, any class
	Batch    int // 2-5 updates in one Batch
	Backward int // backward range query
	Sum      int // aggregate over a class-0 prefix
	Retrieve int // tabular retrieval against a catalog GMR
	MatDemat int // materialize/dematerialize a catalog entry
	Flush    int // drain the deferred queue
	SnapRead int // MVCC snapshot read + per-snapshot congruence audit
	GC       int // result garbage collection + RRR reorganization
}

func (w Weights) total() int {
	return w.Forward + w.Update + w.Batch + w.Backward + w.Sum + w.Retrieve +
		w.MatDemat + w.Flush + w.SnapRead + w.GC
}

// DefaultWeights is forward-dominant, like the paper's workloads.
func DefaultWeights() Weights {
	return Weights{Forward: 30, Update: 14, Batch: 7, Backward: 8, Sum: 4,
		Retrieve: 6, MatDemat: 7, Flush: 8, SnapRead: 5, GC: 3}
}

// UpdateHeavyWeights is write-dominant with frequent flushes and a thin,
// hot-skewed read stream — the regime where lazy beats deferred on deep
// chains: deferred recomputes every invalidated deep entry at each flush,
// lazy only the few the hot set actually reads.
func UpdateHeavyWeights() Weights {
	return Weights{Forward: 10, Update: 45, Batch: 15, Backward: 0, Sum: 0,
		Retrieve: 0, MatDemat: 0, Flush: 25, SnapRead: 0, GC: 0}
}

// StreamOptions tunes GenStream.
type StreamOptions struct {
	// Ops is the target op count (default 150).
	Ops int
	// W weights the op classes (zero value: DefaultWeights).
	W Weights
	// AuditEvery inserts an audit op every N generated ops (0: default 20;
	// negative: no audits — for re-runnable benchmark streams).
	AuditEvery int
}

// GenStream derives a reproducible op stream for p from seed, consuming all
// randomness here. When MatDemat > 0 the stream opens by materializing the
// trivial and deepest catalog entries (the workload's center of gravity);
// with MatDemat == 0 the stream is mat/demat-free and therefore re-runnable
// against an externally materialized base.
func GenStream(p Params, seed int64, opt StreamOptions) []Op {
	if err := p.Validate(); err != nil {
		return nil
	}
	n := opt.Ops
	if n <= 0 {
		n = 150
	}
	w := opt.W
	if w == (Weights{}) {
		w = DefaultWeights()
	}
	auditEvery := opt.AuditEvery
	if auditEvery == 0 {
		auditEvery = 20
	}
	rng := rand.New(rand.NewSource(seed))
	cat := Catalog(p)
	fwd := ForwardFuncs(p)

	var ops []Op
	if w.MatDemat > 0 {
		ops = append(ops, Op{Kind: "mat", X: 0})
		if deep := len(cat) - 2; deep > 0 { // Odeep, when the graph has depth
			ops = append(ops, Op{Kind: "mat", X: deep})
		}
	}
	sinceAudit := 0
	for len(ops) < n {
		if auditEvery > 0 && sinceAudit >= auditEvery {
			ops = append(ops, Op{Kind: "audit"})
			sinceAudit = 0
			continue
		}
		ops = append(ops, genStreamOp(rng, p, cat, fwd, w))
		sinceAudit++
	}
	return ops
}

func genStreamOp(rng *rand.Rand, p Params, cat []GMRSpec, fwd []string, w Weights) Op {
	r := rng.Intn(w.total())
	pick := func(weight int) bool {
		if r < weight {
			return true
		}
		r -= weight
		return false
	}
	switch {
	case pick(w.Forward):
		return Op{Kind: "forward", X: pickIdx(rng, p), S: fwd[rng.Intn(len(fwd))]}
	case pick(w.Update):
		return genUpdate(rng, p)
	case pick(w.Batch):
		sub := make([]Op, 2+rng.Intn(4))
		for i := range sub {
			sub[i] = genUpdate(rng, p)
		}
		return Op{Kind: "batch", Sub: sub}
	case pick(w.Backward):
		lo := rng.Float64() * 200
		return Op{Kind: "backward", S: fwd[rng.Intn(len(fwd))],
			F: []float64{lo, lo + rng.Float64()*float64(800*(1+p.maxDepth()))}}
	case pick(w.Sum):
		return Op{Kind: "sum", S: fwd[rng.Intn(len(fwd))], N: rng.Intn(1 << 16)}
	case pick(w.Retrieve):
		lo := rng.Float64() * 200
		return Op{Kind: "retrieve", X: rng.Intn(len(cat)),
			F: []float64{lo, lo + rng.Float64()*float64(800*(1+p.maxDepth()))}}
	case pick(w.MatDemat):
		if rng.Intn(2) == 0 {
			return Op{Kind: "demat", X: rng.Intn(len(cat))}
		}
		return Op{Kind: "mat", X: rng.Intn(len(cat))}
	case pick(w.Flush):
		return Op{Kind: "flush"}
	case pick(w.SnapRead):
		return Op{Kind: "snap-read", X: pickIdx(rng, p), S: fwd[rng.Intn(len(fwd))]}
	default:
		return Op{Kind: "gc"}
	}
}

// genUpdate draws one elementary update: a numeric attribute of a hot/cold-
// picked instance of a uniformly chosen class. Updates to deep classes
// exercise transitive invalidation through the RRR — one deep write
// invalidates every class-0 entry whose support set traverses it.
func genUpdate(rng *rand.Rand, p Params) Op {
	return Op{Kind: "set-value", X: pickIdx(rng, p), N: rng.Intn(p.Classes),
		S: fmt.Sprintf("N%d", rng.Intn(p.NumAttrs)),
		F: []float64{math.Round(rng.Float64()*10000) / 100}}
}

// pickIdx resolves one instance index with the configured skew: with
// probability Skew the access lands in the hot set (the first
// ceil(HotFraction*n) instances) at a Zipf-like rank (weight 1/(rank+1),
// drawn by inverse CDF over the harmonic weights); otherwise it is uniform
// over the cold remainder. The index is final — applying an op never
// re-draws, which is what keeps streams byte-identical across consumers.
func pickIdx(rng *rand.Rand, p Params) int {
	n := p.Instances
	if n <= 1 {
		rng.Float64() // keep the draw count independent of n
		return 0
	}
	hot := int(math.Ceil(p.HotFraction * float64(n)))
	if hot < 1 {
		hot = 1
	}
	if rng.Float64() >= p.Skew && hot < n {
		return hot + rng.Intn(n-hot)
	}
	var h float64
	for r := 0; r < hot; r++ {
		h += 1 / float64(r+1)
	}
	u := rng.Float64() * h
	for r := 0; r < hot; r++ {
		u -= 1 / float64(r+1)
		if u <= 0 {
			return r
		}
	}
	return hot - 1
}

// StreamTrace renders an op stream byte-identically, one op per line.
func StreamTrace(ops []Op) string {
	var sb strings.Builder
	for i, op := range ops {
		fmt.Fprintf(&sb, "%04d %s", i, opLine(op))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func opLine(op Op) string {
	s := fmt.Sprintf("%-10s x=%d n=%d s=%q f=%v", op.Kind, op.X, op.N, op.S, op.F)
	if len(op.Sub) > 0 {
		subs := make([]string, len(op.Sub))
		for i, sub := range op.Sub {
			subs[i] = opLine(sub)
		}
		s += " {" + strings.Join(subs, "; ") + "}"
	}
	return s
}
