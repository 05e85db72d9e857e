// Package sim is a deterministic simulation harness for the GMR engine: it
// generates seeded random workloads (object creation and deletion, elementary
// updates, geometric transformations, materializations, forward/backward/
// tabular lookups, batches, flushes, garbage collection), executes them
// against a chosen engine configuration, audits the paper's invariants at
// every quiescent point, and — when an invariant breaks — shrinks the op
// trace to a minimal reproducer and writes a replayable artifact.
//
// Determinism is the load-bearing property: a plan is fully parameterized at
// generation time (applying an op consumes no randomness), every engine path
// the simulator drives iterates in canonical order, and the cost model
// charges identically for every buffer-shard count. The pinned consequence,
// verified by TestChargeDeterminism: same seed + same strategy produces a
// byte-identical op trace and a byte-identical Clock snapshot across shard
// counts {1,4,16}.
//
// Operational errors (a backward query against a dropped GMR, an injected
// disk fault) are workload outcomes: they are recorded in the trace, and the
// invariant auditors — not error-freedom — decide whether the engine
// misbehaved. A panic, however, is always a violation: the engine's contract
// under fault injection is "typed error or intact invariants", never a crash.
package sim

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"

	"gomdb"
	"gomdb/internal/ocb"
	"gomdb/internal/storage"
)

// EngineConfig selects one cell of the engine-configuration matrix a plan is
// executed against. The zero value is immediate rematerialization with every
// optional mechanism off and default pool geometry.
type EngineConfig struct {
	// Strategy is "immediate", "lazy", or "deferred".
	Strategy string `json:"strategy"`
	// SecondChance enables the second-chance immediate(o) variant.
	SecondChance bool `json:"secondChance,omitempty"`
	// UseMDS maintains the multidimensional index on every GMR.
	UseMDS bool `json:"useMDS,omitempty"`
	// BufferShards is the buffer pool's lock-stripe count (0 = default).
	BufferShards int `json:"bufferShards,omitempty"`
	// Shards runs the plan against a horizontally sharded router
	// (internal/shard) over this many engine instances instead of a single
	// database. 0 means one plain engine; Shards >= 1 exercises the
	// scatter-gather router, including at 1 where it must behave like a
	// plain engine.
	Shards int `json:"shards,omitempty"`
	// BufferPages is the pool capacity (0 = the paper's 150 pages).
	BufferPages int `json:"bufferPages,omitempty"`
	// Broken arms the deliberately-broken invalidation path
	// (core.Manager.TestingBreakInvalidation): updates stop notifying
	// dependent GMR entries, so audits MUST report Definition 3.2
	// violations. Exists so the mutation smoke test can prove the auditors
	// have teeth.
	Broken bool `json:"broken,omitempty"`
	// Durable runs the plan against a file-backed database (gomdb.OpenAt):
	// checkpoints become real I/O and OpCrash ops kill + reopen the store.
	// The simulated Clock is unaffected by durability, so traces and cost
	// snapshots stay comparable with in-memory runs of the same plan.
	Durable bool `json:"durable,omitempty"`
	// CrashDir, when set, is the directory the durable store lives in; its
	// previous contents are wiped at run start and the files are left behind
	// at run end (so a violating run's on-disk state can be attached to its
	// reproducer). When empty, a temp directory is used and removed.
	CrashDir string `json:"-"`
	// OCB switches the run from the hand-built geometry fixture to a
	// synthetic object base generated from these parameters and the plan's
	// seed (internal/ocb). Plans for this axis come from GenerateOCB; the
	// auditors are unchanged — they are fixture-agnostic. Combines with
	// every other field, Shards included.
	OCB *ocb.Params `json:"ocb,omitempty"`
}

func (c EngineConfig) strategy() gomdb.Strategy {
	switch c.Strategy {
	case "lazy":
		return gomdb.Lazy
	case "deferred":
		return gomdb.Deferred
	}
	return gomdb.Immediate
}

// String renders the configuration compactly for test names and artifacts.
func (c EngineConfig) String() string {
	s := c.Strategy
	if s == "" {
		s = "immediate"
	}
	if c.SecondChance {
		s += "+2c"
	}
	if c.UseMDS {
		s += "+mds"
	}
	if c.BufferShards != 0 {
		s += fmt.Sprintf("+shards%d", c.BufferShards)
	}
	if c.Shards != 0 {
		s += fmt.Sprintf("+sharded%d", c.Shards)
	}
	if c.Durable {
		s += "+durable"
	}
	if c.OCB != nil {
		s += "+ocb"
	}
	if c.Broken {
		s += "+BROKEN"
	}
	return s
}

// Violation reports the first audit failure (or panic) of a run.
type Violation struct {
	// OpIndex is the index into Plan.Ops at which the violation surfaced
	// (len(ops) for the implicit final audit).
	OpIndex int `json:"opIndex"`
	// Msgs are the auditor messages.
	Msgs []string `json:"msgs"`
}

func (v *Violation) String() string {
	return fmt.Sprintf("op %d: %s", v.OpIndex, strings.Join(v.Msgs, "; "))
}

// Result is the outcome of one simulated run.
type Result struct {
	// Trace is one canonical line per applied op (plus audit outcomes). Two
	// runs are equivalent iff their traces are byte-identical.
	Trace []string
	// TraceHash is the FNV-1a hash of Trace.
	TraceHash uint64
	// Clock is the final simulated-cost snapshot.
	Clock storage.Clock
	// Violation is the first invariant failure, or nil for a clean run.
	Violation *Violation
	// FaultsInjected counts disk failures injected across all fault windows.
	FaultsInjected int
}

// runner is the mutable execution state of one run: the engine under test
// behind the backend seam, the object base behind the fixture seam, and the
// bookkeeping neither owns.
type runner struct {
	cfg EngineConfig
	// dir is the durable store's directory ("" on in-memory runs); OpCrash
	// reopens it.
	dir string
	b   backend
	fx  fixture
	cat []gmrSpec

	matted     map[int]bool // catalog index -> currently materialized
	faultsOpen bool
	faults     int // total faults injected across closed windows
}

// Run executes plan against cfg and returns the trace, cost snapshot, and
// first invariant violation (if any).
func Run(cfg EngineConfig, plan Plan) (res *Result) {
	res = &Result{}
	r := &runner{cfg: cfg, matted: make(map[int]bool)}
	removeDir := ""
	cur := -1
	defer func() {
		if p := recover(); p != nil {
			res.Violation = &Violation{OpIndex: cur, Msgs: []string{fmt.Sprintf("panic: %v", p)}}
		}
		if r.b != nil {
			res.Clock = r.b.Snapshot()
			res.FaultsInjected = r.faults + r.faultsNow()
			r.b.Crash() // release the durable store's file handles (no-op in-memory)
		}
		if removeDir != "" {
			os.RemoveAll(removeDir)
		}
		h := fnv.New64a()
		for _, line := range res.Trace {
			h.Write([]byte(line))
			h.Write([]byte{'\n'})
		}
		res.TraceHash = h.Sum64()
	}()
	setup := func(stage string, err error) bool {
		if err != nil {
			res.Violation = &Violation{OpIndex: -1, Msgs: []string{stage + ": " + err.Error()}}
		}
		return err == nil
	}

	var err error
	if r.fx, err = newFixture(cfg, plan.Seed); !setup("params", err) {
		return res
	}
	r.cat = r.fx.catalog()
	if cfg.Durable {
		r.dir = cfg.CrashDir
		if r.dir == "" {
			r.dir, err = os.MkdirTemp("", "gomsim-durable-")
			removeDir = r.dir
		} else {
			// A stale store from a previous run of the same artifact directory
			// must not leak into this one.
			err = os.RemoveAll(r.dir)
		}
		if !setup("durable dir", err) {
			return res
		}
	}
	if r.b, err = openBackend(cfg, r.dir, r.fx.define); !setup("open", err) {
		return res
	}
	if !setup("populate", r.fx.populate(r.b, plan)) {
		return res
	}
	// Make the initial object base durable so the earliest possible crash
	// still recovers a populated world.
	if !setup("populate checkpoint", r.b.Checkpoint()) {
		return res
	}
	r.breakInvalidation()

	// step records one trace line and reports whether the run goes on.
	step := func(kind OpKind, detail string, bad *Violation) bool {
		res.Trace = append(res.Trace, fmt.Sprintf("%04d %-10s %s", cur, kind, detail))
		if bad != nil {
			bad.OpIndex = cur
			res.Violation = bad
		}
		return bad == nil
	}
	for i, op := range plan.Ops {
		cur = i
		detail, bad := r.apply(op)
		if !step(op.Kind, detail, bad) {
			return res
		}
	}
	// Implicit final quiescent point: close any window the plan (or
	// shrinking) left open, then audit.
	cur = len(plan.Ops)
	if r.faultsOpen {
		detail, bad := r.applyFaultClear()
		if !step(OpFaultClear, detail, bad) {
			return res
		}
	}
	detail, bad := r.applyAudit()
	step("final-audit", detail, bad)
	return res
}

// breakInvalidation arms (or not) the deliberately-broken invalidation path
// on every engine; a reopened engine starts with it off.
func (r *runner) breakInvalidation() {
	for _, e := range r.b.engines() {
		e.GMRs.TestingBreakInvalidation(r.cfg.Broken)
	}
}

func (r *runner) faultsNow() int {
	total := 0
	for _, e := range r.b.engines() {
		total += e.Disk.FaultsInjected()
	}
	return total
}

// apply executes one op, returning the canonical trace detail and a
// violation if an invariant broke at this op. Operational errors are
// recorded in the detail, not escalated — the auditors decide what counts as
// engine misbehavior.
func (r *runner) apply(op Op) (string, *Violation) {
	switch op.Kind {
	case OpMat:
		return r.applyMat(op.X), nil
	case OpDemat:
		ci := op.X % len(r.cat)
		err := r.b.Dematerialize(r.cat[ci].Name)
		if err == nil {
			delete(r.matted, ci)
		}
		return r.cat[ci].Name + " " + errStr(err), nil
	case OpCreate, OpDelete, OpSetValue, OpSetVertex, OpScale, OpTranslate, OpRotate:
		return r.fx.mutate(r.b.direct(), op, false), nil
	case OpForward:
		args, ok := r.fx.callArgs(op)
		if !ok {
			return r.skipEmpty(), nil
		}
		v, err := r.b.Call(op.S, args...)
		if err != nil {
			return op.S + " ERR " + err.Error(), nil
		}
		return fmt.Sprintf("%s(%s) = %s", op.S, args[0].R, v), nil
	case OpBackward:
		ms, err := r.b.Backward(op.S, op.F[0], op.F[1])
		if err != nil {
			return op.S + " ERR " + err.Error(), nil
		}
		return fmt.Sprintf("%s[%g,%g] %s", op.S, op.F[0], op.F[1], matchStr(ms)), nil
	case OpSum:
		roots := r.fx.roots()
		if len(roots) == 0 {
			return r.skipEmpty(), nil
		}
		k := 1 + op.N%len(roots)
		s, err := r.b.Sum(op.S, append([]gomdb.OID(nil), roots[:k]...))
		if err != nil {
			return op.S + " ERR " + err.Error(), nil
		}
		return fmt.Sprintf("%s over %d = %g", op.S, k, s), nil
	case OpRetrieve:
		spec := r.cat[op.X%len(r.cat)]
		specs := make([]gomdb.FieldSpec, spec.NumArgs+len(spec.Funcs))
		for i := range specs {
			specs[i] = gomdb.AnySpec()
		}
		specs[spec.NumArgs] = gomdb.RangeSpec(op.F[0], op.F[1])
		rows, err := r.b.Retrieve(spec.Name, specs)
		if err != nil {
			return spec.Name + " ERR " + err.Error(), nil
		}
		return fmt.Sprintf("%s[%g,%g] %s", spec.Name, op.F[0], op.F[1], rowStr(rows)), nil
	case OpFlush:
		return errStr(r.b.Flush()), nil
	case OpBatch:
		return r.applyBatch(op.Sub), nil
	case OpGC:
		ngc, nrr := 0, 0
		for _, e := range r.b.engines() {
			n, err := e.GMRs.CollectResultGarbage()
			if err != nil {
				return "ERR " + err.Error(), nil
			}
			ngc += n
			if n, err = e.GMRs.ReorganizeRRR(); err != nil {
				return "ERR " + err.Error(), nil
			}
			nrr += n
		}
		return fmt.Sprintf("collected %d, reorganized %d", ngc, nrr), nil
	case OpAudit:
		if r.faultsOpen {
			return "skipped (faults armed)", nil
		}
		return r.applyAudit()
	case OpSnapRead:
		return r.applySnapRead(op)
	case OpFault:
		eng, label := r.b.target(op.X)
		fp := storage.FaultPlan{Rules: op.Rule}
		eng.Disk.SetFaultPlan(fp)
		r.faultsOpen = true
		return label + fp.String(), nil
	case OpFaultClear:
		return r.applyFaultClear()
	case OpRecluster:
		rep, err := r.b.Recluster()
		if err != nil {
			// Inside a fault window a relocation may abort; the abort is
			// all-or-nothing, so the auditors — not error-freedom — judge it.
			return "ERR " + err.Error(), nil
		}
		return fmt.Sprintf("moved %d/%d (hot=%d chains=%d traces=%d)",
			rep.Moved, rep.Objects, rep.HotObjects, rep.Chains, rep.Traces), nil
	case OpCrash:
		return r.applyCrash(op)
	}
	return "unknown op", &Violation{Msgs: []string{"unknown op kind " + string(op.Kind)}}
}

// skipEmpty is the detail of an op that found no root object to select.
func (r *runner) skipEmpty() string {
	noun, _ := r.fx.census()
	return "skip (no " + noun + ")"
}

// applyCrash kills the durable backend at the op's chosen point and reopens
// it. The mid-commit cuts and the torn write are armed on ONE engine (X mod
// the engine count), so under the router the surviving commit
// horizons diverge across shards and recovery must rebuild a coherent routing
// table from that divergence. A recovery error is a violation — crash-safety
// is the invariant under test — and the recovered state is audited
// immediately, so a recovery that resurrects stale GMR entries or loses
// committed objects fails at this op, not at some later audit. On in-memory
// runs the op is a recorded no-op (plans stay portable across the durability
// axis).
func (r *runner) applyCrash(op Op) (string, *Violation) {
	if r.dir == "" {
		return op.S + " skip (in-memory)", nil
	}
	eng, _ := r.b.target(op.X)
	var trigger string
	switch op.S {
	case "mid-batch":
		eng.TestingFailNextCheckpoint(int64(op.N))
		trigger = fmt.Sprintf("mid-batch@%d %s", op.N, r.applyBatch(op.Sub))
	case "mid-flush":
		eng.TestingFailNextCheckpoint(int64(op.N))
		trigger = fmt.Sprintf("mid-flush@%d %s", op.N, errStr(r.b.Flush()))
	case "mid-mat":
		eng.TestingFailNextCheckpoint(int64(op.N))
		trigger = fmt.Sprintf("mid-mat@%d %s", op.N, r.applyMat(op.X))
	case "torn":
		eng.Disk.SetFaultPlan(storage.FaultPlan{Rules: op.Rule})
		// A batch only commits; the checkpoint after it runs the data-file
		// apply the rule tears.
		trigger = fmt.Sprintf("torn %s checkpoint %s", r.applyBatch(op.Sub), errStr(eng.Checkpoint()))
	default:
		trigger = "now"
	}
	r.faults += r.faultsNow()
	r.b.Crash()
	r.faultsOpen = false // the crash wiped any armed fault plan
	b, err := openBackend(r.cfg, r.dir, r.fx.define)
	if err != nil {
		return trigger + " -> recovery FAILED", &Violation{Msgs: []string{"recovery: " + err.Error()}}
	}
	r.b = b
	r.breakInvalidation()
	// Only checkpointed GMRs come back; a GMR exists on the router iff it
	// exists on every shard, so the first engine speaks for all.
	r.fx.resync(b)
	r.matted = make(map[int]bool)
	for ci, spec := range r.cat {
		if _, ok := b.engines()[0].GMRs.Get(spec.Name); ok {
			r.matted[ci] = true
		}
	}
	detail, bad := r.applyAudit()
	return fmt.Sprintf("%s -> recovered(%s); audit %s", trigger, b.recovered(r.fx.census()), detail), bad
}

func (r *runner) applyMat(x int) string {
	ci := x % len(r.cat)
	spec := r.cat[ci]
	err := r.b.materialize(gomdb.MaterializeOptions{
		Name:         spec.Name,
		Funcs:        spec.Funcs,
		Strategy:     r.cfg.strategy(),
		Complete:     spec.Complete,
		MaxEntries:   spec.MaxEntries,
		SecondChance: r.cfg.SecondChance,
		UseMDS:       r.cfg.UseMDS,
	})
	if err == nil {
		r.matted[ci] = true
	}
	return spec.Name + " " + errStr(err)
}

func (r *runner) applyBatch(sub []Op) string {
	var parts []string
	err := r.b.batch(func(tx mutator) {
		for _, op := range sub {
			parts = append(parts, r.fx.mutate(tx, op, true))
		}
	})
	out := fmt.Sprintf("{%s}", strings.Join(parts, "; "))
	if err != nil {
		out += " ERR " + err.Error()
	}
	return out
}

// applySnapRead pins a snapshot view, reads through it, and optionally audits
// one materialized GMR for Definition 3.2 congruence at the pinned version.
// Read errors are workload outcomes (a fault window may be open); a stale
// snapshot result or a leaked pin is a violation. All view reads charge a
// throwaway clock, so this op never perturbs the run's cost snapshot.
func (r *runner) applySnapRead(op Op) (string, *Violation) {
	view, detail := r.b.view()
	if view == nil {
		return detail, nil
	}
	defer view.Release()
	// The pinned version itself stays out of the trace: durable runs publish
	// extra versions (checkpoints), and trace parity across the durability
	// axis is part of the determinism contract.
	parts := []string{"pinned"}

	if args, ok := r.fx.callArgs(op); ok {
		if v, err := view.Call(op.S, args...); err != nil {
			parts = append(parts, op.S+" ERR "+err.Error())
		} else {
			parts = append(parts, fmt.Sprintf("%s(%s)=%s", op.S, args[0].R, v))
		}
	}
	parts = append(parts, fmt.Sprintf("ext=%d", len(view.Extension(r.fx.rootType()))))

	// Congruence at the pinned version for one materialized catalog entry.
	// Skipped inside fault windows, like OpAudit: invariants may legitimately
	// be broken until the window's recovery. Completeness is not checked —
	// mid-plan the extension moves with every create/delete; congruence of
	// the stored results is the snapshot-level invariant.
	ci := op.X % len(r.cat)
	if r.matted[ci] && !r.faultsOpen {
		name := r.cat[ci].Name
		rep, err := view.CheckConsistency(name, auditTol, false)
		switch {
		case err != nil:
			parts = append(parts, "audit "+name+" ERR "+err.Error())
		case rep.Err() != nil:
			return strings.Join(parts, " "),
				&Violation{Msgs: []string{"snapshot audit " + name + ": " + rep.Err().Error()}}
		default:
			parts = append(parts, "audit "+name+" ok")
		}
	}

	view.Release()
	if n := r.b.engines()[0].MVCCStats().ActivePins; n != 0 {
		return strings.Join(parts, " "),
			&Violation{Msgs: []string{fmt.Sprintf("snapshot pin leak: %d active after release", n)}}
	}
	return strings.Join(parts, " "), nil
}

// applyFaultClear closes the fault window: disarm injection, then recover —
// drain the deferred queue and rebuild every materialized GMR from scratch,
// so the engine returns to a state the auditors are entitled to judge.
// Recovery errors (with injection disarmed) are violations: a fault must
// never wedge the engine.
func (r *runner) applyFaultClear() (string, *Violation) {
	r.faults += r.faultsNow()
	for _, e := range r.b.engines() {
		e.Disk.ClearFaults()
	}
	r.faultsOpen = false
	var msgs []string
	if err := r.b.Flush(); err != nil {
		msgs = append(msgs, "recovery flush: "+err.Error())
	}
	matted := make([]int, 0, len(r.matted))
	for ci := range r.matted {
		matted = append(matted, ci)
	}
	sort.Ints(matted)
	rebuilt := 0
	for _, ci := range matted {
		name := r.cat[ci].Name
		if err := r.b.Dematerialize(name); err != nil {
			msgs = append(msgs, "recovery demat "+name+": "+err.Error())
			continue
		}
		delete(r.matted, ci)
		if s := r.applyMat(ci); !strings.HasSuffix(s, " ok") {
			msgs = append(msgs, "recovery remat "+s)
			continue
		}
		rebuilt++
	}
	if len(msgs) > 0 {
		return "recovery FAILED", &Violation{Msgs: msgs}
	}
	return fmt.Sprintf("recovered (%d GMRs rebuilt, %d faults so far)", rebuilt, r.faults), nil
}

// applyAudit is a quiescent point: drain the deferred queue, then run every
// invariant auditor.
func (r *runner) applyAudit() (string, *Violation) {
	if err := r.b.Flush(); err != nil {
		return "flush ERR", &Violation{Msgs: []string{"audit flush: " + err.Error()}}
	}
	msgs := r.b.audit()
	if len(msgs) > 0 {
		return fmt.Sprintf("FAILED (%d violations)", len(msgs)), &Violation{Msgs: msgs}
	}
	noun, n := r.fx.census()
	return fmt.Sprintf("ok (%d gmrs, %d %s%s)", len(r.matted), n, noun, r.b.scope()), nil
}

func errStr(err error) string {
	if err == nil {
		return "ok"
	}
	return "ERR " + err.Error()
}

func matchStr(ms []gomdb.Match) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		args := make([]string, len(m.Args))
		for j, a := range m.Args {
			args[j] = a.String()
		}
		parts[i] = strings.Join(args, ",") + "=" + m.Result.String()
	}
	return fmt.Sprintf("%d matches [%s]", len(ms), strings.Join(parts, " "))
}

func rowStr(rows []gomdb.Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		cols := make([]string, 0, len(r.Args)+len(r.Results))
		for _, a := range r.Args {
			cols = append(cols, a.String())
		}
		for _, v := range r.Results {
			cols = append(cols, v.String())
		}
		parts[i] = strings.Join(cols, ",")
	}
	return fmt.Sprintf("%d rows [%s]", len(rows), strings.Join(parts, " "))
}
