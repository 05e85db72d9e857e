package sim

import (
	"fmt"
	"math/rand"

	"gomdb/internal/ocb"
	"gomdb/internal/storage"
)

// OpKind names one simulated operation.
type OpKind string

// The operation vocabulary of the simulator. Every op is fully parameterized
// at generation time: applying an op consumes no randomness, so a recorded op
// list can be replayed, truncated, or shrunk without shifting the meaning of
// the ops that remain.
const (
	// OpMat materializes catalog entry X%len(catalog) with the run's engine
	// configuration (strategy, second chance, MDS).
	OpMat OpKind = "mat"
	// OpDemat drops catalog entry X%len(catalog) if materialized.
	OpDemat OpKind = "demat"
	// OpCreate creates a Cuboid (8 vertices, material N, value F[6]) at
	// origin F[0..2] with extents F[3..5].
	OpCreate OpKind = "create"
	// OpDelete deletes live cuboid X%live.
	OpDelete OpKind = "delete"
	// OpSetValue performs the elementary update cuboid.set_Value(F[0]).
	OpSetValue OpKind = "set-value"
	// OpSetVertex sets coordinate S ("X"/"Y"/"Z") of vertex V<1+N%8> of
	// cuboid X%live to F[0] — an elementary update two references deep.
	OpSetVertex OpKind = "set-vertex"
	// OpScale calls Cuboid.scale with factors F[0..2] (a fresh transient
	// Vertex instance carries them).
	OpScale OpKind = "scale"
	// OpTranslate calls Cuboid.translate with offsets F[0..2].
	OpTranslate OpKind = "translate"
	// OpRotate calls Cuboid.rotate(F[0], S) with S an axis name.
	OpRotate OpKind = "rotate"
	// OpForward calls function S on cuboid X%live (Cuboid.distance also
	// takes robot N%2) — a forward lookup when S is materialized.
	OpForward OpKind = "forward"
	// OpBackward runs the backward range query S in [F[0], F[1]].
	OpBackward OpKind = "backward"
	// OpSum computes the aggregate Sum of S over the first 1+N%live cuboids.
	OpSum OpKind = "sum"
	// OpRetrieve runs a tabular retrieval against catalog entry
	// X%len(catalog), constraining its first result column to [F[0], F[1]].
	OpRetrieve OpKind = "retrieve"
	// OpFlush drains the deferred-rematerialization queue.
	OpFlush OpKind = "flush"
	// OpBatch applies Sub as one Database.Batch.
	OpBatch OpKind = "batch"
	// OpGC runs CollectResultGarbage and ReorganizeRRR.
	OpGC OpKind = "gc"
	// OpAudit is a quiescent point: flush, then run every invariant auditor.
	// Skipped while a fault window is open (invariants may legitimately be
	// broken until recovery).
	OpAudit OpKind = "audit"
	// OpFault arms the scriptable fault plan Rules on the simulated disk of
	// engine X mod the engine count (the one engine, or one shard of the
	// router) and opens a fault window: subsequent op errors are tolerated
	// and recorded.
	OpFault OpKind = "fault"
	// OpFaultClear disarms fault injection, closes the window, and runs
	// recovery (flush + rebuild of every materialized GMR) so the next audit
	// must pass.
	OpFaultClear OpKind = "fault-clear"
	// OpSnapRead pins an MVCC snapshot view and reads through it: a forward
	// call of S on cuboid X%live at the pinned version, the Cuboid extension,
	// and — when catalog entry X%len(catalog) is materialized and no fault
	// window is open — a Definition 3.2 congruence audit of that GMR at the
	// pinned version. The pin must be fully released afterwards (a leaked pin
	// is a violation), and snapshot reads charge a throwaway clock, so plans
	// with and without snap-read ops produce identical cost snapshots.
	OpSnapRead OpKind = "snap-read"
	// OpRecluster runs the trace-driven reclustering pass (Database.Recluster):
	// the object base is physically rewritten in affinity order and the OID
	// directory remapped. Errors inside a fault window are workload outcomes
	// (the relocation aborts all-or-nothing); outside one they are violations.
	// Every subsequent audit additionally verifies the directory <-> heap
	// correspondence, so a botched relocation cannot hide.
	OpRecluster OpKind = "recluster"
	// OpCrash kills and reopens a durable database (a no-op on in-memory
	// runs). S selects the crash point: "now" crashes between operations;
	// "mid-batch" cuts the WAL append of the end-of-batch commit after N
	// bytes while committing Sub; "mid-flush" and "mid-mat" cut the commit
	// of a Flush or of materializing catalog entry X the same way; "torn"
	// arms the Rule fault plan (FaultTornWrite), commits Sub, and runs a
	// checkpoint whose data-file apply tears a page write in half. Cuts and
	// the torn write are armed on engine X mod the engine count. After the
	// trigger the database is crashed and reopened: a recovery error is a
	// violation, and the recovered state is audited immediately.
	OpCrash OpKind = "crash"
)

// Op is one fully-parameterized simulated operation. The field meanings
// depend on Kind (see the OpKind constants); unused fields stay zero so the
// JSON encoding of an op list (the replay artifact) stays compact.
type Op struct {
	Kind OpKind              `json:"kind"`
	X    int                 `json:"x,omitempty"`
	N    int                 `json:"n,omitempty"`
	S    string              `json:"s,omitempty"`
	F    []float64           `json:"f,omitempty"`
	Sub  []Op                `json:"sub,omitempty"`
	Rule []storage.FaultRule `json:"rule,omitempty"`
}

// Plan is a complete, self-contained workload: the seed that derives the
// initial object base, the initial cuboid count, and the op list. Two runs of
// the same plan against the same engine configuration produce byte-identical
// traces and clock snapshots.
type Plan struct {
	Seed int64 `json:"seed"`
	Init int   `json:"init"`
	Ops  []Op  `json:"ops"`
}

// gmrSpec is one entry of the fixed GMR catalog the generator draws from.
// The catalog spans the shapes the paper distinguishes: a two-function GMR,
// single-function GMRs, a binary-argument GMR (Cuboid x Robot), and an
// incomplete bounded GMR acting as a result cache.
type gmrSpec struct {
	Name       string
	Funcs      []string
	Complete   bool
	MaxEntries int
	NumArgs    int
}

var catalog = []gmrSpec{
	{Name: "Gvw", Funcs: []string{"Cuboid.volume", "Cuboid.weight"}, Complete: true, NumArgs: 1},
	{Name: "Glen", Funcs: []string{"Cuboid.length"}, Complete: true, NumArgs: 1},
	{Name: "Gdist", Funcs: []string{"Cuboid.distance"}, Complete: true, NumArgs: 2},
	{Name: "Gcache", Funcs: []string{"Cuboid.height"}, Complete: false, MaxEntries: 24, NumArgs: 1},
}

// forwardFuncs are the side-effect-free functions OpForward draws from —
// a mix of materialized-catalog functions and never-materialized ones.
var forwardFuncs = []string{
	"Cuboid.volume", "Cuboid.weight", "Cuboid.length", "Cuboid.width",
	"Cuboid.height", "Cuboid.distance",
}

// backwardFuncs are the numeric functions backward queries target.
var backwardFuncs = []string{"Cuboid.volume", "Cuboid.weight", "Cuboid.length", "Cuboid.height"}

// GenOptions tunes Generate.
type GenOptions struct {
	// Ops is the target op count (audits included). Default 150.
	Ops int
	// Faults inserts 1-2 scripted fault windows into the plan.
	Faults bool
	// Crashes inserts 1-3 crash-restart points into the plan. Crash ops are
	// no-ops unless the run's EngineConfig is Durable.
	Crashes bool
	// Recluster inserts 1-3 reclustering passes into the plan — after fault
	// and crash injection, so passes can land inside fault windows and
	// adjacent to crash points.
	Recluster bool
}

// Generate derives a complete workload plan from seed. All randomness is
// consumed here: the returned plan is a pure value, so the same seed always
// yields the same plan regardless of how (or how often) it is executed.
func Generate(seed int64, opt GenOptions) Plan {
	n := opt.Ops
	if n <= 0 {
		n = 150
	}
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed, Init: 6 + rng.Intn(8)}

	// Materialize the two-function GMR up front (the workload's center of
	// gravity), plus one random other catalog entry half the time.
	p.Ops = append(p.Ops, Op{Kind: OpMat, X: 0})
	if rng.Intn(2) == 0 {
		p.Ops = append(p.Ops, Op{Kind: OpMat, X: 1 + rng.Intn(len(catalog)-1)})
	}

	sinceAudit := 0
	for len(p.Ops) < n {
		if sinceAudit >= 20 {
			p.Ops = append(p.Ops, Op{Kind: OpAudit})
			sinceAudit = 0
			continue
		}
		p.Ops = append(p.Ops, genOp(rng))
		sinceAudit++
	}

	if opt.Faults {
		injectFaultWindows(rng, &p)
	}
	if opt.Crashes {
		injectCrashes(rng, &p, len(catalog), genUpdateOp)
	}
	if opt.Recluster {
		injectReclusters(rng, &p)
	}
	return p
}

// GenerateOCB derives a complete workload plan over a synthetic OCB base:
// the op stream comes from ocb.GenStream (all randomness consumed at
// generation time, targets resolved to indices), and the injectors — fault
// windows, crash-restart points, reclustering passes — are the ones Generate
// uses, applied after generation so base plans stay byte-identical whether or
// not an option is on. Run the plan with an EngineConfig whose OCB field
// carries the same Params.
func GenerateOCB(seed int64, p ocb.Params, opt GenOptions) Plan {
	n := opt.Ops
	if n <= 0 {
		n = 150
	}
	plan := Plan{Seed: seed, Ops: convertOCBOps(ocb.GenStream(p, seed, ocb.StreamOptions{Ops: n}))}
	rng := rand.New(rand.NewSource(seed))
	if opt.Faults {
		injectFaultWindows(rng, &plan)
	}
	if opt.Crashes {
		// Streams over a generated base never create or delete objects, so a
		// crash op's batch body draws from the one elementary update there is.
		injectCrashes(rng, &plan, len(ocb.Catalog(p)), func(rng *rand.Rand) Op {
			return Op{Kind: OpSetValue, X: rng.Intn(1 << 16), N: rng.Intn(p.Classes),
				S: fmt.Sprintf("N%d", rng.Intn(p.NumAttrs)), F: []float64{10 + rng.Float64()*90}}
		})
	}
	if opt.Recluster {
		injectReclusters(rng, &plan)
	}
	return plan
}

func convertOCBOps(stream []ocb.Op) []Op {
	ops := make([]Op, len(stream))
	for i, o := range stream {
		ops[i] = Op{Kind: OpKind(o.Kind), X: o.X, N: o.N, S: o.S, F: o.F}
		if len(o.Sub) > 0 {
			ops[i].Sub = convertOCBOps(o.Sub)
		}
	}
	return ops
}

// genOp draws one weighted operation.
func genOp(rng *rand.Rand) Op {
	switch w := rng.Intn(100); {
	case w < 16: // forward lookups dominate, as in the paper's workloads
		return Op{Kind: OpForward, X: rng.Intn(1 << 16), N: rng.Intn(2),
			S: forwardFuncs[rng.Intn(len(forwardFuncs))]}
	case w < 25:
		return genUpdateOp(rng)
	case w < 33:
		return Op{Kind: OpScale, X: rng.Intn(1 << 16),
			F: []float64{0.8 + rng.Float64()*0.45, 0.8 + rng.Float64()*0.45, 0.8 + rng.Float64()*0.45}}
	case w < 39:
		return Op{Kind: OpTranslate, X: rng.Intn(1 << 16),
			F: []float64{rng.Float64()*20 - 10, rng.Float64()*20 - 10, rng.Float64()*20 - 10}}
	case w < 45:
		return Op{Kind: OpRotate, X: rng.Intn(1 << 16), S: []string{"x", "y", "z"}[rng.Intn(3)],
			F: []float64{rng.Float64() * 3.14159}}
	case w < 53:
		return genCreate(rng)
	case w < 57:
		return Op{Kind: OpDelete, X: rng.Intn(1 << 16)}
	case w < 64:
		lo := rng.Float64() * 400
		return Op{Kind: OpBackward, S: backwardFuncs[rng.Intn(len(backwardFuncs))],
			F: []float64{lo, lo + rng.Float64()*600}}
	case w < 68:
		return Op{Kind: OpSum, S: "Cuboid.volume", N: rng.Intn(1 << 16)}
	case w < 73:
		lo := rng.Float64() * 400
		return Op{Kind: OpRetrieve, X: rng.Intn(len(catalog)), F: []float64{lo, lo + rng.Float64()*600}}
	case w < 79:
		return Op{Kind: OpFlush}
	case w < 85:
		sub := make([]Op, 2+rng.Intn(4))
		for i := range sub {
			sub[i] = genUpdateOp(rng)
		}
		return Op{Kind: OpBatch, Sub: sub}
	case w < 88:
		return Op{Kind: OpGC}
	case w < 92:
		return Op{Kind: OpDemat, X: rng.Intn(len(catalog))}
	case w < 95:
		return Op{Kind: OpMat, X: rng.Intn(len(catalog))}
	case w < 98:
		return Op{Kind: OpSnapRead, X: rng.Intn(1 << 16), N: rng.Intn(2),
			S: forwardFuncs[rng.Intn(len(forwardFuncs))]}
	default:
		return Op{Kind: OpAudit}
	}
}

// genUpdateOp draws one elementary-update op — the subset allowed inside a
// batch body.
func genUpdateOp(rng *rand.Rand) Op {
	switch rng.Intn(4) {
	case 0:
		return Op{Kind: OpSetValue, X: rng.Intn(1 << 16), F: []float64{10 + rng.Float64()*90}}
	case 1:
		return Op{Kind: OpSetVertex, X: rng.Intn(1 << 16), N: rng.Intn(8),
			S: []string{"X", "Y", "Z"}[rng.Intn(3)], F: []float64{rng.Float64()*100 - 50}}
	case 2:
		return genCreate(rng)
	default:
		return Op{Kind: OpDelete, X: rng.Intn(1 << 16)}
	}
}

func genCreate(rng *rand.Rand) Op {
	return Op{Kind: OpCreate, N: rng.Intn(4), F: []float64{
		rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100, // origin
		1 + rng.Float64()*9, 1 + rng.Float64()*9, 1 + rng.Float64()*9, // extents
		10 + rng.Float64()*90, // value
	}}
}

// genCrash draws one fully-parameterized crash-restart op. The WAL cut
// offsets (N) span zero to well past a typical commit group, so crashes
// land before the first record, mid-record, between records, and after the
// commit (in which case the trigger succeeds and the crash is merely
// post-commit). ncat is the fixture's catalog size and genSub its batch-body
// vocabulary. X picks the engine the cut or torn write is armed on (X mod the
// engine count): target for the batch and flush points, the catalog index
// itself for mid-mat. target is the op's insertion index rather than a draw
// of its own, so plans keep the rng sequence they always had.
func genCrash(rng *rand.Rand, target, ncat int, genSub func(*rand.Rand) Op) Op {
	batch := func() []Op {
		sub := make([]Op, 1+rng.Intn(4))
		for i := range sub {
			sub[i] = genSub(rng)
		}
		return sub
	}
	switch rng.Intn(5) {
	case 0:
		return Op{Kind: OpCrash, S: "now"}
	case 1:
		return Op{Kind: OpCrash, S: "mid-batch", X: target, N: rng.Intn(20000), Sub: batch()}
	case 2:
		return Op{Kind: OpCrash, S: "mid-flush", X: target, N: rng.Intn(20000)}
	case 3:
		return Op{Kind: OpCrash, S: "mid-mat", X: rng.Intn(ncat), N: rng.Intn(20000)}
	default:
		return Op{Kind: OpCrash, S: "torn", X: target, Sub: batch(), Rule: []storage.FaultRule{
			{Op: storage.FaultTornWrite, After: rng.Intn(3), Count: 1},
		}}
	}
}

// injectCrashes inserts one to three crash-restart points into the plan at
// random positions.
func injectCrashes(rng *rand.Rand, p *Plan, ncat int, genSub func(*rand.Rand) Op) {
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		at := rng.Intn(len(p.Ops) + 1)
		op := genCrash(rng, at, ncat, genSub)
		p.Ops = append(p.Ops[:at], append([]Op{op}, p.Ops[at:]...)...)
	}
}

// injectReclusters inserts one to three reclustering passes at random
// positions. It runs after fault/crash injection on purpose: a pass may land
// inside an open fault window (the relocation must abort cleanly) or right
// next to a crash point (recovery must come back in exactly one layout).
// genOp's weights are untouched, so plans generated without the option are
// byte-identical to what earlier generator versions produced.
func injectReclusters(rng *rand.Rand, p *Plan) {
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		at := rng.Intn(len(p.Ops) + 1)
		p.Ops = append(p.Ops[:at], append([]Op{{Kind: OpRecluster}}, p.Ops[at:]...)...)
	}
}

// injectFaultWindows inserts one or two [OpFault ... OpFaultClear] windows
// into the plan at random positions. Rules are transient or persistent (a
// persistent rule lives until the window's OpFaultClear), target reads,
// writes, or both, and optionally a single heap file. A window is armed on
// ONE engine, X mod the engine count; X is the arm op's insertion index (no
// rng draw of its own), which spreads windows over the shards of a router.
func injectFaultWindows(rng *rand.Rand, p *Plan) {
	windows := 1 + rng.Intn(2)
	for w := 0; w < windows; w++ {
		rules := make([]storage.FaultRule, 1+rng.Intn(2))
		for i := range rules {
			r := storage.FaultRule{
				Op:    []storage.FaultOp{storage.FaultAny, storage.FaultRead, storage.FaultWrite}[rng.Intn(3)],
				After: rng.Intn(6),
			}
			if rng.Intn(2) == 0 {
				r.Count = 1 + rng.Intn(3) // transient
			}
			if f := rng.Intn(5); f > 0 {
				r.File = []string{"objects", "GMR:", "RRR", "IDX:"}[f-1]
			}
			rules[i] = r
		}
		at := rng.Intn(len(p.Ops))
		span := 4 + rng.Intn(10)
		end := at + 1 + span
		if end > len(p.Ops) {
			end = len(p.Ops)
		}
		// Insert the clear first so the arm index stays valid.
		p.Ops = append(p.Ops[:end], append([]Op{{Kind: OpFaultClear}}, p.Ops[end:]...)...)
		p.Ops = append(p.Ops[:at], append([]Op{{Kind: OpFault, X: at, Rule: rules}}, p.Ops[at:]...)...)
	}
}
