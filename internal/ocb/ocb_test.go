package ocb

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/shard"
)

// testParams is small enough that the incomplete Ocache (MaxEntries 16) never
// evicts, so result sets are comparable across shard counts.
var testParams = Params{Classes: 4, FanOut: 2, Depth: 2, NumAttrs: 3,
	Instances: 12, HotFraction: 0.25, Skew: 0.8}

const testSeed = 41

// driverAPI is the read/write surface shared by *gomdb.Database and
// *shard.DB; materialization differs in signature and is passed separately.
type driverAPI interface {
	Set(oid gomdb.OID, attr string, v gomdb.Value) error
	Call(fn string, args ...gomdb.Value) (gomdb.Value, error)
	Backward(fid string, lb, ub float64) ([]gomdb.Match, error)
	Sum(fid string, oids []gomdb.OID) (float64, error)
	Retrieve(gmrName string, specs []gomdb.FieldSpec) ([]gomdb.Row, error)
	Dematerialize(name string) error
	Flush() error
}

// drive applies a generated stream against any backend and renders one
// canonical result line per op — the byte-identity surface for parity tests.
// Applying consumes no randomness (every op is fully resolved); ops the
// plain/sharded surfaces don't share (snap-read, gc, audit) record a skip.
func drive(p Params, api driverAPI, mat func(GMRSpec) error, w *World, ops []Op) []string {
	cat := Catalog(p)
	errStr := func(err error) string {
		if err == nil {
			return "ok"
		}
		return "ERR " + err.Error()
	}
	var out []string
	for i, op := range ops {
		var detail string
		switch op.Kind {
		case "mat":
			spec := cat[op.X%len(cat)]
			detail = spec.Name + " " + errStr(mat(spec))
		case "demat":
			spec := cat[op.X%len(cat)]
			detail = spec.Name + " " + errStr(api.Dematerialize(spec.Name))
		case "forward":
			oid := w.Classes[0][op.X%len(w.Classes[0])]
			v, err := api.Call(op.S, gomdb.Ref(oid))
			if err != nil {
				detail = op.S + " ERR " + err.Error()
			} else {
				detail = fmt.Sprintf("%s(%d) = %s", op.S, op.X, v)
			}
		case "set-value":
			detail = applySet(p, api, w, op, errStr)
		case "batch":
			parts := make([]string, len(op.Sub))
			for j, sub := range op.Sub {
				parts[j] = applySet(p, api, w, sub, errStr)
			}
			detail = "{" + strings.Join(parts, "; ") + "}"
		case "backward":
			ms, err := api.Backward(op.S, op.F[0], op.F[1])
			if err != nil {
				detail = op.S + " ERR " + err.Error()
			} else {
				detail = fmt.Sprintf("%s[%g,%g] %d matches", op.S, op.F[0], op.F[1], len(ms))
			}
		case "sum":
			k := 1 + op.N%len(w.Classes[0])
			s, err := api.Sum(op.S, w.Classes[0][:k])
			if err != nil {
				detail = op.S + " ERR " + err.Error()
			} else {
				detail = fmt.Sprintf("%s over %d = %g", op.S, k, s)
			}
		case "retrieve":
			spec := cat[op.X%len(cat)]
			rows, err := api.Retrieve(spec.Name, []gomdb.FieldSpec{
				gomdb.AnySpec(), gomdb.RangeSpec(op.F[0], op.F[1])})
			if err != nil {
				detail = spec.Name + " ERR " + err.Error()
			} else {
				detail = fmt.Sprintf("%s[%g,%g] %d rows", spec.Name, op.F[0], op.F[1], len(rows))
			}
		case "flush":
			detail = errStr(api.Flush())
		default:
			detail = "skip"
		}
		out = append(out, fmt.Sprintf("%04d %-10s %s", i, op.Kind, detail))
	}
	return out
}

func applySet(p Params, api driverAPI, w *World, op Op, errStr func(error) string) string {
	cls := w.Classes[op.N%p.Classes]
	oid := cls[op.X%len(cls)]
	err := api.Set(oid, op.S, gomdb.Float(op.F[0]))
	return fmt.Sprintf("C%d[%d].%s=%g %s", op.N%p.Classes, op.X%len(cls), op.S, op.F[0], errStr(err))
}

func plainMat(db *gomdb.Database) func(GMRSpec) error {
	return func(spec GMRSpec) error {
		_, err := db.Materialize(gomdb.MaterializeOptions{
			Name: spec.Name, Funcs: spec.Funcs, Strategy: gomdb.Lazy,
			Complete: spec.Complete, MaxEntries: spec.MaxEntries,
		})
		return err
	}
}

func shardMat(db *shard.DB) func(GMRSpec) error {
	return func(spec GMRSpec) error {
		return db.Materialize(gomdb.MaterializeOptions{
			Name: spec.Name, Funcs: spec.Funcs, Strategy: gomdb.Lazy,
			Complete: spec.Complete, MaxEntries: spec.MaxEntries,
		})
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{Classes: 0, FanOut: 1, Depth: 1, NumAttrs: 1, Instances: 1},
		{Classes: 1, FanOut: 1, Depth: 1, NumAttrs: 1, Instances: 0},
		{Classes: 1, FanOut: 1, Depth: 1, NumAttrs: 0, Instances: 1},
		{Classes: 1, FanOut: -1, Depth: 1, NumAttrs: 1, Instances: 1},
		{Classes: 1, FanOut: 1, Depth: -1, NumAttrs: 1, Instances: 1},
		{Classes: 1, FanOut: 1, Depth: 1, NumAttrs: 1, Instances: 1, HotFraction: -0.1},
		{Classes: 1, FanOut: 1, Depth: 1, NumAttrs: 1, Instances: 1, HotFraction: 1.5},
		{Classes: 1, FanOut: 1, Depth: 1, NumAttrs: 1, Instances: 1, Skew: -0.2},
		{Classes: 1, FanOut: 1, Depth: 1, NumAttrs: 1, Instances: 1, Skew: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadParams) {
			t.Errorf("bad[%d] %+v: got %v, want ErrBadParams", i, p, err)
		}
		if _, err := Gen(p, 1); !errors.Is(err, ErrBadParams) {
			t.Errorf("Gen(bad[%d]): got %v, want ErrBadParams", i, err)
		}
	}
	for _, p := range []Params{Baseline(), Demo(), testParams,
		{Classes: 1, FanOut: 0, Depth: 0, NumAttrs: 1, Instances: 1}} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: unexpected %v", p, err)
		}
	}
}

// TestGenDeterminism pins the generation-time half of the contract: the same
// Params+seed expands to byte-identical schema, population trace, and op
// stream, and a different seed to a different base (the generator is not
// accidentally constant).
func TestGenDeterminism(t *testing.T) {
	b1, err := Gen(testParams, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := Gen(testParams, testSeed)
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("Gen is not deterministic for identical Params+seed")
	}
	if b1.PopTrace() != b2.PopTrace() {
		t.Fatal("PopTrace differs for identical bases")
	}
	if SchemaTrace(testParams) != SchemaTrace(testParams) {
		t.Fatal("SchemaTrace is not deterministic")
	}
	s1 := GenStream(testParams, testSeed, StreamOptions{Ops: 120})
	s2 := GenStream(testParams, testSeed, StreamOptions{Ops: 120})
	if StreamTrace(s1) != StreamTrace(s2) {
		t.Fatal("GenStream is not deterministic for identical Params+seed")
	}
	other, _ := Gen(testParams, testSeed+1)
	if b1.PopTrace() == other.PopTrace() {
		t.Fatal("different seeds produced identical bases")
	}
	// The stream must be non-vacuous: every weighted op class shows up.
	kinds := map[string]bool{}
	for _, op := range s1 {
		kinds[op.Kind] = true
	}
	for _, k := range []string{"forward", "set-value", "batch", "backward", "sum", "retrieve", "mat", "flush", "audit"} {
		if !kinds[k] {
			t.Errorf("120-op stream never generated kind %q", k)
		}
	}
}

// TestGenAcrossGOMAXPROCS re-derives schema, base, stream, population OIDs,
// and a driven result trace at GOMAXPROCS 1 and 4: identical bytes each time.
// Nothing in generation or apply may depend on scheduling.
func TestGenAcrossGOMAXPROCS(t *testing.T) {
	type snap struct {
		schema, pop, stream string
		oids                string
		results             []string
	}
	run := func() snap {
		base, err := Gen(testParams, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		stream := GenStream(testParams, testSeed, StreamOptions{Ops: 100})
		db := gomdb.Open(gomdb.Config{BufferPages: 64})
		if err := Define(db, testParams); err != nil {
			t.Fatal(err)
		}
		w, err := Populate(shard.Single(db), base)
		if err != nil {
			t.Fatal(err)
		}
		return snap{
			schema:  SchemaTrace(testParams),
			pop:     base.PopTrace(),
			stream:  StreamTrace(stream),
			oids:    fmt.Sprint(w.Classes),
			results: drive(testParams, db, plainMat(db), w, stream),
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(1)
	s1 := run()
	runtime.GOMAXPROCS(4)
	s4 := run()
	if s1.schema != s4.schema || s1.pop != s4.pop || s1.stream != s4.stream {
		t.Fatal("generation differs across GOMAXPROCS")
	}
	if s1.oids != s4.oids {
		t.Fatalf("population OIDs differ across GOMAXPROCS:\n1: %s\n4: %s", s1.oids, s4.oids)
	}
	if !reflect.DeepEqual(s1.results, s4.results) {
		t.Fatalf("result traces differ across GOMAXPROCS:\n%s", firstDiff(s1.results, s4.results))
	}
}

// TestShardCountParity populates the same Base through the router at shard
// counts 1 and 4 and against a plain engine: the shared OID allocator must
// hand out identical OIDs everywhere (charges stay shard-count-independent
// because object identity does), and driving the same stream through the
// router must produce byte-identical result traces at both shard counts.
// Simulated Clock parity across shard counts is deliberately NOT asserted:
// replicated deep-class writes broadcast to every replica, so write charges
// scale with shard count by design.
func TestShardCountParity(t *testing.T) {
	base, err := Gen(testParams, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	stream := GenStream(testParams, testSeed, StreamOptions{Ops: 100})

	plainDB := gomdb.Open(gomdb.Config{BufferPages: 64})
	if err := Define(plainDB, testParams); err != nil {
		t.Fatal(err)
	}
	plainW, err := Populate(shard.Single(plainDB), base)
	if err != nil {
		t.Fatal(err)
	}

	type routed struct {
		w       *World
		results []string
	}
	runShard := func(n int) routed {
		db := shard.Open(shard.Config{Shards: n, Engine: gomdb.Config{BufferPages: 64}})
		if err := db.EachShard(func(_ int, sh *gomdb.Database) error { return Define(sh, testParams) }); err != nil {
			t.Fatal(err)
		}
		w, err := Populate(db, base)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		return routed{w: w, results: drive(testParams, db, shardMat(db), w, stream)}
	}
	r1 := runShard(1)
	r4 := runShard(4)

	for _, r := range []routed{r1, r4} {
		if !reflect.DeepEqual(plainW.Classes, r.w.Classes) {
			t.Fatalf("sharded population OIDs differ from plain:\nplain: %v\nshard: %v",
				plainW.Classes, r.w.Classes)
		}
	}
	if !reflect.DeepEqual(r1.results, r4.results) {
		t.Fatalf("result traces differ across shard counts {1,4}:\n%s", firstDiff(r1.results, r4.results))
	}

	// Forward lookups are point reads on both surfaces; the plain engine must
	// agree with the router value-for-value.
	plainRes := drive(testParams, plainDB, plainMat(plainDB), plainW, stream)
	for i := range plainRes {
		if strings.Contains(plainRes[i], "forward") && plainRes[i] != r4.results[i] {
			t.Fatalf("forward result diverges plain vs shard4 at op %d:\nplain: %s\nshard: %s",
				i, plainRes[i], r4.results[i])
		}
	}
}

// TestDegenerateParams drives every degenerate corner end to end: generate,
// define, populate, materialize the whole catalog, run a stream, and check
// consistency. Valid bases or typed errors — never a panic.
func TestDegenerateParams(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		{"depth0", Params{Classes: 4, FanOut: 2, Depth: 0, NumAttrs: 3, Instances: 10, HotFraction: 0.3, Skew: 0.7}},
		{"fanout0", Params{Classes: 3, FanOut: 0, Depth: 3, NumAttrs: 3, Instances: 10, HotFraction: 0.3, Skew: 0.7}},
		{"hot1.0", Params{Classes: 3, FanOut: 2, Depth: 2, NumAttrs: 2, Instances: 10, HotFraction: 1.0, Skew: 0.9}},
		{"singleclass", Params{Classes: 1, FanOut: 3, Depth: 2, NumAttrs: 4, Instances: 14, HotFraction: 0.2, Skew: 0.8}},
		{"multipage", Params{Classes: 2, FanOut: 1, Depth: 1, NumAttrs: 6, Instances: 500, HotFraction: 0.1, Skew: 0.9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			base, err := Gen(tc.p, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			db := gomdb.Open(gomdb.Config{BufferPages: 48})
			if err := Define(db, tc.p); err != nil {
				t.Fatal(err)
			}
			w, err := Populate(shard.Single(db), base)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "multipage" && db.Objects.HeapPages() <= 1 {
				t.Fatalf("multipage params fit one heap page (%d)", db.Objects.HeapPages())
			}
			cat := Catalog(tc.p)
			mat := plainMat(db)
			for _, spec := range cat {
				if err := mat(spec); err != nil {
					t.Fatalf("materialize %s: %v", spec.Name, err)
				}
			}
			ops := GenStream(tc.p, testSeed, StreamOptions{Ops: 40, W: Weights{
				Forward: 30, Update: 20, Batch: 5, Backward: 5, Sum: 5, Retrieve: 5, Flush: 10}})
			drive(tc.p, db, mat, w, ops)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, spec := range cat {
				rep, err := db.CheckConsistency(spec.Name, 1e-9, spec.Complete)
				if err != nil {
					t.Fatalf("consistency %s: %v", spec.Name, err)
				}
				if rep.Err() != nil {
					t.Fatalf("consistency %s: %v", spec.Name, rep.Err())
				}
			}
		})
	}
}

// TestHotSkew sanity-checks the access distribution: with a strong skew the
// hot set must absorb most picks, and with HotFraction 1.0 every index must
// still be reachable-in-principle without panicking.
func TestHotSkew(t *testing.T) {
	p := Params{Classes: 1, FanOut: 0, Depth: 0, NumAttrs: 1, Instances: 100,
		HotFraction: 0.1, Skew: 0.9}
	ops := GenStream(p, 7, StreamOptions{Ops: 400, AuditEvery: -1,
		W: Weights{Forward: 1}})
	hot, total := 0, 0
	for _, op := range ops {
		if op.Kind != "forward" {
			continue
		}
		total++
		if op.X < 10 {
			hot++
		}
	}
	if total == 0 {
		t.Fatal("no forward ops generated")
	}
	if frac := float64(hot) / float64(total); frac < 0.7 {
		t.Fatalf("hot set absorbed only %.0f%% of accesses (want >= 70%%)", frac*100)
	}
}

func firstDiff(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}
