package server_test

import (
	"fmt"
	"testing"
	"time"

	"gomdb"
	"gomdb/client"
	"gomdb/internal/ocb"
	"gomdb/internal/server"
	"gomdb/internal/shard"
)

// The OCB conformance leg: the same twin-backend, byte-fingerprint protocol
// as TestConformanceMatrix, but over a generated object base and a generated
// op stream instead of the hand-built geometry script. Every stream op maps
// to a wire call; each is applied to both twins and the results must be
// byte-identical (or carry identical error texts) over both transports and
// both backends.

// ocbServeParams keeps Instances below Ocache's MaxEntries (16) so the
// incomplete GMR never evicts — eviction timing is an engine-internal detail
// that differs in charge but must not differ in answers, and holding the
// cache under capacity keeps even the Retrieve row sets comparable.
var ocbServeParams = ocb.Params{Classes: 4, FanOut: 2, Depth: 2, NumAttrs: 3,
	Instances: 12, HotFraction: 0.25, Skew: 0.8}

const ocbServeSeed = 97

// ocbPlainBackend builds a populated single-engine OCB backend.
func ocbPlainBackend(t *testing.T) server.Backend {
	t.Helper()
	base, err := ocb.Gen(ocbServeParams, ocbServeSeed)
	if err != nil {
		t.Fatal(err)
	}
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := ocb.Define(db, ocbServeParams); err != nil {
		t.Fatal(err)
	}
	if _, err := ocb.Populate(shard.Single(db), base); err != nil {
		t.Fatal(err)
	}
	return server.Embedded{DB: db}
}

// ocbShardBackend builds a populated 4-shard OCB backend.
func ocbShardBackend(t *testing.T) server.Backend {
	t.Helper()
	base, err := ocb.Gen(ocbServeParams, ocbServeSeed)
	if err != nil {
		t.Fatal(err)
	}
	db := shard.Open(shard.Config{Shards: 4, Engine: gomdb.DefaultConfig()})
	if err := db.EachShard(func(_ int, sh *gomdb.Database) error { return ocb.Define(sh, ocbServeParams) }); err != nil {
		t.Fatal(err)
	}
	if _, err := ocb.Populate(db, base); err != nil {
		t.Fatal(err)
	}
	return server.Sharded{DB: db}
}

// ocbScript replays a generated op stream through both surfaces via step().
// Updates apply to both twins, so they stay aligned for every later read.
func ocbScript(t *testing.T, c surface, ref surface) {
	p := ocbServeParams
	cat := ocb.Catalog(p)
	classes := make([][]gomdb.OID, p.Classes)
	for cl := 0; cl < p.Classes; cl++ {
		name := ocb.ClassName(cl)
		step(t, "extension/"+name, c, ref, func(s surface) (any, error) {
			v, err := s.Extension(name)
			return v, err
		})
		oids, err := ref.Extension(name)
		if err != nil || len(oids) != p.Instances {
			t.Fatalf("extension %s: %v (%d oids, want %d)", name, err, len(oids), p.Instances)
		}
		classes[cl] = oids
	}
	c0 := classes[0]

	ops := ocb.GenStream(p, ocbServeSeed+1, ocb.StreamOptions{
		Ops: 80, W: ocb.DefaultWeights(), AuditEvery: -1})
	if len(ops) == 0 {
		t.Fatal("generated an empty op stream")
	}
	setOne := func(s surface, op ocb.Op) error {
		cls := classes[op.N%p.Classes]
		return s.Set(cls[op.X%len(cls)], op.S, gomdb.Float(op.F[0]))
	}
	for i, op := range ops {
		op := op
		name := fmt.Sprintf("op%03d/%s", i, op.Kind)
		switch op.Kind {
		case "forward":
			step(t, name, c, ref, func(s surface) (any, error) {
				return s.Call(op.S, gomdb.Ref(c0[op.X%len(c0)]))
			})
		case "set-value":
			step(t, name, c, ref, func(s surface) (any, error) { return nil, setOne(s, op) })
		case "batch":
			// The interactive batch opcode is exercised by batchScript; here
			// the sub-updates apply as plain sets so twins stay aligned.
			for j, sub := range op.Sub {
				if sub.Kind != "set-value" {
					continue
				}
				sub := sub
				step(t, fmt.Sprintf("%s/sub%d", name, j), c, ref, func(s surface) (any, error) {
					return nil, setOne(s, sub)
				})
			}
		case "backward":
			step(t, name, c, ref, func(s surface) (any, error) {
				return s.Backward(op.S, op.F[0], op.F[1])
			})
		case "sum":
			k := 1 + op.N%len(c0)
			step(t, name, c, ref, func(s surface) (any, error) {
				return s.Sum(op.S, append([]gomdb.OID(nil), c0[:k]...))
			})
		case "retrieve":
			spec := cat[op.X%len(cat)]
			step(t, name+"/"+spec.Name, c, ref, func(s surface) (any, error) {
				return s.Retrieve(spec.Name, []gomdb.FieldSpec{
					gomdb.AnySpec(), gomdb.RangeSpec(op.F[0], op.F[1])})
			})
		case "mat":
			spec := cat[op.X%len(cat)]
			step(t, name+"/"+spec.Name, c, ref, func(s surface) (any, error) {
				return nil, s.Materialize(gomdb.MaterializeOptions{
					Name: spec.Name, Funcs: spec.Funcs, Complete: spec.Complete,
					MaxEntries: spec.MaxEntries, Strategy: gomdb.Lazy, Mode: gomdb.ModeObjDep,
				})
			})
		case "demat":
			spec := cat[op.X%len(cat)]
			step(t, name+"/"+spec.Name, c, ref, func(s surface) (any, error) {
				return nil, s.Dematerialize(spec.Name)
			})
		case "flush":
			step(t, name, c, ref, func(s surface) (any, error) { return nil, s.Flush() })
		}
		// snap-read, gc, and audit have no wire opcode: skipped on both
		// sides, so the twins stay aligned.
	}
	step(t, "simseconds/final", c, ref, func(s surface) (any, error) { return s.SimSeconds() })
}

func TestOCBConformanceMatrix(t *testing.T) {
	backends := []struct {
		name  string
		build func(t *testing.T) server.Backend
	}{
		{"plain", ocbPlainBackend},
		{"shard4", ocbShardBackend},
	}
	transports := []struct {
		name    string
		connect func(t *testing.T, srv *server.Server) *client.Client
	}{
		{"pipe", func(t *testing.T, srv *server.Server) *client.Client {
			t.Cleanup(func() { drainServer(t, srv) })
			return pipeClient(t, srv, client.Options{})
		}},
		{"tcp", func(t *testing.T, srv *server.Server) *client.Client {
			return tcpClient(t, tcpServer(t, srv), client.Options{CallTimeout: 5 * time.Second})
		}},
	}
	for _, be := range backends {
		for _, tr := range transports {
			t.Run(be.name+"/"+tr.name, func(t *testing.T) {
				served := be.build(t)   // twin behind the server
				embedded := be.build(t) // twin driven directly
				srv := newServer(t, served, nil)
				c := tr.connect(t, srv)
				ocbScript(t, c, refAPI{embedded})
			})
		}
	}
}
