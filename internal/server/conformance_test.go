package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"gomdb"
	"gomdb/client"
	"gomdb/internal/server"
	"gomdb/internal/wire"
)

// The conformance matrix: every opcode, driven over both transports
// (net.Pipe and real TCP) against both backends (plain engine and 4-shard
// router), must produce results byte-identical to the embedded API. Each
// cell builds twin backends populated identically — the server fronts one
// twin, the script drives the other directly — and compares the
// wire-encoded fingerprint of every step's result.

// surface is the API shape shared by the network client and the embedded
// reference (refAPI below), so one script drives both.
type surface interface {
	Query(src string, params map[string]gomdb.Value) (*gomdb.QueryResult, error)
	Call(fn string, args ...gomdb.Value) (gomdb.Value, error)
	GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error)
	Set(oid gomdb.OID, attr string, v gomdb.Value) error
	New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
	NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error)
	Delete(oid gomdb.OID) error
	Insert(set gomdb.OID, elem gomdb.Value) error
	Remove(set gomdb.OID, elem gomdb.Value) error
	Retrieve(gmrName string, spec []gomdb.FieldSpec) ([]gomdb.Row, error)
	Backward(fid string, lb, ub float64) ([]gomdb.Match, error)
	Sum(fid string, oids []gomdb.OID) (float64, error)
	Extension(typeName string) ([]gomdb.OID, error)
	Materialize(opts gomdb.MaterializeOptions) error
	Dematerialize(name string) error
	Flush() error
	SimSeconds() (float64, error)
}

// refAPI adapts a server.Backend (the embedded twin) to the client's shape.
type refAPI struct{ be server.Backend }

func (r refAPI) Query(src string, params map[string]gomdb.Value) (*gomdb.QueryResult, error) {
	return r.be.Query(src, params)
}
func (r refAPI) Call(fn string, args ...gomdb.Value) (gomdb.Value, error) {
	return r.be.Call(fn, args...)
}
func (r refAPI) GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error) {
	return r.be.GetAttr(oid, attr)
}
func (r refAPI) Set(oid gomdb.OID, attr string, v gomdb.Value) error {
	return r.be.Set(oid, attr, v)
}
func (r refAPI) New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	return r.be.New(typeName, attrs...)
}
func (r refAPI) NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error) {
	return r.be.NewSet(typeName, elems...)
}
func (r refAPI) Delete(oid gomdb.OID) error              { return r.be.Delete(oid) }
func (r refAPI) Insert(s gomdb.OID, e gomdb.Value) error { return r.be.Insert(s, e) }
func (r refAPI) Remove(s gomdb.OID, e gomdb.Value) error { return r.be.Remove(s, e) }
func (r refAPI) Retrieve(g string, spec []gomdb.FieldSpec) ([]gomdb.Row, error) {
	return r.be.Retrieve(g, spec)
}
func (r refAPI) Backward(fid string, lb, ub float64) ([]gomdb.Match, error) {
	return r.be.Backward(fid, lb, ub)
}
func (r refAPI) Sum(fid string, oids []gomdb.OID) (float64, error) { return r.be.Sum(fid, oids) }
func (r refAPI) Extension(tn string) ([]gomdb.OID, error)          { return r.be.Extension(tn), nil }
func (r refAPI) Materialize(opts gomdb.MaterializeOptions) error   { return r.be.MaterializeGMR(opts) }
func (r refAPI) Dematerialize(name string) error                   { return r.be.Dematerialize(name) }
func (r refAPI) Flush() error                                      { return r.be.Flush() }
func (r refAPI) SimSeconds() (float64, error)                      { return r.be.SimSeconds(), nil }

// fingerprint reduces a step result to canonical wire bytes, so "the
// network produced the same answer" is checked at the byte level — the same
// encoding the protocol itself uses.
func fingerprint(t *testing.T, v any) []byte {
	t.Helper()
	var resps []*wire.Response
	switch x := v.(type) {
	case nil:
		resps = []*wire.Response{{Op: wire.RespAck}}
	case gomdb.Value:
		resps = []*wire.Response{{Op: wire.RespValue, Val: x}}
	case gomdb.OID:
		resps = []*wire.Response{{Op: wire.RespOID, OID: x}}
	case float64:
		resps = []*wire.Response{{Op: wire.RespFloat, F: x}}
	case []gomdb.Row:
		resps = []*wire.Response{{Op: wire.RespChunk, Stream: wire.StreamRows, GRows: x}}
	case []gomdb.Match:
		resps = []*wire.Response{{Op: wire.RespChunk, Stream: wire.StreamMatches, Matches: x}}
	case []gomdb.OID:
		resps = []*wire.Response{{Op: wire.RespChunk, Stream: wire.StreamOIDs, OIDs: x}}
	case *gomdb.QueryResult:
		resps = []*wire.Response{
			{Op: wire.RespStreamBegin, Stream: wire.StreamQuery, Columns: x.Columns},
			{Op: wire.RespChunk, Stream: wire.StreamQuery, Rows: x.Rows},
		}
	default:
		t.Fatalf("fingerprint: unhandled result type %T", v)
	}
	var buf bytes.Buffer
	for _, r := range resps {
		p, err := wire.EncodeResponse(r)
		if err != nil {
			t.Fatalf("fingerprint encode: %v", err)
		}
		buf.WriteByte(byte(r.Op))
		buf.Write(p)
	}
	return buf.Bytes()
}

// step runs one named operation against both surfaces and insists on
// byte-identical results (or identical failure texts).
func step(t *testing.T, name string, net, ref surface, op func(surface) (any, error)) {
	t.Helper()
	nv, nerr := op(net)
	rv, rerr := op(ref)
	if (nerr != nil) != (rerr != nil) {
		t.Fatalf("%s: network err=%v, embedded err=%v", name, nerr, rerr)
	}
	if rerr != nil {
		// The server folds engine errors into CodeEngine responses carrying
		// the engine's message; the texts must survive the trip.
		var we *wire.Error
		if !errors.As(nerr, &we) {
			t.Fatalf("%s: network error %v is not structured", name, nerr)
		}
		if we.Msg != rerr.Error() {
			t.Fatalf("%s: error drifted over the wire:\n net: %q\n ref: %q", name, we.Msg, rerr.Error())
		}
		return
	}
	if !bytes.Equal(fingerprint(t, nv), fingerprint(t, rv)) {
		t.Fatalf("%s: results differ:\n net: %#v\n ref: %#v", name, nv, rv)
	}
}

// conformanceScript drives every opcode through both surfaces.
func conformanceScript(t *testing.T, c surface, ref surface) {
	ext := func(s surface) (any, error) { v, err := s.Extension("Cuboid"); return v, err }

	// Reads against the populated geometry.
	step(t, "extension", c, ref, ext)
	cuboids, err := ref.Extension("Cuboid")
	if err != nil || len(cuboids) < 3 {
		t.Fatalf("population missing: %v %d", err, len(cuboids))
	}
	c0, c1 := cuboids[0], cuboids[1]

	step(t, "getattr/Value", c, ref, func(s surface) (any, error) { return s.GetAttr(c0, "Value") })
	step(t, "getattr/V1", c, ref, func(s surface) (any, error) { return s.GetAttr(c0, "V1") })
	step(t, "getattr/bad-oid", c, ref, func(s surface) (any, error) { return s.GetAttr(gomdb.OID(1<<40), "Value") })
	step(t, "call/volume", c, ref, func(s surface) (any, error) { return s.Call("Cuboid.volume", gomdb.Ref(c0)) })
	step(t, "call/unknown", c, ref, func(s surface) (any, error) { return s.Call("Cuboid.nope", gomdb.Ref(c0)) })
	step(t, "simseconds", c, ref, func(s surface) (any, error) { return s.SimSeconds() })

	// Materialization and the GMR read surfaces.
	mat := gomdb.MaterializeOptions{
		Name:     "VW",
		Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
		Complete: true,
	}
	step(t, "materialize", c, ref, func(s surface) (any, error) { return nil, s.Materialize(mat) })
	step(t, "retrieve/all", c, ref, func(s surface) (any, error) { return s.Retrieve("VW", nil) })
	refC0 := gomdb.Ref(c0)
	step(t, "retrieve/spec", c, ref, func(s surface) (any, error) {
		return s.Retrieve("VW", []gomdb.FieldSpec{{Exact: &refC0}})
	})
	step(t, "backward", c, ref, func(s surface) (any, error) { return s.Backward("Cuboid.volume", 0, 1e9) })
	step(t, "sum/all", c, ref, func(s surface) (any, error) { return s.Sum("Cuboid.volume", nil) })
	step(t, "sum/subset", c, ref, func(s surface) (any, error) {
		return s.Sum("Cuboid.volume", []gomdb.OID{c0, c1})
	})
	step(t, "query", c, ref, func(s surface) (any, error) {
		return s.Query(`range c: Cuboid retrieve c.CuboidID where c.volume > 100.0`, nil)
	})
	step(t, "query/params", c, ref, func(s surface) (any, error) {
		return s.Query(`range c: Cuboid retrieve c.Value where c.CuboidID = $id`,
			map[string]gomdb.Value{"id": gomdb.Int(1)})
	})
	step(t, "query/bad", c, ref, func(s surface) (any, error) {
		return s.Query(`range r: Missing retrieve r`, nil)
	})

	// Updates: twin determinism makes even the allocated OIDs comparable.
	step(t, "new/vertex", c, ref, func(s surface) (any, error) {
		return s.New("Vertex", gomdb.Float(1), gomdb.Float(2), gomdb.Float(3))
	})
	step(t, "newset", c, ref, func(s surface) (any, error) {
		return s.NewSet("Workpieces", gomdb.Ref(c0), gomdb.Ref(c1))
	})
	ws, err := ref.Extension("Workpieces")
	if err != nil || len(ws) == 0 {
		t.Fatalf("workpieces missing: %v", err)
	}
	wp := ws[len(ws)-1]
	step(t, "call/total_volume", c, ref, func(s surface) (any, error) {
		return s.Call("Workpieces.total_volume", gomdb.Ref(wp))
	})
	step(t, "insert", c, ref, func(s surface) (any, error) {
		return nil, s.Insert(wp, gomdb.Ref(cuboids[2]))
	})
	step(t, "remove", c, ref, func(s surface) (any, error) {
		return nil, s.Remove(wp, gomdb.Ref(c1))
	})
	step(t, "set", c, ref, func(s surface) (any, error) {
		return nil, s.Set(c0, "Value", gomdb.Float(123.5))
	})
	step(t, "getattr/after-set", c, ref, func(s surface) (any, error) { return s.GetAttr(c0, "Value") })
	step(t, "flush", c, ref, func(s surface) (any, error) { return nil, s.Flush() })
	step(t, "retrieve/after-update", c, ref, func(s surface) (any, error) { return s.Retrieve("VW", nil) })
	step(t, "delete", c, ref, func(s surface) (any, error) { return nil, s.Delete(wp) })
	step(t, "dematerialize", c, ref, func(s surface) (any, error) { return nil, s.Dematerialize("VW") })
	step(t, "dematerialize/missing", c, ref, func(s surface) (any, error) {
		return nil, s.Dematerialize("VW")
	})
	step(t, "extension/final", c, ref, ext)
	step(t, "simseconds/final", c, ref, func(s surface) (any, error) { return s.SimSeconds() })
}

// batchScript drives the interactive batch surface through the network
// client and the embedded Batch, comparing results step by step.
func batchScript(t *testing.T, c *client.Client, ref server.Backend) {
	ext, err := c.Extension("Cuboid")
	if err != nil || len(ext) == 0 {
		t.Fatalf("extension: %v", err)
	}
	c0 := ext[0]

	var netOID, refOID gomdb.OID
	var netVal, refVal gomdb.Value
	err = c.Batch(func(b *client.Batch) error {
		var err error
		if netOID, err = b.New("Vertex", gomdb.Float(9), gomdb.Float(9), gomdb.Float(9)); err != nil {
			return err
		}
		if err = b.Set(c0, "Value", gomdb.Float(77)); err != nil {
			return err
		}
		netVal, err = b.GetAttr(c0, "Value")
		return err
	})
	if err != nil {
		t.Fatalf("network batch: %v", err)
	}
	tx := ref.BeginTx()
	refOID, err = tx.New("Vertex", gomdb.Float(9), gomdb.Float(9), gomdb.Float(9))
	if err == nil {
		err = tx.Set(c0, "Value", gomdb.Float(77))
	}
	if err == nil {
		refVal, err = tx.GetAttr(c0, "Value")
	}
	if eerr := ref.EndTx(tx, err); eerr != nil {
		t.Fatalf("embedded batch: %v", eerr)
	}
	if netOID != refOID {
		t.Fatalf("batch New diverged: net %v, ref %v", netOID, refOID)
	}
	if !bytes.Equal(fingerprint(t, netVal), fingerprint(t, refVal)) {
		t.Fatalf("batch GetAttr diverged: net %#v, ref %#v", netVal, refVal)
	}

	// Abort: applied operations stay applied (batches are not
	// transactional), the verdict releases the lock; both sides agree on
	// the resulting state.
	b, err := c.BeginBatch()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Set(c0, "Value", gomdb.Float(88)); err != nil {
		t.Fatal(err)
	}
	if err := b.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	tx = ref.BeginTx()
	if err := tx.Set(c0, "Value", gomdb.Float(88)); err != nil {
		t.Fatal(err)
	}
	ref.EndTx(tx, fmt.Errorf("aborted"))
	nv, nerr := c.GetAttr(c0, "Value")
	rv, rerr := ref.GetAttr(c0, "Value")
	if nerr != nil || rerr != nil || !bytes.Equal(fingerprint(t, nv), fingerprint(t, rv)) {
		t.Fatalf("post-abort state diverged: net (%#v, %v), ref (%#v, %v)", nv, nerr, rv, rerr)
	}
}

// deferredScript drives a Deferred GMR through both surfaces: materialize,
// move a vertex the function reads, drain the queue, and read the result.
func deferredScript(t *testing.T, c surface, ref surface) {
	cuboids, err := ref.Extension("Cuboid")
	if err != nil || len(cuboids) == 0 {
		t.Fatalf("population missing: %v", err)
	}
	c0 := cuboids[0]
	// Both twins read the vertex, so their clocks stay in step.
	var v1 gomdb.Value
	step(t, "deferred/getattr", c, ref, func(s surface) (any, error) {
		v, err := s.GetAttr(c0, "V1")
		v1 = v
		return v, err
	})
	mat := gomdb.MaterializeOptions{
		Name:     "VD",
		Funcs:    []string{"Cuboid.volume"},
		Strategy: gomdb.Deferred,
		Complete: true,
	}
	step(t, "deferred/materialize", c, ref, func(s surface) (any, error) { return nil, s.Materialize(mat) })
	step(t, "deferred/move", c, ref, func(s surface) (any, error) {
		return nil, s.Set(v1.R, "X", gomdb.Float(17.25))
	})
	step(t, "deferred/flush", c, ref, func(s surface) (any, error) { return nil, s.Flush() })
	step(t, "deferred/call", c, ref, func(s surface) (any, error) { return s.Call("Cuboid.volume", gomdb.Ref(c0)) })
	step(t, "deferred/simseconds", c, ref, func(s surface) (any, error) { return s.SimSeconds() })
}

func TestConformanceMatrix(t *testing.T) {
	backends := []struct {
		name  string
		build func(t *testing.T) server.Backend
	}{
		{"plain", func(t *testing.T) server.Backend { be, _ := plainBackend(t); return be }},
		{"shard4", func(t *testing.T) server.Backend { return shardBackend(t) }},
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
				conformanceScript(t, c, refAPI{embedded})
				batchScript(t, c, embedded)
				deferredScript(t, c, refAPI{embedded})
			})
		}
	}
}
