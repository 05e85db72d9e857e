package server_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"gomdb"
	"gomdb/client"
	"gomdb/internal/fixtures"
	"gomdb/internal/server"
)

// Served round trips through the per-connection codecs (wire.Codec) of the
// client and the session: a steady-state point op allocates nothing on
// either side, and a client shared by many goroutines still answers each of
// them with its own response.

// raceEnabled reports whether the test binary was built with -race, whose
// runtime allocates on its own.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// volumeGMR materializes volume and weight completely, so every served Call
// of them is a forward hit.
var volumeGMR = gomdb.MaterializeOptions{
	Name:     "Gvw",
	Funcs:    []string{"Cuboid.volume", "Cuboid.weight"},
	Complete: true,
	Mode:     gomdb.ModeObjDep,
	Strategy: gomdb.Immediate,
}

// pointBase is a populated engine with volume and weight materialized, and
// the vertices of its first cuboid.
func pointBase(t testing.TB) (*gomdb.Database, *fixtures.Geometry, []gomdb.OID) {
	t.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	g, err := fixtures.PopulateGeometry(db, popCuboids, popSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize(volumeGMR); err != nil {
		t.Fatal(err)
	}
	var verts []gomdb.OID
	for i := 1; i <= 8; i++ {
		v, err := db.GetAttr(g.Cuboids[0], fmt.Sprintf("V%d", i))
		if err != nil {
			t.Fatal(err)
		}
		verts = append(verts, v.R)
	}
	return db, g, verts
}

// pointClient serves db over TCP loopback with read, write and call
// timeouts armed, as a deployment runs. (net.Pipe's deadlines allocate a
// timer each, so they would hide what the codecs do.)
func pointClient(t testing.TB, db *gomdb.Database) *client.Client {
	t.Helper()
	srv := newServer(t, server.Embedded{DB: db}, nil)
	return tcpClient(t, tcpServer(t, srv), client.Options{CallTimeout: 5 * time.Second})
}

// pointOps are the single-round-trip ops served-point sends, and a Ping.
func pointOps(t testing.TB, c *client.Client, g *fixtures.Geometry, verts []gomdb.OID) []struct {
	name string
	fn   func()
} {
	cub := gomdb.Ref(g.Cuboids[0])
	fail := func(name string, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	x := 0.0
	return []struct {
		name string
		fn   func()
	}{
		{"Call", func() { _, err := c.Call("Cuboid.volume", cub); fail("Call", err) }},
		{"GetAttr", func() { _, err := c.GetAttr(verts[0], "X"); fail("GetAttr", err) }},
		{"Set", func() {
			// Every set moves a vertex the volume depends on, as
			// served-point's do: each invalidates and rematerializes.
			x = 1 - x
			fail("Set", c.Set(verts[0], "X", gomdb.Float(x)))
		}},
		{"Ping", func() { fail("Ping", c.Ping()) }},
	}
}

// TestServedAllocations pins a steady-state served Call, GetAttr, Set and
// Ping at zero allocations per round trip, client and server together: the
// codecs reuse their buffers, the session decodes into its own request and
// the client into its own response.
func TestServedAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, g, verts := pointBase(t)
	c := pointClient(t, db)
	for _, op := range pointOps(t, c, g, verts) {
		if got := testing.AllocsPerRun(500, op.fn); got != 0 {
			t.Errorf("served %s allocates %v times per round trip, want 0", op.name, got)
		}
	}
}

// BenchmarkServedRoundTrip is one client's round trip over TCP loopback,
// one request in flight, per point op.
func BenchmarkServedRoundTrip(b *testing.B) {
	db, g, verts := pointBase(b)
	c := pointClient(b, db)
	for _, op := range pointOps(b, c, g, verts) {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.fn()
			}
		})
	}
}

// TestSharedClientStress: 8 goroutines share one Client, each sending its
// own mix of point reads with its own arguments, and every answer must
// equal the embedded twin's. Under -race it checks that no response or
// request buffer of the client or the session is read outside the lock
// that guards it.
func TestSharedClientStress(t *testing.T) {
	db, g, _ := pointBase(t)
	twin, tg, _ := pointBase(t)
	c := pointClient(t, db)
	const workers, rounds = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				k := rng.Intn(len(g.Cuboids))
				var got, want gomdb.Value
				var gerr, werr error
				switch rng.Intn(4) {
				case 0:
					got, gerr = c.Call("Cuboid.volume", gomdb.Ref(g.Cuboids[k]))
					want, werr = twin.Call("Cuboid.volume", gomdb.Ref(tg.Cuboids[k]))
				case 1:
					got, gerr = c.Call("Cuboid.weight", gomdb.Ref(g.Cuboids[k]))
					want, werr = twin.Call("Cuboid.weight", gomdb.Ref(tg.Cuboids[k]))
				case 2:
					attr := fmt.Sprintf("V%d", 1+rng.Intn(8))
					got, gerr = c.GetAttr(g.Cuboids[k], attr)
					want, werr = twin.GetAttr(tg.Cuboids[k], attr)
				default:
					got, gerr = c.Call("Cuboid.nope", gomdb.Ref(g.Cuboids[k]))
					want, werr = twin.Call("Cuboid.nope", gomdb.Ref(tg.Cuboids[k]))
				}
				if (gerr == nil) != (werr == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("worker %d round %d: served (%v, %v), embedded (%v, %v)", w, i, got, gerr, want, werr)
					return
				}
				if gerr != nil && !strings.HasSuffix(gerr.Error(), werr.Error()) {
					t.Errorf("worker %d round %d: served error %q, embedded %q", w, i, gerr, werr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestServedArgumentsAreNeverKept: the session decodes every request's
// arguments into one reused array, so a backend that kept the array it was
// handed would see it overwritten by the next request. One connection fills
// an incremental GMR with a Call per cuboid and creates vertices with New,
// each request's arguments landing where the previous one's were; every GMR
// row, every new object and every answer must equal the embedded twin's,
// on both backends.
func TestServedArgumentsAreNeverKept(t *testing.T) {
	for _, be := range []struct {
		name  string
		build func(t *testing.T) server.Backend
	}{
		{"plain", func(t *testing.T) server.Backend { be, _ := plainBackend(t); return be }},
		{"shard4", func(t *testing.T) server.Backend { return shardBackend(t) }},
	} {
		t.Run(be.name, func(t *testing.T) {
			served, embedded := be.build(t), be.build(t)
			c := tcpClient(t, tcpServer(t, newServer(t, served, nil)), client.Options{CallTimeout: 5 * time.Second})
			ref := refAPI{embedded}
			inc := gomdb.MaterializeOptions{Name: "Ginc", Funcs: []string{"Cuboid.volume"}, Strategy: gomdb.Immediate}
			step(t, "materialize", c, ref, func(s surface) (any, error) { return nil, s.Materialize(inc) })
			cuboids, _ := ref.Extension("Cuboid")
			for i, oid := range cuboids {
				step(t, fmt.Sprintf("call %d", i), c, ref, func(s surface) (any, error) {
					return s.Call("Cuboid.volume", gomdb.Ref(oid))
				})
			}
			step(t, "retrieve", c, ref, func(s surface) (any, error) { return s.Retrieve("Ginc", nil) })
			for i := 0; i < 6; i++ {
				x := float64(10 * i)
				var oid gomdb.OID
				step(t, fmt.Sprintf("new %d", i), c, ref, func(s surface) (any, error) {
					v, err := s.New("Vertex", gomdb.Float(x), gomdb.Float(x+1), gomdb.Float(x+2))
					oid = v
					return v, err
				})
				for _, attr := range []string{"X", "Y", "Z"} {
					step(t, fmt.Sprintf("new %d %s", i, attr), c, ref, func(s surface) (any, error) {
						return s.GetAttr(oid, attr)
					})
				}
			}
			for i, oid := range cuboids {
				step(t, fmt.Sprintf("hit %d", i), c, ref, func(s surface) (any, error) {
					return s.Call("Cuboid.volume", gomdb.Ref(oid))
				})
			}
			// The engines' in-memory entries, not only what the wire shows.
			if got, want := entries(t, served, "Ginc"), entries(t, embedded, "Ginc"); !reflect.DeepEqual(got, want) {
				t.Errorf("served engine holds entries\n%v\nembedded twin\n%v", got, want)
			}
		})
	}
}

// entries lists the in-memory entries of GMR name on every engine behind be.
func entries(t *testing.T, be server.Backend, name string) []string {
	t.Helper()
	var dbs []*gomdb.Database
	switch b := be.(type) {
	case server.Embedded:
		dbs = append(dbs, b.DB)
	case server.Sharded:
		b.EachShard(func(_ int, db *gomdb.Database) error { dbs = append(dbs, db); return nil })
	}
	var out []string
	for i, db := range dbs {
		g, ok := db.GMRs.Get(name)
		if !ok {
			t.Fatalf("engine %d has no GMR %s", i, name)
		}
		g.Entries(func(args, results []gomdb.Value, valid []bool) bool {
			out = append(out, fmt.Sprint(i, args, results, valid))
			return true
		})
	}
	return out
}
