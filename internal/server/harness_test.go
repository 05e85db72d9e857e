package server_test

import (
	"context"
	"net"
	"testing"
	"time"

	"gomdb"
	"gomdb/client"
	"gomdb/internal/fixtures"
	"gomdb/internal/server"
	"gomdb/internal/shard"
)

// The harness builds twin backends — one behind the server, one driven
// directly through the embedded API — and connects clients over both
// transports (net.Pipe for deterministic in-process tests, real TCP for the
// full stack). Twins are populated identically, so deterministic OID
// allocation makes their results byte-comparable.

const (
	popCuboids = 24
	popSeed    = 7
)

// plainBackend builds a populated single-engine backend.
func plainBackend(t *testing.T) (server.Backend, *gomdb.Database) {
	t.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineGeometry(db, false); err != nil {
		t.Fatal(err)
	}
	if _, err := fixtures.PopulateGeometry(db, popCuboids, popSeed); err != nil {
		t.Fatal(err)
	}
	return server.Embedded{DB: db}, db
}

// shardBackend builds a populated 4-shard router backend.
func shardBackend(t *testing.T) server.Backend {
	t.Helper()
	db := shard.Open(shard.Config{Shards: 4, Engine: gomdb.DefaultConfig()})
	if err := db.EachShard(func(_ int, sh *gomdb.Database) error { return fixtures.DefineGeometry(sh, false) }); err != nil {
		t.Fatal(err)
	}
	if _, err := fixtures.PopulateGeometryOn(db, popCuboids, popSeed); err != nil {
		t.Fatal(err)
	}
	return server.Sharded{DB: db}
}

// newServer wraps a backend in a Server with test-friendly timeouts.
func newServer(t *testing.T, be server.Backend, mut func(*server.Config)) *server.Server {
	t.Helper()
	cfg := server.Config{
		Backend:      be,
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 5 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// pipeClient connects a client to srv over an in-process net.Pipe.
func pipeClient(t *testing.T, srv *server.Server, opts client.Options) *client.Client {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	c, err := client.New(cliEnd, opts)
	if err != nil {
		cliEnd.Close()
		t.Fatalf("pipe handshake: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// tcpServer starts srv on a loopback listener and returns its address. The
// server is drained at test cleanup.
func tcpServer(t *testing.T, srv *server.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ln.Addr().String()
}

// tcpClient dials a client against addr.
func tcpClient(t *testing.T, addr string, opts client.Options) *client.Client {
	t.Helper()
	opts.DialTimeout = 5 * time.Second
	c, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// drainServer shuts srv down and fails the test on drain errors.
func drainServer(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if v := srv.AuditQuiescent(); len(v) != 0 {
		t.Fatalf("server not quiescent after drain: %v", v)
	}
}
