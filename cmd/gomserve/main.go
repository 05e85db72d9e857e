// Command gomserve serves a GOM object base over TCP: the length-prefixed
// binary protocol of internal/wire, spoken by the gomdb/client package.
//
//	gomserve -addr :7227 -db geometry -n 1000     # plain engine
//	gomserve -addr :7227 -shards 4                # scatter-gather router
//	gomserve -auth-token sesame -max-conns 64     # auth stub + admission cap
//
// The served database is seeded from the same sample fixtures as gomql
// (-db geometry|company|none), or generated: -db ocb serves a synthetic
// OCB-style object base (internal/ocb demo parameters, -n instances per
// class) and -db ocb:<seed> picks the generation seed explicitly (otherwise
// -seed applies). Schema definition has no wire opcode, so an empty base
// (-db none) only accepts data operations against types a fixture would
// have defined. Clients create GMRs over the wire with Materialize.
// SIGINT/SIGTERM drains: in-flight requests complete, open interactive
// batches of vanished clients are aborted and their engine locks released,
// then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/ocb"
	"gomdb/internal/server"
	"gomdb/internal/shard"
)

func main() {
	var (
		addr         = flag.String("addr", ":7227", "TCP listen address")
		shards       = flag.Int("shards", 1, "number of engine shards (>1 serves the scatter-gather router)")
		dbKind       = flag.String("db", "geometry", "database to seed: geometry, company, ocb[:<seed>], or none")
		n            = flag.Int("n", 100, "number of cuboids (geometry) or instances per class (ocb)")
		seed         = flag.Int64("seed", 42, "population seed (geometry and ocb databases)")
		bufferPages  = flag.Int("buffer-pages", 0, "buffer pool pages per engine (default: engine default)")
		authToken    = flag.String("auth-token", os.Getenv("GOMSERVE_TOKEN"), "require this token in the client hello (default $GOMSERVE_TOKEN; empty disables auth)")
		maxConns     = flag.Int("max-conns", 0, "maximum concurrent sessions (0 = unlimited; excess connections are refused with a busy error)")
		readTimeout  = flag.Duration("read-timeout", 5*time.Minute, "per-frame read deadline (0 disables)")
		writeTimeout = flag.Duration("write-timeout", time.Minute, "per-frame write deadline (0 disables)")
		chunkRows    = flag.Int("chunk-rows", 0, "rows per streamed result chunk (0 = default)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight sessions before force-closing")
	)
	flag.Parse()

	be, err := buildBackend(*shards, *dbKind, *n, *seed, *bufferPages)
	if err != nil {
		fatal(err)
	}
	srv, err := server.New(server.Config{
		Backend:      be,
		AuthToken:    *authToken,
		MaxConns:     *maxConns,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		ChunkRows:    *chunkRows,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("gomserve: %s database on %s (%d shard(s), auth %s)\n",
		*dbKind, ln.Addr(), *shards, onOff(*authToken != ""))

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("gomserve: %v, draining (up to %v)\n", s, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		<-done // Serve returns ErrServerClosed once the listener closes
	case err := <-done:
		if err != nil && err != server.ErrServerClosed {
			fatal(err)
		}
	}
	if v := srv.AuditQuiescent(); len(v) != 0 {
		fatal(fmt.Errorf("post-drain audit: %v", v))
	}
	st := srv.Stats()
	fmt.Printf("gomserve: drained clean (%d sessions served, %d requests, %d refused, %d batches aborted)\n",
		st.Sessions, st.Requests, st.Refused, st.AbortedBatches)
}

// buildBackend opens the engine (or router) and seeds the sample fixture or
// generated base.
func buildBackend(shards int, dbKind string, n int, seed int64, bufferPages int) (server.Backend, error) {
	if shards < 1 {
		return nil, fmt.Errorf("-shards %d: need at least 1", shards)
	}
	ocbBase, err := parseOCB(dbKind, n, seed)
	if err != nil {
		return nil, err
	}
	ecfg := gomdb.DefaultConfig()
	if bufferPages > 0 {
		ecfg.BufferPages = bufferPages
	}
	// One engine is served embedded, more through the router; the fixture
	// is defined on every engine and populated through the placement.
	var (
		engines []*gomdb.Database
		place   shard.Placement
		backend server.Backend
	)
	if shards > 1 {
		db := shard.Open(shard.Config{Shards: shards, Engine: ecfg})
		for i := 0; i < shards; i++ {
			engines = append(engines, db.Shard(i))
		}
		place, backend = db, server.Sharded{DB: db}
	} else {
		db := gomdb.Open(ecfg)
		engines = []*gomdb.Database{db}
		place, backend = shard.Single(db), server.Embedded{DB: db}
	}
	define := func(fn func(*gomdb.Database) error) error {
		for _, db := range engines {
			if err := fn(db); err != nil {
				return err
			}
		}
		return nil
	}
	switch {
	case ocbBase != nil:
		err = define(func(db *gomdb.Database) error { return ocb.Define(db, ocbBase.P) })
		if err == nil {
			_, err = ocb.Populate(place, ocbBase)
		}
	case dbKind == "geometry":
		err = define(func(db *gomdb.Database) error { return fixtures.DefineGeometry(db, false) })
		if err == nil {
			_, err = fixtures.PopulateGeometryOn(place, n, seed)
		}
	case dbKind == "none":
	case shards > 1:
		return nil, fmt.Errorf("-db %q is not available with -shards > 1 (use geometry, ocb, or none)", dbKind)
	case dbKind == "company":
		err = fixtures.DefineCompany(engines[0])
		if err == nil {
			_, err = fixtures.PopulateCompany(engines[0], fixtures.Figure15Config())
		}
	default:
		return nil, fmt.Errorf("unknown -db %q (geometry, company, ocb, or none)", dbKind)
	}
	if err != nil {
		return nil, err
	}
	return backend, nil
}

// parseOCB recognizes -db ocb and -db ocb:<seed> and generates the base
// (demo parameters, -n instances per class). Returns nil for other kinds.
func parseOCB(dbKind string, n int, seed int64) (*ocb.Base, error) {
	if dbKind != "ocb" && !strings.HasPrefix(dbKind, "ocb:") {
		return nil, nil
	}
	if rest, ok := strings.CutPrefix(dbKind, "ocb:"); ok {
		s, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-db %q: bad ocb seed: %v", dbKind, err)
		}
		seed = s
	}
	p := ocb.Demo()
	if n > 0 {
		p.Instances = n
	}
	base, err := ocb.Gen(p, seed)
	if err != nil {
		return nil, fmt.Errorf("-db ocb: %w", err)
	}
	return base, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gomserve: %v\n", err)
	os.Exit(1)
}
