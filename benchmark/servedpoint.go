package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"gomdb"
	"gomdb/client"
	"gomdb/internal/server"
	"gomdb/internal/wire"
)

// servedPoint sends single-round-trip operations over one TCP connection to
// an in-process server on readHot's base. On the reads, engine work is a
// small part of a round trip, so client, wire, server and the loopback do
// most of the work here, and none in the other three workloads. The few
// writes keep the served update path beside the reads.
type servedPoint struct {
	*world
	srv  *endpoint
	c    *client.Client
	sent uint64 // operations sent since set-up
}

const (
	spcCall = iota
	spcGetAttr
	spcSet
)

var servedPointClasses = []class{
	{"call", 8800, "client.call_rtt_us", 1e3},
	{"getattr", 1000, "client.getattr_rtt_us", 1e3},
	{"set", 200, "client.set_rtt_us", 1e3},
}

func (w *servedPoint) classes() []class { return servedPointClasses }
func (w *servedPoint) spansPerOp() int  { return 2 }
func (w *servedPoint) base() *world     { return w.world }

// endpoint is a server on a loopback listener, with the goroutine that
// serves it.
type endpoint struct {
	srv  *server.Server
	addr string
	done chan error
}

func listen(be server.Backend) (*endpoint, error) {
	srv, err := server.New(server.Config{Backend: be, ReadTimeout: time.Minute, WriteTimeout: time.Minute})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- srv.Serve(ln) }()
	return e, nil
}

func (e *endpoint) dial() (*client.Client, error) {
	return client.Dial(e.addr, client.Options{DialTimeout: 10 * time.Second, CallTimeout: time.Minute})
}

// stop drains the server and waits for its goroutine.
func (e *endpoint) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.done; err == nil && !errors.Is(serr, server.ErrServerClosed) {
		err = serr
	}
	return err
}

func (w *servedPoint) setup(seed int64, _ string) (err error) {
	if w.world, err = newWorld(gomdb.Config{BufferPages: hotPool}, seed, gvw(gomdb.Immediate)); err != nil {
		return err
	}
	if w.srv, err = listen(server.Embedded{DB: w.db}); err != nil {
		return err
	}
	w.c, err = w.srv.dial()
	return err
}

func (w *servedPoint) close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

func (w *servedPoint) gen(rng *rand.Rand, buf []op) {
	dealClasses(rng, buf, servedPointClasses)
	for k := range buf {
		o := &buf[k]
		genMove(rng, o, len(w.cub)) // a cuboid, a vertex, a coordinate, a value
		if o.class == spcSet {
			// Every set moves a vertex the volume depends on, so every one
			// invalidates and rematerializes. The sets are the slowest 2 %
			// of the stream; were half of them cheap, p99 would sit on the
			// cliff between the two halves and read 47 µs on one run and
			// 84 µs on the next.
			o.v = volumeVertices[o.v%4]
		}
	}
}

func (w *servedPoint) do(o *op, rec *recorder) bool {
	w.sent++
	switch o.class {
	case spcCall:
		id := rec.begin(spCall)
		v, err := w.c.Call("Cuboid.volume", gomdb.Ref(w.cub[o.i]))
		rec.end(id)
		return err == nil && closeTo(v.F, w.volume(o.i))
	case spcGetAttr:
		id := rec.begin(spGetAttr)
		v, err := w.c.GetAttr(w.vert[o.i][o.v], coordAttr[o.c])
		rec.end(id)
		return err == nil && v.F == w.pos[o.i][o.v][o.c]
	default:
		id := rec.begin(spSet)
		err := w.c.Set(w.vert[o.i][o.v], coordAttr[o.c], gomdb.Float(o.x))
		rec.end(id)
		if err != nil {
			return false
		}
		w.pos[o.i][o.v][o.c] = o.x
		w.updates++
		return true
	}
}

// noopBackend answers every Call with a constant: a server in front of it
// measures the session and the protocol with no engine behind them.
type noopBackend struct{ server.Backend }

func (noopBackend) Call(string, ...gomdb.Value) (gomdb.Value, error) { return gomdb.Float(1), nil }
func (noopBackend) Shards() int                                      { return 1 }

// layers walks the ladder under a served Call: the real client and server
// with no engine, a bare TCP echo of the same frame sizes with no repository
// code at all, and the codec alone in memory.
func (w *servedPoint) layers(m metrics, spans []span) error {
	const rounds = 4000
	m["server.requests_per_op"] = float64(w.srv.srv.Stats().Requests) / float64(w.sent)

	var fe firstErr
	keep := fe.keep
	arg := func(i int) gomdb.Value { return gomdb.Ref(w.cub[i%len(w.cub)]) }

	noop, e := listen(noopBackend{})
	if e != nil {
		return e
	}
	defer noop.stop()
	nc, e := noop.dial()
	if e != nil {
		return e
	}
	defer nc.Close()

	// The frames a Call and its answer travel in.
	payload, e := wire.EncodeRequest(&wire.Request{Op: wire.OpCall, Name: "Cuboid.volume", Args: []gomdb.Value{arg(0)}})
	if e != nil {
		return e
	}
	reqFrame := wire.EncodeFrame(&wire.Frame{Op: wire.OpCall, ReqID: 1, Payload: payload})
	resp := &wire.Response{Op: wire.RespValue, Val: gomdb.Float(w.volume(0))}
	if payload, e = wire.EncodeResponse(resp); e != nil {
		return e
	}
	respFrame := wire.EncodeFrame(&wire.Frame{Op: wire.RespValue, ReqID: 1, Payload: payload})
	m["wire.frame_bytes_per_op"] = float64(len(reqFrame) + len(respFrame))

	echo, stopEcho, e := startEcho(reqFrame, respFrame)
	if e != nil {
		return e
	}
	defer stopEcho()

	// The four round trips take turns call by call, so their differences
	// are differences of like with like, and each is a median, as
	// client.call_rtt_us is.
	rtt := probeEach(probeRounds*rounds,
		func(i int) { _, e := w.c.Call("Cuboid.volume", arg(i)); keep(e) },
		func(i int) { _, e := nc.Call("Cuboid.volume", arg(i)); keep(e) },
		func(int) { keep(echo()) },
		func(int) { keep(w.c.Ping()) })
	call, noopRTT, echoRTT := rtt[0]/1e3, rtt[1]/1e3, rtt[2]/1e3
	m["server.noop_rtt_us"] = noopRTT
	m["net.echo_rtt_us"] = echoRTT
	m["client.ping_rtt_us"] = rtt[3] / 1e3
	m["server.proto_self_us"] = noopRTT - echoRTT
	m["server.engine_self_us"] = call - noopRTT

	// The codec on those frames, as client and session use it.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var rd bytes.Reader
	m["wire.req_encode_ns"] = probe(rounds, func(i int) {
		p, e := wire.EncodeRequest(&wire.Request{Op: wire.OpCall, Name: "Cuboid.volume", Args: []gomdb.Value{arg(i)}})
		keep(e)
		wire.EncodeFrame(&wire.Frame{Op: wire.OpCall, ReqID: uint64(i), Payload: p})
	})
	m["wire.req_decode_ns"] = probe(rounds, func(int) {
		rd.Reset(reqFrame)
		f, e := wire.ReadFrame(&rd)
		keep(e)
		_, e = wire.DecodeRequest(f.Op, f.Payload)
		keep(e)
	})
	m["wire.resp_encode_ns"] = probe(rounds, func(i int) {
		p, e := wire.EncodeResponse(resp)
		keep(e)
		wire.EncodeFrame(&wire.Frame{Op: wire.RespValue, ReqID: uint64(i), Payload: p})
	})
	m["wire.resp_decode_ns"] = probe(rounds, func(int) {
		rd.Reset(respFrame)
		f, e := wire.ReadFrame(&rd)
		keep(e)
		_, e = wire.DecodeResponse(f.Op, f.Payload)
		keep(e)
	})
	runtime.ReadMemStats(&ms1)
	m["wire.codec_allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(probeRounds*rounds)
	return fe.err
}

// startEcho starts a bare TCP exchange of the given frame sizes — the floor
// the kernel and the loopback put under any round trip — and returns the
// function that makes one exchange and the one that ends it.
func startEcho(req, resp []byte) (roundTrip func() error, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		in := make([]byte, len(req))
		for {
			if _, err := io.ReadFull(conn, in); err != nil {
				return
			}
			if _, err := conn.Write(resp); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // fails the Accept, which ends the goroutine
		<-done
		return nil, nil, err
	}
	in := make([]byte, len(resp))
	roundTrip = func() error {
		if _, err := conn.Write(req); err != nil {
			return err
		}
		_, err := io.ReadFull(conn, in)
		return err
	}
	stop = func() {
		conn.Close()
		ln.Close()
		<-done
	}
	return roundTrip, stop, nil
}

// check: the engine side is consistent, and once the client has gone and the
// server has drained, no session or batch is left behind.
func (w *servedPoint) check(metrics) error {
	if err := w.checkGMRs("Gvw"); err != nil {
		return err
	}
	srv := w.srv.srv
	if err := w.c.Close(); err != nil {
		return err
	}
	w.c = nil
	err := w.srv.stop()
	w.srv = nil
	if err != nil {
		return err
	}
	if v := srv.AuditQuiescent(); len(v) != 0 {
		return fmt.Errorf("server audit: %v", v)
	}
	return nil
}
