package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"gomdb"
	"gomdb/internal/storage"
)

// durableBatch is the only workload that touches a file: a durable database
// whose every batch ends in a flush of the deferred queue, a checkpoint and
// its fsyncs. The pool is large, so the durable path and not simulated
// misses carries the time. Flush policy: every batch, fsync on.
type durableBatch struct {
	*world
	dir   string
	moves []op // batchMoves per operation of the current segment
}

const (
	batchCuboids = 8
	batchMoves   = 2 * batchCuboids // two vertex moves per cuboid
)

var durableBatchClasses = []class{{"batch", 10000, "gomdb.batch_op_ms", 1e6}}

func (w *durableBatch) classes() []class { return durableBatchClasses }
func (w *durableBatch) spansPerOp() int  { return 2 + 2*batchMoves + batchCuboids }
func (w *durableBatch) base() *world     { return w.world }

func (w *durableBatch) config() gomdb.Config {
	return gomdb.Config{BufferPages: hotPool, Path: w.dir, DefineSchema: defineSchema}
}

func (w *durableBatch) setup(seed int64, dir string) (err error) {
	if w.dir, err = os.MkdirTemp(dir, "db-"); err != nil {
		return err
	}
	w.world, err = newWorld(w.config(), seed, gvw(gomdb.Deferred))
	return err
}

func (w *durableBatch) close() {
	if w.world != nil {
		w.db.Crash() // releases the files; nothing needs to be kept
	}
	os.RemoveAll(w.dir)
}

// gen draws, per batch, eight cuboids and two moves of each. The two moves
// of a cuboid invalidate the same results, so a batch coalesces to eight
// rematerializations.
func (w *durableBatch) gen(rng *rand.Rand, buf []op) {
	w.moves = w.moves[:0]
	for k := range buf {
		buf[k] = op{i: uint32(k)}
		for c := 0; c < batchCuboids; c++ {
			var a, b op
			genMove(rng, &a, len(w.cub))
			genMove(rng, &b, len(w.cub))
			a.v, b.i, b.v = 0, a.i, 1 // V1 and V2: both matter to volume
			w.moves = append(w.moves, a, b)
		}
	}
}

func (w *durableBatch) do(o *op, rec *recorder) bool {
	moves := w.moves[int(o.i)*batchMoves:][:batchMoves]
	ok := true
	id := rec.begin(spBatch)
	err := w.db.Batch(func(tx *gomdb.Tx) error {
		for k := range moves {
			if !w.move(&moves[k], tx, rec, spTxGetAttr, spTxSet) {
				ok = false
			}
		}
		return nil
	})
	rec.end(id)
	if err != nil {
		return false
	}
	// The batch is acknowledged; read the eight weights back.
	for k := 0; k < batchMoves; k += 2 {
		id := rec.begin(spCall)
		v, err := w.db.Call("Cuboid.weight", gomdb.Ref(w.cub[moves[k].i]))
		rec.end(id)
		if err != nil || !closeTo(v.F, w.weight(moves[k].i)) {
			ok = false
		}
	}
	return ok
}

// layers adds what the batch spans and the store's files say: how a batch's
// time divides between the updates it makes (tx children) and what the end
// of the batch does by itself (flush, checkpoint, fsyncs), and the cost of a
// checkpoint with nothing or one page to write.
func (w *durableBatch) layers(m metrics, spans []span) error {
	self := selfTimes(spans)
	var batches, batchSelf, tx, readback float64
	for i, s := range spans {
		switch s.name {
		case spBatch:
			batches++
			batchSelf += float64(self[i])
		case spTxGetAttr, spTxSet:
			tx += float64(s.end - s.start)
		case spCall:
			readback += float64(s.end - s.start)
		}
	}
	if batches > 0 {
		m["gomdb.batch_tx_ms"] = tx / batches / 1e6
		m["gomdb.batch_self_ms"] = batchSelf / batches / 1e6
		m["gomdb.readback_us"] = readback / (batches * batchCuboids) / 1e3
	}
	var fe firstErr
	m["gomdb.checkpoint_idle_ms"] = probe(5, func(int) { fe.keep(w.db.Checkpoint()) }) / 1e6
	if fe.err != nil {
		return fe.err
	}
	var size int64
	files, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		if info, err := f.Info(); err == nil {
			size += info.Size()
		}
	}
	m["storage.disk_file_mb"] = float64(size) / (1 << 20)

	// A bare page store: one page per checkpoint, no engine above it.
	scratch, err := os.MkdirTemp(filepath.Dir(w.dir), "ps-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	ps, _, err := storage.OpenPageStore(scratch)
	if err != nil {
		return err
	}
	defer ps.Close()
	read := func(_ storage.PageID, dst *[storage.PageSize]byte) error { dst[0]++; return nil }
	m["storage.checkpoint_1page_ms"] = probe(8, func(int) {
		fe.keep(ps.Checkpoint([]storage.PageID{1}, read, []byte("{}")))
	}) / 1e6
	return fe.err
}

// check crashes the database — the store is abandoned without a flush, so
// only what the checkpoints made durable survives — reopens it, and requires
// every coordinate as the last acknowledged batch left it and a consistent,
// complete GMR.
func (w *durableBatch) check(m metrics) error {
	want := w.pos
	w.db.Crash()
	t := now()
	db, err := gomdb.OpenAt(w.config())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	m["gomdb.reopen_ms"] = float64(now()-t) / 1e6
	w.db = db
	if db.Recovery == nil || !db.Recovery.Recovered {
		return errors.New("reopen did not recover a checkpoint")
	}
	fmt.Fprintf(os.Stderr, "durable-batch: recovery %+v\n", *db.Recovery)
	if err := w.readBack(); err != nil {
		return err
	}
	for i := range want {
		if want[i] != w.pos[i] {
			return fmt.Errorf("cuboid %d: recovered %v, last acknowledged %v", i, w.pos[i], want[i])
		}
	}
	return w.checkGMRs("Gvw")
}
