package server

import (
	"gomdb"
	"gomdb/internal/shard"
	"gomdb/internal/wire"
)

// Backend is the engine surface a session dispatches into — the subset of
// the embedded API the protocol can express, spoken identically by a plain
// engine and by the sharded router. A Backend is a Tx, so one dispatch path
// serves the batchable operations at the top level and inside a batch.
// Reads (Query, GetAttr, Call, Retrieve, Backward, Extension) go down each
// backend's own concurrency path — the MVCC snapshot machinery on the plain
// engine — so a slow writer on one connection never stalls readers on the
// others. Sum is the exception: Database.Sum has no snapshot tier, so it
// waits for a writer that holds the engine.
type Backend interface {
	Tx
	Query(src string, params map[string]gomdb.Value) (*gomdb.QueryResult, error)
	Retrieve(gmrName string, spec []gomdb.FieldSpec) ([]gomdb.Row, error)
	Backward(fid string, lb, ub float64) ([]gomdb.Match, error)
	Sum(fid string, oids []gomdb.OID) (float64, error)
	Extension(typeName string) []gomdb.OID
	Dematerialize(name string) error
	Flush() error
	SimSeconds() float64

	// Shards reports the backend's partition count (1 for a plain engine);
	// it travels in the hello response so clients can log what they hit.
	Shards() int
	// MaterializeGMR creates a GMR. The embedded APIs disagree on the
	// return (the engine hands back the *GMR, the router does not), so the
	// common surface keeps only the error.
	MaterializeGMR(opts gomdb.MaterializeOptions) error
	// BeginTx opens an interactive update batch; EndTx closes it with the
	// batch verdict. Sessions hold a Tx open across request frames and are
	// responsible for closing it on disconnect — an unpaired BeginTx leaves
	// the engine's exclusive lock held forever.
	BeginTx() Tx
	EndTx(tx Tx, err error) error
}

// Tx is the interactive-batch handle: the batchable operations.
type Tx interface {
	New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
	NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error)
	Delete(oid gomdb.OID) error
	Set(oid gomdb.OID, attr string, v gomdb.Value) error
	GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error)
	Insert(set gomdb.OID, elem gomdb.Value) error
	Remove(set gomdb.OID, elem gomdb.Value) error
	Call(fn string, args ...gomdb.Value) (gomdb.Value, error)
}

// DB is the plain engine; the alias names Embedded's embedded field DB, as
// shard.DB names Sharded's.
type DB = gomdb.Database

// Embedded adapts a plain engine to the Backend surface. The engine's own
// methods serve everything but the four below.
type Embedded struct{ *DB }

func (Embedded) Shards() int { return 1 }
func (e Embedded) MaterializeGMR(opts gomdb.MaterializeOptions) error {
	_, err := e.Materialize(opts)
	return err
}
func (e Embedded) BeginTx() Tx { return e.BeginBatch() }
func (e Embedded) EndTx(tx Tx, err error) error {
	t, ok := tx.(*gomdb.Tx)
	if !ok {
		return wire.Errf(wire.CodeBatch, "foreign batch handle %T", tx)
	}
	return e.EndBatch(t, err)
}

// Sharded adapts the scatter-gather router to the Backend surface. The
// router's own methods serve everything but the three below.
type Sharded struct{ *shard.DB }

func (s Sharded) MaterializeGMR(opts gomdb.MaterializeOptions) error { return s.Materialize(opts) }
func (s Sharded) BeginTx() Tx                                        { return s.BeginBatch() }
func (s Sharded) EndTx(tx Tx, err error) error {
	t, ok := tx.(*shard.Tx)
	if !ok {
		return wire.Errf(wire.CodeBatch, "foreign batch handle %T", tx)
	}
	return s.EndBatch(t, err)
}
