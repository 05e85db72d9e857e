package shard

import "gomdb"

// Placement is where a fixture puts the objects it creates: a graph goes to
// the shard its key hashes to (ShardFor) and is created there object by
// object (NewOn), while shared reference data is replicated to every shard
// (NewReplicated). *DB is the router's Placement; Single gives a plain
// engine one. Populating through it gives the same creation order — hence
// the same OIDs and record bytes — at every shard count.
type Placement interface {
	ShardFor(key uint64) int
	NewOn(sh int, typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
	NewReplicated(typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
}

// Single adapts one engine — a *gomdb.Database, or the *gomdb.Tx of its open
// batch — to Placement and to the router's point-op surface (Owner
// included): there is one shard, 0, and every create lands on it, so NewOn
// and NewReplicated are plain creates.
func Single(h handle) single { return single{h} }

type single struct{ handle }

func (single) ShardFor(uint64) int { return 0 }

func (s single) NewOn(_ int, typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	return s.New(typeName, attrs...)
}

func (s single) NewReplicated(typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	return s.New(typeName, attrs...)
}

// Owner reports shard 0 for any live object.
func (s single) Owner(oid gomdb.OID) (int, bool) { return 0, s.Exists(oid) }
