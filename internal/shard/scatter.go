package shard

import (
	"fmt"
	"sort"
	"sync"

	"gomdb"
	"gomdb/internal/object"
	"gomdb/internal/query"
)

// Scatter reads fan out to every shard in parallel goroutines — each engine
// answers from its own buffer pool under its own shared lock (or an MVCC
// snapshot when a local writer holds it) — and the router merges the
// partials. Merge rules are deterministic and reduce to the identity at
// shards=1, so the single-shard configuration stays byte-identical to the
// unsharded engine:
//
//   - Backward: concatenate in shard-index order, then stable-sort by the
//     stored result value. Each shard's B+ tree already yields its partial
//     in result order, so the merge restores global key order and a single
//     shard's output passes through unchanged.
//   - Retrieve / Extension: concatenate in shard-index order (Extension
//     additionally drops duplicate OIDs, which replicated objects produce —
//     the first occurrence wins).
//   - Sum / GOMql aggregates: combine per-shard partials in shard-index
//     order (sum and count add, min and max compare; avg is refused — a
//     per-shard average cannot be reweighted).
//
// scatter runs fn against every shard concurrently and returns the partials
// indexed by shard. The first error (lowest shard index) wins.
func (db *DB) scatter(fn func(i int, sh *gomdb.Database) (any, error)) ([]any, error) {
	parts := make([]any, len(db.shards))
	errs := make([]error, len(db.shards))
	var wg sync.WaitGroup
	for i, sh := range db.shards {
		wg.Add(1)
		go func(i int, sh *gomdb.Database) {
			defer wg.Done()
			parts[i], errs[i] = fn(i, sh)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// Backward answers a backward query — every materialized argument
// combination whose stored result lies in [lb, ub] — by scattering to all
// shards and merging in result order.
func (db *DB) Backward(fid string, lb, ub float64) ([]gomdb.Match, error) {
	parts, err := db.scatter(func(_ int, sh *gomdb.Database) (any, error) {
		return sh.Backward(fid, lb, ub)
	})
	if err != nil {
		return nil, err
	}
	var out []gomdb.Match
	for _, p := range parts {
		out = append(out, p.([]gomdb.Match)...)
	}
	// Stable: ties keep shard-index order, so shards=1 is the identity.
	sort.SliceStable(out, func(i, j int) bool {
		a, _ := out[i].Result.AsFloat()
		b, _ := out[j].Result.AsFloat()
		return a < b
	})
	return out, nil
}

// Sum aggregates a materialized function: nil oids sums every materialized
// entry on every shard; explicit oids are grouped by owner and each group
// summed locally. Partials add in shard-index order.
func (db *DB) Sum(fid string, oids []gomdb.OID) (float64, error) {
	groups := make([][]gomdb.OID, len(db.shards))
	if oids == nil {
		// nil group = "all entries" per shard; replicas hold disjoint entry
		// sets for partitioned-argument GMRs, so the union is exact.
		for i := range groups {
			groups[i] = nil
		}
	} else {
		db.mu.RLock()
		for _, oid := range oids {
			own, ok := db.owner[oid]
			if !ok {
				db.mu.RUnlock()
				return 0, fmt.Errorf("%w: oid %v", ErrUnknownOID, oid)
			}
			if own == replicated {
				own = 0
			}
			groups[own] = append(groups[own], oid)
		}
		db.mu.RUnlock()
	}
	parts, err := db.scatter(func(i int, sh *gomdb.Database) (any, error) {
		if oids != nil && len(groups[i]) == 0 {
			return 0.0, nil
		}
		return sh.Sum(fid, groups[i])
	})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, p := range parts {
		total += p.(float64)
	}
	return total, nil
}

// Retrieve answers a tabular GMR query, concatenating per-shard rows in
// shard-index order.
func (db *DB) Retrieve(gmrName string, spec []gomdb.FieldSpec) ([]gomdb.Row, error) {
	parts, err := db.scatter(func(_ int, sh *gomdb.Database) (any, error) {
		return sh.Retrieve(gmrName, spec)
	})
	if err != nil {
		return nil, err
	}
	var out []gomdb.Row
	for _, p := range parts {
		out = append(out, p.([]gomdb.Row)...)
	}
	return out, nil
}

// Extension returns the OIDs of all instances of typeName across shards,
// concatenated in shard-index order with replicated duplicates dropped
// (first occurrence wins). The union is the complete sharded extension:
// every routed object lives on exactly one shard.
func (db *DB) Extension(typeName string) []gomdb.OID {
	parts, _ := db.scatter(func(_ int, sh *gomdb.Database) (any, error) {
		return sh.Extension(typeName), nil
	})
	var out []gomdb.OID
	seen := make(map[gomdb.OID]bool)
	for _, p := range parts {
		for _, oid := range p.([]gomdb.OID) {
			if !seen[oid] {
				seen[oid] = true
				out = append(out, oid)
			}
		}
	}
	return out
}

// CheckConsistency audits the named GMR on every shard in parallel and
// merges the per-shard reports (entry counts add, violations concatenate in
// shard-index order, prefixed with the shard).
func (db *DB) CheckConsistency(gmrName string, tol float64, checkComplete bool) (*gomdb.ConsistencyReport, error) {
	parts, err := db.scatter(func(_ int, sh *gomdb.Database) (any, error) {
		return sh.CheckConsistency(gmrName, tol, checkComplete)
	})
	if err != nil {
		return nil, err
	}
	merged := &gomdb.ConsistencyReport{GMR: gmrName}
	for i, p := range parts {
		r := p.(*gomdb.ConsistencyReport)
		merged.Entries += r.Entries
		merged.Valid += r.Valid
		merged.Invalid += r.Invalid
		for _, v := range r.Violations {
			merged.Violations = append(merged.Violations, fmt.Sprintf("shard %d: %s", i, v))
		}
	}
	return merged, nil
}

// Query executes a read-classified GOMql retrieve statement: the statement
// runs on every shard in parallel and the partial results merge under the
// aggregate-aware rules above. Statements the classifier cannot prove
// read-only — and the materialize statement — are refused with a typed
// error; sharded writes go through the typed API, which can route them.
func (db *DB) Query(src string, params map[string]gomdb.Value) (*gomdb.QueryResult, error) {
	q, err := db.shards[0].Queries.Prepare(src)
	if err != nil {
		return nil, err
	}
	if q.Kind == query.MaterializeStmt {
		return nil, fmt.Errorf("%w: materialize statement (use DB.Materialize)", ErrNotReadOnly)
	}
	// Classification reads schema metadata only, identical on every shard.
	if !db.shards[0].Queries.ReadOnlyPlan(q) {
		return nil, ErrNotReadOnly
	}
	for _, t := range q.Targets {
		if t.Agg == "avg" {
			return nil, ErrNotCombinable
		}
	}
	parts, err := db.scatter(func(_ int, sh *gomdb.Database) (any, error) {
		return sh.Query(src, params)
	})
	if err != nil {
		return nil, err
	}
	results := make([]*gomdb.QueryResult, len(parts))
	for i, p := range parts {
		results[i] = p.(*gomdb.QueryResult)
	}
	return mergeQueryResults(q, results)
}

// mergeQueryResults combines per-shard GOMql results: plain rows concatenate
// in shard-index order; aggregate statements (one row per shard) combine per
// target — sum and count add, min and max compare, Nulls from empty shards
// are skipped.
func mergeQueryResults(q *query.Query, results []*gomdb.QueryResult) (*gomdb.QueryResult, error) {
	merged := &gomdb.QueryResult{Columns: results[0].Columns}
	hasAgg := len(q.Targets) > 0 && q.Targets[0].Agg != ""
	if !hasAgg {
		for _, r := range results {
			merged.Rows = append(merged.Rows, r.Rows...)
		}
		return merged, nil
	}
	row := make([]gomdb.Value, len(q.Targets))
	for col, t := range q.Targets {
		acc := gomdb.Null()
		for _, r := range results {
			v := r.Rows[0][col]
			if v.IsNull() {
				continue // empty shard (min/max over nothing)
			}
			if acc.IsNull() {
				acc = v
				continue
			}
			switch t.Agg {
			case "sum":
				acc = gomdb.Float(acc.F + v.F)
			case "count":
				acc = gomdb.Int(acc.I + v.I)
			case "min":
				if v.F < acc.F {
					acc = v
				}
			case "max":
				if v.F > acc.F {
					acc = v
				}
			default:
				return nil, fmt.Errorf("%w: %s", ErrNotCombinable, t.Agg)
			}
		}
		if acc.IsNull() && t.Agg == "count" {
			acc = gomdb.Int(0)
		}
		row[col] = acc
	}
	merged.Rows = [][]object.Value{row}
	return merged, nil
}

// Snapshot returns the merged simulated-work counters: the field-wise sum of
// every shard's clock. Charges accrue per shard (each engine charges its own
// clock), and the sum is the configuration-independent total the charge-
// parity tests compare across shard counts.
func (db *DB) Snapshot() gomdb.Clock {
	var total gomdb.Clock
	for _, sh := range db.shards {
		c := sh.Snapshot()
		total.PhysReads += c.PhysReads
		total.PhysWrites += c.PhysWrites
		total.LogReads += c.LogReads
		total.LogWrites += c.LogWrites
		total.CPUOps += c.CPUOps
		total.IOCostMicros = c.IOCostMicros
		total.CPUCostMicros = c.CPUCostMicros
	}
	return total
}

// SimSeconds returns the merged simulated seconds across all shards.
func (db *DB) SimSeconds() float64 {
	total := db.Snapshot()
	return total.SimSeconds()
}
