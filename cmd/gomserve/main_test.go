package main

import (
	"slices"
	"testing"

	"gomdb"
)

// TestBuildBackendShardCounts seeds each shardable fixture on one engine and
// on a two-shard router: the root extension must hold n objects either way,
// and a forward call on the same root object must answer the same.
func TestBuildBackendShardCounts(t *testing.T) {
	const n, seed = 8, 42
	for _, tc := range []struct{ db, root, fn string }{
		{"geometry", "Cuboid", "Cuboid.volume"},
		{"ocb", "C0", "C0.tot2"},
	} {
		var want gomdb.Value
		for _, shards := range []int{1, 2} {
			be, err := buildBackend(shards, tc.db, n, seed, 0)
			if err != nil {
				t.Fatalf("-db %s -shards %d: %v", tc.db, shards, err)
			}
			if got := be.Shards(); got != shards {
				t.Fatalf("-db %s -shards %d: backend has %d shards", tc.db, shards, got)
			}
			ext := be.Extension(tc.root)
			if len(ext) != n {
				t.Fatalf("-db %s -shards %d: %s has %d members, want %d", tc.db, shards, tc.root, len(ext), n)
			}
			v, err := be.Call(tc.fn, gomdb.Ref(slices.Min(ext)))
			if err != nil {
				t.Fatalf("-db %s -shards %d: %s: %v", tc.db, shards, tc.fn, err)
			}
			if shards == 1 {
				want = v
			} else if v.Kind != want.Kind || v.F != want.F {
				t.Fatalf("-db %s: %s = %v at -shards 2, %v at -shards 1", tc.db, tc.fn, v, want)
			}
		}
	}
}

func TestBuildBackendRefusesShardedCompany(t *testing.T) {
	_, err := buildBackend(2, "company", 8, 42, 0)
	const want = `-db "company" is not available with -shards > 1 (use geometry, ocb, or none)`
	if err == nil || err.Error() != want {
		t.Fatalf("-db company -shards 2: got %v, want %q", err, want)
	}
}
