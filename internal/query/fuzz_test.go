package query_test

import (
	"testing"

	"gomdb/internal/query"
)

// FuzzParseQuery throws arbitrary source text at the GOMql parser: it must
// return a statement or an error, never panic or hang. The seed corpus in
// testdata/fuzz/FuzzParseQuery holds statements the other tests parse; run
// the campaign with `make fuzz-parse`.
func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse(src)
		if err == nil && q == nil {
			t.Fatalf("Parse(%q) returned neither a statement nor an error", src)
		}
	})
}
