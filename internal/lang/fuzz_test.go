package lang_test

import (
	"testing"

	"gomdb/internal/lang"
)

// FuzzParseDefine throws arbitrary source text at the GOMpl define parser:
// it must return a function or an error, never panic or hang. The seed
// corpus in testdata/fuzz/FuzzParseDefine holds bodies the other tests
// define; run the campaign with `make fuzz-parse`.
func FuzzParseDefine(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		pf, err := lang.ParseDefine(src)
		if err == nil && pf == nil {
			t.Fatalf("ParseDefine(%q) returned neither a function nor an error", src)
		}
	})
}
