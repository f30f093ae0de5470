package spec

import (
	"testing"
)

// FuzzRandRegScenario drives the randreg family's typed parameter surface
// through the scenario parser: undeclared parameters, ill-typed values,
// out-of-range sizes, and unknown enum words must all be rejected with an
// error (never a panic), while every accepted scenario must resolve to
// in-range typed values and — at fuzz-friendly sizes — actually build a
// scheme. FuzzScenario covers the parser generically; this target keeps a
// corpus focused on the randreg parameter grammar.
func FuzzRandRegScenario(f *testing.F) {
	f.Add("scheme randreg\n")
	f.Add("scheme randreg\nparam degree=3 mode=latin n=40 seed=7\n")
	f.Add("scheme randreg\nparam mode=pull n=12\n")
	f.Add("scheme randreg\nparam mode=push seed=-1\n")
	f.Add("scheme randreg\nparam degree=2 n=5\ncheck\n")
	f.Add("scheme randreg\nmode live\n")
	f.Add("scheme randreg\nmode prebuffered\n")             // conflicts with forced live
	f.Add("scheme randreg\nparam mode=chaotic\n")           // unknown enum word
	f.Add("scheme randreg\nparam degree=three\n")           // ill-typed int
	f.Add("scheme randreg\nparam fanout=3\n")               // undeclared parameter
	f.Add("scheme randreg\nparam degree=0\n")               // below the declared Min
	f.Add("scheme randreg\nparam n=2\n")                    // below the declared Min
	f.Add("scheme randreg\nparam n=99999999999999999999\n") // overflows int
	f.Add("scheme randreg\nparam seed=0x10\n")              // not a decimal int64
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if sc.Scheme != "randreg" {
			return // keep the corpus focused on the randreg grammar
		}
		if err := sc.Validate(); err != nil {
			return // undeclared/ill-typed/out-of-range params land here
		}
		fam := Lookup("randreg")
		vals, err := fam.resolve(sc.Params)
		if err != nil {
			t.Fatalf("Validate accepted params resolve rejects: %v\ninput: %q", err, src)
		}
		n, degree := vals.Int("n"), vals.Int("degree")
		if n < 4 || degree < 2 {
			t.Fatalf("resolved out-of-range values n=%d degree=%d\ninput: %q", n, degree, src)
		}
		switch vals.Str("mode") {
		case "latin", "pull", "push":
		default:
			t.Fatalf("resolved unknown mode %q\ninput: %q", vals.Str("mode"), src)
		}
		// At fuzz-friendly sizes an accepted scenario must construct; n may
		// still be smaller than the degree, which the builder must reject
		// with an error rather than a panic.
		if n <= 64 && degree <= 8 {
			if _, err := Build(sc); err != nil && n >= degree {
				t.Fatalf("accepted scenario fails to build: %v\ninput: %q", err, src)
			}
		}
	})
}
