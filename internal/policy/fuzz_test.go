package policy

// Fuzz targets for the KeyNote assertion parser and compliance
// checker: arbitrary input must never panic, successful parses must be
// deterministic, and every parsed assertion must survive a compliance
// query. Run briefly in CI via `go test`; hunt with
// `go test -fuzz=FuzzParseAssertion ./internal/policy`.

import (
	"fmt"
	"reflect"
	"testing"
)

// fuzzSeeds are real assertion shapes from the tree: local policy,
// delegation, conjunction/disjunction licensees, numeric and ordered
// conditions, signatures, comments, continuations, and malformed
// variants worth keeping in the corpus.
var fuzzSeeds = []string{
	"authorizer: \"POLICY\"\nlicensees: \"bench\"\nconditions: app_domain == \"secmodule\" -> \"allow\";\n",
	"keynote-version: 2\nauthorizer: \"vendor\"\nlicensees: \"alice\" || \"bob\"\nconditions: module == \"libc\" && @now < 100 -> \"allow\";\nsignature: \"hmac:deadbeef\"\n",
	"authorizer: \"POLICY\"\nlicensees: (\"a\" && \"b\") || \"c\"\nconditions: uid == \"7\" -> \"_MAX_TRUST\";\n",
	"comment: metered quota\nauthorizer: \"owner\"\nlicensees: \"bench\"\nconditions: @calls < 5 -> \"allow\";\n",
	"authorizer: \"POLICY\"\nlicensees: \"x\"\nconditions:\n\tapp_domain == \"secmodule\"\n\t-> \"allow\";\n",
	"authorizer: \"POLICY\"\n",
	"licensees: \"nobody\"\n",
	"authorizer POLICY\nlicensees \"x\"\n",
	"unknown-field: 1\nauthorizer: \"p\"\nlicensees: \"q\"\n",
	"keynote-version: 3\nauthorizer: \"p\"\nlicensees: \"q\"\n",
	"",
	"\x00\xff",
	"authorizer: \"p\"\nlicensees: ((((\"q\"",
	"authorizer: \"p\"\nlicensees: \"q\"\nconditions: a == -> \"allow\";",
	// Unterminated strings once panicked the expression parser (found
	// by this fuzzer; see testdata/fuzz for the original crasher).
	"authorizer: \"p\"\nlicensees: \"q\"\nconditions: \"",
	"authorizer: \"p\"\nlicensees: \"unterminated",
}

func FuzzParseAssertion(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ParseAssertion(src)
		if err != nil {
			return // rejected input: only panics are bugs
		}
		// Parsed assertions satisfy the parser's documented invariants.
		if a.Authorizer == "" {
			t.Fatalf("accepted assertion without authorizer: %q", src)
		}
		if a.Licensees == nil {
			t.Fatalf("accepted assertion without licensees: %q", src)
		}
		if a.Version != 2 {
			t.Fatalf("accepted keynote-version %d: %q", a.Version, src)
		}
		if CountConditions([]*Assertion{a}) < 0 {
			t.Fatalf("negative condition count: %q", src)
		}

		// Parsing is deterministic.
		b, err := ParseAssertion(src)
		if err != nil {
			t.Fatalf("reparse of accepted input failed: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("non-deterministic parse of %q", src)
		}

		// Every accepted assertion must survive a compliance query
		// without panicking, whatever its conditions reference.
		attrs := Attributes{
			"app_domain": "secmodule",
			"module":     "libc",
			"uid":        "7",
			"now":        "1",
			"calls":      "0",
		}
		for _, requester := range []string{"bench", "alice", a.Authorizer} {
			if _, err := Query([]*Assertion{a}, requester, attrs,
				[]string{MinTrust, "allow"}); err != nil {
				// Query may reject (e.g. unresolvable values); it must
				// only not panic.
				continue
			}
		}
	})
}

// FuzzQuery drives the compliance checker with a fixed well-formed
// policy and fuzzed requester/attribute strings: resolution and
// condition evaluation must never panic and must stay deterministic,
// and a long-lived Querier, fresh from an unrelated query, must return
// exactly the Result and error Query does.
func FuzzQuery(f *testing.F) {
	f.Add("bench", "secmodule", "libc", "3")
	f.Add("", "", "", "")
	f.Add("POLICY", "x", "y", "notanumber")
	policySrc := "authorizer: \"POLICY\"\nlicensees: \"bench\" || \"alice\"\n" +
		"conditions: app_domain == \"secmodule\" && calls < 5 -> \"allow\";\n"
	a, err := ParseAssertion(policySrc)
	if err != nil {
		f.Fatal(err)
	}
	// The unrelated query delegates through a chain and a cycle, over a
	// longer value set, so it leaves the Querier's memo, value order and
	// condition count full.
	var other []*Assertion
	for _, src := range []string{
		"authorizer: \"POLICY\"\nlicensees: \"root\"\nconditions: module == \"m\" -> \"high\";\n",
		"authorizer: \"root\"\nlicensees: \"mid\" || \"bench\"\nconditions: calls < 9 -> \"low\"; true -> \"high\";\n",
		"authorizer: \"mid\"\nlicensees: \"root\"\n",
	} {
		oa, err := ParseAssertion(src)
		if err != nil {
			f.Fatal(err)
		}
		other = append(other, oa)
	}
	otherAttrs := Attributes{"module": "m", "calls": "3", "extra": "x"}
	var qr Querier
	f.Fuzz(func(t *testing.T, requester, domain, module, calls string) {
		attrs := Attributes{"app_domain": domain, "module": module, "calls": calls}
		r1, err1 := Query([]*Assertion{a}, requester, attrs, []string{MinTrust, "allow"})
		r2, err2 := Query([]*Assertion{a}, requester, attrs, []string{MinTrust, "allow"})
		if (err1 == nil) != (err2 == nil) || r1.Value != r2.Value || r1.Index != r2.Index {
			t.Fatalf("non-deterministic query: (%+v,%v) vs (%+v,%v)", r1, err1, r2, err2)
		}
		if _, err := qr.Query(other, "bench", otherAttrs, []string{MinTrust, "low", "high"}); err != nil {
			t.Fatal(err)
		}
		r3, err3 := qr.Query([]*Assertion{a}, requester, attrs, []string{MinTrust, "allow"})
		if r3 != r1 || fmt.Sprint(err3) != fmt.Sprint(err1) {
			t.Fatalf("Querier after another query: (%+v,%v), Query: (%+v,%v)", r3, err3, r1, err1)
		}
	})
}

// BenchmarkQuery times the session check a SecModule kernel makes with
// its long-lived Querier: the benchmark fleet's module policy, the
// attribute set checkPolicy builds, and no credentials.
func BenchmarkQuery(b *testing.B) {
	a, err := ParseAssertion("authorizer: \"POLICY\"\nlicensees: \"bench\"\n" +
		"conditions: app_domain == \"secmodule\" -> \"allow\";\n")
	if err != nil {
		b.Fatal(err)
	}
	assertions := []*Assertion{a}
	attrs := Attributes{
		"app_domain": "secmodule", "operation": "session", "module": "libc", "version": "1",
		"uid": "1", "client": "bench", "now": "0",
	}
	values := []string{MinTrust, "allow"}
	var qr Querier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err := qr.Query(assertions, "bench", attrs, values); err != nil || r.Value != "allow" {
			b.Fatalf("query = %+v, %v", r, err)
		}
	}
}
