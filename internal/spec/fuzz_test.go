package spec

import (
	"bytes"
	"testing"
)

// FuzzSpecParse feeds arbitrary bytes to the strict parser. The
// invariants: never panic; never accept a document that fails its own
// Validate; and every accepted document is a marshal fixed point
// (Marshal -> Parse -> Marshal is byte-identical), so canonical specs
// are stable under storage round trips.
func FuzzSpecParse(f *testing.F) {
	seeds := []string{
		`{"schema":"smod-fleet-spec/v1","shards":4}`,
		`{"schema":"smod-fleet-spec/v1","mix":"fast=2,slow=2","placement":"costaware","seed":9}`,
		`{"schema":"smod-fleet-spec/v1","placement":"replicated","replicas":3,"shards":4}`,
		`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"costaware","replicas":2}`,
		`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"heat","replicas":2,"seed":3}`,
		`{"schema":"smod-fleet-spec/v1","autoscale":{"min":2,"max":6,"slo_us":60,"profile":"turbo"}}`,
		`{"schema":"smod-fleet-spec/v1","shards":2,"result_cache":512,"session_cap":64,` +
			`"rewarm_budget_cycles":250000,"max_actions_per_barrier":3}`,
		`{"schema":"smod-fleet-spec/v9","shards":4}`,
		`{"schema":"smod-fleet-spec/v1","autoscale":{"min":6,"max":2,"slo_us":60}}`,
		`{"schema":"smod-fleet-spec/v1","mix":"fast=0"}`,
		`{"shards":-1}`,
		`{}`,
		``,
		`[]`,
		`{"schema":"smod-fleet-spec/v1","shards":4,"unknown":true}`,
		"{\"schema\":\"smod-fleet-spec/v1\",\"shards\":1e9}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := Parse(data)
		if err != nil {
			return
		}
		// Accepted means valid: re-validating the returned value must
		// hold (normalization is idempotent).
		if verr := fs.Validate(); verr != nil {
			t.Fatalf("Parse accepted a spec its own Validate rejects: %v\n%s", verr, data)
		}
		b1, err := fs.Marshal()
		if err != nil {
			t.Fatalf("Marshal of accepted spec failed: %v", err)
		}
		fs2, err := Parse(b1)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, b1)
		}
		b2, err := fs2.Marshal()
		if err != nil {
			t.Fatalf("second Marshal failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("marshal not a fixed point:\n%s\nvs\n%s", b1, b2)
		}
		// The planner must tolerate any accepted spec against any of a
		// few inventory shapes without panicking.
		for _, inv := range [][]ShardState{
			nil,
			{{ID: 0, Profile: "fast"}},
			{{ID: 0, Profile: "slow"}, {ID: 1, Profile: "fast", Draining: true}, {ID: 5, Profile: "crypto"}},
		} {
			fs.Diff(nil, inv)
			fs.Diff(fs2, inv)
			fs.Converged(inv)
		}
	})
}
