package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/measure"
)

// TestCurveDocuments checks the committed documents and what names
// them: every curves/**/*.json parses and is named after its file, the
// suite's order lists exactly the files of curves/suite, and every
// -curve path in the Makefile and the CI workflow exists. It then runs
// elastic-slo alone and requires the points it has inside the suite:
// a curve's rate grid depends on its own document only, so the pairs
// compare on equal grids without sharing one.
func TestCurveDocuments(t *testing.T) {
	var inSuite []string
	err := filepath.WalkDir("curves", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		base, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			t.Errorf("%s is not a curve document", path)
			return nil
		}
		d, err := readCurve(path)
		if err != nil {
			t.Error(err)
			return nil
		}
		if d.Name != base {
			t.Errorf("%s is named %q", path, d.Name)
		}
		if filepath.Dir(path) == filepath.Join("curves", "suite") {
			inSuite = append(inSuite, base)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	order := slices.Clone(suiteOrder)
	slices.Sort(order)
	slices.Sort(inSuite)
	if !slices.Equal(order, inSuite) {
		t.Errorf("suiteOrder sorted is %v, curves/suite holds %v", order, inSuite)
	}

	named := regexp.MustCompile(`\s-curve\s+(\S+)`)
	for _, f := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		b, err := os.ReadFile(filepath.Join("..", "..", f))
		if err != nil {
			t.Fatal(err)
		}
		ms := named.FindAllSubmatch(b, -1)
		if len(ms) == 0 {
			t.Errorf("%s names no curve document", f)
		}
		for _, m := range ms {
			if _, err := os.Stat(filepath.Join("..", "..", string(m[1]))); err != nil {
				t.Errorf("%s: %v", f, err)
			}
		}
	}

	d, err := readCurve(filepath.Join("curves", "suite", "elastic-slo.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := runCurves([]curveDoc{d}, &observability{}, out); err != nil {
		t.Fatal(err)
	}
	alone := readBench(t, out).Curves[0]
	for _, c := range readBench(t, filepath.Join("..", "..", "BENCH_fleet.json")).Curves {
		if c.Name == alone.Name && !reflect.DeepEqual(c.Points, alone.Points) {
			t.Errorf("%s alone measures other points than inside the suite", c.Name)
		}
	}
}

// readBench decodes a BENCH document.
func readBench(t *testing.T, path string) *measure.BenchFleet {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc measure.BenchFleet
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return &doc
}

// TestCurveWritesOnlyWithJSON runs a small document with no -json path
// from an empty working directory and requires that nothing appears
// there: a run writes its BENCH document only where -json says.
func TestCurveWritesOnlyWithJSON(t *testing.T) {
	d, err := readCurve(filepath.Join("curves", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	if err := runCurves([]curveDoc{d}, &observability{}, ""); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("a run without -json wrote %s", e.Name())
	}
}

// FuzzCurveParse feeds arbitrary bytes to the strict curve parser,
// seeded with every committed document. The invariants: never panic,
// and an accepted document re-encodes through encoding/json and
// re-parses to an equal value.
func FuzzCurveParse(f *testing.F) {
	for _, pattern := range []string{"curves/*.json", "curves/suite/*.json"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	for _, s := range []string{
		``,
		`{}`,
		`[]`,
		`{"schema":"smod-curve/v2","name":"x"}`,
		`{"schema":"smod-curve/v1","name":"x","fleet":{"schema":"smod-fleet-spec/v1","shards":1},"clients":1,"calls":1} {}`,
		`{"schema":"smod-curve/v1","name":"x","fleet":{"schema":"smod-fleet-spec/v1","shards":1},"clients":1,"calls":1,"rates":[1]}`,
		`{"schema":"smod-curve/v1","name":"x","fleet":{"schema":"smod-fleet-spec/v1","shards":1},"clients":1,"calls":1,"zipf_s":0.5}`,
		`{"schema":"smod-curve/v1","name":"x","fleet":{"schema":"smod-fleet-spec/v1","shards":1},"clients":1,"calls":1,"process":"bursty"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := parseCurve(data)
		if err != nil {
			return
		}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted document does not encode: %v", err)
		}
		back, err := parseCurve(b)
		if err != nil {
			t.Fatalf("re-encoded document does not parse: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(d, back) {
			t.Fatalf("round trip changed the document:\n%+v\n%+v", d, back)
		}
	})
}
