package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/measure"
)

// curveSchema is the only curve document schema this command accepts.
const curveSchema = "smod-curve/v1"

// defaultUtil is the utilization grid of a document that names none:
// fractions of the probed capacity that bracket the knee.
var defaultUtil = []float64{0.2, 0.5, 0.8, 0.95, 1.1, 1.4}

// curveDoc is one load curve as a document: its name, the utilization
// grid its offered rates are drawn from, and the measure config with
// its fleet spec.
type curveDoc struct {
	Schema string    `json:"schema"`
	Name   string    `json:"name"`
	Util   []float64 `json:"util"`
	measure.LoadCurveConfig
}

// parseCurve decodes one curve document as strictly as spec.Parse
// decodes a fleet spec: unknown fields, trailing data, another schema,
// anything RunFleetLoadCurve would refuse, and an autoscaled fleet with
// no ref_shards to size its rate grid at are errors. The document comes
// back normalized: util defaulted and the config validated.
func parseCurve(b []byte) (curveDoc, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var d curveDoc
	if err := dec.Decode(&d); err != nil {
		return d, fmt.Errorf("curve: parse: %w", err)
	}
	var trailer json.RawMessage
	if err := dec.Decode(&trailer); err != io.EOF {
		return d, fmt.Errorf("curve: trailing data after document")
	}
	if d.Schema != curveSchema {
		return d, fmt.Errorf("curve: unknown schema version %q (want %q)", d.Schema, curveSchema)
	}
	if d.Name == "" {
		return d, fmt.Errorf("curve: no name")
	}
	if len(d.Util) == 0 {
		d.Util = defaultUtil
	}
	for _, u := range d.Util {
		if u <= 0 {
			return d, fmt.Errorf("curve %s: util %g must be > 0", d.Name, u)
		}
	}
	if err := d.Validate(); err != nil {
		return d, fmt.Errorf("curve %s: %w", d.Name, err)
	}
	if d.Fleet.Autoscale != nil && d.RefShards < 1 {
		return d, fmt.Errorf("curve %s: an autoscaled fleet needs ref_shards >= 1 to size its rate grid", d.Name)
	}
	return d, nil
}

// readCurve parses the curve document at path.
func readCurve(path string) (curveDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return curveDoc{}, err
	}
	d, err := parseCurve(b)
	if err != nil {
		return curveDoc{}, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

//go:embed curves/suite/*.json
var suiteFiles embed.FS

// suiteOrder is the gate suite in BENCH_fleet.json order: a baseline
// and five A/B pairs, each pair sweeping one rate grid so that its
// knees compare directly.
//
//   - uniform: 2 shards, uniform keys; the historical gate.
//   - skew-rebalance: 4 shards, Zipf(1.2) keys, cost-aware migration.
//   - mix-costaware, mix-heatonly: the fast=2,slow=2 fleet under
//     Zipf(1.2) keys, migrating by heat times shard cost or by raw heat.
//     The knee gap is the capacity cost-aware migration recovers from a
//     mixed fleet.
//   - skew-dominant, skew-replicated: 4 shards under Zipf(1.5), which
//     makes the rank-0 key about half the load, so one shard caps the
//     fleet until that key is served from up to 4 shards at once.
//     Migration alone cannot help once one key is the load.
//   - chaos-kill: skew-replicated with shard 0 killed at barrier 5 of
//     every point (warm-up is barrier 1, the epochs 2-9), which leaves
//     about half of each point on 3 of 4 shards. Its knee against
//     skew-replicated's is the capacity one dead shard costs.
//   - elastic-fixed, elastic-slo: a fixed 4-shard migrating fleet swept
//     past its knee, against the fleet autoscaled over 2..6 shards that
//     must hold p99 <= 60 us at every rate while averaging no more
//     shards. 24 keys let migration spread load over every shard the
//     autoscaler adds, and the first 5 of each point's 10 epochs are
//     the autoscaler's adaptation window, left out of the quantiles.
//   - qos-solo, qos-isolation: 2 shards and two tenant classes. The
//     aggressor is silent (boost 0) in solo and offers 6 times its share
//     in isolation, while the victim's arrivals are identical in both.
//     Weights 64:1 approximate strict priority (a DRR round serves up to
//     64 victim calls per aggressor call), and an inflight window of 1
//     keeps WFQ (weighted fair queueing) in charge of every dispatch:
//     cmd/benchdiff's isolation gate needs both to hold the victim's p99
//     within 10% of solo at the overloaded rates.
var suiteOrder = []string{
	"uniform", "skew-rebalance", "mix-costaware", "mix-heatonly",
	"skew-dominant", "skew-replicated", "chaos-kill",
	"elastic-fixed", "elastic-slo", "qos-solo", "qos-isolation",
}

// suiteDocs parses the embedded suite in suiteOrder.
func suiteDocs() ([]curveDoc, error) {
	docs := make([]curveDoc, len(suiteOrder))
	for i, name := range suiteOrder {
		b, err := suiteFiles.ReadFile("curves/suite/" + name + ".json")
		if err != nil {
			return nil, err
		}
		if docs[i], err = parseCurve(b); err != nil {
			return nil, fmt.Errorf("suite: %w", err)
		}
	}
	return docs, nil
}
