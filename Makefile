# Build/verify targets for the SecModule reproduction. `make ci` is the
# gate the GitHub workflow runs: vet, build, unit tests, then the full
# race-detector pass over the concurrent fleet layer.

GO ?= go

.PHONY: all ci lint build vet test race fuzz-short bench bench-json bench-check loadcurve fleet fig8 mix chaos elastic observe trace serve qos

all: ci

ci: lint build test race

# gofmt must be clean; vet is part of the same lint gate.
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Brief coverage-guided fuzzing of the policy parser, XDR codec, SM32
# assembler, SOF deserializers, the linker, module registration, the
# fleet routing layer (scripted plans against a mixed replicating
# fleet, asserting the RunPlan determinism property), chaos drills
# (random fault schedules against the same fleet, asserting zero lost
# calls and replay determinism), and the kernel-free placement
# conformance fuzzer (random op interleavings against all four
# strategies), the fleet RPC service (arbitrary byte streams through
# rpc.ServeTCP into a real fleet, every reply byte-identical to
# Server.Dispatch's), the VM's TLB coherence (random map, fork, share and
# access sequences with and without the TLB, asserting identical
# results), and its frame reuse (the same sequences on a recycling
# allocator and on never-freed pages, asserting identical results and
# that the frames in use are exactly the frames mapped), and the SM32
# interpreter (random programs run by Exec and by the one-instruction
# reference interpreter, asserting identical state after every Exec
# return); long hunts run nightly in CI (see
# .github/workflows/fuzz-nightly.yml) or by hand:
# go test -fuzz=<target> -fuzztime=10m ./internal/<pkg>
fuzz-short:
	$(GO) test -run=NONE -fuzz=FuzzParseAssertion -fuzztime=10s ./internal/policy
	$(GO) test -run=NONE -fuzz=FuzzQuery -fuzztime=10s ./internal/policy
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=10s ./internal/xdr
	$(GO) test -run=NONE -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/xdr
	$(GO) test -run=NONE -fuzz=FuzzUint32sRoundTrip -fuzztime=10s ./internal/xdr
	$(GO) test -run=NONE -fuzz=FuzzAssemble -fuzztime=10s ./internal/asm
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalObject -fuzztime=10s ./internal/obj
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalArchive -fuzztime=10s ./internal/obj
	$(GO) test -run=NONE -fuzz=FuzzLink -fuzztime=10s ./internal/obj
	$(GO) test -run=NONE -fuzz=FuzzRegisterModule -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzSessionDispatch -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzFleetRoute -fuzztime=10s ./internal/fleet
	$(GO) test -run=NONE -fuzz=FuzzChaosRoute -fuzztime=10s ./internal/fleet
	$(GO) test -run=NONE -fuzz=FuzzFleetService -fuzztime=10s ./internal/fleet
	$(GO) test -run=NONE -fuzz=FuzzPlacementOps -fuzztime=10s ./internal/placement
	$(GO) test -run=NONE -fuzz=FuzzTraceEvents -fuzztime=10s ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzSpecParse -fuzztime=10s ./internal/spec
	$(GO) test -run=NONE -fuzz=FuzzTenantAdmission -fuzztime=10s ./internal/tenant
	$(GO) test -run=NONE -fuzz=FuzzSpaceTLB -fuzztime=10s ./internal/vm
	$(GO) test -run=NONE -fuzz=FuzzFrameReuse -fuzztime=10s ./internal/vm
	$(GO) test -run=NONE -fuzz=FuzzExec -fuzztime=10s ./internal/cpu

bench:
	$(GO) test -bench=. -benchmem .

# The open-loop latency-vs-offered-load curve (see README "Open-loop
# load curves"): prints the p50/p95/p99 table and writes
# BENCH_fleet.json next to it.
loadcurve:
	$(GO) run ./cmd/smodfleet -loadcurve

# CI bench artifact: the gate suite — eleven named curves (uniform,
# skew-rebalance, the fast=2,slow=2 mixed-fleet cost-aware/heat-only
# pair, the dominant-key replication pair, the chaos-kill availability
# drill, the elastic fixed-vs-autoscaled pair, and the multi-tenant
# qos-solo/qos-isolation pair) in one
# BENCH_fleet.json, recorded per commit by the bench job. All numbers
# are simulated-time, so they are comparable across runners. Refreshing
# the committed baseline (after an intentional perf change) is just
# `make bench-json` and committing the result.
#
# SUITE_FLAGS are the suite parameters of both bench-json and
# bench-check. TestSuiteMatchesBaseline (cmd/smodfleet/main_test.go)
# repeats them and requires BENCH_fleet.json byte for byte, so change
# both together.
SUITE_FLAGS = -suite -lcshards 2 -clients 8 -lccalls 200

bench-json:
	$(GO) run ./cmd/smodfleet $(SUITE_FLAGS) -json BENCH_fleet.json

# CI bench gate: rerun the baseline suite into BENCH_new.json and fail
# on a knee-index regression, a >15% pre-knee p95 shift in ANY of the
# named curves against the committed BENCH_fleet.json, a chaos re-warm
# past the declared budget, a chaos-kill knee below the availability
# floor of the healthy replicated knee, an elastic-invariant breach
# (resize warm-in over budget, or the autoscaled fleet failing to hold
# the p99 SLO past the fixed fleet at no more average shards), or a
# tenant-isolation breach (aggressor overload moving the victim's p99
# more than 10% off its solo baseline at the overloaded rates; see
# cmd/benchdiff). Both targets share SUITE_FLAGS, so the documents
# are comparable by construction.
bench-check:
	$(GO) run ./cmd/smodfleet $(SUITE_FLAGS) -json BENCH_new.json
	$(GO) run ./cmd/benchdiff -old BENCH_fleet.json -new BENCH_new.json

# A standalone heterogeneous-fleet sweep: Zipf-skewed keys on a
# fast=2,slow=2,crypto=1 mix with cost-aware rebalancing (see README
# "Backend profiles").
mix:
	$(GO) run ./cmd/smodfleet -loadcurve -mix fast=2,slow=2,crypto=1 -skew 1.2 -epochs 8 -rebalance -json BENCH_mix.json

# The chaos drills' end-to-end smoke: a kill-drill load curve on a
# replicated fleet (availability under shard loss). Their property
# tests run with everything else under `make race`.
chaos:
	$(GO) run ./cmd/smodfleet -loadcurve -lcshards 2 -clients 8 -lccalls 120 -skew 1.5 -epochs 6 \
		-replicas 2 -chaos kill:0@4 -json /tmp/BENCH_chaos_smoke.json

# The elastic-fleet smoke: a standalone SLO-autoscaled load curve (see
# README "Elastic fleet & autoscaler"). The autoscaler and add/drain
# lifecycle tests run under `make race`.
elastic:
	$(GO) run ./cmd/smodfleet -loadcurve -lcshards 4 -clients 24 -lccalls 200 \
		-epochs 10 -warmup 5 -rebalance -util 0.3,0.6,0.9,1.2 \
		-autoscale -slo 60 -asmin 2 -asmax 6 -json BENCH_elastic.json

# The multi-tenant QoS smoke: a tenanted aggressor-vs-victim load
# curve. The tenant and admission tests run under `make race`; the
# isolation invariant itself is gated by `make bench-check`.
qos:
	$(GO) run ./cmd/smodfleet -loadcurve -lcshards 2 -clients 8 -lccalls 120 \
		-tenants victim:64:4:1,aggressor:1:4:6 -tenantknee 64 -tenantwindow 1 \
		-util 0.5,1.1 -json /tmp/BENCH_qos_smoke.json

# The observability gate (see README "Deterministic observability"):
# the per-call emission path with no recorder attached must report
# exactly 0 allocs/op (the "free when off" invariant). The recorder,
# registry, and zero-perturbation tests run under `make race`.
observe:
	@out="$$($(GO) test -run=NONE -bench=BenchmarkEmitDisabled -benchmem ./internal/fleet)"; \
		echo "$$out"; \
		echo "$$out" | grep -Eq 'BenchmarkEmitDisabled.*[^0-9]0 allocs/op' || \
		{ echo "FAIL: disabled emission path allocates"; exit 1; }

# A flight-recorded kill-drill load curve: writes the latency table to
# stdout, the Chrome trace-event document to TRACE_fleet.json (drop it
# on https://ui.perfetto.dev or chrome://tracing), and the raw event
# log to TRACE_fleet.jsonl. Tracing moves zero simulated cycles, so the
# curve matches an untraced run bit for bit.
#
# TRACE_FLAGS are the drill's load curve. TestTraceMatchesBaseline
# (cmd/smodfleet/main_test.go) repeats them and requires both committed
# exports byte for byte, so change both together; refresh the exports
# with `make trace` only for an intended change.
TRACE_FLAGS = -loadcurve -lcshards 2 -clients 8 -lccalls 120 \
	-skew 1.5 -epochs 6 -replicas 2 -chaos kill:0@4

trace:
	$(GO) run ./cmd/smodfleet $(TRACE_FLAGS) \
		-json /tmp/BENCH_trace_drill.json \
		-trace TRACE_fleet.json -events TRACE_fleet.jsonl

# The serving smoke drill (see README "Running as a server"): build
# smodfleetd/smodfleetctl, boot the daemon on loopback from a 4-shard
# spec, run a wall-clock client burst, apply a live 4 -> 2 spec edit
# over SIGHUP, assert reconcile convergence via /reconcile, and shut
# down gracefully. The spec/reconcile/daemon tests run under
# `make race`.
serve:
	sh scripts/serve-smoke.sh

# The paper's Figure 8 table (scaled down; see cmd/smodbench -h).
fig8:
	$(GO) run ./cmd/smodbench

# The fleet throughput scaling curve (see cmd/smodfleet -h).
fleet:
	$(GO) run ./cmd/smodfleet
