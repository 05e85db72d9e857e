# gomdb — Function Materialization in Object Bases (SIGMOD 1991 reproduction)

GO ?= go

.PHONY: all build vet test test-short test-race ci bench bench-throughput bench-updates bench-cluster bench-shard bench-serve bench-ocb bench-check check-determinism trace-dump repro repro-short examples serve fuzz-wire fuzz-object fuzz-pred fuzz-parse fuzz-storage sim sim-crash sim-long sim-shard sim-ocb cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The concurrency tests (concurrency_test.go) only bite under the race
# detector; CI runs this on every push.
test-race:
	$(GO) test -race ./...

# The whole CI gate, in the order .github/workflows/ci.yml declares it (the
# workflow only checks out, sets up Go, runs this target and uploads
# artifacts), so a local `make ci` and the workflow run the same text.
# Smoke outputs and sim reproducers go under OUT.
OUT ?= /tmp
ci:
	mkdir -p $(OUT)
	test -z "$$(gofmt -l .)"
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) bench-check
	$(GO) test -bench=. -benchtime=1x -short ./...
	$(MAKE) bench-cluster SHORT=-short
	$(MAKE) bench-shard SHORT=-short
	$(GO) test -race -run 'TestConformanceMatrix' ./internal/server/
	$(GO) test -race -run 'TestOCB|TestGen|TestShardCountParity|TestDegenerateParams|TestHotSkew|TestValidate' ./internal/ocb/ ./internal/sim/ ./internal/server/
	$(MAKE) bench-ocb SHORT=-short
	$(GO) run -race ./cmd/gomsim -ocb -seeds 5 -ops 100 -out $(OUT)/sim-artifacts
	$(MAKE) bench-serve SHORT=-short
	$(MAKE) fuzz-wire FUZZ_TIME=15s
	$(MAKE) fuzz-object FUZZ_TIME=15s
	$(MAKE) fuzz-pred FUZZ_TIME=15s
	$(MAKE) fuzz-parse FUZZ_TIME=15s
	$(MAKE) fuzz-storage FUZZ_TIME=15s
	$(GO) test -race -count=10 -run TestRecycledFramesSnapshotStress ./internal/storage/
	$(GO) test -race -count=10 -run TestTouchRecycledFramesStress ./internal/storage/
	$(GO) test -race -count=10 -run TestExtensionSnapshotStress .
	$(GO) test -race -count=10 -run TestSnapshotReadersRaceWriters .
	$(GO) test -race -count=10 -run TestComputedCallsRaceWriter .
	$(GO) test -race -count=10 -run TestIDTablesRaceDDL .
	$(GO) test -race -count=10 -run TestEntryCapturesRecycledRaceWriter .
	$(GO) test -race -count=10 -run TestRouterPointOpsRaceBatches ./internal/shard/
	$(MAKE) check-determinism
	$(GO) run -race ./cmd/gomsim -seeds 17 -ops 100 -out $(OUT)/sim-artifacts
	$(GO) run -race ./cmd/gomsim -durable -crashes -seeds 25 -ops 100 -out $(OUT)/recovery-artifacts
	$(GO) run -race ./cmd/gomsim -shards 2 -seeds 8 -ops 100 -out $(OUT)/sim-artifacts
	$(GO) run -race ./cmd/gomsim -ocb -shards 2 -seeds 5 -ops 100 -out $(OUT)/sim-artifacts
	$(MAKE) cover

# One testing.B benchmark per table/figure plus micro-benchmarks, at reduced
# scale; the full-scale reproduction is `make repro`.
bench:
	$(GO) test -bench=. -benchmem

# Wall-clock read-path scalability: the parallel testing.B sweep plus the
# gombench throughput suite (writes BENCH_throughput.json).
bench-throughput:
	$(GO) test -run '^$$' -bench 'Parallel' -cpu 1,2,4,8 -benchtime=200ms .
	$(GO) run ./cmd/gombench -figure throughput

# Burst-update cost: immediate vs lazy vs deferred (writes
# BENCH_updates.json).
bench-updates:
	$(GO) run ./cmd/gombench -figure updates

# Trace-driven clustering: PhysReads and buffer miss rate on three
# deliberately-scattered bases, before and after db.Recluster() relocates
# objects along the forward-trace affinity order (writes BENCH_cluster.json;
# full scale is the committed report, `make bench-cluster SHORT=-short` for a
# quick smoke that leaves the committed JSON alone).
SHORT ?=
bench-cluster:
ifeq ($(SHORT),)
	$(GO) run ./cmd/gombench -figure cluster
else
	$(GO) run ./cmd/gombench -figure cluster $(SHORT) -out $(OUT)/BENCH_cluster_short.json
endif

# Horizontal sharding: wall-clock router throughput (forward/backward/
# tabular/mixed reads plus vertex-move updates) at 1, 2, 4, and 8 shards
# (writes BENCH_shard.json; `make bench-shard SHORT=-short` for a quick smoke
# that leaves the committed JSON alone).
bench-shard:
ifeq ($(SHORT),)
	$(GO) run ./cmd/gombench -figure shard
else
	$(GO) run ./cmd/gombench -figure shard $(SHORT) -out $(OUT)/BENCH_shard_short.json
endif

# Network service: wall-clock ops/sec through a real TCP client/server pair
# at 1..16 concurrent clients (writes BENCH_serve.json; `make bench-serve
# SHORT=-short` for a quick smoke that leaves the committed JSON alone).
bench-serve:
ifeq ($(SHORT),)
	$(GO) run ./cmd/gombench -figure serve
else
	$(GO) run ./cmd/gombench -figure serve $(SHORT) -out $(OUT)/BENCH_serve_short.json
endif

# OCB-style synthetic workload grid: generated object bases (class count,
# fan-out, derived-function depth, skew) measured under immediate/lazy/
# deferred with clustering off/on — all simulated charges, byte-identical
# run to run (writes BENCH_ocb.json; `make bench-ocb SHORT=-short` for a
# quick smoke that leaves the committed JSON alone).
bench-ocb:
ifeq ($(SHORT),)
	$(GO) run ./cmd/gombench -figure ocb
else
	$(GO) run ./cmd/gombench -figure ocb $(SHORT) -out $(OUT)/BENCH_ocb_short.json
endif

# benchmark/ is a module of its own (it imports gomdb/internal/...), so the
# root module's build and tests do not see it: vet it and run its tests here,
# so an internal/ API change that breaks the benchmark fails CI instead of the
# next benchmark run.
bench-check:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark ./...

# The simulated figures must not depend on scheduling or core count:
# regenerate the short-scale suite and compare it (modulo wall-time
# lines) against the committed golden, then regenerate the full-scale
# updates figure and compare it (modulo the three host lines) against the
# committed BENCH_updates.json, which pins the deferred statistics.
BENCH_HOST_LINES = '"(go_version|num_cpu|gomaxprocs)":'
check-determinism:
	$(GO) run ./cmd/gombench -figure all -short | grep -v "wall time" | \
		diff testdata/gombench_all_short.golden - && echo "figures deterministic"
	$(GO) run ./cmd/gombench -figure updates -out $(OUT)/BENCH_updates_check.json
	grep -vE $(BENCH_HOST_LINES) BENCH_updates.json > $(OUT)/BENCH_updates_want.json
	grep -vE $(BENCH_HOST_LINES) $(OUT)/BENCH_updates_check.json | \
		diff $(OUT)/BENCH_updates_want.json - && echo "BENCH_updates.json reproduced"

# Line-level simulation dump: every sim cell over 12 seeds, Broken included,
# written to $(OUT)/traces.dump. Run it in two trees and diff the files to
# see which cells a change moves.
trace-dump:
	$(GO) test -count=1 -run TestTraceDump ./internal/sim/ -args -dump $(OUT)/traces.dump

# Regenerate every table and figure of the paper's evaluation (Section 7)
# at the paper's scale. Takes ~8 minutes; output shapes are documented in
# EXPERIMENTS.md.
repro:
	$(GO) run ./cmd/gombench -figure all

repro-short:
	$(GO) run ./cmd/gombench -figure all -short

# Serve the geometry sample database over TCP (gomdb/client speaks to it;
# ADDR/SERVE_FLAGS override the defaults, e.g.
# `make serve SERVE_FLAGS="-shards 4 -max-conns 64"`).
ADDR ?= :7227
SERVE_FLAGS ?=
serve:
	$(GO) run ./cmd/gomserve -addr $(ADDR) $(SERVE_FLAGS)

# Fuzz the wire-protocol decoders: malformed frames and request payloads
# must produce structured wire errors, never a panic or a hang. Each target
# runs for FUZZ_TIME (CI smoke uses 15s; leave it running longer locally).
FUZZ_TIME ?= 15s
fuzz-wire:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZ_TIME)

# Fuzz the object-record decoders (full decode and the field reader) and the
# OID-directory decoders (snapshot and delta replay) from the committed
# corpora in internal/object/testdata/fuzz: arbitrary bytes must never panic,
# the two record readers must agree on every attribute, and an accepted
# directory must list only members it has entries for.
fuzz-object:
	$(GO) test ./internal/object/ -run '^$$' -fuzz FuzzObjectRecord -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/object/ -run '^$$' -fuzz FuzzRestoreDirectory -fuzztime $(FUZZ_TIME)

# Fuzz the GMR applicability test from the committed corpus in
# internal/pred/testdata/fuzz: Covers must agree with the exact brute-force
# grid oracle on every decoded restriction/query pair.
fuzz-pred:
	$(GO) test ./internal/pred/ -run '^$$' -fuzz FuzzCovers -fuzztime $(FUZZ_TIME)

# Fuzz the two source parsers, GOMql (query.Parse) and GOMpl
# (lang.ParseDefine), from the committed corpora under each package's
# testdata/fuzz: arbitrary text must parse or fail with an error, never panic.
# The two evaluators are fuzzed against their tree-walking oracles: a lowered
# GOMql statement against the old query interpreter, a compiled GOMpl body
# against the old tree-walker.
fuzz-parse:
	$(GO) test ./internal/query/ -run '^$$' -fuzz FuzzParseQuery -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/query/ -run '^$$' -fuzz FuzzQueryMatchesOracle -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/lang/ -run '^$$' -fuzz FuzzParseDefine -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/lang/ -run '^$$' -fuzz FuzzEvalMatchesOracle -fuzztime $(FUZZ_TIME)

# Fuzz WAL recovery from the committed corpus in
# internal/storage/testdata/fuzz: arbitrary wal.gomdb bytes must decode or be
# refused with an error, never panic or allocate beyond a small multiple of
# the log's size, and a log with committed groups must recover them or fail
# with an error. An input that reaches recovery fsyncs several files, so
# minimizing one is capped at 50 runs instead of eating the whole smoke.
fuzz-storage:
	$(GO) test ./internal/storage/ -run '^$$' -fuzz FuzzScanWAL -fuzztime $(FUZZ_TIME) -fuzzminimizetime 50x

# Deterministic simulation smoke: a window of seeded random workloads against
# all three strategies, invariant audits at every quiescent point. Violations
# shrink to a replayable artifact under testdata/sim/.
sim:
	$(GO) run ./cmd/gomsim -seeds 10 -ops 150

# Crash-recovery campaign: durable (file-backed) runs with generated
# crash-restart points — crash mid-batch, mid-flush, mid-materialize, torn
# page writes — under the race detector. A violating run leaves its shrunk
# reproducer AND the on-disk store (data file, WAL, checkpoint metadata)
# under testdata/sim/.
sim-crash:
	$(GO) run -race ./cmd/gomsim -durable -crashes -seeds 25 -ops 150

# Sharded campaign: every plan through the 4-shard scatter-gather router with
# fault windows on single shards and crash points at divergent per-shard
# checkpoint horizons (each op's selector mod 4 picks its shard), under the
# race detector.
sim-shard:
	$(GO) run -race ./cmd/gomsim -shards 4 -faults -durable -crashes -seeds 15 -ops 150

# Generated-base campaign: every plan against an OCB-style synthetic object
# base (internal/ocb demo parameters) instead of the hand-built fixture,
# with fault windows, under the race detector — on one engine, then through
# the 4-shard router with crash points as well.
sim-ocb:
	$(GO) run -race ./cmd/gomsim -ocb -faults -seeds 10 -ops 150
	$(GO) run -race ./cmd/gomsim -ocb -shards 4 -faults -durable -crashes -seeds 10 -ops 150

# Nightly-style campaign: more seeds, longer workloads, scripted fault
# windows, and the race detector over the whole sim test suite. Rotate the
# seed window with SIM_SEED_BASE (e.g. SIM_SEED_BASE=$$(date +%Y%m%d)).
SIM_SEED_BASE ?= 1
sim-long:
	$(GO) test -race ./internal/sim/
	$(GO) run ./cmd/gomsim -seed-base $(SIM_SEED_BASE) -seeds 40 -ops 250 -faults
	$(GO) run ./cmd/gomsim -seed-base $(SIM_SEED_BASE) -seeds 20 -ops 200 -durable -crashes -faults

# Coverage over the engine and storage layers (the simulation harness drives
# most of both); writes $(OUT)/cover.out and prints the per-function summary
# tail.
cover:
	$(GO) test -coverprofile=$(OUT)/cover.out -coverpkg=./internal/core/...,./internal/storage/... ./...
	$(GO) tool cover -func=$(OUT)/cover.out | tail -20

examples:
	$(GO) run ./examples/geometry
	$(GO) run ./examples/company
	$(GO) run ./examples/tabular

clean:
	$(GO) clean ./...
