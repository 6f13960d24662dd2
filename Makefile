GO ?= go

.PHONY: test race bench-micro bench-serve bench-cmp

test:
	$(GO) build ./...
	$(GO) test ./...

# The package list of the CI race step (.github/workflows/ci.yml).
race:
	$(GO) test -race ./internal/deferment ./internal/engine ./internal/wal ./internal/durable ./internal/overload ./internal/server ./internal/shard ./internal/replica ./internal/arbiter ./internal/chaos ./internal/bench ./internal/client

# Microbenchmarks with allocation counts: the wire codec, the WAL
# append/flush path (per record and per bundle), the engine phase loop
# (plain, TsDEFER, and with a no-fsync WAL attached), and the
# conflict graph at the served bundle shapes (every row, and only the
# rows of Strife's residual), and overlapping cross-shard commits
# through the 2PC coordinator's hold (commits/s, vote-no per commit).
bench-micro:
	$(GO) test -run xxx -bench 'BenchmarkWire' -benchmem ./internal/client/
	$(GO) test -run xxx -bench 'BenchmarkWALFlush' -benchmem ./internal/wal/
	$(GO) test -run xxx -bench 'BenchmarkPhaseLoop' -benchmem ./internal/engine/
	$(GO) test -run xxx -bench 'BenchmarkConflictBuild' -benchmem ./internal/conflict/
	$(GO) test -run xxx -bench 'BenchmarkCrossShardHotKey' -benchmem ./internal/shard/

# End-to-end serve-path baseline: boots an in-process server, drives it
# over TCP, and rewrites BENCH_serve.json (the old "current" becomes
# "previous"). Pinned seed, 3 serve reps (for cmp's CI rule), and the
# distributed 1-vs-4-agent phase; see cmd/tskd-perf.
bench-serve:
	$(GO) run ./cmd/tskd-perf -seed 1 -reps 3 -agents 4 -out BENCH_serve.json -prev BENCH_serve.json

# Local version of the CI regression gate: rerun the gated phases and
# cmp against the committed baseline (exit 1 = significant regression).
bench-cmp:
	$(GO) run ./cmd/tskd-perf -seed 1 -reps 3 -overload 0 -shards 0 -agents 0 -replica-clients 0 -out /tmp/tskd-bench-new.json
	$(GO) run ./cmd/tskd-perf cmp BENCH_serve.json /tmp/tskd-bench-new.json
