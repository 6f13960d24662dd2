GO ?= go

.PHONY: test race bench-micro

test:
	$(GO) build ./...
	$(GO) test ./...

# The package list of the CI race step (.github/workflows/ci.yml).
race:
	$(GO) test -race ./internal/cc ./internal/storage ./internal/deferment ./internal/engine ./internal/wal ./internal/durable ./internal/overload ./internal/server ./internal/shard ./internal/replica ./internal/arbiter ./internal/chaos ./internal/bench ./internal/client

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
