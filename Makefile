GO ?= go

.PHONY: build test vet lint race fuzz-smoke bench-vet docs-check bench-hotpath bench-check profile conformance

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's own invariants-as-code suite (DESIGN.md §13): packet/buffer
# ownership, namenode lock ranking, sim determinism, obs nil-safety.
# Also runs as a vet tool: go vet -vettool=$(go env GOPATH)/bin/smarth-vet ./...
lint:
	$(GO) run ./cmd/smarth-vet ./...

# -count=1 defeats the test cache so the race detector actually re-runs
# the full suite (a cached "ok" proves nothing about the current build).
race:
	$(GO) test -race -count=1 ./...

# Ten seconds of native fuzzing on the data-plane header decoder (the
# seed corpus alone already runs as part of `go test`).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadHeader -fuzztime 10s ./internal/proto

# The benchmark is a nested module (bench/go.mod), so ./... above never
# compiles it: vet and test it from inside, so an API it pins cannot
# break unnoticed.
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Fail if any package under internal/ or cmd/ lacks a package comment
# (the godoc surface ARCHITECTURE.md builds on).
docs-check:
	$(GO) test -run TestPackageDocs -count=1 .

# Run the hot-path benchmarks and record BENCH_hotpath.json (preserving
# the pre-change baseline entry).
bench-hotpath:
	$(GO) run ./cmd/smarth-hotpath -out BENCH_hotpath.json

# Regression-guard the hot path against the committed BENCH_hotpath.json
# (tight on allocs/op, loose on MB/s; see cmd/smarth-hotpath -check).
# A smaller upload keeps it CI-fast; the committed numbers are 64 MB, so
# only size-independent allocation gates apply at other sizes.
bench-check:
	$(GO) run ./cmd/smarth-hotpath -check

# Capture CPU and allocation profiles of the whole hot-path suite as
# pprof files (CI uploads these as artifacts; inspect with
# `go tool pprof -top profile_cpu.pb.gz`). Results go to a scratch JSON
# so the committed BENCH_hotpath.json is untouched and regressions do
# not fail the profiling job (bench-check is the gate).
profile:
	$(GO) run ./cmd/smarth-hotpath -out profile_bench.json -cpuprofile profile_cpu.pb.gz -memprofile profile_mem.pb.gz

# Differential live/sim conformance: replay the seeded scenarios through
# both substrates and byte-compare the writesched decision logs.
conformance:
	$(GO) test ./internal/conformance/ -count=1 -race -v -run 'TestConformance|TestScenarioLogs'
