GO ?= go

.PHONY: build test vet lint race alloc fuzz-smoke bench bench-vet docs-check loc profile conformance

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

# The allocation budgets (per packet, per block, per pipeline, per file,
# per control-plane message and RPC round trip): the ones that count
# pooled buffers skip themselves under -race, where sync.Pool drops puts
# at random, so `make race` alone never runs them.
alloc:
	$(GO) test -count=1 -run 'Alloc' ./internal/...

# Five seconds of native fuzzing on each decoder that reads bytes off a
# socket, a checkpoint file or a replica's .meta (the seed corpora alone
# already run as part of `go test`). One
# pkg:Target pair per run: `go test -fuzz` accepts a single match in a
# single package.
FUZZ_TARGETS = internal/proto:FuzzReadHeader internal/proto:FuzzReadPacket \
	internal/proto:FuzzReadAck internal/rpc:FuzzReadFrame \
	internal/nnapi:FuzzParse internal/namenode:FuzzLoadImage \
	internal/storage:FuzzDiskStoreMeta
fuzz-smoke:
	for pt in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${pt#*:}$$" -fuzztime 5s ./$${pt%%:*} || exit 1; \
	done

# The repo's benchmark (BENCHMARK.json): six workloads, end-to-end
# metrics and the per-layer ledger. See bench/README.md for -trace and
# -compare.
bench:
	bash bench/run.sh

# The benchmark is a nested module (bench/go.mod), so ./... above never
# compiles it: vet and test it from inside, so an API it pins cannot
# break unnoticed.
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Fail if any package under internal/ or cmd/ lacks a package comment
# (the godoc surface ARCHITECTURE.md builds on), if a fully documented
# package exports an undocumented name, or if README, ARCHITECTURE,
# EXPERIMENTS or DESIGN names a package, command or Go file that is gone.
docs-check:
	$(GO) test -run 'TestPackageDocs|TestExportedDocs|TestDocPathsExist' -count=1 .

# The two size figures ROADMAP and CHANGES quote for every simplicity PR
# (TestLOC in loc_test.go): non-test Go lines under internal/ + cmd/, and
# exported identifiers per package.
loc:
	@$(GO) test -run '^TestLOC$$' -count=1 -v . | grep -v '^=== RUN\|^--- PASS\|^PASS\|^ok'

# CPU and allocation profiles of a live in-memory-cluster upload under
# both protocols (BenchmarkLiveWrite in internal/cluster), as pprof files
# (CI uploads these as artifacts; inspect with
# `go tool pprof -top profile_cpu.pb.gz`).
profile:
	$(GO) test -run '^$$' -bench LiveWrite -benchtime 20x -cpuprofile profile_cpu.pb.gz -memprofile profile_mem.pb.gz ./internal/cluster

# Differential live/sim conformance: replay the seeded scenarios through
# both substrates and byte-compare the writesched decision logs.
conformance:
	$(GO) test ./internal/conformance/ -count=1 -race -v -run 'TestConformance|TestScenarioLogs'
