# Developer entry points. `make check` is the full pre-merge gate: vet,
# gofmt drift, race-enabled tests (including the parallel/sequential
# equivalence tests and the paper-table golden, TestExperimentsGolden),
# the sharded-cluster and cluster-observability lanes, the firehose
# lane, and a short smoke run of the performance benchmarks plus a
# vet-and-test of the separate benchmark/ module.
# `make test-short` skips the slow binary-driving tests via -short.

GO ?= go

# Benchmarks of the compiled lookup table, batch lookup kernel, snapshot
# loader, parallel clustering engine and CLF fast path; bench-json
# freezes their numbers into BENCH_clustering.json.
PERF_BENCH = LongestPrefixMatch|LookupBatch|SnapshotLoad|TableCompile|ClusterLog|ClusterStreamParallel|CLFParseStream|WriteCLF|Churn|RouterFanout|RouterSingleShard|DeltaBroadcast|TraceHeader|SketchUpdate|BoundedStream

# Every fuzz target in the tree, as pkg-dir:FuzzName pairs. fuzz-smoke
# runs each for FUZZTIME so corpus-breaking regressions (and fresh
# crashes near the seeds) surface in CI without a long campaign.
FUZZ_TARGETS = \
	internal/weblog:FuzzReadCLF \
	internal/weblog:FuzzStreamCLF \
	internal/weblog:FuzzParseCLFLineFast \
	internal/weblog:FuzzParseCLFTime \
	internal/bgp:FuzzParsePrefixEntry \
	internal/bgp:FuzzReadSnapshot \
	internal/bgp:FuzzReadTable \
	internal/sketch:FuzzSketchMerge \
	internal/shard:FuzzDecodeBatchFrame \
	internal/shard:FuzzServeStream \
	internal/shard:FuzzParseAddrList \
	internal/shard:FuzzDecodeDelta \
	internal/radix:FuzzDynamicOps \
	internal/netutil:FuzzParseAddrBytes \
	internal/cluster:FuzzClusterStreamWorkers \
	internal/cluster:FuzzURLSet \
	internal/obsv:FuzzParseTraceHeader
FUZZTIME ?= 20s

# Advisory statement-coverage floor for the cover target.
COVER_MIN ?= 70

.PHONY: all build test test-short race vet fmt fmt-check cluster-smoke cluster-obsv-smoke firehose-smoke bench-json bench-gate bench-smoke bench-build snapshot-smoke trace-smoke fuzz-smoke cover check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast loop: skips the golden and other -short-aware slow tests.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# CI form of fmt: fails (listing the offenders) instead of rewriting.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt drift in:"; echo "$$out"; exit 1; fi

# The sharded-cluster acceptance suite: a 3-node in-process cluster
# (compiler feed + follower shards + router over real loopback HTTP)
# proven byte-equivalent to the single-node table across 100 churn
# generations, plus kill-one-node degradation and warm-start rejoin,
# all under -race. On failure the flight-recorder tail lands in
# bin/cluster-artifacts (CLUSTER_SMOKE_ARTIFACTS) for CI to upload.
cluster-smoke:
	@mkdir -p bin/cluster-artifacts
	CLUSTER_SMOKE_ARTIFACTS=$(CURDIR)/bin/cluster-artifacts \
		$(GO) test -count=1 -race -run 'TestCluster' -v ./internal/shard

# The cluster observability acceptance lane on real binaries: a compiler
# clusterd, two shard clusterds and a clusterrouter must produce (a) one
# TraceID spanning the router fan-out and every shard's server spans
# (tracecheck -merge -require-shared-trace over the three /debug/trace
# dumps), (b) a parseable federated /metrics/cluster page with per-shard
# labels and nonzero cluster quantiles, and (c) a slow shard's feed-lag
# gauge rising under churn and settling to zero once churn pauses. The
# per-process dumps, the merged trace and the federated page land in
# bin/cluster-obsv-artifacts (CLUSTER_OBSV_ARTIFACTS) for CI to upload.
cluster-obsv-smoke:
	@mkdir -p bin/cluster-obsv-artifacts
	CLUSTER_OBSV_ARTIFACTS=$(CURDIR)/bin/cluster-obsv-artifacts \
		$(GO) test -count=1 -race -run 'TestClusterObservability' -v .

# Record lookup/cluster/parse benchmark results machine-readably. The
# bench run and the JSON conversion are separate steps on an intermediate
# file so a benchmark failure stops make before BENCH_clustering.json is
# touched (benchjson additionally writes atomically). Rows are recorded
# under GOMAXPROCS=1, which is what keeps the -N suffix off their names:
# bench-gate runs the same way, so on any machine its rows and the
# recording's share names.
BENCH_ENV = GOMAXPROCS=1
bench-json:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(BENCH_ENV) $(GO) test -run '^$$' -bench '$(PERF_BENCH)' -benchmem . > bin/bench.out
	./bin/benchjson -out BENCH_clustering.json < bin/bench.out

# Compare a fresh benchmark run against the committed recording and fail
# on >25% ns/op or allocs/op regression in the gated rows (benchdiff's
# -gate: compiled lookup, CLF fast path, churn delta apply, the
# clustering pass and the other hot paths). The fresh recording is left in bin/ for CI to
# archive as an artifact.
bench-gate:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	$(BENCH_ENV) $(GO) test -run '^$$' -bench '$(PERF_BENCH)' -benchmem . > bin/bench-gate.out
	./bin/benchjson -out bin/BENCH_fresh.json < bin/bench-gate.out
	@./bin/benchdiff -old BENCH_clustering.json -new bin/BENCH_fresh.json > bin/bench-diff.txt; \
		st=$$?; cat bin/bench-diff.txt; exit $$st

# One-iteration-class smoke of the same benchmarks: catches bit-rot in
# bench code without paying for stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(PERF_BENCH)' -benchtime 10x . > /dev/null

# benchmark/ is its own module (replace'd onto this one) and outside
# `go test ./...`, so a change here that breaks its imports or its oracle
# would first show as a failed benchmark run. Vet it and run its unit
# tests against the working tree instead; nothing is measured.
bench-build:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# The firehose acceptance lane: the sketch property tests and the
# differential soak (bounded accumulator vs exact counts over the four
# paper profiles plus an adversarial Zipf stream) under -race, then the
# RSS-ceiling run — a FIREHOSE_REQUESTS-address replay through the
# bounded path that must stay under a hard heap ceiling while its top-K
# exactly matches an unbounded second pass. On failure the RSS trace
# and the flight-recorder tail land in bin/firehose-artifacts
# (FIREHOSE_ARTIFACTS) for CI to upload. The default 100M-address
# ceiling run takes ~2 minutes; set FIREHOSE_REQUESTS smaller for a
# quick local pass.
FIREHOSE_REQUESTS ?= 100000000
firehose-smoke:
	@mkdir -p bin/firehose-artifacts
	FIREHOSE_ARTIFACTS=$(CURDIR)/bin/firehose-artifacts \
		$(GO) test -count=1 -race -v ./internal/sketch
	FIREHOSE_ARTIFACTS=$(CURDIR)/bin/firehose-artifacts \
		$(GO) test -count=1 -race -run 'TestBounded|TestClusterStreamBounded|TestFirehoseDifferential' -v ./internal/cluster
	FIREHOSE_ARTIFACTS=$(CURDIR)/bin/firehose-artifacts FIREHOSE_REQUESTS=$(FIREHOSE_REQUESTS) \
		$(GO) test -count=1 -timeout 20m -run 'TestFirehoseRSSCeiling' -v ./internal/cluster

# Short differential-fuzz pass over every target. Each run still replays
# the checked-in corpus first, so this also acts as a regression gate for
# past crashers (e.g. the weblog empty-timestamp seed).
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "== fuzz $$pkg $$fn ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) ./$$pkg; \
	done

# Aggregate statement coverage with an advisory floor: the total is
# written to bin/cover-summary.txt for CI to archive, and a shortfall
# warns rather than fails (coverage gates invite test gaming; the trend
# artifact is the useful signal).
cover:
	@mkdir -p bin
	$(GO) test -short -coverprofile bin/cover.out -covermode atomic ./...
	@$(GO) tool cover -func bin/cover.out | tee bin/cover-func.txt | tail -1
	@total=$$($(GO) tool cover -func bin/cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "total statement coverage: $$total% (advisory floor $(COVER_MIN)%)" > bin/cover-summary.txt; \
	cat bin/cover-summary.txt; \
	if [ "$$(printf '%s\n' "$$total" "$(COVER_MIN)" | sort -g | head -1)" != "$(COVER_MIN)" ]; then \
		echo "WARNING: coverage $$total% below advisory floor $(COVER_MIN)%"; fi

# End-to-end table-snapshot smoke: generate the standard dump collection,
# compile it into an on-disk snapshot with tabletool, checksum-verify the
# file, and prove it byte-identical to a fresh compile of the same dumps
# (the strongest load/save equivalence there is). Artifacts stay in
# bin/snapshot-smoke for CI to archive on failure.
snapshot-smoke:
	@mkdir -p bin/snapshot-smoke
	$(GO) build -o bin/bgpgen ./cmd/bgpgen
	$(GO) build -o bin/tabletool ./cmd/tabletool
	./bin/bgpgen -all -dir bin/snapshot-smoke -seed 1 -scale 0.02
	./bin/tabletool compile -o bin/snapshot-smoke/table.nct bin/snapshot-smoke/*.txt
	./bin/tabletool verify bin/snapshot-smoke/table.nct bin/snapshot-smoke/*.txt

# End-to-end tracing smoke: run the perf experiment with the flight
# recorder draining to a Chrome trace file, then validate the schema and
# nesting invariants with the standalone checker. Catches trace-format
# drift that unit tests on synthetic spans would miss.
trace-smoke:
	$(GO) build -o bin/experiments ./cmd/experiments
	$(GO) build -o bin/tracecheck ./cmd/tracecheck
	./bin/experiments -scale 0.02 -trace-out bin/trace.json perf
	./bin/tracecheck bin/trace.json

check: vet fmt-check race cluster-smoke cluster-obsv-smoke firehose-smoke bench-smoke bench-build

clean:
	$(GO) clean ./...
	rm -rf bin
