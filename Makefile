GO ?= go

.PHONY: build test race vet fmt-check lint bench bench-micro \
	check fuzz-short chaos chaos-single chaos-cluster \
	bench-poison bench-test bench-smoke bench-run bench-pairs loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package replays every figure/table pipeline; under the
# race detector that exceeds go test's default 10m per-package budget.
race:
	$(GO) test -race -timeout 60m ./...

vet:
	$(GO) vet ./...

# Every tracked Go file is gofmt-clean (.bench_build/ is bench/run.sh's
# scratch copy of the tree, not source).
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/' || true); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet. staticcheck is optional locally (CI installs
# it); the target degrades to a notice when the binary is absent.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Full benchmark harness: every table/figure of the paper plus the hot-kernel
# micro-benchmarks. Slow — see bench-micro for the quick perf loop.
bench:
	$(GO) test . -run NONE -bench . -benchmem

# The per-layer micro-benchmarks in go-bench form, one list after another:
# the xgb forest (pointer-tree oracle vs the flattened compiled form, single
# row and batched); the replicated cluster's write path (a seeded 5k-record
# city into a fresh 3-node cluster: ns/record, allocs/record, live
# B/replica-record); the Eq. 4-7 hot path (confidence queries, serial vs
# batch feature extraction, a detector evaluation pass, a 20-point session
# close with every answer reused vs every point recomputed); and the storage
# write path (concurrent Add on one global store, upload ingest ns/record,
# WAL append/replay). End-to-end numbers come from bench/ (bench-run,
# bench-pairs), never from here.
bench-micro:
	$(GO) test ./internal/xgb/ -run NONE -benchmem -bench 'BenchmarkKernel'
	$(GO) test ./internal/cluster/ -run NONE -bench 'BenchmarkClusterIngest' -benchtime 3x
	$(GO) test . -run NONE -benchmem \
		-bench 'StoreConfidence|StoreFeatures|EvaluateWiFi$$|SessionClose'
	$(GO) test . -run NONE -benchmem \
		-bench 'StoreAddConcurrent|StoreAddUploads|WAL'

# Short coverage-guided fuzzing of the shared byte reader, the WAL frame
# decoder and the WAL payload codecs, the trajectory codecs, the binary
# upload/session wire codec and the shard-transport codec (native go
# fuzzing; corpora live in testdata/fuzz/).
fuzz-short:
	$(GO) test ./internal/binenc/ -run NONE -fuzz FuzzBinencReader -fuzztime 20s
	$(GO) test ./internal/wal/ -run NONE -fuzz FuzzFrameDecode -fuzztime 20s
	$(GO) test ./internal/server/ -run NONE -fuzz FuzzWALPayloadCodec -fuzztime 20s
	$(GO) test ./internal/trajectory/ -run NONE -fuzz FuzzTrajectoryCodec -fuzztime 20s
	$(GO) test ./internal/server/ -run NONE -fuzz FuzzBinaryCodec -fuzztime 20s
	$(GO) test ./internal/cluster/ -run NONE -fuzz FuzzClusterCodec -fuzztime 20s

# Crash-point exploration plus the wedge-mid-workload breaker cycle:
# replay the upload workload (batch and streaming sessions), crash at
# every filesystem mutation site (or wedge the disk and watch the breaker
# trip, degrade, and heal), recover, and check the durability invariants.
# The explorer lists live here only; CI runs the two halves as two jobs.
CHAOS_SINGLE = TestCrashPointExploration|TestSessionCrashPointExploration|TestWedgeMidWorkload|TestTrustCrashPointExploration
CHAOS_CLUSTER = TestClusterCrashPointExploration|TestReplicatedCrashPointExploration|TestCoordinatorCrashPointExploration

chaos:
	$(GO) test ./internal/chaos/ -race -short -v -run '$(CHAOS_SINGLE)|$(CHAOS_CLUSTER)'

chaos-single:
	$(GO) test ./internal/chaos/ -race -short -v -run '$(CHAOS_SINGLE)'

chaos-cluster:
	$(GO) test ./internal/chaos/ -race -short -v -run '$(CHAOS_CLUSTER)'

# Sybil store-poisoning experiment: the same seeded campaign against an
# undefended server and the trust-weighted pipeline; writes
# BENCH_poison.json with rounds-to-breach and the attack cost ratio.
bench-poison:
	$(GO) run ./cmd/experiments -run poison

# The gated benchmark (BENCHMARK.json) is a module of its own under bench/,
# so the root `go build ./... && go test ./...` never compiles it. bench-test
# builds it against this checkout and runs its unit tests — an exported-API
# change that breaks the benchmark fails here, not in the gate.
bench-test:
	cd bench && $(GO) test ./...

# The quick pass of every benchmark workload, about 20 s on a 2-core host.
# bench-test compiles the benchmark; this runs it end to end, and fails when
# bench/run.sh exits non-zero: an INVALID line or a failed serial-reference
# check.
bench-smoke:
	bash bench/run.sh --workload all --quick --out "$$(mktemp -d)"

# One gated-protocol run of a single workload: make bench-run W=deep_cluster
# (served_json, served_binary, deep_single, deep_cluster, deep_stream).
bench-run:
	bash bench/run.sh --workload $(W) --seed 1 --seconds 15 --trace 0

# Paired comparison of this checkout against a parent revision, the way a
# performance claim must be measured: make bench-pairs W=deep_cluster
# PARENT=HEAD~1 [N=10] [TRACE=1]. Exports PARENT with git archive, runs
# bench/run.sh alternately on both trees with seeds 1…N and prints each
# metric's medians, quartiles, wins and the nine-in-ten / beyond-the-parent's-
# spread verdict (scripts/benchpairs).
bench-pairs:
	$(GO) run ./scripts/benchpairs -workload $(W) -parent $(PARENT) -n $(or $(N),10) -trace $(or $(TRACE),0)

# Non-test Go lines per package directory and in total (find, wc and awk
# only), so a PR's line delta is one diff of two outputs.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

# bench-test and bench-smoke are part of check: a change to a name bench/
# calls, or one that breaks a workload's run, fails here, not in the
# benchmark gate.
check: build vet fmt-check test bench-test bench-smoke
