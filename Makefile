GO ?= go

.PHONY: all build vet lint lint-deprecated lint-gofmt test race bench bench-json mesh-smoke recover-smoke route-smoke cover verify-figs api-check api-update ci

all: test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint runs staticcheck when it is installed, and falls back to go vet
# otherwise so the target works offline and in minimal containers.
lint: lint-deprecated lint-gofmt
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# Grep gate for retired APIs. The deprecated O(n) Clone() snapshot shims
# and the error aliases ErrInvalidProof / ErrDuplicatePacket were deleted
# in PR 7; this gate keeps them from creeping back in any file. Use the
# O(1) Snapshot/Commit + At + Release versioning API and the canonical
# ErrProofVerification / ErrPacketAlreadyDelivered names.
lint-deprecated:
	@bad=$$(grep -rn '\.Clone()\|ErrInvalidProof\|ErrDuplicatePacket' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired API call sites (Clone() -> Snapshot/At/Release; use ErrProofVerification / ErrPacketAlreadyDelivered):"; \
		echo "$$bad"; exit 1; \
	fi

# Formatting gate: every Go file, the benchmark module included, must be
# gofmt-clean (the benchmark's build directory is skipped).
lint-gofmt:
	@bad=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$bad" ]; then \
		echo "files not gofmt-clean (run gofmt -w):"; \
		echo "$$bad"; exit 1; \
	fi

# Tier-1 gate: everything must compile, vet clean, pass the test suite, and
# the concurrency-heavy packages must be race-clean — telemetry (shared
# mutable state everywhere), relayer and core now that the relayer runs
# per-channel shards on the scheduler, and cryptoutil plus the light
# clients, whose batch verification and commit signing start worker
# goroutines. Full -race stays in `make ci`.
test: build vet
	$(GO) test ./...
	$(GO) test -race ./internal/telemetry/... ./internal/relayer/... ./internal/core/... \
		./internal/cryptoutil/... ./internal/lightclient/...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Regenerate the machine-checkable benchmark trajectory: a pinned open-loop
# load run (p50/p99 packet latency, sustained pkt/s) plus allocs/op of the
# hottest micro-benchmarks with their recorded pre-optimisation baselines.
# The self-check fails the target when the output is schema-invalid.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_pr10.json
	$(GO) run ./cmd/benchjson -check BENCH_pr10.json

# Mesh smoke gate: both acceptance topologies (4-chain line and diamond)
# under per-link chaos must deliver every routed transfer with exact
# escrow/voucher conservation at every hop. guestsim exits non-zero on a
# conservation violation, so this is a pass/fail gate, not a demo.
mesh-smoke:
	$(GO) run ./cmd/guestsim -mesh -mesh-topology line >/dev/null
	$(GO) run ./cmd/guestsim -mesh -mesh-topology diamond >/dev/null
	@echo "mesh smoke: line + diamond conserve under chaos"

# Kill-and-recover smoke gate: a disk-backed guest is power-cut mid-stall
# (WAL truncated to the last fsync), reopened cold, and must recover
# exactly the last finalised root with byte-identical historical proofs.
# guestsim exits non-zero when either verdict fails.
recover-smoke:
	$(GO) run ./cmd/guestsim -recover >/dev/null
	@echo "recover smoke: power cut recovers the last finalised root"

# Adaptive-routing smoke gate: the degraded diamond must migrate >= 90%
# of post-grace flows to the healthy arm, beat the same-seed static
# control's post-degradation p99, conserve escrow at every hop under
# rerouting, and the competing-relayer race must deliver exactly once
# with conserved fee totals. guestsim exits non-zero on any violation.
route-smoke:
	$(GO) run ./cmd/guestsim -adaptive-routing >/dev/null
	@echo "route smoke: adaptive plane migrates, conserves, races exactly-once"

# Coverage across every package, with the combined profile left in
# cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# Regenerate the reference figures and fail on any drift: the default
# single-channel topology must reproduce bench_figs_28d.txt byte for byte.
verify-figs:
	$(GO) run ./cmd/benchfigs 2>/dev/null > bench_figs_28d.txt.new
	@if ! diff -u bench_figs_28d.txt bench_figs_28d.txt.new; then \
		echo "figure drift: bench_figs_28d.txt no longer reproduces"; \
		rm -f bench_figs_28d.txt.new; exit 1; \
	fi
	@rm -f bench_figs_28d.txt.new
	@echo "bench_figs_28d.txt reproduces byte-identically"

# API-stability gate: the exported surface of the packet-pipeline and
# persistence packages (internal/ibc, internal/middleware,
# internal/routing, internal/nodestore) must match the committed
# api/ibc.txt. Regenerate deliberately with `make api-update` when an API
# change is intended.
api-check:
	@$(GO) run ./cmd/apidump internal/ibc internal/middleware internal/routing internal/nodestore > api/ibc.txt.new
	@if ! diff -u api/ibc.txt api/ibc.txt.new; then \
		echo "exported API drift: run 'make api-update' if the change is intended"; \
		rm -f api/ibc.txt.new; exit 1; \
	fi
	@rm -f api/ibc.txt.new
	@echo "exported API surface matches api/ibc.txt"

api-update:
	$(GO) run ./cmd/apidump internal/ibc internal/middleware internal/routing internal/nodestore > api/ibc.txt

# The pre-merge gate: vet + lint (including the retired-API grep), the
# whole suite under the race detector, the coverage summary, the
# figure-drift check, the exported-API stability check, and the mesh,
# kill-and-recover, and adaptive-routing smoke runs.
ci: vet lint race cover verify-figs api-check mesh-smoke recover-smoke route-smoke
