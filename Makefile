# Convenience targets for the help reproduction.

GO ?= go

.PHONY: all test vet fmtcheck bench figs tables race stress soak chaos fuzz cover clean

all: test

# Tier-1: gofmt check, build, vet, plain tests, then a race-checked
# pass so the concurrent srvnet/faultnet paths are exercised on every
# change. The chaos harness rides along as a small smoke (24 users);
# `make chaos` runs the full fleet. perfbench is a module of its own,
# which ./... skips, so it is vetted and smoke-tested separately: an
# internal API change that breaks the benchmark fails here.
test: fmtcheck
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./... && $(GO) test -race ./...
	cd perfbench && $(GO) vet . && $(GO) test .

race:
	$(GO) test -race ./...

vet: fmtcheck
	$(GO) vet ./...

# Fail when gofmt would change any Go file of the main module
# (perfbench/ is a module of its own; testdata is not compiled). The
# gofmt is the one that ships with $(GO).
fmtcheck:
	@out=$$($$($(GO) env GOROOT)/bin/gofmt -l $$(find . -name '*.go' -not -path './perfbench/*' -not -path './.*' -not -path '*/testdata/*')) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# Bench evidence loop: run the suite serially three times (separate
# passes, minutes apart, so a noisy-neighbor phase can't taint every
# sample of a benchmark — helpbench keeps each benchmark's best run),
# record BENCH_PR10.json, and fail if anything regressed >20% on ns/op
# or allocs/op against the checked-in pre-PR baseline (see
# docs/ARCHITECTURE.md, "Performance model").
bench:
	$(GO) test -p 1 -run '^$$' -bench=. -benchmem ./... | tee bench_output.txt
	$(GO) test -p 1 -run '^$$' -bench=. -benchmem ./... | tee -a bench_output.txt
	$(GO) test -p 1 -run '^$$' -bench=. -benchmem ./... | tee -a bench_output.txt
	$(GO) run ./cmd/helpbench -benchjson bench_output.txt -baseline BENCH_PR9.json -o BENCH_PR10.json

# Stress the actor model: the whole-system concurrency matrix, repeated
# under the race detector so queue/kill/streaming interleavings vary.
stress:
	$(GO) test -race -count=5 -run 'TestConcurrencyMatrix|TestOutputStreams|TestKill|TestExternalBackground|TestExit' ./internal/world ./internal/core

# Soak the multi-session daemon: the full stack (Manager behind the mux
# server on TCP) replaying loadgen gesture traces in concurrent waves
# under random injected crashes, race-checked, ending in a graceful
# drain and a goroutine-leak check. SOAK_SECONDS stretches the run.
soak:
	SOAK_SECONDS=$${SOAK_SECONDS:-20} $(GO) test -race -count=1 -v -run 'TestDaemonSoak' ./internal/sessiond

# Chaos: the full loadgen fleet (1,000+ simulated users, scripted
# network faults, deliberate overload) against an in-process daemon,
# race-checked, with every robustness invariant asserted afterward —
# no goroutine leaks, no cross-session bleed, byte-for-byte journal
# recovery, monotonic notify sequences, budgets respected, typed
# refusals. CHAOS_USERS resizes the fleet.
chaos:
	CHAOS_USERS=$${CHAOS_USERS:-1000} $(GO) test -race -count=1 -v -timeout 20m \
		-run 'TestChaosReplay|TestChaosOverload|TestDrainUnparksWaiters' ./internal/loadgen

figs:
	$(GO) run ./cmd/helpfigs -o figures

tables:
	$(GO) run ./cmd/helpbench

fuzz:
	$(GO) test -fuzz='FuzzParse$$' -fuzztime=30s ./internal/shell
	$(GO) test -fuzz='FuzzParseFile$$' -fuzztime=30s ./internal/cc
	$(GO) test -fuzz='FuzzGrep$$' -fuzztime=30s ./internal/userland
	$(GO) test -fuzz='FuzzAddress$$' -fuzztime=30s ./internal/text
	$(GO) test -fuzz='FuzzEditSequence$$' -fuzztime=30s ./internal/text
	$(GO) test -fuzz='FuzzLineIndex$$' -fuzztime=30s ./internal/text
	$(GO) test -fuzz='FuzzPagedBuffer$$' -fuzztime=30s ./internal/text
	$(GO) test -fuzz='FuzzJournalDecode$$' -fuzztime=30s ./internal/journal
	$(GO) test -fuzz='FuzzFrame$$' -fuzztime=30s ./internal/srvnet
	$(GO) test -fuzz='FuzzBus$$' -fuzztime=30s ./internal/notify

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
