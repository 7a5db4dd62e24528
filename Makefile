# Common development tasks for the reproduction repository.

GO ?= go

.PHONY: all build vet lint vuln test race cover bench tables examples clean fmt-check bench-smoke bench-gate fuzz-smoke trace-smoke admit-smoke reselect-smoke trace-demo ci

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repository-specific static analysis: determinism (detrand, wallclock),
# float comparisons, dropped errors, observability naming, lock/ctx/
# atomic/taint flow, unbounded growth. See CONTRIBUTING.md for the
# invariant list, the taint/bounded annotation grammars, and //lint:allow
# usage. The fact cache makes an unchanged re-run finish in tens of
# milliseconds; it lives in .repolint-cache (gitignored) and is safe to
# delete at any time.
lint:
	$(GO) run ./cmd/repolint -cache .repolint-cache ./...

# govulncheck is not vendored; run it when the tool is on PATH (CI installs
# it), skip quietly otherwise so offline development keeps working.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# -shuffle=on randomizes test execution order each run, so accidental
# inter-test state dependence surfaces instead of hiding.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

cover:
	$(GO) test -cover ./...

# One iteration of every table/figure benchmark (fast); drop -benchtime for
# the full statistical run.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Regenerate every table of the paper at 1/10 trace scale.
tables:
	$(GO) run ./cmd/tables -scale 10

# Run every example.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/resourceselect
	$(GO) run ./examples/metasched
	$(GO) run ./examples/onlinesched
	$(GO) run ./examples/coallocation

clean:
	$(GO) clean ./...

# Fail when any file is not gofmt-formatted (the CI lint job's check).
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "unformatted files:"; echo "$$unformatted"; exit 1; \
	fi

# One iteration of every benchmark so benchmark code cannot bit-rot.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...

# Run the gated benchmark suite (predict hot path, reader-scaling sweep,
# history store) and compare against the committed BENCH_*.json baseline —
# the exact pipeline the CI bench-gate job runs. Override the baseline
# with BENCH_BASELINE=...; iteration/sample counts come from the script's
# BENCHTIME_* / BENCHCOUNT environment knobs (see scripts/bench_gate.sh).
BENCH_BASELINE ?= BENCH_0015.json
bench-gate:
	sh scripts/bench_gate.sh $(BENCH_BASELINE)

# A short fuzzing run of the SWF parser — long enough to catch regressions
# in input validation, short enough for a pre-push check.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadSWF -fuzztime=10s ./internal/workload

# Boot qwaitd with tracing, drive observe/predict traffic, and assert the
# /v1/traces and /v1/accuracy endpoints are well-formed (the CI step).
trace-smoke:
	sh scripts/trace_smoke.sh

# Boot qwaitd with predictive SLO admission, drive /v1/admit with admit
# and shed scenarios, and assert the metrics and trace surface (the CI
# admit-smoke step).
admit-smoke:
	sh scripts/admit_smoke.sh

# Boot qwaitd with -reselect, inject a run-time step through /v1/observe,
# and assert the /v1/stable scoreboard, the switch to the scoreboard
# winner, and the accuracy.reselect.* metric and span surface (the CI
# reselect-smoke step).
reselect-smoke:
	sh scripts/reselect_smoke.sh

# Trace one prediction end to end and pretty-print its span tree.
trace-demo:
	$(GO) run ./examples/quickstart -trace

# The exact pipeline .github/workflows/ci.yml runs, for local use before
# pushing: format check, vet, repolint, vuln scan, build, test, race, bench
# smoke.
ci: fmt-check vet lint vuln build test race bench-smoke
