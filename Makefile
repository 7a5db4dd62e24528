# Common development tasks for the reproduction repository.

GO ?= go

.PHONY: all build vet lint vuln test race cover tables examples clean fmt-check bench-smoke bench-gate fuzz-smoke trace-demo ci

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repository-specific static analysis: determinism (detrand, wallclock),
# dropped errors, lock/ctx/atomic/taint flow, hot-path contracts,
# goroutine termination, unbounded growth. See CONTRIBUTING.md for the
# invariant list, the taint/bounded annotation grammars, and //lint:allow
# usage.
lint:
	$(GO) run ./cmd/repolint ./...

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

# One iteration of every benchmark so benchmark code cannot bit-rot; drop
# -benchtime for a full statistical run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...

# Run the gated benchmark suite (predict hot path, reader-scaling sweep,
# history store) and compare against the committed BENCH_*.json baseline —
# the exact pipeline the CI bench-gate job runs. Override the baseline
# with BENCH_BASELINE=...; iteration and sample counts are fixed in
# scripts/bench_gate.sh so every run measures the same work.
BENCH_BASELINE ?= BENCH_0015.json
bench-gate:
	sh scripts/bench_gate.sh $(BENCH_BASELINE)

# A short fuzzing run of the SWF parser — long enough to catch regressions
# in input validation, short enough for a pre-push check.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadSWF -fuzztime=10s ./internal/workload

# Trace one prediction end to end and pretty-print its span tree.
trace-demo:
	$(GO) run ./examples/quickstart -trace

# The exact pipeline .github/workflows/ci.yml runs, for local use before
# pushing: format check, vet, repolint, vuln scan, build, test, race, bench
# smoke.
ci: fmt-check vet lint vuln build test race bench-smoke
