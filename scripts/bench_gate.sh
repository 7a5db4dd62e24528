#!/bin/sh
# Run the gated benchmark suite — the predict hot path trio, the batch
# predict path, the reader-scaling sweep, the forward-simulated wait
# prediction and a full scheduling simulation, the history store's
# insert/read benchmarks and its write path (journaled inserts and
# inserts into full rings), admission and accuracy scoring — then convert
# the raw output to schema-stable JSON with cmd/benchjson and compare it
# against the committed baseline.
#
# usage: sh scripts/bench_gate.sh [baseline.json] [out-dir]
#
# The gate: allocs/op may never regress (allocations are deterministic);
# ns/op regressions beyond 10% fail and beyond 5% warn when the runner's
# cpu profile matches the baseline's, and downgrade to warnings when it
# does not (wall-time comparison across CPU models is noise). Both JSON
# documents are left in the out directory for artifact upload.
#
# Iteration counts are pinned per group so every timed region lasts a few
# hundred milliseconds — long enough that the minimum over the five
# samples (benchjson keeps the per-benchmark minimum, the estimate least
# contaminated by scheduling noise) is stable on a busy machine. The
# committed BENCH_<pr>.json baselines are generated by this same script,
# so the benchmark set and iteration policy can never drift between the
# baseline and the candidate.
set -eu

baseline=${1:-BENCH_0015.json}
outdir=${2:-bench-gate-out}

# The static half of this gate: the entry points the benchmarks below time
# must carry "// hotpath:" contracts, so the allocs/op floor the committed
# baseline records is also a compile-time theorem (the hotpath analyzer in
# internal/lint proves no call path reaches a lock, an unjustified
# allocation, or the wall clock). repolint -require resolves each symbol
# through the type checker — a rename makes the tool exit 2 ("the list is
# stale") rather than letting a contract silently retire — and the hotpath
# check itself re-proves every declared contract in the same run. Drift
# fails here before any benchmark runs.
if ! go run ./cmd/repolint -checks hotpath \
  -require repro/internal/core.Predictor.Predict \
  -require repro/internal/core.Predictor.PredictDetailed \
  -require repro/internal/core.Predictor.PredictDetailedBatch \
  -require repro/internal/histstore.Store.Get \
  -require repro/internal/admission.Controller.Decide \
  -require repro/internal/obs/accuracy.stream.scoreSample \
  ./...
then
  echo "bench gate: the benchmark trajectory and the hotpath analyzer must cover the same entry points" >&2
  exit 1
fi
# Every group but the reader-scaling sweep runs at GOMAXPROCS=1, so the
# benchmark names (and their -procs suffix) are the same on every machine
# and the baseline stays comparable across runners.
single="-cpu 1"

mkdir -p "$outdir"
raw="$outdir/bench-raw.txt"
: > "$raw"

# Predict hot path trio (repo root), ~0.6-8us/op.
go test -run '^$' \
  -bench '^BenchmarkPredictHotPath(Baseline|TracerDisabled|TracerEnabled)$' \
  -benchtime 100000x -count 5 -benchmem $single . >> "$raw"

# The batch endpoint's amortized path: one op is a 100-job batch (~100us).
go test -run '^$' -bench '^BenchmarkPredictBatch$' \
  -benchtime 2000x -count 5 -benchmem $single . >> "$raw"

# A wait prediction against a deep queue (clone, forward simulation) and a
# full ANL/40 backfill simulation: the paths /v1/predictwait and the table
# replays pay for on top of the predictor.
go test -run '^$' -bench '^Benchmark(PredictWait|SimRun)$' \
  -benchtime 300x -count 5 -benchmem $single . >> "$raw"

# Lock-free reader scaling: the -cpu sweep becomes a per-procs series in
# the JSON, so the near-linear-scaling claim is itself under the gate.
go test -run '^$' -bench '^BenchmarkPredictParallel$' \
  -benchtime 100000x -count 5 -benchmem -cpu 1,2,4,8 . >> "$raw"

# History store: lock-free reads (single and parallel), streaming inserts,
# and the production 1:4 write/read mix (30ns-1us/op).
go test -run '^$' -bench '^BenchmarkStore(Get|GetParallel|Insert|InsertPredict)$' \
  -benchtime 2000000x -count 5 -benchmem $single ./internal/histstore >> "$raw"

# History store write path: streaming inserts journaled through the WAL,
# and steady-state inserts into full 16384-point rings, where every insert
# evicts and the copy-on-write successor copies one chunk and the spine
# (1-2us/op).
go test -run '^$' -bench '^BenchmarkStoreInsert(Durable|FullRing)$' \
  -benchtime 200000x -count 5 -benchmem $single ./internal/histstore >> "$raw"

# Admission decision hot path: pure Decide against a precomputed estimate
# (atomics and cached counters only — the same contract the hotpath
# analyzer proves above).
go test -run '^$' -bench '^BenchmarkAdmissionDecide$' \
  -benchtime 2000000x -count 5 -benchmem $single ./internal/admission >> "$raw"

# Accuracy scoring: one completion through a tracker stream (the scoreSample
# contract the hotpath analyzer proves above, plus window/drift machinery)
# and the full shadow-stable scoring pass a -shadow deployment pays per
# observe (~400ns/op and ~1us/op). allocs/op is pinned at zero by the
# committed contract.
go test -run '^$' -bench '^BenchmarkAccuracy(Record|ShadowScore)$' \
  -benchtime 500000x -count 5 -benchmem $single ./internal/obs/accuracy >> "$raw"

go run ./cmd/benchjson parse -o "$outdir/candidate.json" < "$raw"
cp "$baseline" "$outdir/baseline.json"
go run ./cmd/benchjson compare "$baseline" "$outdir/candidate.json"
