#!/bin/sh
# Capture the hot-path benchmark baseline: run the event-kernel
# micro-benchmarks, the Quality-OPT layer benchmark, the end-to-end quantum
# benchmarks, and the fleet dispatch/chaos benchmarks COUNT times each,
# fold them to best-observation JSON with cmd/gebench, and write OUT
# (BENCH_BASELINE.json by default — the committed baseline `make
# bench-check` and the CI bench job gate against).
#
#   make bench-baseline            # refresh the committed baseline
#   OUT=cand.json sh scripts/bench_baseline.sh   # candidate for gating
set -eu

COUNT=${COUNT:-5}
OUT=${OUT:-BENCH_BASELINE.json}
BENCHTIME=${BENCHTIME:-1s}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

go test -run '^$' -bench 'BenchmarkKernel' -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" ./internal/sim/ \
    | tee "$TMP/bench.txt"
go test -run '^$' -bench 'BenchmarkAllocateEDFDeep' -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" ./internal/qopt/ \
    | tee -a "$TMP/bench.txt"
go test -run '^$' -bench 'BenchmarkQuantum' -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" . \
    | tee -a "$TMP/bench.txt"
go test -run '^$' -bench 'BenchmarkFleet' -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" . \
    | tee -a "$TMP/bench.txt"
go test -run '^$' -bench 'BenchmarkSpan|BenchmarkDecision|BenchmarkSampler' -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" ./internal/obs/ \
    | tee -a "$TMP/bench.txt"
go test -run '^$' -bench 'BenchmarkGovernor' -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" ./internal/governor/ \
    | tee -a "$TMP/bench.txt"
go test -run '^$' -bench 'BenchmarkGateway' -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" ./internal/gateway/ \
    | tee -a "$TMP/bench.txt"

# Preserve the committed baseline's "previous" section (the pre-optimization
# numbers) when refreshing BENCH_BASELINE.json in place.
NOTE="best of $COUNT runs, benchtime $BENCHTIME; see DESIGN.md §11"
if [ -f "$OUT" ]; then
    go run ./cmd/gebench -note "$NOTE" -merge-previous "$OUT" \
        < "$TMP/bench.txt" > "$TMP/new.json"
else
    go run ./cmd/gebench -note "$NOTE" < "$TMP/bench.txt" > "$TMP/new.json"
fi
mv "$TMP/new.json" "$OUT"
echo "wrote $OUT"
