#!/bin/sh
# The bench gate: every suite with a checked-in baseline
# (bench/baselines/BENCH_<suite>.json) runs against it and must pass, then
# runs against a doctored copy that no run can meet and must fail with one
# violation per baseline row — proof that the gate reads every row and
# that its exit code gates. Exactly what the CI bench-gate job runs;
# `make bench-gate` is the local entry point. Reports land in
# ./BENCH_<suite>.json.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$ROOT"
BENCH=./_build/default/bench/main.exe

# fleet runs real phomd replicas next to the bench binary
dune build bench/main.exe bin/phomd.exe

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

for baseline in bench/baselines/BENCH_*.json; do
    suite=${baseline#bench/baselines/BENCH_}
    suite=${suite%.json}
    echo "== bench gate: $suite"
    "$BENCH" "$suite" --out "BENCH_$suite.json" --check-against "$baseline"

    rows=$(python3 scripts/bench_rows.py doctor "$baseline" "$DIR/doctored.json")
    if "$BENCH" "$suite" --out "$DIR/BENCH_$suite.json" \
         --check-against "$DIR/doctored.json" > /dev/null 2> "$DIR/err"; then
        echo "bench gate: $suite passed a baseline no run can meet" >&2
        exit 1
    fi
    if ! grep -q "^bench gate: $rows gate violation(s)" "$DIR/err"; then
        echo "bench gate: $suite did not report all $rows rows as violations:" >&2
        cat "$DIR/err" >&2
        exit 1
    fi
    echo "== bench gate: $suite fails all $rows rows of a doctored baseline, as it must"
done
