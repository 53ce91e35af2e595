.PHONY: all build check test bench bench-full bench-serve bench-gate \
	bench-baseline serve-smoke serve-smoke-faults chaos-smoke fleet-smoke \
	ablations micro examples fmt fmt-check ci clean

# worker domains for the parallel runtime; passed through to the bench
# harness (the CLI takes its own --jobs flag)
JOBS ?= 1

all: build

build:
	dune build @all

# full gate: build everything, then the unit + property + cram suites
check:
	dune build @all
	dune runtest

test:
	dune runtest

test-capture:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe -- --jobs $(JOBS) 2>&1 | tee bench_output.txt

bench-full:
	dune exec bench/main.exe -- --full --jobs $(JOBS)

bench-serve:
	dune exec bench/main.exe -- serve --out BENCH_serve.json

# every suite with a checked-in baseline in bench/baselines/ (exact, dp,
# incr, parallel, obs, recovery, fleet) against that baseline, plus the
# liveness check against a doctored copy — the same script the CI
# bench-gate job runs. The rule is in bench/gate.ml.
bench-gate:
	sh scripts/bench_gate.sh

# refresh every checked-in baseline after an intentional change (run on a
# quiet machine): work and time rows come from the new run, floor and
# ceiling bounds stay as they are
bench-baseline:
	dune build bench/main.exe bin/phomd.exe
	for f in bench/baselines/BENCH_*.json; do \
	  s=$${f#bench/baselines/BENCH_}; s=$${s%.json}; \
	  ./_build/default/bench/main.exe $$s --out BENCH_$$s.json && \
	  python3 scripts/bench_rows.py refresh BENCH_$$s.json $$f || exit 1; \
	done

# start phomd on a temp socket, run cold/warm/budget-tripped client queries,
# assert clean shutdown — the same flow as the CI daemon-smoke job
serve-smoke:
	sh scripts/serve_smoke.sh

# the smoke plus a fault-injection soak: misbehaving peers alongside
# healthy retrying clients, under an injected per-solve delay
serve-smoke-faults:
	sh scripts/serve_smoke.sh --faults

# kill -9 a durable phomd mid-solve, restart on the same state dir, require
# a byte-identical warm reply; then corrupt the snapshot and require
# quarantine — the same flow as the CI chaos-smoke job
chaos-smoke:
	sh scripts/chaos_smoke.sh

# three TCP replicas behind the router: kill -9 the owner mid-solve,
# require the byte-identical failover answer, restart it and require a
# clean rejoin — the same flow as the CI fleet-smoke job
fleet-smoke:
	sh scripts/fleet_smoke.sh

ablations:
	dune exec bench/main.exe -- ablations

micro:
	dune exec bench/main.exe -- micro

examples:
	dune exec examples/quickstart.exe
	dune exec examples/plagiarism_detection.exe
	dune exec examples/schema_embedding.exe
	dune exec examples/anomaly_detection.exe
	dune exec examples/web_mirror_detection.exe

# formatting is opt-in until the seed tree has its bulk reformat: both
# targets no-op with a note when ocamlformat is not installed
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not installed; skipping (opam install ocamlformat.0.26.2)"; \
	fi

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping (opam install ocamlformat.0.26.2)"; \
	fi

# exactly what .github/workflows/ci.yml runs, so a green `make ci`
# predicts a green pipeline
ci:
	dune build @all
	dune runtest
	dune exec bench/main.exe -- micro
	sh scripts/serve_smoke.sh
	sh scripts/serve_smoke.sh --faults
	dune exec bench/main.exe -- serve --out BENCH_serve.json
	sh scripts/chaos_smoke.sh
	sh scripts/fleet_smoke.sh
	sh scripts/bench_gate.sh

clean:
	dune clean
