#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# Run from the repository root:
#
#   ./ci.sh
#
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo clippy unwrap/expect audit (lp + core, warn-level)"
# The numerical kernels must not panic on pathological inputs: surface
# every unwrap/expect in non-test code for review. Warn-level (not -D):
# the remaining sites are audited, documented panics.
cargo clippy -q -p smo-lp -p smo-core --lib -- \
  -W clippy::unwrap_used -W clippy::expect_used

echo "==> cargo test"
cargo test -q

echo "==> stress harness (pathological circuits, both simplex variants)"
cargo test -q --test stress

echo "==> scale-differential suite (dense vs sparse-LU, release)"
# The non-ignored tests (shipped netlists, stress suite, proptest-random
# circuits) also run under plain `cargo test` above; release mode adds the
# ignored 1k/5k-row generated-datapath tests, which are deadline-bounded
# so a solver regression fails fast instead of hanging CI.
cargo test -q --release --test scale_differential -- --include-ignored

echo "==> LP warm-start differential (crossover path) + sweep determinism suite"
cargo test -q --test warm_start

echo "==> pricing-equivalence suite (devex vs partial vs bland, release)"
# Every pricing rule must produce the same certified verdict and optimum
# on the shipped netlists, the stress suite, and proptest-random
# circuits — the contract that lets the sparse variant run partial
# devex alone. Release mode keeps the sparse stress solves fast.
cargo test -q --release --test pricing_equivalence

echo "==> smo lint + smo analyze + certified smo solve over circuits/*.ckt"
# `lint` exits non-zero on error-severity findings; `analyze` exits 2 when
# the combinatorial bracket misses the optimum or the graph backend and the
# certified sparse-LU simplex disagree (an internal soundness bug). Either
# failure fails CI.
cargo build -q --release --bin smo
for ckt in circuits/*.ckt; do
  echo "--- $ckt"
  ./target/release/smo lint "$ckt"
  ./target/release/smo analyze "$ckt"
  # Every shipped netlist must solve with every verdict independently
  # checked (exit 0 and an explicit `certified: true` line). Plain
  # grep (not -q): -q closes the pipe early and breaks the writer.
  ./target/release/smo solve "$ckt" | grep "certified: true" > /dev/null
  # Graph-vs-LP differential: both backends must solve every shipped
  # netlist, certified, and report the same optimum to the printed
  # precision. The `backend: graph` grep doubles as proof the fast path
  # actually engages rather than silently falling back. Capture the full
  # output first: truncating smo's stdout mid-write (e.g. `| head`)
  # breaks the pipe under `set -o pipefail`.
  graph_out=$(./target/release/smo solve "$ckt" --backend graph)
  lp_out=$(./target/release/smo solve "$ckt" --backend lp)
  printf '%s\n' "$graph_out" | grep "backend: graph" > /dev/null
  printf '%s\n' "$graph_out" | grep "certified: true" > /dev/null
  graph_tc=$(printf '%s\n' "$graph_out" | sed -n 1p)
  lp_tc=$(printf '%s\n' "$lp_out" | sed -n 1p)
  if [ "$graph_tc" != "$lp_tc" ]; then
    echo "BACKEND DISAGREEMENT on $ckt: graph '$graph_tc' vs lp '$lp_tc'" >&2
    exit 1
  fi
  # Short Monte-Carlo sweep: every run is a certified default-pipeline
  # solve; exercises the worker pool end to end on every shipped netlist.
  ./target/release/smo sweep "$ckt" --runs 4 --jobs 2 > /dev/null
done

echo "==> smo check over circuits/*.ckt (race gate)"
# The one-shot static gate: lint passes + solve + short-path race
# analysis. Every shipped netlist must pass clean — except the
# deliberately racy demo, which must trip the gate with exit code 2 and
# a measured double-clocking-race witness.
for ckt in circuits/*.ckt; do
  echo "--- check $ckt"
  if [ "$ckt" = "circuits/race_demo.ckt" ]; then
    set +e
    check_out=$(./target/release/smo check "$ckt")
    check_rc=$?
    set -e
    if [ "$check_rc" -ne 2 ]; then
      echo "smo check $ckt: expected exit code 2, got $check_rc" >&2
      printf '%s\n' "$check_out" >&2
      exit 1
    fi
    printf '%s\n' "$check_out" | grep 'error: \[double-clocking-race\]' > /dev/null
    printf '%s\n' "$check_out" | grep 'retires the race' > /dev/null
  else
    ./target/release/smo check "$ckt" > /dev/null
  fi
done

echo "==> panic-freedom attributes on the numerical fast-path modules"
# The graph solver and the fast-path router must keep their deny-level
# unwrap/expect gates: a panic inside either would take down every
# `--backend auto` caller on pathological inputs.
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/lp/src/graph.rs
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/core/src/fastpath.rs
# The sparse-LU simplex kernel, its hypersparse solve/pricing modules,
# and the large-circuit generator feed the scaling gates: all keep the
# same deny-level attribute.
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/lp/src/sparse.rs
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/lp/src/hypersparse.rs
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/lp/src/pricing.rs
grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/gen/src/datapath.rs

echo "==> the revised simplex stays deleted"
# The dense tableau (paper-faithful oracle, parametric engine) and the
# sparse-LU simplex are the only LP variants; no code or test may name
# the removed third one.
if grep -rn 'Revised' crates/ src/ tests/; then
  echo "the removed revised simplex variant is referenced again" >&2
  exit 1
fi

echo "==> the LP presolve layer stays deleted"
# `smo analyze` cross-checks the graph backend against one certified
# sparse-LU solve; no code or test may bring the removed reduction layer
# back.
if grep -rni 'presolve' crates/ src/ tests/; then
  echo "the removed LP presolve layer is referenced again" >&2
  exit 1
fi

echo "==> panic-freedom attributes across the analysis layer"
# The static-analysis crate backs the `smo check` CI gate itself: every
# source file keeps the deny-level unwrap/expect attribute so a
# pathological netlist degrades to an AnalyzeError, never a panic.
for f in crates/analyze/src/*.rs; do
  grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' "$f" \
    || { echo "missing unwrap/expect deny attribute: $f" >&2; exit 1; }
done

echo "==> smo serve daemon gate (mixed batch over circuits/*.ckt, hostile inputs)"
# Start the daemon on an ephemeral port, drive every shipped netlist
# through solve/check plus a malformed netlist and an expired deadline,
# and require: structured answers for everything (zero crashes), the
# race demo's finding visible through the wire, and a clean drain.
serve_log=$(mktemp)
./target/release/smo serve --addr 127.0.0.1:0 > "$serve_log" &
serve_pid=$!
for _ in $(seq 1 50); do
  grep -q 'listening on ' "$serve_log" && break
  sleep 0.1
done
serve_addr=$(sed -n 's/^listening on //p' "$serve_log" | head -n 1)
if [ -z "$serve_addr" ]; then
  echo "smo serve did not come up" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
for ckt in circuits/*.ckt; do
  # Every netlist must solve and check over the wire (status ok ⇒ exit 0);
  # solving twice proves the result cache answers byte-compatibly.
  ./target/release/smo call "$serve_addr" solve "$ckt" > /dev/null
  ./target/release/smo call "$serve_addr" solve "$ckt" | grep '"cached":true' > /dev/null
  check_line=$(./target/release/smo call "$serve_addr" check "$ckt")
  if [ "$ckt" = "circuits/race_demo.ckt" ]; then
    printf '%s\n' "$check_line" | grep 'double-clocking-race' > /dev/null
  fi
done
# Hostile inputs must come back as structured errors, not crashes.
bad_ckt=$(mktemp --suffix=.ckt)
printf 'this is not a netlist\n!!!\n' > "$bad_ckt"
set +e
bad_line=$(./target/release/smo call "$serve_addr" solve "$bad_ckt")
bad_rc=$?
expired_line=$(./target/release/smo call "$serve_addr" solve circuits/gaas_mips.ckt --deadline-ms 0)
expired_rc=$?
set -e
rm -f "$bad_ckt"
[ "$bad_rc" -ne 0 ] && printf '%s\n' "$bad_line" | grep '"kind":"parse"' > /dev/null
[ "$expired_rc" -ne 0 ] && printf '%s\n' "$expired_line" | grep '"kind":"budget"' > /dev/null
# The daemon must still be healthy after the hostile batch (no panics)…
./target/release/smo call "$serve_addr" stats | grep '"panics":0' > /dev/null
# …and must drain cleanly on shutdown.
./target/release/smo call "$serve_addr" shutdown | grep '"draining":true' > /dev/null
wait "$serve_pid"
grep -q 'drained, exiting' "$serve_log"
rm -f "$serve_log"

echo "==> bench_serve (regenerates BENCH_serve.json, enforces shed>0 under overload)"
./target/release/smo bench-serve --out BENCH_serve.json > /dev/null

echo "==> bench_sweep (regenerates BENCH_sweep.json, enforces warm >= 2x cold)"
cargo run -q --release -p smo-bench --bin bench_sweep

echo "==> bench_fastpath (regenerates BENCH_fastpath.json, enforces graph >= 10x lp)"
cargo run -q --release -p smo-bench --bin bench_fastpath

echo "==> 5k-row generated circuit: certified sparse-LU solve under a deadline + smo analyze + sweep base"
# End-to-end through the CLI: `smo gen` emits a 5k-constraint-row
# pipelined datapath, and the sparse-LU variant must return a certified
# optimum inside an explicit wall-clock budget. `smo analyze` must then
# finish on the same design with every cross-check agreeing (its LP leg
# runs on sparse LU; exit 2 on any disagreement). The sweep's unperturbed
# base solve must print exactly the Tc `smo solve` prints.
gen_ckt=$(mktemp --suffix=.ckt)
./target/release/smo gen --latches 1667 --seed 7 --out "$gen_ckt"
./target/release/smo solve "$gen_ckt" --backend lp --variant sparse --time-limit 300 \
  | grep "certified: true" > /dev/null
./target/release/smo analyze "$gen_ckt" > /dev/null
solve_tc=$(./target/release/smo solve "$gen_ckt" | sed -n 's/^optimal cycle time: //p')
sweep_tc=$(./target/release/smo sweep "$gen_ckt" --runs 4 --jobs 2 \
  | sed -n 's/^base: Tc = \([^ ]*\) .*/\1/p')
if [ -z "$solve_tc" ] || [ "$solve_tc" != "$sweep_tc" ]; then
  echo "SWEEP BASE DISAGREEMENT: solve '$solve_tc' vs sweep base '$sweep_tc'" >&2
  exit 1
fi
rm -f "$gen_ckt"

echo "==> 10k-row generated circuit: smo analyze (graph vs certified sparse-LU LP)"
# The graph backend is the production path; `analyze` must find it equal
# to the certified sparse-LU optimum within Tol::TIGHT at >= 10k rows too
# (exit 2 on any disagreement).
gen_ckt=$(mktemp --suffix=.ckt)
./target/release/smo gen --latches 3333 --seed 7 --out "$gen_ckt"
./target/release/smo analyze "$gen_ckt" > /dev/null
rm -f "$gen_ckt"

echo "==> 50k-row generated circuit: smo lint cliff gate"
# Zero-delay loops are one SCC pass over the zero-weight latch subgraph,
# so lint stays linear: a 50k-row design must lint inside 10 s.
gen_ckt=$(mktemp --suffix=.ckt)
./target/release/smo gen --latches 16667 --seed 7 --out "$gen_ckt"
timeout 10 ./target/release/smo lint "$gen_ckt" > /dev/null
rm -f "$gen_ckt"

echo "==> bench_scale (dense vs sparse-LU scaling gate)"
# Quick mode enforces the speedup convention at CI-friendly sizes, then
# re-measures sparse pivots/sec at the 10k-row anchor and fails if it
# drops below half the checked-in sparse_pivots_per_sec_10k — the
# throughput regression gate for the hypersparse kernels — all without
# touching the checked-in curve. The full BENCH_scale.json regeneration
# (6 sizes to ~50k rows; dense is deadline-bounded, the jumbo sparse
# solves get up to 1800 s each) runs with SCALE_FULL=1 ./ci.sh and
# enforces the >= 10x gate at the 10k-row anchor size.
if [ "${SCALE_FULL:-0}" = "1" ]; then
  cargo run -q --release -p smo-bench --bin bench_scale
else
  cargo run -q --release -p smo-bench --bin bench_scale -- --quick
fi

echo "CI OK"
