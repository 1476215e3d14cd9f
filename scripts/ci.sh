#!/usr/bin/env bash
# The CI gates, in order; .github/workflows/ci.yml runs this script and
# nothing else. Fails fast on the first gate that trips. The bench
# snapshot, metrics snapshot and bench-regress verdict land in
# target/ci/, where the workflow uploads them from.
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out=target/ci
mkdir -p "$out"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== non-test Rust lines per crate (reported, no threshold) =="
scripts/loc.sh

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (tier-1) =="
cargo test -q

echo "== determinism suite (repeat runs, --jobs 1 vs 8, traces; fast path vs the queue route) =="
cargo test -q --release -p kacc-bench --test determinism
cargo test -q --release -p kacc-collectives --test fastpath_equivalence

echo "== differential suites (event queue, fluid servers vs their test oracles; mailbox, heap, scope units) =="
# Tier-1 runs these in debug; release is the build every figure uses.
cargo test -q --release -p kacc-sim-core -p kacc-machine --lib

echo "== persona pins (library personas bit-for-bit vs the pre-port capture) =="
cargo test -q --release -p kacc --test persona_pins

echo "== cluster pins (Fig 17 compiled two-level plans bit-for-bit vs the pre-port capture, plus the netsim units) =="
cargo test -q --release -p kacc-netsim

echo "== plan pins and whole-team checks (reduction pins bit-for-bit, rooted plan digests; reduction, rooted, two-level and pt2pt plans run whole-team on the abstract machine) =="
cargo test -q --release -p kacc-collectives --test sim_reduce --test reduce_plans --test rooted_plans --test hier_plans --test pt2pt_plans

echo "== real transport (ring units, forked process_vm_readv collectives, slab and keyed-receive checks) =="
cargo test -q --release -p kacc-native

echo "== examples run (not only compile) =="
cargo run --release -q --example quickstart
cargo run --release -q --example native_overhead
cargo run --release -q --example transpose_app -- 16 256
cargo run --release -q --example ablations

echo "== chaos suite (fixed seed corpus + one fresh seed) =="
# The chaos tests always run their fixed corpus; KACC_CHAOS_SEED adds one
# fresh seed on top. Echoed up front so a failure is reproducible with
# `KACC_CHAOS_SEED=<seed> cargo test -p kacc-collectives --test chaos`
# (every assertion message also carries the seed it failed under).
chaos_seed="${KACC_CHAOS_SEED:-$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')}"
echo "[chaos fresh seed: ${chaos_seed}]"
KACC_CHAOS_SEED="$chaos_seed" cargo test -q --release -p kacc-collectives --test chaos

echo "== membership chaos (kill-k recovery, fixed corpus + fresh seed) =="
# Silent-kill fault plans: k in {1,2} ranks die mid-collective; survivors
# must detect, agree, shrink, and re-execute with verified payloads on the
# simulator (fixed kill schedules pinned bit for bit), plus a fault-free
# run on the thread transport. Same seed protocol as the chaos suite
# above; reproduce with
# `KACC_CHAOS_SEED=<seed> cargo test -p kacc-collectives --test membership_chaos`.
echo "[membership chaos fresh seed: ${chaos_seed}]"
KACC_CHAOS_SEED="$chaos_seed" cargo test -q --release -p kacc-collectives --test membership_chaos

echo "== trace-validate (Chrome-trace export schema) =="
trace_tmp="$(mktemp -t kacc-trace-XXXXXX.json)"
fault_tmp="$(mktemp -t kacc-fault-plan-XXXXXX.txt)"
csv_tmp="$(mktemp -d -t kacc-csv-XXXXXX)"
trap 'rm -rf "$trace_tmp" "$fault_tmp" "$csv_tmp"' EXIT
cargo run --release -q -p kacc-bench --bin repro -- --quick --trace-out "$trace_tmp"
cargo run --release -q -p kacc-trace --bin trace-validate -- "$trace_tmp"

# The faulty timeline must validate too: recovery spans (fault:*,
# retry:*, fallback:*) ride the same Chrome-trace schema.
printf 'seed 42\nrule prob=0.05 kind=transient errno=11\nrule ops=cma_read prob=0.25 max=2 kind=truncate frac=1/2\n' > "$fault_tmp"
cargo run --release -q -p kacc-bench --bin repro -- --quick --fault-plan "$fault_tmp" --trace-out "$trace_tmp"
cargo run --release -q -p kacc-trace --bin trace-validate -- "$trace_tmp"

echo "== artifact contract (full-scale repro --csv all is byte-identical to results/) =="
# The committed CSVs are what every figure claims; a change that moves a
# virtual nanosecond in any of them fails here. Refresh them (and
# repro_full.txt) only for an intended behaviour change:
#   repro all --csv results/ > repro_full.txt
cargo run --release -q -p kacc-bench --bin repro -- --csv "$csv_tmp" all >/dev/null
diff -r results "$csv_tmp"

echo "== metrics snapshot determinism (--jobs 1 vs 4) =="
cargo test -q --release -p kacc-bench --test metrics_determinism

echo "== perf-regression gate (bench-regress units, then bench-regress vs committed baseline) =="
# Hard-fails (exit 1) on any event-count or metric drift from the
# committed BENCH_BASELINE.json; brand-new metric keys only warn (additions,
# not regressions). Tier-1 leaves kacc-bench out, so its units run here.
# Refresh the baseline after an intentional behavior change via
#   cargo run --release -p kacc-bench --bin bench-regress -- --write-baseline BENCH_BASELINE.json
cargo test -q --release -p kacc-bench --bin bench-regress
cargo run --release -q -p kacc-bench --bin bench-regress -- \
  --baseline BENCH_BASELINE.json --out "$out/bench-regress-verdict.json"
cat "$out/bench-regress-verdict.json"

echo "== bench metrics snapshot =="
# Quick-scale events/sec + wall-clock snapshot, including the p=64
# one-to-all probe (the PR-4 acceptance metric) and wake-storm
# diagnostics, plus the always-on metrics registry dump. Kept out of git
# status noise: CI uploads them.
cargo run --release -q -p kacc-bench --bin repro -- --quick --bench-out "$out/BENCH_quick.json" --metrics-out "$out/METRICS_quick.json" all >/dev/null
cat "$out/BENCH_quick.json"

echo "== benchmark package (public-API drift fails here, not in the pipeline) =="
# benchmark/ is a package of its own reaching the crates through
# benchmark/src/api.rs only; building and testing it here means a rename
# that breaks that file fails CI.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "CI gates all green."
