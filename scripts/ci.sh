#!/usr/bin/env bash
# Offline CI for the IPDS reproduction: everything here runs with no
# network access (external dev-harnesses are vendored in `vendor/`).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> rustfmt"
cargo fmt --all -- --check

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy (analysis-side crates, explicit)"
for crate in ipds-ir ipds-analysis ipds-dataflow ipds-absint; do
    cargo clippy -p "$crate" --all-targets -- -D warnings
done

echo "==> no process-global mutable state in library or binary sources"
# Every cache or counter is owned by the caller that builds it: no
# OnceLock/LazyLock, thread_local!, static mut, or static Mutex/RwLock/atomic.
global_state='OnceLock|LazyLock|thread_local!|static mut |static [A-Za-z_0-9]+ *: *[^=]*(Mutex|RwLock|Atomic)'
if grep -rnE "$global_state" crates/*/src; then
    echo "process-global mutable state found (above)" >&2
    exit 1
fi
echo "no process-global mutable state"

echo "==> rustdoc (deny warnings: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1 build + tests"
cargo build --release --workspace
cargo test -q --release --workspace

echo "==> benchmark workspace (builds against the library API; smoke runs every workload)"
# benchmark/ is its own cargo workspace, so the tier-1 step never compiles
# it; its smoke test runs every workload at --seconds 0 and checks digests.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "==> pipeline gate (verify tables, all workloads)"
cargo run -q --release -p ipds --bin ipdsc -- \
    build --workloads --verify-tables

echo "==> SSA gate (promotion window on: every workload builds)"
# Build determinism itself is tier-1: tests/pipeline_determinism.rs builds
# every workload twice under each optimizer, promotion and prune setting
# and compares the image bytes.
cargo run -q --release -p ipds --bin ipdsc -- \
    build --workloads --promote 50 > /dev/null
cargo run -q --release -p ipds --bin ipdsc -- \
    build --workloads --promote 100 > /dev/null
echo "promotion window builds every workload"

echo "==> prune gate (feasibility pruning: every workload builds, lint-clean)"
cargo run -q --release -p ipds --bin ipdsc -- \
    build --workloads --prune > /dev/null
cargo run -q --release -p ipds --bin ipdsc -- \
    build --workloads --prune --promote 50 > /dev/null
echo "pruned builds succeed"
cargo run -q --release -p ipds --bin ipdsc -- \
    lint --workloads --prune

echo "==> lint gate (table soundness audit, all workloads; fails on any LintError)"
cargo run -q --release -p ipds --bin ipdsc -- \
    lint --workloads

echo "==> lint gate at full register promotion (erosion must stay sound)"
cargo run -q --release -p ipds --bin ipdsc -- \
    lint --workloads --promote 100

echo "==> property suites (vendored mini-proptest)"
export PROPTEST_CASES="${PROPTEST_CASES:-64}"
cargo test -q --release --features props
for crate in ipds-ir ipds-dataflow ipds-analysis ipds-absint ipds-parallel; do
    cargo test -q --release -p "$crate" --features props
done
# The range and interval laws and map_indexed's determinism property take
# well under a second, so they also run at the vendored default of 256
# cases: 64 cases missed a Range::shift wraparound that 256 cases find.
for crate in ipds-dataflow ipds-absint ipds-parallel; do
    PROPTEST_CASES=256 cargo test -q --release -p "$crate" --features props
done
# The decoded interpreter against the IR-walking reference: random
# generated programs, random run_steps chunkings and a random
# snapshot/restore point, also at 256 cases.
PROPTEST_CASES=256 cargo test -q --release --features props --test reference_interp

echo "==> bench harness compiles (vendored mini-criterion)"
cargo build --release -p ipds-runtime --benches --features bench-harness

echo "==> campaign smoke (fig7 phase, 10 attacks/workload)"
cargo run -q --release -p ipds-bench --bin exp_all -- fig7 10

echo "==> fault-injection gate (every checksummed image flip must be rejected)"
cargo run -q --release -p ipds --bin ipdsc -- \
    faults --workloads --flips 24 --seed 2006 --threads 4

echo "==> serve smoke (fleet monitor must surface every injected tamper)"
# `ipdsc serve` exits nonzero if any shadow-validated injected tamper is
# missed or any root cause comes out wrong, at both 1 worker and many.
cargo run -q --release -p ipds --bin ipdsc -- \
    serve --workloads all --sessions 32 --threads 1
cargo run -q --release -p ipds --bin ipdsc -- \
    serve --workloads all --sessions 32 --threads 4

echo "==> results gate (exp_all 100 must regenerate results/exp_all.txt byte-for-byte)"
# The full run's stdout is deterministic. It also rewrites the committed
# results/bench_campaign.json (gated byte-for-byte at two thread counts by
# crates/bench/tests/exp_all_phases.rs, in the tier-1 step above) and the
# uncommitted results/bench_timing.json, which holds only the run's thread
# count and the scaling sweep the scaling gate reads below.
diff <(cargo run -q --release -p ipds-bench --bin exp_all -- 100) results/exp_all.txt \
    || { echo "exp_all 100 no longer reproduces results/exp_all.txt"; exit 1; }
echo "results/exp_all.txt reproduced"

echo "==> repeated-batch gate (back-to-back batches stay bit-identical)"
# Back-to-back batches and whole campaigns must not drift: 100
# consecutive map_indexed calls vs. the serial loop at 1/2/4/8 threads,
# repeated warm-started campaigns must match serial at every thread
# count, and where the service's flushes fall must be invisible in
# results.
cargo test -q --release -p ipds-parallel repeated_calls_match_the_serial_loop
cargo test -q --release --test parallel_campaigns repeated_campaigns_stay_bit_identical
cargo test -q --release --test service_fleet flush_points_never_change_results

echo "==> hostile-stream gate (malformed GuestEvent streams are typed incidents, never panics)"
# Each malformed stream must open exactly one isolated ProtocolViolation
# with its typed cause, 10k calls must stop at the checker's frame cap with
# one FrameStackOverflow, a hostile session must leave the rest of a fleet
# untouched at 1 and 4 workers, and the fast checker must agree with the
# reference checker written from paper §5 on golden, tampered and
# malformed streams, per event, in on_branch_run runs and through
# IpdsChecker::replay over seeded chunks. The checker's own edge tests
# pin replay's empty, frameless and whole-vs-per-event cases.
cargo test -q --release --test service_fleet \
    malformed_stream_opens_protocol_violation
cargo test -q --release --test service_fleet \
    unbounded_calls_open_one_protocol_violation
cargo test -q --release --test service_fleet \
    a_hostile_session_leaves_the_rest_of_the_fleet_untouched
cargo test -q --release --test reference_checker
cargo test -q --release -p ipds-runtime --test checker_edges

echo "==> interval reference gate (the live-register interval analyzer matches the all-registers reference)"
# Every block's reachability and entry variables, and every branch edge's
# feasibility and variables, must equal the BTreeMap/all-registers
# fixpoint's on the extended workloads and 600 generated programs, over
# the full CFG and every prune-cfg view.
cargo test -q --release -p ipds-absint --test interval_reference

echo "==> scaling gate (every thread count must pull its weight; see docs/PERF.md)"
# The sweep self-calibrates each point to >=250 ms of measured work, so
# the numbers are out of thread-spawn-noise territory, then times T1, T2,
# T4 and T8 interleaved over 5 repeats: every row records the workload it
# timed ("attacks"), its median wall time ("seconds") and the median of
# the per-repeat Tn/T1 ratios ("speedup").
# EVERY multi-thread point is gated against the 1-thread baseline — not
# just the last row. On a real multicore box any speedup below 1.0 is a
# regression: with >=250 ms of work per point, spawning a call's helper
# threads costs nothing measurable, so parallelism is at worst free. A
# single-hardware-thread box can at best tie, so the floor there only
# catches a fan-out collapse (a serialization bug reads ~0.1x; honest
# time-slicing reads ~0.9-1.0x).
cores=$(nproc 2>/dev/null || echo 1)
floor=1.00
[ "$cores" -le 1 ] && floor=0.70
scaling_block=$(sed -n '/"scaling": \[/,/\]/p' results/bench_timing.json)
for key in '"attacks":' '"seconds":' '"speedup":'; do
    grep -q "$key" <<<"$scaling_block" \
        || { echo "scaling rows missing $key in results/bench_timing.json"; exit 1; }
done
mapfile -t rows < <(grep -o '"threads": [0-9]*.*"speedup": [0-9.]*' <<<"$scaling_block" \
    | sed 's/"threads": \([0-9]*\).*"speedup": \([0-9.]*\)/\1 \2/')
[ "${#rows[@]}" -ge 2 ] || { echo "scaling sweep missing from results/bench_timing.json"; exit 1; }
fail=0
for row in "${rows[@]:1}"; do
    t=${row%% *}
    sp=${row##* }
    awk -v t="$t" -v sp="$sp" -v floor="$floor" 'BEGIN {
        if (sp < floor) {
            printf "scaling regression: %sT speedup %.2fx < floor %.2fx\n", t, sp, floor
            exit 1
        }
        printf "scaling ok: %sT speedup %.2fx (floor %.2fx)\n", t, sp, floor
    }' || fail=1
done
[ "$fail" -eq 0 ] || { echo "scaling gate failed"; exit 1; }

echo "CI OK"
