#!/bin/sh
# Tier-1 gate: build, test, and lint the workspace.
#
# Every step runs under a wall-clock budget (seconds). A step that blows
# its budget fails the gate: slow tests are treated as regressions, not
# background noise. The slowest steps are reported at the end so creep
# is visible before it becomes a failure. (libtest's per-test
# --report-time is still nightly-only, so timing is per suite/step.)
#
# Static analysis is two steps. `clippy` states what a clippy lint can:
# the nondeterminism bans of clippy.toml (denied workspace-wide in
# Cargo.toml) and the `#![deny(...)]` lints at the top of the modules
# and crates they govern (no panicking call or unchecked index on the
# recovery path, no float arithmetic a serializer reaches); it fails on
# any error-level diagnostic, and warnings do not fail it. The compiler
# keeps the sequence fields private to their modules. `lint` (ftgm-lint)
# keeps the one rule clippy cannot say, R7: no panic reachable through
# the call graph from a recovery entry point; it exits 1 on any finding,
# and its only suppression is an inline
# `// lint:allow(transitive-panic)`. See docs/STATIC_ANALYSIS.md.
set -eu
cd "$(dirname "$0")"

REPORT=$(mktemp)
trap 'rm -f "$REPORT"' EXIT

# step <name> <budget-seconds> <command...>: run, record, enforce.
step() {
    _name="$1"
    _budget="$2"
    shift 2
    _start=$(date +%s)
    "$@"
    _dur=$(( $(date +%s) - _start ))
    printf '%6ds  %-28s (budget %4ss)\n' "$_dur" "$_name" "$_budget" >> "$REPORT"
    if [ "$_dur" -gt "$_budget" ]; then
        echo "ci: step '$_name' took ${_dur}s, over its ${_budget}s budget" >&2
        sort -rn "$REPORT" >&2
        exit 1
    fi
}

step build 900 cargo build --release
# The repo benchmark is its own package built against the public API of
# ten crates, and nothing else here compiles it. Build it, then run all
# five workloads as one-second children, covering the scheduler and
# library path on both variants (hang_recovery is the only workload that
# runs restore_port_state; mpi256 is the only 256-rank world, with the
# lock-step bursts the scheduler is sized for; stream_large is the only
# one whose pinned buffers are reused across message sizes, so a pool
# that handed out a buffer still in flight corrupts a payload there;
# fat_tree256_mix has the most hosts on the host-memory DMA path).
# A child exits 0 even when its correctness gate counted failures, so
# the gate is its last line: `r <messages> 0`, the 0 counting lost,
# duplicated and corrupted messages.
benchmark_child() {
    _last=$(target/release/ftgm-benchmark --child "$1" --seed 7 --seconds 1 | tail -n 1)
    case "$_last" in
    "r "*" 0") ;;
    *)
        echo "benchmark child $1: last line '$_last', wanted 'r <n> 0'" >&2
        return 1
        ;;
    esac
}
benchmark_smoke() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir target
    benchmark_child pingpong_small
    benchmark_child hang_recovery
    benchmark_child mpi256
    benchmark_child stream_large
    benchmark_child fat_tree256_mix
}
step benchmark-smoke 300 benchmark_smoke
step test-debug 1800 cargo test -q
# Chaos smoke + determinism regression: the deterministic multi-fault
# scenario set, the byte-identical-exports check across repeated runs,
# the MPI summaries across thread counts, and the staleness gate that
# renders the ar-rd-256-none MPI cell and compares it with the committed
# BENCH_mpi.json. All run in release (the scenarios simulate seconds of
# cluster time; debug builds are gated off with #[ignore] to keep the
# tier under budget). ftgm-bench's cli suite rides along: it checks the
# bins' argument handling and that the nine quick paper bins (table2,
# table3, fig7, fig8, fig9, watchdog_gap and the three ablations) print
# their tracked results/ files byte for byte.
step chaos-determinism 900 cargo test --release -q -p ftgm-core \
    --test chaos_smoke --test determinism -p ftgm-bench --test cli
# The other suite with release-gated tests, which nothing else runs: the
# full corpus replay against its goldens, and its thread-count
# invariance down to every trace and metrics export
# (crates/scenario/tests/corpus.rs).
step corpus-release 600 cargo test --release -q -p ftgm-scenario --test corpus
# Allocation budget of the steady-state message path: a two-node
# ping-pong under a counting global allocator must stay within
# tests/alloc_budget.rs's per-message budget and schedule no boxed
# closure. Its own binary (the allocator is process-wide) and its own
# step, so an overrun is named here rather than buried in a suite.
step alloc-budget 300 cargo test --release -q -p ftgm-core --test alloc_budget
# The examples assert what they print (recoveries, exactly-once
# delivery, the 2 s bound), but `cargo test` only compiles them. Run
# each one in release; a nonzero exit (a failed assert) fails the step.
run_examples() {
    for _src in examples/*.rs; do
        _ex=$(basename "$_src" .rs)
        cargo run --release -q -p ftgm-core --example "$_ex" > /dev/null || {
            echo "example $_ex failed" >&2
            return 1
        }
    done
}
step examples 120 run_examples
# Library and binary code only (`--lib --bins`): test code may read the
# wall clock, unwrap or index freely. Every `#![deny(...)]` it enforces
# is pinned by crates/lint/tests/workspace_gate.rs.
step clippy 300 cargo clippy --workspace --lib --bins --offline -q
mkdir -p results
# R7 (transitive-panic), the one rule no clippy lint states.
step lint 120 cargo run -q -p ftgm-lint -- --report results/lint_report.json
# Rustdoc with intra-doc links is part of the API (the trace table in
# crates/sim/src/trace.rs generates half of its output as docs); a
# broken or ambiguous link fails here.
step docs 300 env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q
# Chaos corpus replay: every scenarios/*.ftsc file parses, compiles,
# runs once, matches its `expect` verdict, violates no oracle, and
# produces JSON byte-identical to scenarios/golden/<name>.json; the
# fat-tree spine-death scenario must also restore goodput by reroute.
# The nine {two_node,star8,ring8}-*-load-*hang files are the
# recovery-under-load SLO sweep: steady p99 overhead against a plain-GM
# twin, and a fault-window blackout under 2 s. The six
# fat_tree{8,64,256}-{steady,hang} files are the recovery-at-scale
# sweep: the same 2 s bound on fabrics of up to 256 hosts. Rewrites the
# rollup BENCH_chaos.json on every build and drops each
# scenario's trace/metrics exports under target/chaos/. After an
# intentional behavior change, regenerate the goldens with: cargo run
# --release -p ftgm-bench --bin chaos -- --update (see docs/SCENARIOS.md).
step chaos-bench 900 cargo run --release -q -p ftgm-bench --bin chaos
# MPI-tier smoke: the small recovery-under-collective cells (16-rank
# allreduce/broadcast, 8-rank RMA, each with a fault-free twin plus hang
# and spare-restart variants) as a differential gate: fault cells must
# reproduce their twin's checksum bit-for-bit and stay under the 2 s
# blackout bound. The full {256,1024}-rank sweep that rewrites
# BENCH_mpi.json is run manually: cargo run --release -p ftgm-bench
# --bin mpi.
step mpi-bench 600 cargo run --release -q -p ftgm-bench --bin mpi -- --smoke

# Schema sanity for the summaries the steps above regenerate: they must
# carry the expected keys and stay integer-valued (a float would mean
# platform-dependent serialization). BENCH_mpi.json is not rewritten by
# the --smoke step; its committed bytes are gated by tests/determinism.rs
# (schema in the debug tier, values against a fresh run in the
# chaos-determinism step above).
for key in '"schema": "ftgm-chaos-v2"' '"corpus"' '"mismatches": 0' \
    '"violations": 0' '"golden_diffs": 0' '"scenarios"' '"expected"' \
    '"verdict"' '"resolutions"' '"zone_reroutes"' '"max_blackout_ns"' \
    '"fabric_drops"' '"bad_link_drops"'; do
    grep -q "$key" BENCH_chaos.json || {
        echo "BENCH_chaos.json: missing required key $key" >&2
        exit 1
    }
done
# The lint report is a build artifact with the same contract as the
# bench summaries: stable schema, zero findings, and no float values
# (counts and 1-based source positions only).
for key in '"schema": "ftgm-lint-v2"' '"rules"' '"count": 0' '"findings"'; do
    grep -q "$key" results/lint_report.json || {
        echo "results/lint_report.json: missing required key $key" >&2
        exit 1
    }
done
# The scenario goldens are the same writer's output and hold to the
# same contract.
for f in BENCH_chaos.json BENCH_mpi.json results/lint_report.json scenarios/golden/*.json; do
    if grep -Eq ':[[:space:]]*-?[0-9]+\.' "$f"; then
        echo "$f: non-integer numeric value found" >&2
        exit 1
    fi
done

echo
echo "ci steps by wall time (slowest first):"
sort -rn "$REPORT"
