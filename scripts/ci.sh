#!/usr/bin/env bash
# Full CI pipeline: tier-1 build + tests, then the extended fault-injection
# torture suites, then the standing benchmark's correctness runs.
#
#   scripts/ci.sh            # build + tests + failpoints torture + archis-bench checks
#
# Fully offline: all external deps are path shims under shims/ — this
# script never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${ARCHIS_SKIP_LINT:-0}" == "0" ]]; then
    echo "== static gates: rustfmt =="
    cargo fmt --check

    echo "== static gates: clippy (zero-warning wall) =="
    cargo clippy --workspace --all-targets -- -D warnings

    echo "== static gates: archis-lint =="
    # Repo-specific analyses — token scans (WAL write discipline,
    # session-layer, lock-order cycles, locks held across I/O, the
    # panic-path/slice-index ratchet against lint-baseline.toml, the
    # error-drop and planner-bypass audits) plus the flow-sensitive
    # CFG/dataflow passes (pin-leak, wal-bracket, corrupt-taint).
    # Non-zero exit fails CI. ARCHIS_SKIP_LINT=1 skips all three static
    # gates (useful while iterating locally). The machine-readable report
    # (one JSON object per finding, lint:allow'd sites included with
    # their marker line) is archived as a CI artifact.
    cargo build -q -p archis-lint --release
    lint_t0=$(date +%s.%N)
    ./target/release/archis-lint --format json | tee target/lint-report.json
    lint_t1=$(date +%s.%N)
    # The lint runs on every push: hold the full scan under 5 seconds so
    # it stays cheap enough to never be skipped.
    awk -v a="$lint_t0" -v b="$lint_t1" 'BEGIN {
        dt = b - a
        if (dt > 5.0) { printf "archis-lint took %.2fs > 5s budget\n", dt; exit 1 }
        printf "archis-lint wall time %.2fs (budget 5s)\n", dt
    }'
    echo "lint report archived at target/lint-report.json"
else
    echo "== static gates: skipped (ARCHIS_SKIP_LINT=1) =="
fi

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: root test suite =="
cargo test -q

echo "== workspace test suite =="
cargo test -q --workspace

echo "== failpoints torture: relstore crash sweeps =="
# crash_torture.rs: exhaustive crash-at-every-write / crash-at-every-fsync
# sweeps plus the 200-seed random sweep with torn writes, all on the one
# synchronous WAL write path.
cargo test -q -p relstore --features failpoints

echo "== failpoints torture: 200-seed ArchIS archival crash runs =="
# Seeded kills mid-archival; each recovery is checked against the §6.1
# segment invariants and tstart/tend timeline coalescing.
cargo test -q --features failpoints --test durability --test wal_props

echo "== failpoints torture: apply_all fsync-boundary sweep =="
# Crash at every fsync boundary of the batched ingest workload; recovery
# must always land on a whole-batch state.
cargo test -q --features failpoints --test batch_apply

echo "== failpoints torture: MVCC snapshot-reader sweep =="
# Writer-vs-snapshot-readers torture: the 1000-batch run, the 200-seed
# sweep, crash-at-every-fsync with readers in flight, and the PR-5
# degradation regressions. Every reader dump must be byte-identical to a
# serial execution at its pinned commit LSN.
cargo test -q --features failpoints --test mvcc_torture

echo "== failpoints torture: WAL-shipping replica kill sweep =="
# Kill the replica at every write and every fsync mid-replay (exhaustive
# position sweeps), then a 200-seed randomized sweep mixing seeded kills
# with channel faults (drop/duplicate/reorder/truncate/bit-flip). After
# recovery + catch-up every replica must be page-for-page byte-identical
# to the primary; injected content divergence must surface as a durable
# quarantine that `archis-fsck check --against` flags.
cargo test -q --features failpoints --test replica_torture

echo "== failpoints torture: 240-seed fsck bit-rot sweep =="
# Seeded at-rest single-bit flips on a checkpointed archive: scrub must
# detect every flip at the right page (zero silent wrong answers), and
# periodic repairs of index/counter damage must round-trip to dumps
# identical to the uncorrupted archive.
cargo test -q -p archis-fsck --features failpoints

echo "== standing benchmark: unit tests, self-check, workloads on held-out seeds =="
# archis-bench checks every answer against its reference model. The
# self-check runs all six workloads once; the query workloads and `mixed`
# then run on seeds kept out of development (not 42, not 7), because a
# planner change that is wrong only for some ids or dates shows up as a
# failed operation on a fresh seed, not as a slower one. They run at the
# contract's length (BENCHMARK.json run_seconds = 8): the query sequence
# is seeded, so a wrong answer at position N is only reached by a run long
# enough to get there. Seed 42 repeats the write workloads at that length
# (its L stream once carried a hire-day leave). Timings are not gated
# here — only `"correct": true, "failed": 0` on every result line.
cargo test --manifest-path benchmark/Cargo.toml -q
bench=(cargo run --release --quiet --manifest-path benchmark/Cargo.toml --)
"${bench[@]}" --verify-only
check() { # workload seed
    local line
    line=$("${bench[@]}" --workload "$1" --seed "$2" --seconds 8 --trace 0 | tail -n 1)
    if ! grep -Eq '"correct": ?true' <<<"$line" || ! grep -Eq '"failed": ?0[,}]' <<<"$line"; then
        echo "archis-bench $1 seed $2: $line"
        exit 1
    fi
    echo "archis-bench $1 seed $2: correct, 0 failed"
}
for seed in 1009 2017 4099; do
    for workload in query-warm query-cold query-compressed mixed; do
        check "$workload" "$seed"
    done
done
for workload in ingest-archive mixed; do
    check "$workload" 42
done

echo "CI OK"
