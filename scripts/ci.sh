#!/usr/bin/env bash
# The full local gate: formatting, lints-as-errors, build, tests.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Workspace invariants beyond what rustc/clippy can see: no-panic server
# crates, poison recovery on shared locks, metric and fault-site names in
# sync with their docs, protocol tags in range, fixed-seed determinism,
# lock-order cycles, reactor-blocking reachability, gauge balance.
# Exit 1 on any finding; the JSON report is archived for trend tracking,
# and the server crates' lock-order graph (who holds what while acquiring
# what) is archived even when clean so a new held-across edge shows up in
# review. See docs/ANALYSIS.md.
echo "==> ptm-analyze"
mkdir -p out
cargo run -q -p ptm-analyze -- check --json-out out/analysis.json \
    --lockgraph-out out/lockgraph.json

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace --quiet

# The rpc loopback suite opens real sockets and spawns daemon threads; a
# hang here should fail CI, not wedge it. `timeout` sends SIGTERM after the
# bound (exit 124), which set -e turns into a failure.
echo "==> rpc loopback integration tests (bounded)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test rpc_loopback

# Concurrency stress on the sharded store: parallel uploaders + queriers
# must answer bit-for-bit like a sequential run, and the query cache must
# invalidate per location. Same bounding rationale as above.
echo "==> shard stress tests (bounded)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test shard_stress

# Seeded chaos: deterministic fault plans (disk-full, fsync failure,
# connection resets, truncated frames, overload bursts) against a real
# daemon. The plans are fixed-seed, so this is a regression gate, not a
# fuzzer; the whole suite is budgeted to finish in seconds.
echo "==> chaos suite (bounded, fixed seeds)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test chaos

# Segment-lifecycle kill storms, called out separately so a storage-engine
# regression fails with its own banner: kills landing inside rotation and
# compaction must lose no acked record and answer bit-exactly after reopen.
echo "==> storage-engine kill storms (bounded, fixed seeds)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test chaos kill_during

# Connection-scale storms against the reactor: hundreds of slow-loris
# dribblers must not starve healthy clients, a thousand concurrent
# connections must all be answered, and the pipelined upload path must be
# bit-for-bit equivalent to the batch path.
echo "==> reactor storms (bounded)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test reactor_storm

# Overload storms: a saturated worker pool across five fixed seeds must
# drop deadline-doomed work without executing it, keep Stats answerable
# at full saturation, drain with zero acked-record loss, and settle every
# queue-depth and in-flight gauge back to zero.
echo "==> overload storms (bounded, fixed seeds)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test overload_storm

# The loopback-daemon benchmark's own tests: its correctness-gate unit test
# and a 2 s smoke of every workload, each checking every answer bit-exactly
# and every record acked against a real daemon, so the upload, hydration and
# frame paths the benchmark times are exercised on every pass.
echo "==> perfbench tests (bounded)"
timeout 600 cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Traced loopback smoke: a real daemon with tracing on, one upload and one
# query against it, then the span JSONL checked against the schema
# documented in docs/OBSERVABILITY.md. The sample is archived as a CI
# artifact (out/trace-sample.jsonl) so a schema change shows up in review.
echo "==> traced loopback smoke"
ptm="target/release/ptm"
rm -f out/trace-sample.jsonl
rm -rf out/trace-smoke.ptma
"$ptm" serve --archive out/trace-smoke.ptma --addr 127.0.0.1:17171 \
    --duration-secs 4 --trace out/trace-sample.jsonl --quiet &
serve_pid=$!
# The client retries refused connections, so no startup sleep is needed.
"$ptm" upload --addr 127.0.0.1:17171 --location 5 --periods 3 \
    --vehicles 80 --persistent 20 --quiet
"$ptm" query --addr 127.0.0.1:17171 --kind point --location 5 --periods 3 --quiet
wait "$serve_pid"
"$ptm" trace-validate --file out/trace-sample.jsonl

# Cold-start smoke for storage engine v2: populate an archive with enough
# uploads to rotate a few segments, kill the daemon, reopen with tracing on,
# and assert the startup went through the indexed path (a recorded
# `store.index.load` span) instead of a full replay.
echo "==> cold-start smoke (O(index) reopen)"
rm -f out/trace-coldstart.jsonl
rm -rf out/coldstart.ptma
"$ptm" serve --archive out/coldstart.ptma --addr 127.0.0.1:17172 \
    --rotate-bytes 1024 --duration-secs 4 --quiet &
serve_pid=$!
"$ptm" upload --addr 127.0.0.1:17172 --location 7 --periods 12 \
    --vehicles 400 --persistent 100 --quiet
wait "$serve_pid"
# The shutdown checkpoint seals the tail, so this reopen must go through
# sealed-index loads only — no record replay.
"$ptm" serve --archive out/coldstart.ptma --addr 127.0.0.1:17172 \
    --duration-secs 1 --trace out/trace-coldstart.jsonl --quiet
grep -q 'store.index.load' out/trace-coldstart.jsonl \
    || { echo "ci: cold start did not record a store.index.load span" >&2; exit 1; }
rm -rf out/trace-smoke.ptma out/coldstart.ptma

echo "ci: all green"
