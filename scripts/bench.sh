#!/usr/bin/env bash
# Micro-benchmark snapshot: runs the stub-criterion benches that this
# repo tracks release-over-release and distills their medians into five
# committed JSON files (BENCH_6.json, BENCH_7.json, BENCH_8.json,
# BENCH_9.json, and BENCH_10.json by default).
#
#   ./scripts/bench.sh [output.json] [storage-output.json] [reactor-output.json] [deadline-output.json] [analyze-output.json]
#
# Tracked medians (ns per iteration), first file:
#   encoding/encode_10k_vehicles     vehicle encoding, 10k per iteration
#   bitmap/and_join_10_mixed_sizes   fused replicate-AND join across 10 bitmaps
#   bitmap/point_counts_10_mixed_sizes  the point query's fused count kernel
#                                     (two half joins + their AND) on the same maps
#   rpc/frame_roundtrip_4k_record    frame write + CRC-checked read back
#   trace/ingest_untraced            loopback upload, tracing disabled
#   trace/ingest_traced              loopback upload, full span tree on
#
# Second file (the storage-engine-v2 cold-start and read-path numbers):
#   store/v2_open_100k               v2 manifest+index open, 100k records
#   store/read_hit                   historical read served by the page cache
#   store/read_miss                  historical read walking index + disk
#
# Third file (the reactor wire-path numbers):
#   frame/decode_in_place            FrameDecoder: reusable buffer, borrowed payload
#   frame/decode_copy                read_frame baseline: fresh Vec per frame
#   reactor/pipelined_ingest         16-record pipelined wave, coalesced commit
#   reactor/accept_latency           connect + ping with 512 idle connections held
#   trace/ingest_untraced            single-upload round trip, tracing off (same
#   trace/ingest_traced               runs as the first file — no re-measurement)
#
# Fourth file (the deadline-stamping overhead pair):
#   deadline/encode_unstamped        encode a ~4 KiB upload request, no deadline
#   deadline/encode_stamped          same request with the FLAG_DEADLINE budget
#
# Fifth file (the analyzer's own cost, over this repository's source):
#   analyze/files_scanned            workspace file count (a count, not ns —
#                                     files/sec = count * 1e9 / median_ns)
#   analyze/workspace_load           walk + read + lex the whole workspace
#   analyze/full_check               every rule over a loaded workspace
#   analyze/lock_analysis            call-graph build + lock-order analysis
#
# The stamped-vs-unstamped encode pair is the deadline-propagation
# guarantee in numbers: stamping the remaining budget into every attempt
# must cost no more than the four bytes it adds to the header.
# The traced-vs-untraced pair is the disabled-path guarantee in numbers:
# ingest_untraced must sit within noise of the pre-tracing baseline. The
# v1-vs-v2 open pair is the O(index) startup guarantee: v2 must open the
# same archive several times faster than a full replay. The in-place-vs-
# copy decode pair is the zero-copy guarantee: decode_in_place must not
# lose to the allocating baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_6.json}"
store_out="${2:-BENCH_7.json}"
reactor_out="${3:-BENCH_8.json}"
deadline_out="${4:-BENCH_9.json}"
analyze_out="${5:-BENCH_10.json}"
raw="$(mktemp)"
store_raw="$(mktemp)"
reactor_raw="$(mktemp)"
analyze_raw="$(mktemp)"
trap 'rm -f "$raw" "$store_raw" "$reactor_raw" "$analyze_raw"' EXIT

echo "==> cargo bench -p ptm-bench (tracked subset)"
cargo bench -p ptm-bench --bench micro -- encoding/encode_10k_vehicles | tee -a "$raw"
cargo bench -p ptm-bench --bench micro -- bitmap/and_join_10_mixed_sizes | tee -a "$raw"
cargo bench -p ptm-bench --bench micro -- bitmap/point_counts_10_mixed_sizes | tee -a "$raw"
cargo bench -p ptm-bench --bench micro -- rpc/frame_roundtrip_4k_record | tee -a "$raw"
cargo bench -p ptm-bench --bench obs_overhead -- trace/ingest | tee -a "$raw"

awk -v out="$out" '
/^bench: / { median[$2] = $4 }
END {
    n = split("encoding/encode_10k_vehicles bitmap/and_join_10_mixed_sizes " \
              "bitmap/point_counts_10_mixed_sizes " \
              "rpc/frame_roundtrip_4k_record trace/ingest_untraced " \
              "trace/ingest_traced", keys, " ")
    printf "{\n  \"units\": \"median_ns_per_iter\"" > out
    for (i = 1; i <= n; i++) {
        if (!(keys[i] in median)) {
            printf "bench.sh: no median captured for %s\n", keys[i] > "/dev/stderr"
            exit 1
        }
        printf ",\n  \"%s\": %s", keys[i], median[keys[i]] > out
    }
    print "\n}" > out
}' "$raw"

echo "==> wrote $out"
cat "$out"

echo "==> cargo bench -p ptm-bench --bench storage"
cargo bench -p ptm-bench --bench storage | tee -a "$store_raw"

awk -v out="$store_out" '
/^bench: / { median[$2] = $4 }
END {
    n = split("store/v2_open_100k store/read_hit store/read_miss", keys, " ")
    printf "{\n  \"units\": \"median_ns_per_iter\"" > out
    for (i = 1; i <= n; i++) {
        if (!(keys[i] in median)) {
            printf "bench.sh: no median captured for %s\n", keys[i] > "/dev/stderr"
            exit 1
        }
        printf ",\n  \"%s\": %s", keys[i], median[keys[i]] > out
    }
    print "\n}" > out
}' "$store_raw"

echo "==> wrote $store_out"
cat "$store_out"

echo "==> cargo bench -p ptm-bench --bench reactor"
cargo bench -p ptm-bench --bench reactor | tee -a "$reactor_raw"

# The trace/ingest medians are reused from the first run above ($raw), so
# the reactor snapshot shares the exact numbers the first file committed.
cat "$raw" >> "$reactor_raw"

awk -v out="$reactor_out" '
/^bench: / { median[$2] = $4 }
END {
    n = split("frame/decode_in_place frame/decode_copy " \
              "reactor/pipelined_ingest reactor/accept_latency " \
              "trace/ingest_untraced trace/ingest_traced", keys, " ")
    printf "{\n  \"units\": \"median_ns_per_iter\"" > out
    for (i = 1; i <= n; i++) {
        if (!(keys[i] in median)) {
            printf "bench.sh: no median captured for %s\n", keys[i] > "/dev/stderr"
            exit 1
        }
        printf ",\n  \"%s\": %s", keys[i], median[keys[i]] > out
    }
    print "\n}" > out
}' "$reactor_raw"

echo "==> wrote $reactor_out"
cat "$reactor_out"

awk -v out="$deadline_out" '
/^bench: / { median[$2] = $4 }
END {
    n = split("deadline/encode_unstamped deadline/encode_stamped", keys, " ")
    printf "{\n  \"units\": \"median_ns_per_iter\"" > out
    for (i = 1; i <= n; i++) {
        if (!(keys[i] in median)) {
            printf "bench.sh: no median captured for %s\n", keys[i] > "/dev/stderr"
            exit 1
        }
        printf ",\n  \"%s\": %s", keys[i], median[keys[i]] > out
    }
    print "\n}" > out
}' "$reactor_raw"

echo "==> wrote $deadline_out"
cat "$deadline_out"

echo "==> cargo bench -p ptm-bench --bench analyze"
cargo bench -p ptm-bench --bench analyze | tee -a "$analyze_raw"

# files_scanned is a count, not a median — the bench prints it in the same
# line shape so one awk pass collects everything.
awk -v out="$analyze_out" '
/^bench: / { median[$2] = $4 }
END {
    n = split("analyze/files_scanned analyze/workspace_load " \
              "analyze/full_check analyze/lock_analysis", keys, " ")
    printf "{\n  \"units\": \"median_ns_per_iter (files_scanned: count)\"" > out
    for (i = 1; i <= n; i++) {
        if (!(keys[i] in median)) {
            printf "bench.sh: no median captured for %s\n", keys[i] > "/dev/stderr"
            exit 1
        }
        printf ",\n  \"%s\": %s", keys[i], median[keys[i]] > out
    }
    print "\n}" > out
}' "$analyze_raw"

echo "==> wrote $analyze_out"
cat "$analyze_out"
