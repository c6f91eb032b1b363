//! The traced run's per-layer breakdown.
//!
//! Spans are recorded here, in the benchmark, around calls into each
//! crate's public functions on the run's own inputs; the program itself
//! gets no new spans. A call that contains another layer's call (a request
//! decode contains the record decode; a server estimate contains the core
//! estimator) is timed again at the inner layer on the same input, and the
//! outer layer's self time is its median minus the inner one's. The
//! daemon's own `queue_wait`/`lock_wait` spans and ptm-obs counters come
//! from the run's traced operations.

use crate::drive::{representative_bits, BenchResult, DaemonSpans, Query};
use crate::report::{Report, Samples};
use crate::workloads::{Latencies, Main};
use ptm_core::encoding::LocationId;
use ptm_core::record::TrafficRecord;
use ptm_core::{PointEstimator, PointToPointEstimator};
use ptm_net::CentralServer;
use ptm_rpc::proto::{decode_request, decode_response, encode_request, encode_response};
use ptm_rpc::{append_frame_with, FrameDecoder, Request, Response, ServerConfig};
use ptm_store::codec::{decode_record, encode_record};
use ptm_store::{SegmentStore, StoreOptions};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Store open and hydration, replayed in-process on the workload's store
/// while no daemon holds it.
pub struct StoreReplay {
    pub open_ms: Samples,
    pub hydrate_ms: Samples,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

fn store_options() -> StoreOptions {
    let config = ServerConfig::default();
    StoreOptions {
        sync_policy: config.sync_policy,
        rotate_bytes: config.rotate_bytes,
        ..StoreOptions::default()
    }
}

pub fn replay_store(store: &Path, locations: &[u64], rounds: usize) -> BenchResult<StoreReplay> {
    let mut replay = StoreReplay {
        open_ms: Samples::default(),
        hydrate_ms: Samples::default(),
        cache_hits: 0,
        cache_misses: 0,
    };
    for _ in 0..rounds {
        let began = Instant::now();
        let mut opened = SegmentStore::open(store, store_options())
            .map_err(|err| format!("store replay open: {err}"))?;
        replay.open_ms.push_duration_ms(began.elapsed());
        let began = Instant::now();
        for &location in locations {
            let records = opened
                .store
                .records_for_location(LocationId::new(location))
                .map_err(|err| format!("store replay read: {err}"))?;
            black_box(records);
        }
        replay.hydrate_ms.push_duration_ms(began.elapsed());
        replay.cache_hits += opened.store.cache_hits();
        replay.cache_misses += opened.store.cache_misses();
    }
    Ok(replay)
}

pub struct LayerInput<'a> {
    /// Names the span file.
    pub label: String,
    /// Records uploaded in the run, in upload order.
    pub uploads: Vec<TrafficRecord>,
    /// Records per upload call (and so per commit).
    pub commit: usize,
    pub queries: Vec<Query>,
    pub source: &'a (dyn Fn(u64, u32) -> TrafficRecord + Sync),
    pub work: &'a Path,
    pub store_replay: StoreReplay,
    pub store_bytes_per_record_byte: f64,
    pub latencies: &'a Latencies,
    /// The workload's main operation, for the tracing-overhead figure.
    pub main: Main,
    pub spans: &'a DaemonSpans,
    pub gen_late_ms: Samples,
}

/// One span recorded by the benchmark.
struct Span {
    op: u64,
    kind: &'static str,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    fn time<T>(
        &mut self,
        op: u64,
        kind: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let began = Instant::now();
        let out = black_box(f());
        let dur_ns = began.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op,
            kind,
            name,
            start_ns: (began - self.origin).as_nanos() as u64,
            dur_ns,
        });
        out
    }

    /// Durations of the `name` spans of `kind` operations, µs, each
    /// divided by `per` (the frames a span covered).
    fn per_call_us(&self, kind: &str, name: &str, per: f64) -> Samples {
        let mut s = Samples::default();
        for span in self
            .spans
            .iter()
            .filter(|s| s.kind == kind && s.name == name)
        {
            s.push(span.dur_ns as f64 / 1e3 / per);
        }
        s
    }

    /// Per operation of `kind`: the total time spent in each span name,
    /// then the median over operations, µs.
    fn per_op_us(&self, kind: &str) -> (usize, BTreeMap<&'static str, f64>) {
        let mut per_op: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.kind == kind) {
            *per_op
                .entry(span.op)
                .or_default()
                .entry(span.name)
                .or_default() += span.dur_ns as f64 / 1e3;
        }
        let mut names: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for totals in per_op.values() {
            for (name, us) in totals {
                names.entry(name).or_default().push(*us);
            }
        }
        (
            per_op.len(),
            names.into_iter().map(|(n, s)| (n, s.median())).collect(),
        )
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"kind\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.op, s.kind, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// One operation type's stage rows: `(row, span, inner spans subtracted)`.
type Rows = &'static [(&'static str, &'static str, &'static [&'static str])];

const UPLOAD_ROWS: Rows = &[
    (
        "rpc.encode_request",
        "rpc.encode_request",
        &["store.encode_record"],
    ),
    ("store.encode_record", "store.encode_record", &[]),
    ("rpc.frame_encode", "rpc.frame_encode", &[]),
    ("rpc.frame_decode", "rpc.frame_decode", &[]),
    (
        "rpc.decode_request",
        "rpc.decode_request",
        &["store.decode_record"],
    ),
    ("store.decode_record", "store.decode_record", &[]),
    ("store.append_flush", "store.append_flush", &[]),
    ("net.submit", "net.submit", &[]),
    ("rpc.reply", "rpc.reply", &[]),
];

const POINT_ROWS: Rows = &[
    ("rpc.encode_request", "rpc.encode_request", &[]),
    ("rpc.frame_encode", "rpc.frame_encode", &[]),
    ("rpc.frame_decode", "rpc.frame_decode", &[]),
    ("rpc.decode_request", "rpc.decode_request", &[]),
    ("net.gather", "net.point_query", &["core.point_estimate"]),
    ("core.point_estimate", "core.point_estimate", &[]),
    ("rpc.reply", "rpc.reply", &[]),
];

const P2P_ROWS: Rows = &[
    ("rpc.encode_request", "rpc.encode_request", &[]),
    ("rpc.frame_encode", "rpc.frame_encode", &[]),
    ("rpc.frame_decode", "rpc.frame_decode", &[]),
    ("rpc.decode_request", "rpc.decode_request", &[]),
    ("net.gather", "net.p2p_query", &["core.p2p_estimate"]),
    ("core.p2p_estimate", "core.p2p_estimate", &[]),
    ("rpc.reply", "rpc.reply", &[]),
];

fn frame(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for payload in payloads {
        append_frame_with(&mut out, |buf| buf.extend_from_slice(payload));
    }
    out
}

/// Feeds `bytes` through a fresh `FrameDecoder` the way the reactor does,
/// returning the frame count.
fn decode_frames(bytes: &[u8]) -> BenchResult<usize> {
    let mut decoder = FrameDecoder::new(ServerConfig::default().max_frame_len);
    let mut reader = bytes;
    let mut frames = 0;
    loop {
        while decoder
            .next_frame()
            .map_err(|err| format!("frame decode: {err:?}"))?
            .is_some()
        {
            frames += 1;
        }
        if reader.is_empty() {
            return Ok(frames);
        }
        decoder
            .read_from(&mut reader)
            .map_err(|err| format!("frame read: {err}"))?;
    }
}

fn replay_uploads(log: &mut SpanLog, input: &LayerInput<'_>, pass: usize) -> BenchResult<()> {
    let store_dir = input.work.join(format!("replay-store-{pass}"));
    let mut store = SegmentStore::open(&store_dir, store_options())
        .map_err(|err| format!("replay store: {err}"))?
        .store;
    let central = CentralServer::new(representative_bits());
    for (op, group) in input.uploads.chunks(input.commit).enumerate() {
        let op = op as u64;
        let mut payloads = Vec::with_capacity(group.len());
        for record in group {
            log.time(op, "upload", "store.encode_record", || {
                encode_record(record)
            });
            let request = Request::Upload(record.clone());
            payloads.push(log.time(op, "upload", "rpc.encode_request", || {
                encode_request(&request)
            }));
        }
        let bytes = log.time(op, "upload", "rpc.frame_encode", || frame(&payloads));
        let frames = log.time(op, "upload", "rpc.frame_decode", || decode_frames(&bytes))?;
        if frames != group.len() {
            return Err(format!(
                "frame replay decoded {frames} of {} frames",
                group.len()
            ));
        }
        for (record, payload) in group.iter().zip(&payloads) {
            let decoded = log
                .time(op, "upload", "rpc.decode_request", || {
                    decode_request(payload)
                })
                .map_err(|err| format!("request replay: {err}"))?;
            if decoded.request != Request::Upload(record.clone()) {
                return Err("request replay changed the record".into());
            }
            let codec = encode_record(record);
            log.time(op, "upload", "store.decode_record", || {
                decode_record(&codec)
            })
            .map_err(|err| format!("record replay: {err}"))?;
        }
        log.time(op, "upload", "store.append_flush", || {
            store.append_all(group.iter())?;
            store.flush()
        })
        .map_err(|err| format!("append replay: {err}"))?;
        for record in group {
            let owned = record.clone();
            log.time(op, "upload", "net.submit", || central.submit(owned))
                .map_err(|err| format!("submit replay: {err}"))?;
        }
        let ack = Response::UploadOk {
            accepted: group.len() as u32,
            duplicates: 0,
        };
        log.time(op, "upload", "rpc.reply", || {
            decode_response(&encode_response(&ack))
        })
        .map_err(|err| format!("reply replay: {err}"))?;
    }
    Ok(())
}

fn replay_queries(log: &mut SpanLog, input: &LayerInput<'_>) -> BenchResult<()> {
    // An in-process server holding exactly the records the queries read.
    let central = CentralServer::new(representative_bits());
    let mut held = HashSet::new();
    for query in &input.queries {
        for records in query.gather(input.source) {
            for record in records {
                if held.insert((record.location(), record.period())) {
                    central
                        .submit(record)
                        .map_err(|err| format!("replay server: {err}"))?;
                }
            }
        }
    }
    for (op, query) in input.queries.iter().enumerate() {
        let op = op as u64;
        let kind = if query.is_point() { "point" } else { "p2p" };
        let periods = query.period_ids();
        let request = query.request();
        let payload = log.time(op, kind, "rpc.encode_request", || encode_request(&request));
        let bytes = log.time(op, kind, "rpc.frame_encode", || {
            frame(std::slice::from_ref(&payload))
        });
        log.time(op, kind, "rpc.frame_decode", || decode_frames(&bytes))?;
        log.time(op, kind, "rpc.decode_request", || decode_request(&payload))
            .map_err(|err| format!("query replay: {err}"))?;
        let gathered = query.gather(input.source);
        let value = match query {
            Query::Point { location, .. } => {
                let server = log.time(op, kind, "net.point_query", || {
                    central.estimate_point_persistent(LocationId::new(*location), &periods)
                });
                let core = log.time(op, kind, "core.point_estimate", || {
                    PointEstimator::new().estimate(&gathered[0])
                });
                same_answer(server, core)?
            }
            Query::P2p { a, b, .. } => {
                let server = log.time(op, kind, "net.p2p_query", || {
                    central.estimate_p2p_persistent(
                        LocationId::new(*a),
                        LocationId::new(*b),
                        &periods,
                    )
                });
                let core = log.time(op, kind, "core.p2p_estimate", || {
                    PointToPointEstimator::new(representative_bits())
                        .estimate(&gathered[0], &gathered[1])
                });
                same_answer(server, core)?
            }
        };
        log.time(op, kind, "rpc.reply", || {
            decode_response(&encode_response(&Response::Estimate(value)))
        })
        .map_err(|err| format!("reply replay: {err}"))?;
    }
    Ok(())
}

/// The server-layer and core-layer answers must agree bit for bit.
fn same_answer(
    server: Result<f64, ptm_net::server::ServerError>,
    core: Result<f64, ptm_core::EstimateError>,
) -> BenchResult<f64> {
    match (server, core) {
        (Ok(a), Ok(b)) if a.to_bits() == b.to_bits() => Ok(a),
        (Err(_), Err(_)) => Ok(f64::NAN),
        (a, b) => Err(format!("layer replay disagrees: server {a:?}, core {b:?}")),
    }
}

fn p99_us(ns: &[u64]) -> (f64, usize) {
    let mut s = Samples::default();
    for &v in ns {
        s.push(v as f64 / 1e3);
    }
    (s.quantile(0.99), s.len())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Adds every per-layer metric to `report`, plus the stage rows and their
/// sum check as notes. Runs after the end-to-end phase, with ptm-obs
/// switched off again so the replays time the plain code paths.
pub fn measure(report: &mut Report, input: LayerInput<'_>) -> BenchResult<()> {
    let snapshot = ptm_obs::snapshot();
    ptm_obs::set_metrics_enabled(false);
    ptm_obs::set_tracing_enabled(false);
    let mut log = SpanLog {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    // The first pass warms allocator and caches; only the second is kept.
    for pass in 0..2 {
        log.spans.clear();
        replay_uploads(&mut log, &input, pass)?;
        replay_queries(&mut log, &input)?;
    }

    // Per call as the daemon makes it: per frame, per upload request or
    // record, per commit (a whole upload call), per query.
    let frames = input.commit as f64;
    for (metric, kind, span, per) in [
        ("rpc.frame_encode_us", "upload", "rpc.frame_encode", frames),
        ("rpc.frame_decode_us", "upload", "rpc.frame_decode", frames),
        ("rpc.encode_request_us", "upload", "rpc.encode_request", 1.0),
        ("rpc.decode_request_us", "upload", "rpc.decode_request", 1.0),
        (
            "store.encode_record_us",
            "upload",
            "store.encode_record",
            1.0,
        ),
        (
            "store.decode_record_us",
            "upload",
            "store.decode_record",
            1.0,
        ),
        ("store.append_flush_us", "upload", "store.append_flush", 1.0),
        ("net.submit_us", "upload", "net.submit", 1.0),
        ("net.point_query_us", "point", "net.point_query", 1.0),
        ("net.p2p_query_us", "p2p", "net.p2p_query", 1.0),
        (
            "core.point_estimate_us",
            "point",
            "core.point_estimate",
            1.0,
        ),
        ("core.p2p_estimate_us", "p2p", "core.p2p_estimate", 1.0),
    ] {
        let s = log.per_call_us(kind, span, per);
        report.add(metric, "us", s.median(), s.len());
    }
    // net.gather: server-layer query time minus the core estimator's, per
    // query, over both query types.
    let mut gather = Samples::default();
    for kind in ["point", "p2p"] {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for sp in log.spans.iter().filter(|s| s.kind == kind) {
            let sign = match sp.name {
                "net.point_query" | "net.p2p_query" => 1.0,
                "core.point_estimate" | "core.p2p_estimate" => -1.0,
                _ => continue,
            };
            *per_op.entry(sp.op).or_default() += sign * sp.dur_ns as f64 / 1e3;
        }
        for v in per_op.values() {
            gather.push(*v);
        }
    }
    report.add("net.gather_us", "us", gather.median(), gather.len());

    // Stage rows and the residual against the traced end-to-end median.
    report
        .notes
        .push("stage rows: self time per operation, median over replayed operations (us)".into());
    for (kind, rows, e2e) in [
        ("upload", UPLOAD_ROWS, &input.latencies.upload.traced),
        ("point", POINT_ROWS, &input.latencies.point.traced),
        ("p2p", P2P_ROWS, &input.latencies.p2p.traced),
    ] {
        let (ops, medians) = log.per_op_us(kind);
        let mut line = format!("  {kind:<6} ops={ops:<4}");
        let mut sum = 0.0;
        for (row, span, inner) in rows {
            let total = medians.get(span).copied().unwrap_or(0.0);
            let minus: f64 = inner
                .iter()
                .map(|n| medians.get(n).copied().unwrap_or(0.0))
                .sum();
            let value = total - minus;
            sum += value;
            let _ = write!(line, " {row}={value:.1}");
        }
        if e2e.len() == 0 {
            let _ = write!(
                line,
                " | rows={sum:.1}; no {kind} operations in this workload's end-to-end run, residual 0"
            );
            report.notes.push(line);
            report.add(&format!("rpc.residual_{kind}_us"), "us", 0.0, 0);
            continue;
        }
        let e2e_us = e2e.median() * 1e3;
        let residual = e2e_us - sum;
        let _ = write!(
            line,
            " | rows={sum:.1} + rpc.residual={residual:.1} = {:.1} vs traced e2e p50={e2e_us:.1} (n={}){}",
            sum + residual,
            e2e.len(),
            if residual < 0.0 {
                "  CHECK: rows exceed the end-to-end median"
            } else {
                "  check ok"
            }
        );
        report.notes.push(line);
        report.add(
            &format!("rpc.residual_{kind}_us"),
            "us",
            residual,
            e2e.len(),
        );
    }

    // The daemon's own spans and counters from the traced operations.
    let (queue_p99, queue_n) = p99_us(&input.spans.queue_wait_ns.lock().expect("span lock"));
    report.add("rpc.queue_wait_p99_us", "us", queue_p99, queue_n);
    let (lock_p99, lock_n) = p99_us(&input.spans.lock_wait_ns.lock().expect("span lock"));
    report.add("rpc.lock_wait_p99_us", "us", lock_p99, lock_n);
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let (hits, misses) = (counter("rpc.cache.hits"), counter("rpc.cache.misses"));
    report.add(
        "rpc.cache_hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
        (hits + misses) as usize,
    );
    let shed: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("rpc.shed."))
        .map(|(_, v)| *v)
        .sum();
    report.add("rpc.shed_count", "count", shed as f64, 1);

    let replay = &input.store_replay;
    report.add(
        "store.open_ms",
        "ms",
        replay.open_ms.median(),
        replay.open_ms.len(),
    );
    report.add(
        "store.hydrate_ms",
        "ms",
        replay.hydrate_ms.median(),
        replay.hydrate_ms.len(),
    );
    report.add(
        "store.cache_hit_ratio",
        "ratio",
        ratio(replay.cache_hits, replay.cache_hits + replay.cache_misses),
        (replay.cache_hits + replay.cache_misses) as usize,
    );
    report.add(
        "store.bytes_per_record_byte",
        "ratio",
        input.store_bytes_per_record_byte,
        1,
    );

    let primary = match input.main {
        Main::Uploads => &input.latencies.upload,
        Main::Queries => &input.latencies.query,
    };
    let (plain, traced) = (&primary.plain, &primary.traced);
    report.add(
        "obs.trace_overhead_pct",
        "%",
        (traced.median() / plain.median() - 1.0) * 100.0,
        traced.len(),
    );
    report.add_quantile("harness.gen_late_p99_ms", "ms", &input.gen_late_ms, 0.99);
    report.add(
        "fail_ratio",
        "ratio",
        ratio(report.failed, report.attempted),
        report.attempted as usize,
    );

    let trace_dir = Path::new(crate::OUT_DIR);
    std::fs::create_dir_all(trace_dir).map_err(|err| format!("trace dir: {err}"))?;
    let path = trace_dir.join(format!("spans-{}.jsonl", input.label));
    log.write_jsonl(&path)
        .map_err(|err| format!("span file: {err}"))?;
    report
        .notes
        .push(format!("benchmark spans written to {}", path.display()));
    Ok(())
}
