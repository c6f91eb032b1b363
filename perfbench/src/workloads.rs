//! The three workloads. Each generates its inputs from the seed, drives a
//! real loopback daemon through `RpcClient`, checks every answer, and
//! fills the end-to-end metrics; a traced run adds the per-layer ones.

use crate::drive::{
    self, closed_loop_queries, random_periods, setup, sleep_until, stop, upload_each, BenchResult,
    ClosedLoop, DaemonSpans, Outcome, Query, QuerySample, TraceMode, WARMUP,
};
use crate::gen::{self, SiouxFalls, SyntheticPool, L_PRIME};
use crate::layers::{self, LayerInput, StoreReplay};
use crate::report::{peak_rss_mb, process_cpu, Completions, Report, Samples, Split};
use crate::Args;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_rpc::{RpcClient, RpcServer};
use rand::Rng;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Per-operation-type latencies of one run, each in completion order.
#[derive(Default)]
pub struct Latencies {
    pub upload: Split,
    /// Every query, point and point-to-point.
    pub query: Split,
    pub point: Split,
    pub p2p: Split,
}

impl Latencies {
    fn add_queries(&mut self, samples: &[QuerySample]) {
        for s in samples {
            let split = if s.query.is_point() {
                &mut self.point
            } else {
                &mut self.p2p
            };
            split.push_ms(s.traced, s.latency);
            self.query.push_ms(s.traced, s.latency);
        }
    }
}

/// Throughput is the median over windows of this length.
const RATE_WINDOW: Duration = Duration::from_secs(1);

/// One measured phase's throughput: completions over its length, as the
/// median over windows (closed loop) or over the whole phase (open loop).
struct Phase<'a> {
    done: &'a Completions,
    length: Duration,
    window: Option<Duration>,
}

impl Phase<'_> {
    fn rate(&self) -> (f64, usize) {
        match self.window {
            Some(window) => self.done.median_rate(self.length, window),
            None => (self.done.overall_rate(), self.done.total() as usize),
        }
    }
}

/// Which operation a workload is about: its throughput and latency are
/// the compared end-to-end figures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Main {
    Uploads,
    Queries,
}

/// What a workload reports end to end.
struct EndToEnd<'a> {
    setup: &'a Samples,
    /// Upload and query throughput, where the workload has them.
    uploads: Option<Phase<'a>>,
    queries: Option<Phase<'a>>,
    main: Main,
    /// Process CPU over the timed phase, and the uploads and queries it
    /// completed.
    cpu: Duration,
    ops: u64,
    latencies: &'a Latencies,
    /// Peak RSS up to daemon-ready, before the timed phase.
    rss_mb: f64,
}

fn end_to_end(report: &mut Report, e2e: EndToEnd<'_>) {
    report.add("setup_s", "s", e2e.setup.median(), e2e.setup.len());
    let uploads = &e2e.latencies.upload.plain;
    let queries = &e2e.latencies.query.plain;
    if let Some(phase) = &e2e.uploads {
        let (rate, windows) = phase.rate();
        report.add("records_per_s", "1/s", rate, windows);
        report.add_quantile("upload_p50_ms", "ms", uploads, 0.5);
        add_tail(report, "upload", uploads);
    }
    if let Some(phase) = &e2e.queries {
        let (rate, windows) = phase.rate();
        report.add("queries_per_s", "1/s", rate, windows);
        report.add_quantile("query_p50_ms", "ms", queries, 0.5);
        add_tail(report, "query", queries);
    }
    let (phase, latencies) = match e2e.main {
        Main::Uploads => (&e2e.uploads, uploads),
        Main::Queries => (&e2e.queries, queries),
    };
    let (rate, windows) = phase.as_ref().map_or((0.0, 0), Phase::rate);
    report.add("throughput_per_s", "1/s", rate, windows);
    report.add_quantile("latency_p50_ms", "ms", latencies, 0.5);
    add_tail(report, "latency", latencies);
    report.add(
        "cpu_ms_per_op",
        "ms",
        e2e.cpu.as_secs_f64() * 1e3 / e2e.ops.max(1) as f64,
        e2e.ops as usize,
    );
    report.add("peak_rss_mb", "MiB", e2e.rss_mb, 1);
}

/// The highest of p99 and p90 with at least ten samples beyond it (p90
/// for mixed's hundred-odd period uploads a run).
fn add_tail(report: &mut Report, prefix: &str, samples: &Samples) {
    let (q, pct) = if samples.len() >= 1000 {
        (0.99, 99)
    } else {
        (0.9, 90)
    };
    report.add_quantile(&format!("{prefix}_p{pct}_ms"), "ms", samples, q);
}

/// How late each query's sender was, ms.
fn query_lateness(samples: &[QuerySample]) -> Samples {
    let mut late = Samples::default();
    for s in samples {
        late.push_duration_ms(s.late);
    }
    late
}

fn query_completions(samples: &[QuerySample]) -> Completions {
    let mut done = Completions::default();
    for s in samples.iter().filter(|s| !s.outcome.failed()) {
        done.push(s.done, 1);
    }
    done
}

fn count_queries(report: &mut Report, samples: &[QuerySample]) {
    report.attempted += samples.len() as u64;
    for sample in samples.iter().filter(|s| s.outcome.failed()) {
        if report.failed == 0 {
            match &sample.outcome {
                Outcome::Failed(reason) | Outcome::ServerError(_, reason) => {
                    eprintln!("query failed: {reason}");
                }
                Outcome::Value(_) => {}
            }
        }
        report.failed += 1;
    }
}

fn check_record_count(server: &RpcServer, expected: usize) -> BenchResult<()> {
    let held = server.record_count();
    if held != expected {
        return Err(format!(
            "daemon holds {held} records, {expected} were acked"
        ));
    }
    Ok(())
}

fn store_bytes(store: &Path) -> u64 {
    std::fs::read_dir(store)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn bitmap_bytes<'a>(records: impl Iterator<Item = &'a TrafficRecord>) -> u64 {
    records.map(|r| r.len() as u64 / 8).sum()
}

/// A daemon ready on the workload's store.
struct Ready {
    daemon: RpcServer,
    setup_times: Samples,
    /// Peak RSS up to ready.
    rss_mb: f64,
    store_replay: Option<StoreReplay>,
    spans: DaemonSpans,
}

/// Writes the workload's store through a fresh daemon with `write`; then,
/// while no daemon holds the store, the traced run's store replay; then
/// `restarts` timed daemon starts to ready, each ending with one volume
/// query per location so the whole store is hydrated. The last daemon keeps
/// running. A traced run collects the daemon's spans from the start, so a
/// traced store write contributes its writer-lock waits.
fn prepare(
    args: &Args,
    store: &Path,
    locations: &[u64],
    restarts: usize,
    write: impl FnOnce(&mut RpcClient) -> BenchResult<()>,
) -> BenchResult<Ready> {
    let spans = DaemonSpans::default();
    if args.trace {
        spans.install();
    }
    let daemon = drive::start(store)?;
    let mut c = drive::client(daemon.local_addr(), args.seed, 1)?;
    write(&mut c)?;
    drop(c);
    stop(daemon)?;
    let store_replay = if args.trace {
        Some(layers::replay_store(store, locations, restarts)?)
    } else {
        None
    };
    let probes: Vec<(u64, u32)> = locations.iter().map(|&loc| (loc, 0)).collect();
    let (daemon, setup_times) = setup(store, &probes, restarts, args.seed)?;
    let rss_mb = peak_rss_mb();
    Ok(Ready {
        daemon,
        setup_times,
        rss_mb,
        store_replay,
        spans,
    })
}

/// The first 400 queries of a run: the traced run replays these through
/// each layer.
fn sample_queries(samples: &[QuerySample]) -> Vec<Query> {
    samples.iter().take(400).map(|s| s.query.clone()).collect()
}

/// `a` in `1..=nodes` other than `L'`, uniformly.
fn other_than_l_prime(rng: &mut impl Rng, nodes: u64) -> u64 {
    let a = rng.gen_range(1..nodes);
    if a >= L_PRIME {
        a + 1
    } else {
        a
    }
}

// ---- ingest ----------------------------------------------------------------

const INGEST_LOCATIONS: u64 = 200;
const INGEST_HISTORY: u32 = 16;
const WAVE: usize = 64;

pub fn ingest(args: &Args, work: &Path) -> BenchResult<Report> {
    let seed = args.seed;
    let pool = SyntheticPool::generate(seed, INGEST_LOCATIONS, 4);
    let store = work.join("store");
    let mut report = Report::default();

    // The history the daemon restarts on: 16 periods of every location,
    // written through the daemon.
    let history: Vec<TrafficRecord> = (0..u64::from(INGEST_HISTORY) * INGEST_LOCATIONS)
        .map(|i| pool.stream_record(0, i))
        .collect();
    let locations: Vec<u64> = (0..INGEST_LOCATIONS).collect();
    let Ready {
        daemon,
        setup_times,
        rss_mb,
        store_replay,
        spans,
    } = prepare(args, &store, &locations, 5, |c| {
        for wave in history.chunks(WAVE) {
            let summary = c
                .upload_pipelined(wave, WAVE)
                .map_err(|err| format!("history upload: {err}"))?;
            if (summary.accepted + summary.duplicates) as usize != wave.len() {
                return Err(format!("history wave not acked: {summary:?}"));
            }
        }
        Ok(())
    })?;
    let addr = daemon.local_addr();

    // Closed loop on one connection: a wave of 64 fresh records, the next
    // as soon as every ack is in. No queries. Waves sent during the warm-up
    // are checked but not timed.
    let mode = TraceMode::new(args.trace);
    let mut latencies = Latencies::default();
    let began = Instant::now() + WARMUP;
    let mut cpu_before = None;
    let (sent, failed_waves, upload_done, gen_late) = std::thread::scope(|scope| {
        let (mode, pool, cpu_before) = (&mode, &pool, &mut cpu_before);
        let uploader = scope.spawn(move || -> BenchResult<_> {
            let mut c = drive::client(addr, seed, 2)?;
            let mut split = Split::default();
            let mut done = Completions::default();
            let mut late = Samples::default();
            let mut next = 0u64;
            let mut failed = 0u64;
            let mut ready = Instant::now();
            while began.elapsed() < args.seconds {
                let wave: Vec<TrafficRecord> = (next..next + WAVE as u64)
                    .map(|i| pool.stream_record(INGEST_HISTORY, i))
                    .collect();
                let traced = mode.traced_now();
                let sent = Instant::now();
                let timed = sent >= began;
                if timed {
                    late.push_duration_ms(sent - ready);
                }
                match c.upload_pipelined(&wave, WAVE) {
                    Ok(summary) if (summary.accepted + summary.duplicates) as usize == WAVE => {
                        if timed {
                            split.push_ms(traced, sent.elapsed());
                            done.push(began.elapsed(), WAVE as u64);
                        }
                    }
                    Ok(summary) => return Err(format!("wave not fully acked: {summary:?}")),
                    Err(err) => {
                        eprintln!("upload wave failed: {err}");
                        failed += 1;
                    }
                }
                next += WAVE as u64;
                ready = Instant::now();
            }
            Ok((next, failed, split, done, late))
        });
        sleep_until(began);
        *cpu_before = Some(process_cpu());
        mode.run_schedule(began, args.seconds);
        let (sent, failed, split, done, late) = uploader.join().expect("uploader panicked")?;
        latencies.upload = split;
        Ok::<_, String>((sent, failed, done, late))
    })?;
    let cpu = process_cpu() - cpu_before.expect("taken when timing began");
    if failed_waves > 0 {
        return Err(format!(
            "{failed_waves} upload waves failed; which records were acked is unknown"
        ));
    }
    report.attempted += sent;
    let source = |location: u64, period: u32| pool.record(location, period);

    // A traced run also asks the daemon, traced, the queries an analyst
    // could ask of what was ingested (point, and point-to-point between
    // pair partners, over complete periods), so the query stage rows have
    // an end-to-end median to add up to. The compared run sends none.
    let mut probe = Vec::new();
    if args.trace {
        let complete = INGEST_HISTORY + (sent / INGEST_LOCATIONS) as u32;
        let mut rng = gen::rng(seed, &[0x9e]);
        let mut c = drive::client(addr, seed, 3)?;
        mode.set(true);
        let began = Instant::now();
        for _ in 0..400 {
            let location = rng.gen_range(0..INGEST_LOCATIONS);
            let t = rng.gen_range(4..=16);
            let periods = random_periods(&mut rng, complete, t);
            let query = if rng.gen_bool(0.5) {
                Query::Point { location, periods }
            } else {
                Query::P2p {
                    a: location,
                    b: location ^ 1,
                    periods,
                }
            };
            let sent = Instant::now();
            let outcome = Outcome::of(query.send(&mut c));
            probe.push(QuerySample {
                latency: sent.elapsed(),
                late: Duration::ZERO,
                done: began.elapsed(),
                warmup: false,
                query,
                traced: true,
                outcome,
            });
        }
        mode.set(false);
        count_queries(&mut report, &probe);
        latencies.add_queries(&probe);
        drive::verify(&probe, &source)?;
    }
    DaemonSpans::uninstall();
    check_record_count(&daemon, history.len() + sent as usize)?;
    stop(daemon)?;

    end_to_end(
        &mut report,
        EndToEnd {
            setup: &setup_times,
            uploads: Some(Phase {
                done: &upload_done,
                length: args.seconds,
                window: Some(RATE_WINDOW),
            }),
            queries: None,
            main: Main::Uploads,
            cpu,
            ops: upload_done.total(),
            latencies: &latencies,
            rss_mb,
        },
    );
    if let Some(store_replay) = store_replay {
        let stored_bytes = bitmap_bytes(history.iter())
            + (0..sent)
                .map(|i| pool.stream_record(INGEST_HISTORY, i).len() as u64 / 8)
                .sum::<u64>();
        layers::measure(
            &mut report,
            LayerInput {
                label: format!("ingest-seed{seed}"),
                uploads: (0..16 * WAVE as u64)
                    .map(|i| pool.stream_record(INGEST_HISTORY, i))
                    .collect(),
                commit: WAVE,
                queries: sample_queries(&probe),
                source: &source,
                work,
                store_replay,
                store_bytes_per_record_byte: store_bytes(&store) as f64 / stored_bytes as f64,
                latencies: &latencies,
                main: Main::Uploads,
                spans: &spans,
                gen_late_ms: gen_late,
            },
        )?;
    }
    Ok(report)
}

// ---- query -----------------------------------------------------------------

const QUERY_PERIODS: u32 = 64;
/// One closed-loop client: the reactor, one worker and the client then fit
/// the two cores of the measuring host, so the figures measure the daemon
/// rather than the scheduler.
const QUERY_CONNECTIONS: u64 = 1;

pub fn query(args: &Args, work: &Path) -> BenchResult<Report> {
    let seed = args.seed;
    let sf = SiouxFalls::generate(seed, QUERY_PERIODS);
    let store = work.join("store");
    let mut report = Report::default();
    let mut latencies = Latencies::default();

    // The store is written through the daemon, one upload call per record
    // (each RSU ships its own period record), period by period.
    let records: Vec<TrafficRecord> = sf.all().cloned().collect();
    let locations: Vec<u64> = sf.locations().iter().map(|l| l.get()).collect();
    let mut upload_done = Completions::default();
    let mut upload_len = Duration::ZERO;
    let Ready {
        daemon,
        setup_times,
        rss_mb,
        store_replay,
        spans,
    } = prepare(args, &store, &locations, 5, |c| {
        let began = Instant::now();
        let mode = TraceMode::new(args.trace);
        upload_done = upload_each(c, &records, began, &mode, &mut latencies.upload)?;
        upload_len = began.elapsed();
        Ok(())
    })?;
    report.attempted += records.len() as u64;
    // Closed loop, one connection: point at a random location or
    // point-to-point between a random location and L', each over a random
    // calendar subset of 4 to 16 of the 64 periods.
    let mode = TraceMode::new(args.trace);
    let nodes = locations.len() as u64;
    let next_query = |rng: &mut rand_chacha::ChaCha8Rng| {
        let t = rng.gen_range(4..=16);
        let periods = random_periods(rng, QUERY_PERIODS, t);
        if rng.gen_bool(0.5) {
            Query::Point {
                location: rng.gen_range(1..=nodes),
                periods,
            }
        } else {
            Query::P2p {
                a: other_than_l_prime(rng, nodes),
                b: L_PRIME,
                periods,
            }
        }
    };
    let ClosedLoop {
        warm,
        timed: queries,
        cpu,
    } = closed_loop_queries(
        daemon.local_addr(),
        QUERY_CONNECTIONS,
        args.seconds,
        seed,
        &mode,
        &next_query,
    )?;
    DaemonSpans::uninstall();
    count_queries(&mut report, &warm);
    count_queries(&mut report, &queries);
    latencies.add_queries(&queries);
    check_record_count(&daemon, records.len())?;
    stop(daemon)?;

    let source =
        |location: u64, period: u32| sf.periods[period as usize][location as usize - 1].clone();
    drive::verify(&warm, &source)?;
    drive::verify(&queries, &source)?;

    let query_done = query_completions(&queries);
    end_to_end(
        &mut report,
        EndToEnd {
            setup: &setup_times,
            // The store write is short; quarter-second windows.
            uploads: Some(Phase {
                done: &upload_done,
                length: upload_len,
                window: Some(RATE_WINDOW / 4),
            }),
            queries: Some(Phase {
                done: &query_done,
                length: args.seconds,
                window: Some(RATE_WINDOW),
            }),
            main: Main::Queries,
            cpu,
            ops: query_done.total(),
            latencies: &latencies,
            rss_mb,
        },
    );
    if let Some(store_replay) = store_replay {
        layers::measure(
            &mut report,
            LayerInput {
                label: format!("query-seed{seed}"),
                uploads: records.iter().step_by(6).cloned().collect(),
                commit: 1,
                queries: sample_queries(&queries),
                source: &source,
                work,
                store_replay,
                store_bytes_per_record_byte: store_bytes(&store) as f64
                    / bitmap_bytes(records.iter()) as f64,
                latencies: &latencies,
                main: Main::Queries,
                spans: &spans,
                gen_late_ms: query_lateness(&queries),
            },
        )?;
    }
    Ok(report)
}

// ---- mixed -----------------------------------------------------------------

/// Distinct Sioux Falls periods generated; the upload stream cycles
/// through them, restamped onto fresh periods.
const MIXED_BASE: u32 = 32;
const MIXED_HISTORY: u32 = 16;
/// A period every 200 ms, half the 100 ms first planned: at 100 ms the
/// open loop ran so close to what two busy cores sustain that a burst of
/// steal time let the upload backlog grow.
const PERIOD_EVERY: Duration = Duration::from_millis(200);
const QUERY_EVERY: Duration = Duration::from_millis(2);

/// The dashboard's panels, fixed so every seed asks the same shapes:
/// `(point?, location, trailing periods)`; point-to-point panels pair the
/// location with L'. Four panels at 500 queries/s ask each key about a
/// dozen times per period, so most answers come from the cache.
const PANELS: [(bool, u64, u32); 4] = [(true, 3, 4), (true, 15, 8), (false, 6, 4), (false, 12, 8)];

pub fn mixed(args: &Args, work: &Path) -> BenchResult<Report> {
    let seed = args.seed;
    let sf = SiouxFalls::generate(seed, MIXED_BASE);
    let nodes = sf.periods[0].len() as u64;
    let record_at = |location: u64, period: u32| -> TrafficRecord {
        sf.periods[(period % MIXED_BASE) as usize][location as usize - 1]
            .clone()
            .restamped(PeriodId::new(period))
    };
    let stream_record = |i: u64| record_at(i % nodes + 1, MIXED_HISTORY + (i / nodes) as u32);
    let store = work.join("store");
    let mut report = Report::default();
    let mut latencies = Latencies::default();

    let history: Vec<TrafficRecord> = (0..MIXED_HISTORY)
        .flat_map(|p| (1..=nodes).map(move |loc| (loc, p)))
        .map(|(loc, p)| record_at(loc, p))
        .collect();
    let locations: Vec<u64> = (1..=nodes).collect();
    let Ready {
        daemon,
        setup_times,
        rss_mb,
        store_replay,
        spans,
    } = prepare(args, &store, &locations, 5, |c| {
        let mode = TraceMode::new(false);
        upload_each(c, &history, Instant::now(), &mode, &mut Split::default()).map(drop)
    })?;
    let addr = daemon.local_addr();

    let mode = TraceMode::new(args.trace);
    let complete = AtomicU32::new(MIXED_HISTORY);
    let mut gen_late = Samples::default();
    // Both loops start at `start`; what was due before `began` is the
    // warm-up: checked, not timed.
    let start = Instant::now();
    let began = start + WARMUP;
    let end = began + args.seconds;
    let mut cpu_before = None;
    let (uploaded, failed_uploads, upload_done, warm, queries) = std::thread::scope(|scope| {
        let (mode, complete, stream_record) = (&mode, &complete, &stream_record);
        // Open loop: stream period p (one record per location) is due at
        // p × 200 ms and shipped as one pipelined batch; its latency counts
        // from the due time to the last ack.
        let uploader = scope.spawn(move || -> BenchResult<_> {
            let mut c = drive::client(addr, seed, 2)?;
            let mut split = Split::default();
            let mut done = Completions::default();
            let mut late = Samples::default();
            let mut failed = 0u64;
            let mut p = 0u32;
            loop {
                let due = start + PERIOD_EVERY * p;
                if due >= end {
                    break;
                }
                let batch: Vec<TrafficRecord> = (0..nodes)
                    .map(|k| stream_record(u64::from(p) * nodes + k))
                    .collect();
                sleep_until(due);
                let timed = due >= began;
                if timed {
                    late.push_duration_ms(due.elapsed());
                }
                let traced = mode.traced_now();
                match c.upload_pipelined(&batch, batch.len()) {
                    Ok(summary) if u64::from(summary.accepted + summary.duplicates) == nodes => {
                        if timed {
                            split.push_ms(traced, due.elapsed());
                            done.push(began.elapsed(), nodes);
                        }
                    }
                    Ok(summary) => return Err(format!("period not fully acked: {summary:?}")),
                    Err(err) => {
                        eprintln!("period upload failed: {err}");
                        failed += 1;
                    }
                }
                complete.store(MIXED_HISTORY + p + 1, Ordering::SeqCst);
                p += 1;
            }
            Ok((u64::from(p) * nodes, failed, split, done, late))
        });
        // Open loop: a dashboard panel every 2 ms over the most recent
        // complete periods.
        let querier = scope.spawn(move || -> BenchResult<Vec<QuerySample>> {
            let mut c = drive::client(addr, seed, 3)?;
            let mut rng = gen::rng(seed, &[0xda5]);
            let mut out = Vec::new();
            let mut j = 0u32;
            loop {
                let due = start + QUERY_EVERY * j;
                if due >= end {
                    break;
                }
                sleep_until(due);
                let (point, location, t) = PANELS[rng.gen_range(0..PANELS.len())];
                let newest = complete.load(Ordering::SeqCst);
                let periods: Vec<u32> = (newest - t..newest).collect();
                let query = if point {
                    Query::Point { location, periods }
                } else {
                    Query::P2p {
                        a: location,
                        b: L_PRIME,
                        periods,
                    }
                };
                let traced = mode.traced_now();
                let sent = Instant::now();
                let outcome = Outcome::of(query.send(&mut c));
                out.push(QuerySample {
                    latency: due.elapsed(),
                    late: sent - due,
                    done: began.elapsed(),
                    warmup: due < began,
                    query,
                    traced,
                    outcome,
                });
                j += 1;
            }
            Ok(out)
        });
        sleep_until(began);
        cpu_before = Some(process_cpu());
        mode.run_schedule(began, args.seconds);
        let (uploaded, failed, split, done, up_late) =
            uploader.join().expect("uploader panicked")?;
        let (warm, queries): (Vec<_>, Vec<_>) = querier
            .join()
            .expect("querier panicked")?
            .into_iter()
            .partition(|s| s.warmup);
        latencies.upload = split;
        gen_late.extend(&up_late);
        gen_late.extend(&query_lateness(&queries));
        Ok::<_, String>((uploaded, failed, done, warm, queries))
    })?;
    let cpu = process_cpu() - cpu_before.expect("taken when timing began");
    DaemonSpans::uninstall();
    if failed_uploads > 0 {
        return Err(format!(
            "{failed_uploads} period uploads failed; which records were acked is unknown"
        ));
    }
    report.attempted += uploaded;
    count_queries(&mut report, &warm);
    count_queries(&mut report, &queries);
    latencies.add_queries(&queries);
    check_record_count(&daemon, history.len() + uploaded as usize)?;
    stop(daemon)?;

    let source = |location: u64, period: u32| record_at(location, period);
    drive::verify(&warm, &source)?;
    drive::verify(&queries, &source)?;

    let query_done = query_completions(&queries);
    end_to_end(
        &mut report,
        EndToEnd {
            setup: &setup_times,
            uploads: Some(Phase {
                done: &upload_done,
                length: args.seconds,
                window: None,
            }),
            queries: Some(Phase {
                done: &query_done,
                length: args.seconds,
                window: None,
            }),
            main: Main::Uploads,
            cpu,
            ops: upload_done.total() + query_done.total(),
            latencies: &latencies,
            rss_mb,
        },
    );
    if let Some(store_replay) = store_replay {
        let stored_bytes = bitmap_bytes(history.iter())
            + (0..uploaded)
                .map(|i| stream_record(i).len() as u64 / 8)
                .sum::<u64>();
        layers::measure(
            &mut report,
            LayerInput {
                label: format!("mixed-seed{seed}"),
                uploads: (0..4 * nodes).map(stream_record).collect(),
                commit: nodes as usize,
                queries: sample_queries(&queries),
                source: &source,
                work,
                store_replay,
                store_bytes_per_record_byte: store_bytes(&store) as f64 / stored_bytes as f64,
                latencies: &latencies,
                main: Main::Uploads,
                spans: &spans,
                gen_late_ms: gen_late,
            },
        )?;
    }
    Ok(report)
}
