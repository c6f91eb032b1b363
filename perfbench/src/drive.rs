//! Drives the loopback daemon through the public `RpcClient`: daemon
//! start-up, uploads, queries, the traced/untraced schedule, and the
//! correctness oracle every answer is checked against.

use crate::report::{process_cpu, Completions, Samples, Split};
use ptm_core::encoding::LocationId;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_core::{PointEstimator, PointToPointEstimator};
use ptm_net::server::ServerError;
use ptm_rpc::{ClientConfig, ClientError, ErrorCode, Request, RpcClient, RpcServer, ServerConfig};
use rand::Rng;
use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub type BenchResult<T> = Result<T, String>;

/// Load runs this long before a timed phase, untimed, so the daemon's
/// caches, allocator and idle policy are in their steady state.
pub const WARMUP: Duration = Duration::from_secs(2);

/// `s` of `ServerConfig::default()`, which the oracle's point-to-point
/// estimator must share.
pub fn representative_bits() -> u32 {
    ServerConfig::default().s
}

/// One analyst query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    Point { location: u64, periods: Vec<u32> },
    P2p { a: u64, b: u64, periods: Vec<u32> },
}

impl Query {
    pub fn is_point(&self) -> bool {
        matches!(self, Query::Point { .. })
    }

    pub fn period_ids(&self) -> Vec<PeriodId> {
        let periods = match self {
            Query::Point { periods, .. } | Query::P2p { periods, .. } => periods,
        };
        periods.iter().map(|&p| PeriodId::new(p)).collect()
    }

    /// The request `send` puts on the wire.
    pub fn request(&self) -> Request {
        match self {
            Query::Point { location, .. } => Request::QueryPoint {
                location: LocationId::new(*location),
                periods: self.period_ids(),
            },
            Query::P2p { a, b, .. } => Request::QueryP2p {
                location_a: LocationId::new(*a),
                location_b: LocationId::new(*b),
                periods: self.period_ids(),
            },
        }
    }

    pub fn send(&self, client: &mut RpcClient) -> Result<f64, ClientError> {
        match self {
            Query::Point { location, .. } => {
                client.query_point(LocationId::new(*location), &self.period_ids())
            }
            Query::P2p { a, b, .. } => {
                client.query_p2p(LocationId::new(*a), LocationId::new(*b), &self.period_ids())
            }
        }
    }

    /// The records the daemon gathers for this query, in its order.
    pub fn gather(&self, source: &dyn Fn(u64, u32) -> TrafficRecord) -> Vec<Vec<TrafficRecord>> {
        let periods = match self {
            Query::Point { periods, .. } | Query::P2p { periods, .. } => periods,
        };
        let locations = match self {
            Query::Point { location, .. } => vec![*location],
            Query::P2p { a, b, .. } => vec![*a, *b],
        };
        locations
            .into_iter()
            .map(|loc| periods.iter().map(|&p| source(loc, p)).collect())
            .collect()
    }

    /// What the in-process estimator answers on the same records: the
    /// value, or the daemon's error text for the same failure.
    pub fn expected(&self, source: &dyn Fn(u64, u32) -> TrafficRecord) -> Result<f64, String> {
        let gathered = self.gather(source);
        let result = match self {
            Query::Point { .. } => PointEstimator::new().estimate(&gathered[0]),
            Query::P2p { .. } => PointToPointEstimator::new(representative_bits())
                .estimate(&gathered[0], &gathered[1]),
        };
        result.map_err(|err| ServerError::from(err).to_string())
    }
}

/// `t` distinct periods drawn from `0..available`, ascending (the shape of
/// a calendar query).
pub fn random_periods(rng: &mut impl Rng, available: u32, t: u32) -> Vec<u32> {
    let mut chosen: Vec<u32> = Vec::with_capacity(t as usize);
    while chosen.len() < t as usize {
        let p = rng.gen_range(0..available);
        if !chosen.contains(&p) {
            chosen.push(p);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// How one operation ended, short of a wrong answer.
#[derive(Debug, Clone)]
pub enum Outcome {
    Value(f64),
    /// The daemon answered an application error (code, message).
    ServerError(ErrorCode, String),
    /// Refused, shed, timed out or dropped: a failed operation.
    Failed(String),
}

impl Outcome {
    pub fn of(result: Result<f64, ClientError>) -> Self {
        match result {
            Ok(value) => Outcome::Value(value),
            Err(ClientError::Server { code, message }) => Outcome::ServerError(code, message),
            Err(other) => Outcome::Failed(other.to_string()),
        }
    }

    pub fn failed(&self) -> bool {
        !matches!(self, Outcome::Value(_))
    }
}

/// One timed query.
#[derive(Debug, Clone)]
pub struct QuerySample {
    pub query: Query,
    pub latency: Duration,
    /// How late the sender was: after its due time (open loop), or after
    /// the previous answer arrived (closed loop).
    pub late: Duration,
    /// Completion time, since the timed phase began (0 during warm-up).
    pub done: Duration,
    /// Sent before the timed phase began: checked, never timed.
    pub warmup: bool,
    pub traced: bool,
    pub outcome: Outcome,
}

/// Checks every answered query against the oracle: values bit-identical,
/// errors with the same code and text. Transport failures are not
/// answers and are not checked. Returns the number of answers checked.
pub fn verify(
    samples: &[QuerySample],
    source: &(dyn Fn(u64, u32) -> TrafficRecord + Sync),
) -> BenchResult<usize> {
    let memo: Mutex<HashMap<Query, Result<f64, String>>> = Mutex::new(HashMap::new());
    let expected = |query: &Query| {
        if let Some(hit) = memo.lock().expect("memo lock").get(query) {
            return hit.clone();
        }
        let value = query.expected(source);
        memo.lock()
            .expect("memo lock")
            .insert(query.clone(), value.clone());
        value
    };
    let check = |sample: &QuerySample| -> BenchResult<bool> {
        let want = match &sample.outcome {
            Outcome::Failed(_) => return Ok(false),
            _ => expected(&sample.query),
        };
        let ok = match (&sample.outcome, &want) {
            (Outcome::Value(got), Ok(want)) => got.to_bits() == want.to_bits(),
            (Outcome::ServerError(code, got), Err(want)) => {
                *code == ErrorCode::EstimateFailed && got == want
            }
            _ => false,
        };
        if ok {
            Ok(true)
        } else {
            Err(format!(
                "wrong answer for {:?}: daemon {:?}, in-process {:?}",
                sample.query, sample.outcome, want
            ))
        }
    };
    // Two checker threads; the first wrong answer fails the run.
    let half = samples.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .chunks(half.max(1))
            .map(|chunk| {
                let check = &check;
                scope.spawn(move || -> BenchResult<usize> {
                    let mut checked = 0;
                    for sample in chunk {
                        if check(sample)? {
                            checked += 1;
                        }
                    }
                    Ok(checked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread panicked"))
            .sum()
    })
}

// ---- daemon life cycle -----------------------------------------------------

pub fn client(addr: SocketAddr, seed: u64, id: u64) -> BenchResult<RpcClient> {
    let config = ClientConfig {
        jitter_seed: ptm_sim::trial_seed(seed, &[0xc1, id]),
        ..ClientConfig::default()
    };
    RpcClient::connect(addr, config).map_err(|err| format!("client: {err}"))
}

/// Starts the daemon the way `ptm serve` does: `ServerConfig::default()`.
pub fn start(store: &Path) -> BenchResult<RpcServer> {
    RpcServer::start("127.0.0.1:0", store, ServerConfig::default())
        .map_err(|err| format!("daemon start: {err}"))
}

pub fn stop(server: RpcServer) -> BenchResult<()> {
    server
        .shutdown()
        .map_err(|err| format!("daemon shutdown: {err}"))
}

/// Daemon start to ready: bind, open the store, then one volume query per
/// `(location, period)` probe so every location is hydrated. Restarts
/// `restarts` times on the same store; the last daemon keeps running.
pub fn setup(
    store: &Path,
    probes: &[(u64, u32)],
    restarts: usize,
    seed: u64,
) -> BenchResult<(RpcServer, Samples)> {
    let mut times = Samples::default();
    let mut server = None;
    for round in 0..restarts {
        if let Some(previous) = server.take() {
            stop(previous)?;
        }
        let began = Instant::now();
        let daemon = start(store)?;
        let mut c = client(daemon.local_addr(), seed, 0x5e7 + round as u64)?;
        c.ping().map_err(|err| format!("ping: {err}"))?;
        for &(location, period) in probes {
            c.query_volume(LocationId::new(location), PeriodId::new(period))
                .map_err(|err| format!("ready probe: {err}"))?;
        }
        times.push(began.elapsed().as_secs_f64());
        server = Some(daemon);
    }
    Ok((server.expect("at least one restart"), times))
}

/// Uploads `records` one call each (an RSU shipping its period record),
/// timing every call and noting when each completed since `began`; a
/// traced run traces the middle half. Every record must be acked.
pub fn upload_each(
    client: &mut RpcClient,
    records: &[TrafficRecord],
    began: Instant,
    mode: &TraceMode,
    latencies: &mut Split,
) -> BenchResult<Completions> {
    let mut done = Completions::default();
    for (i, record) in records.iter().enumerate() {
        mode.switch_at(i, records.len());
        let traced = mode.traced_now();
        let sent = Instant::now();
        let summary = client
            .upload(record)
            .map_err(|err| format!("upload: {err}"))?;
        latencies.push_ms(traced, sent.elapsed());
        done.push(began.elapsed(), 1);
        if summary.accepted + summary.duplicates != 1 {
            return Err(format!("upload not acked: {summary:?}"));
        }
    }
    mode.switch_at(records.len(), records.len());
    Ok(done)
}

// ---- traced / untraced schedule --------------------------------------------

/// Which operations run traced. Untraced runs never switch ptm-obs on. A
/// traced run measures in the pattern untraced, traced, traced, untraced
/// (quarters of the phase), so drift over the phase weighs on both sides
/// alike and their difference is the tracing overhead.
pub struct TraceMode {
    enabled: bool,
    on: AtomicBool,
}

impl TraceMode {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            on: AtomicBool::new(false),
        }
    }

    pub fn traced_now(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    pub fn set(&self, on: bool) {
        ptm_obs::set_metrics_enabled(on);
        ptm_obs::set_tracing_enabled(on);
        self.on.store(on, Ordering::SeqCst);
    }

    /// For a phase of `n` operations: operation `i` runs traced when it
    /// falls in the middle half.
    pub fn switch_at(&self, i: usize, n: usize) {
        let on = self.enabled && (n / 4..n * 3 / 4).contains(&i);
        if on != self.traced_now() {
            self.set(on);
        }
    }

    /// Runs the switching schedule for a phase that started at `began`
    /// and lasts `length`; returns when the phase is over.
    pub fn run_schedule(&self, began: Instant, length: Duration) {
        let at = |quarter: u32| began + length * quarter / 4;
        if self.enabled {
            sleep_until(at(1));
            self.set(true);
            sleep_until(at(3));
            self.set(false);
        }
        sleep_until(at(4));
    }
}

pub fn sleep_until(when: Instant) {
    let now = Instant::now();
    if when > now {
        std::thread::sleep(when - now);
    }
}

/// Collects the daemon's own `rpc.server.queue_wait` and
/// `rpc.server.lock_wait` spans (JSONL lines from ptm-obs) while tracing
/// is on.
#[derive(Clone, Default)]
pub struct DaemonSpans {
    pub queue_wait_ns: Arc<Mutex<Vec<u64>>>,
    pub lock_wait_ns: Arc<Mutex<Vec<u64>>>,
}

impl DaemonSpans {
    pub fn install(&self) {
        ptm_obs::set_trace_writer(Some(Box::new(self.clone())));
    }

    pub fn uninstall() {
        ptm_obs::set_trace_writer(None);
    }
}

impl Write for DaemonSpans {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let line = String::from_utf8_lossy(buf);
        let target = if line.contains("\"name\":\"rpc.server.queue_wait\"") {
            &self.queue_wait_ns
        } else if line.contains("\"name\":\"rpc.server.lock_wait\"") {
            &self.lock_wait_ns
        } else {
            return Ok(buf.len());
        };
        let dur = line
            .split("\"dur_ns\":")
            .nth(1)
            .and_then(|rest| rest.trim_end_matches(['}', '\n']).parse::<u64>().ok());
        if let Some(dur) = dur {
            target.lock().expect("span sink lock").push(dur);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---- closed-loop queries ---------------------------------------------------

/// What a closed-loop query phase returns; samples in completion order.
pub struct ClosedLoop {
    /// Answers of the warm-up: checked, not timed.
    pub warm: Vec<QuerySample>,
    pub timed: Vec<QuerySample>,
    /// Process CPU time over the timed phase.
    pub cpu: Duration,
}

/// `connections` closed-loop query clients (one thread and one connection
/// each) for [`WARMUP`] and then `length`; each sends `next_query(rng)` as
/// soon as its previous answer arrives.
pub fn closed_loop_queries(
    addr: SocketAddr,
    connections: u64,
    length: Duration,
    seed: u64,
    mode: &TraceMode,
    next_query: &(dyn Fn(&mut rand_chacha::ChaCha8Rng) -> Query + Sync),
) -> BenchResult<ClosedLoop> {
    let began = Instant::now() + WARMUP;
    let deadline = began + length;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|id| {
                scope.spawn(move || -> BenchResult<Vec<QuerySample>> {
                    let mut rng = crate::gen::rng(seed, &[0x9e, id]);
                    let mut c = client(addr, seed, id)?;
                    let mut out = Vec::new();
                    let mut ready = Instant::now();
                    while Instant::now() < deadline {
                        let query = next_query(&mut rng);
                        let traced = mode.traced_now();
                        let sent = Instant::now();
                        let outcome = Outcome::of(query.send(&mut c));
                        let now = Instant::now();
                        out.push(QuerySample {
                            latency: now - sent,
                            late: sent - ready,
                            done: now.saturating_duration_since(began),
                            warmup: sent < began,
                            query,
                            traced,
                            outcome,
                        });
                        ready = now;
                    }
                    Ok(out)
                })
            })
            .collect();
        sleep_until(began);
        let cpu_before = process_cpu();
        mode.run_schedule(began, length);
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().expect("query thread panicked")?);
        }
        let cpu = process_cpu() - cpu_before;
        all.sort_by_key(|s| s.done);
        let (warm, timed) = all.into_iter().partition(|s| s.warmup);
        Ok(ClosedLoop { warm, timed, cpu })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SyntheticPool;

    fn sample(query: Query, outcome: Outcome) -> QuerySample {
        QuerySample {
            query,
            latency: Duration::ZERO,
            late: Duration::ZERO,
            done: Duration::ZERO,
            warmup: false,
            traced: false,
            outcome,
        }
    }

    #[test]
    fn verify_accepts_exact_answers_and_rejects_any_other() {
        let pool = SyntheticPool::generate(3, 4, 4);
        let source = |location: u64, period: u32| pool.record(location, period);
        let point = Query::Point {
            location: 2,
            periods: vec![0, 1, 3],
        };
        let p2p = Query::P2p {
            a: 2,
            b: 3,
            periods: vec![0, 1, 2, 3],
        };
        let right = |q: &Query| q.expected(&source).expect("estimates");
        let good = vec![
            sample(point.clone(), Outcome::Value(right(&point))),
            sample(p2p.clone(), Outcome::Value(right(&p2p))),
            sample(point.clone(), Outcome::Failed("refused".into())),
        ];
        assert_eq!(verify(&good, &source), Ok(2));

        let off_by_one_bit = f64::from_bits(right(&point).to_bits() ^ 1);
        let wrong = vec![sample(point.clone(), Outcome::Value(off_by_one_bit))];
        assert!(verify(&wrong, &source).is_err());

        let swapped = vec![sample(p2p.clone(), Outcome::Value(right(&point)))];
        assert!(verify(&swapped, &source).is_err());

        let error = vec![sample(
            point,
            Outcome::ServerError(ErrorCode::EstimateFailed, "estimate failed".into()),
        )];
        assert!(verify(&error, &source).is_err());
    }

    #[test]
    fn random_periods_are_distinct_and_sorted() {
        let mut rng = crate::gen::rng(1, &[]);
        for t in 1..=16 {
            let periods = random_periods(&mut rng, 16, t);
            assert_eq!(periods.len(), t as usize);
            assert!(periods.windows(2).all(|w| w[0] < w[1]));
            assert!(periods.iter().all(|&p| p < 16));
        }
    }
}
