//! The retrying RPC client.
//!
//! [`RpcClient`] opens (and transparently re-opens) one TCP connection to a
//! daemon and exposes typed calls for every [`crate::proto::Request`]. Each
//! call retries on *retryable* failures — connection refused/reset, timeouts,
//! a stream closed mid-exchange, a checksum-mangled response — with capped
//! exponential backoff plus jitter, and fails fast on *fatal* ones — any
//! error the server actually answered with (version mismatch, conflicting
//! duplicate, malformed request, missing record).
//!
//! Retrying an upload whose ack was lost is safe because the daemon's ingest
//! is idempotent: an identical re-send is acked as a duplicate, not stored
//! twice. That at-least-once contract is what lets this client treat every
//! ambiguous transport failure as "try again".
//!
//! Several mechanisms keep a retrying fleet from making a bad situation
//! worse (see `docs/FAULTS.md`):
//!
//! * a server [`Response::Overloaded`] answer is retried after at least
//!   its `retry_after_ms` hint, not hammered on the normal backoff;
//! * an optional **deadline budget** ([`ClientConfig::deadline`]) caps the
//!   total wall-clock a call may spend across all its attempts — and each
//!   attempt stamps its *remaining* budget into the request header, so
//!   the server can drop the request instead of executing it once this
//!   client has already given up ([`Response::DeadlineExceeded`]);
//! * a **retry budget** ([`ClientConfig::retry_budget`]) — a token bucket
//!   spent one per retry and refilled one per successful call — bounds how
//!   much retry pressure a persistently failing client adds on top of its
//!   per-call attempt cap;
//! * a **circuit breaker** opens after
//!   [`ClientConfig::breaker_threshold`] consecutive failed calls, failing
//!   further calls instantly ([`ClientError::CircuitOpen`]) until a
//!   cooldown passes and one half-open probe call is let through;
//! * a server [`Response::GoingAway`] answer (graceful drain) is a clean
//!   hand-off: the client drops the doomed connection and retries —
//!   against the restarted instance — after the server's hint.

use crate::frame::{
    append_frame_with, read_frame_with_stall, write_frame_vectored, FrameError, ReadOutcome,
    DEFAULT_MAX_FRAME_LEN,
};
use crate::proto::{
    decode_response, encode_request_with, ErrorCode, ProtoError, Request, Response, WireTrace,
    MAX_BATCH_RECORDS, MAX_QUERY_PERIODS,
};
use ptm_core::record::TrafficRecord;
use ptm_core::{LocationId, PeriodId};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest number of upload frames [`RpcClient::upload_pipelined`] keeps in
/// flight before pausing to drain acks. Caps the daemon-side reply queue a
/// single connection can build up.
pub const MAX_PIPELINE_WINDOW: usize = 256;

/// Tuning knobs for [`RpcClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-attempt read/write timeout on the open stream.
    pub io_timeout: Duration,
    /// Total attempts per call (first try + retries). Must be at least 1.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `min(cap, base * 2^(n-1))` plus jitter.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: Duration,
    /// Seed for the jitter PRNG (deterministic in tests).
    pub jitter_seed: u64,
    /// Largest response frame accepted.
    pub max_frame_len: u32,
    /// Total wall-clock budget per call, spanning every attempt and
    /// backoff sleep. `None` (the default) leaves only `max_attempts` as
    /// the bound. A call that would sleep past the budget fails with
    /// [`ClientError::DeadlineExceeded`] instead of sleeping.
    pub deadline: Option<Duration>,
    /// Consecutive failed *calls* before the circuit breaker opens; 0
    /// disables the breaker.
    pub breaker_threshold: u32,
    /// Minimum time the breaker stays open. A server `retry_after_ms`
    /// hint larger than this extends the hold.
    pub breaker_cooldown: Duration,
    /// Capacity of the retry token bucket; 0 disables it. Every retry
    /// sleep spends one token and every successful call refills one (up
    /// to this capacity), so a client whose calls keep failing runs dry
    /// and fails fast instead of compounding a server's overload with
    /// `max_attempts` retries per call, forever.
    pub retry_budget: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            max_attempts: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            deadline: None,
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(500),
            retry_budget: 32,
        }
    }
}

/// Why a call failed for good.
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with an application error; retrying cannot help.
    Server {
        /// The server's error code.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The response decoded to something other than what the call expects
    /// (protocol confusion; not retryable).
    UnexpectedResponse(String),
    /// The response payload failed to decode.
    Proto(ProtoError),
    /// Every attempt failed on transport errors; the last one is kept.
    Exhausted {
        /// Attempts made (equals `max_attempts`).
        attempts: u32,
        /// The final transport-level failure.
        last: String,
    },
    /// A request that can never be sent (e.g. an oversized batch).
    InvalidRequest(String),
    /// The deadline budget ran out before any attempt succeeded.
    DeadlineExceeded {
        /// Attempts completed before the budget ran out.
        attempts: u32,
        /// The most recent failure (empty if the first attempt never ran).
        last: String,
    },
    /// The circuit breaker is open: recent calls kept failing, so this one
    /// failed instantly without touching the network.
    CircuitOpen {
        /// How long until the breaker admits a half-open probe call.
        retry_after: Duration,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Server { code, message } => write!(f, "server error ({code:?}): {message}"),
            Self::UnexpectedResponse(detail) => write!(f, "unexpected response: {detail}"),
            Self::Proto(err) => write!(f, "protocol error: {err}"),
            Self::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            Self::InvalidRequest(detail) => write!(f, "invalid request: {detail}"),
            Self::DeadlineExceeded { attempts, last } => {
                write!(f, "deadline exceeded after {attempts} attempts: {last}")
            }
            Self::CircuitOpen { retry_after } => {
                write!(
                    f,
                    "circuit breaker open; retry in {} ms",
                    retry_after.as_millis()
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// The daemon's answer to an upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadSummary {
    /// Records newly persisted by this call.
    pub accepted: u32,
    /// Records the daemon already held with identical contents.
    pub duplicates: u32,
}

/// Ping response: the server's protocol version, estimator parameter, and
/// health snapshot — the payload behind `ptm serve --health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Protocol version the server speaks.
    pub version: u8,
    /// Representative-bit count `s` used by the point-to-point estimator.
    pub s: u32,
    /// Records currently held by the server's query engine.
    pub records: u64,
    /// Whether ingest is degraded (uploads shed while the archive backend
    /// is down; queries still served).
    pub degraded: bool,
}

enum AttemptError {
    /// Transport-level; worth retrying on a fresh connection.
    Retryable(String),
    /// Application-level; retrying is pointless.
    Fatal(ClientError),
}

/// How one decoded server answer steers the retry loop.
enum Disposition {
    /// The call's actual answer (success or payload); hand it to the
    /// caller.
    Done,
    /// A healthy server asking for space: keep the connection, retry
    /// after at least the hint.
    RetryAfter(u32),
    /// The server dropped the queued request past its wire deadline.
    /// Retryable: the next attempt stamps a fresh remaining-budget
    /// header, so it only runs if this call still has time left.
    RetryDoomed,
    /// Graceful-drain hand-off: drop the doomed connection, retry after
    /// the hint (against the restarted or replacement instance).
    RetryElsewhere(u32),
    /// The server answered with an application error; retrying cannot
    /// help.
    Fatal,
}

/// Classifies a decoded response as retryable or fatal.
///
/// Every error-range [`Response`] variant (the set [`Response::is_error`]
/// matches in `proto.rs`) must have an arm here — the `error-retryability`
/// rule in ptm-analyze fails the build when a new error variant is added
/// to the protocol without deciding its retry semantics.
fn classify_response(response: &Response) -> Disposition {
    match response {
        Response::Overloaded { retry_after_ms } => Disposition::RetryAfter(*retry_after_ms),
        Response::DeadlineExceeded => Disposition::RetryDoomed,
        Response::GoingAway { retry_after_ms } => Disposition::RetryElsewhere(*retry_after_ms),
        Response::Error { .. } => Disposition::Fatal,
        _ => Disposition::Done,
    }
}

/// Rejects a query the server would refuse as malformed — and whose
/// `u16` period count would wrap past 65 535 — before any byte is sent.
fn check_period_count(periods: &[PeriodId]) -> Result<(), ClientError> {
    if periods.len() > MAX_QUERY_PERIODS {
        return Err(ClientError::InvalidRequest(format!(
            "query over {} periods exceeds the {MAX_QUERY_PERIODS}-period limit",
            periods.len()
        )));
    }
    Ok(())
}

/// The remaining deadline budget to stamp into this attempt's header
/// (`None` when the call has no deadline — nothing is stamped and the
/// server never dooms the request). Clamped up to 1 ms so an attempt the
/// client is still willing to make is never stamped "already expired".
fn remaining_budget_ms(started: Instant, deadline: Option<Duration>) -> Option<u32> {
    deadline.map(|budget| {
        let remaining = budget.saturating_sub(started.elapsed());
        u32::try_from(remaining.as_millis())
            .unwrap_or(u32::MAX)
            .max(1)
    })
}

fn retryable_io(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::Interrupted
    )
}

fn classify_frame_error(err: FrameError) -> AttemptError {
    match err {
        // A mangled or cut-off response is a transport fault: the request
        // may or may not have been applied, and idempotent ingest makes a
        // blind retry safe either way.
        FrameError::Truncated | FrameError::Stalled | FrameError::BadCrc { .. } => {
            AttemptError::Retryable(err.to_string())
        }
        FrameError::Io(io_err) if retryable_io(io_err.kind()) => {
            AttemptError::Retryable(io_err.to_string())
        }
        FrameError::Io(io_err) => AttemptError::Fatal(ClientError::Exhausted {
            attempts: 0,
            last: io_err.to_string(),
        }),
        FrameError::TooLarge { .. } => {
            AttemptError::Fatal(ClientError::UnexpectedResponse(err.to_string()))
        }
    }
}

/// A client for one daemon address. Not thread-safe; open one per thread.
pub struct RpcClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    jitter_state: u64,
    /// Consecutive failed calls, for the circuit breaker.
    consecutive_failures: u32,
    /// While `Some`, the breaker is open and calls before this instant
    /// fail fast; the first call after it is the half-open probe.
    open_until: Option<Instant>,
    /// Remaining retry tokens (see [`ClientConfig::retry_budget`]).
    retry_tokens: u32,
}

impl RpcClient {
    /// Creates a client for `addr`. No connection is made until the first
    /// call.
    ///
    /// # Errors
    ///
    /// Address resolution failures.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|err| ClientError::InvalidRequest(format!("bad address: {err}")))?
            .next()
            .ok_or_else(|| ClientError::InvalidRequest("address resolved to nothing".into()))?;
        let jitter_state = config.jitter_seed | 1;
        let retry_tokens = config.retry_budget;
        Ok(Self {
            addr,
            config,
            stream: None,
            jitter_state,
            consecutive_failures: 0,
            open_until: None,
            retry_tokens,
        })
    }

    /// The resolved server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Pings the daemon, returning its protocol version and `s` parameter.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn ping(&mut self) -> Result<ServerInfo, ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong {
                version,
                s,
                records,
                degraded,
            } => Ok(ServerInfo {
                version,
                s,
                records,
                degraded,
            }),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Uploads one record (retried until acked or attempts are exhausted).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; `Server { code: DuplicateConflict, .. }` means a
    /// different record already occupies this `(location, period)`.
    pub fn upload(&mut self, record: &TrafficRecord) -> Result<UploadSummary, ClientError> {
        match self.call(&Request::Upload(record.clone()))? {
            Response::UploadOk {
                accepted,
                duplicates,
            } => Ok(UploadSummary {
                accepted,
                duplicates,
            }),
            other => Err(unexpected("UploadOk", &other)),
        }
    }

    /// Uploads a batch in one frame. The daemon applies it atomically: a
    /// conflict anywhere rejects the whole batch.
    ///
    /// # Errors
    ///
    /// [`ClientError::InvalidRequest`] for batches over
    /// [`MAX_BATCH_RECORDS`]; otherwise any [`ClientError`].
    pub fn upload_batch(
        &mut self,
        records: &[TrafficRecord],
    ) -> Result<UploadSummary, ClientError> {
        if records.len() > MAX_BATCH_RECORDS {
            return Err(ClientError::InvalidRequest(format!(
                "batch of {} exceeds the {MAX_BATCH_RECORDS}-record limit",
                records.len()
            )));
        }
        if records.is_empty() {
            return Ok(UploadSummary {
                accepted: 0,
                duplicates: 0,
            });
        }
        match self.call(&Request::UploadBatch(records.to_vec()))? {
            Response::UploadOk {
                accepted,
                duplicates,
            } => Ok(UploadSummary {
                accepted,
                duplicates,
            }),
            other => Err(unexpected("UploadOk", &other)),
        }
    }

    /// Uploads `records` as pipelined single-record frames: up to `window`
    /// frames (clamped to 1..=[`MAX_PIPELINE_WINDOW`]) are written in one
    /// batched wave before the matching acks are drained in order. The
    /// reactor daemon coalesces consecutive pipelined uploads into a single
    /// commit and batches their acks into one write, so this is the
    /// high-throughput ingest path for an RSU draining a backlog.
    ///
    /// Outcome semantics match issuing [`RpcClient::upload`] per record:
    /// acks are counted per record, an `Overloaded` shed pauses the
    /// pipeline and retries only the unacked records after the server's
    /// hint, and a transport failure reconnects and re-sends every unacked
    /// record (safe because ingest is idempotent).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; the first server `Error` frame (e.g. a
    /// conflicting duplicate) fails the call, with already-acked records
    /// staying persisted.
    pub fn upload_pipelined(
        &mut self,
        records: &[TrafficRecord],
        window: usize,
    ) -> Result<UploadSummary, ClientError> {
        if records.is_empty() {
            return Ok(UploadSummary {
                accepted: 0,
                duplicates: 0,
            });
        }
        let window = window.clamp(1, MAX_PIPELINE_WINDOW);
        if let Some(until) = self.open_until {
            let now = Instant::now();
            if now < until {
                ptm_obs::counter!("rpc.client.breaker.rejected").inc();
                return Err(ClientError::CircuitOpen {
                    retry_after: until - now,
                });
            }
            self.open_until = None;
        }
        let call_span = ptm_obs::tspan!("rpc.client.request");
        let wire = call_span.context().map(|ctx| WireTrace {
            trace_id: ctx.trace_id,
            parent_span: ctx.span_id,
        });
        // Each record is encoded once; retries re-send the same bytes, so
        // the daemon's duplicate detection sees bit-identical payloads.
        // The deadline stamp is the full budget (not re-computed per
        // retry) for the same reason — and because a backlog drain cares
        // about not losing records, not per-record latency.
        let stamp = remaining_budget_ms(Instant::now(), self.config.deadline);
        let payloads: Vec<Vec<u8>> = records
            .iter()
            .map(|record| encode_request_with(&Request::Upload(record.clone()), wire, stamp))
            .collect();
        let mut acked = vec![false; records.len()];
        let mut summary = UploadSummary {
            accepted: 0,
            duplicates: 0,
        };
        let attempts = self.config.max_attempts.max(1);
        let started = Instant::now();
        let mut last = String::new();
        let mut retry_hint: Option<Duration> = None;
        let mut last_hint: Option<u32> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let backoff = self.backoff(attempt);
                let delay = retry_hint.take().map_or(backoff, |hint| hint.max(backoff));
                if let Some(budget) = self.config.deadline {
                    if started.elapsed() + delay >= budget {
                        ptm_obs::counter!("rpc.client.deadline_exceeded").inc();
                        self.record_failure(last_hint);
                        return Err(ClientError::DeadlineExceeded {
                            attempts: attempt,
                            last,
                        });
                    }
                }
                if !self.spend_retry_token() {
                    self.record_failure(last_hint);
                    return Err(ClientError::Exhausted {
                        attempts: attempt,
                        last: format!("retry budget exhausted ({last})"),
                    });
                }
                ptm_obs::counter!("rpc.client.retries").inc();
                std::thread::sleep(delay);
            }
            match self.pipeline_attempt(&payloads, &mut acked, window, &mut summary) {
                Ok(None) => {
                    self.on_success();
                    return Ok(summary);
                }
                Ok(Some(retry_after_ms)) => {
                    ptm_obs::counter!("rpc.client.overloaded").inc();
                    retry_hint = Some(Duration::from_millis(u64::from(retry_after_ms)));
                    last_hint = Some(retry_after_ms);
                    last = format!("server overloaded; asked to retry after {retry_after_ms} ms");
                }
                Err(AttemptError::Fatal(err)) => {
                    self.record_failure(None);
                    return Err(err);
                }
                Err(AttemptError::Retryable(detail)) => {
                    ptm_obs::debug!("rpc.client", "pipelined attempt failed";
                        attempt = attempt + 1, error = detail.clone());
                    self.stream = None;
                    last = detail;
                }
            }
        }
        ptm_obs::counter!("rpc.client.exhausted").inc();
        self.record_failure(last_hint);
        Err(ClientError::Exhausted { attempts, last })
    }

    /// One pipelined pass over every record not yet acked: frames are
    /// written in `window`-sized waves (one batched vectored write per
    /// wave), then the wave's acks are drained in order. Returns `Ok(None)`
    /// when every record is acked, `Ok(Some(hint))` when the server shed
    /// part of the pass with `Overloaded`.
    fn pipeline_attempt(
        &mut self,
        payloads: &[Vec<u8>],
        acked: &mut [bool],
        window: usize,
        summary: &mut UploadSummary,
    ) -> Result<Option<u32>, AttemptError> {
        let io_timeout = self.config.io_timeout;
        let max_frame_len = self.config.max_frame_len;
        let stream = self.ensure_stream()?;
        let pending: Vec<usize> = (0..payloads.len()).filter(|&i| !acked[i]).collect();
        let mut wave_buf = Vec::new();
        let mut shed_hint: Option<u32> = None;
        for wave in pending.chunks(window) {
            wave_buf.clear();
            for &index in wave {
                append_frame_with(&mut wave_buf, |out| {
                    out.extend_from_slice(&payloads[index]);
                });
            }
            stream.write_all(&wave_buf).map_err(|err| {
                if retryable_io(err.kind()) {
                    AttemptError::Retryable(format!("send: {err}"))
                } else {
                    AttemptError::Fatal(ClientError::Exhausted {
                        attempts: 0,
                        last: format!("send: {err}"),
                    })
                }
            })?;
            ptm_obs::counter!("rpc.client.frames.out").add(wave.len() as u64);
            for &index in wave {
                let bytes = match read_frame_with_stall(stream, max_frame_len, Some(io_timeout)) {
                    Ok(ReadOutcome::Frame(bytes)) => bytes,
                    Ok(ReadOutcome::Idle) => {
                        return Err(AttemptError::Retryable("response timed out".into()))
                    }
                    Ok(ReadOutcome::Closed) => {
                        return Err(AttemptError::Retryable(
                            "connection closed awaiting response".into(),
                        ))
                    }
                    Err(err) => return Err(classify_frame_error(err)),
                };
                ptm_obs::counter!("rpc.client.frames.in").inc();
                let response = decode_response(&bytes)
                    .map_err(|err| AttemptError::Fatal(ClientError::Proto(err)))?;
                match classify_response(&response) {
                    Disposition::Done => match response {
                        Response::UploadOk {
                            accepted,
                            duplicates,
                        } => {
                            acked[index] = true;
                            summary.accepted += accepted;
                            summary.duplicates += duplicates;
                        }
                        other => {
                            return Err(AttemptError::Fatal(unexpected("UploadOk", &other)));
                        }
                    },
                    Disposition::RetryAfter(retry_after_ms) => {
                        shed_hint = Some(retry_after_ms);
                    }
                    // The record's frame sat in the worker queue past the
                    // stamped deadline; it stays unacked and the next
                    // pass re-sends it (normal backoff, no hint).
                    Disposition::RetryDoomed => {
                        ptm_obs::counter!("rpc.client.deadline_dropped").inc();
                        shed_hint = Some(shed_hint.unwrap_or(0));
                    }
                    // Graceful drain mid-pipeline: the connection is done
                    // serving. Surface as a transport-style retry so the
                    // outer loop reconnects and re-sends the unacked tail
                    // (idempotent ingest makes that safe).
                    Disposition::RetryElsewhere(retry_after_ms) => {
                        ptm_obs::counter!("rpc.client.going_away").inc();
                        return Err(AttemptError::Retryable(format!(
                            "server going away; asked to hand off after {retry_after_ms} ms"
                        )));
                    }
                    Disposition::Fatal => match response {
                        Response::Error { code, message } => {
                            if code == ErrorCode::VersionMismatch {
                                ptm_obs::counter!("rpc.client.version_mismatch").inc();
                            }
                            return Err(AttemptError::Fatal(ClientError::Server { code, message }));
                        }
                        other => {
                            return Err(AttemptError::Fatal(unexpected("UploadOk", &other)));
                        }
                    },
                }
            }
            if shed_hint.is_some() {
                // The server is shedding: stop pushing more waves and let
                // the caller back off before retrying the unacked tail.
                break;
            }
        }
        Ok(shed_hint)
    }

    /// Queries the traffic-volume estimate for one location and period.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn query_volume(
        &mut self,
        location: LocationId,
        period: PeriodId,
    ) -> Result<f64, ClientError> {
        self.expect_estimate(&Request::QueryVolume { location, period })
    }

    /// Queries the point persistent-traffic estimate over `periods`.
    ///
    /// # Errors
    ///
    /// [`ClientError::InvalidRequest`] for more than
    /// [`MAX_QUERY_PERIODS`] periods; otherwise any [`ClientError`].
    pub fn query_point(
        &mut self,
        location: LocationId,
        periods: &[PeriodId],
    ) -> Result<f64, ClientError> {
        check_period_count(periods)?;
        self.expect_estimate(&Request::QueryPoint {
            location,
            periods: periods.to_vec(),
        })
    }

    /// Queries the point-to-point persistent-traffic estimate over
    /// `periods`.
    ///
    /// # Errors
    ///
    /// [`ClientError::InvalidRequest`] for more than
    /// [`MAX_QUERY_PERIODS`] periods; otherwise any [`ClientError`].
    pub fn query_p2p(
        &mut self,
        location_a: LocationId,
        location_b: LocationId,
        periods: &[PeriodId],
    ) -> Result<f64, ClientError> {
        check_period_count(periods)?;
        self.expect_estimate(&Request::QueryP2p {
            location_a,
            location_b,
            periods: periods.to_vec(),
        })
    }

    fn expect_estimate(&mut self, request: &Request) -> Result<f64, ClientError> {
        match self.call(request)? {
            Response::Estimate(value) => Ok(value),
            other => Err(unexpected("Estimate", &other)),
        }
    }

    /// Fetches the daemon's live introspection snapshot as a JSON string —
    /// record/shard counts, histogram percentiles, the full metrics
    /// snapshot, and recent flight-recorder entries. This is the payload
    /// behind `ptm top`.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// One request/response exchange with retries, bounded by the attempt
    /// count, the optional deadline budget, and the circuit breaker.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        if let Some(until) = self.open_until {
            let now = Instant::now();
            if now < until {
                ptm_obs::counter!("rpc.client.breaker.rejected").inc();
                return Err(ClientError::CircuitOpen {
                    retry_after: until - now,
                });
            }
            // Cooldown over: this call is the half-open probe. Success
            // closes the breaker; failure re-opens it for another hold.
            self.open_until = None;
        }
        // One span covers the whole call — every attempt, backoff sleep,
        // and the final decode share it — and its context rides the
        // request header so the daemon's spans join this trace.
        let call_span = ptm_obs::tspan!("rpc.client.request");
        let wire = call_span.context().map(|ctx| WireTrace {
            trace_id: ctx.trace_id,
            parent_span: ctx.span_id,
        });
        let attempts = self.config.max_attempts.max(1);
        let started = Instant::now();
        let mut last = String::new();
        // A server retry_after_ms hint floors the next backoff, and the
        // latest hint seeds the breaker hold if this call exhausts.
        let mut retry_hint: Option<Duration> = None;
        let mut last_hint: Option<u32> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let backoff = self.backoff(attempt);
                let delay = retry_hint.take().map_or(backoff, |hint| hint.max(backoff));
                if let Some(budget) = self.config.deadline {
                    if started.elapsed() + delay >= budget {
                        ptm_obs::counter!("rpc.client.deadline_exceeded").inc();
                        self.record_failure(last_hint);
                        return Err(ClientError::DeadlineExceeded {
                            attempts: attempt,
                            last,
                        });
                    }
                }
                if !self.spend_retry_token() {
                    self.record_failure(last_hint);
                    return Err(ClientError::Exhausted {
                        attempts: attempt,
                        last: format!("retry budget exhausted ({last})"),
                    });
                }
                ptm_obs::counter!("rpc.client.retries").inc();
                std::thread::sleep(delay);
            }
            // Re-encoded per attempt: the stamped header carries the
            // budget still remaining *now*, so the server sees how long
            // this attempt — not the original call — is worth queueing.
            let payload = encode_request_with(
                request,
                wire,
                remaining_budget_ms(started, self.config.deadline),
            );
            match self.attempt(&payload) {
                Ok(response) => match classify_response(&response) {
                    Disposition::Done => {
                        // Any decoded answer means the transport and
                        // server are alive: the breaker resets.
                        self.on_success();
                        return Ok(response);
                    }
                    Disposition::Fatal => {
                        // The breaker resets even for an error frame —
                        // the server is speaking, and nothing about a
                        // retry improves its answer.
                        self.on_success();
                        if let Response::Error { code, message } = response {
                            if code == ErrorCode::VersionMismatch {
                                ptm_obs::counter!("rpc.client.version_mismatch").inc();
                            }
                            return Err(ClientError::Server { code, message });
                        }
                        return Err(unexpected("a decodable answer", &response));
                    }
                    // An overload shed is a healthy server asking for
                    // space: keep the connection, honor the hint, retry.
                    Disposition::RetryAfter(retry_after_ms) => {
                        ptm_obs::counter!("rpc.client.overloaded").inc();
                        retry_hint = Some(Duration::from_millis(u64::from(retry_after_ms)));
                        last_hint = Some(retry_after_ms);
                        last =
                            format!("server overloaded; asked to retry after {retry_after_ms} ms");
                    }
                    // The server dropped the queued request past its wire
                    // deadline. The next attempt re-stamps whatever
                    // budget is left; the deadline check above ends the
                    // call once none remains.
                    Disposition::RetryDoomed => {
                        ptm_obs::counter!("rpc.client.deadline_dropped").inc();
                        last = "server dropped the request past its wire deadline".into();
                    }
                    // Graceful drain: this connection is done serving.
                    // Drop it and retry elsewhere after the hint.
                    Disposition::RetryElsewhere(retry_after_ms) => {
                        ptm_obs::counter!("rpc.client.going_away").inc();
                        self.stream = None;
                        retry_hint = Some(Duration::from_millis(u64::from(retry_after_ms)));
                        last_hint = Some(retry_after_ms);
                        last = format!(
                            "server going away; asked to hand off after {retry_after_ms} ms"
                        );
                    }
                },
                Err(AttemptError::Fatal(err)) => {
                    self.record_failure(None);
                    return Err(err);
                }
                Err(AttemptError::Retryable(detail)) => {
                    ptm_obs::debug!("rpc.client", "attempt failed";
                        attempt = attempt + 1, error = detail.clone());
                    self.stream = None;
                    last = detail;
                }
            }
        }
        ptm_obs::counter!("rpc.client.exhausted").inc();
        self.record_failure(last_hint);
        Err(ClientError::Exhausted { attempts, last })
    }

    /// Resets the breaker after any decoded server answer, and refills
    /// one retry token (successes earn back the right to retry later).
    fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.open_until = None;
        if self.config.retry_budget != 0 && self.retry_tokens < self.config.retry_budget {
            self.retry_tokens += 1;
            ptm_obs::counter!("rpc.client.retry_budget.refilled").inc();
        }
    }

    /// Takes one retry token. `false` means the bucket is dry: the call
    /// must give up now instead of adding more retry pressure to a
    /// server that has not answered a success in a long time.
    fn spend_retry_token(&mut self) -> bool {
        if self.config.retry_budget == 0 {
            return true;
        }
        if self.retry_tokens == 0 {
            ptm_obs::counter!("rpc.client.retry_budget.exhausted").inc();
            return false;
        }
        self.retry_tokens -= 1;
        ptm_obs::counter!("rpc.client.retry_budget.spent").inc();
        true
    }

    /// Counts one failed call toward the breaker, opening it at the
    /// threshold for `max(retry_after hint, breaker_cooldown)`.
    fn record_failure(&mut self, hint_ms: Option<u32>) {
        if self.config.breaker_threshold == 0 {
            return;
        }
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= self.config.breaker_threshold {
            let hold = hint_ms
                .map(|ms| Duration::from_millis(u64::from(ms)))
                .map_or(self.config.breaker_cooldown, |hint| {
                    hint.max(self.config.breaker_cooldown)
                });
            self.open_until = Some(Instant::now() + hold);
            ptm_obs::counter!("rpc.client.breaker.opened").inc();
            ptm_obs::warn!("rpc.client", "circuit breaker opened";
                failures = self.consecutive_failures, hold_ms = hold.as_millis() as u64);
        }
    }

    /// Opens the TCP stream if none is cached, classifying connect failures.
    fn ensure_stream(&mut self) -> Result<&mut TcpStream, AttemptError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
                .map_err(|err| {
                    if retryable_io(err.kind()) {
                        AttemptError::Retryable(format!("connect: {err}"))
                    } else {
                        AttemptError::Fatal(ClientError::Exhausted {
                            attempts: 0,
                            last: format!("connect: {err}"),
                        })
                    }
                })?;
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(self.config.io_timeout));
            let _ = stream.set_write_timeout(Some(self.config.io_timeout));
            ptm_obs::counter!("rpc.client.connects").inc();
            self.stream = Some(stream);
        }
        match self.stream.as_mut() {
            Some(stream) => Ok(stream),
            // Unreachable: the branch above just ensured the stream.
            None => Err(AttemptError::Retryable(
                "stream missing after connect".into(),
            )),
        }
    }

    fn attempt(&mut self, payload: &[u8]) -> Result<Response, AttemptError> {
        let io_timeout = self.config.io_timeout;
        let max_frame_len = self.config.max_frame_len;
        let stream = self.ensure_stream()?;
        write_frame_vectored(stream, payload).map_err(|err| {
            if retryable_io(err.kind()) {
                AttemptError::Retryable(format!("send: {err}"))
            } else {
                AttemptError::Fatal(ClientError::Exhausted {
                    attempts: 0,
                    last: format!("send: {err}"),
                })
            }
        })?;
        ptm_obs::counter!("rpc.client.frames.out").inc();
        // The stall budget lets a response that is already arriving keep
        // dribbling in for up to another io_timeout, instead of failing
        // the attempt at the first mid-frame timeout.
        let bytes = match read_frame_with_stall(stream, max_frame_len, Some(io_timeout)) {
            Ok(ReadOutcome::Frame(bytes)) => bytes,
            // The io_timeout read deadline surfaces as Idle when it fires
            // before the first response byte; for a client awaiting an
            // answer that is a timeout, not idleness.
            Ok(ReadOutcome::Idle) => {
                return Err(AttemptError::Retryable("response timed out".into()))
            }
            Ok(ReadOutcome::Closed) => {
                return Err(AttemptError::Retryable(
                    "connection closed awaiting response".into(),
                ))
            }
            Err(err) => return Err(classify_frame_error(err)),
        };
        ptm_obs::counter!("rpc.client.frames.in").inc();
        decode_response(&bytes).map_err(|err| match err {
            ProtoError::VersionMismatch { .. } => AttemptError::Fatal(ClientError::Proto(err)),
            other => AttemptError::Fatal(ClientError::Proto(other)),
        })
    }

    /// Backoff before retry `attempt` (1-based): exponential with a cap,
    /// plus up to 50% jitter from a xorshift PRNG so a fleet of clients
    /// recovering from one outage does not reconnect in lockstep.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let base = self.config.backoff_base.saturating_mul(1u32 << exp);
        let capped = base.min(self.config.backoff_cap);
        // xorshift64 — no external RNG dependency for one jitter source.
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        let jitter_frac = (x % 1000) as f64 / 1000.0 * 0.5;
        capped.mul_f64(1.0 + jitter_frac)
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::UnexpectedResponse(format!("wanted {wanted}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            io_timeout: Duration::from_millis(500),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut client = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let b1 = client.backoff(1);
        let b3 = client.backoff(3);
        let b10 = client.backoff(10);
        assert!(b1 >= Duration::from_millis(1), "{b1:?}");
        assert!(b1 <= Duration::from_millis(2), "{b1:?}"); // base + 50% jitter
        assert!(b3 >= Duration::from_millis(4), "{b3:?}"); // capped
        assert!(b10 <= Duration::from_millis(6), "{b10:?}"); // cap + 50%
    }

    #[test]
    fn jitter_varies_between_calls() {
        let mut client = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let samples: Vec<Duration> = (0..8).map(|_| client.backoff(5)).collect();
        let distinct: std::collections::HashSet<_> = samples.iter().collect();
        assert!(
            distinct.len() > 1,
            "jitter produced identical delays: {samples:?}"
        );
    }

    #[test]
    fn refused_connection_exhausts_retries() {
        // Port 1 on loopback is essentially never listening.
        let mut client = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        match client.ping() {
            Err(ClientError::Exhausted { attempts: 3, .. }) => {}
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn oversized_batch_rejected_locally() {
        let mut client = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let record = ptm_core::record::TrafficRecord::new(
            LocationId::new(1),
            PeriodId::new(0),
            ptm_core::params::BitmapSize::new(64).expect("pow2"),
        );
        let batch = vec![record; MAX_BATCH_RECORDS + 1];
        match client.upload_batch(&batch) {
            Err(ClientError::InvalidRequest(_)) => {}
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
        // Queries over too many periods: one past the server's limit, and
        // a count that would wrap the u16 wire field. Nothing is sent, so
        // the dead port is never retried.
        for count in [MAX_QUERY_PERIODS + 1, 70_000] {
            let periods: Vec<PeriodId> = (0..count as u32).map(PeriodId::new).collect();
            match client.query_point(LocationId::new(1), &periods) {
                Err(ClientError::InvalidRequest(_)) => {}
                other => {
                    panic!("point over {count} periods: expected InvalidRequest, got {other:?}")
                }
            }
            match client.query_p2p(LocationId::new(1), LocationId::new(2), &periods) {
                Err(ClientError::InvalidRequest(_)) => {}
                other => panic!("p2p over {count} periods: expected InvalidRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_batch_is_a_local_no_op() {
        let mut client = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let summary = client.upload_batch(&[]).expect("empty batch");
        assert_eq!(
            summary,
            UploadSummary {
                accepted: 0,
                duplicates: 0
            }
        );
    }

    #[test]
    fn same_seed_yields_identical_backoff_sequences() {
        // Deterministic jitter: two clients with the same seed sleep the
        // same sequence; a different seed diverges.
        let mut a = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let mut b = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let mut c = RpcClient::connect(
            "127.0.0.1:1",
            ClientConfig {
                jitter_seed: 0xDEAD_BEEF,
                ..test_config()
            },
        )
        .expect("client");
        let seq_a: Vec<Duration> = (1..=8).map(|n| a.backoff(n)).collect();
        let seq_b: Vec<Duration> = (1..=8).map(|n| b.backoff(n)).collect();
        let seq_c: Vec<Duration> = (1..=8).map(|n| c.backoff(n)).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn deadline_budget_caps_total_retry_time() {
        // 100 permitted attempts but a 60 ms budget against 20 ms
        // backoffs: the deadline, not the attempt count, ends the call.
        let config = ClientConfig {
            max_attempts: 100,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(20),
            deadline: Some(Duration::from_millis(60)),
            breaker_threshold: 0,
            ..test_config()
        };
        let mut client = RpcClient::connect("127.0.0.1:1", config).expect("client");
        let started = std::time::Instant::now();
        match client.ping() {
            Err(ClientError::DeadlineExceeded { attempts, .. }) => {
                assert!(
                    attempts < 100,
                    "deadline fired before exhaustion: {attempts}"
                );
                assert!(attempts >= 1, "at least one attempt ran");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "call overran its budget: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn breaker_opens_after_threshold_then_rejects_without_io() {
        let config = ClientConfig {
            max_attempts: 1,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(30),
            ..test_config()
        };
        let mut client = RpcClient::connect("127.0.0.1:1", config).expect("client");
        for _ in 0..2 {
            match client.ping() {
                Err(ClientError::Exhausted { .. }) => {}
                other => panic!("expected exhaustion, got {other:?}"),
            }
        }
        // Third call fails fast with the hold remaining, no network touch.
        match client.ping() {
            Err(ClientError::CircuitOpen { retry_after }) => {
                assert!(retry_after > Duration::from_secs(20), "{retry_after:?}");
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
    }

    #[test]
    fn breaker_half_open_probe_recovers_on_success() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::{encode_response, PROTOCOL_VERSION};

        // A one-shot responder: answer the first framed request with Pong.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                if let Ok(ReadOutcome::Frame(_)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                    let payload = encode_response(&Response::Pong {
                        version: PROTOCOL_VERSION,
                        s: 3,
                        records: 7,
                        degraded: false,
                    });
                    let _ = write_frame(&mut stream, &payload);
                }
            }
        });

        let config = ClientConfig {
            max_attempts: 1,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(20),
            ..test_config()
        };
        let mut client = RpcClient::connect(addr, config).expect("client");
        // Force the breaker open as if previous calls had failed.
        client.consecutive_failures = 2;
        client.open_until = Some(std::time::Instant::now() + Duration::from_millis(20));
        match client.ping() {
            Err(ClientError::CircuitOpen { .. }) => {}
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(30));
        // Past the cooldown the probe call goes through and closes the
        // breaker; the extended Pong fields surface in ServerInfo.
        let info = client.ping().expect("half-open probe succeeds");
        assert_eq!(
            info,
            ServerInfo {
                version: PROTOCOL_VERSION,
                s: 3,
                records: 7,
                degraded: false
            }
        );
        assert_eq!(client.consecutive_failures, 0);
        assert!(client.open_until.is_none());
        responder.join().expect("responder");
    }

    fn test_record(period: u32) -> TrafficRecord {
        TrafficRecord::new(
            LocationId::new(9),
            PeriodId::new(period),
            ptm_core::params::BitmapSize::new(64).expect("pow2"),
        )
    }

    #[test]
    fn empty_pipelined_upload_is_a_local_no_op() {
        let mut client = RpcClient::connect("127.0.0.1:1", test_config()).expect("client");
        let summary = client.upload_pipelined(&[], 8).expect("empty pipeline");
        assert_eq!(
            summary,
            UploadSummary {
                accepted: 0,
                duplicates: 0
            }
        );
    }

    #[test]
    fn pipelined_upload_drains_acks_per_wave() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::encode_response;

        // A frame-for-frame responder: ack every upload it can read.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut acked = 0u32;
            while let Ok(ReadOutcome::Frame(_)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                let payload = encode_response(&Response::UploadOk {
                    accepted: 1,
                    duplicates: 0,
                });
                if write_frame(&mut stream, &payload).is_err() {
                    break;
                }
                acked += 1;
            }
            acked
        });

        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let records: Vec<TrafficRecord> = (0..7).map(test_record).collect();
        let summary = client.upload_pipelined(&records, 3).expect("pipeline");
        assert_eq!(
            summary,
            UploadSummary {
                accepted: 7,
                duplicates: 0
            }
        );
        drop(client);
        assert_eq!(responder.join().expect("responder"), 7);
    }

    #[test]
    fn pipelined_upload_retries_only_the_shed_tail() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::encode_response;

        // Shed the very first frame, ack everything after it: the client
        // must retry exactly the shed record, not re-upload the acked ones.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut seen = 0u32;
            while let Ok(ReadOutcome::Frame(_)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                seen += 1;
                let response = if seen == 1 {
                    Response::Overloaded { retry_after_ms: 5 }
                } else {
                    Response::UploadOk {
                        accepted: 1,
                        duplicates: 0,
                    }
                };
                if write_frame(&mut stream, &encode_response(&response)).is_err() {
                    break;
                }
            }
            seen
        });

        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let records: Vec<TrafficRecord> = (0..3).map(test_record).collect();
        let summary = client.upload_pipelined(&records, 3).expect("pipeline");
        assert_eq!(
            summary,
            UploadSummary {
                accepted: 3,
                duplicates: 0
            }
        );
        drop(client);
        // 3 frames in the first wave + 1 retried shed record.
        assert_eq!(responder.join().expect("responder"), 4);
    }

    #[test]
    fn pipelined_window_is_clamped() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::encode_response;

        // A window of 0 still makes progress (clamped up to 1).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            while let Ok(ReadOutcome::Frame(_)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                let payload = encode_response(&Response::UploadOk {
                    accepted: 1,
                    duplicates: 0,
                });
                if write_frame(&mut stream, &payload).is_err() {
                    break;
                }
            }
        });
        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let records: Vec<TrafficRecord> = (0..2).map(test_record).collect();
        let summary = client.upload_pipelined(&records, 0).expect("pipeline");
        assert_eq!(summary.accepted, 2);
        drop(client);
        responder.join().expect("responder");
    }

    #[test]
    fn retry_budget_dries_up_across_calls_and_reports_it() {
        // 3 tokens against a refused port: call one burns two retries,
        // call two burns the last token and then fails on the empty
        // bucket — before its attempt cap.
        let config = ClientConfig {
            breaker_threshold: 0,
            retry_budget: 3,
            ..test_config()
        };
        let mut client = RpcClient::connect("127.0.0.1:1", config).expect("client");
        match client.ping() {
            Err(ClientError::Exhausted { attempts: 3, .. }) => {}
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(client.retry_tokens, 1);
        match client.ping() {
            Err(ClientError::Exhausted { attempts: 2, last }) => {
                assert!(
                    last.contains("retry budget exhausted"),
                    "unexpected failure detail: {last}"
                );
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        assert_eq!(client.retry_tokens, 0);
    }

    #[test]
    fn successes_refill_the_retry_budget() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::{encode_response, PROTOCOL_VERSION};

        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            while let Ok(ReadOutcome::Frame(_)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                let payload = encode_response(&Response::Pong {
                    version: PROTOCOL_VERSION,
                    s: 3,
                    records: 0,
                    degraded: false,
                });
                if write_frame(&mut stream, &payload).is_err() {
                    break;
                }
            }
        });
        let config = ClientConfig {
            retry_budget: 4,
            ..test_config()
        };
        let mut client = RpcClient::connect(addr, config).expect("client");
        client.retry_tokens = 0;
        client.ping().expect("ping");
        client.ping().expect("ping");
        assert_eq!(client.retry_tokens, 2, "each success refills one token");
        drop(client);
        responder.join().expect("responder");
    }

    #[test]
    fn going_away_hand_off_reconnects_and_retries() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::{encode_response, PROTOCOL_VERSION};

        // First connection answers GoingAway and closes (a draining
        // server); the retry must arrive on a *new* connection and
        // succeed there.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().expect("accept");
            if let Ok(ReadOutcome::Frame(_)) = read_frame(&mut first, DEFAULT_MAX_FRAME_LEN) {
                let payload = encode_response(&Response::GoingAway { retry_after_ms: 5 });
                let _ = write_frame(&mut first, &payload);
            }
            drop(first);
            let (mut second, _) = listener.accept().expect("accept second");
            if let Ok(ReadOutcome::Frame(_)) = read_frame(&mut second, DEFAULT_MAX_FRAME_LEN) {
                let payload = encode_response(&Response::Pong {
                    version: PROTOCOL_VERSION,
                    s: 3,
                    records: 0,
                    degraded: false,
                });
                let _ = write_frame(&mut second, &payload);
            }
        });
        let mut client = RpcClient::connect(addr, test_config()).expect("client");
        let info = client.ping().expect("hand-off retry succeeds");
        assert_eq!(info.s, 3);
        drop(client);
        responder.join().expect("responder");
    }

    #[test]
    fn deadline_dropped_reply_is_retried_with_a_fresh_stamp() {
        use crate::frame::{read_frame, write_frame, ReadOutcome};
        use crate::proto::{decode_request, encode_response, PROTOCOL_VERSION};

        // The server dooms the first attempt; the second succeeds. Both
        // attempts must carry a deadline stamp, and the second's must not
        // exceed the first's (the budget only shrinks).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut stamps = Vec::new();
            for turn in 0..2 {
                let Ok(ReadOutcome::Frame(bytes)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
                else {
                    break;
                };
                let decoded = decode_request(&bytes).expect("decode request");
                stamps.push(decoded.deadline_ms.expect("deadline stamped"));
                let response = if turn == 0 {
                    Response::DeadlineExceeded
                } else {
                    Response::Pong {
                        version: PROTOCOL_VERSION,
                        s: 3,
                        records: 0,
                        degraded: false,
                    }
                };
                if write_frame(&mut stream, &encode_response(&response)).is_err() {
                    break;
                }
            }
            stamps
        });
        let config = ClientConfig {
            deadline: Some(Duration::from_secs(30)),
            ..test_config()
        };
        let mut client = RpcClient::connect(addr, config).expect("client");
        client.ping().expect("retry after doomed reply succeeds");
        drop(client);
        let stamps = responder.join().expect("responder");
        assert_eq!(stamps.len(), 2, "both attempts stamped");
        assert!(
            stamps[1] <= stamps[0],
            "remaining budget grew across attempts: {stamps:?}"
        );
    }

    #[test]
    fn every_error_range_response_has_a_retry_classification() {
        // Mirror of the error-retryability analyze rule, exercised at
        // runtime: each is_error() variant classifies to something other
        // than Done.
        let cases = [
            Response::Error {
                code: ErrorCode::Internal,
                message: String::new(),
            },
            Response::Overloaded { retry_after_ms: 1 },
            Response::DeadlineExceeded,
            Response::GoingAway { retry_after_ms: 1 },
        ];
        for response in cases {
            assert!(response.is_error());
            assert!(
                !matches!(classify_response(&response), Disposition::Done),
                "error-range response classified Done: {response:?}"
            );
        }
    }

    #[test]
    fn retryable_io_classification() {
        assert!(retryable_io(io::ErrorKind::ConnectionRefused));
        assert!(retryable_io(io::ErrorKind::TimedOut));
        assert!(retryable_io(io::ErrorKind::UnexpectedEof));
        assert!(!retryable_io(io::ErrorKind::PermissionDenied));
        assert!(!retryable_io(io::ErrorKind::InvalidData));
    }
}
