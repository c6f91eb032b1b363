//! Loopback-daemon benchmark for the ptm workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|query|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Starts a real `RpcServer` with
//! `ServerConfig::default()` on 127.0.0.1, drives it through `RpcClient`,
//! checks every answer against the in-process estimator, and prints each
//! metric with its unit and sample count; the last stdout line is the JSON
//! result. `--trace 0` reports the end-to-end metrics with ptm-obs off;
//! `--trace 1` reports the per-layer breakdown. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod drive;
mod gen;
mod layers;
mod report;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Scratch stores and span files, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench";

/// Printed with `--trace 0`. Throughput, p99 and CPU per operation are
/// printed above the result line but not compared: on a shared 2-vCPU host
/// their run-to-run spread is wider than any usable bound (see
/// perfbench/README.md).
pub const END_TO_END: &[&str] = &["setup_s", "latency_p50_ms", "peak_rss_mb"];

/// Printed with `--trace 1`.
pub const PER_LAYER: &[&str] = &[
    "rpc.frame_encode_us",
    "rpc.frame_decode_us",
    "rpc.encode_request_us",
    "rpc.decode_request_us",
    "rpc.queue_wait_p99_us",
    "rpc.lock_wait_p99_us",
    "rpc.cache_hit_ratio",
    "rpc.shed_count",
    "rpc.residual_upload_us",
    "rpc.residual_point_us",
    "rpc.residual_p2p_us",
    "net.submit_us",
    "net.point_query_us",
    "net.p2p_query_us",
    "net.gather_us",
    "core.point_estimate_us",
    "core.p2p_estimate_us",
    "store.encode_record_us",
    "store.decode_record_us",
    "store.append_flush_us",
    "store.open_ms",
    "store.hydrate_ms",
    "store.cache_hit_ratio",
    "store.bytes_per_record_byte",
    "obs.trace_overhead_pct",
    "harness.gen_late_p99_ms",
    "fail_ratio",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds < 1 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload ingest|query|mixed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args, &std::path::Path) -> Result<report::Report, String> =
        match args.workload.as_str() {
            "ingest" => workloads::ingest,
            "query" => workloads::query,
            "mixed" => workloads::mixed,
            other => {
                eprintln!("perfbench: unknown workload {other}");
                return ExitCode::from(2);
            }
        };
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(err) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {err}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            println!(
                "workload={} seed={} seconds={} trace={}",
                args.workload,
                args.seed,
                args.seconds.as_secs(),
                u8::from(args.trace)
            );
            report.print(if args.trace { PER_LAYER } else { END_TO_END });
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: FAILED: {err}");
            ExitCode::FAILURE
        }
    }
}
