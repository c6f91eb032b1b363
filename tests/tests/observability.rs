//! Cross-crate observability tests: the ptm-obs registry is process-global,
//! so these check that the instrumentation woven through ptm-core / ptm-net /
//! ptm-sim records the right things, stays race-free under `run_trials`
//! parallelism, and produces thread-count-independent snapshots.
//!
//! The enabled flag and the registry are shared by every test in this
//! binary; `obs_lock()` serializes them, and each test measures *deltas*
//! (value after minus value before) rather than absolute counter values.

#![forbid(unsafe_code)]

use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use ptm_core::params::BitmapSize;
use ptm_core::record::PeriodId;
use ptm_integration_tests::{direct_record, fleet};
use ptm_net::{SimConfig, SimDuration, V2iSimulator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn counter_value(name: &str) -> u64 {
    ptm_obs::registry().counter(name).get()
}

fn histogram_count(name: &str) -> u64 {
    ptm_obs::registry().histogram(name).count()
}

#[test]
fn concurrent_counter_and_histogram_recording_is_exact() {
    let _guard = obs_lock();
    ptm_obs::set_metrics_enabled(true);
    const TRIALS: usize = 64;
    const PER_TRIAL: u64 = 1000;
    let counter = ptm_obs::registry().counter("itest.concurrent.counter");
    let hist = ptm_obs::registry().histogram("itest.concurrent.hist");
    let counter_before = counter.get();
    let hist_before = hist.count();

    // Hammer one counter and one histogram from all run_trials workers.
    ptm_sim::runner::run_trials(TRIALS, 8, |trial| {
        for i in 0..PER_TRIAL {
            counter.inc();
            hist.record(trial as u64 * PER_TRIAL + i);
        }
    });

    assert_eq!(
        counter.get() - counter_before,
        TRIALS as u64 * PER_TRIAL,
        "no increments may be lost under contention"
    );
    assert_eq!(hist.count() - hist_before, TRIALS as u64 * PER_TRIAL);
    ptm_obs::set_metrics_enabled(false);
}

/// Runs the same deterministic encode workload under `run_trials` and
/// returns the deltas of the encode counters it produced.
fn encode_workload_deltas(threads: usize) -> BTreeMap<&'static str, u64> {
    let names = [
        "core.encode.vehicles",
        "core.encode.bits_set",
        "core.encode.collisions",
    ];
    let before: BTreeMap<&str, u64> = names.iter().map(|&n| (n, counter_value(n))).collect();
    let span_before = histogram_count("core.encode.record");

    ptm_sim::runner::run_trials(16, threads, |trial| {
        let scheme = EncodingScheme::new(0x0B5E, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(trial as u64);
        let vehicles = fleet(&mut rng, 50, 3);
        direct_record(
            &scheme,
            LocationId::new(trial as u64 + 1),
            PeriodId::new(0),
            BitmapSize::new(1 << 12).expect("pow2"),
            &vehicles,
        )
    });

    let mut deltas: BTreeMap<&'static str, u64> = names
        .iter()
        .map(|&n| (n, counter_value(n) - before[n]))
        .collect();
    deltas.insert(
        "span:core.encode.record",
        histogram_count("core.encode.record") - span_before,
    );
    deltas
}

#[test]
fn snapshot_deltas_are_independent_of_thread_count() {
    let _guard = obs_lock();
    ptm_obs::set_metrics_enabled(true);
    let single = encode_workload_deltas(1);
    let parallel = encode_workload_deltas(8);
    assert_eq!(
        single, parallel,
        "the same workload must record identical counts at any thread count"
    );
    // Sanity: the workload did record something, and the parts add up.
    assert_eq!(single["core.encode.vehicles"], 16 * 50);
    assert_eq!(
        single["core.encode.bits_set"] + single["core.encode.collisions"],
        single["core.encode.vehicles"]
    );
    assert_eq!(single["span:core.encode.record"], 16 * 50);
    ptm_obs::set_metrics_enabled(false);
}

#[test]
fn snapshots_of_settled_state_are_deterministic() {
    let _guard = obs_lock();
    ptm_obs::set_metrics_enabled(true);
    ptm_obs::registry()
        .counter("itest.deterministic.counter")
        .add(5);
    ptm_obs::registry()
        .histogram("itest.deterministic.hist")
        .record(77);
    ptm_obs::set_metrics_enabled(false);
    // With no writers running, repeated snapshots must match exactly —
    // including their JSON rendering (sorted names).
    let first = ptm_obs::snapshot();
    let second = ptm_obs::snapshot();
    assert_eq!(first, second);
    assert_eq!(first.to_json_pretty(), second.to_json_pretty());
}

#[test]
fn pipeline_metrics_cover_encode_submit_estimate() {
    let _guard = obs_lock();
    ptm_obs::set_metrics_enabled(true);
    let submit_before = counter_value("net.server.submit.accepted");
    let bits_before = counter_value("net.server.bits_stored");
    let query_before = counter_value("net.server.query.point");
    let join_before = counter_value("core.join.and.ops");
    let period_spans_before = histogram_count("net.sim.period");

    // Encode → submit → estimate through the full V2I simulator.
    let scheme = EncodingScheme::new(0x0B55, 3);
    let size = BitmapSize::new(1 << 11).expect("pow2");
    let mut sim = V2iSimulator::new(
        SimConfig::default(),
        scheme,
        &[(LocationId::new(1), size)],
        1234,
    );
    let vehicles: Vec<usize> = (0..60).map(|_| sim.add_vehicle()).collect();
    let periods: Vec<PeriodId> = (0..3).map(PeriodId::new).collect();
    for &p in &periods {
        for (k, &v) in vehicles.iter().enumerate() {
            sim.schedule_pass(v, 0, SimDuration::from_millis(100 * k as u64));
        }
        sim.run_period(p).expect("period runs");
    }
    sim.server()
        .estimate_point_persistent(LocationId::new(1), &periods)
        .expect("estimate");
    // The encode-latency histogram is fed by the direct-encoding fast path.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let vs: Vec<VehicleSecrets> = fleet(&mut rng, 10, 3);
    direct_record(&scheme, LocationId::new(2), PeriodId::new(0), size, &vs);
    // Touch the trial runner so its span/timing metrics are registered
    // regardless of test ordering within this binary.
    ptm_sim::runner::run_trials(2, 2, |i| i);
    ptm_obs::set_metrics_enabled(false);

    assert_eq!(
        counter_value("net.server.submit.accepted") - submit_before,
        3
    );
    assert!(counter_value("net.server.bits_stored") > bits_before);
    assert_eq!(counter_value("net.server.query.point") - query_before, 1);
    assert!(
        counter_value("core.join.and.ops") > join_before,
        "point estimate AND-joins"
    );
    assert_eq!(histogram_count("net.sim.period") - period_spans_before, 3);

    // The acceptance-criteria names all appear in the JSON snapshot.
    let json = ptm_obs::snapshot().to_json_pretty();
    for name in [
        "net.server.submit.accepted",
        "net.server.bits_stored",
        "net.server.records",
        "core.encode.bits_set",
        "core.encode.record",
        "core.join.and.ops",
        "core.join.fan_in",
        "net.sim.period",
        "sim.run_trials",
        "sim.trial.wall_ns",
        "sim.trials.completed",
    ] {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "snapshot missing {name}:\n{json}"
        );
    }
}

#[test]
fn disabled_metrics_record_nothing_anywhere() {
    let _guard = obs_lock();
    ptm_obs::set_metrics_enabled(false);
    let snap_before = ptm_obs::snapshot();
    let scheme = EncodingScheme::new(0x0FF0, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let vehicles = fleet(&mut rng, 40, 3);
    let record = direct_record(
        &scheme,
        LocationId::new(8),
        PeriodId::new(0),
        BitmapSize::new(1 << 10).expect("pow2"),
        &vehicles,
    );
    assert!(
        record.bitmap().count_ones() > 0,
        "the workload itself still works"
    );
    let snap_after = ptm_obs::snapshot();
    assert_eq!(
        snap_before, snap_after,
        "disabled instrumentation must leave every metric untouched"
    );
}

#[test]
fn decoding_a_record_counts_no_vehicle_encodes() {
    // The encode counters describe vehicles passing an RSU; a record read
    // back from the wire or the store is not a fresh pass, so decoding it
    // must leave them alone even with metrics on (`ptm serve --metrics`).
    let _guard = obs_lock();
    ptm_obs::set_metrics_enabled(false);
    let scheme = EncodingScheme::new(0xDEC0, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let vehicles = fleet(&mut rng, 300, 3);
    let record = direct_record(
        &scheme,
        LocationId::new(4),
        PeriodId::new(2),
        BitmapSize::new(1 << 9).expect("pow2"),
        &vehicles,
    );
    assert!(record.bitmap().count_ones() > 0, "a non-empty record");
    let payload = ptm_store::codec::encode_record(&record);

    ptm_obs::set_metrics_enabled(true);
    let names = [
        "core.encode.vehicles",
        "core.encode.bits_set",
        "core.encode.collisions",
    ];
    let before: Vec<u64> = names.iter().map(|name| counter_value(name)).collect();
    let decoded = ptm_store::codec::decode_record(&payload).expect("valid payload");
    let after: Vec<u64> = names.iter().map(|name| counter_value(name)).collect();
    ptm_obs::set_metrics_enabled(false);

    assert_eq!(decoded, record);
    assert_eq!(after, before, "decode bumped {names:?}");
}
