//! The end-to-end V2I simulator: RSUs beacon, vehicles arrive/depart,
//! frames traverse a lossy channel, and finished records are uploaded to
//! the central server.

use crate::channel::ChannelModel;
use crate::event::EventQueue;
use crate::message::Message;
use crate::obu::Obu;
use crate::rsu::Rsu;
use crate::server::{CentralServer, ServerError};
use crate::time::{SimDuration, SimTime};
use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use ptm_core::params::BitmapSize;
use ptm_core::record::PeriodId;
use ptm_crypto::cert::TrustedAuthority;
use ptm_traffic::presence::PresenceLog;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::HashSet;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// How often each RSU broadcasts a beacon ("such as once per second",
    /// paper Sec. II-D).
    pub beacon_interval: SimDuration,
    /// How long a passing vehicle stays within radio range.
    pub dwell_time: SimDuration,
    /// The wireless channel.
    pub channel: ChannelModel,
    /// Length of one measurement period.
    pub period_length: SimDuration,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            beacon_interval: SimDuration::from_secs(1),
            dwell_time: SimDuration::from_secs(5),
            channel: ChannelModel::lossless(),
            period_length: SimDuration::from_secs(60),
        }
    }
}

/// Frame- and protocol-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Beacons broadcast by RSUs.
    pub beacons_broadcast: u64,
    /// Beacon frames that reached a vehicle.
    pub beacon_frames_delivered: u64,
    /// Reports transmitted by vehicles (including retries).
    pub reports_sent: u64,
    /// Reports accepted by RSUs.
    pub reports_accepted: u64,
    /// Acks that reached their vehicle.
    pub acks_delivered: u64,
    /// Frames lost on the channel (any type).
    pub frames_lost: u64,
    /// Total bytes transmitted over the air (wire format, including lost
    /// frames; beacons counted once per broadcast).
    pub bytes_sent: u64,
}

#[derive(Debug)]
enum SimEvent {
    BeaconTick {
        rsu: usize,
        period_end: SimTime,
    },
    Arrive {
        vehicle: usize,
        rsu: usize,
    },
    Depart {
        vehicle: usize,
        rsu: usize,
    },
    VehicleRx {
        vehicle: usize,
        rsu: usize,
        message: Message,
    },
    RsuRx {
        rsu: usize,
        vehicle: usize,
        message: Message,
    },
}

/// A scheduled vehicle pass within the next period.
#[derive(Debug, Clone, Copy)]
struct PendingPass {
    vehicle: usize,
    rsu: usize,
    offset: SimDuration,
}

/// The discrete-event V2I simulator.
///
/// Typical use: create RSUs, add vehicles, schedule passes, call
/// [`V2iSimulator::run_period`] once per measurement period, then query the
/// [`CentralServer`] for persistent-traffic estimates.
#[derive(Debug)]
pub struct V2iSimulator {
    config: SimConfig,
    scheme: EncodingScheme,
    rsus: Vec<Rsu>,
    obus: Vec<Obu>,
    in_range: Vec<HashSet<usize>>,
    pending: Vec<PendingPass>,
    queue: EventQueue<SimEvent>,
    now: SimTime,
    rng: ChaCha12Rng,
    server: CentralServer,
    presence: PresenceLog,
    stats: SimStats,
    authority: TrustedAuthority,
}

impl V2iSimulator {
    /// Builds a simulator with RSUs at the given `(location, bitmap size)`
    /// specs, all certified by a single trusted authority.
    pub fn new(
        config: SimConfig,
        scheme: EncodingScheme,
        rsu_specs: &[(LocationId, BitmapSize)],
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut authority = TrustedAuthority::from_seed(rng.gen());
        let rsus: Vec<Rsu> = rsu_specs
            .iter()
            .map(|&(location, size)| {
                let credential = authority.issue(&format!("rsu-{}", location.get()));
                Rsu::new(credential, location, size, PeriodId::new(0), &mut rng)
            })
            .collect();
        let in_range = vec![HashSet::new(); rsus.len()];
        Self {
            config,
            scheme,
            rsus,
            obus: Vec::new(),
            in_range,
            pending: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng,
            server: CentralServer::new(scheme.num_representatives()),
            presence: PresenceLog::new(),
            stats: SimStats::default(),
            authority,
        }
    }

    /// Deploys a **rogue** RSU: same radio behaviour, but its certificate
    /// comes from an unrelated authority, so vehicles silently refuse to
    /// answer its beacons (paper Sec. II-B). Returns the RSU index.
    ///
    /// The rogue's records still upload to the server (the server trusts
    /// its backhaul, not the airside), so tests can observe that they stay
    /// empty.
    pub fn add_rogue_rsu(&mut self, location: LocationId, size: BitmapSize) -> usize {
        let mut rogue_authority = TrustedAuthority::from_seed(self.rng.gen());
        let credential = rogue_authority.issue(&format!("rogue-{}", location.get()));
        self.rsus.push(Rsu::new(
            credential,
            location,
            size,
            PeriodId::new(0),
            &mut self.rng,
        ));
        self.in_range.push(HashSet::new());
        self.rsus.len() - 1
    }

    /// Registers a vehicle with freshly generated secrets; returns its
    /// index.
    pub fn add_vehicle(&mut self) -> usize {
        let secrets = VehicleSecrets::generate(&mut self.rng, self.scheme.num_representatives());
        self.add_vehicle_with_secrets(secrets)
    }

    /// Registers a vehicle with caller-provided secrets; returns its index.
    pub fn add_vehicle_with_secrets(&mut self, secrets: VehicleSecrets) -> usize {
        self.obus.push(Obu::new(secrets, self.authority.root()));
        self.obus.len() - 1
    }

    /// Schedules vehicle `vehicle` to pass RSU `rsu` at `offset` into the
    /// *next* period run.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or `offset` exceeds the period
    /// length.
    pub fn schedule_pass(&mut self, vehicle: usize, rsu: usize, offset: SimDuration) {
        assert!(vehicle < self.obus.len(), "vehicle index out of range");
        assert!(rsu < self.rsus.len(), "rsu index out of range");
        assert!(
            offset <= self.config.period_length,
            "pass offset beyond the period length"
        );
        self.pending.push(PendingPass {
            vehicle,
            rsu,
            offset,
        });
    }

    /// Runs one full measurement period: drains all scheduled passes and
    /// protocol events, then uploads every RSU's record to the server.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerError::DuplicateRecord`] if a period id is re-run
    /// and produces records that differ from the ones already uploaded
    /// (identical re-uploads are accepted idempotently).
    pub fn run_period(&mut self, period: PeriodId) -> Result<(), ServerError> {
        let _t = ptm_obs::span!("net.sim.period");
        let stats_before = self.stats;
        let start = self.now;
        let end = start + self.config.period_length;

        // Re-arm the RSUs for this period id (they were initialised with
        // period 0; finish_period below realigns subsequent ones).
        for rsu in 0..self.rsus.len() {
            self.queue.schedule(
                start,
                SimEvent::BeaconTick {
                    rsu,
                    period_end: end,
                },
            );
        }
        let passes = std::mem::take(&mut self.pending);
        for pass in passes {
            let vehicle_id = self.obus[pass.vehicle].secrets().id();
            self.presence
                .record(self.rsus[pass.rsu].location(), period, vehicle_id);
            self.queue.schedule(
                start + pass.offset,
                SimEvent::Arrive {
                    vehicle: pass.vehicle,
                    rsu: pass.rsu,
                },
            );
        }

        while let Some((at, event)) = self.queue.pop() {
            self.now = at;
            self.handle(event);
        }
        self.now = end;

        // Upload and reset.
        let next = PeriodId::new(period.get() + 1);
        for i in 0..self.rsus.len() {
            let mut record = self.rsus[i].finish_period(next, &mut self.rng);
            // RSUs were armed with sequential ids; stamp the authoritative
            // period id the caller asked for.
            if record.period() != period {
                record = record.restamped(period);
            }
            self.server.submit(record)?;
        }
        // Clear residual range state (vehicles may still be "in range" if
        // the period ended mid-dwell).
        for set in &mut self.in_range {
            set.clear();
        }
        ptm_obs::counter!("net.sim.periods").inc();
        ptm_obs::debug!("net.sim", "period complete";
            period = period.get(),
            beacons = self.stats.beacons_broadcast - stats_before.beacons_broadcast,
            reports_sent = self.stats.reports_sent - stats_before.reports_sent,
            reports_accepted = self.stats.reports_accepted - stats_before.reports_accepted,
            frames_lost = self.stats.frames_lost - stats_before.frames_lost,
            bytes_sent = self.stats.bytes_sent - stats_before.bytes_sent,
        );
        Ok(())
    }

    fn handle(&mut self, event: SimEvent) {
        match event {
            SimEvent::BeaconTick { rsu, period_end } => {
                self.stats.beacons_broadcast += 1;
                let beacon = self.rsus[rsu].beacon();
                self.stats.bytes_sent +=
                    crate::wire::wire_len(&Message::Beacon(beacon.clone())) as u64;
                let vehicles: Vec<usize> = self.in_range[rsu].iter().copied().collect();
                for vehicle in vehicles {
                    match self.config.channel.transmit(&mut self.rng) {
                        Some(delay) => {
                            self.stats.beacon_frames_delivered += 1;
                            self.queue.schedule(
                                self.now + delay,
                                SimEvent::VehicleRx {
                                    vehicle,
                                    rsu,
                                    message: Message::Beacon(beacon.clone()),
                                },
                            );
                        }
                        None => self.stats.frames_lost += 1,
                    }
                }
                let next = self.now + self.config.beacon_interval;
                if next < period_end {
                    self.queue
                        .schedule(next, SimEvent::BeaconTick { rsu, period_end });
                }
            }
            SimEvent::Arrive { vehicle, rsu } => {
                self.in_range[rsu].insert(vehicle);
                self.queue.schedule(
                    self.now + self.config.dwell_time,
                    SimEvent::Depart { vehicle, rsu },
                );
            }
            SimEvent::Depart { vehicle, rsu } => {
                self.in_range[rsu].remove(&vehicle);
            }
            SimEvent::VehicleRx {
                vehicle,
                rsu,
                message,
            } => match message {
                Message::Beacon(beacon) => {
                    if let Ok(Some(report)) =
                        self.obus[vehicle].handle_beacon(&self.scheme, &beacon, &mut self.rng)
                    {
                        self.stats.reports_sent += 1;
                        self.stats.bytes_sent +=
                            crate::wire::wire_len(&Message::Report(report.clone())) as u64;
                        match self.config.channel.transmit(&mut self.rng) {
                            Some(delay) => self.queue.schedule(
                                self.now + delay,
                                SimEvent::RsuRx {
                                    rsu,
                                    vehicle,
                                    message: Message::Report(report),
                                },
                            ),
                            None => self.stats.frames_lost += 1,
                        }
                    }
                }
                Message::Ack(ack) => {
                    if self.obus[vehicle].handle_ack(&ack) {
                        self.stats.acks_delivered += 1;
                    }
                }
                Message::Report(_) => {} // vehicles never receive reports
            },
            SimEvent::RsuRx {
                rsu,
                vehicle,
                message,
            } => {
                if let Message::Report(report) = message {
                    if let Some(ack) = self.rsus[rsu].handle_report(&report) {
                        self.stats.reports_accepted += 1;
                        if self.in_range[rsu].contains(&vehicle) {
                            self.stats.bytes_sent +=
                                crate::wire::wire_len(&Message::Ack(ack)) as u64;
                            match self.config.channel.transmit(&mut self.rng) {
                                Some(delay) => self.queue.schedule(
                                    self.now + delay,
                                    SimEvent::VehicleRx {
                                        vehicle,
                                        rsu,
                                        message: Message::Ack(ack),
                                    },
                                ),
                                None => self.stats.frames_lost += 1,
                            }
                        }
                    }
                }
            }
        }
    }

    /// The central server with all uploaded records.
    pub fn server(&self) -> &CentralServer {
        &self.server
    }

    /// Frame/protocol counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Ground-truth presence log.
    pub fn presence(&self) -> &PresenceLog {
        &self.presence
    }

    /// The shared encoding scheme.
    pub fn scheme(&self) -> &EncodingScheme {
        &self.scheme
    }

    /// A registered vehicle's secrets (for ground-truth checks in tests).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn vehicle_secrets(&self, vehicle: usize) -> &VehicleSecrets {
        self.obus[vehicle].secrets()
    }

    /// Current simulation clock.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(ms: &[usize]) -> Vec<(LocationId, BitmapSize)> {
        ms.iter()
            .enumerate()
            .map(|(i, &m)| {
                (
                    LocationId::new(i as u64 + 1),
                    BitmapSize::new(m).expect("pow2"),
                )
            })
            .collect()
    }

    #[test]
    fn single_vehicle_is_recorded_exactly() {
        let mut sim = V2iSimulator::new(
            SimConfig::default(),
            EncodingScheme::new(42, 3),
            &specs(&[1024]),
            7,
        );
        let v = sim.add_vehicle();
        sim.schedule_pass(v, 0, SimDuration::from_secs(2));
        sim.run_period(PeriodId::new(0)).expect("period runs");

        let location = LocationId::new(1);
        let record = sim
            .server()
            .record(location, PeriodId::new(0))
            .expect("uploaded");
        let expected = sim
            .scheme()
            .encode_index(sim.vehicle_secrets(v), location, 1024);
        let ones: Vec<usize> = (0..record.len())
            .filter(|&i| record.bitmap().get(i))
            .collect();
        assert_eq!(ones, vec![expected]);
        assert_eq!(sim.stats().reports_accepted, 1);
        assert!(sim.stats().acks_delivered >= 1);
    }

    #[test]
    fn lossless_protocol_records_every_vehicle() {
        let mut sim = V2iSimulator::new(
            SimConfig::default(),
            EncodingScheme::new(43, 3),
            &specs(&[4096]),
            8,
        );
        let vehicles: Vec<usize> = (0..200).map(|_| sim.add_vehicle()).collect();
        for (i, &v) in vehicles.iter().enumerate() {
            sim.schedule_pass(v, 0, SimDuration::from_millis(i as u64 * 100));
        }
        sim.run_period(PeriodId::new(0)).expect("period runs");
        // Every vehicle's bit must be set — compare to direct encoding.
        let location = LocationId::new(1);
        let record = sim
            .server()
            .record(location, PeriodId::new(0))
            .expect("uploaded");
        for &v in &vehicles {
            let idx = sim
                .scheme()
                .encode_index(sim.vehicle_secrets(v), location, 4096);
            assert!(record.bitmap().get(idx), "vehicle {v} missing");
        }
        assert_eq!(sim.presence().present(location, PeriodId::new(0)), 200);
    }

    #[test]
    fn lossy_channel_still_converges_with_retries() {
        let config = SimConfig {
            channel: ChannelModel::with_loss(0.5),
            dwell_time: SimDuration::from_secs(20),
            ..SimConfig::default()
        };
        let mut sim = V2iSimulator::new(config, EncodingScheme::new(44, 3), &specs(&[1024]), 9);
        let vehicles: Vec<usize> = (0..50).map(|_| sim.add_vehicle()).collect();
        for &v in &vehicles {
            sim.schedule_pass(v, 0, SimDuration::from_secs(1));
        }
        sim.run_period(PeriodId::new(0)).expect("period runs");
        // 20 s dwell at 1 beacon/s and 50% loss: each vehicle effectively
        // gets ~20 attempts; all should land.
        let location = LocationId::new(1);
        let record = sim
            .server()
            .record(location, PeriodId::new(0))
            .expect("uploaded");
        for &v in &vehicles {
            let idx = sim
                .scheme()
                .encode_index(sim.vehicle_secrets(v), location, 1024);
            assert!(record.bitmap().get(idx), "vehicle {v} lost despite retries");
        }
        assert!(
            sim.stats().frames_lost > 0,
            "channel was supposed to drop frames"
        );
    }

    #[test]
    fn total_loss_records_nothing() {
        let config = SimConfig {
            channel: ChannelModel::with_loss(1.0),
            ..SimConfig::default()
        };
        let mut sim = V2iSimulator::new(config, EncodingScheme::new(45, 3), &specs(&[1024]), 10);
        let v = sim.add_vehicle();
        sim.schedule_pass(v, 0, SimDuration::from_secs(1));
        sim.run_period(PeriodId::new(0)).expect("period runs");
        let record = sim
            .server()
            .record(LocationId::new(1), PeriodId::new(0))
            .expect("uploaded even when empty");
        assert_eq!(record.bitmap().count_ones(), 0);
        // Ground truth still knows the vehicle physically passed.
        assert_eq!(
            sim.presence().present(LocationId::new(1), PeriodId::new(0)),
            1
        );
    }

    #[test]
    fn multi_period_point_persistent_query() {
        let mut sim = V2iSimulator::new(
            SimConfig::default(),
            EncodingScheme::new(46, 3),
            &specs(&[2048]),
            11,
        );
        let commons: Vec<usize> = (0..100).map(|_| sim.add_vehicle()).collect();
        let periods: Vec<PeriodId> = (0..4).map(PeriodId::new).collect();
        for &p in &periods {
            for &v in &commons {
                sim.schedule_pass(v, 0, SimDuration::from_secs(1));
            }
            // Plus per-period transient vehicles.
            for _ in 0..150 {
                let t = sim.add_vehicle();
                sim.schedule_pass(t, 0, SimDuration::from_secs(2));
            }
            sim.run_period(p).expect("period runs");
        }
        let location = LocationId::new(1);
        let truth = sim.presence().point_persistent(location, &periods);
        assert_eq!(truth, 100);
        let est = sim
            .server()
            .estimate_point_persistent(location, &periods)
            .expect("estimate");
        assert!(
            (est - 100.0).abs() / 100.0 < 0.3,
            "estimate {est} vs truth 100"
        );
    }

    #[test]
    fn two_rsu_p2p_query() {
        let mut sim = V2iSimulator::new(
            SimConfig::default(),
            EncodingScheme::new(47, 3),
            &specs(&[2048, 2048]),
            12,
        );
        let commons: Vec<usize> = (0..120).map(|_| sim.add_vehicle()).collect();
        let periods: Vec<PeriodId> = (0..3).map(PeriodId::new).collect();
        for &p in &periods {
            for &v in &commons {
                sim.schedule_pass(v, 0, SimDuration::from_secs(1));
                sim.schedule_pass(v, 1, SimDuration::from_secs(10));
            }
            for _ in 0..100 {
                let t = sim.add_vehicle();
                sim.schedule_pass(t, 0, SimDuration::from_secs(3));
            }
            for _ in 0..100 {
                let t = sim.add_vehicle();
                sim.schedule_pass(t, 1, SimDuration::from_secs(3));
            }
            sim.run_period(p).expect("period runs");
        }
        let (a, b) = (LocationId::new(1), LocationId::new(2));
        assert_eq!(sim.presence().p2p_persistent(a, b, &periods), 120);
        let est = sim
            .server()
            .estimate_p2p_persistent(a, b, &periods)
            .expect("estimate");
        assert!(
            (est - 120.0).abs() / 120.0 < 0.4,
            "estimate {est} vs truth 120"
        );
    }

    #[test]
    fn rogue_rsu_collects_nothing_while_genuine_rsu_works() {
        let mut sim = V2iSimulator::new(
            SimConfig::default(),
            EncodingScheme::new(50, 3),
            &specs(&[1024]),
            15,
        );
        let rogue = sim.add_rogue_rsu(LocationId::new(666), BitmapSize::new(1024).expect("pow2"));
        let vehicles: Vec<usize> = (0..40).map(|_| sim.add_vehicle()).collect();
        for &v in &vehicles {
            sim.schedule_pass(v, 0, SimDuration::from_secs(1));
            sim.schedule_pass(v, rogue, SimDuration::from_secs(1));
        }
        sim.run_period(PeriodId::new(0)).expect("period runs");
        let genuine = sim
            .server()
            .record(LocationId::new(1), PeriodId::new(0))
            .expect("uploaded");
        assert!(genuine.bitmap().count_ones() > 0);
        let rogue_record = sim
            .server()
            .record(LocationId::new(666), PeriodId::new(0))
            .expect("uploaded");
        assert_eq!(
            rogue_record.bitmap().count_ones(),
            0,
            "vehicles must stay silent toward the rogue RSU"
        );
    }

    #[test]
    fn bytes_are_accounted() {
        let mut sim = V2iSimulator::new(
            SimConfig::default(),
            EncodingScheme::new(51, 3),
            &specs(&[1024]),
            16,
        );
        let v = sim.add_vehicle();
        sim.schedule_pass(v, 0, SimDuration::from_secs(1));
        sim.run_period(PeriodId::new(0)).expect("period runs");
        let stats = sim.stats();
        // At least: beacons (~100 B each) + one report (<100 B) + one ack.
        assert!(stats.bytes_sent > stats.beacons_broadcast * 50);
        assert!(stats.bytes_sent < stats.beacons_broadcast * 200 + 500);
    }

    #[test]
    fn rerun_with_identical_records_is_idempotent() {
        let mut sim = V2iSimulator::new(
            SimConfig::default(),
            EncodingScheme::new(48, 3),
            &specs(&[64]),
            13,
        );
        // No traffic: both runs upload the same empty record, which the
        // server accepts idempotently.
        sim.run_period(PeriodId::new(0)).expect("first run");
        sim.run_period(PeriodId::new(0)).expect("identical re-run");
    }

    #[test]
    fn rerun_with_conflicting_records_rejected() {
        let mut sim = V2iSimulator::new(
            SimConfig::default(),
            EncodingScheme::new(48, 3),
            &specs(&[64]),
            13,
        );
        sim.run_period(PeriodId::new(0)).expect("first run");
        // A vehicle passes during the re-run, so period 0's record now has
        // different contents: a conflict, not an idempotent duplicate.
        let v = sim.add_vehicle();
        sim.schedule_pass(v, 0, SimDuration::from_secs(1));
        assert!(sim.run_period(PeriodId::new(0)).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_schedule_panics() {
        let mut sim = V2iSimulator::new(
            SimConfig::default(),
            EncodingScheme::new(49, 3),
            &specs(&[64]),
            14,
        );
        sim.schedule_pass(0, 0, SimDuration::ZERO);
    }
}
