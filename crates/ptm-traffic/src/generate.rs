//! Population generators implementing the paper's evaluation workloads
//! (Sec. VI-A / VI-B).
//!
//! Both evaluation sections follow the same recipe: pick the number of
//! *common* (persistent) vehicles, then pad each measurement period with
//! freshly generated *transient* vehicles up to the period's total volume.
//!
//! # A deliberate statistical shortcut
//!
//! A transient vehicle exists for exactly one record. Its encoded bit index
//! — the hash of freshly drawn random secrets — is a uniformly random value,
//! so [`fill_transients`] sets `count` uniform bits directly instead of
//! materialising secrets and hashing them. This is statistically identical
//! (a unit test below checks it against the exact procedure) and makes the
//! 1000-run Table I sweep tractable. Common vehicles always go through the
//! real encoding path because their cross-period / cross-location
//! correlation is exactly what the estimators measure.

use crate::triptable::TripTable;
use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use ptm_core::record::TrafficRecord;
use rand::Rng;

use crate::network::NodeId;

/// Volume bounds for the synthetic workload: "randomly generated from the
/// range of (2000, 10000]" (Sec. VI-B).
pub const SYNTHETIC_VOLUME_RANGE: (u64, u64) = (2_000, 10_000);

/// A single-location persistent-traffic scenario: per-period volumes and
/// the persistent core size `n_*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointScenario {
    /// Total vehicles passing the location in each period.
    pub volumes: Vec<u64>,
    /// Number of common vehicles present in every period (`n_*`).
    pub persistent: u64,
}

impl PointScenario {
    /// The paper's synthetic point workload: `t` volumes uniform in
    /// `(2000, 10000]`, persistent core = `fraction × n_min`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` or `fraction` is outside `[0, 1]`.
    pub fn synthetic<R: Rng + ?Sized>(rng: &mut R, t: usize, fraction: f64) -> Self {
        assert!(t >= 1, "need at least one period");
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let (lo, hi) = SYNTHETIC_VOLUME_RANGE;
        let volumes: Vec<u64> = (0..t).map(|_| rng.gen_range(lo + 1..=hi)).collect();
        let n_min = *volumes.iter().min().expect("non-empty");
        Self {
            volumes,
            persistent: (fraction * n_min as f64).round() as u64,
        }
    }

    /// Smallest per-period volume (`n_min`).
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no periods.
    pub fn n_min(&self) -> u64 {
        *self.volumes.iter().min().expect("non-empty scenario")
    }

    /// Number of periods `t`.
    pub fn num_periods(&self) -> usize {
        self.volumes.len()
    }
}

/// A two-location persistent-traffic scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P2pScenario {
    /// Per-period volumes at `L`.
    pub volumes_l: Vec<u64>,
    /// Per-period volumes at `L'`.
    pub volumes_lp: Vec<u64>,
    /// Number of vehicles passing both locations in every period (`n''`).
    pub persistent: u64,
}

impl P2pScenario {
    /// The paper's synthetic point-to-point workload (Sec. VI-B): both
    /// locations draw volumes uniform in `(2000, 10000]`, persistent core
    /// = `fraction × min(n_min, n'_min)`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` or `fraction` is outside `[0, 1]`.
    pub fn synthetic<R: Rng + ?Sized>(rng: &mut R, t: usize, fraction: f64) -> Self {
        assert!(t >= 1, "need at least one period");
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let (lo, hi) = SYNTHETIC_VOLUME_RANGE;
        let volumes_l: Vec<u64> = (0..t).map(|_| rng.gen_range(lo + 1..=hi)).collect();
        let volumes_lp: Vec<u64> = (0..t).map(|_| rng.gen_range(lo + 1..=hi)).collect();
        let min_l = *volumes_l.iter().min().expect("non-empty");
        let min_lp = *volumes_lp.iter().min().expect("non-empty");
        let n_min = min_l.min(min_lp);
        Self {
            volumes_l,
            volumes_lp,
            persistent: (fraction * n_min as f64).round() as u64,
        }
    }

    /// The paper's real-data workload (Sec. VI-A): common vehicles from the
    /// trip-table pair volume between `l` and `l_prime`; per-period totals
    /// are each location's involving volume, constant across the `t`
    /// periods.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` or a node is out of range for the table.
    pub fn from_trip_table(table: &TripTable, l: NodeId, l_prime: NodeId, t: usize) -> Self {
        assert!(t >= 1, "need at least one period");
        let n = table.involving_volume(l);
        let n_prime = table.involving_volume(l_prime);
        Self {
            volumes_l: vec![n; t],
            volumes_lp: vec![n_prime; t],
            persistent: table.pair_volume(l, l_prime),
        }
    }

    /// Number of periods `t`.
    pub fn num_periods(&self) -> usize {
        self.volumes_l.len()
    }

    /// Transient count at `L` for period `j` (`n_j − n''`).
    ///
    /// # Panics
    ///
    /// Panics if the period volume is below the persistent core.
    pub fn transients_l(&self, period: usize) -> u64 {
        self.volumes_l[period]
            .checked_sub(self.persistent)
            .expect("period volume below persistent core")
    }

    /// Transient count at `L'` for period `j` (`n'_j − n''`).
    ///
    /// # Panics
    ///
    /// Panics if the period volume is below the persistent core.
    pub fn transients_lp(&self, period: usize) -> u64 {
        self.volumes_lp[period]
            .checked_sub(self.persistent)
            .expect("period volume below persistent core")
    }
}

/// The persistent fleet: common vehicles with real secret material, encoded
/// through the paper's exact hash chain.
#[derive(Debug, Clone)]
pub struct CommonFleet {
    vehicles: Vec<VehicleSecrets>,
}

impl CommonFleet {
    /// Generates `n` vehicles with `s` representative constants each.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, n: u64, s: u32) -> Self {
        Self {
            vehicles: (0..n).map(|_| VehicleSecrets::generate(rng, s)).collect(),
        }
    }

    /// Number of vehicles in the fleet.
    pub fn len(&self) -> usize {
        self.vehicles.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.vehicles.is_empty()
    }

    /// The vehicles themselves.
    pub fn vehicles(&self) -> &[VehicleSecrets] {
        &self.vehicles
    }

    /// Precomputes each vehicle's bit index at `location` for records of
    /// `m` bits.
    ///
    /// A common vehicle sets the *same* bit at the same location in every
    /// period, so sweeping `t` periods only needs this computed once.
    pub fn indices_at(
        &self,
        scheme: &EncodingScheme,
        location: LocationId,
        m: usize,
    ) -> Vec<usize> {
        self.vehicles
            .iter()
            .map(|v| scheme.encode_index(v, location, m))
            .collect()
    }

    /// Encodes the whole fleet into a record (convenience for small runs).
    pub fn encode_into(&self, scheme: &EncodingScheme, record: &mut TrafficRecord) {
        for v in &self.vehicles {
            record.encode(scheme, v);
        }
    }
}

/// Sets `count` uniformly random bits in the record — the statistical
/// shortcut for transient vehicles (see the module docs). Duplicate draws
/// collapse exactly like hash collisions between distinct vehicles do.
pub fn fill_transients<R: Rng + ?Sized>(record: &mut TrafficRecord, count: u64, rng: &mut R) {
    let m = record.len();
    for _ in 0..count {
        record.set_reported_index(rng.gen_range(0..m));
    }
}

/// The exact transient procedure: generate fresh secrets per vehicle and
/// run the full encoding chain. Used by validation tests and the
/// event-driven simulator; `fill_transients` is its fast equivalent.
pub fn fill_transients_exact<R: Rng + ?Sized>(
    record: &mut TrafficRecord,
    scheme: &EncodingScheme,
    count: u64,
    rng: &mut R,
) {
    for _ in 0..count {
        let v = VehicleSecrets::generate(rng, scheme.num_representatives());
        record.encode(scheme, &v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sioux_falls;
    use ptm_core::params::BitmapSize;
    use ptm_core::record::PeriodId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn synthetic_point_volumes_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..20 {
            let sc = PointScenario::synthetic(&mut rng, 10, 0.25);
            assert_eq!(sc.num_periods(), 10);
            for &v in &sc.volumes {
                assert!(v > 2000 && v <= 10_000, "volume {v} out of range");
            }
            let expected = (0.25 * sc.n_min() as f64).round() as u64;
            assert_eq!(sc.persistent, expected);
        }
    }

    #[test]
    fn synthetic_p2p_persistent_bounded_by_min() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..20 {
            let sc = P2pScenario::synthetic(&mut rng, 5, 0.5);
            let min_all = sc
                .volumes_l
                .iter()
                .chain(sc.volumes_lp.iter())
                .min()
                .copied()
                .expect("non-empty");
            assert!(sc.persistent <= min_all);
            for p in 0..5 {
                // transient counts never underflow
                let _ = sc.transients_l(p);
                let _ = sc.transients_lp(p);
            }
        }
    }

    #[test]
    fn trip_table_scenario_matches_table_one_row() {
        let table = sioux_falls::paper_trip_table();
        let sc = P2pScenario::from_trip_table(&table, NodeId::new(14), NodeId::new(9), 5);
        assert_eq!(sc.volumes_l, vec![213_000; 5]);
        assert_eq!(sc.volumes_lp, vec![451_000; 5]);
        assert_eq!(sc.persistent, 40_000);
        assert_eq!(sc.transients_l(0), 173_000);
        assert_eq!(sc.transients_lp(0), 411_000);
    }

    #[test]
    fn fraction_zero_and_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sc0 = PointScenario::synthetic(&mut rng, 4, 0.0);
        assert_eq!(sc0.persistent, 0);
        let sc1 = PointScenario::synthetic(&mut rng, 4, 1.0);
        assert_eq!(sc1.persistent, sc1.n_min());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn out_of_range_fraction_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let _ = PointScenario::synthetic(&mut rng, 4, 1.5);
    }

    #[test]
    fn common_fleet_same_indices_every_period() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let scheme = EncodingScheme::new(77, 3);
        let fleet = CommonFleet::generate(&mut rng, 100, 3);
        assert_eq!(fleet.len(), 100);
        let loc = LocationId::new(3);
        let idx = fleet.indices_at(&scheme, loc, 1024);
        // Encoding into two different-period records sets exactly those bits.
        for period in 0..2u32 {
            let mut record = TrafficRecord::new(
                loc,
                PeriodId::new(period),
                BitmapSize::new(1024).expect("pow2"),
            );
            fleet.encode_into(&scheme, &mut record);
            let mut expected: Vec<usize> = idx.clone();
            expected.sort_unstable();
            expected.dedup();
            let ones: Vec<usize> = (0..record.len())
                .filter(|&i| record.bitmap().get(i))
                .collect();
            assert_eq!(ones, expected);
        }
    }

    #[test]
    fn transient_shortcut_statistically_matches_exact() {
        let scheme = EncodingScheme::new(88, 3);
        let m = BitmapSize::new(4096).expect("pow2");
        let loc = LocationId::new(1);
        let runs = 30;
        let count = 2_000u64;
        let mut ones_fast = 0usize;
        let mut ones_exact = 0usize;
        for run in 0..runs {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + run);
            let mut fast = TrafficRecord::new(loc, PeriodId::new(0), m);
            fill_transients(&mut fast, count, &mut rng);
            ones_fast += fast.bitmap().count_ones();

            let mut rng = ChaCha8Rng::seed_from_u64(2000 + run);
            let mut exact = TrafficRecord::new(loc, PeriodId::new(0), m);
            fill_transients_exact(&mut exact, &scheme, count, &mut rng);
            ones_exact += exact.bitmap().count_ones();
        }
        let mean_fast = ones_fast as f64 / runs as f64;
        let mean_exact = ones_exact as f64 / runs as f64;
        let rel = (mean_fast - mean_exact).abs() / mean_exact;
        assert!(
            rel < 0.01,
            "shortcut mean {mean_fast} vs exact mean {mean_exact} (rel {rel})"
        );
    }

    #[test]
    fn empty_fleet() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let fleet = CommonFleet::generate(&mut rng, 0, 3);
        assert!(fleet.is_empty());
        assert!(fleet.vehicles().is_empty());
    }
}
