//! Seeded input generation. The daemon only ever sees what these builders
//! produce; the same seed gives byte-identical records.

use ptm_core::encoding::{EncodingScheme, LocationId};
use ptm_core::params::SystemParams;
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_sim::trial_seed;
use ptm_sim::workload::{build_p2p_records_with, SizingPolicy};
use ptm_traffic::generate::{fill_transients, CommonFleet, P2pScenario};
use ptm_traffic::network::NodeId;
use ptm_traffic::sioux_falls;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Sioux Falls node carrying the most traffic: the paper's `L'` (Table I).
pub const L_PRIME: u64 = 10;

pub fn rng(seed: u64, coords: &[u64]) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(trial_seed(seed, coords))
}

fn scheme(seed: u64) -> EncodingScheme {
    let params = SystemParams::paper_default();
    EncodingScheme::new(trial_seed(seed, &[0x5c4e]), params.num_representatives())
}

/// Ingest inputs: Sec. VI-B synthetic volumes in (2000, 10000] over
/// `locations` locations, paired (2i, 2i+1) so each pair shares a
/// persistent fleet and point-to-point queries between them are
/// meaningful. `variants` records per location, sized per period
/// (m = 4–32 Ki bits); uploads restamp them onto fresh periods.
pub struct SyntheticPool {
    /// `variants[location][k]`, location ids `0..locations`.
    pub variants: Vec<Vec<TrafficRecord>>,
}

impl SyntheticPool {
    pub fn generate(seed: u64, locations: u64, variants: usize) -> Self {
        let params = SystemParams::paper_default();
        let scheme = scheme(seed);
        let mut out = Vec::with_capacity(locations as usize);
        for pair in 0..locations / 2 {
            let mut rng = rng(seed, &[1, pair]);
            let scenario = P2pScenario::synthetic(&mut rng, variants, 0.2);
            let (a, b) = (2 * pair, 2 * pair + 1);
            let records = build_p2p_records_with(
                &scheme,
                &params,
                &scenario,
                LocationId::new(a),
                LocationId::new(b),
                None,
                SizingPolicy::PerPeriod,
                &mut rng,
            );
            out.push(records.records_l);
            out.push(records.records_lp);
        }
        Self { variants: out }
    }

    pub fn locations(&self) -> u64 {
        self.variants.len() as u64
    }

    /// The record uploaded for `(location, period)`: variant
    /// `period % variants` restamped onto `period`.
    pub fn record(&self, location: u64, period: u32) -> TrafficRecord {
        let variants = &self.variants[location as usize];
        variants[period as usize % variants.len()]
            .clone()
            .restamped(PeriodId::new(period))
    }

    /// The `index`-th record of the upload stream that starts at period
    /// `first_period`: every location's record for one period, then the
    /// next period.
    pub fn stream_record(&self, first_period: u32, index: u64) -> TrafficRecord {
        let locations = self.locations();
        self.record(index % locations, first_period + (index / locations) as u32)
    }
}

/// Sioux Falls at the paper's scale (trip table ×5): 24 locations whose
/// per-period volume is the node's involving volume, sized by Eq. 2
/// (m = 64 Ki–1 Mi bits). Vehicles travelling between a node and `L'`
/// form that node's persistent fleet and are encoded through the real
/// hash chain at both ends; everyone else is a per-period transient.
pub struct SiouxFalls {
    /// `records[period][node - 1]`.
    pub periods: Vec<Vec<TrafficRecord>>,
}

impl SiouxFalls {
    pub fn generate(seed: u64, periods: u32) -> Self {
        let params = SystemParams::paper_default();
        let scheme = scheme(seed);
        let table = sioux_falls::paper_trip_table();
        let nodes = sioux_falls::NUM_NODES;
        let l_prime = NodeId::new(L_PRIME as usize - 1);
        let size =
            |node: usize| params.bitmap_size(table.involving_volume(NodeId::new(node)) as f64);
        let m_prime = size(l_prime.index()).get();
        let loc = |node: usize| LocationId::new(node as u64 + 1);

        // Persistent fleets, one per node other than L': bit indices at the
        // node itself and at L'.
        let fleets: Vec<(u64, Vec<usize>, Vec<usize>)> = (0..nodes)
            .map(|node| {
                if node == l_prime.index() {
                    return (0, Vec::new(), Vec::new());
                }
                let n = table.pair_volume(NodeId::new(node), l_prime);
                let mut rng = rng(seed, &[2, node as u64]);
                let fleet = CommonFleet::generate(&mut rng, n, scheme.num_representatives());
                let here = fleet.indices_at(&scheme, loc(node), size(node).get());
                let there = fleet.indices_at(&scheme, loc(l_prime.index()), m_prime);
                (n, here, there)
            })
            .collect();
        let common_at_prime: u64 = fleets.iter().map(|f| f.0).sum();

        let build_node = |node: usize| -> Vec<TrafficRecord> {
            let m = size(node);
            let volume = table.involving_volume(NodeId::new(node));
            let (persistent, indices): (u64, Vec<&[usize]>) = if node == l_prime.index() {
                (
                    common_at_prime,
                    fleets.iter().map(|f| f.2.as_slice()).collect(),
                )
            } else {
                (fleets[node].0, vec![fleets[node].1.as_slice()])
            };
            let transients = volume.saturating_sub(persistent);
            let mut rng = rng(seed, &[3, node as u64]);
            (0..periods)
                .map(|period| {
                    let mut record = TrafficRecord::new(loc(node), PeriodId::new(period), m);
                    for list in &indices {
                        for &index in list.iter() {
                            record.set_reported_index(index);
                        }
                    }
                    fill_transients(&mut record, transients, &mut rng);
                    record
                })
                .collect()
        };

        // Two builder threads (the target host has two cores), nodes split
        // round-robin; each node has its own seeded stream, so the split
        // does not change the output.
        let mut by_node: Vec<Vec<TrafficRecord>> = vec![Vec::new(); nodes];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|worker| {
                    let build_node = &build_node;
                    scope.spawn(move || {
                        (worker..nodes)
                            .step_by(2)
                            .map(|node| (node, build_node(node)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (node, records) in handle.join().expect("generator thread panicked") {
                    by_node[node] = records;
                }
            }
        });
        let mut periods_out: Vec<Vec<TrafficRecord>> =
            (0..periods).map(|_| Vec::with_capacity(nodes)).collect();
        for records in by_node {
            for (period, record) in records.into_iter().enumerate() {
                periods_out[period].push(record);
            }
        }
        Self {
            periods: periods_out,
        }
    }

    pub fn locations(&self) -> Vec<LocationId> {
        self.periods[0]
            .iter()
            .map(TrafficRecord::location)
            .collect()
    }

    pub fn all(&self) -> impl Iterator<Item = &TrafficRecord> {
        self.periods.iter().flatten()
    }
}
