//! Reference equivalence of the fused estimators: every estimate the
//! chunked replicate-join kernels produce must be bit-identical to the
//! materialised path they replaced — expand every map with
//! `Bitmap::expand_to`, fold with `and_assign` / `or_assign`, then read the
//! `fraction_*` of the joined maps — and every failure must be the same
//! `EstimateError`.
//!
//! The oracle below is that materialised path, written out in full. The
//! generator covers lengths 2^0..2^16 (sub-word, word-multiple and
//! chunk-crossing sizes, mixed within one join), fan-in 1..10, and densities
//! from empty to full, so `Saturated` and `Degenerate` outcomes are
//! exercised alongside finite estimates (`generator_reaches_every_outcome`
//! checks that they are).
//!
//! Run alone, in release: `cargo test --release -p ptm-core --test estimator_equivalence`.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use ptm_core::encoding::LocationId;
use ptm_core::error::EstimateError;
use ptm_core::join::{and_join, or_join, SplitStrategy};
use ptm_core::kway::KwayEstimator;
use ptm_core::p2p::P2pForm;
use ptm_core::point::{estimate_from_halves, estimate_from_halves_with_error};
use ptm_core::record::{PeriodId, TrafficRecord};
use ptm_core::{Bitmap, NaiveAndEstimator, PointEstimator, PointToPointEstimator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

type Combine = fn(&mut Bitmap, &Bitmap) -> Result<(), EstimateError>;

/// The materialised join: expand every map to the largest length, then
/// fold them together.
fn oracle_join(maps: &[&Bitmap], combine: Combine) -> Result<Bitmap, EstimateError> {
    if maps.is_empty() {
        return Err(EstimateError::NoRecords);
    }
    let mut target = 0usize;
    for map in maps {
        if !map.is_power_of_two() {
            return Err(EstimateError::NotPowerOfTwo { len: map.len() });
        }
        target = target.max(map.len());
    }
    let mut joined = maps[0].expand_to(target)?;
    for map in &maps[1..] {
        combine(&mut joined, &map.expand_to(target)?)?;
    }
    Ok(joined)
}

fn oracle_and(maps: &[&Bitmap]) -> Result<Bitmap, EstimateError> {
    oracle_join(maps, Bitmap::and_assign)
}

/// Eq. 12 with its delta-method error on materialised halves.
fn oracle_halves(e_a: &Bitmap, e_b: &Bitmap) -> Result<(f64, f64), EstimateError> {
    let m = e_a.len().max(e_b.len());
    let e_a = e_a.expand_to(m)?;
    let e_b = e_b.expand_to(m)?;
    let mut e_star = e_a.clone();
    e_star.and_assign(&e_b)?;
    let v_a0 = e_a.fraction_zeros();
    let v_b0 = e_b.fraction_zeros();
    let v_star1 = e_star.fraction_ones();
    if v_a0 <= 0.0 {
        return Err(EstimateError::Saturated { which: "E_a" });
    }
    if v_b0 <= 0.0 {
        return Err(EstimateError::Saturated { which: "E_b" });
    }
    let arg = v_star1 + v_a0 + v_b0 - 1.0;
    if arg <= 0.0 {
        return Err(EstimateError::Degenerate);
    }
    let ln_q = (1.0 - 1.0 / m as f64).ln();
    let value = (v_a0.ln() + v_b0.ln() - arg.ln()) / ln_q;
    let d_va = (1.0 / v_a0 - 1.0 / arg) / ln_q;
    let d_vb = (1.0 / v_b0 - 1.0 / arg) / ln_q;
    let d_v1 = (-1.0 / arg) / ln_q;
    let mf = m as f64;
    let var = d_va * d_va * v_a0 * (1.0 - v_a0) / mf
        + d_vb * d_vb * v_b0 * (1.0 - v_b0) / mf
        + d_v1 * d_v1 * v_star1 * (1.0 - v_star1) / mf;
    Ok((value, var.max(0.0).sqrt()))
}

fn oracle_point(bitmaps: &[&Bitmap], split: SplitStrategy) -> Result<(f64, f64), EstimateError> {
    if bitmaps.len() < 2 {
        return Err(EstimateError::TooFewRecords {
            required: 2,
            actual: bitmaps.len(),
        });
    }
    let (idx_a, idx_b) = split.split(bitmaps.len());
    let pick = |idx: &[usize]| idx.iter().map(|&i| bitmaps[i]).collect::<Vec<_>>();
    let e_a = oracle_and(&pick(&idx_a))?;
    let e_b = oracle_and(&pick(&idx_b))?;
    oracle_halves(&e_a, &e_b)
}

fn oracle_naive(bitmaps: &[&Bitmap]) -> Result<f64, EstimateError> {
    let e_star = oracle_and(bitmaps)?;
    ptm_core::lpc::from_zero_fraction(e_star.fraction_zeros(), e_star.len(), "E_*")
}

fn oracle_joined(
    e_star: &Bitmap,
    e_star_prime: &Bitmap,
    s: u32,
    form: P2pForm,
) -> Result<f64, EstimateError> {
    let (small, large) = if e_star.len() <= e_star_prime.len() {
        (e_star, e_star_prime)
    } else {
        (e_star_prime, e_star)
    };
    let m_prime = large.len();
    let v0_small = small.fraction_zeros();
    let v0_large = large.fraction_zeros();
    if v0_small <= 0.0 {
        return Err(EstimateError::Saturated { which: "E_*" });
    }
    if v0_large <= 0.0 {
        return Err(EstimateError::Saturated { which: "E'_*" });
    }
    let mut e_double = small.expand_to(m_prime)?;
    e_double.or_assign(large)?;
    let v0_double = e_double.fraction_zeros();
    if v0_double <= 0.0 {
        return Err(EstimateError::Saturated { which: "E''_*" });
    }
    let log_ratio = v0_double.ln() - v0_small.ln() - v0_large.ln();
    let (s, m) = (s as f64, m_prime as f64);
    Ok(match form {
        P2pForm::Paper => s * m * log_ratio,
        P2pForm::Exact => log_ratio / (1.0 + 1.0 / (s * m - s)).ln(),
    })
}

fn oracle_p2p(l: &[&Bitmap], lp: &[&Bitmap], s: u32, form: P2pForm) -> Result<f64, EstimateError> {
    if l.is_empty() || lp.is_empty() {
        return Err(EstimateError::NoRecords);
    }
    if l.len() != lp.len() {
        return Err(EstimateError::PeriodMismatch {
            left: l.len(),
            right: lp.len(),
        });
    }
    let e_star = oracle_and(l)?;
    let e_star_prime = oracle_and(lp)?;
    oracle_joined(&e_star, &e_star_prime, s, form)
}

/// The k-way estimator on materialised group joins (its root finder is
/// unchanged; only the fractions feeding it come from the kernels now).
fn oracle_kway(bitmaps: &[&Bitmap], k: usize) -> Result<f64, EstimateError> {
    if bitmaps.len() < k {
        return Err(EstimateError::TooFewRecords {
            required: k,
            actual: bitmaps.len(),
        });
    }
    let mut groups: Vec<Vec<&Bitmap>> = vec![Vec::new(); k];
    for (i, &bm) in bitmaps.iter().enumerate() {
        groups[i % k].push(bm);
    }
    let joins: Vec<Bitmap> = groups
        .iter()
        .map(|group| oracle_and(group))
        .collect::<Result<_, _>>()?;
    let m = joins.iter().map(Bitmap::len).max().expect("k >= 2");
    let expanded: Vec<Bitmap> = joins
        .iter()
        .map(|j| j.expand_to(m))
        .collect::<Result<_, _>>()?;
    let mut e_star = expanded[0].clone();
    for e in &expanded[1..] {
        e_star.and_assign(e)?;
    }
    let v0: Vec<f64> = expanded.iter().map(Bitmap::fraction_zeros).collect();
    for (i, &v) in v0.iter().enumerate() {
        if v <= 0.0 {
            let which: &'static str = match i {
                0 => "E_1",
                1 => "E_2",
                _ => "E_i",
            };
            return Err(EstimateError::Saturated { which });
        }
    }
    let v_star1 = e_star.fraction_ones();
    let q = 1.0 - 1.0 / m as f64;
    let n_groups: Vec<f64> = v0.iter().map(|v| v.ln() / q.ln()).collect();
    let n_max = n_groups.iter().copied().fold(f64::INFINITY, f64::min);
    let predicted = |n_star: f64| -> f64 {
        let qc = q.powf(n_star);
        let transient_align: f64 = n_groups
            .iter()
            .map(|&n_i| 1.0 - q.powf((n_i - n_star).max(0.0)))
            .product();
        1.0 - qc + qc * transient_align
    };
    let lo_val = predicted(0.0);
    let hi_val = predicted(n_max);
    if v_star1 <= lo_val.min(hi_val) {
        return Ok(if lo_val <= hi_val { 0.0 } else { n_max });
    }
    if v_star1 >= lo_val.max(hi_val) {
        return Ok(if lo_val <= hi_val { n_max } else { 0.0 });
    }
    let (mut lo, mut hi) = if lo_val <= hi_val {
        (0.0, n_max)
    } else {
        (n_max, 0.0)
    };
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if predicted(mid) < v_star1 {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo).abs() < 1e-9 * n_max.max(1.0) {
            break;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// One random word at density level `level`: 0 (empty), 1/64, 1/4, 1/2,
/// 3/4, 63/64, or 6+ (full).
fn random_word(rng: &mut ChaCha8Rng, level: u32) -> u64 {
    let mut fold = |n: usize, f: fn(u64, u64) -> u64| {
        (1..n).fold(rng.gen::<u64>(), |acc, _| f(acc, rng.gen::<u64>()))
    };
    match level {
        0 => 0,
        1 => fold(6, |a, b| a & b),
        2 => fold(2, |a, b| a & b),
        3 => fold(1, |a, _| a),
        4 => fold(2, |a, b| a | b),
        5 => fold(6, |a, b| a | b),
        _ => u64::MAX,
    }
}

fn random_map(rng: &mut ChaCha8Rng, exp: u32, level: u32) -> Bitmap {
    let len = 1usize << exp;
    let mut bytes: Vec<u8> = (0..len.div_ceil(64))
        .flat_map(|_| random_word(rng, level).to_le_bytes())
        .take(len.div_ceil(8))
        .collect();
    if len < 8 {
        bytes[0] &= (1u8 << len) - 1;
    }
    Bitmap::from_bytes(len, &bytes).expect("bytes match the length")
}

/// `t` maps around length 2^`exp` (some a factor 2 or 4 smaller), mostly
/// at density `level` with the odd outlier.
fn random_side(rng: &mut ChaCha8Rng, t: usize, exp: u32, level: u32) -> Vec<Bitmap> {
    (0..t)
        .map(|_| {
            let shrink = rng.gen_range(0..3u32).min(exp);
            let density = if rng.gen_range(0..4u32) == 0 {
                rng.gen_range(0..7)
            } else {
                level
            };
            random_map(rng, exp - shrink, density)
        })
        .collect()
}

/// Records at `location` over periods `0..`, one of them moved to another
/// location when `stray` is set.
fn records(location: u64, maps: &[Bitmap], stray: bool) -> Vec<TrafficRecord> {
    maps.iter()
        .enumerate()
        .map(|(p, map)| {
            let loc = if stray && p + 1 == maps.len() {
                location + 1000
            } else {
                location
            };
            TrafficRecord::from_bitmap(LocationId::new(loc), PeriodId::new(p as u32), map.clone())
                .expect("power-of-two maps")
        })
        .collect()
}

/// Checks the record-level location rule the estimators apply first.
fn records_at_one_location(records: &[TrafficRecord]) -> Result<(), EstimateError> {
    let location = records[0].location();
    if records.iter().any(|r| r.location() != location) {
        return Err(EstimateError::LocationMismatch);
    }
    Ok(())
}

/// Tallies of the outcomes compared, to show the generator reaches them.
#[derive(Debug, Default)]
struct Tally {
    compared: usize,
    finite: usize,
    saturated: usize,
    degenerate: usize,
    other_errors: usize,
}

impl Tally {
    fn check(
        &mut self,
        what: &str,
        got: Result<f64, EstimateError>,
        want: Result<f64, EstimateError>,
    ) -> Result<(), String> {
        self.compared += 1;
        match (&got, &want) {
            (Ok(g), Ok(w)) if g.to_bits() == w.to_bits() => self.finite += 1,
            (Err(g), Err(w)) if g == w => match g {
                EstimateError::Saturated { .. } => self.saturated += 1,
                EstimateError::Degenerate => self.degenerate += 1,
                _ => self.other_errors += 1,
            },
            _ => return Err(format!("{what}: fused {got:?} vs materialised {want:?}")),
        }
        Ok(())
    }
}

/// Runs every estimator on one random scenario against the oracle.
fn check_scenario(rng: &mut ChaCha8Rng, tally: &mut Tally) -> Result<(), String> {
    let t = rng.gen_range(1..=10usize);
    let (exp_l, exp_lp) = (rng.gen_range(0..=16u32), rng.gen_range(0..=16u32));
    let (level_l, level_lp) = (rng.gen_range(0..7u32), rng.gen_range(0..7u32));
    let maps_l = random_side(rng, t, exp_l, level_l);
    let maps_lp = random_side(rng, t, exp_lp, level_lp);
    let stray = rng.gen_range(0..8u32) == 0;
    let records_l = records(1, &maps_l, stray);
    let records_lp = records(2, &maps_lp, false);
    let l: Vec<&Bitmap> = maps_l.iter().collect();
    let lp: Vec<&Bitmap> = maps_lp.iter().collect();
    // What a record-level estimator needing `required` records answers
    // when the bitmap-level oracle answers `want`.
    let at_location = |required: usize, want: Result<f64, EstimateError>| {
        if t < required {
            want
        } else {
            records_at_one_location(&records_l).and(want)
        }
    };

    for (what, got, want) in [
        ("and_join", and_join(l.iter().copied()), oracle_and(&l)),
        (
            "or_join",
            or_join(l.iter().copied()),
            oracle_join(&l, Bitmap::or_assign),
        ),
    ] {
        if got != want {
            return Err(format!("{what}: fused and materialised joins differ"));
        }
    }

    for split in [SplitStrategy::Halves, SplitStrategy::Interleaved] {
        let estimator = PointEstimator::with_split(split);
        let want = oracle_point(&l, split);
        let value = want.clone().map(|(value, _)| value);
        let error = want.map(|(_, error)| error);
        tally.check(
            "point bitmaps",
            estimator.estimate_bitmaps(&l),
            value.clone(),
        )?;
        tally.check(
            "point records",
            estimator.estimate(&records_l),
            at_location(2, value.clone()),
        )?;
        let got = estimator.estimate_with_error(&records_l);
        tally.check(
            "point with_error",
            got.clone().map(|e| e.value),
            at_location(2, value),
        )?;
        tally.check(
            "point std_error",
            got.map(|e| e.std_error),
            at_location(2, error),
        )?;
    }

    let (e_a, e_b) = (&maps_l[0], &maps_lp[0]);
    let want = oracle_halves(e_a, e_b);
    let (value, error) = (want.clone().map(|(v, _)| v), want.map(|(_, e)| e));
    tally.check("from_halves", estimate_from_halves(e_a, e_b), value.clone())?;
    let got = estimate_from_halves_with_error(e_a, e_b);
    tally.check(
        "from_halves_with_error",
        got.clone().map(|e| e.value),
        value,
    )?;
    tally.check("from_halves std_error", got.map(|e| e.std_error), error)?;

    let naive = NaiveAndEstimator::new();
    let want = oracle_naive(&l);
    tally.check("naive bitmaps", naive.estimate_bitmaps(&l), want.clone())?;
    tally.check(
        "naive records",
        naive.estimate(&records_l),
        at_location(1, want),
    )?;

    for k in 2..=4usize {
        let want = at_location(k, oracle_kway(&l, k));
        tally.check("kway", KwayEstimator::new(k).estimate(&records_l), want)?;
    }

    let s = rng.gen_range(1..=8u32);
    for form in [P2pForm::Paper, P2pForm::Exact] {
        let estimator = PointToPointEstimator::new(s).with_form(form);
        let orders = [
            (&l, &lp, &records_l, &records_lp),
            (&lp, &l, &records_lp, &records_l),
        ];
        for (a, b, records_a, records_b) in orders {
            let want = oracle_p2p(a, b, s, form);
            tally.check(
                "p2p bitmaps",
                estimator.estimate_bitmaps(a, b),
                want.clone(),
            )?;
            let want = records_at_one_location(records_a)
                .and(records_at_one_location(records_b))
                .and(want);
            tally.check(
                "p2p records",
                estimator.estimate(records_a, records_b),
                want,
            )?;
            let want = oracle_joined(a[0], b[0], s, form);
            tally.check("p2p joined", estimator.estimate_joined(a[0], b[0]), want)?;
        }
    }
    Ok(())
}

/// Scenarios per proptest case.
const SCENARIOS: usize = 16;

proptest! {
    #[test]
    fn fused_estimators_match_the_materialised_path(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut tally = Tally::default();
        for _ in 0..SCENARIOS {
            if let Err(detail) = check_scenario(&mut rng, &mut tally) {
                prop_assert!(false, "seed {}: {}", seed, detail);
            }
        }
    }
}

#[test]
fn generator_reaches_every_outcome() {
    let mut tally = Tally::default();
    for seed in 0..64u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..SCENARIOS {
            check_scenario(&mut rng, &mut tally).expect("bit-exact");
        }
    }
    println!("{tally:?}");
    assert!(tally.finite > 1000, "{tally:?}");
    assert!(tally.saturated > 100, "{tally:?}");
    assert!(tally.degenerate > 0, "{tally:?}");
    assert!(tally.other_errors > 0, "{tally:?}");
}
