//! Joining traffic records: replication to a common size followed by
//! bitwise AND (Sec. III-A) or OR (Sec. IV-A second level).
//!
//! Every join here is *fused*: sources are read through their replicated
//! view (word `i` of a map of `n` words replicated to a larger power of
//! two is `words[i mod n]`) one [`CHUNK_WORDS`]-word chunk at a time, so
//! no expanded copy is ever built. The estimators only need one-counts,
//! which [`join_counts`] takes in the same pass over two small stack
//! accumulators; [`and_join`] / [`or_join`] allocate only their output.

use crate::bitmap::{popcount, Bitmap, CHUNK_WORDS};
use crate::error::EstimateError;
use crate::record::TrafficRecord;

/// How a set of records is split into the two halves `Π_a` / `Π_b` that the
/// point persistent estimator joins separately (Sec. III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// The paper's split: `Π_a` is the first `⌈t/2⌉` records, `Π_b` the rest.
    #[default]
    Halves,
    /// Ablation: even-indexed records in `Π_a`, odd-indexed in `Π_b`.
    /// Useful when traffic volume trends over time, so both halves see a
    /// mixture of light and heavy periods.
    Interleaved,
}

impl SplitStrategy {
    /// Partitions indices `0..t` into the two subsets.
    pub fn split(&self, t: usize) -> (Vec<usize>, Vec<usize>) {
        match self {
            Self::Halves => {
                let cut = t.div_ceil(2);
                ((0..cut).collect(), (cut..t).collect())
            }
            Self::Interleaved => (
                (0..t).filter(|i| i % 2 == 0).collect(),
                (0..t).filter(|i| i % 2 == 1).collect(),
            ),
        }
    }
}

/// The bitwise operation of one join level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOp {
    /// Intersection: the AND-join of Sec. III-A.
    And,
    /// Union: the second-level OR-join of Sec. IV-A.
    Or,
}

impl JoinOp {
    /// Combines `map`'s replicated view (words `start..start + acc.len()`
    /// of it at `target` bits) into `acc`.
    fn combine_replicated(self, acc: &mut [u64], map: &Bitmap, start: usize, target: usize) {
        match self {
            Self::And => map.replicated_apply(acc, start, target, |word, src| *word &= src),
            Self::Or => map.replicated_apply(acc, start, target, |word, src| *word |= src),
        }
    }

    /// Combines equal-length word runs: `acc[j] op= src[j]`.
    fn combine_words(self, acc: &mut [u64], src: &[u64]) {
        let pairs = acc.iter_mut().zip(src);
        match self {
            Self::And => pairs.for_each(|(word, &s)| *word &= s),
            Self::Or => pairs.for_each(|(word, &s)| *word |= s),
        }
    }
}

/// AND-joins bitmaps after replicating each to the largest size present.
///
/// # Errors
///
/// * [`EstimateError::NoRecords`] for an empty input;
/// * [`EstimateError::NotPowerOfTwo`] if any bitmap length is not a power of
///   two (expansion undefined).
pub fn and_join<'a, I>(bitmaps: I) -> Result<Bitmap, EstimateError>
where
    I: IntoIterator<Item = &'a Bitmap>,
{
    join_with(bitmaps, JoinOp::And)
}

/// OR-joins bitmaps after replicating each to the largest size present.
///
/// # Errors
///
/// Same conditions as [`and_join`].
pub fn or_join<'a, I>(bitmaps: I) -> Result<Bitmap, EstimateError>
where
    I: IntoIterator<Item = &'a Bitmap>,
{
    join_with(bitmaps, JoinOp::Or)
}

fn join_with<'a, I>(bitmaps: I, op: JoinOp) -> Result<Bitmap, EstimateError>
where
    I: IntoIterator<Item = &'a Bitmap>,
{
    let maps: Vec<&Bitmap> = bitmaps.into_iter().collect();
    let target = record_join(op, &maps)?;
    let _t = ptm_obs::span!("core.join");
    let mut joined = Bitmap::new(target);
    joined.fill_chunks(|chunk, start| {
        maps[0].replicated_apply(chunk, start, target, |word, src| *word = src);
        for map in &maps[1..] {
            op.combine_replicated(chunk, map, start, target);
        }
    });
    Ok(joined)
}

/// Checks one join's inputs and returns its size (the largest length).
fn join_size(maps: &[&Bitmap]) -> Result<usize, EstimateError> {
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
    Ok(target)
}

/// [`join_size`] for one logical join, recording the `core.join.*`
/// counters and histograms for it.
pub(crate) fn record_join(op: JoinOp, maps: &[&Bitmap]) -> Result<usize, EstimateError> {
    match op {
        JoinOp::And => ptm_obs::counter!("core.join.and.ops").inc(),
        JoinOp::Or => ptm_obs::counter!("core.join.or.ops").inc(),
    }
    let target = join_size(maps)?;
    if ptm_obs::metrics_enabled() {
        ptm_obs::histogram!("core.join.fan_in").record(maps.len() as u64);
        for map in maps {
            let factor = (target / map.len()) as u64;
            ptm_obs::histogram!("core.join.expansion_factor").record(factor);
            if factor > 1 {
                ptm_obs::counter!("core.join.expansions").inc();
            }
        }
    }
    Ok(target)
}

/// One-counts of a two-level replicate-join, every one taken over the
/// common size `m` (the largest input length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinCounts {
    /// The common size the counts are taken over.
    pub m: usize,
    /// One bits of `E_a`, the AND-join of the first group, replicated to `m`.
    pub ones_a: usize,
    /// One bits of `E_b`, the AND-join of the second group, replicated to `m`.
    pub ones_b: usize,
    /// One bits of `E_a op E_b` at `m`.
    pub ones_joined: usize,
}

/// AND-joins `a` into `E_a` and `b` into `E_b`, combines the two with
/// `outer`, and counts the ones of all three over the common size — one
/// fused pass, no expanded copy. Each group is recorded as one AND-join.
///
/// # Errors
///
/// The [`and_join`] conditions, checked for `a` and then `b`.
pub fn join_counts(
    a: &[&Bitmap],
    b: &[&Bitmap],
    outer: JoinOp,
) -> Result<JoinCounts, EstimateError> {
    record_join(JoinOp::And, a)?;
    record_join(JoinOp::And, b)?;
    Ok(fused_pair(a, b, outer))
}

/// [`join_counts`] of two already-joined maps: only the second level, so
/// no join is recorded.
///
/// # Errors
///
/// [`EstimateError::NotPowerOfTwo`] for the first of `a`, `b` whose length
/// is not a power of two.
pub(crate) fn combine_counts(
    a: &Bitmap,
    b: &Bitmap,
    outer: JoinOp,
) -> Result<JoinCounts, EstimateError> {
    join_size(&[a])?;
    join_size(&[b])?;
    Ok(fused_pair(&[a], &[b], outer))
}

/// [`fused_counts`] of two validated groups.
pub(crate) fn fused_pair(a: &[&Bitmap], b: &[&Bitmap], outer: JoinOp) -> JoinCounts {
    let mut ones = [0usize; 2];
    let (m, ones_joined) = fused_counts(&[a, b], outer, &mut ones);
    JoinCounts {
        m,
        ones_a: ones[0],
        ones_b: ones[1],
        ones_joined,
    }
}

/// The fused kernel. Over the common size `m` of all (validated, non-empty)
/// `groups`, AND-joins each group's replicated views chunk by chunk,
/// adds each group join's ones to `ones[g]`, and combines the group joins
/// with `outer`. Returns `m` and the ones of the combination.
pub(crate) fn fused_counts(
    groups: &[&[&Bitmap]],
    outer: JoinOp,
    ones: &mut [usize],
) -> (usize, usize) {
    let _t = ptm_obs::span!("core.join");
    debug_assert_eq!(groups.len(), ones.len());
    ones.fill(0);
    let target = groups
        .iter()
        .flat_map(|group| group.iter().map(|map| map.len()))
        .max()
        .expect("validated groups are non-empty");
    let words = target.div_ceil(64);
    let mut group_acc = [0u64; CHUNK_WORDS];
    let mut outer_acc = [0u64; CHUNK_WORDS];
    let mut outer_ones = 0usize;
    for start in (0..words).step_by(CHUNK_WORDS) {
        let len = CHUNK_WORDS.min(words - start);
        let (acc, out) = (&mut group_acc[..len], &mut outer_acc[..len]);
        for (g, group) in groups.iter().enumerate() {
            group[0].replicated_apply(acc, start, target, |word, src| *word = src);
            for map in &group[1..] {
                JoinOp::And.combine_replicated(acc, map, start, target);
            }
            ones[g] += popcount(acc);
            if g == 0 {
                out.copy_from_slice(acc);
            } else {
                outer.combine_words(out, acc);
            }
        }
        outer_ones += popcount(out);
    }
    (target, outer_ones)
}

/// AND-joins the bitmaps of a record set from a single location, checking
/// that the records really are from one location.
///
/// # Errors
///
/// * [`EstimateError::LocationMismatch`] if locations differ;
/// * plus the [`and_join`] conditions.
pub fn and_join_records(records: &[TrafficRecord]) -> Result<Bitmap, EstimateError> {
    if records.is_empty() {
        return Err(EstimateError::NoRecords);
    }
    and_join(single_location_bitmaps(records)?)
}

/// The bitmaps of `records`, checked to come from a single location.
///
/// # Errors
///
/// [`EstimateError::LocationMismatch`] if locations differ.
pub(crate) fn single_location_bitmaps(
    records: &[TrafficRecord],
) -> Result<Vec<&Bitmap>, EstimateError> {
    if let Some(first) = records.first() {
        if records.iter().any(|r| r.location() != first.location()) {
            return Err(EstimateError::LocationMismatch);
        }
    }
    Ok(records.iter().map(TrafficRecord::bitmap).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bm(len: usize, ones: &[usize]) -> Bitmap {
        let mut b = Bitmap::new(len);
        for &i in ones {
            b.set(i);
        }
        b
    }

    #[test]
    fn and_join_same_size_is_plain_and() {
        // Fig. 1: equal-size AND.
        let a = bm(8, &[0, 2, 5]);
        let b = bm(8, &[2, 5, 7]);
        let joined = and_join([&a, &b]).expect("join");
        assert_eq!(joined.iter_ones().collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn and_join_mixed_sizes_expands() {
        // Fig. 2: the 4-bit map expands to 8 bits before the AND.
        let small = bm(4, &[1]);
        let large = bm(8, &[1, 5, 6]);
        let joined = and_join([&small, &large]).expect("join");
        // small expands to ones at {1, 5}; AND with {1,5,6} = {1,5}.
        assert_eq!(joined.iter_ones().collect::<Vec<_>>(), vec![1, 5]);
    }

    #[test]
    fn or_join_mixed_sizes() {
        let small = bm(4, &[0]);
        let large = bm(8, &[3]);
        let joined = or_join([&small, &large]).expect("join");
        assert_eq!(joined.iter_ones().collect::<Vec<_>>(), vec![0, 3, 4]);
    }

    #[test]
    fn empty_join_is_error() {
        assert_eq!(and_join(std::iter::empty()), Err(EstimateError::NoRecords));
        assert_eq!(or_join(std::iter::empty()), Err(EstimateError::NoRecords));
    }

    #[test]
    fn non_power_of_two_rejected() {
        let bad = bm(6, &[0]);
        let good = bm(8, &[0]);
        assert!(matches!(
            and_join([&bad, &good]),
            Err(EstimateError::NotPowerOfTwo { len: 6 })
        ));
    }

    #[test]
    fn single_map_join_is_identity() {
        let a = bm(16, &[3, 9]);
        assert_eq!(and_join([&a]).expect("join"), a);
        assert_eq!(or_join([&a]).expect("join"), a);
    }

    #[test]
    fn halves_split() {
        assert_eq!(SplitStrategy::Halves.split(5), (vec![0, 1, 2], vec![3, 4]));
        assert_eq!(SplitStrategy::Halves.split(4), (vec![0, 1], vec![2, 3]));
        assert_eq!(SplitStrategy::Halves.split(2), (vec![0], vec![1]));
    }

    #[test]
    fn interleaved_split() {
        assert_eq!(
            SplitStrategy::Interleaved.split(5),
            (vec![0, 2, 4], vec![1, 3])
        );
    }

    #[test]
    fn record_join_checks_location() {
        use crate::encoding::LocationId;
        use crate::params::BitmapSize;
        use crate::record::{PeriodId, TrafficRecord};
        let size = BitmapSize::new(8).expect("pow2");
        let a = TrafficRecord::new(LocationId::new(1), PeriodId::new(0), size);
        let b = TrafficRecord::new(LocationId::new(2), PeriodId::new(0), size);
        assert_eq!(
            and_join_records(&[a.clone(), b]),
            Err(EstimateError::LocationMismatch)
        );
        assert!(and_join_records(&[a]).is_ok());
        assert_eq!(and_join_records(&[]), Err(EstimateError::NoRecords));
    }

    proptest! {
        /// AND result never has more ones than any input (after accounting
        /// for expansion, which preserves the ones *fraction*).
        #[test]
        fn and_fraction_bounded_by_min_input(
            lens in proptest::collection::vec(3u32..8, 2..5),
            seed in any::<u64>(),
        ) {
            let mut state = seed;
            let maps: Vec<Bitmap> = lens.iter().map(|&p| {
                let len = 1usize << p;
                let mut b = Bitmap::new(len);
                for i in 0..len {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if state >> 62 == 0 {
                        b.set(i);
                    }
                }
                b
            }).collect();
            let joined = and_join(maps.iter()).expect("join");
            let min_frac = maps
                .iter()
                .map(|m| m.fraction_ones())
                .fold(f64::INFINITY, f64::min);
            prop_assert!(joined.fraction_ones() <= min_frac + 1e-12);
        }

        /// Splits partition the index set exactly.
        #[test]
        fn splits_partition(t in 2usize..50) {
            for strategy in [SplitStrategy::Halves, SplitStrategy::Interleaved] {
                let (a, b) = strategy.split(t);
                let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
                all.sort_unstable();
                prop_assert_eq!(all, (0..t).collect::<Vec<_>>());
                prop_assert!(!a.is_empty());
                prop_assert!(!b.is_empty());
            }
        }
    }
}
