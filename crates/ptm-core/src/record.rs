//! Traffic records: the per-RSU, per-period bitmap plus its metadata.

use crate::bitmap::Bitmap;
use crate::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use crate::error::EstimateError;
use crate::params::BitmapSize;
use serde::{Deserialize, Serialize};

/// Identifies one measurement period (e.g. a day index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeriodId(u32);

impl PeriodId {
    /// Wraps a raw period index.
    pub fn new(id: u32) -> Self {
        Self(id)
    }

    /// The raw value.
    pub fn get(&self) -> u32 {
        self.0
    }
}

/// A traffic record: what one RSU uploads to the central server at the end
/// of one measurement period (paper Sec. II-D).
///
/// The record deliberately stores no vehicle identifiers — only the bitmap.
///
/// # Example
///
/// ```
/// use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
/// use ptm_core::params::BitmapSize;
/// use ptm_core::record::{PeriodId, TrafficRecord};
/// use rand::SeedableRng;
///
/// let scheme = EncodingScheme::new(1, 3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let vehicle = VehicleSecrets::generate(&mut rng, 3);
/// let m = BitmapSize::new(1024).expect("power of two");
///
/// let mut record = TrafficRecord::new(LocationId::new(5), PeriodId::new(0), m);
/// record.encode(&scheme, &vehicle);
/// assert_eq!(record.bitmap().count_ones(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficRecord {
    location: LocationId,
    period: PeriodId,
    bitmap: Bitmap,
}

impl TrafficRecord {
    /// Creates an empty record with a power-of-two bitmap of `size` bits.
    pub fn new(location: LocationId, period: PeriodId, size: BitmapSize) -> Self {
        Self {
            location,
            period,
            bitmap: Bitmap::new(size.get()),
        }
    }

    /// Wraps an already-filled bitmap, e.g. one decoded from storage or the
    /// wire. The bits are taken as they are: nothing is counted as a
    /// vehicle encode.
    ///
    /// # Errors
    ///
    /// [`EstimateError::NotPowerOfTwo`] if the bitmap length is not a power
    /// of two — the record invariant [`TrafficRecord::new`] gets from
    /// [`BitmapSize`].
    pub fn from_bitmap(
        location: LocationId,
        period: PeriodId,
        bitmap: Bitmap,
    ) -> Result<Self, EstimateError> {
        if !bitmap.is_power_of_two() {
            return Err(EstimateError::NotPowerOfTwo { len: bitmap.len() });
        }
        Ok(Self {
            location,
            period,
            bitmap,
        })
    }

    /// The RSU location this record was produced at.
    pub fn location(&self) -> LocationId {
        self.location
    }

    /// The measurement period this record covers.
    pub fn period(&self) -> PeriodId {
        self.period
    }

    /// The underlying bitmap.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }

    /// The same bitmap restamped with a different period id.
    ///
    /// Used when an RSU armed with a provisional sequential id hands its
    /// record to a coordinator that knows the authoritative period.
    pub fn restamped(mut self, period: PeriodId) -> Self {
        self.period = period;
        self
    }

    /// Number of bits `m` in the record.
    pub fn len(&self) -> usize {
        self.bitmap.len()
    }

    /// Always false; records are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.bitmap.is_empty()
    }

    /// Encodes a passing vehicle: computes `h_v mod m` and sets that bit.
    ///
    /// This is the *whole* per-vehicle operation the RSU performs — "that is
    /// the only operation of vehicle encoding" (Sec. II-D). Encoding the same
    /// vehicle again in the same period is harmless (idempotent).
    pub fn encode(&mut self, scheme: &EncodingScheme, vehicle: &VehicleSecrets) {
        let _t = ptm_obs::span!("core.encode.record");
        let index = scheme.encode_index(vehicle, self.location, self.bitmap.len());
        self.observe_set(index);
        self.bitmap.set(index);
    }

    /// Directly sets the bit a vehicle reported.
    ///
    /// Used by the V2I layer where the *vehicle* computes the index and the
    /// RSU only learns the index, never the identity.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the record's bitmap.
    pub fn set_reported_index(&mut self, index: usize) {
        if index < self.bitmap.len() {
            self.observe_set(index);
        }
        self.bitmap.set(index);
    }

    /// Metric bookkeeping for one bit-set: encodes attempted, fresh bits vs
    /// collisions (a bit that was already one — either the same vehicle
    /// re-passing or a hash collision). Free when metrics are disabled.
    fn observe_set(&self, index: usize) {
        if !ptm_obs::metrics_enabled() {
            return;
        }
        ptm_obs::counter!("core.encode.vehicles").inc();
        if self.bitmap.get(index) {
            ptm_obs::counter!("core.encode.collisions").inc();
        } else {
            ptm_obs::counter!("core.encode.bits_set").inc();
        }
    }

    /// Fraction of zero bits (`V_0`), the LPC observable.
    pub fn fraction_zeros(&self) -> f64 {
        self.bitmap.fraction_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::VehicleId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (EncodingScheme, VehicleSecrets, TrafficRecord) {
        let scheme = EncodingScheme::new(11, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let vehicle = VehicleSecrets::generate(&mut rng, 3);
        let record = TrafficRecord::new(
            LocationId::new(1),
            PeriodId::new(0),
            BitmapSize::new(256).expect("power of two"),
        );
        (scheme, vehicle, record)
    }

    #[test]
    fn encode_sets_exactly_one_bit() {
        let (scheme, vehicle, mut record) = setup();
        record.encode(&scheme, &vehicle);
        assert_eq!(record.bitmap().count_ones(), 1);
    }

    #[test]
    fn encode_is_idempotent_within_a_period() {
        let (scheme, vehicle, mut record) = setup();
        record.encode(&scheme, &vehicle);
        record.encode(&scheme, &vehicle);
        assert_eq!(record.bitmap().count_ones(), 1);
    }

    #[test]
    fn same_vehicle_same_bit_across_periods() {
        // The property AND-joins rely on: persistent vehicles re-set the
        // same bit at the same location every period.
        let (scheme, vehicle, _) = setup();
        let size = BitmapSize::new(256).expect("pow2");
        let mut day0 = TrafficRecord::new(LocationId::new(1), PeriodId::new(0), size);
        let mut day1 = TrafficRecord::new(LocationId::new(1), PeriodId::new(1), size);
        day0.encode(&scheme, &vehicle);
        day1.encode(&scheme, &vehicle);
        assert_eq!(
            day0.bitmap().iter_ones().collect::<Vec<_>>(),
            day1.bitmap().iter_ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn set_reported_index_matches_encode() {
        let (scheme, vehicle, mut record) = setup();
        let mut via_report = record.clone();
        record.encode(&scheme, &vehicle);
        let index = scheme.encode_index(&vehicle, LocationId::new(1), 256);
        via_report.set_reported_index(index);
        assert_eq!(record, via_report);
    }

    #[test]
    fn from_bitmap_matches_set_reported_index() {
        let (_, _, mut record) = setup();
        let mut bitmap = Bitmap::new(256);
        for index in [0, 3, 64, 255] {
            record.set_reported_index(index);
            bitmap.set(index);
        }
        let wrapped = TrafficRecord::from_bitmap(LocationId::new(1), PeriodId::new(0), bitmap)
            .expect("power of two");
        assert_eq!(wrapped, record);
    }

    #[test]
    fn from_bitmap_rejects_non_power_of_two() {
        assert_eq!(
            TrafficRecord::from_bitmap(LocationId::new(1), PeriodId::new(0), Bitmap::new(24)),
            Err(EstimateError::NotPowerOfTwo { len: 24 })
        );
    }

    #[test]
    fn accessors() {
        let (_, _, record) = setup();
        assert_eq!(record.location(), LocationId::new(1));
        assert_eq!(record.period(), PeriodId::new(0));
        assert_eq!(record.len(), 256);
        assert!(!record.is_empty());
        assert_eq!(record.fraction_zeros(), 1.0);
    }

    #[test]
    fn record_never_contains_identities() {
        // Serialize the record and check the vehicle id bytes never appear:
        // the record is a bitmap plus metadata, nothing else.
        let scheme = EncodingScheme::new(11, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let vehicle =
            VehicleSecrets::generate_with_id(&mut rng, VehicleId::new(0xDEAD_BEEF_CAFE), 3);
        let mut record = TrafficRecord::new(
            LocationId::new(1),
            PeriodId::new(0),
            BitmapSize::new(64).expect("pow2"),
        );
        record.encode(&scheme, &vehicle);
        let json = serde_json::to_string(&record).expect("serialize");
        assert!(
            !json.contains("DEAD"),
            "no identity material may leak into the record"
        );
        assert!(!json.contains(&vehicle.id().get().to_string()));
    }

    #[test]
    fn serde_roundtrip() {
        let (scheme, vehicle, mut record) = setup();
        record.encode(&scheme, &vehicle);
        let json = serde_json::to_string(&record).expect("serialize");
        let back: TrafficRecord = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, record);
    }
}
