//! The vehicle's on-board unit (OBU) state machine.
//!
//! On receiving a beacon the OBU (1) verifies the RSU certificate against
//! the pre-installed authority key, (2) verifies the beacon signature with
//! the certified key, (3) computes its bit index `h_v mod m` for the
//! beacon's location, and (4) sends the index encrypted under a fresh
//! Diffie–Hellman session key, from a one-time MAC address. It keeps
//! retrying on later beacons until the RSU acknowledges.

use crate::mac::TempMac;
use crate::message::{self, Ack, Beacon, Report};
use ptm_core::encoding::{EncodingScheme, LocationId, VehicleSecrets};
use ptm_core::record::PeriodId;
use ptm_crypto::cert::RootKey;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// Why an OBU refused to answer a beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeaconRejection {
    /// The certificate was not issued by the trusted authority — a rogue
    /// RSU. The vehicle "will keep silent" (paper Sec. II-B).
    UntrustedCertificate,
    /// The payload signature did not verify under the certified key.
    BadSignature,
}

/// An on-board unit.
#[derive(Debug)]
pub struct Obu {
    secrets: VehicleSecrets,
    root: RootKey,
    /// Contacts already acknowledged: no further reports needed.
    completed: HashSet<(LocationId, PeriodId)>,
    /// Outstanding reports awaiting acks, keyed by their one-time MAC.
    pending: HashMap<TempMac, (LocationId, PeriodId)>,
    /// Diagnostics: rogue beacons rejected.
    rejections: u64,
}

impl Obu {
    /// Creates an OBU holding the vehicle's secrets and the pre-installed
    /// authority root key.
    pub fn new(secrets: VehicleSecrets, root: RootKey) -> Self {
        Self {
            secrets,
            root,
            completed: HashSet::new(),
            pending: HashMap::new(),
            rejections: 0,
        }
    }

    /// The vehicle's secret material (used by tests and ground truth).
    pub fn secrets(&self) -> &VehicleSecrets {
        &self.secrets
    }

    /// Count of rejected (rogue / tampered) beacons.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Whether the `(location, period)` contact completed (ack received).
    pub fn completed(&self, location: LocationId, period: PeriodId) -> bool {
        self.completed.contains(&(location, period))
    }

    /// Handles a received beacon.
    ///
    /// Returns `Ok(Some(report))` when a (re)transmission is warranted,
    /// `Ok(None)` when this contact already completed.
    ///
    /// # Errors
    ///
    /// [`BeaconRejection`] when the certificate chain or signature fails —
    /// the vehicle stays silent.
    pub fn handle_beacon<R: Rng + ?Sized>(
        &mut self,
        scheme: &EncodingScheme,
        beacon: &Beacon,
        rng: &mut R,
    ) -> Result<Option<Report>, BeaconRejection> {
        if self.root.verify_certificate(&beacon.certificate).is_err() {
            self.rejections += 1;
            return Err(BeaconRejection::UntrustedCertificate);
        }
        if beacon
            .certificate
            .subject_key()
            .verify(&beacon.payload.signing_bytes(), &beacon.signature)
            .is_err()
        {
            self.rejections += 1;
            return Err(BeaconRejection::BadSignature);
        }
        let contact = (beacon.payload.location, beacon.payload.period);
        if self.completed.contains(&contact) {
            return Ok(None);
        }

        let index = scheme.encode_index(
            &self.secrets,
            beacon.payload.location,
            beacon.payload.bitmap_size,
        );
        let (a_secret, a_public) = message::dh_keypair(rng.gen());
        let key = message::session_key(message::dh_shared(beacon.payload.dh_public, a_secret));
        let nonce = rng.gen();
        let ciphertext = message::encrypt_index(&key, nonce, index as u64);
        let mac = TempMac::random(rng);
        let tag = message::report_tag(&key, mac, a_public, nonce, &ciphertext);
        self.pending.insert(mac, contact);
        Ok(Some(Report {
            mac,
            dh_public: a_public,
            nonce,
            ciphertext,
            tag,
        }))
    }

    /// Handles an acknowledgement; returns whether it matched an
    /// outstanding report.
    pub fn handle_ack(&mut self, ack: &Ack) -> bool {
        match self.pending.remove(&ack.mac) {
            Some(contact) => {
                self.completed.insert(contact);
                // Older duplicate reports for the same contact may still be
                // pending under other MACs; drop them.
                self.pending.retain(|_, c| *c != contact);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsu::Rsu;
    use ptm_core::params::BitmapSize;
    use ptm_crypto::cert::TrustedAuthority;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct Fixture {
        scheme: EncodingScheme,
        rsu: Rsu,
        obu: Obu,
        rng: ChaCha8Rng,
    }

    fn fixture() -> Fixture {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut authority = TrustedAuthority::from_seed(1);
        let cred = authority.issue("rsu-main");
        let rsu = Rsu::new(
            cred,
            LocationId::new(9),
            BitmapSize::new(2048).expect("pow2"),
            PeriodId::new(0),
            &mut rng,
        );
        let scheme = EncodingScheme::new(0x0B0, 3);
        let secrets = VehicleSecrets::generate(&mut rng, 3);
        let obu = Obu::new(secrets, authority.root());
        Fixture {
            scheme,
            rsu,
            obu,
            rng,
        }
    }

    #[test]
    fn happy_path_end_to_end() {
        let mut fx = fixture();
        let beacon = fx.rsu.beacon();
        let report = fx
            .obu
            .handle_beacon(&fx.scheme, &beacon, &mut fx.rng)
            .expect("trusted")
            .expect("first contact sends");
        let ack = fx.rsu.handle_report(&report).expect("valid report");
        assert!(fx.obu.handle_ack(&ack));
        assert!(fx.obu.completed(LocationId::new(9), PeriodId::new(0)));

        // The bit set at the RSU is exactly the vehicle's encoding index.
        let expected = fx
            .scheme
            .encode_index(fx.obu.secrets(), LocationId::new(9), 2048);
        let record = fx.rsu.finish_period(PeriodId::new(1), &mut fx.rng);
        let ones: Vec<usize> = (0..record.len())
            .filter(|&i| record.bitmap().get(i))
            .collect();
        assert_eq!(ones, vec![expected]);
    }

    #[test]
    fn completed_contact_stops_retransmitting() {
        let mut fx = fixture();
        let beacon = fx.rsu.beacon();
        let report = fx
            .obu
            .handle_beacon(&fx.scheme, &beacon, &mut fx.rng)
            .unwrap()
            .unwrap();
        let ack = fx.rsu.handle_report(&report).expect("valid");
        fx.obu.handle_ack(&ack);
        // Next beacon of the same period: nothing to send.
        assert_eq!(
            fx.obu.handle_beacon(&fx.scheme, &beacon, &mut fx.rng),
            Ok(None)
        );
    }

    #[test]
    fn unacked_report_retries_with_fresh_mac() {
        let mut fx = fixture();
        let beacon = fx.rsu.beacon();
        let first = fx
            .obu
            .handle_beacon(&fx.scheme, &beacon, &mut fx.rng)
            .unwrap()
            .unwrap();
        // Pretend the report was lost; vehicle hears another beacon.
        let second = fx
            .obu
            .handle_beacon(&fx.scheme, &beacon, &mut fx.rng)
            .unwrap()
            .unwrap();
        assert_ne!(first.mac, second.mac, "one-time MACs must not repeat");
        assert_ne!(first.nonce, second.nonce);
        // Both decrypt to the same index at the RSU.
        let a1 = fx.rsu.handle_report(&first).expect("valid");
        let a2 = fx.rsu.handle_report(&second).expect("valid");
        assert!(fx.obu.handle_ack(&a1));
        // The second ack's MAC no longer maps to a pending contact.
        assert!(!fx.obu.handle_ack(&a2));
        let record = fx.rsu.finish_period(PeriodId::new(1), &mut fx.rng);
        assert_eq!(record.bitmap().count_ones(), 1, "idempotent bit setting");
    }

    #[test]
    fn rogue_rsu_is_rejected() {
        let mut fx = fixture();
        let mut rogue_authority = TrustedAuthority::from_seed(666);
        let rogue_cred = rogue_authority.issue("rsu-evil");
        let mut rogue = Rsu::new(
            rogue_cred,
            LocationId::new(9),
            BitmapSize::new(2048).expect("pow2"),
            PeriodId::new(0),
            &mut fx.rng,
        );
        let beacon = rogue.beacon();
        assert_eq!(
            fx.obu.handle_beacon(&fx.scheme, &beacon, &mut fx.rng),
            Err(BeaconRejection::UntrustedCertificate)
        );
        assert_eq!(fx.obu.rejections(), 1);
        let record = rogue.finish_period(PeriodId::new(1), &mut fx.rng);
        assert_eq!(record.bitmap().count_ones(), 0, "vehicle stayed silent");
    }

    #[test]
    fn tampered_beacon_is_rejected() {
        let mut fx = fixture();
        let mut beacon = fx.rsu.beacon();
        beacon.payload.bitmap_size = 4096; // enlarge m to corrupt encoding
        assert_eq!(
            fx.obu.handle_beacon(&fx.scheme, &beacon, &mut fx.rng),
            Err(BeaconRejection::BadSignature)
        );
    }

    #[test]
    fn new_period_triggers_new_report() {
        let mut fx = fixture();
        let beacon0 = fx.rsu.beacon();
        let report0 = fx
            .obu
            .handle_beacon(&fx.scheme, &beacon0, &mut fx.rng)
            .unwrap()
            .unwrap();
        let ack0 = fx.rsu.handle_report(&report0).expect("valid");
        fx.obu.handle_ack(&ack0);
        let _ = fx.rsu.finish_period(PeriodId::new(1), &mut fx.rng);
        let beacon1 = fx.rsu.beacon();
        let report1 = fx
            .obu
            .handle_beacon(&fx.scheme, &beacon1, &mut fx.rng)
            .expect("trusted")
            .expect("new period, new contact");
        let ack1 = fx.rsu.handle_report(&report1).expect("valid");
        assert!(fx.obu.handle_ack(&ack1));
    }

    #[test]
    fn unknown_ack_ignored() {
        let mut fx = fixture();
        let bogus = Ack {
            mac: TempMac::random(&mut fx.rng),
        };
        assert!(!fx.obu.handle_ack(&bogus));
    }
}
