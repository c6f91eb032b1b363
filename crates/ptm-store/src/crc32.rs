//! CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8.
//!
//! Implemented from scratch like the rest of the substrates; validated
//! against the standard check value (`crc32("123456789") = 0xCBF43926`).
//! The kernel folds eight bytes per step through eight 256-entry tables
//! (8 KiB, built at compile time) and finishes the last `len % 8` bytes one
//! at a time. On a 2-vCPU x86-64 guest the `storage/crc32_128k` micro bench
//! checksums 128 KiB in ~106 µs (~1.2 GB/s), against ~450 µs (~0.3 GB/s)
//! for one table lookup per byte; the checksum is the same.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// Advances the raw (pre-inverted) CRC state over `data`.
fn update_state(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !update_state(!0u32, data)
}

/// Incremental CRC-32 for multi-part frames.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a new checksum.
    pub fn new() -> Self {
        Self { state: !0u32 }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update_state(self.state, data);
    }

    /// Finishes and returns the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"split into several pieces for the incremental api";
        for cut in 0..data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            assert_eq!(crc.finalize(), crc32(data), "cut {cut}");
        }
    }

    /// The byte-at-a-time loop the slicing-by-8 kernel replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    proptest! {
        #[test]
        fn slicing_matches_bytewise_at_every_alignment(
            len in 0usize..4096,
            seed in any::<u64>(),
        ) {
            let buf = random_bytes(seed, len + 8);
            for start in 0..8 {
                let slice = &buf[start..start + len];
                prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
            }
        }

        #[test]
        fn incremental_matches_bytewise_over_any_split(
            len in 0usize..4096,
            seed in any::<u64>(),
            cuts in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            let data = random_bytes(seed, len);
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&c| (c % (len as u64 + 1)) as usize)
                .collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([len]) {
                crc.update(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(crc.finalize(), crc32_bytewise(&data));
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = vec![0x5Au8; 64];
        let base = crc32(&data);
        for i in 0..data.len() {
            let mut corrupted = data.clone();
            corrupted[i] ^= 1;
            assert_ne!(crc32(&corrupted), base, "flip at byte {i} undetected");
        }
    }
}
