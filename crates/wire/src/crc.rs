//! The two checksums of the pipeline, one module:
//!
//! * [`crc16`] — CRC-16/CCITT-FALSE, the integrity check inside every
//!   38-byte binary beacon (computed at the tag, verified at the
//!   collector, recomputed when the journal re-encodes the beacon);
//! * [`crc32`] — CRC-32/IEEE, the frame check on every WAL record and
//!   the body check on every shard snapshot (`qtag-store`).
//!
//! Implemented by hand (no CRC crate in the offline dependency set) as
//! portable slice-by-8 table kernels: eight bytes per step through
//! eight 256-entry tables, with a byte-at-a-time tail for the
//! remainder. Table 0 is the classic byte-at-a-time table derived from
//! the bitwise definition; table `k` is table `k - 1` advanced by one
//! zero byte. All of it is built in `const` evaluation, so the
//! auditably-simple definition is still in the source — it just runs
//! once, at compile time.
//!
//! Cost (`cargo bench -p qtag-bench --bench microbench`, `wire/crc16_36B`
//! and `wire/crc32_39B`, median of three runs on a 2-vCPU Intel Xeon KVM
//! guest): CRC-16 over a beacon's 36 checked bytes 31 ns and CRC-32 over
//! a 39-byte WAL beacon payload 17 ns, against 96 ns and 49 ns for the
//! byte-at-a-time loops these kernels replaced. The checksums themselves
//! are unchanged: the tests hold both kernels to a bit-at-a-time
//! reference at every length and alignment.

/// CRC-16/CCITT-FALSE tables: `[0]` is the byte-at-a-time table,
/// `[k][i]` the CRC of byte `i` followed by `k` zero bytes.
static CRC16_TABLES: [[u16; 256]; 8] = {
    let mut t = [[0u16; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32/IEEE tables (reflected): `[0]` is the byte-at-a-time table,
/// `[k][i]` the CRC of byte `i` followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Computes CRC-16/CCITT-FALSE (poly `0x1021`, init `0xFFFF`, no
/// reflection, no final XOR) over `data`.
pub fn crc16(data: &[u8]) -> u16 {
    let t = &CRC16_TABLES;
    let (blocks, tail) = data.as_chunks::<8>();
    let mut crc: u16 = 0xFFFF;
    for b in blocks {
        // MSB-first: the register lines up with the block's first two
        // bytes; each byte then contributes its table advanced by the
        // bytes that follow it.
        let [hi, lo] = crc.to_be_bytes();
        crc = t[7][usize::from(b[0] ^ hi)]
            ^ t[6][usize::from(b[1] ^ lo)]
            ^ t[5][usize::from(b[2])]
            ^ t[4][usize::from(b[3])]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &byte in tail {
        crc = (crc << 8) ^ t[0][usize::from((crc >> 8) as u8 ^ byte)];
    }
    crc
}

/// Computes CRC-32/IEEE 802.3 (reflected polynomial `0xEDB88320`, init
/// and final XOR `0xFFFFFFFF`) over `data` — the ubiquity choice for
/// append-only log framing.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (blocks, tail) = data.as_chunks::<8>();
    let mut crc = !0u32;
    for b in blocks {
        // Reflected: the register lines up with the block's first four
        // bytes, little-endian.
        let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &byte in tail {
        crc = t[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-at-a-time CRC-16/CCITT-FALSE, straight from the definition:
    /// the oracle the table kernel must equal.
    fn crc16_bitwise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &byte in data {
            crc ^= u16::from(byte) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    /// Bit-at-a-time CRC-32/IEEE (reflected), straight from the
    /// definition.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_vector_123456789() {
        // The canonical check values.
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_is_init_value() {
        assert_eq!(crc16(b""), 0xFFFF);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = crc16(b"hello beacon");
        let b = crc16(b"hello beacoo");
        assert_ne!(a, b);
        assert_ne!(crc32(b"hello beacon"), crc32(b"hello beacoo"));
    }

    #[test]
    fn crc_is_order_sensitive() {
        assert_ne!(crc16(b"ab"), crc16(b"ba"));
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }

    #[test]
    fn oracles_match_the_check_values() {
        assert_eq!(crc16_bitwise(b"123456789"), 0x29B1);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random contents at every length 0..=300, starting at any of
        /// the eight alignments of a block — every block/tail split the
        /// kernels can take: the tables equal the bit-at-a-time
        /// definitions.
        #[test]
        fn kernels_equal_the_bitwise_definitions(
            data in prop::collection::vec(any::<u8>(), 308),
            start in 0usize..8,
        ) {
            for len in 0..=300 {
                let s = &data[start..start + len];
                prop_assert_eq!(crc16(s), crc16_bitwise(s), "crc16 length {}", len);
                prop_assert_eq!(crc32(s), crc32_bitwise(s), "crc32 length {}", len);
            }
        }
    }
}
