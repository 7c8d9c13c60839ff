//! The workspace's one CRC-32: IEEE 802.3 polynomial, reflected, slice-by-8.
//!
//! Wire frames (`crc32 ‖ body`), `MLPJ` journal frames and the `MLPR`
//! trace trailer all carry this checksum. It lives in the leaf crate so
//! every codec can reach it without depending on another; the wire crate
//! re-exports it as `mlperf_wire::frame::crc32`. The one FNV-1a hash
//! (settings digests, logical detail-log hashes, per-system seeds) sits
//! beside it for the same reason.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets the main loop
/// fold eight input bytes per step with eight independent lookups.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`. Detects every single-bit error and all burst
/// errors up to 32 bits, which is exactly the failure model a chaotic
/// network or a torn write presents to a frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a, 64-bit: the workspace's one non-cryptographic content hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::{crc32, fnv1a64};

    #[test]
    fn fnv1a64_matches_published_vectors() {
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// Bit-at-a-time reference: the polynomial division written out, with
    /// no table to share a bug with.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn matches_published_check_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Every length 0..=1,100 at every start offset 0..8 of one shared
    /// buffer: the 8-byte body, the tail loop, and unaligned starts.
    #[test]
    fn agrees_with_the_reference_at_every_length_and_offset() {
        // Knuth's 64-bit LCG, top byte: seeded, and every byte value occurs.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1_108)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1_100 {
                let slice = &buf[offset..offset + len];
                assert_eq!(crc32(slice), reference(slice), "offset {offset}, len {len}");
            }
        }
    }
}
