//! The workspace's one CRC-32: IEEE 802.3 polynomial, reflected.
//!
//! Wire frames (`crc32 ‖ body`), `MLPJ` journal frames and the `MLPR`
//! trace trailer all carry this checksum. It lives in the leaf crate so
//! every codec can reach it without depending on another; the wire crate
//! re-exports it as `mlperf_wire::frame::crc32`. The one FNV-1a hash
//! (settings digests, logical detail-log hashes, per-system seeds) sits
//! beside it for the same reason.
//!
//! Two paths compute one value. On x86-64 with PCLMULQDQ and SSE4.1
//! (detected at run time) `fold` folds an input's whole 16-byte blocks
//! with the carry-less multiplier, ≈ 20 GB/s on one core, and `table`
//! finishes the tail. Every other CPU and target runs `table`, a safe
//! slice-by-8 loop at ≈ 1.2–1.6 GB/s, over all of it. Both take and return
//! the raw CRC state, so one composes with the other and the tests compare
//! them directly. The call into `fold` right after the detection is the
//! one place in the workspace's library code that the compiler cannot
//! check; `tests/census.rs` pins that it stays the only one.

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
    !folded(u32::MAX, bytes).unwrap_or_else(|| table(u32::MAX, bytes))
}

/// The slice-by-8 loop: takes the raw CRC state (no init, no final `!`)
/// and returns it advanced over `bytes`. It is the whole computation on a
/// CPU without the carry-less multiplier and the tail after [`fold`].
fn table(mut crc: u32, bytes: &[u8]) -> u32 {
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
    crc
}

/// The raw state advanced over `bytes` by [`fold`] (its whole 16-byte
/// blocks) and [`table`] (the rest), or `None` when `bytes` holds no whole
/// block or the CPU lacks PCLMULQDQ or SSE4.1.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn folded(crc: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < 16
        || !is_x86_feature_detected!("pclmulqdq")
        || !is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    let (blocks, tail) = bytes.split_at(bytes.len() & !15);
    // SAFETY: both target features `fold` is compiled with were detected
    // on this CPU just above.
    Some(table(unsafe { fold(crc, blocks) }, tail))
}

/// Elsewhere there is no kernel: [`table`] does all of it.
#[cfg(not(target_arch = "x86_64"))]
fn folded(_crc: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

/// The raw state advanced over `blocks` (a whole number of 16-byte
/// blocks) by carry-less multiplication: Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), in its bit-reflected form, as Linux's `crc32-pclmul`
/// does it. Four 128-bit lanes fold 64 bytes a step by x^(512±32)
/// (R1, R2); the lanes, then any single blocks left, fold into one by
/// x^(128±32) (R3, R4); R4 and R5 reduce 128 bits to 64, and a Barrett
/// reduction by (P′, μ) to the 32-bit remainder. Running it on a CPU
/// without both features is undefined, so its one caller, [`folded`],
/// detects them first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold(crc: u32, blocks: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    const R1: i64 = 0x1_5444_2bd4;
    const R2: i64 = 0x1_c6e4_1596;
    const R3: i64 = 0x1_7519_97d0;
    const R4: i64 = 0x0_ccaa_009e;
    const R5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// One block as the 128-bit little-endian lane the CPU would load.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let lane = u128::from_le_bytes(*block);
        _mm_set_epi64x((lane >> 64) as i64, lane as i64)
    }
    /// `acc` carried forward over the distance `keys` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn step(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    let (blocks, rest) = blocks.as_chunks::<16>();
    debug_assert!(rest.is_empty());
    let Some((first, mut blocks)) = blocks.split_first() else {
        return crc;
    };
    let mut x = _mm_xor_si128(load(first), _mm_cvtsi32_si128(crc as i32));
    let r3r4 = _mm_set_epi64x(R4, R3);
    if let [b1, b2, b3, more @ ..] = blocks {
        let r1r2 = _mm_set_epi64x(R2, R1);
        let mut lanes = [x, load(b1), load(b2), load(b3)];
        let (quads, singles) = more.as_chunks::<4>();
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = step(*lane, load(block), r1r2);
            }
        }
        x = lanes[1..]
            .iter()
            .fold(lanes[0], |x, &lane| step(x, lane, r3r4));
        blocks = singles;
    }
    for block in blocks {
        x = step(x, load(block), r3r4);
    }

    let low32 = _mm_set_epi32(0, 0, 0, !0);
    // 128 → 64 bits: the low half carried over the high by R4 …
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(x, r3r4),
        _mm_srli_si128::<8>(x),
    );
    // … then 64 → 32 bits by R5.
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, R5)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett: T1 = (x mod x^32)·μ, T2 = (T1 mod x^32)·P′; reflected, the
    // remainder is the upper word of x ⊕ T2.
    let pmu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
}

/// FNV-1a, 64-bit: the workspace's one non-cryptographic content hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::{crc32, fnv1a64, folded, table};

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

    /// `len` seeded bytes (Knuth's 64-bit LCG, top byte): every byte value
    /// occurs.
    fn seeded(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// The kernel's state over `bytes`, or `None` after saying why it did
    /// not run: a host without the features must not pass silently.
    fn kernel(crc: u32, bytes: &[u8]) -> Option<u32> {
        let state = folded(crc, bytes);
        if state.is_none() {
            eprintln!("crc32 kernel did not run: this CPU lacks PCLMULQDQ or SSE4.1");
        }
        state
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
    /// buffer, through the table alone and through `crc32`: the 8-byte
    /// body, the tail loop, the kernel's blocks and unaligned starts.
    #[test]
    fn agrees_with_the_reference_at_every_length_and_offset() {
        let buf = seeded(1_108);
        for offset in 0..8 {
            for len in 0..=1_100 {
                let slice = &buf[offset..offset + len];
                let want = reference(slice);
                assert_eq!(
                    !table(u32::MAX, slice),
                    want,
                    "table: offset {offset}, len {len}"
                );
                assert_eq!(crc32(slice), want, "crc32: offset {offset}, len {len}");
            }
        }
    }

    /// Every length 16..=4,200 at every offset 0..16: one block, the
    /// single-block loop, the four-lane loop and its leftovers, each with
    /// every tail length. The table side advances one byte at a time, so
    /// the whole sweep is linear in the buffer for it.
    #[test]
    fn kernel_agrees_with_the_table_across_every_block_boundary() {
        let buf = seeded(4_216);
        for offset in 0..16 {
            let mut state = table(u32::MAX, &buf[offset..offset + 15]);
            for len in 16..=4_200 {
                state = table(state, &buf[offset + len - 1..offset + len]);
                let Some(folded) = kernel(u32::MAX, &buf[offset..offset + len]) else {
                    return;
                };
                assert_eq!(folded, state, "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn kernel_agrees_with_the_table_on_a_mebibyte() {
        let buf = seeded(1 << 20);
        if let Some(folded) = kernel(u32::MAX, &buf) {
            assert_eq!(folded, table(u32::MAX, &buf));
        }
    }

    /// Seeded (length, offset) pairs of 16 to 70,000 bytes, each from a
    /// seeded state rather than the init value.
    #[test]
    fn kernel_agrees_with_the_table_on_a_seeded_sweep() {
        let buf = seeded(70_016);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let len = 16 + (state % 69_985) as usize;
            let offset = (state >> 32) as usize % 16;
            let slice = &buf[offset..offset + len];
            let crc = (state >> 40) as u32;
            let Some(folded) = kernel(crc, slice) else {
                return;
            };
            assert_eq!(folded, table(crc, slice), "offset {offset}, len {len}");
        }
    }
}
