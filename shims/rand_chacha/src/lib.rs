//! Offline shim for the `rand_chacha` crate, implementing [`ChaCha8Rng`]
//! with a genuine ChaCha keystream (8 rounds, RFC 8439 quarter-round),
//! keyed from the 32-byte seed with block counter starting at zero.
//!
//! Only the surface this workspace uses is provided: construction via
//! `SeedableRng` (`from_seed` / `seed_from_u64`) and word extraction via
//! `RngCore` (including the bulk `fill_u64s` hook the noise samplers
//! batch through). The word stream matches the ChaCha8 keystream
//! definition (little-endian words of successive 64-byte blocks), which
//! differs from the real `rand_chacha` crate only in the `seed_from_u64`
//! expansion (ours is SplitMix64, from the `rand` shim).
//!
//! # Performance
//!
//! The generator is the innermost dependency of every Monte Carlo
//! kernel in the workspace, so every refill produces 16 blocks (256
//! words) on the fastest tier the CPU has, detected once at runtime:
//!
//! - AVX-512F: one 32-bit lane per block, native rotates, and an
//!   in-register 16×16 transpose back to block order;
//! - AVX2: the 8-lane kernel, run twice;
//! - scalar: 16 single blocks.
//!
//! Every tier produces the identical keystream (integer arithmetic is
//! exact everywhere), so results never depend on the host's SIMD
//! features.

use rand::{RngCore, SeedableRng};

/// The ChaCha constants "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Keystream blocks produced per refill; each block is 16 words.
const BLOCKS: usize = 16;
/// Words buffered per refill.
const BUF_WORDS: usize = 16 * BLOCKS;

macro_rules! quarter_round {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(16);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(12);
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(8);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(7);
    };
}

/// One scalar ChaCha8 block for counter `counter` into `out`.
fn block_scalar(key: &[u32; 8], counter: u64, out: &mut [u32; 16]) {
    let (mut x0, mut x1, mut x2, mut x3) = (SIGMA[0], SIGMA[1], SIGMA[2], SIGMA[3]);
    let (mut x4, mut x5, mut x6, mut x7) = (key[0], key[1], key[2], key[3]);
    let (mut x8, mut x9, mut x10, mut x11) = (key[4], key[5], key[6], key[7]);
    let (mut x12, mut x13, mut x14, mut x15) = (counter as u32, (counter >> 32) as u32, 0u32, 0u32);
    for _ in 0..4 {
        // A double round: 4 column rounds + 4 diagonal rounds.
        quarter_round!(x0, x4, x8, x12);
        quarter_round!(x1, x5, x9, x13);
        quarter_round!(x2, x6, x10, x14);
        quarter_round!(x3, x7, x11, x15);
        quarter_round!(x0, x5, x10, x15);
        quarter_round!(x1, x6, x11, x12);
        quarter_round!(x2, x7, x8, x13);
        quarter_round!(x3, x4, x9, x14);
    }
    out[0] = x0.wrapping_add(SIGMA[0]);
    out[1] = x1.wrapping_add(SIGMA[1]);
    out[2] = x2.wrapping_add(SIGMA[2]);
    out[3] = x3.wrapping_add(SIGMA[3]);
    out[4] = x4.wrapping_add(key[0]);
    out[5] = x5.wrapping_add(key[1]);
    out[6] = x6.wrapping_add(key[2]);
    out[7] = x7.wrapping_add(key[3]);
    out[8] = x8.wrapping_add(key[4]);
    out[9] = x9.wrapping_add(key[5]);
    out[10] = x10.wrapping_add(key[6]);
    out[11] = x11.wrapping_add(key[7]);
    out[12] = x12.wrapping_add(counter as u32);
    out[13] = x13.wrapping_add((counter >> 32) as u32);
    out[14] = x14;
    out[15] = x15;
}

/// Fills `out` with blocks `counter .. counter + BLOCKS` via the scalar
/// kernel.
fn blocks_scalar(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    for (lane, block) in out.chunks_exact_mut(16).enumerate() {
        let block: &mut [u32; 16] = block.try_into().expect("16-word block");
        block_scalar(key, counter.wrapping_add(lane as u64), block);
    }
}

/// The 64-bit counters of `N` consecutive blocks, split into the low
/// (state word 12) and high (state word 13) halves per lane.
#[cfg(target_arch = "x86_64")]
fn lane_counters<const N: usize>(counter: u64) -> ([i32; N], [i32; N]) {
    let mut lo = [0i32; N];
    let mut hi = [0i32; N];
    for lane in 0..N {
        let c = counter.wrapping_add(lane as u64);
        lo[lane] = c as i32;
        hi[lane] = (c >> 32) as i32;
    }
    (lo, hi)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{lane_counters, BUF_WORDS, SIGMA};
    use std::arch::x86_64::*;

    /// Blocks per AVX2 kernel call: one 32-bit lane each.
    const LANES: usize = 8;

    /// Sixteen ChaCha8 blocks as two runs of the 8-lane kernel.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (caller checks `is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        let (first, second) = out.split_at_mut(BUF_WORDS / 2);
        blocks8(key, counter, first.try_into().expect("half buffer"));
        blocks8(key, counter.wrapping_add(LANES as u64), second.try_into().expect("half buffer"));
    }

    /// Eight ChaCha8 blocks at once: one AVX2 lane per block, one vector
    /// per ChaCha state word.
    ///
    /// # Safety
    ///
    /// Requires AVX2, as [`blocks`].
    #[target_feature(enable = "avx2")]
    unsafe fn blocks8(key: &[u32; 8], counter: u64, out: &mut [u32; 16 * LANES]) {
        macro_rules! rotl {
            ($x:expr, $n:literal) => {
                _mm256_or_si256(_mm256_slli_epi32::<$n>($x), _mm256_srli_epi32::<{ 32 - $n }>($x))
            };
        }
        macro_rules! qr {
            ($a:expr, $b:expr, $c:expr, $d:expr) => {
                $a = _mm256_add_epi32($a, $b);
                $d = rotl!(_mm256_xor_si256($d, $a), 16);
                $c = _mm256_add_epi32($c, $d);
                $b = rotl!(_mm256_xor_si256($b, $c), 12);
                $a = _mm256_add_epi32($a, $b);
                $d = rotl!(_mm256_xor_si256($d, $a), 8);
                $c = _mm256_add_epi32($c, $d);
                $b = rotl!(_mm256_xor_si256($b, $c), 7);
            };
        }

        let mut init = [_mm256_setzero_si256(); 16];
        for (i, slot) in init.iter_mut().enumerate().take(4) {
            *slot = _mm256_set1_epi32(SIGMA[i] as i32);
        }
        for (i, slot) in init.iter_mut().enumerate().take(12).skip(4) {
            *slot = _mm256_set1_epi32(key[i - 4] as i32);
        }
        let (lo, hi) = lane_counters::<LANES>(counter);
        init[12] = _mm256_loadu_si256(lo.as_ptr().cast());
        init[13] = _mm256_loadu_si256(hi.as_ptr().cast());
        // Words 14-15 (nonce) stay zero.

        let mut x = init;
        for _ in 0..4 {
            qr!(x[0], x[4], x[8], x[12]);
            qr!(x[1], x[5], x[9], x[13]);
            qr!(x[2], x[6], x[10], x[14]);
            qr!(x[3], x[7], x[11], x[15]);
            qr!(x[0], x[5], x[10], x[15]);
            qr!(x[1], x[6], x[11], x[12]);
            qr!(x[2], x[7], x[8], x[13]);
            qr!(x[3], x[4], x[9], x[14]);
        }

        // Add-back, then scatter from word-major lanes to block-major
        // words.
        let mut stage = [0u32; 16 * LANES];
        for (i, &v) in x.iter().enumerate() {
            let sum = _mm256_add_epi32(v, init[i]);
            _mm256_storeu_si256(stage.as_mut_ptr().add(i * LANES).cast::<__m256i>(), sum);
        }
        for lane in 0..LANES {
            for word in 0..16 {
                out[lane * 16 + word] = stage[word * LANES + lane];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{lane_counters, BLOCKS, BUF_WORDS, SIGMA};
    use std::arch::x86_64::*;

    /// Sixteen ChaCha8 blocks at once: one AVX-512 lane per block, one
    /// vector per ChaCha state word, then a 16×16 transpose in registers
    /// so each vector holds one whole block.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F (caller checks
    /// `is_x86_feature_detected!("avx512f")`).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        macro_rules! qr {
            ($a:expr, $b:expr, $c:expr, $d:expr) => {
                $a = _mm512_add_epi32($a, $b);
                $d = _mm512_rol_epi32::<16>(_mm512_xor_si512($d, $a));
                $c = _mm512_add_epi32($c, $d);
                $b = _mm512_rol_epi32::<12>(_mm512_xor_si512($b, $c));
                $a = _mm512_add_epi32($a, $b);
                $d = _mm512_rol_epi32::<8>(_mm512_xor_si512($d, $a));
                $c = _mm512_add_epi32($c, $d);
                $b = _mm512_rol_epi32::<7>(_mm512_xor_si512($b, $c));
            };
        }

        let mut init = [_mm512_setzero_si512(); 16];
        for (i, slot) in init.iter_mut().enumerate().take(4) {
            *slot = _mm512_set1_epi32(SIGMA[i] as i32);
        }
        for (i, slot) in init.iter_mut().enumerate().take(12).skip(4) {
            *slot = _mm512_set1_epi32(key[i - 4] as i32);
        }
        let (lo, hi) = lane_counters::<BLOCKS>(counter);
        init[12] = _mm512_loadu_si512(lo.as_ptr().cast());
        init[13] = _mm512_loadu_si512(hi.as_ptr().cast());
        // Words 14-15 (nonce) stay zero.

        let mut x = init;
        for _ in 0..4 {
            qr!(x[0], x[4], x[8], x[12]);
            qr!(x[1], x[5], x[9], x[13]);
            qr!(x[2], x[6], x[10], x[14]);
            qr!(x[3], x[7], x[11], x[15]);
            qr!(x[0], x[5], x[10], x[15]);
            qr!(x[1], x[6], x[11], x[12]);
            qr!(x[2], x[7], x[8], x[13]);
            qr!(x[3], x[4], x[9], x[14]);
        }
        for (v, &i) in x.iter_mut().zip(&init) {
            *v = _mm512_add_epi32(*v, i);
        }

        // Transpose: `x[w]` holds word `w` of every block; block `b` is
        // column `b`. Interleave 32-bit then 64-bit pairs, so `b[4g + m]`
        // holds words 4g..4g+4 of block 4k + m in its 128-bit lane k.
        let mut a = [_mm512_setzero_si512(); 16];
        for p in 0..8 {
            a[2 * p] = _mm512_unpacklo_epi32(x[2 * p], x[2 * p + 1]);
            a[2 * p + 1] = _mm512_unpackhi_epi32(x[2 * p], x[2 * p + 1]);
        }
        let mut b = [_mm512_setzero_si512(); 16];
        for g in 0..4 {
            b[4 * g] = _mm512_unpacklo_epi64(a[4 * g], a[4 * g + 2]);
            b[4 * g + 1] = _mm512_unpackhi_epi64(a[4 * g], a[4 * g + 2]);
            b[4 * g + 2] = _mm512_unpacklo_epi64(a[4 * g + 1], a[4 * g + 3]);
            b[4 * g + 3] = _mm512_unpackhi_epi64(a[4 * g + 1], a[4 * g + 3]);
        }
        // Then a 4×4 transpose of 128-bit lanes per `m`: block 4k + m is
        // lane k of b[m], b[4 + m], b[8 + m], b[12 + m].
        // `out` is 256 words: sixteen 512-bit stores, one per block.
        let dst = out.as_mut_ptr().cast::<__m512i>();
        for m in 0..4 {
            let c0 = _mm512_shuffle_i32x4::<0x44>(b[m], b[4 + m]);
            let c1 = _mm512_shuffle_i32x4::<0xee>(b[m], b[4 + m]);
            let c2 = _mm512_shuffle_i32x4::<0x44>(b[8 + m], b[12 + m]);
            let c3 = _mm512_shuffle_i32x4::<0xee>(b[8 + m], b[12 + m]);
            _mm512_storeu_si512(dst.add(m), _mm512_shuffle_i32x4::<0x88>(c0, c2));
            _mm512_storeu_si512(dst.add(4 + m), _mm512_shuffle_i32x4::<0xdd>(c0, c2));
            _mm512_storeu_si512(dst.add(8 + m), _mm512_shuffle_i32x4::<0x88>(c1, c3));
            _mm512_storeu_si512(dst.add(12 + m), _mm512_shuffle_i32x4::<0xdd>(c1, c3));
        }
    }
}

/// The keystream kernel a host runs, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Scalar,
}

/// The fastest keystream tier this CPU supports (std caches the
/// feature probe).
fn tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Tier::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
    }
    Tier::Scalar
}

/// Fills `out` with blocks `counter ..` on `tier`'s kernel.
fn blocks_on(tier: Tier, key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    match tier {
        // SAFETY: `tier` only names a SIMD kernel the CPU has (see
        // `tier()`; the tests pass host-checked tiers).
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { avx512::blocks(key, counter, out) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { avx2::blocks(key, counter, out) },
        Tier::Scalar => blocks_scalar(key, counter, out),
    }
}

/// A deterministic ChaCha generator with 8 rounds.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key words (seed), fixed for the generator's lifetime.
    key: [u32; 8],
    /// 64-bit block counter (words 12–13 of the ChaCha state) of the
    /// *next* refill.
    counter: u64,
    /// Buffered keystream words ([`BLOCKS`] consecutive blocks).
    buf: [u32; BUF_WORDS],
    /// Next unread word in `buf`; `BUF_WORDS` means "refill".
    index: usize,
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        blocks_on(tier(), &self.key, self.counter, &mut self.buf);
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
        self.index = 0;
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let word = self.buf[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        if self.index + 2 <= BUF_WORDS {
            let lo = self.buf[self.index] as u64;
            let hi = self.buf[self.index + 1] as u64;
            self.index += 2;
            lo | (hi << 32)
        } else {
            let lo = self.next_u32() as u64;
            let hi = self.next_u32() as u64;
            lo | (hi << 32)
        }
    }

    fn fill_u64s(&mut self, out: &mut [u64]) {
        let mut filled = 0;
        while filled < out.len() {
            if self.index >= BUF_WORDS {
                self.refill();
            }
            let available = (BUF_WORDS - self.index) / 2;
            if available == 0 {
                // One straddling word left in the buffer.
                out[filled] = self.next_u64();
                filled += 1;
                continue;
            }
            let take = available.min(out.len() - filled);
            for (slot, pair) in
                out[filled..filled + take].iter_mut().zip(self.buf[self.index..].chunks_exact(2))
            {
                *slot = pair[0] as u64 | ((pair[1] as u64) << 32);
            }
            self.index += 2 * take;
            filled += take;
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (slot, chunk) in key.iter_mut().zip(seed.chunks(4)) {
            *slot = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng { key, counter: 0, buf: [0; BUF_WORDS], index: BUF_WORDS }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_in_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn uniformity_is_plausible() {
        // Mean of 100k unit floats within 1% of 0.5 — a smoke test that
        // the keystream wiring (counter increments, word order) is sane.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn blocks_differ() {
        // 16 words per block: crossing the boundary must not repeat.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let first: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first, second);
    }

    /// RFC 8439's test vector structure only covers ChaCha20; pin the
    /// 8-round keystream against an independent single-block scalar
    /// evaluation instead, across three refills.
    #[test]
    fn stream_matches_single_block_reference() {
        let seed = [7u8; 32];
        let mut rng = ChaCha8Rng::from_seed(seed);
        let mut key = [0u32; 8];
        for (slot, chunk) in key.iter_mut().zip(seed.chunks(4)) {
            *slot = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        let mut expected = Vec::new();
        let mut block = [0u32; 16];
        for counter in 0..3 * BLOCKS as u64 + 1 {
            block_scalar(&key, counter, &mut block);
            expected.extend_from_slice(&block);
        }
        let got: Vec<u32> = (0..expected.len()).map(|_| rng.next_u32()).collect();
        assert_eq!(got, expected);
    }

    /// Every tier this host can run.
    fn host_tiers() -> Vec<Tier> {
        #[allow(unused_mut)]
        let mut tiers = vec![Tier::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(Tier::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                tiers.push(Tier::Avx512);
            }
        }
        tiers
    }

    #[test]
    fn scalar_and_simd_kernels_agree() {
        let key = [0x0123_4567u32, 0x89ab_cdef, 1, 2, 3, 4, 5, 6];
        // The low counter word wraps inside one refill at 2^32 - 5; at
        // 2^32 - 16 the refill ends exactly on the wrap; the whole
        // 64-bit counter wraps from u64::MAX - 7.
        for counter in [0u64, 1, 1 << 31, (1 << 32) - 5, (1 << 32) - 16, u64::MAX - 7] {
            let mut expected = [0u32; BUF_WORDS];
            for (lane, block) in expected.chunks_exact_mut(16).enumerate() {
                block_scalar(&key, counter.wrapping_add(lane as u64), block.try_into().unwrap());
            }
            for tier in host_tiers() {
                let mut got = [0u32; BUF_WORDS];
                blocks_on(tier, &key, counter, &mut got);
                assert_eq!(got.to_vec(), expected.to_vec(), "{tier:?} at counter {counter}");
            }
        }
    }

    #[test]
    fn detected_tier_is_a_host_tier() {
        assert!(host_tiers().contains(&tier()));
    }

    #[test]
    fn fill_u64s_matches_sequential_draws() {
        for (start, len) in [(0usize, 500usize), (1, 300), (255, 64), (127, 64), (3, 1)] {
            let mut a = ChaCha8Rng::seed_from_u64(21);
            let mut b = ChaCha8Rng::seed_from_u64(21);
            for _ in 0..start {
                let (x, y) = (a.next_u32(), b.next_u32());
                assert_eq!(x, y);
            }
            let mut bulk = vec![0u64; len];
            a.fill_u64s(&mut bulk);
            let sequential: Vec<u64> = (0..len).map(|_| b.next_u64()).collect();
            assert_eq!(bulk, sequential, "start {start} len {len}");
        }
    }
}
