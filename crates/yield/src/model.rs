//! The fabrication noise model (paper §2.2, "Fabrication Variation").

use std::mem::MaybeUninit;

use rand::Rng;

/// Gaussian fabrication noise: a designed frequency `f` comes out of
/// fabrication as `f + n` with `n ~ N(0, sigma)`.
///
/// The paper's evaluation uses `sigma = 30 MHz`, IBM's projected
/// fabrication precision (§5.1); IBM's 2019 state of the art was
/// 130–150 MHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricationModel {
    sigma_ghz: f64,
}

impl FabricationModel {
    /// The paper's evaluation setting, `sigma = 30 MHz`.
    pub const PAPER_SIGMA_GHZ: f64 = 0.030;

    /// Creates a model with the given standard deviation in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_ghz` is negative or not finite.
    pub fn new(sigma_ghz: f64) -> Self {
        assert!(sigma_ghz.is_finite() && sigma_ghz >= 0.0, "sigma must be finite and >= 0");
        FabricationModel { sigma_ghz }
    }

    /// The standard deviation in GHz.
    pub fn sigma_ghz(&self) -> f64 {
        self.sigma_ghz
    }

    /// Draws one noise sample in GHz (Box–Muller transform, so only
    /// `rand`'s uniform source is needed).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box-Muller: u1 in (0, 1], u2 in [0, 1).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let mag = (-2.0 * u1.ln()).sqrt();
        self.sigma_ghz * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fills `out` with independent noise samples, two per Box–Muller
    /// transform in its polar (Marsaglia) form: a uniform point in the
    /// unit disc supplies both the cosine (`u/sqrt(s)`) and sine
    /// (`v/sqrt(s)`) variates of the implicit angle, so one `ln`/`sqrt`
    /// serves two samples — half the transform work of calling
    /// [`Self::sample`] per slot — and no trigonometry is evaluated at
    /// all.
    ///
    /// Uniforms are drawn in batches of 128 words (`RngCore::fill_u64s`
    /// over the generator's plain `next_u64` stream), 64 candidate
    /// points per batch. Each batch computes `(u, v, s)` for all 64
    /// points and compacts the accepted ones (`0 < s < 1`) in stream
    /// order: an AVX-512 compress where the CPU has AVX-512F and DQ,
    /// else a branch-free portable loop. Only the kept `s` values go
    /// through the scalar `f64::ln`; the division, `sqrt` and products
    /// are correctly rounded IEEE operations with no fused steps, so
    /// every tier writes the same bits. The unused rest of the last
    /// batch is discarded, and an odd final slot falls back to the
    /// single-draw path.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        self.sample_into_uninit(rng, as_uninit(out));
    }

    /// [`Self::sample_into`] onto uninitialized storage: every slot of
    /// `out` is written, so a buffer grown for the samples never needs
    /// zero-filling first.
    pub(crate) fn sample_into_uninit<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut [MaybeUninit<f64>],
    ) {
        self.sample_into_on(Polar::detect(), rng, out);
    }

    /// [`Self::sample_into_uninit`] on the given transform tier.
    fn sample_into_on<R: Rng + ?Sized>(
        &self,
        polar: Polar,
        rng: &mut R,
        out: &mut [MaybeUninit<f64>],
    ) {
        let mut raw = [0u64; BATCH];
        let mut kept = Kept { u: [0.0; PAIRS], v: [0.0; PAIRS], s: [0.0; PAIRS] };
        let mut ln = [0.0f64; PAIRS];
        let (pairs, tail) = out.split_at_mut(out.len() & !1);
        let mut done = 0;
        while done < pairs.len() {
            rng.fill_u64s(&mut raw);
            let accepted = polar.compact(&raw, &mut kept);
            let take = accepted.min((pairs.len() - done) / 2);
            for (l, &s) in ln[..take].iter_mut().zip(&kept.s) {
                *l = s.ln();
            }
            polar.scale(self.sigma_ghz, &kept, &ln[..take], &mut pairs[done..done + 2 * take]);
            done += 2 * take;
        }
        if let [slot] = tail {
            slot.write(self.sample(rng));
        }
    }
}

/// Uniform words per polar batch.
const BATCH: usize = 128;
/// Candidate `(u, v)` points per polar batch.
const PAIRS: usize = BATCH / 2;

/// One batch's accepted points, in stream order, in the first slots.
struct Kept {
    u: [f64; PAIRS],
    v: [f64; PAIRS],
    s: [f64; PAIRS],
}

/// The kernels behind the polar transform's vector steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Polar {
    /// The branch-free portable loops; the reference for every tier.
    Portable,
    /// AVX-512F compress and arithmetic, AVX-512DQ conversions.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Polar {
    /// The fastest tier this CPU runs (std caches the feature probe).
    fn detect() -> Polar {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            return Polar::Avx512;
        }
        Polar::Portable
    }

    /// Maps the batch's 64 word pairs to points `(u, v, s)` and moves
    /// the accepted ones (`0 < s < 1`) to the front of `kept`, in stream
    /// order. Returns how many were accepted.
    fn compact(self, raw: &[u64; BATCH], kept: &mut Kept) -> usize {
        match self {
            Polar::Portable => {
                let mut n = 0;
                for pair in raw.chunks_exact(2) {
                    let u = 2.0 * rand::u64_to_unit_f64(pair[0]) - 1.0;
                    let v = 2.0 * rand::u64_to_unit_f64(pair[1]) - 1.0;
                    let s = u * u + v * v;
                    // Written unconditionally: a rejected point is
                    // overwritten by the next one.
                    kept.u[n] = u;
                    kept.v[n] = v;
                    kept.s[n] = s;
                    n += usize::from(s < 1.0 && s != 0.0);
                }
                n
            }
            // SAFETY: this tier is only chosen when `detect` (or a test)
            // found AVX-512F and AVX-512DQ.
            #[cfg(target_arch = "x86_64")]
            Polar::Avx512 => unsafe { avx512::compact(raw, kept) },
        }
    }

    /// Writes `f * u, f * v` for the first `ln.len()` kept points into
    /// `out` (two slots each), with `f = sigma * sqrt(-2 ln(s) / s)` and
    /// `ln` holding `ln(s)` per point.
    fn scale(self, sigma: f64, kept: &Kept, ln: &[f64], out: &mut [MaybeUninit<f64>]) {
        assert!(ln.len() <= PAIRS && out.len() == 2 * ln.len(), "two samples per kept point");
        match self {
            Polar::Portable => scale_portable(sigma, kept, 0, ln, out),
            // SAFETY: as in `compact`.
            #[cfg(target_arch = "x86_64")]
            Polar::Avx512 => unsafe { avx512::scale(sigma, kept, ln, out) },
        }
    }
}

/// [`Polar::scale`] from kept point `from` on: `ln[i]` belongs to point
/// `from + i`.
fn scale_portable(sigma: f64, kept: &Kept, from: usize, ln: &[f64], out: &mut [MaybeUninit<f64>]) {
    let points = kept.u[from..].iter().zip(&kept.v[from..]).zip(&kept.s[from..]);
    for ((pair, &l), ((&u, &v), &s)) in out.chunks_exact_mut(2).zip(ln).zip(points) {
        let f = sigma * (-2.0 * l / s).sqrt();
        pair[0].write(f * u);
        pair[1].write(f * v);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{scale_portable, Kept, BATCH, PAIRS};
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// [`super::Polar::compact`] eight points per step: deinterleave the
    /// words, convert exactly as `rand::u64_to_unit_f64`, and
    /// compress-store the accepted lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn compact(raw: &[u64; BATCH], kept: &mut Kept) -> usize {
        let even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        let unit = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
        let two = _mm512_set1_pd(2.0);
        let one = _mm512_set1_pd(1.0);
        let zero = _mm512_setzero_pd();
        let to_signed = |words: __m512i| {
            let x = _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(words)), unit);
            _mm512_sub_pd(_mm512_mul_pd(two, x), one)
        };
        let mut n = 0;
        for group in 0..PAIRS / 8 {
            // SAFETY: words 16 * group .. 16 * group + 16 lie inside `raw`.
            let (lo, hi) = unsafe {
                let src = raw.as_ptr().add(16 * group);
                (_mm512_loadu_si512(src.cast()), _mm512_loadu_si512(src.add(8).cast()))
            };
            let u = to_signed(_mm512_permutex2var_epi64(lo, even, hi));
            let v = to_signed(_mm512_permutex2var_epi64(lo, odd, hi));
            let s = _mm512_add_pd(_mm512_mul_pd(u, u), _mm512_mul_pd(v, v));
            let keep = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(s, one)
                & _mm512_cmp_pd_mask::<_CMP_NEQ_OQ>(s, zero);
            // SAFETY: at most 8 * group points were kept before this
            // group, so the 8-lane stores end at or before slot
            // 8 * group + 8 <= PAIRS.
            unsafe {
                _mm512_storeu_pd(kept.u.as_mut_ptr().add(n), _mm512_maskz_compress_pd(keep, u));
                _mm512_storeu_pd(kept.v.as_mut_ptr().add(n), _mm512_maskz_compress_pd(keep, v));
                _mm512_storeu_pd(kept.s.as_mut_ptr().add(n), _mm512_maskz_compress_pd(keep, s));
            }
            n += keep.count_ones() as usize;
        }
        n
    }

    /// [`super::Polar::scale`] eight points per step, interleaving the
    /// `f * u` and `f * v` lanes into sample pairs; the last partial step
    /// runs the portable loop.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `out.len() == 2 * ln.len()` and
    /// `ln.len() <= PAIRS`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn scale(sigma: f64, kept: &Kept, ln: &[f64], out: &mut [MaybeUninit<f64>]) {
        let sigma_v = _mm512_set1_pd(sigma);
        let minus_two = _mm512_set1_pd(-2.0);
        let first = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
        let second = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
        let full = ln.len() / 8 * 8;
        for i in (0..full).step_by(8) {
            // SAFETY: points i .. i + 8 lie inside `ln` and the kept
            // arrays, and slots 2i .. 2i + 16 inside `out`.
            unsafe {
                let l = _mm512_loadu_pd(ln.as_ptr().add(i));
                let s = _mm512_loadu_pd(kept.s.as_ptr().add(i));
                let u = _mm512_loadu_pd(kept.u.as_ptr().add(i));
                let v = _mm512_loadu_pd(kept.v.as_ptr().add(i));
                let root = _mm512_sqrt_pd(_mm512_div_pd(_mm512_mul_pd(minus_two, l), s));
                let f = _mm512_mul_pd(sigma_v, root);
                let (fu, fv) = (_mm512_mul_pd(f, u), _mm512_mul_pd(f, v));
                let dst = out.as_mut_ptr().add(2 * i).cast::<f64>();
                _mm512_storeu_pd(dst, _mm512_permutex2var_pd(fu, first, fv));
                _mm512_storeu_pd(dst.add(8), _mm512_permutex2var_pd(fu, second, fv));
            }
        }
        scale_portable(sigma, kept, full, &ln[full..], &mut out[2 * full..]);
    }
}

/// `out` as storage the uninitialized-sample fills can write.
pub(crate) fn as_uninit(out: &mut [f64]) -> &mut [MaybeUninit<f64>] {
    // SAFETY: `MaybeUninit<f64>` has the layout of `f64`, and the fills
    // only ever write initialized values into it.
    unsafe { &mut *(out as *mut [f64] as *mut [MaybeUninit<f64>]) }
}

impl Default for FabricationModel {
    /// The paper's evaluation model (`sigma = 30 MHz`).
    fn default() -> Self {
        FabricationModel::new(Self::PAPER_SIGMA_GHZ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn moments_are_sane() {
        let model = FabricationModel::new(0.030);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| model.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 5e-4, "mean {mean}");
        assert!((var.sqrt() - 0.030).abs() < 5e-4, "std {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_is_noiseless() {
        let model = FabricationModel::new(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..10 {
            assert_eq!(model.sample(&mut rng), 0.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let model = FabricationModel::default();
        let a: Vec<f64> = (0..5).map(|_| model.sample(&mut ChaCha8Rng::seed_from_u64(3))).collect();
        let b: Vec<f64> = (0..5).map(|_| model.sample(&mut ChaCha8Rng::seed_from_u64(3))).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn negative_sigma_panics() {
        FabricationModel::new(-0.1);
    }

    #[test]
    fn sample_into_fills() {
        let model = FabricationModel::default();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut buf = [0.0; 8];
        model.sample_into(&mut rng, &mut buf);
        assert!(buf.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn paired_moments_are_sane() {
        // Both Box–Muller variates are consumed: the sine halves must be
        // as Gaussian as the cosine halves.
        let model = FabricationModel::new(0.030);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut samples = vec![0.0f64; 200_000];
        model.sample_into(&mut rng, &mut samples);
        for half in [0usize, 1] {
            let part: Vec<f64> = samples.iter().copied().skip(half).step_by(2).collect();
            let n = part.len() as f64;
            let mean = part.iter().sum::<f64>() / n;
            let var = part.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
            assert!(mean.abs() < 1e-3, "half {half} mean {mean}");
            assert!((var.sqrt() - 0.030).abs() < 1e-3, "half {half} std {}", var.sqrt());
        }
        // And the halves are uncorrelated (cos/sin of one uniform angle).
        let cov =
            samples.chunks_exact(2).map(|p| p[0] * p[1]).sum::<f64>() / (samples.len() / 2) as f64;
        assert!(cov.abs() < 1e-5, "cov {cov}");
    }

    /// FNV-1a over `fill`'s samples plus the generator's next word, for
    /// seeds 0..64 x lengths around the batch and chunk sizes x sigmas.
    fn sampler_fnv(fill: impl Fn(&FabricationModel, &mut ChaCha8Rng, &mut [f64])) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for seed in 0..64u64 {
            for len in [0usize, 1, 2, 3, 63, 64, 127, 128, 129, 4_095, 4_096, 4_097] {
                for sigma in [0.0, 0.015, 0.030, 0.1] {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let mut buf = vec![0.0f64; len];
                    fill(&FabricationModel::new(sigma), &mut rng, &mut buf);
                    buf.iter().for_each(|x| eat(x.to_bits()));
                    eat(rand::RngCore::next_u64(&mut rng));
                }
            }
        }
        hash
    }

    /// The per-pair branch loop's output, recorded before the compacting
    /// transform replaced it.
    const SAMPLER_PIN: u64 = 0x0a42_e07a_9991_2c96;

    #[test]
    fn sample_into_matches_the_pinned_stream() {
        assert_eq!(sampler_fnv(|m, rng, buf| m.sample_into(rng, buf)), SAMPLER_PIN);
    }

    #[test]
    fn every_host_transform_matches_the_pin() {
        let mut tiers = vec![Polar::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            tiers.push(Polar::Avx512);
        }
        for tier in tiers {
            let fnv = sampler_fnv(|m, rng, buf| m.sample_into_on(tier, rng, as_uninit(buf)));
            assert_eq!(fnv, SAMPLER_PIN, "{tier:?}");
        }
    }
}
