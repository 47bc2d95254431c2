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
    /// all. Uniforms are drawn in bulk batches (`RngCore::fill_u64s`)
    /// of the generator's plain `next_u64` stream; an odd final slot
    /// falls back to the single-draw path.
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
        const BATCH: usize = 128;
        let mut raw = [0u64; BATCH];
        let mut uniforms = [0.0f64; BATCH];
        let mut pos = BATCH;
        let mut chunks = out.chunks_exact_mut(2);
        for pair in &mut chunks {
            loop {
                if pos + 2 > BATCH {
                    rng.fill_u64s(&mut raw);
                    for (f, &r) in uniforms.iter_mut().zip(&raw) {
                        *f = rand::u64_to_unit_f64(r);
                    }
                    pos = 0;
                }
                let u = 2.0 * uniforms[pos] - 1.0;
                let v = 2.0 * uniforms[pos + 1] - 1.0;
                pos += 2;
                let s = u * u + v * v;
                if s < 1.0 && s != 0.0 {
                    let f = self.sigma_ghz * (-2.0 * s.ln() / s).sqrt();
                    pair[0].write(f * u);
                    pair[1].write(f * v);
                    break;
                }
            }
        }
        for slot in chunks.into_remainder() {
            slot.write(self.sample(rng));
        }
    }

    /// Fills `out` with `base + noise`, using the paired bulk sampler
    /// ([`Self::sample_into`]): one call fabricates a whole chip.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != base.len()`.
    pub fn perturb_into<R: Rng + ?Sized>(&self, rng: &mut R, base: &[f64], out: &mut [f64]) {
        assert_eq!(base.len(), out.len(), "buffer length mismatch");
        self.sample_into(rng, out);
        for (slot, &b) in out.iter_mut().zip(base) {
            *slot += b;
        }
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

    #[test]
    fn perturb_is_base_plus_sample_into() {
        let model = FabricationModel::default();
        let base: Vec<f64> = (0..7).map(|i| 5.0 + 0.01 * i as f64).collect();
        let mut noise = vec![0.0f64; 7];
        model.sample_into(&mut ChaCha8Rng::seed_from_u64(11), &mut noise);
        let mut out = vec![0.0f64; 7];
        model.perturb_into(&mut ChaCha8Rng::seed_from_u64(11), &base, &mut out);
        for i in 0..7 {
            assert_eq!(out[i], base[i] + noise[i], "slot {i}");
        }
    }
}
