//! Monte Carlo yield simulation (paper §4.3.1 and §5.1).
//!
//! # One kernel, any batch size
//!
//! [`YieldSimulator::evaluate_batch`] estimates a round's worth of
//! candidates in one pass; [`YieldSimulator::estimate`] and
//! [`YieldSimulator::estimate_with_frequencies`] are that same kernel
//! on a batch of one (the [`crate::batch`] module). The trial stream is
//! fully determined by the simulator `seed` and `trials` (fixed 16-chunk
//! decomposition with counter-derived per-chunk seeds), the *effective*
//! sigma (configured sigma mapped through the hardware family), and the
//! qubit count (the bulk-fill cadence draws `max(8192 / n, 1)` rows per
//! fill, making `n` part of the RNG consumption pattern). Collision
//! parameters, coupling structure, and designed frequencies affect only
//! the per-trial check, never the stream — so candidates differing in
//! those share one stream, exactly as if each had generated it
//! privately, and a batch slot equals its batch of one.
//!
//! [`YieldSimulator::condition_breakdown`] is the diagnostic path and
//! the kernel's independent scalar oracle: it draws the same chunk
//! streams, attributes every failed trial to its collision conditions,
//! and its clean count equals the estimate's successes exactly.

use std::error::Error;
use std::fmt;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qpd_topology::Architecture;

use crate::batch::{estimate_jobs, Job};
use crate::collision::{CollisionChecker, CollisionParams};
use crate::hardware::HardwareFamily;
use crate::model::FabricationModel;

/// Error from the yield simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum YieldError {
    /// The architecture has no attached frequency plan.
    MissingFrequencyPlan,
}

impl fmt::Display for YieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            YieldError::MissingFrequencyPlan => {
                write!(f, "architecture has no frequency plan; attach one before simulating yield")
            }
        }
    }
}

impl Error for YieldError {}

/// A yield estimate with its sampling uncertainty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YieldEstimate {
    successes: u64,
    trials: u64,
}

impl YieldEstimate {
    /// Builds an estimate from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials` or `trials == 0`.
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(trials > 0, "need at least one trial");
        assert!(successes <= trials, "successes cannot exceed trials");
        YieldEstimate { successes, trials }
    }

    /// Successful (collision-free) fabrications.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Total simulated fabrications.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The estimated yield rate in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        self.successes as f64 / self.trials as f64
    }

    /// Binomial standard error of the rate.
    pub fn std_err(&self) -> f64 {
        let p = self.rate();
        (p * (1.0 - p) / self.trials as f64).sqrt()
    }

    /// Wilson 95% confidence interval for the rate — better behaved than
    /// the normal approximation at the extreme yields this paper operates
    /// at (down to 1e-5).
    pub fn wilson_ci95(&self) -> (f64, f64) {
        let z = 1.959_963_984_540_054_f64;
        let n = self.trials as f64;
        let p = self.rate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }
}

impl fmt::Display for YieldEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4e} ({}/{})", self.rate(), self.successes, self.trials)
    }
}

/// Incremental FNV-1a 64-bit hasher over `u64` words — tiny, stable, and
/// dependency-free, which is all a content-addressed memo key needs.
/// Public so evaluation caches (the design-space explorer) derive their
/// own content keys with the same function [`YieldSimulator::content_key`]
/// uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// The FNV-1a 64-bit prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    /// `PRIME`⁸ (wrapping): one byte plus seven zero bytes.
    const PRIME_POW8: u64 = 0x1efa_c709_0aef_4a21;

    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word into the hash, byte by byte.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds one byte in as a whole word: bit-identical to
    /// `push(byte as u64)`, in one multiply instead of eight (the seven
    /// zero high bytes only multiply by the prime).
    pub fn push_byte(&mut self, byte: u8) {
        self.0 = (self.0 ^ byte as u64).wrapping_mul(Self::PRIME_POW8);
    }

    /// The final hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Formatting straight into the hash: every byte of the text goes
/// through [`Fnv64::push_byte`], so `write!(h, "{x:?}")` equals pushing
/// each byte of `format!("{x:?}")` as a word, without the `String`.
impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.push_byte(byte);
        }
        Ok(())
    }
}

/// Monte Carlo yield simulator.
///
/// Defaults follow the paper's evaluation setup (§5.1): 10,000 trials and
/// `sigma = 30 MHz`. Results are deterministic in the seed: trials are
/// split into fixed chunks, each with its own counter-derived RNG stream,
/// so estimates do not depend on thread count. The chunks execute on the
/// shared [`qpd_par`] worker pool — at most
/// `std::thread::available_parallelism()` workers (override with
/// `QPD_THREADS`, or [`qpd_par::with_threads`] in process), never one
/// thread per chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldSimulator {
    trials: u64,
    model: FabricationModel,
    params: CollisionParams,
    seed: u64,
    hardware: HardwareFamily,
}

impl Default for YieldSimulator {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of independent RNG streams; fixed so results are reproducible
/// regardless of how many threads execute them. Shared by the kernel
/// ([`crate::batch`]) and its oracle
/// ([`YieldSimulator::condition_breakdown`]), which must draw the same
/// per-chunk streams.
pub(crate) const CHUNKS: u64 = 16;

/// Noise samples drawn per bulk fill (~64 KiB of `f64`s): large enough
/// to amortize the sampler's batching, small enough that memory stays
/// flat no matter the trial count. Shared like [`CHUNKS`]: the fill
/// cadence is part of the RNG consumption pattern, so the kernel and its
/// oracle must cut trials into the same row batches.
pub(crate) const BULK_NOISE_SAMPLES: usize = 8_192;

/// The RNG-stream constant deriving per-chunk seeds from the simulator
/// seed (`seed ^ GOLDEN * (chunk + 1)`), shared like [`CHUNKS`].
pub(crate) const CHUNK_SEED_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Minimum summed trial count for the pooled chunk fan-out; a batch with
/// less trial work runs its chunks on the caller. Measured with
/// `with_threads(2)` on `ibm_16q_2x8`: one 16-job pool dispatch costs
/// ~2.7us and a trial costs >= 0.2us (sparse bus mode; dense is
/// ~0.4us), so ~1,350 trials are needed before the dispatch drops below
/// 1% of the serial work — below that the pool's best case cannot clear
/// its own overhead with any margin. Above it the pool pays off: on a
/// 2-core host the pooled 10k-trial `yield_sim` kernel runs 1.7-2x
/// faster than serial (BENCH_14 records 1.74x). The allocator's
/// decision kernel ([`crate::LocalYieldEvaluator::evaluate_prepared`])
/// fans its rows out from the same threshold.
pub(crate) const POOL_MIN_TRIALS: u64 = 1_350;

impl YieldSimulator {
    /// A simulator with the paper's defaults: 10,000 trials,
    /// `sigma = 30 MHz`, seed 0.
    pub fn new() -> Self {
        YieldSimulator {
            trials: 10_000,
            model: FabricationModel::default(),
            params: CollisionParams::default(),
            seed: 0,
            hardware: HardwareFamily::FixedFrequencyTransmon,
        }
    }

    /// Sets the trial count.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn with_trials(mut self, trials: u64) -> Self {
        assert!(trials > 0, "need at least one trial");
        self.trials = trials;
        self
    }

    /// Sets the fabrication precision `sigma` in GHz.
    pub fn with_sigma_ghz(mut self, sigma_ghz: f64) -> Self {
        self.model = FabricationModel::new(sigma_ghz);
        self
    }

    /// Sets the collision parameters.
    pub fn with_params(mut self, params: CollisionParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the hardware family: adopts its collision parameters and,
    /// at sampling time, its effective fabrication noise. The default
    /// family leaves both the behavior and [`Self::content_key`] exactly
    /// as they were before the hardware layer existed.
    pub fn with_hardware(mut self, hardware: HardwareFamily) -> Self {
        self.hardware = hardware;
        self.params = hardware.model().collision_params();
        self
    }

    /// The configured trial count.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The configured fabrication model.
    pub fn model(&self) -> &FabricationModel {
        &self.model
    }

    /// The configured hardware family.
    pub fn hardware(&self) -> HardwareFamily {
        self.hardware
    }

    /// The configured RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The collision parameters in effect (the hardware family's, once
    /// [`Self::with_hardware`] has run).
    pub fn params(&self) -> CollisionParams {
        self.params
    }

    /// The fabrication model actually sampled from: the configured sigma
    /// mapped through the hardware family's
    /// [`effective_sigma_ghz`](crate::hardware::HardwareModel::effective_sigma_ghz)
    /// (the identity for the default family).
    pub(crate) fn effective_model(&self) -> FabricationModel {
        FabricationModel::new(self.hardware.effective_sigma_ghz(self.model.sigma_ghz()))
    }

    /// Estimates the yield of an architecture using its attached frequency
    /// plan: [`Self::evaluate_batch`] on a batch of one.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::MissingFrequencyPlan`] if none is attached.
    pub fn estimate(&self, arch: &Architecture) -> Result<YieldEstimate, YieldError> {
        let plan = arch.frequencies().ok_or(YieldError::MissingFrequencyPlan)?;
        Ok(self.estimate_with_frequencies(arch, plan.as_slice()))
    }

    /// Content key for memoizing [`Self::estimate`]: an FNV-1a hash of
    /// everything the estimate depends on — the simulator's trials, seed,
    /// noise model, and collision parameters, plus the architecture's
    /// coupling structure and designed frequencies. Two calls with equal
    /// keys return identical estimates, so evaluation caches (the
    /// design-space explorer's memo table) can safely key on it.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::MissingFrequencyPlan`] if none is attached.
    pub fn content_key(&self, arch: &Architecture) -> Result<u64, YieldError> {
        let plan = arch.frequencies().ok_or(YieldError::MissingFrequencyPlan)?;
        let mut h = Fnv64::new();
        h.push(self.trials);
        h.push(self.seed);
        h.push(self.model.sigma_ghz().to_bits());
        for t in [
            self.params.anharmonicity_ghz,
            self.params.t_degenerate_ghz,
            self.params.t_half_ghz,
            self.params.t_full_ghz,
            self.params.t_two_photon_ghz,
        ] {
            h.push(t.to_bits());
        }
        h.push(arch.num_qubits() as u64);
        for &(a, b) in arch.coupling_edges() {
            h.push(((a as u64) << 32) | b as u64);
        }
        for &f in plan.as_slice() {
            h.push(f.to_bits());
        }
        // Appended last, and only for non-default families, so every key
        // minted before the hardware layer existed is reproduced exactly.
        self.hardware.push_key_tag(&mut h);
        Ok(h.finish())
    }

    /// Estimates yield for an explicit designed-frequency vector (GHz),
    /// as a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `designed.len() != arch.num_qubits()`.
    pub fn estimate_with_frequencies(
        &self,
        arch: &Architecture,
        designed: &[f64],
    ) -> YieldEstimate {
        let mut out = estimate_jobs(&[Job { simulator: self, arch, designed }]);
        out.pop().expect("one job in, one estimate out")
    }

    /// Attributes Monte Carlo failures to the seven collision conditions:
    /// `breakdown[c - 1]` counts trials in which condition `c` fired
    /// (a trial with several distinct conditions counts toward each).
    /// The final element of the returned pair is the number of
    /// collision-free trials.
    ///
    /// Draws exactly the trials [`Self::estimate`] checks — the same 16
    /// counter-seeded chunk streams at the same fill cadence — and tests
    /// each with [`CollisionChecker::collisions`], whose expressions are
    /// those of [`CollisionParams::pair_collides`] and
    /// [`CollisionParams::triple_collides`]. The clean count therefore
    /// equals `estimate(arch).successes()` exactly, which makes this
    /// serial scalar loop the independent oracle for the batch kernel.
    /// It collects events per trial, so prefer modest trial counts.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::MissingFrequencyPlan`] if none is attached.
    pub fn condition_breakdown(&self, arch: &Architecture) -> Result<([u64; 7], u64), YieldError> {
        let plan = arch.frequencies().ok_or(YieldError::MissingFrequencyPlan)?;
        let designed = plan.as_slice();
        let checker = CollisionChecker::with_params(arch, self.params);
        let model = self.effective_model();
        let mut breakdown = [0u64; 7];
        let mut clean = 0u64;
        let n = designed.len();
        if n == 0 {
            return Ok((breakdown, self.trials)); // no qubits, no collisions
        }
        let batch_rows = (BULK_NOISE_SAMPLES / n).max(1);
        let mut noise = vec![0.0f64; batch_rows * n];
        let mut post = vec![0.0f64; n];
        for chunk in 0..CHUNKS {
            let mut rng =
                ChaCha8Rng::seed_from_u64(self.seed ^ CHUNK_SEED_MUL.wrapping_mul(chunk + 1));
            let mut remaining = self.trials * (chunk + 1) / CHUNKS - self.trials * chunk / CHUNKS;
            while remaining > 0 {
                let rows = (batch_rows as u64).min(remaining) as usize;
                let buf = &mut noise[..rows * n];
                model.sample_into(&mut rng, buf);
                for row in buf.chunks_exact(n) {
                    for ((slot, &f), &e) in post.iter_mut().zip(designed).zip(row) {
                        *slot = f + e;
                    }
                    let mut seen = [false; 7];
                    for e in checker.collisions(&post) {
                        seen[(e.condition - 1) as usize] = true;
                    }
                    if !seen.contains(&true) {
                        clean += 1;
                    }
                    for (count, fired) in breakdown.iter_mut().zip(seen) {
                        *count += u64::from(fired);
                    }
                }
                remaining -= rows as u64;
            }
        }
        Ok((breakdown, clean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd_topology::{ibm, Architecture, BusMode, FrequencyPlan};

    #[test]
    fn push_byte_equals_pushing_the_byte_as_a_word() {
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            let mut state = Fnv64::new();
            state.push(seed);
            for byte in 0..=u8::MAX {
                let (mut fast, mut word) = (state, state);
                fast.push_byte(byte);
                word.push(byte as u64);
                assert_eq!(fast.finish(), word.finish(), "state {seed:#x}, byte {byte}");
            }
        }
        let mut text = Fnv64::new();
        fmt::Write::write_str(&mut text, "Rz(0.5)").unwrap();
        let mut words = Fnv64::new();
        for byte in "Rz(0.5)".bytes() {
            words.push(byte as u64);
        }
        assert_eq!(text.finish(), words.finish());
    }

    #[test]
    fn missing_plan_errors() {
        let mut b = Architecture::builder("bare");
        b.qubit(0, 0).qubit(0, 1);
        let arch = b.build().unwrap();
        assert_eq!(
            YieldSimulator::new().estimate(&arch).unwrap_err(),
            YieldError::MissingFrequencyPlan
        );
    }

    #[test]
    fn zero_noise_perfect_design_yields_one() {
        let mut b = Architecture::builder("pair");
        b.qubit(0, 0).qubit(0, 1);
        let arch =
            b.build().unwrap().with_frequencies(FrequencyPlan::new(vec![5.00, 5.10])).unwrap();
        let sim = YieldSimulator::new().with_trials(100).with_sigma_ghz(0.0);
        assert_eq!(sim.estimate(&arch).unwrap().rate(), 1.0);
    }

    #[test]
    fn zero_noise_colliding_design_yields_zero() {
        let mut b = Architecture::builder("pair");
        b.qubit(0, 0).qubit(0, 1);
        let arch =
            b.build().unwrap().with_frequencies(FrequencyPlan::new(vec![5.10, 5.10])).unwrap();
        let sim = YieldSimulator::new().with_trials(100).with_sigma_ghz(0.0);
        assert_eq!(sim.estimate(&arch).unwrap().rate(), 0.0);
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let sim = YieldSimulator::new().with_trials(4_000).with_seed(11);
        let a = sim.estimate(&arch).unwrap();
        assert_eq!(a, sim.estimate(&arch).unwrap());
        // Byte-equality across explicit pool widths, serial included.
        for threads in [1, 2, 8] {
            let pooled = qpd_par::with_threads(threads, || sim.estimate(&arch).unwrap());
            assert_eq!(a, pooled, "threads {threads}");
        }
    }

    #[test]
    fn more_connections_lower_yield() {
        // The paper's core trade-off: the 4-qubit-bus variant of the same
        // chip must yield strictly less under identical noise.
        let plain = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let dense = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        let sim = YieldSimulator::new().with_trials(6_000).with_seed(5);
        let y_plain = sim.estimate(&plain).unwrap().rate();
        let y_dense = sim.estimate(&dense).unwrap().rate();
        assert!(y_plain > y_dense, "expected denser chip to yield less: {y_plain} vs {y_dense}");
    }

    #[test]
    fn seed_changes_estimate_slightly() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let a = YieldSimulator::new().with_trials(2_000).with_seed(1).estimate(&arch).unwrap();
        let b = YieldSimulator::new().with_trials(2_000).with_seed(2).estimate(&arch).unwrap();
        // Same architecture: rates should be near each other but the raw
        // success counts should differ for different noise streams.
        assert_ne!(a.successes(), b.successes());
        assert!((a.rate() - b.rate()).abs() < 0.2);
    }

    #[test]
    fn estimate_statistics() {
        let e = YieldEstimate::new(50, 200);
        assert_eq!(e.rate(), 0.25);
        assert!(e.std_err() > 0.0);
        let (lo, hi) = e.wilson_ci95();
        assert!(lo < 0.25 && 0.25 < hi);
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn wilson_handles_zero_successes() {
        let e = YieldEstimate::new(0, 1000);
        let (lo, hi) = e.wilson_ci95();
        assert!(lo.abs() < 1e-12);
        assert!(hi > 0.0 && hi < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = YieldSimulator::new().with_trials(0);
    }

    #[test]
    fn content_key_distinguishes_what_matters() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let sim = YieldSimulator::new().with_trials(2_000).with_seed(3);
        let k = sim.content_key(&arch).unwrap();
        // Stable across calls.
        assert_eq!(k, sim.content_key(&arch).unwrap());
        // Sensitive to simulator settings...
        assert_ne!(k, sim.with_seed(4).content_key(&arch).unwrap());
        assert_ne!(k, sim.with_trials(2_001).content_key(&arch).unwrap());
        assert_ne!(k, sim.with_sigma_ghz(0.031).content_key(&arch).unwrap());
        // ...to the coupling structure...
        let dense = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        assert_ne!(k, sim.content_key(&dense).unwrap());
        // ...and to the designed frequencies.
        let plan = arch.frequencies().unwrap().clone();
        let mut shifted = plan.as_slice().to_vec();
        shifted[0] += 0.001;
        let moved = arch.clone().with_frequencies(FrequencyPlan::new(shifted)).unwrap();
        assert_ne!(k, sim.content_key(&moved).unwrap());
    }

    #[test]
    fn default_hardware_is_transparent() {
        // with_hardware(default) must be a no-op in both the estimate and
        // the content key, so pre-hardware-layer results are reproduced
        // bit for bit.
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let plain = YieldSimulator::new().with_trials(2_000).with_seed(9);
        let tagged = plain.with_hardware(HardwareFamily::FixedFrequencyTransmon);
        assert_eq!(plain.estimate(&arch).unwrap(), tagged.estimate(&arch).unwrap());
        assert_eq!(plain.content_key(&arch).unwrap(), tagged.content_key(&arch).unwrap());
    }

    #[test]
    fn hardware_families_key_and_estimate_apart() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let sim = YieldSimulator::new().with_trials(2_000).with_seed(9);
        let fixed = sim.content_key(&arch).unwrap();
        let tc = sim.with_hardware(HardwareFamily::TunableCoupler);
        let hh = sim.with_hardware(HardwareFamily::HeavyHex);
        assert_ne!(fixed, tc.content_key(&arch).unwrap());
        assert_ne!(fixed, hh.content_key(&arch).unwrap());
        assert_ne!(tc.content_key(&arch).unwrap(), hh.content_key(&arch).unwrap());
        // Tunable couplers relax the collision thresholds and halve the
        // effective noise, so the same chip yields at least as well.
        let y_fixed = sim.estimate(&arch).unwrap().successes();
        let y_tc = tc.estimate(&arch).unwrap().successes();
        assert!(y_tc >= y_fixed, "tunable-coupler yield regressed: {y_tc} < {y_fixed}");
    }

    #[test]
    fn hardware_estimates_stay_thread_invariant() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let sim = YieldSimulator::new()
            .with_trials(4_000)
            .with_seed(11)
            .with_hardware(HardwareFamily::TunableCoupler);
        let a = sim.estimate(&arch).unwrap();
        assert_eq!(a.successes(), sim.condition_breakdown(&arch).unwrap().1);
        for threads in [1, 2, 8] {
            let pooled = qpd_par::with_threads(threads, || sim.estimate(&arch).unwrap());
            assert_eq!(a, pooled, "threads {threads}");
        }
    }

    #[test]
    fn content_key_requires_a_plan() {
        let mut b = Architecture::builder("bare");
        b.qubit(0, 0).qubit(0, 1);
        let arch = b.build().unwrap();
        assert_eq!(
            YieldSimulator::new().content_key(&arch).unwrap_err(),
            YieldError::MissingFrequencyPlan
        );
    }

    #[test]
    fn condition_breakdown_attributes_failures() {
        // Two qubits designed 10 MHz apart: condition 1 dominates.
        let mut b = Architecture::builder("pair");
        b.qubit(0, 0).qubit(0, 1);
        let arch =
            b.build().unwrap().with_frequencies(FrequencyPlan::new(vec![5.16, 5.17])).unwrap();
        let sim = YieldSimulator::new().with_trials(2_000).with_seed(6);
        let (breakdown, clean) = sim.condition_breakdown(&arch).unwrap();
        assert!(breakdown[0] > 2_000 / 4, "condition 1 should dominate: {breakdown:?}");
        assert!(breakdown[0] > 10 * breakdown[2].max(1));
        // Conditions 5-7 need a common neighbor; impossible on a pair.
        assert_eq!(breakdown[4] + breakdown[5] + breakdown[6], 0);
        // Tallies are consistent: clean + (failed at least once) = trials.
        let failed_max = breakdown.iter().copied().max().unwrap();
        assert!(clean + failed_max <= 2_000);
        assert!(clean > 0);
    }

    #[test]
    fn condition_breakdown_consistent_with_estimate() {
        // The oracle draws the estimate's own chunk streams, so its
        // clean count is the estimate's success count exactly — for every
        // family, seed, and pool width, on both sides of the inline
        // threshold, and with empty chunks (7 trials < 16 chunks).
        let plain = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let dense = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        for family in HardwareFamily::ALL {
            for (arch, seed) in [(&plain, 1), (&dense, 2), (&plain, 77)] {
                for trials in [7, 300, 1_349, 1_351, 2_000] {
                    let sim = YieldSimulator::new()
                        .with_trials(trials)
                        .with_seed(seed)
                        .with_hardware(family);
                    let (_, clean) = sim.condition_breakdown(arch).unwrap();
                    for threads in [1, 2, 8] {
                        let estimate = qpd_par::with_threads(threads, || sim.estimate(arch));
                        assert_eq!(
                            estimate.unwrap().successes(),
                            clean,
                            "{family:?} seed {seed} trials {trials} threads {threads}"
                        );
                    }
                }
            }
        }
    }
}
