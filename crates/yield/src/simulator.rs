//! Monte Carlo yield simulation (paper §4.3.1 and §5.1).
//!
//! # Singleton and batch paths
//!
//! [`YieldSimulator::estimate`] evaluates one candidate; a round's worth
//! of candidates should go through [`YieldSimulator::evaluate_batch`]
//! (the [`crate::batch`] module), which returns bit-identical estimates
//! while generating each fabrication-noise trial stream once per group
//! of candidates that share it. The stream is fully determined by the
//! simulator `seed` and `trials` (fixed 16-chunk decomposition with
//! counter-derived per-chunk seeds), the *effective* sigma (configured
//! sigma mapped through the hardware family), and the qubit count (the
//! bulk-fill cadence draws `max(8192 / n, 1)` rows per fill, making `n`
//! part of the RNG consumption pattern). Collision parameters, coupling
//! structure, and designed frequencies affect only the per-trial check,
//! never the stream — so candidates differing in those may share one
//! stream, exactly as if each had generated it privately. See the batch
//! module docs for why determinism holds lane by lane.

use std::error::Error;
use std::fmt;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qpd_topology::Architecture;

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
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word into the hash, byte by byte.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The final hash value.
    pub fn finish(self) -> u64 {
        self.0
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
/// `QPD_THREADS`), never one thread per chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldSimulator {
    trials: u64,
    model: FabricationModel,
    params: CollisionParams,
    seed: u64,
    parallel: bool,
    hardware: HardwareFamily,
}

impl Default for YieldSimulator {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of independent RNG streams; fixed so results are reproducible
/// regardless of how many threads execute them. Shared with the batch
/// evaluator ([`crate::batch`]), whose per-chunk streams must be the
/// same ones for batch results to stay bit-identical to singleton runs.
pub(crate) const CHUNKS: u64 = 16;

/// Noise samples drawn per bulk fill (~64 KiB of `f64`s): large enough
/// to amortize the sampler's batching, small enough that memory stays
/// flat no matter the trial count. Also shared with [`crate::batch`]:
/// the fill cadence is part of the RNG consumption pattern, so both
/// paths must cut trials into the same row batches.
pub(crate) const BULK_NOISE_SAMPLES: usize = 8_192;

/// The RNG-stream constant deriving per-chunk seeds from the simulator
/// seed (`seed ^ GOLDEN * (chunk + 1)`), shared with [`crate::batch`].
pub(crate) const CHUNK_SEED_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Minimum trial count for the pooled chunk fan-out; below it a singleton
/// estimate runs serially. Measured on the dev host (`with_threads(2)`,
/// `ibm_16q_2x8`): one 16-job pool dispatch costs ~2.7us and a trial
/// costs >= 0.2us (sparse bus mode; dense is ~0.4us), so ~1,350 trials
/// are needed before the dispatch drops below 1% of the serial work —
/// below that the pool's best case cannot clear its own overhead with
/// any margin (BENCH_6's `yield_sim/pooled` 1.003x was exactly this
/// overhead-plus-noise regime). The dev host has a single worker, so
/// multi-core wins are projected from the dispatch/trial-cost ratio, not
/// observed end to end. The allocator's decision kernel
/// ([`crate::LocalYieldEvaluator::evaluate_prepared`]) fans its rows out
/// from the same threshold.
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
            parallel: true,
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

    /// Disables multithreading (results are identical either way).
    pub fn single_threaded(mut self) -> Self {
        self.parallel = false;
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
    /// plan.
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

    /// Estimates yield for an explicit designed-frequency vector (GHz).
    ///
    /// # Panics
    ///
    /// Panics if `designed.len() != arch.num_qubits()`.
    pub fn estimate_with_frequencies(
        &self,
        arch: &Architecture,
        designed: &[f64],
    ) -> YieldEstimate {
        assert_eq!(designed.len(), arch.num_qubits(), "frequency vector length mismatch");
        let checker = CollisionChecker::with_params(arch, self.params);
        let successes = self.run_chunks(&checker, designed);
        YieldEstimate::new(successes, self.trials)
    }

    /// Attributes Monte Carlo failures to the seven collision conditions:
    /// `breakdown[c - 1]` counts trials in which condition `c` fired
    /// (a trial with several distinct conditions counts toward each).
    /// The final element of the returned pair is the number of
    /// collision-free trials.
    ///
    /// Runs single-threaded on the diagnostic (event-collecting) path, so
    /// prefer modest trial counts.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::MissingFrequencyPlan`] if none is attached.
    pub fn condition_breakdown(&self, arch: &Architecture) -> Result<([u64; 7], u64), YieldError> {
        let plan = arch.frequencies().ok_or(YieldError::MissingFrequencyPlan)?;
        let designed = plan.as_slice();
        let checker = CollisionChecker::with_params(arch, self.params);
        let model = self.effective_model();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut breakdown = [0u64; 7];
        let mut clean = 0u64;
        let n = designed.len();
        if n == 0 {
            return Ok((breakdown, self.trials)); // no qubits, no collisions
        }
        // Same bounded batching as the estimate path: the sampler's bulk
        // fast path without per-trial overdraw.
        let batch_rows = (BULK_NOISE_SAMPLES / n).max(1);
        let mut noise = vec![0.0f64; batch_rows * n];
        let mut post = vec![0.0f64; n];
        let mut remaining = self.trials;
        while remaining > 0 {
            let rows = (batch_rows as u64).min(remaining) as usize;
            let buf = &mut noise[..rows * n];
            model.sample_into(&mut rng, buf);
            for row in buf.chunks_exact(n) {
                for ((slot, &f), &e) in post.iter_mut().zip(designed).zip(row) {
                    *slot = f + e;
                }
                let events = checker.collisions(&post);
                if events.is_empty() {
                    clean += 1;
                } else {
                    let mut seen = [false; 7];
                    for e in &events {
                        seen[(e.condition - 1) as usize] = true;
                    }
                    for (c, &fired) in seen.iter().enumerate() {
                        if fired {
                            breakdown[c] += 1;
                        }
                    }
                }
            }
            remaining -= rows as u64;
        }
        Ok((breakdown, clean))
    }

    fn run_chunks(&self, checker: &CollisionChecker, designed: &[f64]) -> u64 {
        let chunk_bounds: Vec<(u64, u64, u64)> = (0..CHUNKS)
            .map(|c| (c, self.trials * c / CHUNKS, self.trials * (c + 1) / CHUNKS))
            .collect();
        let model = self.effective_model();
        let run_chunk = |chunk_idx: u64, lo: u64, hi: u64| -> u64 {
            let mut rng =
                ChaCha8Rng::seed_from_u64(self.seed ^ (CHUNK_SEED_MUL.wrapping_mul(chunk_idx + 1)));
            let n = designed.len();
            if n == 0 {
                return hi - lo; // no qubits, no collisions
            }
            // Bounded multi-trial noise batches keep the sampler in its
            // bulk fast path at O(1) memory in the trial count.
            let batch_rows = (BULK_NOISE_SAMPLES / n).max(1);
            let mut noise = vec![0.0f64; batch_rows * n];
            let mut post = vec![0.0f64; n];
            let mut ok = 0u64;
            let mut remaining = hi - lo;
            while remaining > 0 {
                let rows = (batch_rows as u64).min(remaining) as usize;
                let buf = &mut noise[..rows * n];
                model.sample_into(&mut rng, buf);
                for row in buf.chunks_exact(n) {
                    for ((slot, &f), &e) in post.iter_mut().zip(designed).zip(row) {
                        *slot = f + e;
                    }
                    if !checker.has_collision(&post) {
                        ok += 1;
                    }
                }
                remaining -= rows as u64;
            }
            ok
        };
        // The 16 counter-seeded RNG streams are fixed for reproducibility;
        // the pool executes them on however many workers exist (at most
        // `available_parallelism`, or `QPD_THREADS`), the caller included.
        // Integer sums over the fixed chunk decomposition are exact, so
        // the estimate is byte-identical to the serial path.
        if self.parallel && self.trials >= POOL_MIN_TRIALS && qpd_par::threads() > 1 {
            qpd_par::par_map(&chunk_bounds, |&(i, lo, hi)| run_chunk(i, lo, hi)).into_iter().sum()
        } else {
            chunk_bounds.iter().map(|&(i, lo, hi)| run_chunk(i, lo, hi)).sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd_topology::{ibm, Architecture, BusMode, FrequencyPlan};

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
        let par = YieldSimulator::new().with_trials(4_000).with_seed(11);
        let seq = par.single_threaded();
        let a = par.estimate(&arch).unwrap();
        let b = seq.estimate(&arch).unwrap();
        let c = par.estimate(&arch).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        // Byte-equality across explicit pool widths, serial included.
        for threads in [1, 2, 8] {
            let pooled = qpd_par::with_threads(threads, || par.estimate(&arch).unwrap());
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
        assert_eq!(a, sim.single_threaded().estimate(&arch).unwrap());
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
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let sim = YieldSimulator::new().with_trials(2_000).with_seed(1).single_threaded();
        let (_, clean) = sim.condition_breakdown(&arch).unwrap();
        let estimate = sim.estimate(&arch).unwrap();
        // Same seed and single-threaded estimate still differ in RNG
        // stream structure (chunked), so allow statistical slack only.
        let rate = clean as f64 / 2_000.0;
        assert!(
            (rate - estimate.rate()).abs() < 0.05,
            "breakdown clean-rate {rate} vs estimate {}",
            estimate.rate()
        );
    }
}
