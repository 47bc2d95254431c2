//! Frequency allocation (paper Algorithm 3).

use std::collections::VecDeque;
use std::sync::Mutex;

use qpd_topology::{Architecture, FrequencyPlan, ALLOWED_BAND_GHZ};
use qpd_yield::{
    AllocScratch, CollisionParams, CompiledRegions, DecisionBuffers, FabricationModel,
    HardwareFamily, LocalYieldEvaluator,
};

/// Center-out breadth-first frequency allocator.
///
/// Starting from the qubit nearest the layout's geometric center (which
/// tends to have the most connections and hence the most collision
/// exposure), assign the band midpoint; then walk the coupling graph in
/// BFS order, and for each newly reached qubit evaluate every candidate
/// frequency by Monte Carlo yield *within the qubit's local region*
/// (distance <= 2, already-assigned qubits only), assigning the argmax.
///
/// Candidates default to the paper's grid: 5.00, 5.01, ..., 5.34 GHz
/// (10 MHz accuracy). Ties prefer the candidate nearest the band
/// midpoint, then the lower frequency, making allocation deterministic.
#[derive(Debug, Clone)]
pub struct FrequencyAllocator {
    candidates: Vec<f64>,
    band: (f64, f64),
    trials: usize,
    model: FabricationModel,
    params: CollisionParams,
    seed: u64,
    refinement_sweeps: usize,
    reference_path: bool,
    hardware: HardwareFamily,
}

impl Default for FrequencyAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl FrequencyAllocator {
    /// An allocator with 35 candidates at 10 MHz steps and local
    /// simulations at `sigma = 30 MHz` (the paper's grid), plus up to
    /// eight refinement sweeps (they stop early at a fixed point).
    pub fn new() -> Self {
        FrequencyAllocator {
            candidates: Self::grid(ALLOWED_BAND_GHZ),
            band: ALLOWED_BAND_GHZ,
            trials: 4_000,
            model: FabricationModel::default(),
            params: CollisionParams::default(),
            seed: 0,
            refinement_sweeps: 8,
            reference_path: false,
            hardware: HardwareFamily::FixedFrequencyTransmon,
        }
    }

    /// The 10 MHz candidate grid spanning `band`, endpoints included.
    fn grid(band: (f64, f64)) -> Vec<f64> {
        let (lo, hi) = band;
        let steps = ((hi - lo) / 0.01).round() as usize;
        (0..=steps).map(|i| lo + 0.01 * i as f64).collect()
    }

    /// Retargets the allocator at a hardware family: adopts its allowed
    /// band (and rebuilds the 10 MHz candidate grid over it), its
    /// collision parameters, and — at evaluation time — its effective
    /// fabrication noise. Call this *before* fine-grained overrides like
    /// [`Self::with_candidates`] or [`Self::with_params`]; the default
    /// family leaves the allocator exactly as [`Self::new`] built it.
    pub fn with_hardware(mut self, hardware: HardwareFamily) -> Self {
        let model = hardware.model();
        self.hardware = hardware;
        self.band = model.allowed_band_ghz();
        self.candidates = Self::grid(self.band);
        self.params = model.collision_params();
        self
    }

    /// Switches candidate evaluation to the retained pre-overhaul
    /// reference path: the naive serial evaluator
    /// ([`LocalYieldEvaluator::evaluate_candidates_reference`]) fed by
    /// the historical single-draw noise stream. `bench_snapshot` uses
    /// this to anchor the performance baseline; the emitted plan is *not*
    /// bit-comparable to the default path because the noise stream
    /// differs.
    pub fn with_reference_path(mut self) -> Self {
        self.reference_path = true;
        self
    }

    /// Sets the number of refinement sweeps after the center-out pass.
    ///
    /// Each sweep revisits every qubit (in the original BFS order) and
    /// re-runs the candidate search with *all* other qubits assigned —
    /// the same local-yield primitive as Algorithm 3, iterated to
    /// relieve the greedy pass's myopia. The paper's §6 ("Optimizing
    /// Frequency Allocation") points exactly at this direction; zero
    /// sweeps reproduce the paper's single-pass algorithm.
    pub fn with_refinement_sweeps(mut self, sweeps: usize) -> Self {
        self.refinement_sweeps = sweeps;
        self
    }

    /// Overrides the candidate frequency list (GHz).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn with_candidates(mut self, candidates: Vec<f64>) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate frequency");
        self.candidates = candidates;
        self
    }

    /// Sets the local-simulation trial count (trade accuracy for speed).
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn with_trials(mut self, trials: usize) -> Self {
        assert!(trials > 0, "need at least one trial");
        self.trials = trials;
        self
    }

    /// Sets the assumed fabrication precision in GHz.
    pub fn with_sigma_ghz(mut self, sigma_ghz: f64) -> Self {
        self.model = FabricationModel::new(sigma_ghz);
        self
    }

    /// Sets the collision parameters.
    pub fn with_params(mut self, params: CollisionParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the RNG seed for the local Monte Carlo evaluations.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The candidate frequencies in GHz.
    pub fn candidates(&self) -> &[f64] {
        &self.candidates
    }

    /// Allocates a frequency for every qubit of `arch`: a batch of one
    /// through [`Self::allocate_batch`]. The result is deterministic in
    /// the seed and independent of the thread count.
    pub fn allocate(&self, arch: &Architecture) -> FrequencyPlan {
        let job = AllocJob { allocator: self, arch };
        let mut plans = Self::allocate_batch(&[job], &mut AllocScratch::new());
        plans.pop().expect("one job in, one plan out")
    }

    /// The allocation kernel: allocates every job of a batch
    /// **seed-major**, returning plans in job order.
    ///
    /// Each allocation is a sequence of *steps* — the center-out BFS
    /// pass (step 0), then refinement sweep `k` (step `k`) while the
    /// plan still changes — and every step evaluates its decisions
    /// under one evaluator seed. The kernel runs step 0 for every job,
    /// then sweep 1 for every job still changing, and so on. Before each
    /// step it prepares that step's noise planes in `scratch` once, one
    /// per (seed, qubit, effective sigma) at the longest prefix any job
    /// of the step reads, all drawn at once; the step's decisions then
    /// read them shared and read-only. Jobs may differ in
    /// any knob — hardware family, trials, seed, sweep budget,
    /// candidates — and jobs that agree on a seed and sigma share its
    /// planes.
    ///
    /// A step with at least as many live jobs as pool threads fans the
    /// jobs out over the pool, each running its decisions inline with
    /// per-worker decision buffers; a smaller step runs its jobs one
    /// after another with each decision's rows fanned out instead (the
    /// singleton shape of serve and explore requests).
    ///
    /// Every plan is bit-identical to allocating its job alone, for any
    /// batch composition, scratch history, and thread count: noise
    /// values depend only on (stream seed, sigma), and each job's
    /// decisions run in its own order.
    pub fn allocate_batch(jobs: &[AllocJob<'_>], scratch: &mut AllocScratch) -> Vec<FrequencyPlan> {
        let mut states: Vec<JobState<'_>> = jobs.iter().map(JobState::new).collect();
        let steps = jobs.iter().map(|j| j.allocator.refinement_sweeps).max().unwrap_or(0);
        let pool: Mutex<Vec<DecisionBuffers>> = Mutex::new(Vec::new());
        for step in 0..=steps {
            let live = states.iter().filter(|s| s.runs(step)).count();
            if live == 0 {
                break;
            }
            let evaluators: Vec<LocalYieldEvaluator> =
                states.iter().map(|s| s.job.allocator.evaluator(step)).collect();
            scratch.prepare(
                states
                    .iter()
                    .zip(&evaluators)
                    .filter(|(s, _)| s.runs(step))
                    .flat_map(|(s, e)| s.demands(step).map(move |(q, m)| (e, q, m))),
            );
            let planes: &AllocScratch = scratch;
            if live > 1 && live >= qpd_par::threads() {
                qpd_par::par_chunks_mut(&mut states, 1, |i, state| {
                    let state = &mut state[0];
                    if !state.runs(step) {
                        return;
                    }
                    let mut buffers =
                        pool.lock().expect("buffer pool poisoned").pop().unwrap_or_default();
                    qpd_par::with_threads(1, || {
                        state.run_step(step, &evaluators[i], planes, &mut buffers)
                    });
                    pool.lock().expect("buffer pool poisoned").push(buffers);
                });
            } else {
                let mut buffers = DecisionBuffers::default();
                for (state, evaluator) in states.iter_mut().zip(&evaluators) {
                    if state.runs(step) {
                        state.run_step(step, evaluator, planes, &mut buffers);
                    }
                }
            }
        }
        states.into_iter().map(JobState::finish).collect()
    }

    /// The local-yield evaluator of `step`: seeded with the allocator
    /// seed for the BFS pass, with a per-sweep derivation of it for
    /// refinement sweep `step`.
    fn evaluator(&self, step: usize) -> LocalYieldEvaluator {
        let seed = match step {
            0 => self.seed,
            _ => self.seed ^ 0xa076_1d64_78bd_642fu64.wrapping_mul(step as u64),
        };
        let model = FabricationModel::new(
            self.hardware.model().effective_sigma_ghz(self.model.sigma_ghz()),
        );
        let evaluator = LocalYieldEvaluator::new(self.trials, model, self.params, seed);
        if self.reference_path {
            evaluator.with_legacy_noise()
        } else {
            evaluator
        }
    }

    fn argmax(&self, counts: &[u64]) -> usize {
        let mut best = 0usize;
        for i in 1..self.candidates.len() {
            if self.candidate_beats(counts, i, best) {
                best = i;
            }
        }
        best
    }

    /// Whether candidate `i` beats candidate `best` under the
    /// deterministic tie-break (higher count, then nearer the band
    /// midpoint, then lower frequency).
    fn candidate_beats(&self, counts: &[u64], i: usize, best: usize) -> bool {
        let (lo, hi) = self.band;
        let mid = (lo + hi) / 2.0;
        if counts[i] != counts[best] {
            return counts[i] > counts[best];
        }
        let di = (self.candidates[i] - mid).abs();
        let db = (self.candidates[best] - mid).abs();
        if (di - db).abs() > 1e-12 {
            return di < db;
        }
        self.candidates[i] < self.candidates[best]
    }

    /// The candidate closest to `target` (the seed must also come from
    /// the candidate grid so hardware only needs the advertised
    /// accuracy).
    fn snap_to_candidate(&self, target: f64) -> f64 {
        *self
            .candidates
            .iter()
            .min_by(|a, b| (*a - target).abs().total_cmp(&(*b - target).abs()))
            .expect("candidates non-empty")
    }
}

/// One allocation of a batch ([`FrequencyAllocator::allocate_batch`]):
/// an allocator configuration and the architecture it allocates.
#[derive(Debug, Clone, Copy)]
pub struct AllocJob<'a> {
    /// Allocator configuration for this job.
    pub allocator: &'a FrequencyAllocator,
    /// Architecture to allocate.
    pub arch: &'a Architecture,
}

/// One allocation in progress inside [`FrequencyAllocator::allocate_batch`].
struct JobState<'a> {
    job: AllocJob<'a>,
    regions: CompiledRegions,
    /// BFS visit order from the center qubit; stragglers of a
    /// disconnected architecture are appended in index order.
    order: Vec<usize>,
    /// Position of every qubit in `order`.
    rank: Vec<usize>,
    assigned: Vec<Option<f64>>,
    /// Whether the last step changed the plan: refinement stops at a
    /// fixed point.
    changing: bool,
}

impl<'a> JobState<'a> {
    fn new(job: &AllocJob<'a>) -> Self {
        let (arch, allocator) = (job.arch, job.allocator);
        let n = arch.num_qubits();
        let (lo, hi) = allocator.band;
        // Seed the BFS at the central qubit with the band midpoint, per
        // Algorithm 3 line 1.
        let center = arch.center_qubit();
        let mut assigned: Vec<Option<f64>> = vec![None; n];
        assigned[center] = Some(allocator.snap_to_candidate((lo + hi) / 2.0));

        let mut queue = VecDeque::from([center]);
        let mut enqueued = vec![false; n];
        enqueued[center] = true;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        while let Some(q) = queue.pop_front() {
            order.push(q);
            for &nb in arch.neighbors(q) {
                if !enqueued[nb] {
                    enqueued[nb] = true;
                    queue.push_back(nb);
                }
            }
        }
        order.extend((0..n).filter(|&q| !enqueued[q]));
        let mut rank = vec![0; n];
        for (pos, &q) in order.iter().enumerate() {
            rank[q] = pos;
        }
        JobState {
            job: *job,
            regions: CompiledRegions::new(arch),
            order,
            rank,
            assigned,
            changing: true,
        }
    }

    /// Whether this job takes part in `step`.
    fn runs(&self, step: usize) -> bool {
        step == 0 || (step <= self.job.allocator.refinement_sweeps && self.changing)
    }

    /// The BFS pass decides every qubit after the center; a sweep
    /// re-decides every qubit.
    fn first_decision(step: usize) -> usize {
        usize::from(step == 0)
    }

    /// `(q, m)` for every decision of `step`: the qubit and its active
    /// region columns. In the BFS pass exactly the qubits earlier in
    /// the order are assigned; in a sweep every other qubit is.
    fn demands(&self, step: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.order.iter().enumerate().skip(Self::first_decision(step)).map(move |(pos, &q)| {
            let m = if step == 0 {
                1 + self.regions.region(q).filter(|&r| self.rank[r] < pos).count()
            } else {
                self.regions.region_size(q)
            };
            (q, m)
        })
    }

    /// Runs every decision of `step` in order against prepared planes.
    fn run_step(
        &mut self,
        step: usize,
        evaluator: &LocalYieldEvaluator,
        planes: &AllocScratch,
        buffers: &mut DecisionBuffers,
    ) {
        let allocator = self.job.allocator;
        let mut changed = false;
        for pos in Self::first_decision(step)..self.order.len() {
            let q = self.order[pos];
            let current = self.assigned[q].take();
            let counts = if allocator.reference_path {
                evaluator.evaluate_candidates_reference(
                    self.job.arch,
                    &self.assigned,
                    q,
                    &allocator.candidates,
                )
            } else {
                evaluator.evaluate_prepared(
                    &self.regions,
                    &self.assigned,
                    q,
                    &allocator.candidates,
                    planes,
                    buffers,
                )
            };
            let best = allocator.candidates[allocator.argmax(&counts)];
            changed |= current.is_some_and(|c| (best - c).abs() > 1e-12);
            self.assigned[q] = Some(best);
        }
        self.changing = step == 0 || changed;
    }

    fn finish(self) -> FrequencyPlan {
        FrequencyPlan::new(self.assigned.into_iter().map(|f| f.expect("all assigned")).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd_topology::Architecture;
    use qpd_yield::YieldSimulator;

    fn line(n: i32) -> Architecture {
        let mut b = Architecture::builder(format!("line{n}"));
        for c in 0..n {
            b.qubit(0, c);
        }
        b.build().unwrap()
    }

    fn fast_allocator() -> FrequencyAllocator {
        FrequencyAllocator::new().with_trials(300)
    }

    #[test]
    fn all_qubits_assigned_in_band() {
        let arch = line(6);
        let plan = fast_allocator().allocate(&arch);
        assert_eq!(plan.len(), 6);
        assert!(plan.check_band().is_ok());
    }

    #[test]
    fn center_gets_band_midpoint() {
        // Algorithm 3 line 1 seeds the central qubit with the band
        // midpoint. Refinement sweeps are free to move it afterwards if
        // local yield improves, so assert on the single-pass algorithm.
        let arch = line(5);
        let plan = fast_allocator().with_refinement_sweeps(0).allocate(&arch);
        let center = arch.center_qubit();
        assert!((plan.ghz(center) - 5.17).abs() < 1e-9);
    }

    #[test]
    fn neighbors_are_not_degenerate() {
        // The allocator must avoid condition-1 collisions between
        // neighbors at design time.
        let arch = line(8);
        let plan = fast_allocator().allocate(&arch);
        for &(a, b) in arch.coupling_edges() {
            let d = (plan.ghz(a) - plan.ghz(b)).abs();
            assert!(d > 0.017, "neighbors {a},{b} nearly degenerate: {d}");
        }
    }

    #[test]
    fn allocation_is_deterministic() {
        let arch = line(6);
        let a = fast_allocator().allocate(&arch);
        let b = fast_allocator().allocate(&arch);
        assert_eq!(a, b);
    }

    #[test]
    fn allocation_is_thread_count_invariant() {
        let arch = line(6);
        let allocator = fast_allocator();
        let serial = qpd_par::with_threads(1, || allocator.allocate(&arch));
        for threads in [2, 8] {
            let pooled = qpd_par::with_threads(threads, || allocator.allocate(&arch));
            assert_eq!(serial, pooled, "threads {threads}");
        }
    }

    #[test]
    fn reference_path_allocates_a_valid_plan() {
        // The retained pre-overhaul path still produces in-band,
        // non-degenerate plans (it is the bench_snapshot baseline).
        let arch = line(5);
        let plan = fast_allocator().with_reference_path().allocate(&arch);
        assert_eq!(plan.len(), 5);
        assert!(plan.check_band().is_ok());
        for &(a, b) in arch.coupling_edges() {
            assert!((plan.ghz(a) - plan.ghz(b)).abs() > 0.017);
        }
    }

    #[test]
    fn beats_degenerate_plan_on_yield() {
        let arch = line(5);
        let optimized = fast_allocator().allocate(&arch);
        let sim = YieldSimulator::new().with_trials(3_000).with_seed(3);
        let y_opt = sim.estimate_with_frequencies(&arch, optimized.as_slice()).rate();
        let y_flat = sim.estimate_with_frequencies(&arch, &[5.17; 5]).rate();
        assert!(y_opt > y_flat, "optimized {y_opt} should beat flat {y_flat}");
    }

    #[test]
    fn custom_candidates_are_respected() {
        let arch = line(3);
        let allocator = fast_allocator().with_candidates(vec![5.05, 5.15, 5.25]).with_trials(200);
        let plan = allocator.allocate(&arch);
        for q in 0..3 {
            let f = plan.ghz(q);
            assert!(
                [5.05, 5.15, 5.25].iter().any(|&c| (c - f).abs() < 1e-12),
                "frequency {f} not from the candidate grid"
            );
        }
    }

    #[test]
    fn default_hardware_is_transparent() {
        // with_hardware(default) must reproduce the plain allocator's
        // plan bit for bit — the refactor contract.
        let arch = line(6);
        let plain = fast_allocator().allocate(&arch);
        let tagged =
            fast_allocator().with_hardware(HardwareFamily::FixedFrequencyTransmon).allocate(&arch);
        assert_eq!(plain, tagged);
    }

    #[test]
    fn hardware_band_drives_grid_and_plan() {
        use qpd_topology::{HEAVY_HEX_BAND_GHZ, TUNABLE_COUPLER_BAND_GHZ};
        let arch = line(5);
        for (family, band) in [
            (HardwareFamily::TunableCoupler, TUNABLE_COUPLER_BAND_GHZ),
            (HardwareFamily::HeavyHex, HEAVY_HEX_BAND_GHZ),
        ] {
            let allocator = FrequencyAllocator::new().with_hardware(family).with_trials(300);
            let (lo, hi) = band;
            let grid = allocator.candidates();
            assert!((grid[0] - lo).abs() < 1e-9, "{family:?} grid start");
            assert!((grid[grid.len() - 1] - hi).abs() < 1e-9, "{family:?} grid end");
            let plan = allocator.allocate(&arch);
            assert!(plan.check_band_within(band).is_ok(), "{family:?} plan in band");
            // The center seed is the family band's midpoint, not the
            // fixed-frequency one.
            let mid = (lo + hi) / 2.0;
            let single = allocator.with_refinement_sweeps(0).allocate(&line(1));
            assert!((single.ghz(0) - mid).abs() < 0.011, "{family:?} center seed");
        }
    }

    fn batch(allocator: &FrequencyAllocator, archs: &[Architecture]) -> Vec<FrequencyPlan> {
        let jobs: Vec<AllocJob<'_>> =
            archs.iter().map(|arch| AllocJob { allocator, arch }).collect();
        FrequencyAllocator::allocate_batch(&jobs, &mut AllocScratch::new())
    }

    #[test]
    fn batch_matches_singleton_allocations() {
        // The load-bearing batching contract: sharing noise planes
        // across proposals never changes a plan.
        let archs = [line(4), line(6), line(4), line(9)];
        let allocator = fast_allocator();
        let batched = batch(&allocator, &archs);
        for (arch, plan) in archs.iter().zip(&batched) {
            assert_eq!(*plan, allocator.allocate(arch), "arch {}", arch.name());
        }
    }

    #[test]
    fn scratch_reuse_across_calls_is_transparent() {
        let arch = line(7);
        let allocator = fast_allocator();
        let fresh = allocator.allocate(&arch);
        let mut scratch = AllocScratch::new();
        // Warm the scratch on a different topology and config first.
        let other = line(5);
        let warmer = allocator.clone().with_trials(200);
        FrequencyAllocator::allocate_batch(
            &[AllocJob { allocator: &warmer, arch: &other }],
            &mut scratch,
        );
        for _ in 0..2 {
            let job = AllocJob { allocator: &allocator, arch: &arch };
            assert_eq!(FrequencyAllocator::allocate_batch(&[job], &mut scratch)[0], fresh);
        }
    }

    #[test]
    fn batch_reference_path_matches_too() {
        // The retained pre-overhaul path ignores the scratch but must
        // flow through the batched entry points unchanged.
        let archs = [line(3), line(4)];
        let allocator = fast_allocator().with_reference_path();
        let batched = batch(&allocator, &archs);
        for (arch, plan) in archs.iter().zip(&batched) {
            assert_eq!(*plan, allocator.allocate(arch));
        }
    }

    #[test]
    fn single_qubit_architecture() {
        let arch = line(1);
        let plan = fast_allocator().allocate(&arch);
        assert_eq!(plan.len(), 1);
        assert!((plan.ghz(0) - 5.17).abs() < 1e-9);
    }

    #[test]
    fn disconnected_architecture_still_fully_assigned() {
        let mut b = Architecture::builder("disc");
        b.qubit(0, 0).qubit(0, 1).qubit(5, 5);
        let arch = b.build().unwrap();
        let plan = fast_allocator().allocate(&arch);
        assert_eq!(plan.len(), 3);
        assert!(plan.check_band().is_ok());
    }
}
