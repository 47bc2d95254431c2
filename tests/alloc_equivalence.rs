//! The allocator contract: the seed-major batch kernel
//! (`FrequencyAllocator::allocate_batch`) — noise planes prepared once
//! per allocation step and shared read-only across the batch, decisions
//! fanned out per job or per row — produces **bit-identical**
//! `FrequencyPlan`s to fresh singleton allocations and to the retained
//! reference decision path, for every hardware family, sweep budget,
//! trial budget, scratch history, and `QPD_THREADS` value.

use proptest::prelude::*;

use std::sync::Arc;

use qpd::design::{AllocJob, LayoutJob, StagePlan};
use qpd::eval::runner::{run_benchmark, EvalSettings};
use qpd::prelude::*;
use qpd::yield_sim::{
    AllocScratch, CompiledRegions, FabricationModel, HardwareFamily, LocalYieldEvaluator,
};

/// Small mixed-topology pool: both IBM baselines, trimmed trial budget
/// so three-family sweeps stay fast.
fn arches() -> [Architecture; 2] {
    [
        qpd::topology::ibm::ibm_16q_2x8(BusMode::TwoQubitOnly),
        qpd::topology::ibm::ibm_20q_4x5(BusMode::TwoQubitOnly),
    ]
}

fn allocator(family: HardwareFamily, seed: u64) -> FrequencyAllocator {
    FrequencyAllocator::new()
        .with_hardware(family)
        .with_trials(250)
        .with_refinement_sweeps(2)
        .with_seed(seed)
}

/// Allocates `jobs` as one batch on `scratch`.
fn batch(
    jobs: &[(&FrequencyAllocator, &Architecture)],
    scratch: &mut AllocScratch,
) -> Vec<FrequencyPlan> {
    let jobs: Vec<AllocJob<'_>> =
        jobs.iter().map(|&(allocator, arch)| AllocJob { allocator, arch }).collect();
    FrequencyAllocator::allocate_batch(&jobs, scratch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The compiled + shared-scratch decision kernel counts exactly
    /// what the retained per-decision path
    /// ([`LocalYieldEvaluator::evaluate_candidates`], which compiles the
    /// regions on the fly with a fresh scratch) counts — per qubit, per
    /// candidate, for every hardware family, with one scratch carried
    /// across every decision.
    #[test]
    fn scratch_decision_kernel_matches_retained_path(seed in 0u64..1_000) {
        for family in HardwareFamily::ALL {
            let model = family.model();
            let evaluator = LocalYieldEvaluator::new(
                240,
                FabricationModel::new(model.effective_sigma_ghz(
                    FabricationModel::PAPER_SIGMA_GHZ,
                )),
                model.collision_params(),
                seed,
            );
            let candidates = [5.05, 5.12, 5.19, 5.26, 5.33];
            for arch in &arches() {
                let regions = CompiledRegions::new(arch);
                let mut scratch = AllocScratch::new();
                // A deterministic partial assignment: every third qubit
                // still undecided, the rest staggered over the band.
                let assigned: Vec<Option<f64>> = (0..arch.num_qubits())
                    .map(|q| (q % 3 != 0).then(|| 5.0 + 0.01 * ((q * 7) % 35) as f64))
                    .collect();
                for q in (0..arch.num_qubits()).filter(|q| q % 3 == 0) {
                    let retained =
                        evaluator.evaluate_candidates(arch, &assigned, q, &candidates);
                    let shared = evaluator.evaluate_candidates_compiled_with(
                        &regions, &assigned, q, &candidates, &mut scratch,
                    );
                    prop_assert_eq!(retained, shared,
                        "decision kernel divergence for {:?}, qubit {}", family, q);
                }
            }
        }
    }

    /// One seed-major batch over mixed hardware families, sweep budgets
    /// in {0, 1, 8}, two trial budgets (one odd, so some decisions fill
    /// directly instead of slicing a plane), two topologies, and
    /// duplicate entries equals per-job singleton `allocate` calls, at
    /// every worker count — shared planes and per-worker buffers never
    /// leak between jobs, and a job that reaches its fixed point (or
    /// its sweep budget) early leaves the others' steps unchanged.
    #[test]
    fn batch_equals_singletons_across_thread_counts(seed in 0u64..1_000) {
        let pool = arches();
        let mut configs: Vec<FrequencyAllocator> = Vec::new();
        for (i, family) in HardwareFamily::ALL.into_iter().enumerate() {
            for (j, sweeps) in [0usize, 1, 8].into_iter().enumerate() {
                let trials = if (i + j) % 2 == 0 { 160 } else { 75 };
                configs.push(
                    allocator(family, seed).with_trials(trials).with_refinement_sweeps(sweeps),
                );
            }
        }
        let mut jobs: Vec<(&FrequencyAllocator, &Architecture)> = configs
            .iter()
            .enumerate()
            .map(|(i, alloc)| (alloc, &pool[i % 2]))
            .collect();
        jobs.push(jobs[0]);
        jobs.push(jobs[4]);
        let singles: Vec<FrequencyPlan> =
            jobs.iter().map(|(alloc, arch)| alloc.allocate(arch)).collect();
        for threads in [1usize, 2, 8] {
            let batched = qpd::par::with_threads(threads, || {
                batch(&jobs, &mut AllocScratch::new())
            });
            prop_assert_eq!(&batched, &singles,
                "batch/singleton divergence at {} threads", threads);
        }
    }

    /// A scratch warmed by allocations for *other* topologies, trial
    /// budgets, and families is transparent: a batch of one on it
    /// reproduces a fresh `allocate` bit-for-bit.
    #[test]
    fn warmed_scratch_is_transparent(seed in 0u64..1_000) {
        let pool = arches();
        let mut scratch = AllocScratch::new();
        // Warm with a different family, budget, and topology mix.
        let warmer = allocator(HardwareFamily::TunableCoupler, seed ^ 0x5a5a)
            .with_trials(120);
        batch(&[(&warmer, &pool[1])], &mut scratch);
        for family in HardwareFamily::ALL {
            let alloc = allocator(family, seed);
            for arch in &pool {
                let reused = batch(&[(&alloc, arch)], &mut scratch);
                prop_assert_eq!(&reused[0], &alloc.allocate(arch),
                    "warmed scratch diverges for {:?}", family);
            }
        }
    }
}

/// A batch draws every (seed, qubit) noise plane exactly once: no
/// sample is drawn twice (the draw counter equals the retained plane
/// storage), duplicate jobs add no draws, and a repeat of the batch on
/// the same scratch draws nothing.
#[test]
fn batch_draws_each_plane_once() {
    let pool = arches();
    let alloc = allocator(HardwareFamily::FixedFrequencyTransmon, 9);
    let mut single = AllocScratch::new();
    batch(&[(&alloc, &pool[1])], &mut single);
    assert!(single.samples_drawn() > 0);
    assert_eq!(single.samples_drawn(), single.cached_samples() as u64);

    let mut scratch = AllocScratch::new();
    batch(&[(&alloc, &pool[1]), (&alloc, &pool[1]), (&alloc, &pool[1])], &mut scratch);
    assert_eq!(scratch.samples_drawn(), single.samples_drawn(), "duplicates drew again");

    // A second topology shares every plane of the first it can: the
    // 16-qubit chip's regions are no larger than the 20-qubit chip's
    // for most qubits, so the mixed batch draws far less than the two
    // singletons together, and still draws each sample once.
    let mut other = AllocScratch::new();
    batch(&[(&alloc, &pool[0])], &mut other);
    let mut mixed = AllocScratch::new();
    batch(&[(&alloc, &pool[0]), (&alloc, &pool[1])], &mut mixed);
    assert_eq!(mixed.samples_drawn(), mixed.cached_samples() as u64);
    assert!(mixed.samples_drawn() < other.samples_drawn() + single.samples_drawn());

    let before = mixed.samples_drawn();
    batch(&[(&alloc, &pool[0]), (&alloc, &pool[1])], &mut mixed);
    assert_eq!(mixed.samples_drawn(), before, "a warm repeat drew samples");
}

/// The stage-graph face of the batch path: `design_with_layout_batch`
/// over mixed frequency/hardware jobs equals per-job
/// `design_with_layout` calls on correspondingly configured flows, and
/// the shared noise-plane cache surviving `StagePlan::clear` never
/// changes a result.
#[test]
fn layout_batch_matches_singleton_flows_and_survives_clear() {
    let mut c = Circuit::new(6);
    c.cx(0, 1).cx(1, 2).cx(3, 4).cx(4, 5).cx(0, 3).cx(2, 5);
    let profile = CouplingProfile::of(&c);
    let base = DesignFlow::new().with_allocation_trials(150).with_allocation_seed(17);
    let (coords, squares) = {
        let arch = base.design(&profile).unwrap();
        (arch.coords().to_vec(), arch.four_qubit_buses().to_vec())
    };
    let jobs: Vec<LayoutJob<'_>> = HardwareFamily::ALL
        .iter()
        .map(|&hardware| LayoutJob {
            coords: &coords,
            squares: &squares,
            frequency: FrequencyStrategy::Optimized,
            hardware,
        })
        .collect();
    let singles: Vec<Architecture> = jobs
        .iter()
        .map(|j| {
            // A fresh plan per job: no cache or scratch sharing at all.
            let flow = DesignFlow::new()
                .with_allocation_trials(150)
                .with_allocation_seed(17)
                .with_plan(Arc::new(StagePlan::new()))
                .with_frequency_strategy(j.frequency)
                .with_hardware(j.hardware);
            flow.design_with_layout(&coords, &squares).unwrap()
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let batched =
            qpd::par::with_threads(threads, || base.design_with_layout_batch(&jobs).unwrap());
        assert_eq!(batched, singles, "layout batch diverges at {threads} threads");
        // Cold caches, warm planes — the bench_snapshot cold-eval
        // shape. The surviving planes must be invisible in results.
        base.plan().clear();
        let after_clear =
            qpd::par::with_threads(threads, || base.design_with_layout_batch(&jobs).unwrap());
        assert_eq!(after_clear, singles, "post-clear batch diverges at {threads} threads");
    }
}

/// The evaluation harness submits a program's eff-* assembles as one
/// batch and its yields as one `evaluate_batch`; the whole run is
/// identical at every worker count.
#[test]
fn run_circuit_is_thread_invariant() {
    let settings = EvalSettings::quick();
    let serial = qpd::par::with_threads(1, || run_benchmark("sym6_145", &settings).unwrap());
    assert!(serial.points.len() > 8);
    for threads in [2usize, 8] {
        let pooled =
            qpd::par::with_threads(threads, || run_benchmark("sym6_145", &settings).unwrap());
        assert_eq!(pooled, serial, "run_circuit diverges at {threads} threads");
    }
}
