//! The batched-yield contract: one `YieldSimulator::evaluate_batch`
//! call over a round's worth of candidates is **bit-identical**, slot by
//! slot, to each request's batch of one (`estimate`) and to the
//! independent scalar oracle (`condition_breakdown`'s clean count) —
//! success counts, content keys, and (through the explorer) checkpoint
//! bytes — for every `QPD_THREADS` value, with mixed hardware families
//! in one batch, under permutation and duplication, and across a
//! kill/resume mid-round.

use proptest::prelude::*;

use qpd::design::{AssembleJob, StagePlan};
use qpd::explore::{
    CandidateSpec, Checkpoint, ExploreConfig, ExploreSpace, ExploreState, Explorer, HardwareSweep,
};
use qpd::prelude::*;
use qpd::yield_sim::{BatchRequest, HardwareFamily, YieldEstimate};

/// A mixed batch over both IBM baselines: every family, two seeds, two
/// trial budgets (one below the chunk count to exercise the empty-chunk
/// path), plus a duplicate request that must land in an existing group.
fn mixed_requests(arches: &[Architecture], seed: u64) -> Vec<(YieldSimulator, &Architecture)> {
    let mut requests = Vec::new();
    for (i, arch) in arches.iter().enumerate() {
        for (j, family) in HardwareFamily::ALL.iter().enumerate() {
            let sim = YieldSimulator::new()
                .with_trials(if j == 1 { 7 } else { 300 })
                .with_seed(seed ^ (i as u64))
                .with_hardware(*family);
            requests.push((sim, arch));
        }
    }
    // Duplicate of the first request: identical stream *and* lane group.
    let first = requests[0];
    requests.push(first);
    requests
}

/// The independent scalar oracle's estimate for one request.
fn oracle(sim: &YieldSimulator, arch: &Architecture) -> YieldEstimate {
    YieldEstimate::new(sim.condition_breakdown(arch).unwrap().1, sim.trials())
}

fn batch(requests: &[(YieldSimulator, &Architecture)]) -> Vec<YieldEstimate> {
    let requests: Vec<BatchRequest<'_>> =
        requests.iter().map(|(sim, arch)| BatchRequest { simulator: *sim, arch }).collect();
    YieldSimulator::evaluate_batch(&requests).into_iter().map(Result::unwrap).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `evaluate_batch` over a mixed-family, mixed-topology batch
    /// returns, slot by slot, the oracle's count and the request's own
    /// batch of one — at every worker count, and again after the batch
    /// is permuted and padded with more duplicates.
    #[test]
    fn batch_equals_singletons_across_thread_counts(seed in 0u64..1_000) {
        let arches = [
            qpd::topology::ibm::ibm_16q_2x8(BusMode::TwoQubitOnly),
            qpd::topology::ibm::ibm_20q_4x5(BusMode::TwoQubitOnly),
        ];
        let requests = mixed_requests(&arches, seed);
        let oracles: Vec<_> = requests.iter().map(|(sim, arch)| oracle(sim, arch)).collect();
        // A seed-dependent rotation of the reversed batch, with two more
        // duplicates at the far end.
        let rotate = seed as usize % requests.len();
        let mut order: Vec<usize> = (0..requests.len()).rev().collect();
        order.rotate_left(rotate);
        order.extend([order[0], requests.len() / 2]);
        let permuted: Vec<_> = order.iter().map(|&i| requests[i]).collect();
        for threads in [1usize, 2, 8] {
            let (batched, shuffled, singles) = qpd::par::with_threads(threads, || {
                let singles: Vec<_> =
                    requests.iter().map(|(sim, arch)| sim.estimate(arch).unwrap()).collect();
                (batch(&requests), batch(&permuted), singles)
            });
            prop_assert_eq!(batched.len(), oracles.len());
            for (i, ((b, s), o)) in batched.iter().zip(&singles).zip(&oracles).enumerate() {
                prop_assert_eq!(b, o, "request {} vs oracle at {} threads", i, threads);
                prop_assert_eq!(s, o, "batch of one {} vs oracle at {} threads", i, threads);
            }
            for (slot, &i) in order.iter().enumerate() {
                prop_assert_eq!(&shuffled[slot], &oracles[i],
                    "permuted slot {} (request {}) at {} threads", slot, i, threads);
            }
        }
    }
}

/// An adaptive (screened) mixed-family config: every step runs *two*
/// batches — the screening batch and the full-fidelity re-check batch —
/// with all three families in flight, the heaviest batched path.
fn batched_config(seed: u64) -> ExploreConfig {
    ExploreConfig {
        walks: 3,
        rounds: 2,
        steps_per_round: 2,
        seed,
        max_aux: 1,
        alloc_trials: 60,
        yield_trials: 400,
        hardware: HardwareSweep::All,
        ..ExploreConfig::adaptive_quick()
    }
}

fn batched_explorer(seed: u64) -> Explorer {
    let mut c = Circuit::new(6);
    c.cx(0, 1).cx(1, 2).cx(3, 4).cx(4, 5).cx(0, 3).cx(1, 4).cx(2, 5);
    c.cx(0, 4).cx(1, 3).cx(1, 5).cx(2, 4);
    let config = batched_config(seed);
    Explorer::new(ExploreSpace::new(c, config.max_aux), config).unwrap()
}

/// The chip `spec` designs under the explorer's allocation settings,
/// built through the public flow rather than the engine: a batch of one
/// on a fresh plan.
fn design_of(explorer: &Explorer, spec: &CandidateSpec) -> Architecture {
    let config = explorer.config();
    let (coords, squares) = explorer.space().resolve(spec);
    let flow = DesignFlow::new()
        .with_allocation_trials(config.alloc_trials)
        .with_allocation_seed(config.seed)
        .with_sigma_ghz(config.sigma_ghz)
        .with_frequency_strategy(spec.frequency)
        .with_hardware(spec.hardware);
    let job = AssembleJob { stage: flow.assemble_stage(), coords: &coords, squares: &squares };
    StagePlan::new().assemble_batch(&[job]).unwrap().remove(0)
}

fn batched_bytes(seed: u64, state: &ExploreState) -> String {
    Checkpoint {
        run: "batch".into(),
        config: batched_config(seed),
        state: state.clone(),
        stage_hit_rates: Vec::new(),
        shard: None,
    }
    .render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Batched rounds submit each step's mixed-family proposals as one
    /// batch; the resulting checkpoint bytes must be identical for
    /// `QPD_THREADS` ∈ {1, 2, 8}, and every archived point must be
    /// exactly what a fresh `evaluate` of its spec produces (same
    /// content key, same objectives), with the archived yield equal to
    /// the scalar oracle's clean count.
    #[test]
    fn batched_rounds_are_thread_invariant_and_singleton_exact(seed in 0u64..1_000) {
        let serial = qpd::par::with_threads(1, || batched_explorer(seed).run().unwrap());
        prop_assert!(!serial.front_indices().is_empty());
        let serial_bytes = batched_bytes(seed, &serial);
        for threads in [2usize, 8] {
            let pooled =
                qpd::par::with_threads(threads, || batched_explorer(seed).run().unwrap());
            prop_assert_eq!(&serial_bytes, &batched_bytes(seed, &pooled),
                "batched checkpoint bytes differ at {} threads", threads);
        }
        // Every archived point is bit-equal to a fresh batch-of-one
        // evaluation of its spec (the batch landed the same values under
        // the same content keys), and its yield is the oracle's count on
        // the chip that spec designs.
        let fresh = batched_explorer(seed);
        let config = batched_config(seed);
        for entry in &serial.archive {
            let single = fresh.evaluate(&entry.spec).unwrap();
            prop_assert_eq!(&single, entry,
                "batched archive entry diverges from a batch of one");
            let chip = design_of(&fresh, &entry.spec);
            let sim = YieldSimulator::new()
                .with_trials(config.yield_trials)
                .with_seed(config.seed)
                .with_sigma_ghz(config.sigma_ghz)
                .with_hardware(entry.spec.hardware);
            prop_assert_eq!(sim.content_key(&chip).unwrap(), entry.key);
            let clean = sim.condition_breakdown(&chip).unwrap().1;
            prop_assert_eq!(clean, entry.objectives.yield_successes,
                "archived yield diverges from the scalar oracle");
        }
    }

    /// A batched run killed after one round and resumed on a fresh
    /// engine (cold caches, as after a process kill) reproduces the
    /// uninterrupted run exactly, checkpoint bytes included.
    #[test]
    fn batched_kill_resume_mid_round_matches_uninterrupted(seed in 0u64..1_000) {
        let engine = batched_explorer(seed);
        let uninterrupted = engine.run().unwrap();
        let mut partial = engine.initial_state().unwrap();
        engine.advance_round(&mut partial).unwrap();
        let bytes = batched_bytes(seed, &partial);
        let restored = Checkpoint::parse(&bytes).unwrap();
        prop_assert_eq!(&restored.state, &partial);
        let resumed = batched_explorer(seed).resume(restored.state).unwrap();
        prop_assert_eq!(&resumed, &uninterrupted);
        prop_assert_eq!(
            batched_bytes(seed, &resumed),
            batched_bytes(seed, &uninterrupted)
        );
    }
}
