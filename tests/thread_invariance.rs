//! Determinism under the `qpd-par` worker pool: the pooled kernels must
//! emit bit-identical results for every thread count. `with_threads` is
//! the in-process equivalent of setting `QPD_THREADS`, so these
//! properties cover `QPD_THREADS` ∈ {1, 2, 8}.

use proptest::prelude::*;

use qpd::design::FrequencyAllocator;
use qpd::prelude::*;
use qpd::yield_sim::YieldSimulator;

/// Strategy: a small random connected lattice layout (a ragged strip of
/// rows, always lattice-connected by construction).
fn arb_architecture() -> impl Strategy<Value = Architecture> {
    proptest::collection::vec(1usize..4, 1..4).prop_map(|row_lens| {
        let mut b = Architecture::builder("strip");
        for (r, &len) in row_lens.iter().enumerate() {
            for c in 0..len.max(1) as i32 {
                b.qubit(r as i32, c);
            }
        }
        b.build().expect("valid strip layout")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `FrequencyAllocator::allocate` is invariant under the worker
    /// count (satellite requirement: `QPD_THREADS` ∈ {1, 2, 8}).
    #[test]
    fn allocation_invariant_under_thread_count(
        arch in arb_architecture(),
        seed in 0u64..1_000,
    ) {
        let allocator = FrequencyAllocator::new()
            .with_trials(120)
            .with_seed(seed)
            .with_refinement_sweeps(1);
        let serial = qpd::par::with_threads(1, || allocator.allocate(&arch));
        for threads in [2usize, 8] {
            let pooled = qpd::par::with_threads(threads, || allocator.allocate(&arch));
            prop_assert_eq!(&serial, &pooled, "threads {}", threads);
        }
    }

    /// The Monte Carlo yield estimate is byte-identical across worker
    /// counts, serial included, and equals the independent scalar
    /// oracle's clean count at each.
    #[test]
    fn yield_estimate_invariant_under_thread_count(seed in 0u64..1_000) {
        let arch = qpd::topology::ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let sim = YieldSimulator::new().with_trials(2_500).with_seed(seed);
        let clean = sim.condition_breakdown(&arch).unwrap().1;
        for threads in [1usize, 2, 8] {
            let pooled = qpd::par::with_threads(threads, || sim.estimate(&arch).unwrap());
            prop_assert_eq!(pooled.successes(), clean, "threads {}", threads);
            prop_assert_eq!(pooled.trials(), 2_500);
        }
    }
}
