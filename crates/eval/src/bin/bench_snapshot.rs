//! Perf snapshot: times the repo's hot kernels and writes a
//! machine-readable baseline (`BENCH_<pr>.json`) extending the perf
//! trajectory started by `BENCH_2.json`. Besides the kernels, a snapshot
//! records the pool size (`threads`) and the host's core count
//! (`host_cores`, `available_parallelism`): snapshots whose two differ
//! from another's were taken on hosts that are not comparable.
//!
//! Kernels:
//!
//! - `freq_alloc/compiled` — frequency allocation on the compiled-regions
//!   SoA path with pooled candidate evaluation (since PR 3 the pass-1
//!   context filter is vectorized too);
//! - `yield_sim/serial` and `yield_sim/pooled` — the 10k-trial Monte
//!   Carlo yield simulator, with the pool pinned to one thread
//!   (`qpd_par::with_threads(1, ..)`) and at its default width;
//! - `explore/eval_cold` and `explore/eval_warm` — the design-space
//!   explorer's candidate evaluation sweep with an empty vs. pre-warmed
//!   memo cache (PR 3's explore-throughput kernel; the summary reports
//!   candidate evaluations per second for both);
//! - `explore/round_v2` — one full v2 engine round (dominance
//!   acceptance against the front snapshot + cross-walk recombination)
//!   on warm caches: the per-round orchestration cost of the second-
//!   generation engine (PR 4's explore-throughput kernel);
//! - `explore/stage_incremental` — the same v2 round on the stage-graph
//!   engine with every stage cache fully warm (an identical round ran
//!   first): placement, bus insertion, frequency allocation, routing,
//!   and yield are all served by content key, so this times the true
//!   warm-round hot path the per-stage memoization buys (PR 5's
//!   explore-throughput kernel — same candidate budget as
//!   `explore/round_v2`, which under the pre-stage-graph engine re-ran
//!   frequency allocation on every proposal);
//! - `end_to_end/sym6_145` — one full benchmark evaluation (design flow,
//!   routing, yield) at `EvalSettings::quick()`;
//! - `hardware/eval_fixed`, `hardware/eval_tunable`,
//!   `hardware/eval_heavyhex` — the same end-to-end evaluation once per
//!   [`HardwareFamily`], so the pluggable hardware layer's per-model
//!   cost is on the perf trajectory (PR 6's kernel: the fixed-family
//!   figure doubles as the refactor-overhead check against
//!   `end_to_end/sym6_145`);
//! - `yield/singletons` and `yield/batched` — the same 16 candidates
//!   (one dense topology under 16 distinct frequency plans, so they
//!   share one fabrication-noise trial stream and one SoA lane group)
//!   estimated as 16 independent `estimate` calls on one thread vs one
//!   `evaluate_batch` call (PR 7's kernel: the batch generates the
//!   stream once for the group and runs the collision predicates
//!   SIMD-wide across candidates, where each `estimate` — a batch of
//!   one — pays its own stream and fills one lane per vector);
//! - `serve/throughput` — eight warm `design` requests through a real
//!   in-process `qpd-serve` daemon (TCP loopback, line protocol,
//!   shared warm stage graph), so the resident-service round-trip cost
//!   is on the trajectory (PR 8's kernel; the snapshot's `serve` block
//!   also records the one-shot cold-vs-warm request latencies the
//!   shared caches buy);
//! - `explore/shard_merge` — the provenance-sorted merge of four
//!   in-process shard states back into the whole-run checkpoint
//!   (PR 9's kernel: the fleet-scale reassembly cost — sorting the
//!   archive union by `[block, walk, step]` provenance and re-inserting
//!   through the content-key dedup — measured apart from the shard
//!   walks themselves, which are priced by the existing explore
//!   kernels);
//! - `alloc/decision` — one frequency-allocation decision (the full
//!   candidate menu for one qubit with every other qubit assigned, the
//!   refinement-sweep shape) through the compiled-regions kernel with a
//!   persistent `AllocScratch`, so fabrication-noise planes are sliced
//!   from the scratch's cache instead of regenerated (PR 10's decision
//!   kernel);
//! - `alloc/singletons` and `alloc/batched` — the same mixed-topology
//!   allocation workload as independent `allocate` calls vs one
//!   seed-major `allocate_batch` (each step's noise planes are drawn
//!   once for the whole batch and the allocations fan out over the
//!   pool, where each singleton draws its own; plans are bit-identical
//!   either way);
//! - `noise/plane_fill` — fabrication-noise fills on one thread: each
//!   iteration fills [`PLANE_CHUNKS`] stream chunks of 4,096 samples,
//!   each from a freshly seeded generator, exactly as the allocator
//!   draws its noise planes (trajectory point 18's kernel; the
//!   snapshot's `noise` block reports it per sample);
//! - `mapping/route` — SABRE routing statistics of all twelve paper
//!   programs on a grid of [`ROUTE_GRID_CHIPS`] designed chips each
//!   (auxiliary qubits 0..=2, weighted or random bus order, 0, 1, 2, 4
//!   or every bus, five-frequency plans): each sample prepares every
//!   program afresh, so its lookahead memo starts cold, then routes it
//!   on its chips over the pool, as the explorer routes its misses
//!   (trajectory point 24's kernel; the snapshot's `mapping` block
//!   reports routes per second).
//!
//! From point 18 on, a snapshot also names the host's `simd` tier, the
//! vector kernels the noise fill dispatches to; from point 24 on it
//! must time `mapping/route`.
//!
//! Since PR 10 the `explore/eval_cold` / `explore/eval_warm` sweep runs
//! through `Explorer::evaluate_all` — the batched round path (one
//! assemble batch sharing the allocation scratch, grouped yield
//! simulation) — so those figures price the path the engine's rounds
//! actually take.
//!
//! Environment: `QPD_BENCH_SAMPLES` caps timed samples per kernel (shim
//! default 3), `QPD_BENCH_QUICK=1` shrinks trial counts for CI smoke
//! runs, `QPD_THREADS` sizes the worker pool.
//!
//! Usage: `bench_snapshot [--out PATH]` (default `BENCH_28.json`), or
//! `bench_snapshot --check-schema FRESH.json COMMITTED.json...` to
//! validate snapshot *schemas* without timing anything: every file must
//! carry the snapshot fields and well-formed kernel entries, and the
//! newest committed snapshot's kernel set must be covered by the fresh
//! one (so the snapshot machinery cannot silently drop a kernel), except
//! for the kernels [`RETIRED_KERNELS`] names. No timing values are ever
//! compared.

use std::path::Path;
use std::sync::Arc;

use criterion::Criterion;
use qpd_circuit::Circuit;
use qpd_core::{
    place_qubits, AllocJob, BusStrategy, DesignFlow, FrequencyAllocator, FrequencyStrategy,
    StagePlan,
};
use qpd_eval::runner::run_benchmark;
use qpd_eval::EvalSettings;
use qpd_explore::{
    merge_shard_states, write_atomic, BusSpec, CandidateSpec, ExploreConfig, ExploreSpace,
    Explorer, Json, PlacementVariant, ShardSpec,
};
use qpd_mapping::{RouteProgram, SabreRouter};
use qpd_profile::CouplingProfile;
use qpd_serve::{Client, Server, ServerConfig};
use qpd_topology::{ibm, Architecture, BusMode, FrequencyPlan};
use qpd_yield::{
    AllocScratch, BatchRequest, CompiledRegions, FabricationModel, HardwareFamily,
    LocalYieldEvaluator, YieldSimulator,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The current perf-trajectory point; bump alongside the default
/// `--out` path when a later PR appends a snapshot.
const PR: u64 = 28;

/// Kernels deliberately removed from the snapshot, each with the
/// trajectory point that retired it: a committed snapshot older than
/// that point may list the kernel without the fresh one producing it.
/// `freq_alloc/reference` timed the pre-overhaul allocation path, which
/// is gone from the library.
const RETIRED_KERNELS: &[(&str, u64)] = &[("freq_alloc/reference", 17)];

/// Stream chunks one `noise/plane_fill` iteration fills.
const PLANE_CHUNKS: usize = 64;
/// Samples per stream chunk, as the allocator's noise planes draw them.
const CHUNK_SAMPLES: usize = 4_096;
/// Chips per program in the `mapping/route` grid.
const ROUTE_GRID_CHIPS: usize = 30;

/// The host's SIMD tier as the noise kernels dispatch on it: AVX-512
/// runs both the keystream and the polar transform in 512-bit
/// registers, `avx512f` only the keystream (the transform also needs
/// DQ), AVX2 only the keystream.
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx512f") && has!("avx512dq") {
            return "avx512";
        }
        if has!("avx512f") {
            return "avx512f";
        }
        if has!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

fn designed_topology(name: &str) -> Architecture {
    let circuit = qpd_benchmarks::build(name).expect("benchmark");
    let profile = CouplingProfile::of(&circuit);
    let coords = place_qubits(&profile);
    let mut b = Architecture::builder(name);
    b.qubits(coords);
    b.build().expect("valid layout")
}

/// The `mapping/route` chip grid of one program: auxiliary qubits
/// 0..=2 × weighted or random (seed 7) bus order × 0, 1, 2, 4 or every
/// bus, with five-frequency plans (routing never reads frequencies).
fn route_grid(circuit: &Circuit) -> Vec<Architecture> {
    let profile = CouplingProfile::of(circuit);
    let plan = Arc::new(StagePlan::new());
    let mut chips = Vec::with_capacity(ROUTE_GRID_CHIPS);
    for aux in 0..=2 {
        for strategy in [BusStrategy::Weighted, BusStrategy::Random { seed: 7 }] {
            for buses in [0, 1, 2, 4, usize::MAX] {
                let flow = DesignFlow::new()
                    .with_plan(Arc::clone(&plan))
                    .with_frequency_strategy(FrequencyStrategy::FiveFrequency)
                    .with_auxiliary_qubits(aux)
                    .with_bus_strategy(strategy);
                chips.push(flow.design_with_buses(&profile, buses).expect("designs"));
            }
        }
    }
    chips
}

fn quick() -> bool {
    std::env::var("QPD_BENCH_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// A fixed candidate sweep for the explore-throughput kernel: every
/// weighted bus budget under both frequency strategies, plus the
/// transposed-placement variants of the full budget.
fn explore_candidates(space: &ExploreSpace) -> Vec<CandidateSpec> {
    let full = space.full_weighted_len();
    let mut specs = Vec::new();
    for count in 0..=full {
        for frequency in [FrequencyStrategy::Optimized, FrequencyStrategy::FiveFrequency] {
            specs.push(CandidateSpec {
                bus: BusSpec::Weighted { count },
                frequency,
                aux_qubits: 0,
                placement: PlacementVariant::Identity,
                hardware: HardwareFamily::FixedFrequencyTransmon,
            });
        }
    }
    specs.push(CandidateSpec {
        bus: BusSpec::Weighted { count: full },
        frequency: FrequencyStrategy::Optimized,
        aux_qubits: 0,
        placement: PlacementVariant::Transposed,
        hardware: HardwareFamily::FixedFrequencyTransmon,
    });
    specs
}

/// Reads one snapshot document, returning `(pr, kernel ids)` after
/// checking the schema fields; pushes one message per problem.
fn check_snapshot_schema(path: &str, failures: &mut Vec<String>) -> Option<(u64, Vec<String>)> {
    let fail = |failures: &mut Vec<String>, what: &str| {
        failures.push(format!("{path}: {what}"));
        None
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return fail(failures, "unreadable");
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => return fail(failures, &format!("unparseable: {e}")),
    };
    if doc.get("schema").and_then(Json::as_str) != Some("qpd-bench-snapshot/1") {
        return fail(failures, "missing or unknown `schema` tag");
    }
    let Some(pr) = doc.get("pr").and_then(Json::as_u64) else {
        return fail(failures, "missing `pr`");
    };
    for field in ["threads", "alloc_trials", "yield_trials"] {
        if doc.get(field).and_then(Json::as_u64).is_none() {
            return fail(failures, &format!("missing numeric `{field}`"));
        }
    }
    if doc.get("quick").and_then(Json::as_bool).is_none() {
        return fail(failures, "missing boolean `quick`");
    }
    let Some(Json::Obj(speedups)) = doc.get("speedups") else {
        return fail(failures, "missing `speedups` object");
    };
    if speedups.is_empty() {
        return fail(failures, "missing `speedups` object");
    }
    // PR 10 added the batched-allocation kernel pair; later snapshots
    // must keep reporting its speedup.
    if pr >= 10 && !speedups.iter().any(|(k, _)| k == "alloc_batched_over_singletons") {
        return fail(failures, "missing `speedups.alloc_batched_over_singletons` (PR >= 10)");
    }
    // From trajectory point 14 on, snapshots record the host core count
    // next to `threads`, so snapshots from different hosts are visibly
    // not comparable.
    if pr >= 14 && doc.get("host_cores").and_then(Json::as_u64).is_none() {
        return fail(failures, "missing numeric `host_cores` (snapshot 14 on)");
    }
    // From point 18 on, snapshots name the SIMD tier the kernels ran on.
    if pr >= 18 && doc.get("simd").and_then(Json::as_str).is_none() {
        return fail(failures, "missing string `simd` (snapshot 18 on)");
    }
    let Some(kernels) = doc.get("kernels").and_then(Json::as_arr) else {
        return fail(failures, "missing `kernels` array");
    };
    if kernels.is_empty() {
        return fail(failures, "empty `kernels` array");
    }
    let mut ids = Vec::new();
    for k in kernels {
        let Some(id) = k.get("id").and_then(Json::as_str) else {
            return fail(failures, "kernel entry without `id`");
        };
        for field in ["mean_s", "median_s", "min_s"] {
            if k.get(field).and_then(Json::as_f64).is_none() {
                return fail(failures, &format!("kernel {id}: missing `{field}`"));
            }
        }
        ids.push(id.to_string());
    }
    if pr >= 18 && !ids.iter().any(|id| id.ends_with("/noise/plane_fill")) {
        return fail(failures, "missing kernel `noise/plane_fill` (snapshot 18 on)");
    }
    if pr >= 24 && !ids.iter().any(|id| id.ends_with("/mapping/route")) {
        return fail(failures, "missing kernel `mapping/route` (snapshot 24 on)");
    }
    Some((pr, ids))
}

/// The kernels of committed snapshot `pr` the fresh snapshot no longer
/// produces, less those retired after `pr` ([`RETIRED_KERNELS`], named
/// without the `snapshot/` group prefix of recorded ids).
fn dropped_kernels<'a>(fresh: &[String], pr: u64, committed: &'a [String]) -> Vec<&'a str> {
    let retired = |id: &str| {
        let name = id.split_once('/').map_or(id, |(_, name)| name);
        RETIRED_KERNELS.iter().any(|&(r, at)| r == name && pr < at)
    };
    committed
        .iter()
        .map(String::as_str)
        .filter(|&id| !fresh.iter().any(|f| f == id) && !retired(id))
        .collect()
}

/// `--check-schema FRESH COMMITTED...`: schema/coverage validation only,
/// no timing comparisons. Exits non-zero on any finding.
fn check_schema_mode(paths: &[String]) -> ! {
    let (fresh_path, committed) =
        paths.split_first().expect("--check-schema needs a fresh snapshot path");
    let mut failures = Vec::new();
    let fresh = check_snapshot_schema(fresh_path, &mut failures);
    let mut newest: Option<(u64, String, Vec<String>)> = None;
    for path in committed {
        if let Some((pr, ids)) = check_snapshot_schema(path, &mut failures) {
            if newest.as_ref().is_none_or(|(best, _, _)| pr > *best) {
                newest = Some((pr, path.clone(), ids));
            }
        }
    }
    // The fresh snapshot must still produce every kernel the newest
    // committed snapshot recorded — fields and kernels present, nothing
    // about how fast they ran.
    if let (Some((_, fresh_ids)), Some((pr, path, ids))) = (&fresh, &newest) {
        for id in dropped_kernels(fresh_ids, *pr, ids) {
            failures.push(format!(
                "{fresh_path}: kernel `{id}` from {path} (PR {pr}) is gone from the fresh snapshot"
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "check-schema: {} snapshot(s) well-formed; fresh covers the PR {} kernel set",
            paths.len(),
            newest.map(|(pr, _, _)| pr).unwrap_or(0)
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("check-schema FAILED: {f}");
    }
    std::process::exit(1);
}

fn main() {
    let mut out_path = format!("BENCH_{PR}.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--check-schema" => {
                let paths: Vec<String> = args.collect();
                check_schema_mode(&paths);
            }
            other => panic!(
                "unknown argument {other:?} (usage: bench_snapshot [--out PATH] | \
                 bench_snapshot --check-schema FRESH COMMITTED...)"
            ),
        }
    }

    let quick = quick();
    let alloc_trials: usize = if quick { 300 } else { 2_000 };
    let yield_trials: u64 = if quick { 4_000 } else { 10_000 };

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("snapshot");
    group.sample_size(10);

    // Noise-fill kernel: the allocator's plane fill on one thread, one
    // freshly seeded generator per 4,096-sample chunk.
    let noise_model = FabricationModel::new(FabricationModel::PAPER_SIGMA_GHZ);
    let mut plane = vec![0.0f64; PLANE_CHUNKS * CHUNK_SAMPLES];
    group.bench_function("noise/plane_fill", |b| {
        b.iter(|| {
            for (i, chunk) in plane.chunks_exact_mut(CHUNK_SAMPLES).enumerate() {
                noise_model.sample_into(&mut ChaCha8Rng::seed_from_u64(i as u64), chunk);
            }
            plane[0]
        })
    });

    // Frequency-allocation kernel: the paper's Algorithm 3 on a chip
    // designed for rd84_142 (the largest of the twelve workloads).
    let arch = designed_topology(if quick { "sym6_145" } else { "rd84_142" });
    let compiled = FrequencyAllocator::new().with_trials(alloc_trials);
    group.bench_function("freq_alloc/compiled", |b| b.iter(|| compiled.allocate(&arch)));

    // One allocation decision at refinement-sweep shape — the full
    // candidate menu for qubit 0 with every other qubit assigned —
    // through the compiled kernel with a persistent scratch, so from
    // the second sample on the noise planes are sliced, not sampled.
    let decision_eval = LocalYieldEvaluator::new(
        alloc_trials,
        FabricationModel::new(FabricationModel::PAPER_SIGMA_GHZ),
        HardwareFamily::FixedFrequencyTransmon.collision_params(),
        0,
    );
    let decision_regions = CompiledRegions::new(&arch);
    let decision_menu = compiled.candidates().to_vec();
    let decision_assigned: Vec<Option<f64>> = (0..arch.num_qubits())
        .map(|q| (q != 0).then(|| 5.0 + 0.01 * ((q * 7) % 35) as f64))
        .collect();
    let mut decision_scratch = AllocScratch::new();
    group.bench_function("alloc/decision", |b| {
        b.iter(|| {
            decision_eval.evaluate_candidates_compiled_with(
                &decision_regions,
                &decision_assigned,
                0,
                &decision_menu,
                &mut decision_scratch,
            )
        })
    });

    // Batched cross-proposal allocation: the same mixed-topology
    // workload as independent `allocate` calls (each draws its own
    // noise) vs one seed-major `allocate_batch`. Same seed and sigma
    // throughout, so each step's planes are drawn once for all four.
    let alloc_batch_archs: Vec<Architecture> = vec![
        arch.clone(),
        ibm::ibm_16q_2x8(BusMode::TwoQubitOnly),
        ibm::ibm_16q_2x8(BusMode::MaxFourQubit),
        ibm::ibm_20q_4x5(BusMode::TwoQubitOnly),
    ];
    let alloc_batch: Vec<AllocJob<'_>> =
        alloc_batch_archs.iter().map(|arch| AllocJob { allocator: &compiled, arch }).collect();
    group.bench_function("alloc/singletons", |b| {
        b.iter(|| alloc_batch.iter().map(|j| compiled.allocate(j.arch)).collect::<Vec<_>>())
    });
    group.bench_function("alloc/batched", |b| {
        b.iter(|| FrequencyAllocator::allocate_batch(&alloc_batch, &mut AllocScratch::new()))
    });

    // Yield-simulation kernel: §5.1's Monte Carlo on the densest IBM
    // baseline.
    let chip = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
    let sim = YieldSimulator::new().with_trials(yield_trials);
    group.bench_function("yield_sim/serial", |b| {
        b.iter(|| qpd_par::with_threads(1, || sim.estimate(&chip).expect("plan attached")))
    });
    group.bench_function("yield_sim/pooled", |b| {
        b.iter(|| sim.estimate(&chip).expect("plan attached"))
    });

    // Explore-throughput kernel: the same candidate sweep with the memo
    // cache cleared per iteration (cold: every design, routing, and
    // yield simulation runs) vs. left warm (evaluations are two hash
    // lookups). Since PR 10 the sweep goes through `evaluate_all` — the
    // batched round path (one assemble batch over the shared allocation
    // scratch, grouped yield simulation) — which is what the engine's
    // rounds actually run; clearing the stage caches drops memoized results
    // but not the derived scratch, exactly like a long-running sweep.
    // The engine and space are built once outside the timed region, so
    // both numbers measure candidate evaluation alone.
    let explore_config = ExploreConfig {
        alloc_trials: if quick { 100 } else { 400 },
        yield_trials: if quick { 1_000 } else { 2_000 },
        ..ExploreConfig::quick()
    };
    let space = ExploreSpace::new(qpd_benchmarks::build("sym6_145").expect("sym6"), 1);
    let candidates = explore_candidates(&space);
    let explorer = Explorer::new(space, explore_config).expect("baseline");
    group.bench_function("explore/eval_cold", |b| {
        b.iter(|| {
            explorer.caches().clear();
            explorer.evaluate_all(&candidates).expect("candidates evaluate")
        })
    });
    // The last cold iteration left the cache warm.
    group.bench_function("explore/eval_warm", |b| {
        b.iter(|| explorer.evaluate_all(&candidates).expect("candidates evaluate"))
    });

    // The v2 engine's per-round orchestration: dominance acceptance
    // against the front snapshot plus cross-walk recombination, on the
    // same warm caches (fresh candidates hit the memo after the first
    // sample, so this times the engine, not the simulators).
    let v2_state = explorer.initial_state().expect("initial state");
    group.bench_function("explore/round_v2", |b| {
        b.iter(|| {
            let mut state = v2_state.clone();
            explorer.advance_round(&mut state).expect("v2 round");
            state
        })
    });

    // The stage-graph warm-round hot path: the identical round at the
    // identical candidate budget, guaranteed fully warm (the round_v2
    // samples above already replayed it), so every stage — placement,
    // buses, frequency allocation, routing, yield — is served by
    // content key and the timing isolates engine orchestration plus
    // cache lookups. Compare against the PR 4 `explore/round_v2`
    // figure, whose engine re-ran frequency allocation on every
    // proposal even with warm yield/route memos.
    {
        let mut warm_up = v2_state.clone();
        explorer.advance_round(&mut warm_up).expect("warm-up round");
    }
    group.bench_function("explore/stage_incremental", |b| {
        b.iter(|| {
            let mut state = v2_state.clone();
            explorer.advance_round(&mut state).expect("stage-incremental round");
            state
        })
    });

    // End-to-end: one full Figure-10 style evaluation at quick settings
    // (kept quick in both modes so the trajectory stays comparable).
    group.bench_function("end_to_end/sym6_145", |b| {
        b.iter(|| run_benchmark("sym6_145", &EvalSettings::quick()).expect("run"))
    });

    // Per-hardware-model kernel: the same end-to-end evaluation once
    // per family. `hardware/eval_fixed` runs the identical workload as
    // `end_to_end/sym6_145`, so any drift between the two is pure
    // hardware-layer dispatch overhead; the tunable and heavy-hex
    // figures put the non-default collision models on the trajectory.
    for family in HardwareFamily::ALL {
        let settings = EvalSettings::quick().with_hardware(family);
        group.bench_function(format!("hardware/eval_{}", family.as_str()), |b| {
            b.iter(|| run_benchmark("sym6_145", &settings).expect("run"))
        });
    }
    // Batched cross-candidate kernel: sixteen frequency-plan variants
    // of the dense chip — same topology, trials, seed, and sigma, so
    // all sixteen share one fabrication-noise trial stream and one SoA
    // lane group. `yield/singletons` pays sixteen one-thread batches
    // of one (sixteen private noise streams, one candidate lane per
    // vector); `yield/batched` generates the stream once for the group
    // and checks the collision predicates SIMD-wide across candidates.
    const BATCH_CANDIDATES: usize = 16;
    let plan_variants: Vec<Architecture> = (0..BATCH_CANDIDATES)
        .map(|i| {
            // Compress toward 5.00 GHz and shift up: distinct plans per
            // candidate, all inside the allowed 5.00-5.34 GHz band.
            let moved: Vec<f64> = chip
                .frequencies()
                .expect("baseline plan")
                .as_slice()
                .iter()
                .map(|f| 5.00 + (f - 5.00) * 0.90 + 0.002 * i as f64)
                .collect();
            chip.clone().with_frequencies(FrequencyPlan::new(moved)).expect("in band")
        })
        .collect();
    group.bench_function("yield/singletons", |b| {
        b.iter(|| {
            qpd_par::with_threads(1, || {
                plan_variants
                    .iter()
                    .map(|arch| sim.estimate(arch).expect("plan attached").successes())
                    .sum::<u64>()
            })
        })
    });
    let batch_requests: Vec<BatchRequest<'_>> =
        plan_variants.iter().map(|arch| BatchRequest { simulator: sim, arch }).collect();
    group.bench_function("yield/batched", |b| {
        b.iter(|| {
            YieldSimulator::evaluate_batch(&batch_requests)
                .into_iter()
                .map(|r| r.expect("plan attached").successes())
                .sum::<u64>()
        })
    });
    // Resident-daemon kernel: the same design request through a real
    // qpd-serve daemon on TCP loopback. The first request pays the cold
    // stage cascade, the repeat is served from the shared warm caches —
    // both one-shot latencies land in the snapshot's `serve` block —
    // and the timed kernel pushes eight warm requests per iteration so
    // the protocol + dispatch round-trip cost is on the trajectory.
    const SERVE_DESIGN: &str = r#"{"id":"bench","op":"design","benchmark":"sym6_145"}"#;
    const SERVE_BATCH: usize = 8;
    let serve_dir = std::env::temp_dir().join(format!("qpd_bench_serve_{}", std::process::id()));
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        out_dir: serve_dir.clone(),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let serve_addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());
    let mut serve_client = Client::connect(serve_addr).expect("connect");
    let timed_request = |client: &mut Client| {
        let start = std::time::Instant::now();
        client.request_raw(SERVE_DESIGN).expect("design served");
        start.elapsed().as_secs_f64()
    };
    let serve_cold_s = timed_request(&mut serve_client);
    let serve_warm_s = timed_request(&mut serve_client);
    group.bench_function("serve/throughput", |b| {
        b.iter(|| {
            for _ in 0..SERVE_BATCH {
                serve_client.request_raw(SERVE_DESIGN).expect("design served");
            }
        })
    });
    serve_client.request_raw(r#"{"id":"stop","op":"shutdown"}"#).expect("shutdown");
    server_thread.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&serve_dir);

    // Shard-merge kernel: four shard states of one shardable run
    // (built once, outside the timed region — the walks themselves are
    // priced by the explore kernels above), merged back into the
    // whole-run checkpoint per iteration. This times the fleet-scale
    // reassembly path alone: provenance sort of the archive union plus
    // content-key dedup re-insertion.
    const SHARDS: usize = 4;
    let shard_config = ExploreConfig {
        walks: SHARDS,
        rounds: 2,
        steps_per_round: 2,
        alloc_trials: if quick { 60 } else { 100 },
        yield_trials: if quick { 400 } else { 1_000 },
        ..ExploreConfig::quick()
    }
    .v1_compat();
    let shard_space = ExploreSpace::new(qpd_benchmarks::build("sym6_145").expect("sym6"), 1);
    let shard_explorer = Explorer::new(shard_space, shard_config).expect("shardable");
    let shard_states: Vec<_> = (0..SHARDS)
        .map(|index| shard_explorer.run_shard(ShardSpec { index, of: SHARDS }).expect("shard runs"))
        .collect();
    group.bench_function("explore/shard_merge", |b| {
        b.iter(|| merge_shard_states("sym6_145", shard_config, &shard_states).expect("merges"))
    });
    let merged = merge_shard_states("sym6_145", shard_config, &shard_states).expect("merge");

    // Routing kernel: every paper program on its chip grid, each sample
    // preparing the programs afresh (cold lookahead memos), each
    // program's chips routed over the pool against its one program.
    let route_jobs: Vec<(Circuit, Vec<Architecture>)> = qpd_benchmarks::ALL
        .iter()
        .map(|spec| {
            let circuit = qpd_benchmarks::build(spec.name).expect("benchmark");
            let chips = route_grid(&circuit);
            (circuit, chips)
        })
        .collect();
    let routes: usize = route_jobs.iter().map(|(_, chips)| chips.len()).sum();
    group.bench_function("mapping/route", |b| {
        b.iter(|| {
            route_jobs
                .iter()
                .map(|(circuit, chips)| {
                    let program = RouteProgram::new(circuit);
                    qpd_par::par_map(chips, |chip| {
                        SabreRouter::new(chip).route_stats(&program).expect("routes").total_gates
                    })
                    .into_iter()
                    .sum::<usize>()
                })
                .sum::<usize>()
        })
    });
    group.finish();

    let results = criterion.take_results();
    let median_of = |id: &str| -> f64 {
        results.iter().find(|r| r.id.ends_with(id)).map(|r| r.median_s).expect("kernel timed")
    };
    let yield_speedup = median_of("yield_sim/serial") / median_of("yield_sim/pooled");
    let cache_speedup = median_of("explore/eval_cold") / median_of("explore/eval_warm");
    let batch_speedup = median_of("yield/singletons") / median_of("yield/batched");
    let alloc_batch_speedup = median_of("alloc/singletons") / median_of("alloc/batched");
    let evals_per_s = |id: &str| candidates.len() as f64 / median_of(id);

    let threads = qpd_par::threads();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let round3 = |v: f64| (v * 1_000.0).round() / 1_000.0;
    let round6 = |v: f64| (v * 1_000_000.0).round() / 1_000_000.0;
    let mut top = vec![
        ("schema", Json::str("qpd-bench-snapshot/1")),
        ("pr", Json::int(PR)),
        ("threads", Json::int(threads as u64)),
        ("host_cores", Json::int(host_cores as u64)),
        ("simd", Json::str(simd_tier())),
    ];
    if threads == 1 {
        // The pool contributes nothing on one worker: these numbers
        // record the algorithmic speedups only.
        top.push(("note", Json::str("single-worker host: pool fan-out unmeasured")));
    }
    top.extend([
        ("quick", Json::Bool(quick)),
        ("alloc_trials", Json::int(alloc_trials as u64)),
        ("yield_trials", Json::int(yield_trials)),
        ("kernels", Json::Arr(results.iter().map(|r| Json::Raw(r.json_line())).collect())),
        (
            "explore",
            Json::obj([
                ("candidates", Json::int(candidates.len() as u64)),
                ("cold_evals_per_s", Json::num(round3(evals_per_s("explore/eval_cold")))),
                ("warm_evals_per_s", Json::num(round3(evals_per_s("explore/eval_warm")))),
                // v2 throughput: proposals a dominance+recombination
                // round pushes through per second (walks x steps per
                // round timed by `explore/round_v2`).
                (
                    "round_v2_proposals_per_s",
                    Json::num(round3(
                        (explore_config.walks * explore_config.steps_per_round) as f64
                            / median_of("explore/round_v2"),
                    )),
                ),
                // The stage-graph warm round at the same budget: the
                // cross-PR comparison point against BENCH_4's
                // round_v2_proposals_per_s.
                (
                    "stage_incremental_proposals_per_s",
                    Json::num(round3(
                        (explore_config.walks * explore_config.steps_per_round) as f64
                            / median_of("explore/stage_incremental"),
                    )),
                ),
            ]),
        ),
        (
            "hardware",
            Json::obj(HardwareFamily::ALL.map(|family| {
                let id = format!("hardware/eval_{}", family.as_str());
                (family.as_str(), Json::num(round3(median_of(&id))))
            })),
        ),
        (
            "batch",
            Json::obj([
                ("candidates", Json::int(BATCH_CANDIDATES as u64)),
                // Grouped candidates a batch pushes through per second
                // vs the same workload as independent estimates.
                (
                    "batched_candidates_per_s",
                    Json::num(round3(BATCH_CANDIDATES as f64 / median_of("yield/batched"))),
                ),
                (
                    "singleton_candidates_per_s",
                    Json::num(round3(BATCH_CANDIDATES as f64 / median_of("yield/singletons"))),
                ),
            ]),
        ),
        (
            "shard",
            Json::obj([
                ("shards", Json::int(SHARDS as u64)),
                ("archive_entries", Json::int(merged.state.archive.len() as u64)),
                ("front_entries", Json::int(merged.state.front_indices().len() as u64)),
                // Whole-run reassemblies per second from the four shard
                // states (provenance sort + dedup re-insertion).
                ("merges_per_s", Json::num(round3(1.0 / median_of("explore/shard_merge")))),
            ]),
        ),
        (
            "serve",
            Json::obj([
                // One-shot request latencies over TCP loopback: the
                // first request runs the full cold stage cascade, the
                // repeat is served from the daemon's shared warm
                // caches.
                ("cold_request_s", Json::num(round6(serve_cold_s))),
                ("warm_request_s", Json::num(round6(serve_warm_s))),
                (
                    "warm_requests_per_s",
                    Json::num(round3(SERVE_BATCH as f64 / median_of("serve/throughput"))),
                ),
            ]),
        ),
        (
            "noise",
            Json::obj([
                ("chunk_samples", Json::int(CHUNK_SAMPLES as u64)),
                (
                    "plane_fill_ns_per_sample",
                    Json::num(round3(
                        median_of("noise/plane_fill") * 1e9 / (PLANE_CHUNKS * CHUNK_SAMPLES) as f64,
                    )),
                ),
            ]),
        ),
        (
            "mapping",
            Json::obj([
                ("routes", Json::int(routes as u64)),
                ("routes_per_s", Json::num(round3(routes as f64 / median_of("mapping/route")))),
            ]),
        ),
        (
            "speedups",
            Json::obj([
                ("yield_sim_pooled_over_serial", Json::num(round3(yield_speedup))),
                ("explore_eval_warm_over_cold", Json::num(round3(cache_speedup))),
                ("yield_batched_over_singletons", Json::num(round3(batch_speedup))),
                ("alloc_batched_over_singletons", Json::num(round3(alloc_batch_speedup))),
                ("serve_warm_over_cold", Json::num(round3(serve_cold_s / serve_warm_s))),
            ]),
        ),
    ]);
    let json = Json::Obj(top.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).render();

    write_atomic(Path::new(&out_path), &json).expect("write snapshot");
    println!("\nwrote {out_path}");
    println!(
        "yield_sim pooled vs serial: {yield_speedup:.2}x; \
         explore cache warm vs cold: {cache_speedup:.2}x; \
         yield batched vs {BATCH_CANDIDATES} singletons: {batch_speedup:.2}x; \
         alloc batched vs {} singletons: {alloc_batch_speedup:.2}x; \
         serve warm vs cold request: {:.2}x",
        alloc_batch.len(),
        serve_cold_s / serve_warm_s
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retired kernel as BENCH_14 records it.
    const RETIRED: &str = "snapshot/freq_alloc/reference";

    /// The kernel ids of the newest committed snapshot.
    fn committed() -> (u64, Vec<String>) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_14.json");
        let mut failures = Vec::new();
        let snapshot = check_snapshot_schema(path, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        snapshot.expect("well-formed snapshot")
    }

    #[test]
    fn retired_kernel_may_be_missing_from_the_fresh_snapshot() {
        let (pr, ids) = committed();
        assert!(ids.iter().any(|id| id == RETIRED));
        let fresh: Vec<String> = ids.iter().filter(|id| *id != RETIRED).cloned().collect();
        assert!(dropped_kernels(&fresh, pr, &ids).is_empty());
        // A snapshot taken at or after the retirement gets no pass.
        assert_eq!(dropped_kernels(&fresh, 17, &ids), [RETIRED]);
    }

    #[test]
    fn snapshot_18_on_requires_the_simd_tier_and_the_noise_kernel() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_14.json");
        let text = std::fs::read_to_string(path).unwrap();
        let dir = std::env::temp_dir().join(format!("qpd_bench_schema_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let check = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let mut failures = Vec::new();
            check_snapshot_schema(path.to_str().unwrap(), &mut failures);
            failures
        };
        let as_18 = text.replacen("\"pr\": 14", "\"pr\": 18", 1);
        assert_ne!(as_18, text);
        assert!(check("a.json", &as_18)[0].contains("`simd`"));
        let with_simd = as_18.replacen("\"pr\": 18", "\"pr\": 18, \"simd\": \"scalar\"", 1);
        assert!(check("b.json", &with_simd)[0].contains("noise/plane_fill"));
        let with_kernel =
            with_simd.replacen("\"snapshot/alloc/decision\"", "\"snapshot/noise/plane_fill\"", 1);
        assert_eq!(check("c.json", &with_kernel), Vec::<String>::new());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_24_on_requires_the_route_kernel() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_19.json");
        let text = std::fs::read_to_string(path).unwrap();
        let dir = std::env::temp_dir().join(format!("qpd_bench_route_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let check = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let mut failures = Vec::new();
            check_snapshot_schema(path.to_str().unwrap(), &mut failures);
            failures
        };
        assert_eq!(check("a.json", &text), Vec::<String>::new());
        let as_24 = text.replacen("\"pr\": 19", "\"pr\": 24", 1);
        assert_ne!(as_24, text);
        assert!(check("b.json", &as_24)[0].contains("mapping/route"));
        let with_route =
            as_24.replacen("\"snapshot/alloc/batched\"", "\"snapshot/mapping/route\"", 1);
        assert_eq!(check("c.json", &with_route), Vec::<String>::new());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn any_other_missing_kernel_still_fails() {
        let (pr, ids) = committed();
        for gone in ids.iter().filter(|id| *id != RETIRED) {
            let fresh: Vec<String> =
                ids.iter().filter(|id| *id != gone && *id != RETIRED).cloned().collect();
            assert_eq!(dropped_kernels(&fresh, pr, &ids), [gone.as_str()]);
        }
    }
}
