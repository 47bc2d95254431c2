//! Design-space exploration over the paper's benchmark profiles.
//!
//! For each selected benchmark the run builds an [`ExploreSpace`], runs
//! the archive-guided Pareto search (bit-identical for every
//! `QPD_THREADS`), writes an `EXPLORE_<benchmark>.json` checkpoint after
//! every round, and prints a summary table: archive size, Pareto-front
//! size, front spread (mean finite crowding distance), yield-cache hit
//! counts, the aggregate stage-cache hit rate (placement, bus,
//! frequency, routing, and yield stages together), and where the
//! paper's `eff-full` configuration landed — on the front, or dominated
//! by which front point.
//!
//! Usage:
//!   explore_run [--quick] [--check] [--seed N] [--rounds N] [--walks N]
//!               [--steps N] [--out-dir DIR] [--resume FILE] [--overlay]
//!               [--adaptive] [--screen N] [--epsilon X]
//!               [--acceptance scalarized|dominance] [--no-recombine]
//!               [--fine-recombine] [--archive-cap N] [--max-seconds S]
//!               [--hardware fixed|tunable|heavyhex|all] [--hit-rates]
//!               [--no-warm-start] [--warm-start FILE]
//!               [--shard I/N] [names...]
//!   explore_run --merge [--out-dir DIR] [--check] [--archive-cap N]
//!               shard1.json shard2.json ...
//!
//! `--hardware` picks the hardware family the candidates design for;
//! `all` makes the family a search knob (walks spread across families
//! and a dedicated move flips it), producing a cross-family front.
//! `--hit-rates` records the per-stage cache hit counters in the
//! checkpoint (display-only; upgrades its schema tag to v3). The
//! counters describe the run's *actual* cache traffic, which depends on
//! scheduling: two workers first-missing one key split a (hit, miss)
//! pair differently than one worker visiting it twice. The search state
//! stays bit-identical for every `QPD_THREADS`; only this block is
//! byte-stable at a fixed thread count — which is why it is
//! display-only and never parsed back into state.
//!
//! Alongside every checkpoint the run writes
//! `EXPLORE_<benchmark>_caches.json`, a sidecar with the routing and
//! yield stage-cache entries (see [`qpd_explore::sidecar`]); `--resume`
//! loads the sidecar sitting next to the checkpoint (when present) so
//! the resumed run starts warm, logging a one-line notice with the
//! entries restored per stage. `--no-warm-start` skips the load (cold
//! resume — useful when bisecting cache-related behavior, and the only
//! effect is recomputation: stages are pure functions of their content
//! keys, so warm caches can never change results). `--warm-start FILE`
//! additionally loads an explicit sidecar file before the first round —
//! any run's sidecar works (warm entries can never change results),
//! which is how `shard_sweep` reuses one hardware family's routing work
//! for the next.
//!
//! `--shard I/N` runs only the walks `w ≡ I (mod N)` of an
//! **independent-walk** run, with their unchanged `(seed, walk, round)`
//! RNG streams, and writes the shard-tagged checkpoint
//! `EXPLORE_<benchmark>_shardIofN.json` (plus its own cache sidecar).
//! Sharding requires a config whose walks never observe each other
//! (scalarized acceptance, no recombination, no archive cap — see
//! `ExploreConfig::shardable`); `--shard` defaults `--acceptance
//! scalarized --no-recombine` for you, and explicitly conflicting flags
//! are rejected. N shard processes over disjoint indices cover the
//! whole run; `--merge` then reassembles the exact single-process
//! checkpoint.
//!
//! `--merge shard1.json ... shardN.json` merges a complete set of
//! shard-tagged checkpoints of one run into the whole-run
//! `EXPLORE_<benchmark>.json`, byte-identical to what the
//! single-process run writes, in any input order (entries re-sort on
//! their recorded provenance). With `--archive-cap N` the merged
//! archive is additionally re-pruned to `N` points by the engine's
//! ε-grid + crowding rule (the result then differs from the uncapped
//! single run, deterministically, and records the cap in its config).
//!
//! `--fine-recombine` splits the frequency-strategy knob into its own
//! recombination exchange block (an extra RNG draw per exchanging
//! pair). The flag is recorded in the checkpoint — it changes the
//! exchange streams, so it cannot be combined with `--resume`.
//!
//! `--archive-cap N` bounds the Pareto archive: at every round barrier
//! the archive is pruned to `N` points by ε-grid occupancy and crowding
//! distance (front points kept first); `0` keeps every point.
//!
//! `--quick` shrinks every budget for smoke runs; `--check` additionally
//! asserts the smoke invariants (non-empty front, round-tripping
//! checkpoint, eff-full evaluated) and exits non-zero on violation.
//! `--adaptive` turns on 4x screening (`--screen N` picks the divisor
//! explicitly), the budget shape that makes `qft_16` tractable.
//! `--overlay` additionally writes `EXPLORE_<benchmark>_front.svg`, the
//! Figure-10 style overlay of the explored archive and its front.
//! `--max-seconds S` stops scheduling new rounds once the wall clock
//! passes `S` seconds for a run (the state so far is checkpointed and
//! reported; CI uses this to bound the qft_16 smoke job).
//! `--resume FILE` loads a checkpoint — schema v1 files are migrated to
//! v2 in memory, keeping their scalarized-era behavior; shard-tagged
//! files resume as that shard — and continues that single run to its
//! configured round budget; only `--rounds` and
//! `--overlay`/`--max-seconds` may be combined with it, since the
//! checkpoint's config governs the deterministic walk streams.
//!
//! Every usage error (unknown flag, conflicting flags, unreadable or
//! invalid checkpoint, unknown benchmark) is reported as a one-line
//! `error: ...` on stderr with exit code 2, **before** any run output
//! or filesystem side effect.

use std::path::{Path, PathBuf};
use std::time::Instant;

use qpd_core::{crowding_distances, dominates_nd};
use qpd_eval::plot::{svg_front_overlay, OverlayPoint};
use qpd_explore::sidecar::{self, SidecarLoad};
use qpd_explore::{
    merge_checkpoints, write_atomic, AcceptanceMode, Checkpoint, ExploreConfig, ExploreSpace,
    ExploreState, Explorer, HardwareSweep, ShardMeta, ShardSpec, ShardState, StageHitRate,
};

/// Reports a usage error and exits with status 2. Called only before
/// any run output or filesystem side effect, so a bad invocation never
/// leaves partial artifacts or interleaves with progress noise.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

struct Args {
    quick: bool,
    check: bool,
    seed: Option<u64>,
    rounds: Option<usize>,
    walks: Option<usize>,
    steps: Option<usize>,
    out_dir: PathBuf,
    resume: Option<PathBuf>,
    overlay: bool,
    screen: Option<u64>,
    epsilon: Option<f64>,
    acceptance: Option<AcceptanceMode>,
    no_recombine: bool,
    fine_recombine: bool,
    archive_cap: Option<usize>,
    max_seconds: Option<f64>,
    hardware: Option<HardwareSweep>,
    hit_rates: bool,
    no_warm_start: bool,
    warm_start: Option<PathBuf>,
    shard: Option<ShardSpec>,
    merge: bool,
    names: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        check: false,
        seed: None,
        rounds: None,
        walks: None,
        steps: None,
        out_dir: PathBuf::from("."),
        resume: None,
        overlay: false,
        screen: None,
        epsilon: None,
        acceptance: None,
        no_recombine: false,
        fine_recombine: false,
        archive_cap: None,
        max_seconds: None,
        hardware: None,
        hit_rates: false,
        no_warm_start: false,
        warm_start: None,
        shard: None,
        merge: false,
        names: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |flag: &str| it.next().unwrap_or_else(|| fail(format!("{flag} needs a value")));
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--seed" => {
                args.seed =
                    Some(value("--seed").parse().unwrap_or_else(|_| fail("--seed needs a number")))
            }
            "--rounds" => {
                args.rounds = Some(
                    value("--rounds").parse().unwrap_or_else(|_| fail("--rounds needs a number")),
                )
            }
            "--walks" => {
                args.walks = Some(
                    value("--walks").parse().unwrap_or_else(|_| fail("--walks needs a number")),
                )
            }
            "--steps" => {
                args.steps = Some(
                    value("--steps").parse().unwrap_or_else(|_| fail("--steps needs a number")),
                )
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")),
            "--resume" => args.resume = Some(PathBuf::from(value("--resume"))),
            "--overlay" => args.overlay = true,
            "--adaptive" => args.screen = args.screen.or(Some(4)),
            "--screen" => {
                args.screen = Some(
                    value("--screen").parse().unwrap_or_else(|_| fail("--screen needs a number")),
                )
            }
            "--epsilon" => {
                args.epsilon = Some(
                    value("--epsilon").parse().unwrap_or_else(|_| fail("--epsilon needs a number")),
                )
            }
            "--acceptance" => {
                let tag = value("--acceptance");
                args.acceptance = Some(
                    AcceptanceMode::from_str_tag(&tag)
                        .unwrap_or_else(|| fail(format!("unknown acceptance mode {tag:?}"))),
                );
            }
            "--no-recombine" => args.no_recombine = true,
            "--fine-recombine" => args.fine_recombine = true,
            "--no-warm-start" => args.no_warm_start = true,
            "--warm-start" => args.warm_start = Some(PathBuf::from(value("--warm-start"))),
            "--archive-cap" => {
                args.archive_cap = Some(
                    value("--archive-cap")
                        .parse()
                        .unwrap_or_else(|_| fail("--archive-cap needs a number")),
                )
            }
            "--max-seconds" => {
                args.max_seconds = Some(
                    value("--max-seconds")
                        .parse()
                        .unwrap_or_else(|_| fail("--max-seconds needs a number")),
                )
            }
            "--hardware" => {
                let tag = value("--hardware");
                args.hardware = Some(
                    HardwareSweep::parse(&tag)
                        .unwrap_or_else(|| fail(format!("unknown hardware family {tag:?}"))),
                );
            }
            "--hit-rates" => args.hit_rates = true,
            "--shard" => {
                let tag = value("--shard");
                args.shard = Some(ShardSpec::parse(&tag).unwrap_or_else(|m| fail(m)));
            }
            "--merge" => args.merge = true,
            other if !other.starts_with("--") => args.names.push(other.to_string()),
            other => fail(format!("unknown argument {other:?}")),
        }
    }
    args
}

fn config_from(args: &Args) -> ExploreConfig {
    let mut config = if args.quick { ExploreConfig::quick() } else { ExploreConfig::default() };
    if let Some(seed) = args.seed {
        config.seed = seed;
    }
    if let Some(rounds) = args.rounds {
        config.rounds = rounds;
    }
    if let Some(walks) = args.walks {
        config.walks = walks;
    }
    if let Some(steps) = args.steps {
        config.steps_per_round = steps;
    }
    if let Some(screen) = args.screen {
        config.screen_divisor = screen.max(1);
    }
    if let Some(eps) = args.epsilon {
        config.epsilon = eps;
    }
    if let Some(acceptance) = args.acceptance {
        config.acceptance = acceptance;
    }
    if args.no_recombine {
        config.recombine = false;
    }
    if args.fine_recombine {
        config.fine_recombine = true;
    }
    if let Some(cap) = args.archive_cap {
        config.archive_cap = (cap > 0).then_some(cap);
    }
    if let Some(hardware) = args.hardware {
        config.hardware = hardware;
    }
    // Shard mode needs the independent-walk config shape: flags the
    // user left at their defaults are defaulted shard-compatibly, and
    // explicitly conflicting flags are rejected in `validate_shard`.
    if args.shard.is_some() {
        if args.acceptance.is_none() {
            config.acceptance = AcceptanceMode::Scalarized;
        }
        config.recombine = false;
    }
    config
}

/// Fails fast (before any output) when a benchmark name is unknown.
fn require_benchmark(name: &str) {
    if qpd_benchmarks::build(name).is_err() {
        fail(format!("unknown benchmark `{name}`"));
    }
}

/// Where `eff-full` landed: `Ok(true)` on the front, `Ok(false)` absent
/// from the archive, `Err(name)` dominated by front point `name`. In a
/// pinned-family run walk 0 starts at eff-full *on that family*, so the
/// probe follows the sweep.
fn eff_full_status(
    space: &ExploreSpace,
    state: &ExploreState,
    sweep: HardwareSweep,
) -> Result<bool, String> {
    let mut eff_full = qpd_explore::CandidateSpec::eff_full(space.full_weighted_len());
    if let HardwareSweep::Pinned(family) = sweep {
        eff_full.hardware = family;
    }
    let Some(position) = state.archive.iter().position(|e| e.spec == eff_full) else {
        return Ok(false);
    };
    let front = state.front_indices();
    if front.contains(&position) {
        return Ok(true);
    }
    let point = state.archive[position].objectives.as_maximization();
    let dominator = front
        .iter()
        .find(|&&i| dominates_nd(&state.archive[i].objectives.as_maximization(), &point))
        .map(|&i| state.archive[i].arch_name.clone())
        .unwrap_or_else(|| "front".into());
    Err(dominator)
}

/// Mean finite NSGA-II crowding distance over the front — the spread
/// figure in the summary table (0 when every point is a boundary).
fn front_spread(state: &ExploreState, front: &[usize]) -> f64 {
    let pts: Vec<Vec<f64>> =
        front.iter().map(|&i| state.archive[i].objectives.as_maximization()).collect();
    let finite: Vec<f64> = crowding_distances(&pts).into_iter().filter(|d| d.is_finite()).collect();
    if finite.is_empty() {
        0.0
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

/// Projects the archive onto the Figure-10 overlay axes: performance
/// normalized to the best (smallest) post-mapping gate count on record.
fn overlay_points(state: &ExploreState, front: &[usize]) -> Vec<OverlayPoint> {
    let best_gates =
        state.archive.iter().map(|e| e.objectives.total_gates).min().unwrap_or(1).max(1);
    state
        .archive
        .iter()
        .enumerate()
        .map(|(i, e)| OverlayPoint {
            arch: e.arch_name.clone(),
            perf: best_gates as f64 / e.objectives.total_gates as f64,
            yield_rate: e.objectives.yield_rate(),
            on_front: front.contains(&i),
        })
        .collect()
}

struct RunReport {
    benchmark: String,
    evaluations: u64,
    archive: usize,
    front: usize,
    spread: f64,
    yield_hits: u64,
    /// Aggregate stage-cache hit rate across every cached stage of the
    /// cascade (placement, bus, frequency, routing, yield).
    stage_hit_rate: f64,
    /// Distinct stage keys computed across the cascade. Unlike the
    /// hit/miss tallies this is deterministic: duplicate computations
    /// from scheduling races dedupe, so the figure is identical at
    /// every `QPD_THREADS`.
    stage_unique: u64,
    /// `None` for a shard that does not own walk 0: eff-full is walk
    /// 0's starting point, so only its shard (or a whole run) can
    /// report on it.
    eff_full: Option<Result<bool, String>>,
    checkpoint: PathBuf,
    overlay: Option<PathBuf>,
}

struct RunOptions {
    overlay: bool,
    max_seconds: Option<f64>,
    /// Record display-only per-stage cache counters in the checkpoint
    /// (upgrades its schema tag to v3).
    hit_rates: bool,
    /// Directory to load a `EXPLORE_<run>_caches.json` sidecar from
    /// before the first resumed round.
    warm_from: Option<PathBuf>,
    /// An explicit sidecar file to warm-load before the first round
    /// (`--warm-start`) — on top of `warm_from`, and valid for fresh
    /// runs too.
    warm_file: Option<PathBuf>,
}

/// Warm-loads a cache sidecar, logging one line saying what happened —
/// entries restored per stage, or why the file was skipped. A missing
/// sidecar is the normal cold-start case and stays silent.
fn warm_load_sidecar(path: &Path, caches: &qpd_explore::StageCaches) {
    match sidecar::load(path, caches) {
        SidecarLoad::Missing => {}
        SidecarLoad::Ignored(why) => {
            eprintln!("ignoring cache sidecar {} ({why})", path.display());
        }
        SidecarLoad::Loaded { routes, yields } => {
            eprintln!(
                "warm start: restored {routes} routing + {yields} yield cache entries from {}",
                path.display()
            );
        }
    }
}

/// Builds the engine for one run, applying the warm-start options.
fn build_explorer(
    name: &str,
    label: &str,
    config: ExploreConfig,
    options: &RunOptions,
) -> Explorer {
    let circuit = qpd_benchmarks::build(name).expect("known benchmark");
    let space = ExploreSpace::new(circuit, config.max_aux);
    let explorer = Explorer::new(space, config).expect("baseline design");
    if let Some(dir) = &options.warm_from {
        warm_load_sidecar(&dir.join(sidecar::file_name(label)), explorer.caches());
    }
    if let Some(file) = &options.warm_file {
        warm_load_sidecar(file, explorer.caches());
    }
    explorer
}

/// Assembles the summary row after a run (whole or shard). `overlay`
/// carries the `(title, path)` of the front SVG to write, when asked.
fn report(
    benchmark: String,
    explorer: &Explorer,
    state: &ExploreState,
    eff_full: Option<Result<bool, String>>,
    checkpoint: PathBuf,
    overlay: Option<(String, PathBuf)>,
) -> RunReport {
    // The front is an O(archive^2) dominance sweep: compute it once and
    // share it between the report, the spread figure, and the overlay.
    let front = state.front_indices();
    let overlay = overlay.map(|(title, path)| {
        std::fs::write(&path, svg_front_overlay(&title, &overlay_points(state, &front)))
            .expect("write overlay");
        path
    });
    let cache = explorer.caches();
    let (stage_hits, stage_lookups, stage_unique) =
        explorer.stage_stats().iter().fold((0u64, 0u64, 0u64), |(h, t, u), s| {
            (h + s.hits, t + s.hits + s.misses, u + s.unique_misses)
        });
    RunReport {
        benchmark,
        evaluations: cache.yields.hits() + cache.yields.misses(),
        archive: state.archive.len(),
        front: front.len(),
        spread: front_spread(state, &front),
        yield_hits: cache.yields.hits(),
        stage_hit_rate: if stage_lookups == 0 {
            0.0
        } else {
            stage_hits as f64 / stage_lookups as f64
        },
        stage_unique,
        eff_full,
        checkpoint,
        overlay,
    }
}

/// How a run names itself in progress lines and the summary table:
/// the benchmark, plus `[i/N]` for a shard.
fn run_tag(name: &str, shard: Option<ShardSpec>) -> String {
    match shard {
        Some(spec) => format!("{name} [{spec}]"),
        None => name.to_string(),
    }
}

/// A whole run as the shard that owns every walk (spec `0/1`). Its
/// checkpoint carries no shard block, so its provenance stays empty.
fn whole_run(state: ExploreState) -> ShardState {
    ShardState { spec: ShardSpec { index: 0, of: 1 }, state, prov: Vec::new() }
}

/// Runs `name` to its round budget, whole (`shard` = `None`) or as one
/// shard, from `resume` or from fresh initial evaluations, writing the
/// checkpoint and cache sidecar after every round.
fn run_one(
    name: &str,
    shard: Option<ShardSpec>,
    config: ExploreConfig,
    out_dir: &Path,
    resume: Option<ShardState>,
    options: &RunOptions,
) -> RunReport {
    std::fs::create_dir_all(out_dir).expect("create output directory");
    let start = Instant::now();
    let label = shard.map_or_else(|| name.to_string(), |spec| spec.label(name));
    let explorer = build_explorer(name, &label, config, options);
    let mut run = resume.unwrap_or_else(|| {
        match shard {
            Some(spec) => explorer.initial_shard_state(spec),
            None => explorer.initial_state().map(whole_run),
        }
        .expect("initial evaluations")
    });
    let snapshot = |run: &ShardState| Checkpoint {
        run: name.to_string(),
        config,
        state: run.state.clone(),
        stage_hit_rates: if options.hit_rates {
            StageHitRate::from_stats(&explorer.stage_stats())
        } else {
            Vec::new()
        },
        shard: shard.map(|spec| ShardMeta { spec, prov: run.prov.clone() }),
    };
    let write_sidecar = || {
        write_atomic(&out_dir.join(sidecar::file_name(&label)), sidecar::render(explorer.caches()))
            .expect("write cache sidecar")
    };
    while run.state.rounds_done < config.rounds {
        if let Some(bound) = options.max_seconds {
            if run.state.rounds_done > 0 && start.elapsed().as_secs_f64() > bound {
                eprintln!(
                    "{}: wall-clock bound hit after {} rounds; stopping early",
                    run_tag(name, shard),
                    run.state.rounds_done
                );
                break;
            }
        }
        match shard {
            Some(_) => explorer.advance_shard_round(&mut run),
            None => explorer.advance_round(&mut run.state),
        }
        .expect("round");
        // Checkpoint after every round: a killed run resumes from here,
        // and the cache sidecar lets it resume *warm*.
        snapshot(&run).write(out_dir).expect("write checkpoint");
        write_sidecar();
    }
    // Always (re)write the final state: never report a stale file that
    // happened to be sitting in the output directory.
    let checkpoint_path = snapshot(&run).write(out_dir).expect("write checkpoint");
    write_sidecar();
    // eff-full is walk 0's starting point; only the run owning walk 0
    // can see it.
    let eff_full = (run.spec.index == 0)
        .then(|| eff_full_status(explorer.space(), &run.state, config.hardware));
    let overlay = options
        .overlay
        .then(|| (label.clone(), out_dir.join(format!("EXPLORE_{label}_front.svg"))));
    report(run_tag(name, shard), &explorer, &run.state, eff_full, checkpoint_path, overlay)
}

/// `--merge`: validates, merges, optionally re-prunes, writes, reports.
fn run_merge(args: &Args) {
    // Validation first: merge mode takes checkpoint files plus
    // --out-dir/--check/--archive-cap only. Everything else would
    // silently contradict the shards' recorded configs.
    if args.resume.is_some() || args.shard.is_some() {
        fail("--merge cannot be combined with --resume or --shard");
    }
    if args.quick
        || args.seed.is_some()
        || args.rounds.is_some()
        || args.walks.is_some()
        || args.steps.is_some()
        || args.screen.is_some()
        || args.epsilon.is_some()
        || args.acceptance.is_some()
        || args.no_recombine
        || args.fine_recombine
        || args.max_seconds.is_some()
        || args.hardware.is_some()
        || args.hit_rates
        || args.overlay
        || args.no_warm_start
        || args.warm_start.is_some()
    {
        fail(
            "--merge takes shard files plus --out-dir/--check/--archive-cap only \
              (the shards' recorded config governs everything else)",
        );
    }
    if args.names.is_empty() {
        fail("--merge needs at least one shard checkpoint file");
    }
    let mut shards = Vec::with_capacity(args.names.len());
    for file in &args.names {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| fail(format!("cannot read {file}: {e}")));
        shards.push(Checkpoint::parse(&text).unwrap_or_else(|e| fail(format!("{file}: {e}"))));
    }
    let mut merged = merge_checkpoints(&shards).unwrap_or_else(|e| fail(e));
    if let Some(cap) = args.archive_cap.filter(|&cap| cap > 0) {
        // Re-pruning needs the run's objective normalization, which is
        // anchored on the benchmark's zero-bus baseline design.
        require_benchmark(&merged.run);
        let config = ExploreConfig { archive_cap: Some(cap), ..merged.config };
        let circuit = qpd_benchmarks::build(&merged.run).expect("known benchmark");
        let space = ExploreSpace::new(circuit, config.max_aux);
        let explorer = Explorer::new(space, config).expect("baseline design");
        let before = merged.state.archive.len();
        explorer.prune_archive_to(&mut merged.state, cap);
        merged.config = config;
        eprintln!(
            "re-pruned merged archive {before} -> {} (cap {cap})",
            merged.state.archive.len()
        );
    }
    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let path = merged.write(&args.out_dir).expect("write merged checkpoint");
    let front = merged.state.front_indices().len();
    println!(
        "merged {} shard(s) of `{}`: rounds {}, archive {}, front {} -> {}",
        shards.len(),
        merged.run,
        merged.state.rounds_done,
        merged.state.archive.len(),
        front,
        path.display()
    );
    if args.check {
        let mut failures = Vec::new();
        if front == 0 {
            failures.push(format!("{}: empty merged Pareto front", merged.run));
        }
        let text = std::fs::read_to_string(&path).expect("checkpoint readable");
        match Checkpoint::parse(&text) {
            Ok(parsed) if parsed.render() != text => {
                failures.push(format!("{}: merged checkpoint not a render fixpoint", merged.run));
            }
            Ok(_) => {}
            Err(e) => failures.push(format!("{}: merged checkpoint unparseable: {e}", merged.run)),
        }
        if failures.is_empty() {
            println!("check: merge invariants hold");
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// `--resume`: validates everything (flags, file, config, benchmark)
/// before printing anything, then continues the run.
fn run_resume(args: &Args, options: &mut RunOptions) {
    let path = args.resume.as_ref().expect("resume mode");
    // Flag conflicts are reported before the checkpoint is even read:
    // the checkpoint's config governs the walk streams, so only the
    // round budget may be overridden (extending a finished run is fine —
    // later rounds get fresh `(seed, walk, round)` streams); every other
    // override would silently change what the original run was.
    if args.walks.is_some()
        || args.steps.is_some()
        || args.seed.is_some()
        || args.quick
        || args.screen.is_some()
        || args.epsilon.is_some()
        || args.acceptance.is_some()
        || args.no_recombine
        || args.fine_recombine
        || args.archive_cap.is_some()
        || args.hardware.is_some()
        || args.shard.is_some()
    {
        fail("--resume uses the checkpoint's config; only --rounds may be combined with it");
    }
    if !args.names.is_empty() {
        fail("--resume resumes one checkpointed run; benchmark names cannot be combined with it");
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
    let (mut checkpoint, version) = Checkpoint::parse_versioned(&text)
        .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    require_benchmark(&checkpoint.run);
    // Validation done — output and side effects may start.
    if version == 1 {
        eprintln!(
            "migrating {} from schema v{version}: continuing with {} acceptance, \
             no recombination, no screening (the run's original semantics)",
            path.display(),
            checkpoint.config.acceptance.as_str()
        );
    }
    if let Some(rounds) = args.rounds {
        checkpoint.config.rounds = rounds;
    }
    // A sidecar next to the checkpoint warms the resumed caches
    // (unless the operator asked for a cold resume).
    if !args.no_warm_start {
        options.warm_from = path.parent().map(|p| p.to_path_buf());
    }
    let (run, config) = (checkpoint.run.clone(), checkpoint.config);
    let shard = checkpoint.shard.as_ref().map(|meta| meta.spec);
    eprintln!(
        "resuming {} at round {}/{}",
        run_tag(&run, shard),
        checkpoint.state.rounds_done,
        config.rounds
    );
    let resumed = checkpoint.to_shard_state().unwrap_or_else(|| whole_run(checkpoint.state));
    let report = run_one(&run, shard, config, &args.out_dir, Some(resumed), options);
    print_table(std::slice::from_ref(&report));
    if args.check {
        check(std::slice::from_ref(&report));
    }
}

fn main() {
    let args = parse_args();
    if args.merge {
        run_merge(&args);
        return;
    }
    let mut options = RunOptions {
        overlay: args.overlay,
        max_seconds: args.max_seconds,
        hit_rates: args.hit_rates,
        warm_from: None,
        warm_file: args.warm_start.clone(),
    };
    if args.resume.is_some() {
        run_resume(&args, &mut options);
        return;
    }

    let config = config_from(&args);
    let names: Vec<String> = if args.names.is_empty() {
        if args.quick {
            vec!["sym6_145".to_string()]
        } else {
            // The paper profiles small enough to search end-to-end in
            // one sitting; pass names explicitly for the rest.
            vec!["sym6_145".to_string(), "UCCSD_ansatz_8".to_string(), "z4_268".to_string()]
        }
    } else {
        args.names.clone()
    };
    // Validate every name (and the shard shape) before running — or
    // writing — anything.
    for name in &names {
        require_benchmark(name);
    }
    if let Some(spec) = args.shard {
        if args.overlay {
            fail("--overlay plots a whole run; apply it after --merge instead of per shard");
        }
        if let Err(why) = config.shardable() {
            fail(format!("--shard needs an independent-walk config: {why}"));
        }
        if spec.walk_ids(config.walks).is_empty() {
            fail(format!("shard {spec} of a {}-walk run owns no walks", config.walks));
        }
    }

    let mut reports = Vec::new();
    for name in &names {
        eprint!("exploring {} ... ", run_tag(name, args.shard));
        let start = std::time::Instant::now();
        reports.push(run_one(name, args.shard, config, &args.out_dir, None, &options));
        eprintln!("done ({:.1?})", start.elapsed());
    }
    print_table(&reports);

    if args.check {
        check(&reports);
    }
}

fn print_table(reports: &[RunReport]) {
    println!(
        "\n{:<16} {:>6} {:>8} {:>6} {:>7} {:>10} {:>9} {:>6}  {:<26} checkpoint",
        "benchmark",
        "evals",
        "archive",
        "front",
        "spread",
        "cache-hit",
        "stage-hit",
        "uniq",
        "eff-full"
    );
    for r in reports {
        let eff = match &r.eff_full {
            None => "n/a (shard)".to_string(),
            Some(Ok(true)) => "on front".to_string(),
            Some(Ok(false)) => "NOT EVALUATED".to_string(),
            Some(Err(by)) => format!("dominated by {by}"),
        };
        println!(
            "{:<16} {:>6} {:>8} {:>6} {:>7.3} {:>10} {:>8.1}% {:>6}  {:<26} {}",
            r.benchmark,
            r.evaluations,
            r.archive,
            r.front,
            r.spread,
            r.yield_hits,
            100.0 * r.stage_hit_rate,
            r.stage_unique,
            eff,
            r.checkpoint.display()
        );
        if let Some(overlay) = &r.overlay {
            println!("{:<16} overlay: {}", "", overlay.display());
        }
    }
}

/// Smoke assertions for CI: non-empty front, eff-full evaluated (where
/// the run could see it), a checkpoint that parses back to the exact
/// same bytes, and (when requested) an overlay that was actually
/// written.
fn check(reports: &[RunReport]) {
    let mut failures = Vec::new();
    for r in reports {
        if r.front == 0 {
            failures.push(format!("{}: empty Pareto front", r.benchmark));
        }
        if matches!(r.eff_full, Some(Ok(false))) {
            failures.push(format!("{}: eff-full was never evaluated", r.benchmark));
        }
        let text = std::fs::read_to_string(&r.checkpoint).expect("checkpoint readable");
        match Checkpoint::parse(&text) {
            Ok(parsed) => {
                if parsed.render() != text {
                    failures.push(format!("{}: checkpoint not a render fixpoint", r.benchmark));
                }
            }
            Err(e) => failures.push(format!("{}: checkpoint unparseable: {e}", r.benchmark)),
        }
        if let Some(overlay) = &r.overlay {
            match std::fs::read_to_string(overlay) {
                Ok(svg) if svg.contains("</svg>") => {}
                _ => failures.push(format!("{}: overlay SVG missing or truncated", r.benchmark)),
            }
        }
    }
    if failures.is_empty() {
        println!("\ncheck: all smoke invariants hold");
    } else {
        for f in &failures {
            eprintln!("check FAILED: {f}");
        }
        std::process::exit(1);
    }
}
