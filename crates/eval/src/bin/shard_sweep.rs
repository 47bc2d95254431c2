//! Fleet driver: a benchmark-family × hardware-family sweep as one
//! command, each run sharded across OS processes and merged back.
//!
//! For every requested benchmark and hardware family the sweep spawns
//! `--shards N` `explore_run --shard i/N` child processes (one per
//! core by default, each pinned to one worker thread so N shards don't
//! oversubscribe the host), waits for the cohort, and merges the
//! shard-tagged checkpoints in-process into the whole-run
//! `EXPLORE_<benchmark>.json` — byte-identical to what a single
//! process would have written (see [`qpd_explore::merge`]).
//!
//! Families run in sequence and **warm-start each other**: shard `i`
//! of family `k+1` is launched with `--warm-start` pointing at shard
//! `i`'s cache sidecar from family `k`. Stage caches are content-keyed
//! (the hardware family is part of every key that depends on it), so
//! the warm entries can never change results — family-independent
//! stages (placement, bus layout, routing) simply hit instead of
//! recompute.
//!
//! Usage:
//!   shard_sweep [--shards N] [--quick] [--check] [--seed N]
//!               [--rounds N] [--walks N] [--steps N] [--out-dir DIR]
//!               [--families fixed,tunable,heavyhex] [names...]
//!
//! Output lands in `DIR/<family>/`: N shard checkpoints (plus their
//! cache sidecars) and the merged whole-run checkpoint per benchmark.
//! `--check` asserts the merge invariants (non-empty front, render
//! fixpoint) for every merged checkpoint and exits non-zero on
//! violation. All usage errors report as `error: ...` with exit code 2
//! before anything is spawned or written.

use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::Instant;

use qpd_explore::sidecar;
use qpd_explore::{merge_checkpoints, Checkpoint, HardwareSweep, ShardSpec};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

struct Args {
    shards: usize,
    quick: bool,
    check: bool,
    seed: Option<u64>,
    rounds: Option<usize>,
    walks: Option<usize>,
    steps: Option<usize>,
    out_dir: PathBuf,
    families: Vec<String>,
    names: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        shards: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        quick: false,
        check: false,
        seed: None,
        rounds: None,
        walks: None,
        steps: None,
        out_dir: PathBuf::from("."),
        families: vec!["fixed".into(), "tunable".into(), "heavyhex".into()],
        names: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |flag: &str| it.next().unwrap_or_else(|| fail(format!("{flag} needs a value")));
        match arg.as_str() {
            "--shards" => {
                args.shards = value("--shards")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| fail("--shards needs a positive number"))
            }
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
            "--families" => {
                args.families =
                    value("--families").split(',').map(|s| s.trim().to_string()).collect()
            }
            other if !other.starts_with("--") => args.names.push(other.to_string()),
            other => fail(format!("unknown argument {other:?}")),
        }
    }
    args
}

/// The sibling `explore_run` binary — shard children are the same
/// build as the sweep driver, never whatever happens to be on `PATH`.
fn explore_run_bin() -> PathBuf {
    let mut path = std::env::current_exe().expect("current exe");
    path.pop();
    path.push(format!("explore_run{}", std::env::consts::EXE_SUFFIX));
    path
}

struct SweepRow {
    name: String,
    family: String,
    shards: usize,
    rounds: usize,
    archive: usize,
    front: usize,
    seconds: f64,
    checkpoint: PathBuf,
}

fn main() {
    let args = parse_args();
    // ---- validation: nothing spawned or written before this block ends.
    let names: Vec<String> =
        if args.names.is_empty() { vec!["sym6_145".to_string()] } else { args.names.clone() };
    for name in &names {
        if qpd_benchmarks::build(name).is_err() {
            fail(format!("unknown benchmark `{name}`"));
        }
    }
    if args.families.is_empty() {
        fail("--families needs at least one family");
    }
    for family in &args.families {
        if HardwareSweep::parse(family).is_none() {
            fail(format!("unknown hardware family {family:?}"));
        }
    }
    let bin = explore_run_bin();
    if !bin.exists() {
        fail(format!("explore_run binary not found next to shard_sweep ({})", bin.display()));
    }
    // A shard owning zero walks is a usage error in explore_run; clamp
    // the fan-out to the walk count instead of tripping it.
    let walks = args.walks.unwrap_or_else(|| {
        if args.quick {
            qpd_explore::ExploreConfig::quick().walks
        } else {
            qpd_explore::ExploreConfig::default().walks
        }
    });
    let shards = args.shards.min(walks).max(1);
    if shards < args.shards {
        eprintln!("note: clamping --shards {} to the {walks}-walk budget", args.shards);
    }

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for name in &names {
        for (fi, family) in args.families.iter().enumerate() {
            let out = args.out_dir.join(family);
            std::fs::create_dir_all(&out).expect("create output directory");
            let start = Instant::now();
            eprintln!("sweep: {name} on {family}, {shards} shard process(es)");
            let mut children: Vec<(usize, Child)> = Vec::new();
            for index in 0..shards {
                let spec = ShardSpec { index, of: shards };
                let mut cmd = Command::new(&bin);
                cmd.arg("--shard").arg(spec.to_string());
                cmd.arg("--hardware").arg(family);
                cmd.arg("--out-dir").arg(&out);
                if args.quick {
                    cmd.arg("--quick");
                }
                if let Some(seed) = args.seed {
                    cmd.arg("--seed").arg(seed.to_string());
                }
                if let Some(rounds) = args.rounds {
                    cmd.arg("--rounds").arg(rounds.to_string());
                }
                if let Some(w) = args.walks {
                    cmd.arg("--walks").arg(w.to_string());
                }
                if let Some(steps) = args.steps {
                    cmd.arg("--steps").arg(steps.to_string());
                }
                // Cross-family warm start: this shard's sidecar from the
                // previous family. Content-keyed caches make this safe;
                // explore_run stays silently cold if the file is absent.
                if fi > 0 {
                    let prev = args.out_dir.join(&args.families[fi - 1]);
                    let label = spec.label(name);
                    cmd.arg("--warm-start").arg(prev.join(sidecar::file_name(&label)));
                }
                cmd.arg(name);
                // One process per core: keep each shard on one worker
                // thread unless the operator pinned QPD_THREADS.
                if std::env::var_os("QPD_THREADS").is_none() {
                    cmd.env("QPD_THREADS", "1");
                }
                let child = cmd.spawn().unwrap_or_else(|e| {
                    fail(format!("cannot spawn {} for shard {spec}: {e}", bin.display()))
                });
                children.push((index, child));
            }
            let mut cohort_ok = true;
            for (index, mut child) in children {
                let status = child.wait().expect("wait on shard child");
                if !status.success() {
                    failures.push(format!(
                        "{name}/{family}: shard {index}/{shards} exited with {status}"
                    ));
                    cohort_ok = false;
                }
            }
            if !cohort_ok {
                continue;
            }
            // Reduce: parse the shard checkpoints and merge in-process.
            let mut checkpoints = Vec::with_capacity(shards);
            for index in 0..shards {
                let spec = ShardSpec { index, of: shards };
                let path = out.join(Checkpoint::shard_file_name(name, spec));
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    fail(format!("cannot read shard checkpoint {}: {e}", path.display()))
                });
                checkpoints.push(
                    Checkpoint::parse(&text)
                        .unwrap_or_else(|e| fail(format!("{}: {e}", path.display()))),
                );
            }
            let merged = merge_checkpoints(&checkpoints).unwrap_or_else(|e| fail(e));
            let path = merged.write(&out).expect("write merged checkpoint");
            if args.check {
                let text = std::fs::read_to_string(&path).expect("checkpoint readable");
                match Checkpoint::parse(&text) {
                    Ok(parsed) if parsed.render() != text => {
                        failures.push(format!("{name}/{family}: merged checkpoint not a fixpoint"))
                    }
                    Ok(_) => {}
                    Err(e) => failures.push(format!("{name}/{family}: merged unparseable: {e}")),
                }
                if merged.state.front_indices().is_empty() {
                    failures.push(format!("{name}/{family}: empty merged front"));
                }
            }
            rows.push(SweepRow {
                name: name.clone(),
                family: family.clone(),
                shards,
                rounds: merged.state.rounds_done,
                archive: merged.state.archive.len(),
                front: merged.state.front_indices().len(),
                seconds: start.elapsed().as_secs_f64(),
                checkpoint: path,
            });
        }
    }

    println!(
        "\n{:<16} {:<9} {:>6} {:>6} {:>8} {:>6} {:>8}  merged checkpoint",
        "benchmark", "family", "shards", "rounds", "archive", "front", "seconds"
    );
    for r in &rows {
        println!(
            "{:<16} {:<9} {:>6} {:>6} {:>8} {:>6} {:>8.1}  {}",
            r.name,
            r.family,
            r.shards,
            r.rounds,
            r.archive,
            r.front,
            r.seconds,
            r.checkpoint.display()
        );
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("sweep FAILED: {f}");
        }
        std::process::exit(1);
    }
}
