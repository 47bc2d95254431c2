//! The qpd benchmark: runs one workload from a seed, checks its outputs,
//! and prints its metrics as the last line of standard output.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload both plainly and with every call into a layer timed from
//! outside, and prints the per-layer metrics. See `README.md` for the
//! workloads, the metrics and the layer map.

mod design;
mod explore;
mod gen;
mod measure;
mod serve;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use measure::{median, Metrics, END_TO_END};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["design_sweep", "explore_pareto", "serve_closed_loop"];

/// Fresh processes timed from spawn to the end of set-up; `setup_s` is
/// their median. At least `.0` probes, more while they take less than
/// `.1` seconds in all, at most `.2`.
const SETUP_PROBES: (usize, f64, usize) = (9, 1.0, 41);

/// Layer calls must account for at least this share of a traced run's
/// wall time, or the trace is hiding where the time goes.
const MIN_COVERAGE: f64 = 0.9;

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (programs, explorations, requests).
    pub attempted: u64,
    /// Failed or refused operations plus failed output checks.
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.report.push(format!("FAILED: {message}"));
    }

    pub fn mismatches(&mut self, messages: impl IntoIterator<Item = String>) {
        for m in messages {
            self.fail(m);
        }
    }

    pub fn coverage(&mut self, share: f64) {
        self.metrics.set("trace.coverage", share);
        self.report.push(format!("trace: layer calls cover {:.1}% of wall time", 100.0 * share));
        if share < MIN_COVERAGE {
            self.fail(format!(
                "layer coverage {:.1}% is below {:.0}%",
                100.0 * share,
                100.0 * MIN_COVERAGE
            ));
        }
    }

    pub fn overhead(&mut self, share: f64) {
        self.metrics.set("trace.overhead", share);
        self.report
            .push(format!("trace: traced run is {:+.2}% slower than untraced", 100.0 * share));
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Option<Args> {
    let mut out = Args { workload: "", seed: 1, seconds: 10.0, trace: false, setup_probe: false };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let name = args.next()?;
                out.workload = WORKLOADS.into_iter().find(|w| *w == name)?;
            }
            "--seed" => out.seed = args.next()?.parse().ok()?,
            "--seconds" => out.seconds = args.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => out.trace = args.next()? == "1",
            "--setup-probe" => out.setup_probe = true,
            _ => return None,
        }
    }
    (!out.workload.is_empty()).then_some(out)
}

/// A workload's inputs and resources, ready for the first timed call.
enum Prepared {
    Design,
    Explore(std::collections::HashMap<&'static str, qpd_circuit::Circuit>),
    Serve(serve::Daemon),
}

fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set-up: spawn the process-wide worker pool (here, not inside the
/// first timed call), then build the workload's inputs and resources.
/// Lazy state inside the crates is left to the first timed calls; the
/// per-program and per-slice medians discount it.
fn setup(workload: &str) -> std::io::Result<Prepared> {
    qpd_par::par_map(&[(); 4], |_| ());
    Ok(match workload {
        "design_sweep" => Prepared::Design,
        "explore_pareto" => Prepared::Explore(explore::setup()),
        _ => Prepared::Serve(serve::Daemon::start(connections())?),
    })
}

/// Times fresh processes from spawn until they report set-up done.
fn probe_setup(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (min, budget, max) = SETUP_PROBES;
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (samples.len() < max && begin.elapsed().as_secs_f64() < budget) {
        samples.push({
            let start = Instant::now();
            let mut child = Command::new(&exe)
                .args(["--setup-probe", "--workload", args.workload])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| e.to_string())?;
            let mut line = String::new();
            let read =
                BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
            let elapsed = start.elapsed().as_secs_f64();
            let status = child.wait().map_err(|e| e.to_string())?;
            match (read, line.trim()) {
                (Ok(_), "ready") if status.success() => elapsed,
                _ => return Err(format!("set-up probe failed ({status})")),
            }
        });
    }
    Ok(samples)
}

/// Host and build context. Results are comparable only between runs
/// with the same `comparable` key.
fn context(args: &Args) -> String {
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "--short", "HEAD"])
                .stderr(Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let qpd_threads = std::env::var("QPD_THREADS").unwrap_or_else(|_| "unset".into());
    let (nproc, threads) = (connections(), qpd_par::threads());
    format!(
        "context: workload={} seed={} seconds={} trace={} nproc={nproc} QPD_THREADS={qpd_threads} \
         threads={threads} commit={commit} profile={profile} comparable=nproc{nproc}-threads{threads}-{profile}",
        args.workload, args.seed, args.seconds, args.trace as u8
    )
}

/// The process's peak resident set, as the kernel reports it.
fn peak_memory() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    Some(line["VmHWM:".len()..].trim().to_string())
}

fn main() -> ExitCode {
    let Some(args) = parse_args(std::env::args().skip(1)) else { return usage() };
    if args.setup_probe {
        let prepared = setup(args.workload).expect("set-up");
        println!("ready");
        if let Prepared::Serve(daemon) = prepared {
            daemon.stop().expect("daemon shutdown");
        }
        return ExitCode::SUCCESS;
    }
    println!("{}", context(&args));
    let probes = if args.trace { Ok(Vec::new()) } else { probe_setup(&args) };
    let start = Instant::now();
    let prepared = match setup(args.workload) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("setup: {:.4} s in this process", start.elapsed().as_secs_f64());
    let mut out = match prepared {
        Prepared::Design => design::run(args.seed, args.seconds, args.trace),
        Prepared::Explore(circuits) => explore::run(&circuits, args.seed, args.seconds, args.trace),
        Prepared::Serve(daemon) => {
            serve::run(daemon, args.seed, args.seconds, args.trace, connections())
        }
    };
    match probes {
        Ok(samples) if !args.trace => {
            let (lo, hi) =
                samples.iter().fold((f64::MAX, 0.0f64), |(a, b), &x| (a.min(x), b.max(x)));
            out.report.push(format!(
                "setup: median {:.4} s (min {lo:.4}, max {hi:.4}) over {} fresh processes",
                median(&samples),
                samples.len()
            ));
            out.metrics.set("setup_s", median(&samples));
        }
        Ok(_) => {}
        Err(e) => out.fail(e),
    }
    if let Some(hwm) = peak_memory() {
        out.report.push(format!("memory: peak resident {hwm}"));
    }
    for line in &out.report {
        println!("{line}");
    }
    let error_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!("error_share: {error_share} ({} failed of {} attempted)", out.failed, out.attempted);
    let declared: Vec<(String, &str)> = if args.trace {
        measure::per_layer()
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let correct = out.failed == 0;
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        out.attempted.max(1),
        out.failed,
        out.metrics.render(&declared)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
