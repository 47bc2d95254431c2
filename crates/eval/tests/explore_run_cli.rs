//! CLI contract of `explore_run`: every usage error is a one-line
//! `error: ...` on stderr with exit code 2, reported **before** any
//! run output or filesystem side effect — a bad invocation never
//! prints "resuming", never warm-starts, and never leaves partial
//! artifacts. Plus the shard/merge verbs end-to-end as real processes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn explore_run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_explore_run"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    explore_run().args(args).output().expect("spawn explore_run")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts a usage error: exit 2, a single `error:` line, and no trace
/// of the run having started (no resume/warm-start notices — the
/// validation-order guarantee).
fn assert_usage_error(out: &Output, needle: &str) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.starts_with("error: "), "stderr: {err}");
    assert!(err.contains(needle), "stderr missing {needle:?}: {err}");
    for started in ["resuming", "warm start", "exploring", "migrating"] {
        assert!(!err.contains(started), "error printed after run output: {err}");
    }
    assert!(out.stdout.is_empty(), "usage errors must not print run output");
}

/// A quick run to produce a checkpoint for the resume cases. Walks are
/// kept at the quick default so the checkpoint is shard-compatible.
fn quick_checkpoint(dir: &Path) -> PathBuf {
    let out = explore_run()
        .args(["--quick", "--rounds", "1", "--out-dir"])
        .arg(dir)
        .arg("sym6_145")
        .output()
        .expect("spawn explore_run");
    assert!(out.status.success(), "seed run failed: {}", stderr(&out));
    dir.join("EXPLORE_sym6_145.json")
}

#[test]
fn conflicting_resume_flags_error_before_any_side_effect() {
    let dir = tmp_dir("cli_resume_conflicts");
    let checkpoint = quick_checkpoint(&dir);
    let cp = checkpoint.to_str().unwrap();
    // Flag conflicts are rejected without touching the checkpoint, the
    // output directory, or the cache sidecar.
    for conflict in [
        vec!["--resume", cp, "--archive-cap", "5"],
        vec!["--resume", cp, "--seed", "9"],
        vec!["--resume", cp, "--walks", "3"],
        vec!["--resume", cp, "--quick"],
        vec!["--resume", cp, "--shard", "0/2"],
    ] {
        let out = run(&conflict);
        assert_usage_error(&out, "--resume");
    }
    // Benchmark names cannot ride along either.
    assert_usage_error(&run(&["--resume", cp, "sym6_145"]), "benchmark names");
    // An unreadable checkpoint is an error before any notice.
    assert_usage_error(&run(&["--resume", "/nonexistent/EXPLORE_x.json"]), "cannot read");
}

#[test]
fn unknown_inputs_error_cleanly_before_running_anything() {
    let dir = tmp_dir("cli_unknown");
    let out = explore_run()
        .args(["--quick", "--out-dir"])
        .arg(&dir)
        .args(["sym6_145", "not_a_benchmark"])
        .output()
        .expect("spawn explore_run");
    // The bad name is rejected before the *first* (valid) benchmark
    // runs: no partial artifacts.
    assert_usage_error(&out, "unknown benchmark");
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a usage error must not leave partial artifacts"
    );
    assert_usage_error(&run(&["--frobnicate"]), "unknown argument");
    assert_usage_error(&run(&["--shard", "2/2", "--quick"]), "shard");
    assert_usage_error(&run(&["--shard", "0/2", "--acceptance", "dominance", "--quick"]), "shard");
    assert_usage_error(&run(&["--merge"]), "at least one");
    assert_usage_error(&run(&["--merge", "--seed", "4", "a.json"]), "--merge");
}

#[test]
fn shard_then_merge_matches_the_single_process_run_byte_for_byte() {
    let single = tmp_dir("cli_single");
    let sharded = tmp_dir("cli_shards");
    let merged = tmp_dir("cli_merged");
    // Reference: one process, the shardable config shape spelled out.
    let out = explore_run()
        .args(["--quick", "--acceptance", "scalarized", "--no-recombine", "--out-dir"])
        .arg(&single)
        .arg("sym6_145")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    // The same run as two shard processes at different thread counts
    // (`--shard` defaults the shardable shape).
    for (index, threads) in [(0, "1"), (1, "8")] {
        let out = explore_run()
            .args(["--quick", "--shard", &format!("{index}/2"), "--out-dir"])
            .arg(&sharded)
            .arg("sym6_145")
            .env("QPD_THREADS", threads)
            .output()
            .unwrap();
        assert!(out.status.success(), "shard {index}: {}", stderr(&out));
    }
    // Merge in reversed input order; order must not matter.
    let out = explore_run()
        .args(["--merge", "--check", "--out-dir"])
        .arg(&merged)
        .arg(sharded.join("EXPLORE_sym6_145_shard1of2.json"))
        .arg(sharded.join("EXPLORE_sym6_145_shard0of2.json"))
        .output()
        .unwrap();
    assert!(out.status.success(), "merge: {}", stderr(&out));
    let reference = std::fs::read(single.join("EXPLORE_sym6_145.json")).unwrap();
    let rebuilt = std::fs::read(merged.join("EXPLORE_sym6_145.json")).unwrap();
    assert_eq!(reference, rebuilt, "shard(2) + merge diverged from the single-process bytes");
}

#[test]
fn a_shard_checkpoint_resumes_as_that_shard() {
    let dir = tmp_dir("cli_shard_resume");
    let full = tmp_dir("cli_shard_resume_full");
    // Shard 0/2 cut after one round, then resumed to the full budget.
    for rounds in ["1", "2"] {
        let mut cmd = explore_run();
        if rounds == "1" {
            cmd.args(["--quick", "--rounds", "1", "--shard", "0/2", "--out-dir"])
                .arg(&dir)
                .arg("sym6_145");
        } else {
            // Only --rounds may combine with --resume; the checkpoint's
            // config carries the quick budgets.
            cmd.args(["--rounds", "2", "--resume"])
                .arg(dir.join("EXPLORE_sym6_145_shard0of2.json"))
                .args(["--out-dir"])
                .arg(&dir);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "rounds={rounds}: {}", stderr(&out));
        if rounds == "2" {
            assert!(stderr(&out).contains("[0/2]"), "resume did not detect the shard tag");
        }
    }
    // Byte-identical to the uninterrupted shard run.
    let out = explore_run()
        .args(["--quick", "--rounds", "2", "--shard", "0/2", "--out-dir"])
        .arg(&full)
        .arg("sym6_145")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(dir.join("EXPLORE_sym6_145_shard0of2.json")).unwrap(),
        std::fs::read(full.join("EXPLORE_sym6_145_shard0of2.json")).unwrap(),
        "kill/resume of a shard diverged from the uninterrupted shard"
    );
}

#[test]
fn a_whole_run_checkpoint_resumes_byte_for_byte() {
    let dir = tmp_dir("cli_whole_resume");
    let full = tmp_dir("cli_whole_resume_full");
    // Cut after one round, then resumed to two: only --rounds may
    // combine with --resume, the checkpoint carries the quick budgets.
    let checkpoint = quick_checkpoint(&dir);
    let out = explore_run()
        .args(["--rounds", "2", "--resume"])
        .arg(&checkpoint)
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("resuming sym6_145 at round 1/2"), "{}", stderr(&out));
    let out = explore_run()
        .args(["--quick", "--rounds", "2", "--out-dir"])
        .arg(&full)
        .arg("sym6_145")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    for file in ["EXPLORE_sym6_145.json", "EXPLORE_sym6_145_caches.json"] {
        assert_eq!(
            std::fs::read(dir.join(file)).unwrap(),
            std::fs::read(full.join(file)).unwrap(),
            "{file}: kill/resume of a whole run diverged from the uninterrupted run"
        );
    }
}
