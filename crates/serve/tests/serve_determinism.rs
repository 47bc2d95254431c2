//! End-to-end byte-identity of daemon responses: the same request line
//! gets the same bytes back cold, warm, concurrently with other
//! clients, after a restart that warm-started from the cache sidecar,
//! and for every evaluation thread count — and a `design` response is
//! byte-identical to a direct in-process engine with no daemon at all.
//! The engine memo is bounded, and neither eviction nor a failed build
//! changes what any request observes.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use qpd_explore::{sidecar, CandidateSpec, Checkpoint, ExploreSpace, Explorer, Json};
use qpd_serve::protocol::{self, Request};
use qpd_serve::server::ENGINE_CAP;
use qpd_serve::{Client, Exchange, Server, ServerConfig};

const DESIGN: &str = r#"{"id":"d1","op":"design","benchmark":"cm152a_212"}"#;
const EXPLORE: &str = r#"{"id":"e1","op":"explore","benchmark":"cm152a_212","label":"det","config":{"walks":2,"rounds":2,"steps":1,"alloc_trials":40,"yield_trials":200},"stream":true}"#;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(
    out_dir: &Path,
    warm_start: Option<PathBuf>,
    eval_threads: Option<usize>,
    queue_cap: usize,
) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap,
        out_dir: out_dir.to_path_buf(),
        warm_start,
        eval_threads,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn shut_down(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).unwrap();
    client.request_raw(r#"{"id":"stop","op":"shutdown"}"#).unwrap();
    handle.join().unwrap().unwrap();
}

/// What the daemon should say for [`DESIGN`], computed with a fresh
/// cold in-process engine — no server, no shared caches.
fn direct_design_line() -> String {
    let req = protocol::parse_request(DESIGN).unwrap();
    let Request::Design { source, settings, .. } = req.body else { unreachable!() };
    let protocol::Source::Benchmark(name) = source else { unreachable!() };
    let circuit = qpd_benchmarks::build(&name).unwrap();
    let config = settings.to_config();
    let explorer = Explorer::new(ExploreSpace::new(circuit, config.max_aux), config).unwrap();
    let spec = CandidateSpec::eff_full(explorer.space().full_weighted_len());
    let line = protocol::ok_line(&req.id, explorer.evaluate(&spec).unwrap().to_json());
    line.trim_end().to_string()
}

#[test]
fn responses_are_byte_identical_cold_warm_concurrent_restart_and_threads() {
    let expected_design = direct_design_line();
    let mut per_thread_count: Vec<(Exchange, Exchange)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let dir = tmp_dir(&format!("det_t{threads}"));
        let (addr, handle) = start(&dir, None, Some(threads), 8);
        let mut client = Client::connect(addr).unwrap();

        let design_cold = client.request_raw(DESIGN).unwrap();
        assert_eq!(design_cold.response, expected_design, "cold daemon vs direct engine");
        let explore_cold = client.request_raw(EXPLORE).unwrap();
        assert!(!explore_cold.events.is_empty(), "streamed explore emitted no round events");

        let design_warm = client.request_raw(DESIGN).unwrap();
        let explore_warm = client.request_raw(EXPLORE).unwrap();
        assert_eq!(design_warm, design_cold, "warm repeat changed design bytes");
        assert_eq!(explore_warm, explore_cold, "warm repeat changed explore bytes/events");

        // Four clients hammering the same two requests concurrently.
        let racers: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let line = if i % 2 == 0 { DESIGN } else { EXPLORE };
                    Client::connect(addr).unwrap().request_raw(line).unwrap()
                })
            })
            .collect();
        for (i, racer) in racers.into_iter().enumerate() {
            let got = racer.join().unwrap();
            let want = if i % 2 == 0 { &design_cold } else { &explore_cold };
            assert_eq!(&got, want, "concurrent client {i} observed different bytes");
        }

        shut_down(addr, handle);
        let sidecar_path = dir.join(sidecar::file_name("serve"));
        assert!(sidecar_path.exists(), "shutdown did not persist the cache sidecar");

        // Restart warm-started from the sidecar: same bytes again.
        let dir2 = tmp_dir(&format!("det_t{threads}_restart"));
        let (addr2, handle2) = start(&dir2, Some(sidecar_path), Some(threads), 8);
        let mut client2 = Client::connect(addr2).unwrap();
        assert_eq!(
            client2.request_raw(DESIGN).unwrap(),
            design_cold,
            "restarted daemon (warm sidecar) changed design bytes"
        );
        assert_eq!(
            client2.request_raw(EXPLORE).unwrap(),
            explore_cold,
            "restarted daemon (warm sidecar) changed explore bytes"
        );
        shut_down(addr2, handle2);

        per_thread_count.push((design_cold, explore_cold));
    }
    let (d1, e1) = &per_thread_count[0];
    for (i, (d, e)) in per_thread_count.iter().enumerate().skip(1) {
        assert_eq!(d, d1, "design bytes differ between thread counts (index {i})");
        assert_eq!(e, e1, "explore bytes differ between thread counts (index {i})");
    }
}

#[test]
fn shutdown_checkpoints_in_flight_explores() {
    let dir = tmp_dir("det_cut");
    let (addr, handle) = start(&dir, None, Some(2), 8);
    // Rounds no machine clears in 200 ms: the shutdown must land
    // mid-run. No explicit label, so the checkpoint keeps the
    // benchmark-named default and stays `explore_run --resume`-able.
    let long = r#"{"id":"cut","op":"explore","benchmark":"cm152a_212","config":{"walks":2,"rounds":200000,"steps":1,"alloc_trials":40,"yield_trials":200}}"#;
    let racer =
        std::thread::spawn(move || Client::connect(addr).unwrap().request_raw(long).unwrap());
    std::thread::sleep(std::time::Duration::from_millis(200));
    shut_down(addr, handle);
    let exchange = racer.join().unwrap();
    let response = Json::parse(&exchange.response).unwrap();
    let result = response.get("result").expect("in-flight explore still got a response");
    assert_eq!(result.get("truncated").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("reason").and_then(Json::as_str), Some("shutdown"));
    let path = result.get("checkpoint").and_then(Json::as_str).expect("checkpoint path");
    let checkpoint = Checkpoint::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(checkpoint.run, "cm152a_212", "default label keeps the checkpoint resumable");
    assert!(checkpoint.state.rounds_done < 200_000, "the run was not actually cut");
    assert!(!checkpoint.state.archive.is_empty(), "cut state lost its archive");
}

#[test]
fn admission_control_rejects_deterministically_and_control_ops_bypass() {
    // queue_cap 0: every design/explore is rejected with the exact
    // documented bytes; stats and shutdown still work.
    let dir = tmp_dir("det_admission");
    let (addr, handle) = start(&dir, None, Some(1), 0);
    let mut client = Client::connect(addr).unwrap();
    let reject =
        client.request_raw(r#"{"id":"b","op":"design","benchmark":"cm152a_212"}"#).unwrap();
    assert_eq!(format!("{}\n", reject.response), protocol::overloaded_line("b"));
    let stats = client.request_raw(r#"{"id":"s","op":"stats"}"#).unwrap();
    let doc = Json::parse(&stats.response).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "stats blocked by full queue");
    let stages = doc.get("result").and_then(|r| r.get("stages")).expect("stage counters");
    assert!(matches!(stages, Json::Arr(v) if v.len() == 5), "expected all five stages");
    shut_down(addr, handle);
}

#[test]
fn wire_errors_are_final_and_the_connection_stays_usable() {
    let dir = tmp_dir("det_errors");
    let (addr, handle) = start(&dir, None, Some(1), 8);
    let mut client = Client::connect(addr).unwrap();
    for (line, code) in [
        (r#"{"id":"u","op":"design","benchmark":"no_such_bench"}"#, "unknown_benchmark"),
        (r#"{"id":"q","op":"design","qasm":"OPENQASM 9.9;"}"#, "bad_qasm"),
        (r#"{"id":"m","op":"warp"}"#, "bad_request"),
    ] {
        let exchange = client.request_raw(line).unwrap();
        let doc = Json::parse(&exchange.response).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        let got = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(got, Some(code), "{line}");
    }
    // Malformed JSON: id is unrecoverable, echoed as null.
    let exchange = client.request_raw("{nope}").unwrap();
    assert_eq!(Json::parse(&exchange.response).unwrap().get("id"), Some(&Json::Null));
    // The same connection still serves real work afterwards.
    let ok = client.request_raw(DESIGN).unwrap();
    assert_eq!(Json::parse(&ok.response).unwrap().get("ok"), Some(&Json::Bool(true)));
    shut_down(addr, handle);
}

#[test]
fn budgets_truncate_at_round_barriers() {
    let dir = tmp_dir("det_budget");
    let (addr, handle) = start(&dir, None, Some(2), 8);
    let mut client = Client::connect(addr).unwrap();
    // max_rounds clamps before the run: deterministic, not truncation.
    let clamped = client
        .request_raw(
            r#"{"id":"mr","op":"explore","benchmark":"cm152a_212","label":"mr","config":{"walks":2,"rounds":9,"steps":1,"alloc_trials":40,"yield_trials":200},"budget":{"max_rounds":1}}"#,
        )
        .unwrap();
    let result = Json::parse(&clamped.response).unwrap();
    let result = result.get("result").expect("explore result");
    assert_eq!(result.get("rounds_done").and_then(Json::as_u64), Some(1));
    assert_eq!(result.get("truncated").and_then(Json::as_bool), Some(false));
    // max_candidates stops at a round barrier and says why. The initial
    // walk evaluations already archive >= 1 candidate, so the barrier
    // check trips before round one.
    let cut = client
        .request_raw(
            r#"{"id":"mc","op":"explore","benchmark":"cm152a_212","label":"mc","config":{"walks":2,"rounds":9,"steps":1,"alloc_trials":40,"yield_trials":200},"budget":{"max_candidates":1}}"#,
        )
        .unwrap();
    let result = Json::parse(&cut.response).unwrap();
    let result = result.get("result").expect("explore result");
    assert_eq!(result.get("truncated").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("reason").and_then(Json::as_str), Some("max_candidates"));
    assert_eq!(result.get("rounds_done").and_then(Json::as_u64), Some(0));
    shut_down(addr, handle);
}

#[test]
fn merge_op_adopts_shards_into_the_whole_run_checkpoint() {
    use qpd_explore::{ExploreConfig, ShardSpec};
    let dir = tmp_dir("merge_op");
    // Produce a 2-way sharded run in-process (the shardable config
    // shape: scalarized, no recombination, no cap) plus the whole-run
    // reference, and persist each shard with its cache sidecar exactly
    // as `explore_run --shard` does.
    let config = ExploreConfig {
        walks: 2,
        rounds: 2,
        steps_per_round: 1,
        alloc_trials: 40,
        yield_trials: 200,
        ..ExploreConfig::quick()
    }
    .v1_compat();
    let build = || {
        let circuit = qpd_benchmarks::build("cm152a_212").unwrap();
        Explorer::new(ExploreSpace::new(circuit, config.max_aux), config).unwrap()
    };
    let reference = Checkpoint {
        run: "cm152a_212".into(),
        config,
        state: build().run().unwrap(),
        stage_hit_rates: Vec::new(),
        shard: None,
    }
    .render();
    let mut shard_paths = Vec::new();
    for index in 0..2 {
        let engine = build();
        let spec = ShardSpec { index, of: 2 };
        let shard = engine.run_shard(spec).unwrap();
        let cp = Checkpoint::from_shard("cm152a_212", config, &shard, Vec::new());
        let path = cp.write(&dir).unwrap();
        let label = spec.label("cm152a_212");
        std::fs::write(dir.join(sidecar::file_name(&label)), sidecar::render(engine.caches()))
            .unwrap();
        shard_paths.push(path);
    }

    let out = tmp_dir("merge_op_out");
    let (addr, handle) = start(&out, None, Some(1), 16);
    let mut client = Client::connect(addr).unwrap();
    let line = format!(
        r#"{{"id":"m1","op":"merge","checkpoints":["{}","{}"]}}"#,
        shard_paths[0].display(),
        shard_paths[1].display()
    );
    let exchange = client.request_raw(&line).unwrap();
    let doc = Json::parse(&exchange.response).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{}", exchange.response);
    let result = doc.get("result").expect("merge result");
    assert_eq!(result.get("run").and_then(Json::as_str), Some("cm152a_212"));
    assert_eq!(result.get("shards").and_then(Json::as_u64), Some(2));
    assert!(
        result.get("warmed_routes").and_then(Json::as_u64).unwrap() > 0,
        "shard sidecars were not adopted: {}",
        exchange.response
    );
    let merged_path = result.get("checkpoint").and_then(Json::as_str).unwrap();
    assert_eq!(
        std::fs::read_to_string(merged_path).unwrap(),
        reference,
        "daemon merge diverged from the single-process run"
    );

    // An incomplete shard set is a bad_request, and the connection
    // stays usable.
    let partial =
        format!(r#"{{"id":"m2","op":"merge","checkpoints":["{}"]}}"#, shard_paths[0].display());
    let err = client.request_raw(&partial).unwrap();
    let doc = Json::parse(&err.response).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("bad_request")
    );
    shut_down(addr, handle);
}

#[test]
fn merge_refuses_non_regular_files() {
    let dir = tmp_dir("det_merge_devices");
    let (addr, handle) = start(&dir, None, Some(1), 8);
    let mut client = Client::connect(addr).unwrap();
    for file in ["/dev/null".to_string(), dir.display().to_string()] {
        let line = format!(r#"{{"id":"m","op":"merge","checkpoints":["{file}"]}}"#);
        let exchange = client.request_raw(&line).unwrap();
        let doc = Json::parse(&exchange.response).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{file}");
        let error = doc.get("error").expect("error object");
        assert_eq!(error.get("code").and_then(Json::as_str), Some("bad_request"), "{file}");
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert_eq!(message, format!("{file}: not a regular file"));
    }
    // The daemon is still up and answering control ops.
    let stats = client.request_raw(r#"{"id":"s","op":"stats"}"#).unwrap();
    assert_eq!(Json::parse(&stats.response).unwrap().get("ok"), Some(&Json::Bool(true)));
    shut_down(addr, handle);
}

fn stats_engines(client: &mut Client) -> u64 {
    let stats = client.request_raw(r#"{"id":"s","op":"stats"}"#).unwrap();
    let doc = Json::parse(&stats.response).unwrap();
    doc.get("result").and_then(|r| r.get("engines")).and_then(Json::as_u64).expect("engines")
}

/// A design line for a small inline QASM program at small settings
/// and the given seed.
fn reseeded(seed: usize) -> String {
    format!(
        r#"{{"id":"r{seed}","op":"design","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\ncx q[3],q[0];\n","settings":{{"alloc_trials":20,"yield_trials":100,"seed":{seed},"max_aux":0}}}}"#
    )
}

#[test]
fn engine_memo_stays_bounded_and_eviction_never_changes_bytes() {
    let dir = tmp_dir("det_engine_cap");
    let (addr, handle) = start(&dir, None, None, 8);
    let mut client = Client::connect(addr).unwrap();
    let first = client.request_raw(&reseeded(0)).unwrap();
    assert!(first.response.contains(r#""ok":true"#), "{}", first.response);
    for seed in 1..ENGINE_CAP + 8 {
        client.request_raw(&reseeded(seed)).unwrap();
    }
    assert_eq!(stats_engines(&mut client), ENGINE_CAP as u64, "engine memo outgrew its bound");
    // No line repeated, so no entry was ever hit: the clock evicted in
    // insertion order, and the first line's engine is rebuilt here.
    assert_eq!(client.request_raw(&reseeded(0)).unwrap(), first, "rebuilt engine changed bytes");
    assert_eq!(stats_engines(&mut client), ENGINE_CAP as u64);
    shut_down(addr, handle);
}

#[test]
fn failed_builds_answer_identically_and_are_never_memoized() {
    let dir = tmp_dir("det_failed_builds");
    let (addr, handle) = start(&dir, None, None, 8);
    let mut client = Client::connect(addr).unwrap();
    client.request_raw(&reseeded(0)).unwrap();
    assert_eq!(stats_engines(&mut client), 1);
    for line in [
        r#"{"id":"u","op":"design","benchmark":"no_such_bench"}"#,
        r#"{"id":"q","op":"design","qasm":"OPENQASM 9.9;"}"#,
    ] {
        let once = client.request_raw(line).unwrap();
        let twice = client.request_raw(line).unwrap();
        assert_eq!(once, twice, "{line}");
        let doc = Json::parse(&once.response).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{line}");
    }
    assert_eq!(stats_engines(&mut client), 1, "a failed build was memoized");
    shut_down(addr, handle);
}
