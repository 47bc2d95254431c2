//! The daemon: accept loop, bounded request queue, worker pool, and
//! the shared warm stage graph every request evaluates through.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use qpd_core::{StageCache, StagePlan};
use qpd_explore::cache::Fnv64;
use qpd_explore::{
    merge_checkpoints, sidecar, write_atomic, CandidateSpec, Checkpoint, ExploreConfig,
    ExploreSpace, ExploreState, Explorer, Json, StageCaches, DEFAULT_MEMO_CAP,
};

use crate::protocol::{
    self, err_line, ok_line, overloaded_line, round_event_line, Budget, EngineSettings, Request,
    Source, MAX_LINE_BYTES,
};

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Request workers — the bound on in-flight `design`/`explore`
    /// requests (each worker fans its evaluation out on the shared
    /// `qpd-par` pool, so this bounds admission, not parallelism).
    pub workers: usize,
    /// Queued-request bound; a request arriving with the queue full is
    /// rejected with the deterministic `overloaded` response.
    pub queue_cap: usize,
    /// Where shutdown checkpoints and the cache sidecar are written.
    pub out_dir: PathBuf,
    /// A `qpd_explore::sidecar` file to warm the shared caches from at
    /// boot (missing/malformed files degrade to a cold start).
    pub warm_start: Option<PathBuf>,
    /// Per-table entry bound of the shared stage caches.
    pub memo_cap: Option<usize>,
    /// Evaluation thread count pinned per request worker
    /// ([`qpd_par::with_threads`]); `None` follows `QPD_THREADS`. The
    /// determinism tests sweep this to prove responses don't depend on
    /// it.
    pub eval_threads: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 16,
            out_dir: PathBuf::from("."),
            warm_start: None,
            memo_cap: Some(DEFAULT_MEMO_CAP),
            eval_threads: None,
        }
    }
}

/// The label under which the daemon persists its own cache sidecar
/// (`EXPLORE_serve_caches.json`) on graceful shutdown.
pub const SIDECAR_LABEL: &str = "serve";

/// Entry bound of the daemon's design-engine memo (second-chance
/// eviction, like every stage cache). An evicted engine is rebuilt on
/// its next request, never changed.
pub const ENGINE_CAP: usize = 256;

/// A memoized design engine, next to the request content it was built
/// from.
struct MemoEngine {
    source: Source,
    settings: EngineSettings,
    engine: Explorer,
}

/// The engine memo: one table entry per distinct request content.
type EngineMemo = StageCache<Arc<MemoEngine>>;

/// One queued unit of work.
struct Job {
    id: String,
    body: Request,
    out: Arc<Mutex<TcpStream>>,
}

/// State shared by the accept loop, readers, and workers.
struct Shared {
    config: ServerConfig,
    addr: SocketAddr,
    /// The upstream placement/bus/frequency/assembly caches every
    /// request's `DesignFlow` evaluates through.
    plan: Arc<StagePlan>,
    /// The downstream routing/yield caches.
    caches: Arc<StageCaches>,
    /// Engines reused across `design` requests, keyed by request
    /// content (source text + engine settings) and bounded by
    /// [`ENGINE_CAP`]. Engines are pure given their source and
    /// settings, so reuse and eviction change construction cost only,
    /// never results.
    engines: EngineMemo,
    queue: Mutex<Vec<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Checkpoints written for shutdown-truncated explores.
    checkpointed: Mutex<Vec<PathBuf>>,
}

/// The daemon. [`Server::bind`] then [`Server::run`]; `run` returns
/// after a graceful `shutdown` request.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the shared stage graph (cold; see
    /// [`ServerConfig::warm_start`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let memo_cap = config.memo_cap;
        let shared = Arc::new(Shared {
            config,
            addr,
            plan: Arc::new(StagePlan::with_cap(memo_cap)),
            caches: Arc::new(StageCaches::with_cap(memo_cap)),
            engines: StageCache::with_cap(Some(ENGINE_CAP)),
            queue: Mutex::new(Vec::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            checkpointed: Mutex::new(Vec::new()),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (read the ephemeral port here).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves until a `shutdown` request completes: accepts
    /// connections, spawns one reader per connection, and processes
    /// queued requests on the worker pool. On shutdown the queue is
    /// drained (in-flight explores are cut and checkpointed at their
    /// next round barrier) and the shared caches are persisted as
    /// `EXPLORE_serve_caches.json` under the output directory.
    ///
    /// # Errors
    ///
    /// Propagates socket and sidecar-write errors.
    pub fn run(self) -> std::io::Result<()> {
        let shared = &self.shared;
        if let Some(path) = &shared.config.warm_start {
            match sidecar::load(path, &shared.caches) {
                sidecar::SidecarLoad::Missing => {
                    eprintln!("qpd_serve: no warm-start sidecar at {}", path.display());
                }
                sidecar::SidecarLoad::Ignored(why) => {
                    eprintln!("qpd_serve: ignoring sidecar {} ({why})", path.display());
                }
                sidecar::SidecarLoad::Loaded { routes, yields } => {
                    eprintln!(
                        "qpd_serve: warm start — {routes} routing + {yields} yield entries \
                         from {}",
                        path.display()
                    );
                }
            }
        }
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        for conn in self.listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(conn) = conn else { continue };
            let shared = Arc::clone(shared);
            std::thread::spawn(move || read_connection(&shared, conn));
        }
        for w in workers {
            let _ = w.join();
        }
        std::fs::create_dir_all(&shared.config.out_dir)?;
        let sidecar_path = shared.config.out_dir.join(sidecar::file_name(SIDECAR_LABEL));
        write_atomic(&sidecar_path, sidecar::render(&shared.caches))?;
        let checkpoints = shared.checkpointed.lock().expect("checkpoint list");
        eprintln!(
            "qpd_serve: shut down — caches persisted to {}, {} explore checkpoint(s) written",
            sidecar_path.display(),
            checkpoints.len()
        );
        Ok(())
    }
}

/// Reads newline-delimited requests off one connection until EOF, an
/// over-long line, or shutdown.
fn read_connection(shared: &Arc<Shared>, conn: TcpStream) {
    // Whole-line writes, nothing to coalesce: Nagle + delayed ACK
    // would add ~40 ms per request/response turn.
    let _ = conn.set_nodelay(true);
    let Ok(write_half) = conn.try_clone() else { return };
    let out = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(conn);
    loop {
        let mut line = String::new();
        // Bound the line before buffering it all: a peer streaming an
        // endless line must not grow memory past the protocol cap.
        let n = match (&mut reader).take(MAX_LINE_BYTES as u64 + 1).read_line(&mut line) {
            Ok(n) => n,
            Err(_) => return,
        };
        if n == 0 {
            return; // EOF
        }
        if n > MAX_LINE_BYTES {
            let reject =
                err_line(None, "bad_request", "request line exceeds the protocol size limit");
            let _ = out.lock().expect("writer").write_all(reject.as_bytes());
            return; // the rest of the stream is mid-line garbage
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            continue;
        }
        match protocol::parse_request(line) {
            Err(e) => {
                let reject = err_line(e.id.as_deref(), e.code, &e.message);
                let _ = out.lock().expect("writer").write_all(reject.as_bytes());
            }
            Ok(req) => dispatch(shared, req.id, req.body, &out),
        }
    }
}

/// Routes one parsed request: cheap control ops run inline on the
/// reader thread (the daemon stays observable and stoppable under
/// load); design/explore go through admission control onto the queue.
fn dispatch(shared: &Arc<Shared>, id: String, body: Request, out: &Arc<Mutex<TcpStream>>) {
    match body {
        Request::Stats => {
            let line = ok_line(&id, stats_result(shared));
            let _ = out.lock().expect("writer").write_all(line.as_bytes());
        }
        Request::Merge { checkpoints } => {
            let line = handle_merge(shared, &id, &checkpoints);
            let _ = out.lock().expect("writer").write_all(line.as_bytes());
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.available.notify_all();
            let line = ok_line(&id, Json::obj([("stopping", Json::Bool(true))]));
            let _ = out.lock().expect("writer").write_all(line.as_bytes());
            // Wake the blocking accept loop so it can observe the flag.
            let _ = TcpStream::connect(shared.addr);
        }
        body @ (Request::Design { .. } | Request::Explore { .. }) => {
            if shared.shutdown.load(Ordering::SeqCst) {
                let line = err_line(Some(&id), "shutting_down", "daemon is shutting down");
                let _ = out.lock().expect("writer").write_all(line.as_bytes());
                return;
            }
            let reject = {
                let mut queue = shared.queue.lock().expect("queue");
                if queue.len() >= shared.config.queue_cap {
                    true
                } else {
                    queue.push(Job { id: id.clone(), body, out: Arc::clone(out) });
                    false
                }
            };
            if reject {
                let line = overloaded_line(&id);
                let _ = out.lock().expect("writer").write_all(line.as_bytes());
            } else {
                shared.available.notify_one();
            }
        }
    }
}

/// One request worker: drains the queue; exits once shutdown is set
/// and the queue is empty (so queued work is answered, not dropped).
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue");
            loop {
                if let Some(job) = (!queue.is_empty()).then(|| queue.remove(0)) {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.available.wait(queue).expect("queue");
            }
        };
        let Some(job) = job else { return };
        let Job { id, body, out } = job;
        let handle = || match body {
            Request::Design { source, spec, settings } => {
                handle_design(shared, &id, &source, spec.as_ref(), settings, &out)
            }
            Request::Explore { source, label, config, budget, stream } => {
                handle_explore(shared, &id, &source, &label, config, budget, stream, &out)
            }
            Request::Merge { .. } | Request::Stats | Request::Shutdown => {
                unreachable!("handled inline")
            }
        };
        // A panicking evaluation (pathological QASM, degenerate spec)
        // must cost one error response, not one worker.
        let outcome = catch_unwind(AssertUnwindSafe(|| match shared.config.eval_threads {
            Some(n) => qpd_par::with_threads(n, handle),
            None => handle(),
        }));
        let line = match outcome {
            Ok(line) => line,
            Err(_) => err_line(Some(&id), "internal", "request handler panicked"),
        };
        let _ = out.lock().expect("writer").write_all(line.as_bytes());
    }
}

/// The inline `merge` control op: merges a complete set of shard
/// checkpoint files into the whole-run checkpoint in the daemon's
/// output directory, and adopts any shard cache sidecars sitting next
/// to the inputs into the shared warm caches (content-keyed, so
/// adoption can only turn future misses into hits, never change
/// results). Runs on the reader thread like `stats`: it is file IO
/// plus an archive re-insertion, never a design evaluation. Only
/// regular files are read: a device such as `/dev/zero` never ends.
fn handle_merge(shared: &Shared, id: &str, files: &[String]) -> String {
    let mut inputs = Vec::with_capacity(files.len());
    for file in files {
        if std::fs::metadata(file).is_ok_and(|meta| !meta.is_file()) {
            return err_line(Some(id), "bad_request", &format!("{file}: not a regular file"));
        }
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                return err_line(Some(id), "bad_request", &format!("cannot read {file}: {e}"))
            }
        };
        match Checkpoint::parse(&text) {
            Ok(cp) => inputs.push((PathBuf::from(file), cp)),
            Err(e) => return err_line(Some(id), "bad_request", &format!("{file}: {e}")),
        }
    }
    let checkpoints: Vec<Checkpoint> = inputs.iter().map(|(_, cp)| cp.clone()).collect();
    let merged = match merge_checkpoints(&checkpoints) {
        Ok(m) => m,
        Err(e) => return err_line(Some(id), "bad_request", &e.to_string()),
    };
    // Warm adoption: each shard process persisted its route/yield
    // caches as a sidecar next to its checkpoint; load whatever is
    // there into the daemon's shared tables.
    let (mut routes, mut yields) = (0u64, 0u64);
    for (path, cp) in &inputs {
        let Some(meta) = &cp.shard else { continue };
        let side = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or_else(|| std::path::Path::new("."))
            .join(sidecar::file_name(&meta.spec.label(&cp.run)));
        if let sidecar::SidecarLoad::Loaded { routes: r, yields: y } =
            sidecar::load(&side, &shared.caches)
        {
            routes += r as u64;
            yields += y as u64;
        }
    }
    if let Err(e) = std::fs::create_dir_all(&shared.config.out_dir) {
        return err_line(Some(id), "internal", &format!("cannot create output directory: {e}"));
    }
    let path = match merged.write(&shared.config.out_dir) {
        Ok(p) => p,
        Err(e) => {
            return err_line(Some(id), "internal", &format!("cannot write merged checkpoint: {e}"))
        }
    };
    ok_line(
        id,
        Json::obj([
            ("run", Json::str(&merged.run)),
            ("shards", Json::int(files.len() as u64)),
            ("rounds_done", Json::int(merged.state.rounds_done as u64)),
            ("archive_len", Json::int(merged.state.archive.len() as u64)),
            ("front_len", Json::int(merged.state.front_indices().len() as u64)),
            ("warmed_routes", Json::int(routes)),
            ("warmed_yields", Json::int(yields)),
            ("checkpoint", Json::str(path.display().to_string())),
        ]),
    )
}

fn stats_result(shared: &Shared) -> Json {
    let mut stats = shared.plan.stats();
    stats.extend(shared.caches.stats());
    Json::obj([
        (
            "stages",
            Json::Arr(
                stats
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("stage", Json::str(s.kind.name())),
                            ("hits", Json::int(s.hits)),
                            ("misses", Json::int(s.misses)),
                            ("unique_misses", Json::int(s.unique_misses)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("engines", Json::int(shared.engines.len() as u64)),
        ("queued", Json::int(shared.queue.lock().expect("queue").len() as u64)),
    ])
}

/// Builds the request's circuit, or the error line to send instead.
fn build_circuit(id: &str, source: &Source) -> Result<qpd_circuit::Circuit, String> {
    match source {
        Source::Benchmark(name) => qpd_benchmarks::build(name)
            .map_err(|e| err_line(Some(id), "unknown_benchmark", &e.to_string())),
        Source::Qasm(text) => qpd_circuit::qasm::parse(text)
            .map_err(|e| err_line(Some(id), "bad_qasm", &e.to_string())),
    }
}

/// The engine-memo key: every input that changes what a one-shot
/// evaluation computes, read straight off the request (source kind and
/// text, engine settings), so a warm lookup never builds the circuit.
fn request_key(source: &Source, s: EngineSettings) -> u64 {
    let (kind, text) = match source {
        Source::Benchmark(name) => (0, name),
        Source::Qasm(text) => (1, text),
    };
    let mut h = Fnv64::new();
    h.push(kind);
    h.push(text.len() as u64);
    for &byte in text.as_bytes() {
        h.push_byte(byte);
    }
    h.push(s.alloc_trials as u64);
    h.push(s.yield_trials);
    h.push(s.sigma_ghz.to_bits());
    h.push(s.seed);
    h.push(s.max_aux as u64);
    h.finish()
}

/// The memoized engine under `key`, if it was built for exactly this
/// source and these settings: a 64-bit key collision is a miss, never
/// another program's engine. Sigma compares by bits, as the key hashes
/// it (`0.0 == -0.0` as floats).
fn memo_hit(
    memo: &EngineMemo,
    key: u64,
    source: &Source,
    settings: EngineSettings,
) -> Option<Arc<MemoEngine>> {
    memo.get(key).filter(|m| {
        m.source == *source
            && m.settings == settings
            && m.settings.sigma_ghz.to_bits() == settings.sigma_ghz.to_bits()
    })
}

/// An engine sharing the server-wide stage graph, reused across design
/// requests with the same source and settings, or the error line to
/// send instead. Failed builds are never memoized.
fn design_engine(
    shared: &Shared,
    id: &str,
    source: &Source,
    settings: EngineSettings,
) -> Result<Arc<MemoEngine>, String> {
    let key = request_key(source, settings);
    if let Some(hit) = memo_hit(&shared.engines, key, source, settings) {
        return Ok(hit);
    }
    // Built outside the memo's lock (construction routes a baseline);
    // if two workers race, both build identical engines and the first
    // insert is kept.
    let circuit = build_circuit(id, source)?;
    let config = settings.to_config();
    let space = ExploreSpace::new(circuit, config.max_aux);
    let engine =
        Explorer::with_shared(space, config, Arc::clone(&shared.plan), Arc::clone(&shared.caches))
            .map_err(|e| err_line(Some(id), "internal", &e.to_string()))?;
    let memo = Arc::new(MemoEngine { source: source.clone(), settings, engine });
    shared.engines.insert(key, Arc::clone(&memo));
    Ok(memo)
}

fn handle_design(
    shared: &Shared,
    id: &str,
    source: &Source,
    spec: Option<&Json>,
    settings: EngineSettings,
    _out: &Arc<Mutex<TcpStream>>,
) -> String {
    let memo = match design_engine(shared, id, source, settings) {
        Ok(memo) => memo,
        Err(line) => return line,
    };
    let engine = &memo.engine;
    let spec = match spec {
        None => CandidateSpec::eff_full(engine.space().full_weighted_len()),
        Some(json) => match CandidateSpec::from_json(json) {
            Some(spec) => spec,
            None => return err_line(Some(id), "bad_request", "malformed `spec`"),
        },
    };
    match engine.evaluate(&spec) {
        Ok(evaluated) => ok_line(id, evaluated.to_json()),
        Err(e) => err_line(Some(id), "internal", &e.to_string()),
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_explore(
    shared: &Shared,
    id: &str,
    source: &Source,
    label: &str,
    mut config: ExploreConfig,
    budget: Budget,
    stream: bool,
    out: &Arc<Mutex<TcpStream>>,
) -> String {
    let start = Instant::now();
    let circuit = match build_circuit(id, source) {
        Ok(c) => c,
        Err(line) => return line,
    };
    if let Some(max_rounds) = budget.max_rounds {
        config.rounds = config.rounds.min(max_rounds);
    }
    let space = ExploreSpace::new(circuit, config.max_aux);
    let run = || -> Result<(ExploreState, Option<&'static str>), qpd_explore::ExploreError> {
        let explorer = Explorer::with_shared(
            space,
            config,
            Arc::clone(&shared.plan),
            Arc::clone(&shared.caches),
        )?;
        let mut state = explorer.initial_state()?;
        let mut reason = None;
        while state.rounds_done < config.rounds {
            if shared.shutdown.load(Ordering::SeqCst) {
                reason = Some("shutdown");
                break;
            }
            if budget.max_candidates.is_some_and(|cap| state.archive.len() >= cap) {
                reason = Some("max_candidates");
                break;
            }
            if budget.deadline_ms.is_some_and(|ms| start.elapsed().as_millis() as u64 > ms) {
                reason = Some("deadline");
                break;
            }
            explorer.advance_round(&mut state)?;
            if stream {
                let event = round_event_line(
                    id,
                    state.rounds_done,
                    state.archive.len(),
                    state.front_indices().len(),
                );
                let _ = out.lock().expect("writer").write_all(event.as_bytes());
            }
        }
        Ok((state, reason))
    };
    let (state, reason) = match run() {
        Ok(v) => v,
        Err(e) => return err_line(Some(id), "internal", &e.to_string()),
    };
    // A shutdown cut is checkpointed exactly like an interrupted
    // `explore_run`: resumable via `explore_run --resume`.
    let mut checkpoint_path = None;
    if reason == Some("shutdown") {
        let cp = Checkpoint {
            run: label.to_string(),
            config,
            state: state.clone(),
            stage_hit_rates: Vec::new(),
            shard: None,
        };
        if std::fs::create_dir_all(&shared.config.out_dir).is_ok() {
            if let Ok(path) = cp.write(&shared.config.out_dir) {
                shared.checkpointed.lock().expect("checkpoint list").push(path.clone());
                checkpoint_path = Some(path);
            }
        }
    }
    let mut result = vec![
        ("rounds_done", Json::int(state.rounds_done as u64)),
        ("truncated", Json::Bool(reason.is_some())),
    ];
    if let Some(reason) = reason {
        result.push(("reason", Json::str(reason)));
    }
    result.push(("archive_len", Json::int(state.archive.len() as u64)));
    result.push(("front", Json::Arr(state.front().iter().map(|e| e.to_json()).collect())));
    if let Some(path) = checkpoint_path {
        result.push(("checkpoint", Json::str(path.display().to_string())));
    }
    ok_line(id, Json::obj(result))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A memo entry claiming to serve `source` under `settings`; the
    /// engine itself is a tiny stand-in, since lookups never read it.
    fn entry(source: Source, settings: EngineSettings) -> Arc<MemoEngine> {
        let mut circuit = qpd_circuit::Circuit::new(3);
        circuit.cx(0, 1).cx(1, 2);
        let config = settings.to_config();
        let engine = Explorer::new(ExploreSpace::new(circuit, config.max_aux), config).unwrap();
        Arc::new(MemoEngine { source, settings, engine })
    }

    #[test]
    fn an_entry_for_other_content_under_the_requests_key_is_a_miss() {
        let settings =
            EngineSettings { alloc_trials: 20, yield_trials: 100, ..EngineSettings::default() };
        let source = Source::Benchmark("cm152a_212".into());
        let key = request_key(&source, settings);
        let impostors = [
            entry(Source::Qasm("cm152a_212".into()), settings),
            entry(Source::Benchmark("radd_250".into()), settings),
            entry(source.clone(), EngineSettings { seed: settings.seed + 1, ..settings }),
            entry(source.clone(), EngineSettings { sigma_ghz: 0.04, ..settings }),
        ];
        for impostor in impostors {
            let memo = EngineMemo::with_cap(Some(ENGINE_CAP));
            memo.insert(key, impostor);
            assert!(memo_hit(&memo, key, &source, settings).is_none());
        }
        let memo = EngineMemo::with_cap(Some(ENGINE_CAP));
        memo.insert(key, entry(source.clone(), settings));
        assert!(memo_hit(&memo, key, &source, settings).is_some());
    }

    #[test]
    fn request_keys_separate_source_kind_text_and_settings() {
        let s = EngineSettings::default();
        let bench = Source::Benchmark("qft_16".into());
        let key = request_key(&bench, s);
        assert_eq!(key, request_key(&bench.clone(), s));
        assert_ne!(key, request_key(&Source::Qasm("qft_16".into()), s));
        assert_ne!(key, request_key(&Source::Benchmark("qft_17".into()), s));
        assert_ne!(key, request_key(&bench, EngineSettings { max_aux: s.max_aux + 1, ..s }));
        assert_ne!(key, request_key(&bench, EngineSettings { sigma_ghz: -s.sigma_ghz, ..s }));
    }
}
