//! `serve_closed_loop`: an in-process `qpd_serve` daemon on loopback,
//! driven by one closed-loop client per core. Each client sends its next
//! request only after the previous reply arrived.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qpd_explore::{CandidateSpec, ExploreSpace, Explorer, Json};
use qpd_serve::protocol::{self, Request, Source};
use qpd_serve::{Client, Server, ServerConfig};

use crate::gen::{menu_lines, random_qasm, Class, RequestStream};
use crate::measure::{median, quantile, stage_names};
use crate::Outcome;

/// First-seen lines of these classes, per connection, that get checked
/// against a fresh in-process engine after the timed window.
const COLD_CHECKS_PER_CLASS: usize = 3;

/// A running daemon plus its connected clients.
pub struct Daemon {
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
    out_dir: PathBuf,
}

impl Daemon {
    /// Binds a daemon with the default configuration on an ephemeral
    /// loopback port and connects `connections` clients, each of which
    /// makes one `stats` round trip.
    pub fn start(connections: usize) -> std::io::Result<Daemon> {
        let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("serve-{}", std::process::id()));
        let server =
            Server::bind(ServerConfig { out_dir: out_dir.clone(), ..ServerConfig::default() })?;
        let addr = server.local_addr();
        let server = std::thread::spawn(move || server.run());
        let mut clients = Vec::new();
        for _ in 0..connections {
            let mut client = Client::connect(addr)?;
            client.request_raw(r#"{"id":"hello","op":"stats"}"#)?;
            clients.push(client);
        }
        Ok(Daemon { addr, server, clients, out_dir })
    }

    /// Closes the clients, shuts the daemon down, waits for it, and
    /// removes the cache sidecar it writes on shutdown.
    pub fn stop(self) -> std::io::Result<()> {
        drop(self.clients);
        Client::connect(self.addr)?.request_raw(r#"{"id":"stop","op":"shutdown"}"#)?;
        let served = self.server.join().expect("daemon thread panicked");
        let _ = std::fs::remove_dir_all(&self.out_dir);
        // Fails, harmlessly, while another run's directory is still there.
        let _ = std::fs::remove_dir(self.out_dir.parent().expect("out_dir has a parent"));
        served
    }
}

/// One answered request: when it completed (seconds into the loop), its
/// class key and how long the client waited.
#[derive(Clone, Copy)]
struct Sample {
    at: f64,
    key: &'static str,
    secs: f64,
}

/// Everything one connection observed.
#[derive(Default)]
struct Conn {
    samples: Vec<Sample>,
    bytes_in: u64,
    bytes_out: u64,
    requests: u64,
    failed: Vec<String>,
    overloaded: u64,
    /// First response this connection got for each menu line.
    menu: HashMap<usize, String>,
    /// Cold lines with their responses, for the in-process check.
    cold: Vec<(String, String)>,
    /// `queued` of every periodic `stats` snapshot.
    queued: Vec<f64>,
    qasm_emit_s: Vec<f64>,
    /// Time inside the request timer and the generator.
    covered_s: f64,
    wall_s: f64,
}

fn class_key(class: Class, cold: bool) -> &'static str {
    match class {
        Class::Menu(_) if cold => "menu_first",
        Class::Menu(_) => "warm",
        Class::Reseeded => "reseeded",
        Class::Qasm => "qasm",
        Class::Stats => "stats",
    }
}

/// One closed-loop connection until `deadline`.
fn drive(
    client: &mut Client,
    seed: u64,
    conn: u64,
    (start, deadline): (Instant, Instant),
    menu: &[String],
    seen: &Mutex<Vec<bool>>,
) -> Conn {
    let mut out = Conn::default();
    let mut stream = RequestStream::new(seed, conn, menu.len());
    let mut cold_checks: HashMap<&'static str, usize> = HashMap::new();
    while Instant::now() < deadline {
        let req = stream.next(menu, |spec| {
            let t = Instant::now();
            let qasm = random_qasm(spec);
            out.qasm_emit_s.push(t.elapsed().as_secs_f64());
            qasm
        });
        let cold = match req.class {
            Class::Menu(idx) => {
                !std::mem::replace(&mut seen.lock().expect("seen lines")[idx], true)
            }
            Class::Reseeded | Class::Qasm => true,
            Class::Stats => false,
        };
        let t = Instant::now();
        let exchange = match client.request_raw(&req.line) {
            Ok(e) => e,
            Err(e) => {
                out.failed.push(format!("connection {conn}: {e}"));
                break;
            }
        };
        let secs = t.elapsed().as_secs_f64();
        let key = class_key(req.class, cold);
        out.samples.push(Sample { at: start.elapsed().as_secs_f64(), key, secs });
        out.requests += 1;
        out.bytes_in += req.line.len() as u64 + 1;
        out.bytes_out += exchange
            .events
            .iter()
            .chain([&exchange.response])
            .map(|l| l.len() as u64 + 1)
            .sum::<u64>();
        let response = exchange.response;
        if !response.contains(r#""ok":true"#) {
            if response.contains(r#""code":"overloaded""#) {
                out.overloaded += 1;
            }
            out.failed
                .push(format!("{}: {response}", req.line.chars().take(80).collect::<String>()));
            continue;
        }
        match req.class {
            Class::Menu(idx) => match out.menu.get(&idx) {
                None => {
                    if cold {
                        out.cold.push((req.line, response.clone()));
                    }
                    out.menu.insert(idx, response);
                }
                Some(seen) => out.failed.extend(compare_repeat(idx, seen, &response)),
            },
            Class::Reseeded | Class::Qasm => {
                let n = cold_checks.entry(key).or_default();
                if *n < COLD_CHECKS_PER_CLASS {
                    *n += 1;
                    out.cold.push((req.line, response));
                }
            }
            Class::Stats => {
                if let Some(q) = Json::parse(&response)
                    .ok()
                    .and_then(|d| d.get("result")?.get("queued")?.as_f64())
                {
                    out.queued.push(q);
                }
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.covered_s =
        out.samples.iter().map(|s| s.secs).sum::<f64>() + out.qasm_emit_s.iter().sum::<f64>();
    out
}

/// A repeated line must get the bytes its first serving got.
pub fn compare_repeat(idx: usize, first: &str, again: &str) -> Option<String> {
    (first != again)
        .then(|| format!("menu line {idx}: a repeat got different bytes than the first serving"))
}

/// The response a fresh, cold, in-process engine gives to a `design`
/// line: no daemon, no shared caches.
pub fn expected_design_line(line: &str) -> Result<String, String> {
    let req = protocol::parse_request(line).map_err(|e| e.message)?;
    let Request::Design { source, spec, settings } = req.body else {
        return Err(format!("not a design line: {line}"));
    };
    let circuit = match source {
        Source::Benchmark(name) => qpd_benchmarks::build(&name).map_err(|e| e.to_string())?,
        Source::Qasm(text) => qpd_circuit::qasm::parse(&text).map_err(|e| e.to_string())?,
    };
    let config = settings.to_config();
    let explorer = Explorer::new(ExploreSpace::new(circuit, config.max_aux), config)
        .map_err(|e| e.to_string())?;
    let spec = match spec {
        None => CandidateSpec::eff_full(explorer.space().full_weighted_len()),
        Some(json) => CandidateSpec::from_json(&json).ok_or("malformed spec")?,
    };
    let evaluated = explorer.evaluate(&spec).map_err(|e| e.to_string())?;
    Ok(protocol::ok_line(&req.id, evaluated.to_json()).trim_end().to_string())
}

/// The daemon's response to a cold line must equal a fresh engine's.
pub fn check_cold(line: &str, response: &str) -> Option<String> {
    let head: String = line.chars().take(80).collect();
    match expected_design_line(line) {
        Ok(expected) if expected == response => None,
        Ok(_) => Some(format!("{head}: daemon bytes differ from a fresh in-process engine")),
        Err(e) => Some(format!("{head}: cannot recompute: {e}")),
    }
}

/// Runs the closed loop for `seconds` on `daemon`, checks the outputs
/// and returns per-connection observations folded into an outcome.
fn closed_loop(daemon: &mut Daemon, seed: u64, seconds: f64, traced: bool) -> (Outcome, f64) {
    let menu = menu_lines();
    let seen = Mutex::new(vec![false; menu.len()]);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let conns: Vec<Conn> = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (menu, seen) = (&menu, &seen);
                scope.spawn(move || drive(client, seed, c as u64, (start, deadline), menu, seen))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let mut out = Outcome::default();
    let mut menu_first: HashMap<usize, &String> = HashMap::new();
    for conn in &conns {
        out.attempted += conn.requests;
        for msg in &conn.failed {
            out.fail(msg.clone());
        }
        for (idx, response) in &conn.menu {
            match menu_first.get(idx) {
                None => {
                    menu_first.insert(*idx, response);
                }
                Some(first) => out.mismatches(compare_repeat(*idx, first, response)),
            }
        }
    }
    for conn in &conns {
        for (line, response) in &conn.cold {
            out.mismatches(check_cold(line, response));
        }
    }
    let requests: u64 = conns.iter().map(|c| c.requests).sum();
    let samples: Vec<Sample> = conns.iter().flat_map(|c| c.samples.iter().copied()).collect();
    const WARM: &[&str] = &["warm"];
    const COLD: &[&str] = &["menu_first", "reseeded", "qasm"];
    // End-to-end figures are medians over one-second slices, so a burst
    // of host noise moves one slice, not the run.
    let slices = Slices::of(&samples, seconds);
    let rate = slices.median(|s| {
        if s.len() < 2 {
            return 0.0;
        }
        let (first, last) =
            s.iter().fold((f64::MAX, f64::MIN), |(a, b), x| (a.min(x.at), b.max(x.at)));
        (s.len() as f64 - 1.0) / (last - first)
    });
    let warm_p50 = slices.median(|s| median(&secs_of(s, WARM)));
    let warm_p90 = slices.median(|s| quantile(&secs_of(s, WARM), 0.9));
    let cold_p50 = slices.median(|s| median(&secs_of(s, COLD)));
    out.report.push(format!(
        "serve_closed_loop: {} connections, {requests} requests in {wall:.2} s; medians over {} one-second slices: \
         serve_requests_per_s {rate:.2}, serve_warm_s.p50 {warm_p50:.6} s, p90 {warm_p90:.6} s (n={}), \
         serve_cold_s.p50 {cold_p50:.6} s (n={})",
        conns.len(),
        slices.0.len(),
        secs_of(&samples, WARM).len(),
        secs_of(&samples, COLD).len()
    ));
    if traced {
        let m = &mut out.metrics;
        for class in ["warm", "menu_first", "reseeded", "qasm"] {
            m.set(format!("serve.request_s.design.{class}"), median(&secs_of(&samples, &[class])));
        }
        m.set("serve.request_s.stats", median(&secs_of(&samples, &["stats"])));
        let per_request = |v: u64| v as f64 / requests.max(1) as f64;
        m.set("serve.bytes_in", per_request(conns.iter().map(|c| c.bytes_in).sum()));
        m.set("serve.bytes_out", per_request(conns.iter().map(|c| c.bytes_out).sum()));
        m.set("serve.overloaded", conns.iter().map(|c| c.overloaded).sum::<u64>() as f64);
        let queued: Vec<f64> = conns.iter().flat_map(|c| c.queued.iter().copied()).collect();
        m.set("serve.queued", queued.iter().sum::<f64>() / queued.len().max(1) as f64);
        let emits: Vec<f64> = conns.iter().flat_map(|c| c.qasm_emit_s.iter().copied()).collect();
        m.set("circuit.qasm_emit_s", emits.iter().sum::<f64>() / emits.len().max(1) as f64);
        let covered: f64 = conns.iter().map(|c| c.covered_s).sum();
        out.coverage(covered / conns.iter().map(|c| c.wall_s).sum::<f64>());
        match final_stats(&mut daemon.clients[0]) {
            Ok(stats) => record_stats(&mut out.metrics, &stats),
            Err(e) => out.fail(format!("final stats: {e}")),
        }
    } else {
        out.metrics.set("throughput_per_s", rate);
        out.metrics.set("latency_s.p50", warm_p50);
        out.metrics.set("latency_s.p90", warm_p90);
        out.metrics.set("cold_latency_s.p50", cold_p50);
    }
    (out, wall / requests.max(1) as f64)
}

fn secs_of(slice: &[Sample], keys: &[&str]) -> Vec<f64> {
    slice.iter().filter(|s| keys.contains(&s.key)).map(|s| s.secs).collect()
}

/// Requests grouped by the whole second of the loop they completed in;
/// the partial last second is dropped.
struct Slices(Vec<Vec<Sample>>);

impl Slices {
    fn of(samples: &[Sample], seconds: f64) -> Slices {
        let mut slices = vec![Vec::new(); (seconds.floor() as usize).max(1)];
        for s in samples {
            if let Some(slice) = slices.get_mut(s.at as usize) {
                slice.push(*s);
            }
        }
        Slices(slices)
    }

    fn median(&self, f: impl Fn(&[Sample]) -> f64) -> f64 {
        median(&self.0.iter().map(|s| f(s)).collect::<Vec<_>>())
    }
}

fn final_stats(client: &mut Client) -> Result<Json, String> {
    let exchange =
        client.request_raw(r#"{"id":"final","op":"stats"}"#).map_err(|e| e.to_string())?;
    let doc = Json::parse(&exchange.response).map_err(|e| e.to_string())?;
    doc.get("result").cloned().ok_or_else(|| exchange.response.clone())
}

/// The daemon's cumulative stage counters and engine count.
fn record_stats(m: &mut crate::measure::Metrics, stats: &Json) {
    for entry in stats.get("stages").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(stage) = entry.get("stage").and_then(Json::as_str) else { continue };
        if !stage_names().contains(&stage) {
            continue;
        }
        for field in ["hits", "misses"] {
            let v = entry.get(field).and_then(Json::as_f64).unwrap_or(0.0);
            m.set(format!("serve.stage.{stage}.{field}"), v);
        }
    }
    m.set("serve.engines", stats.get("engines").and_then(Json::as_f64).unwrap_or(0.0));
}

/// The untraced run measures the loop for `seconds`. The traced run
/// measures an untraced half and a traced half on fresh daemons, and
/// reports their per-request time difference as the tracing overhead.
pub fn run(daemon: Daemon, seed: u64, seconds: f64, traced: bool, connections: usize) -> Outcome {
    let finish = |out: &mut Outcome, daemon: Daemon| {
        if let Err(e) = daemon.stop() {
            out.fail(format!("daemon shutdown: {e}"));
        }
    };
    let mut daemon = daemon;
    if !traced {
        let (mut out, _) = closed_loop(&mut daemon, seed, seconds, false);
        finish(&mut out, daemon);
        return out;
    }
    let (mut plain, plain_per_request) = closed_loop(&mut daemon, seed, seconds / 2.0, false);
    finish(&mut plain, daemon);
    let mut daemon = match Daemon::start(connections) {
        Ok(d) => d,
        Err(e) => {
            plain.fail(format!("daemon start: {e}"));
            return plain;
        }
    };
    let (mut out, traced_per_request) = closed_loop(&mut daemon, seed, seconds / 2.0, true);
    finish(&mut out, daemon);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.report.splice(0..0, plain.report);
    out.overhead(traced_per_request / plain_per_request - 1.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"id":"t","op":"design","benchmark":"sym6_145","settings":{"alloc_trials":20,"yield_trials":100}}"#;

    #[test]
    fn cold_check_fires_on_a_corrupted_response() {
        let expected = expected_design_line(LINE).expect("recomputes");
        assert!(expected.starts_with(r#"{"id":"t","ok":true"#), "{expected}");
        assert_eq!(check_cold(LINE, &expected), None);
        let corrupt = expected.replacen("\"ok\":true", "\"ok\":true ", 1);
        assert!(check_cold(LINE, &corrupt).is_some());
    }

    #[test]
    fn repeat_check_fires_on_different_bytes() {
        assert_eq!(compare_repeat(3, "abc", "abc"), None);
        assert!(compare_repeat(3, "abc", "abd").is_some());
    }
}
