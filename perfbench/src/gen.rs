//! Seeded input generation. Every input a workload feeds the system is
//! a pure function of `--seed`: which programs run in which order, and
//! the daemon's request mix. The system under test sees only the
//! generated programs and request lines.

use qpd_circuit::random::{random_circuit, RandomCircuitSpec};
use qpd_explore::{BusSpec, CandidateSpec, Json, PlacementVariant};

/// SplitMix64: a tiny, well-mixed generator owned by the benchmark, so
/// its inputs do not move when the workspace's RNG shims change.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one consumer (a pass, a connection).
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One pass of a program sweep: every program of `qpd_benchmarks::ALL`
/// exactly once, in a seeded order. Sweeping whole passes keeps the
/// amount of work per run independent of the seed (programs differ in
/// cost by 5x), so seeds change the order and the daemon traffic, not
/// the size of the job.
pub fn program_pass(seed: u64, pass: u64) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = qpd_benchmarks::ALL.iter().map(|s| s.name).collect();
    Rng::stream(seed, pass).shuffle(&mut names);
    names
}

/// Programs of the daemon's warm menu, and of its reseeded requests:
/// small ones (184 to 996 gates). The daemon keeps one engine,
/// holding the program, per distinct circuit and settings, so every
/// reseeded request grows its memory by about the program's size.
pub const MENU_PROGRAMS: [&str; 4] = ["radd_250", "adr4_197", "qft_16", "cm152a_212"];

/// The menu's candidate specs: bus count, frequency strategy and
/// placement variant vary; `None` asks for the paper's `eff-full`.
fn menu_specs() -> Vec<Option<CandidateSpec>> {
    let spec = |count, frequency, placement| {
        Some(CandidateSpec {
            bus: BusSpec::Weighted { count },
            frequency,
            aux_qubits: 0,
            placement,
            hardware: qpd_explore::HardwareFamily::FixedFrequencyTransmon,
        })
    };
    use qpd_core::FrequencyStrategy::{FiveFrequency, Optimized};
    use PlacementVariant::{Identity, Transposed};
    vec![
        None,
        spec(0, Optimized, Identity),
        spec(1, Optimized, Transposed),
        spec(2, FiveFrequency, Identity),
        spec(1, FiveFrequency, Transposed),
    ]
}

/// Renders one `design` request line.
fn design_line(
    id: &str,
    source: (&'static str, String),
    spec: Option<&CandidateSpec>,
    seed: Option<u64>,
) -> String {
    let mut pairs =
        vec![("id", Json::str(id)), ("op", Json::str("design")), (source.0, Json::str(source.1))];
    if let Some(spec) = spec {
        pairs.push(("spec", spec.to_json()));
    }
    if let Some(seed) = seed {
        pairs.push(("settings", Json::obj([("seed", Json::int(seed))])));
    }
    Json::obj(pairs).render_compact()
}

/// The warm menu: one line per (program, spec). Ids are menu positions,
/// so a repeated draw is byte-identical on the wire and must get a
/// byte-identical response.
pub fn menu_lines() -> Vec<String> {
    let specs = menu_specs();
    let mut lines = Vec::new();
    for program in MENU_PROGRAMS {
        for spec in &specs {
            let id = format!("m{}", lines.len());
            lines.push(design_line(&id, ("benchmark", program.to_string()), spec.as_ref(), None));
        }
    }
    lines
}

/// The three request classes of the daemon mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A line of the warm menu (cold only the first time it is seen).
    Menu(usize),
    /// A menu program with a never-used `settings.seed`: a new engine
    /// whose allocation and yield stages miss, while placement, buses
    /// and routing hit.
    Reseeded,
    /// An inline-QASM random program: every stage misses and the
    /// request goes through the QASM parser.
    Qasm,
    /// The `stats` control op.
    Stats,
}

/// Share of `design` requests drawn from the warm menu.
pub const MENU_SHARE: f64 = 0.85;
/// Share of `design` requests that reseed a menu program.
pub const RESEEDED_SHARE: f64 = 0.10;
/// Every connection sends a `stats` op after this many requests.
pub const STATS_EVERY: u64 = 50;

/// One connection's request stream: a closed-loop client takes the next
/// request only after the previous reply arrived.
#[derive(Debug)]
pub struct RequestStream {
    rng: Rng,
    conn: u64,
    sent: u64,
    menu_len: usize,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: Class,
    pub line: String,
}

impl RequestStream {
    pub fn new(seed: u64, conn: u64, menu_len: usize) -> Self {
        RequestStream { rng: Rng::stream(seed, 1_000 + conn), conn, sent: 0, menu_len }
    }

    /// The next request. `menu` is [`menu_lines`]; `emit_qasm` renders a
    /// random circuit's QASM (passed in so the caller can time the
    /// generator's own cost apart from the request).
    pub fn next(
        &mut self,
        menu: &[String],
        emit_qasm: impl FnOnce(&RandomCircuitSpec) -> String,
    ) -> Request {
        self.sent += 1;
        let n = self.sent;
        if n.is_multiple_of(STATS_EVERY) {
            let line = format!(r#"{{"id":"s{}-{n}","op":"stats"}}"#, self.conn);
            return Request { class: Class::Stats, line };
        }
        let u = self.rng.unit();
        if u < MENU_SHARE {
            let idx = self.rng.below(self.menu_len);
            return Request { class: Class::Menu(idx), line: menu[idx].clone() };
        }
        // Unique per (connection, request): never-seen settings and
        // programs, so these lines are cold by construction.
        let unique = (self.conn << 32) | n;
        let id = format!("c{}-{n}", self.conn);
        if u < MENU_SHARE + RESEEDED_SHARE {
            let program = MENU_PROGRAMS[self.rng.below(MENU_PROGRAMS.len())];
            let specs = menu_specs();
            let spec = &specs[self.rng.below(specs.len())];
            let seed = 1 + unique;
            let line =
                design_line(&id, ("benchmark", program.to_string()), spec.as_ref(), Some(seed));
            return Request { class: Class::Reseeded, line };
        }
        let spec = RandomCircuitSpec {
            num_qubits: 5 + self.rng.below(4),
            num_gates: 60 + self.rng.below(101),
            two_qubit_fraction: 0.4,
            seed: self.rng.next_u64(),
        };
        let line = design_line(&id, ("qasm", emit_qasm(&spec)), None, None);
        Request { class: Class::Qasm, line }
    }
}

/// The generator's QASM emission: a seeded random circuit rendered as
/// OpenQASM 2.0.
pub fn random_qasm(spec: &RandomCircuitSpec) -> String {
    qpd_circuit::qasm::to_qasm(&random_circuit(spec)).expect("random circuits use emittable gates")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_lines(seed: u64, conn: u64, count: usize) -> Vec<Request> {
        let menu = menu_lines();
        let mut s = RequestStream::new(seed, conn, menu.len());
        (0..count).map(|_| s.next(&menu, random_qasm)).collect()
    }

    #[test]
    fn generator_is_deterministic_for_a_seed() {
        assert_eq!(program_pass(7, 0), program_pass(7, 0));
        assert_eq!(stream_lines(7, 1, 400), stream_lines(7, 1, 400));
        assert_ne!(stream_lines(7, 0, 400), stream_lines(8, 0, 400), "the seed drives the mix");
        assert_ne!(stream_lines(7, 0, 400), stream_lines(7, 1, 400), "connections get own streams");
    }

    #[test]
    fn a_pass_is_a_permutation_of_all_programs() {
        let mut pass = program_pass(3, 2);
        pass.sort_unstable();
        let mut all: Vec<_> = qpd_benchmarks::ALL.iter().map(|s| s.name).collect();
        all.sort_unstable();
        assert_eq!(pass, all);
        assert_ne!(program_pass(3, 0), program_pass(3, 1), "passes reshuffle");
    }

    #[test]
    fn mix_matches_its_shares_and_lines_parse() {
        let reqs = stream_lines(11, 0, 4_000);
        let count = |f: &dyn Fn(Class) -> bool| reqs.iter().filter(|r| f(r.class)).count() as f64;
        let design = count(&|c| c != Class::Stats);
        let menu = count(&|c| matches!(c, Class::Menu(_))) / design;
        let qasm = count(&|c| c == Class::Qasm) / design;
        assert!((menu - MENU_SHARE).abs() < 0.03, "menu share {menu}");
        assert!((qasm - (1.0 - MENU_SHARE - RESEEDED_SHARE)).abs() < 0.02, "qasm share {qasm}");
        assert_eq!(count(&|c| c == Class::Stats) as u64, 4_000 / STATS_EVERY);
        for r in reqs.iter().take(300) {
            qpd_serve::protocol::parse_request(&r.line)
                .expect("generated lines are valid requests");
        }
    }
}
