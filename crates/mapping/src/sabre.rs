//! The SABRE routing algorithm (Li, Ding, Xie, ASPLOS 2019).
//!
//! # Parameters
//!
//! The router runs the published algorithm at fixed settings, the only
//! ones the design flow uses: a degree-matched initial mapping (busy
//! logical qubits on well-connected, central physical qubits), two
//! forward/backward refinement rounds before the final pass, a
//! lookahead of 20 two-qubit gates weighted 0.5, and a decay of 0.001
//! per swap, reset every 5 swaps.
//!
//! # What is prepared once per program
//!
//! The explorer and the evaluation runner route one program onto many
//! chips. Everything routing derives from the program alone lives in a
//! [`RouteProgram`], built once and shared (it is `Sync`) by every
//! route of that program:
//!
//! - the dependency DAG of the program and of its reverse (the
//!   refinement rounds alternate the two directions);
//! - per direction, a flat table of each instruction's two-qubit
//!   operands, the only part of an instruction the swap search reads;
//! - per direction, a memo from the ordered front layer to its
//!   lookahead ("extended") set;
//! - the first unitary on three or more qubits, so validation never
//!   rescans the program.
//!
//! [`SabreRouter::route_stats`] routes a prepared program and returns
//! only [`MappingStats`]: its final pass tracks one depth level per
//! physical qubit instead of recording a physical circuit.
//! [`SabreRouter::route`] prepares the program, runs the same passes,
//! and records the circuit in the final one. Both run the one pass
//! kernel, so their swaps and depths agree.
//!
//! # Why the lookahead memo is exact
//!
//! The extended set is a breadth-first walk over the DAG successors of
//! the front layer, in front order, taking two-qubit gates until 20
//! (`EXTENDED_SET_SIZE`) are found. Execution is topological, so every
//! successor of an unexecuted gate is unexecuted; the walk starts from
//! front gates, which are unexecuted, and so never meets an executed
//! gate. It reads nothing but the DAG, the operand table and the
//! ordered front, so it is a pure function of (direction, ordered
//! front), and the ordered front is the memo key. A memo hit returns
//! what the walk would have computed, whatever chip, layout or thread
//! asked first. Each direction holds at most [`ROUTE_MEMO_CAP`]
//! entries; past the cap it stops inserting and computes the walk
//! instead, so the bound changes speed, never a route.

use std::collections::{HashMap, VecDeque};
use std::sync::RwLock;

use qpd_circuit::{Circuit, Gate, GateDag, Instruction, Qubit};
use qpd_topology::Architecture;

use crate::error::MappingError;
use crate::initial::degree_matched;
use crate::layout::Layout;
use crate::stats::MappingStats;

/// Maximum number of two-qubit gates in the lookahead extended set.
const EXTENDED_SET_SIZE: usize = 20;
/// Weight of the extended set in the heuristic score.
const EXTENDED_SET_WEIGHT: f64 = 0.5;
/// Additive decay applied to a physical qubit each time it swaps.
const DECAY_DELTA: f64 = 0.001;
/// Decay values reset after this many consecutive SWAP insertions.
const DECAY_RESET_INTERVAL: usize = 5;
/// Forward/backward refinement rounds before the final forward pass.
const REVERSE_TRAVERSAL_ROUNDS: usize = 2;

/// A routed circuit: the physical-qubit circuit with inserted SWAPs, the
/// layouts before and after execution, and cost statistics.
#[derive(Debug, Clone)]
pub struct MappedCircuit {
    physical: Circuit,
    initial_layout: Layout,
    final_layout: Layout,
    original_gates: usize,
    swaps: usize,
}

impl MappedCircuit {
    /// The routed circuit over physical qubits (SWAPs kept explicit).
    pub fn physical_circuit(&self) -> &Circuit {
        &self.physical
    }

    /// The logical-to-physical layout before the first gate.
    pub fn initial_layout(&self) -> &Layout {
        &self.initial_layout
    }

    /// The layout after the last gate (differs from the initial layout by
    /// the net effect of all SWAPs).
    pub fn final_layout(&self) -> &Layout {
        &self.final_layout
    }

    /// Number of SWAPs inserted.
    pub fn swap_count(&self) -> usize {
        self.swaps
    }

    /// Cost statistics (`total_gates` is the paper's performance metric).
    pub fn stats(&self) -> MappingStats {
        MappingStats::new(self.original_gates, self.swaps, self.physical.depth())
    }

    /// The routed circuit with every inserted SWAP materialized as its
    /// three CNOTs — the circuit the hardware actually executes, whose
    /// gate count equals [`MappingStats::total_gates`].
    pub fn executable_circuit(&self) -> Circuit {
        let mut out = Circuit::new(self.physical.num_qubits());
        for inst in self.physical.iter() {
            match inst.gate() {
                Gate::Swap => {
                    let (a, b) = inst.qubit_pair().expect("swap is two-qubit");
                    out.cx(a, b).cx(b, a).cx(a, b);
                }
                _ => out.push_instruction(inst.clone()).expect("valid instruction"),
            }
        }
        out
    }
}

/// Entries each direction of a [`RouteProgram`]'s lookahead memo holds
/// at most. An entry (a front of up to one gate per qubit, and up to
/// 20 gate indices) measured about 0.2 KiB on the paper's programs, so
/// a full memo is about 1.6 MiB per program. Routing one program on 30
/// chips fills 25 to 7,810 entries.
pub const ROUTE_MEMO_CAP: usize = 4_096;

/// Operand-table entry of an instruction that is not a two-qubit
/// unitary (single-qubit gates, measures, barriers).
const NOT_PAIR: (u32, u32) = (u32::MAX, u32::MAX);

/// Ordered front → the extended set's gates, in walk order.
type LookaheadMemo = HashMap<Box<[u32]>, Box<[u32]>>;

/// One traversal direction of a [`RouteProgram`].
#[derive(Debug)]
struct Direction {
    dag: GateDag,
    /// Logical operands of each two-qubit unitary, [`NOT_PAIR`]
    /// elsewhere, indexed like the DAG.
    pairs: Vec<(u32, u32)>,
    memo: RwLock<LookaheadMemo>,
}

impl Direction {
    fn new(circuit: &Circuit) -> Self {
        let pairs = circuit
            .iter()
            .map(|inst| match inst.qubit_pair() {
                Some((a, b)) if inst.gate().is_unitary() => (a.raw(), b.raw()),
                _ => NOT_PAIR,
            })
            .collect();
        Direction { dag: GateDag::new(circuit), pairs, memo: RwLock::default() }
    }
}

/// A program prepared for routing onto any number of chips: its DAGs,
/// operand tables and lookahead memo, built once (see the module docs).
/// Share one across threads and chips; the routes do not depend on
/// what the memo already holds.
#[derive(Debug)]
pub struct RouteProgram {
    circuit: Circuit,
    /// The program, then its reverse.
    directions: [Direction; 2],
    /// The first unitary on three or more qubits, which routing rejects.
    unsupported: Option<&'static str>,
    memo_cap: usize,
}

impl RouteProgram {
    /// Prepares `circuit` with a lookahead memo of [`ROUTE_MEMO_CAP`]
    /// entries per direction.
    pub fn new(circuit: &Circuit) -> Self {
        Self::with_memo_cap(circuit, ROUTE_MEMO_CAP)
    }

    /// Prepares `circuit` with a lookahead memo of at most `cap` entries
    /// per direction; `0` disables the memo. Routes are identical for
    /// every cap, which the unit tests check.
    fn with_memo_cap(circuit: &Circuit, cap: usize) -> Self {
        let unsupported = circuit
            .iter()
            .find(|inst| inst.gate().is_unitary() && inst.qubits().len() > 2)
            .map(|inst| inst.gate().name());
        RouteProgram {
            circuit: circuit.clone(),
            directions: [Direction::new(circuit), Direction::new(&circuit.reversed())],
            unsupported,
            memo_cap: cap,
        }
    }

    /// Entries the lookahead memo holds, both directions together.
    #[cfg(test)]
    fn memo_entries(&self) -> usize {
        self.directions.iter().map(|d| d.memo.read().expect("memo lock").len()).sum()
    }
}

/// What a routing pass does with each gate it executes and each SWAP
/// it inserts. Refinement passes ignore both; the final pass records
/// the physical circuit or only its depth.
trait PassSink {
    fn gate(&mut self, idx: usize, layout: &Layout);
    fn swap(&mut self, p1: usize, p2: usize);
}

impl PassSink for () {
    fn gate(&mut self, _: usize, _: &Layout) {}
    fn swap(&mut self, _: usize, _: usize) {}
}

/// Records the routed circuit over physical qubits.
struct CircuitSink<'c> {
    instructions: &'c [Instruction],
    physical: Circuit,
    mapped: Vec<Qubit>,
}

impl PassSink for CircuitSink<'_> {
    fn gate(&mut self, idx: usize, layout: &Layout) {
        let inst = &self.instructions[idx];
        self.mapped.clear();
        self.mapped
            .extend(inst.qubits().iter().map(|q| Qubit::from(layout.phys_of_log(q.index()))));
        self.physical.push(inst.gate().clone(), &self.mapped).expect("mapped instruction is valid");
    }

    fn swap(&mut self, p1: usize, p2: usize) {
        self.physical
            .push(Gate::Swap, &[Qubit::from(p1), Qubit::from(p2)])
            .expect("swap on valid physical qubits");
    }
}

/// Tracks the routed circuit's depth exactly as [`Circuit::depth`]
/// computes it on the recorded circuit: one level per physical qubit;
/// barriers synchronize without adding a layer.
struct DepthSink<'c> {
    instructions: &'c [Instruction],
    level: Vec<usize>,
}

impl DepthSink<'_> {
    fn depth(&self) -> usize {
        self.level.iter().copied().max().unwrap_or(0)
    }
}

impl PassSink for DepthSink<'_> {
    fn gate(&mut self, idx: usize, layout: &Layout) {
        let inst = &self.instructions[idx];
        let phys = |q: &Qubit| layout.phys_of_log(q.index());
        let max = inst.qubits().iter().map(|q| self.level[phys(q)]).max().unwrap_or(0);
        let next = if matches!(inst.gate(), Gate::Barrier) { max } else { max + 1 };
        for q in inst.qubits() {
            self.level[phys(q)] = next;
        }
    }

    fn swap(&mut self, p1: usize, p2: usize) {
        let next = self.level[p1].max(self.level[p2]) + 1;
        self.level[p1] = next;
        self.level[p2] = next;
    }
}

/// SABRE router bound to one architecture.
#[derive(Debug, Clone)]
pub struct SabreRouter<'a> {
    arch: &'a Architecture,
    /// Row-major flattened all-pairs distance matrix (stride
    /// `arch.num_qubits()`): one indexed load per lookup on the swap
    /// scoring path instead of two.
    dist: Vec<u32>,
}

impl<'a> SabreRouter<'a> {
    /// Creates a router for `arch`.
    pub fn new(arch: &'a Architecture) -> Self {
        let dist = arch.distance_matrix().into_iter().flatten().collect();
        SabreRouter { arch, dist }
    }

    /// Physical distance between `a` and `b` in coupling-graph hops.
    #[inline]
    fn dist(&self, a: usize, b: usize) -> u32 {
        self.dist[a * self.arch.num_qubits() + b]
    }

    /// The architecture this router targets.
    pub fn architecture(&self) -> &Architecture {
        self.arch
    }

    /// Routes a circuit: refines an initial mapping by reverse traversal,
    /// then produces the final forward routing.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit is wider than the chip, the chip is
    /// disconnected, or the circuit contains unitaries on three or more
    /// qubits.
    pub fn route(&self, circuit: &Circuit) -> Result<MappedCircuit, MappingError> {
        let program = RouteProgram::new(circuit);
        let layout = self.refine(&program)?;
        Ok(self.record(&program, layout))
    }

    /// Routes a prepared program like [`Self::route`] and returns only
    /// its statistics, equal to `route(circuit)?.stats()` for the
    /// circuit it was prepared from; no physical circuit is built.
    ///
    /// # Errors
    ///
    /// Same as [`SabreRouter::route`].
    pub fn route_stats(&self, program: &RouteProgram) -> Result<MappingStats, MappingError> {
        let layout = self.refine(program)?;
        let mut sink = DepthSink {
            instructions: program.circuit.instructions(),
            level: vec![0; self.arch.num_qubits()],
        };
        let (_, swaps) = self.route_pass(program, 0, layout, &mut sink);
        Ok(MappingStats::new(program.circuit.gate_count(), swaps, sink.depth()))
    }

    fn validate(&self, program: &RouteProgram) -> Result<(), MappingError> {
        if program.circuit.num_qubits() > self.arch.num_qubits() {
            return Err(MappingError::CircuitTooWide {
                logical: program.circuit.num_qubits(),
                physical: self.arch.num_qubits(),
            });
        }
        if !self.arch.is_connected() {
            return Err(MappingError::DisconnectedArchitecture);
        }
        match program.unsupported {
            Some(gate) => Err(MappingError::UnsupportedGate { gate }),
            None => Ok(()),
        }
    }

    /// Validates, builds the degree-matched initial mapping and runs
    /// the reverse-traversal refinement, returning the final pass's
    /// initial layout. Refinement passes only feed the next pass's
    /// layout, so they record nothing.
    fn refine(&self, program: &RouteProgram) -> Result<Layout, MappingError> {
        self.validate(program)?;
        let mut layout = degree_matched(&program.circuit, self.arch);
        for _ in 0..REVERSE_TRAVERSAL_ROUNDS {
            layout = self.route_pass(program, 0, layout, &mut ()).0;
            layout = self.route_pass(program, 1, layout, &mut ()).0;
        }
        Ok(layout)
    }

    /// The final forward pass from `initial`, recording the physical
    /// circuit.
    fn record(&self, program: &RouteProgram, initial: Layout) -> MappedCircuit {
        let mut sink = CircuitSink {
            instructions: program.circuit.instructions(),
            physical: Circuit::new(self.arch.num_qubits()),
            mapped: Vec::with_capacity(4),
        };
        let (final_layout, swaps) = self.route_pass(program, 0, initial.clone(), &mut sink);
        MappedCircuit {
            physical: sink.physical,
            initial_layout: initial,
            final_layout,
            original_gates: program.circuit.gate_count(),
            swaps,
        }
    }

    /// The SABRE loop over direction `dir` of `program` (0 forward, 1
    /// reversed), reporting executed gates and inserted SWAPs to `sink`.
    /// The swap decisions read only the layout, the front layer, the
    /// decay table and the distance matrix, so every sink sees the same
    /// route.
    fn route_pass<S: PassSink>(
        &self,
        program: &RouteProgram,
        dir: usize,
        initial: Layout,
        sink: &mut S,
    ) -> (Layout, usize) {
        let direction = &program.directions[dir];
        let (dag, pairs) = (&direction.dag, &direction.pairs[..]);
        let n_phys = self.arch.num_qubits();
        let mut cursor = dag.cursor();
        let mut layout = initial;
        let mut front: Vec<usize> = dag.initial_front().to_vec();
        let mut next_front: Vec<usize> = Vec::with_capacity(front.len() + 8);
        let mut swaps = 0usize;
        let mut decay = vec![1.0f64; n_phys];
        let mut swaps_since_reset = 0usize;

        // Reused per-blocked-step buffers: the memo key, the front and
        // extended pairs on physical qubits, the front-occupancy flags,
        // and the extended-set walk state.
        let mut key: Vec<u32> = Vec::new();
        let mut front_phys_pairs: Vec<(usize, usize)> = Vec::new();
        let mut ext_phys_pairs: Vec<(usize, usize)> = Vec::new();
        let mut front_phys = vec![false; n_phys];
        let mut extended: Vec<u32> = Vec::with_capacity(EXTENDED_SET_SIZE);
        let mut walk = ExtendedWalk::default();

        while !cursor.is_done() {
            // Phase 1: drain every executable gate from the front layer.
            let mut progressed = true;
            while progressed {
                progressed = false;
                next_front.clear();
                for &idx in &front {
                    let (a, b) = pairs[idx];
                    let executable = (a, b) == NOT_PAIR
                        || self
                            .dist(layout.phys_of_log(a as usize), layout.phys_of_log(b as usize))
                            == 1;
                    if executable {
                        sink.gate(idx, &layout);
                        cursor.execute_into(idx, &mut next_front);
                        progressed = true;
                        // A gate was executed: reset decay, per SABRE.
                        decay.fill(1.0);
                        swaps_since_reset = 0;
                    } else {
                        next_front.push(idx);
                    }
                }
                std::mem::swap(&mut front, &mut next_front);
            }
            if front.is_empty() {
                debug_assert!(cursor.is_done(), "empty front with unexecuted gates");
                break;
            }

            // Phase 2: pick the best SWAP for the blocked front layer.
            let phys = |(a, b): (u32, u32)| {
                (layout.phys_of_log(a as usize), layout.phys_of_log(b as usize))
            };
            front_phys_pairs.clear();
            front_phys_pairs
                .extend(front.iter().map(|&idx| pairs[idx]).filter(|&p| p != NOT_PAIR).map(phys));
            key.clear();
            key.extend(front.iter().map(|&idx| idx as u32));
            self.extended_set(direction, program.memo_cap, &key, &mut extended, &mut walk);
            ext_phys_pairs.clear();
            ext_phys_pairs.extend(extended.iter().map(|&idx| phys(pairs[idx as usize])));

            front_phys.fill(false);
            for &(a, b) in &front_phys_pairs {
                front_phys[a] = true;
                front_phys[b] = true;
            }

            let mut best: Option<((usize, usize), f64)> = None;
            for &(p1, p2) in self.arch.coupling_edges() {
                if !front_phys[p1] && !front_phys[p2] {
                    continue;
                }
                // Distances are small integers, so their sums are exact
                // in any order: summing as integers gives the same f64.
                let swapped = |p: usize| {
                    if p == p1 {
                        p2
                    } else if p == p2 {
                        p1
                    } else {
                        p
                    }
                };
                let sum = |list: &[(usize, usize)]| -> u64 {
                    list.iter().map(|&(a, b)| u64::from(self.dist(swapped(a), swapped(b)))).sum()
                };
                let d = decay[p1].max(decay[p2]);
                let mut h = sum(&front_phys_pairs) as f64 / front_phys_pairs.len() as f64;
                // The extended term is non-negative and every decay
                // positive, so a candidate whose front term alone,
                // times its decay, cannot beat the best score is
                // skipped before the extended sum.
                if let Some((_, s)) = best {
                    if d * h >= s - 1e-12 {
                        continue;
                    }
                }
                if !ext_phys_pairs.is_empty() {
                    let e = sum(&ext_phys_pairs) as f64;
                    h += EXTENDED_SET_WEIGHT * e / ext_phys_pairs.len() as f64;
                }
                let score = d * h;
                let better = match best {
                    None => true,
                    Some((_, s)) => score < s - 1e-12,
                };
                if better {
                    best = Some(((p1, p2), score));
                }
            }
            let ((p1, p2), _) = best.expect("connected architecture always offers a swap");

            sink.swap(p1, p2);
            layout.swap_physical(p1, p2);
            swaps += 1;
            decay[p1] += DECAY_DELTA;
            decay[p2] += DECAY_DELTA;
            swaps_since_reset += 1;
            if swaps_since_reset >= DECAY_RESET_INTERVAL {
                decay.fill(1.0);
                swaps_since_reset = 0;
            }
        }

        (layout, swaps)
    }

    /// The lookahead extended set of the ordered front `key` into `out`:
    /// served from the direction's memo, or walked and then memoized
    /// while the memo holds fewer than `cap` entries.
    fn extended_set(
        &self,
        direction: &Direction,
        cap: usize,
        key: &[u32],
        out: &mut Vec<u32>,
        walk: &mut ExtendedWalk,
    ) {
        out.clear();
        if cap > 0 {
            if let Some(hit) = direction.memo.read().expect("memo lock").get(key) {
                out.extend_from_slice(hit);
                return;
            }
        }
        walk.run(direction, key, out);
        if cap > 0 {
            let mut memo = direction.memo.write().expect("memo lock");
            if memo.len() < cap {
                memo.entry(key.into()).or_insert_with(|| out.as_slice().into());
            }
        }
    }
}

/// Reusable state of the extended-set walk: the queue and an
/// epoch-marked visited array (a node is "seen" iff its slot holds the
/// current epoch), so nothing is reallocated per walk.
#[derive(Debug, Default)]
struct ExtendedWalk {
    queue: VecDeque<u32>,
    seen: Vec<u32>,
    epoch: u32,
}

impl ExtendedWalk {
    /// The nearest two-qubit successors of `front` in breadth-first
    /// order, at most [`EXTENDED_SET_SIZE`] of them, appended to `out`.
    /// Every node the walk reaches is unexecuted (see the module docs),
    /// so it needs no execution state.
    fn run(&mut self, direction: &Direction, front: &[u32], out: &mut Vec<u32>) {
        let dag = &direction.dag;
        if self.seen.len() != dag.len() {
            self.seen = vec![0; dag.len()];
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.queue.clear();
        for &f in front {
            self.seen[f as usize] = epoch;
        }
        let visit = |idx: usize, seen: &mut [u32], queue: &mut VecDeque<u32>| {
            for &succ in dag.successors(idx) {
                if seen[succ] != epoch {
                    seen[succ] = epoch;
                    queue.push_back(succ as u32);
                }
            }
        };
        for &f in front {
            visit(f as usize, &mut self.seen, &mut self.queue);
        }
        while let Some(idx) = self.queue.pop_front() {
            if direction.pairs[idx as usize] != NOT_PAIR {
                out.push(idx);
                if out.len() >= EXTENDED_SET_SIZE {
                    break;
                }
            }
            visit(idx as usize, &mut self.seen, &mut self.queue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_mapped;
    use qpd_circuit::random::{random_circuit, RandomCircuitSpec};
    use qpd_topology::{ibm, Architecture, BusMode};

    fn line(n: i32) -> Architecture {
        let mut b = Architecture::builder(format!("line{n}"));
        for c in 0..n {
            b.qubit(0, c);
        }
        b.build().unwrap()
    }

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let arch = line(3);
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        let router = SabreRouter::new(&arch);
        let mapped = router.record(&RouteProgram::new(&c), Layout::trivial(3));
        assert_eq!(mapped.swap_count(), 0);
        assert_eq!(mapped.stats().total_gates, 2);
    }

    /// The sum of `total_gates` on the four seeded circuits below from a
    /// greedy baseline router: degree-matched initial mapping, then, gate
    /// by gate, SWAPs walking one operand along a shortest path until
    /// the pair is adjacent.
    const GREEDY_TOTAL: usize = 2_709;

    #[test]
    fn sabre_beats_or_matches_greedy_on_average() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let sabre_total: usize = (0..4)
            .map(|seed| {
                let c = random_circuit(&RandomCircuitSpec {
                    num_qubits: 16,
                    num_gates: 150,
                    two_qubit_fraction: 0.5,
                    seed: 40 + seed,
                });
                SabreRouter::new(&arch).route(&c).unwrap().stats().total_gates
            })
            .sum();
        assert!(
            sabre_total <= GREEDY_TOTAL,
            "sabre {sabre_total} should not lose to greedy {GREEDY_TOTAL}"
        );
    }

    #[test]
    fn distant_gate_inserts_swaps() {
        let arch = line(4);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let router = SabreRouter::new(&arch);
        let mapped = router.record(&RouteProgram::new(&c), Layout::trivial(4));
        assert!(mapped.swap_count() >= 2, "0 and 3 are distance 3 apart");
        verify_mapped(&c, &mapped, &arch).unwrap();
    }

    #[test]
    fn route_verifies_on_random_circuits() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        for seed in 0..5 {
            let c = random_circuit(&RandomCircuitSpec {
                num_qubits: 16,
                num_gates: 120,
                two_qubit_fraction: 0.5,
                seed,
            });
            let mapped = SabreRouter::new(&arch).route(&c).unwrap();
            verify_mapped(&c, &mapped, &arch).unwrap();
        }
    }

    #[test]
    fn narrow_circuit_on_wide_chip() {
        let arch = ibm::ibm_20q_4x5(BusMode::MaxFourQubit);
        let c = random_circuit(&RandomCircuitSpec {
            num_qubits: 7,
            num_gates: 60,
            two_qubit_fraction: 0.6,
            seed: 3,
        });
        let mapped = SabreRouter::new(&arch).route(&c).unwrap();
        verify_mapped(&c, &mapped, &arch).unwrap();
    }

    #[test]
    fn denser_connectivity_reduces_cost() {
        // The paper's premise: more connections -> fewer routing swaps.
        let sparse = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let dense = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        let mut total_sparse = 0usize;
        let mut total_dense = 0usize;
        for seed in 0..4 {
            let c = random_circuit(&RandomCircuitSpec {
                num_qubits: 16,
                num_gates: 200,
                two_qubit_fraction: 0.5,
                seed: 100 + seed,
            });
            total_sparse += SabreRouter::new(&sparse).route(&c).unwrap().stats().total_gates;
            total_dense += SabreRouter::new(&dense).route(&c).unwrap().stats().total_gates;
        }
        assert!(
            total_dense < total_sparse,
            "dense {total_dense} should beat sparse {total_sparse}"
        );
    }

    #[test]
    fn too_wide_circuit_errors() {
        let arch = line(2);
        let c = Circuit::new(3);
        assert!(matches!(
            SabreRouter::new(&arch).route(&c),
            Err(MappingError::CircuitTooWide { logical: 3, physical: 2 })
        ));
    }

    #[test]
    fn disconnected_architecture_errors() {
        let mut b = Architecture::builder("disc");
        b.qubit(0, 0).qubit(5, 5);
        let arch = b.build().unwrap();
        let c = Circuit::new(2);
        assert!(matches!(
            SabreRouter::new(&arch).route(&c),
            Err(MappingError::DisconnectedArchitecture)
        ));
    }

    #[test]
    fn three_qubit_gate_errors() {
        let arch = line(4);
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert!(matches!(
            SabreRouter::new(&arch).route(&c),
            Err(MappingError::UnsupportedGate { gate: "ccx" })
        ));
    }

    #[test]
    fn route_is_deterministic() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let c = random_circuit(&RandomCircuitSpec {
            num_qubits: 12,
            num_gates: 150,
            two_qubit_fraction: 0.5,
            seed: 77,
        });
        let a = SabreRouter::new(&arch).route(&c).unwrap();
        let b = SabreRouter::new(&arch).route(&c).unwrap();
        assert_eq!(a.physical_circuit(), b.physical_circuit());
        assert_eq!(a.swap_count(), b.swap_count());
    }

    #[test]
    fn measures_and_barriers_pass_through() {
        let arch = line(3);
        let mut c = Circuit::new(3);
        c.h(0).barrier_all().cx(0, 1).measure_all();
        let mapped = SabreRouter::new(&arch).route(&c).unwrap();
        let names: Vec<&str> = mapped.physical_circuit().iter().map(|i| i.gate().name()).collect();
        assert!(names.contains(&"barrier"));
        assert_eq!(names.iter().filter(|&&n| n == "measure").count(), 3);
    }

    #[test]
    fn reverse_traversal_helps_or_ties() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let c = random_circuit(&RandomCircuitSpec {
            num_qubits: 16,
            num_gates: 300,
            two_qubit_fraction: 0.5,
            seed: 5,
        });
        let refined = SabreRouter::new(&arch).route(&c).unwrap();
        let unrefined =
            SabreRouter::new(&arch).record(&RouteProgram::new(&c), degree_matched(&c, &arch));
        // Not guaranteed gate-by-gate, but refinement should not be much
        // worse; allow 10% slack and require both to verify.
        verify_mapped(&c, &refined, &arch).unwrap();
        verify_mapped(&c, &unrefined, &arch).unwrap();
        assert!(
            (refined.stats().total_gates as f64) <= 1.10 * unrefined.stats().total_gates as f64
        );
    }

    #[test]
    fn executable_circuit_matches_total_gates() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let c = random_circuit(&RandomCircuitSpec {
            num_qubits: 10,
            num_gates: 80,
            two_qubit_fraction: 0.5,
            seed: 31,
        });
        let mapped = SabreRouter::new(&arch).route(&c).unwrap();
        let executable = mapped.executable_circuit();
        assert_eq!(executable.gate_count(), mapped.stats().total_gates);
        assert!(executable.iter().all(|i| i.gate().name() != "swap"));
        // Every two-qubit gate must still land on a coupled pair.
        for inst in executable.iter() {
            if let Some((a, b)) = inst.qubit_pair() {
                assert!(arch.neighbors(a.index()).contains(&b.index()));
            }
        }
    }

    #[test]
    fn memo_bound_changes_no_route() {
        let chips = [
            ibm::ibm_16q_2x8(BusMode::TwoQubitOnly),
            ibm::ibm_16q_2x8(BusMode::MaxFourQubit),
            ibm::ibm_20q_4x5(BusMode::MaxFourQubit),
        ];
        for seed in 0..3 {
            let c = random_circuit(&RandomCircuitSpec {
                num_qubits: 16,
                num_gates: 200,
                two_qubit_fraction: 0.5,
                seed,
            });
            let full = RouteProgram::new(&c);
            let expected: Vec<MappingStats> = chips
                .iter()
                .map(|chip| SabreRouter::new(chip).route_stats(&full).unwrap())
                .collect();
            assert!(full.memo_entries() > 0, "blocked steps fill the memo");
            for cap in [0, 3] {
                let bounded = RouteProgram::with_memo_cap(&c, cap);
                for (chip, stats) in chips.iter().zip(&expected) {
                    assert_eq!(&SabreRouter::new(chip).route_stats(&bounded).unwrap(), stats);
                }
                assert!(bounded.memo_entries() <= 2 * cap, "the cap bounds each direction");
            }
        }
    }

    #[test]
    fn ising_chain_maps_perfectly_on_line() {
        // §5.3.1: a chain-coupled program on a line architecture needs no
        // swaps at all once the initial mapping is right.
        let arch = line(8);
        let mut c = Circuit::new(8);
        for step in 0..4 {
            let _ = step;
            for q in 0..7u32 {
                c.cx(q, q + 1);
            }
        }
        let mapped = SabreRouter::new(&arch).route(&c).unwrap();
        assert_eq!(mapped.swap_count(), 0, "chain on line must be swap-free");
    }
}
