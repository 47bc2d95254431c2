//! The SABRE routing algorithm (Li, Ding, Xie, ASPLOS 2019).

use std::collections::VecDeque;

use qpd_circuit::dag::DagCursor;
use qpd_circuit::{Circuit, Gate, GateDag, Instruction, Qubit};
use qpd_topology::Architecture;

use crate::error::MappingError;
use crate::initial::InitialMapping;
use crate::layout::Layout;
use crate::stats::MappingStats;

/// Tunable SABRE parameters; defaults follow the published algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SabreConfig {
    /// Maximum number of two-qubit gates in the lookahead extended set.
    pub extended_set_size: usize,
    /// Weight of the extended set in the heuristic score.
    pub extended_set_weight: f64,
    /// Additive decay applied to a physical qubit each time it swaps.
    pub decay_delta: f64,
    /// Decay values reset after this many consecutive SWAP insertions.
    pub decay_reset_interval: usize,
    /// Forward/backward refinement rounds before the final forward pass.
    pub reverse_traversal_rounds: usize,
    /// Initial mapping strategy seeding the refinement.
    pub initial_mapping: InitialMapping,
}

impl Default for SabreConfig {
    fn default() -> Self {
        SabreConfig {
            extended_set_size: 20,
            extended_set_weight: 0.5,
            decay_delta: 0.001,
            decay_reset_interval: 5,
            reverse_traversal_rounds: 2,
            initial_mapping: InitialMapping::DegreeMatched,
        }
    }
}

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

/// SABRE router bound to one architecture.
#[derive(Debug, Clone)]
pub struct SabreRouter<'a> {
    arch: &'a Architecture,
    /// Row-major flattened all-pairs distance matrix (stride
    /// `arch.num_qubits()`): one indexed load per lookup on the swap
    /// scoring path instead of two.
    dist: Vec<u32>,
    config: SabreConfig,
}

impl<'a> SabreRouter<'a> {
    /// Creates a router with default configuration.
    pub fn new(arch: &'a Architecture) -> Self {
        Self::with_config(arch, SabreConfig::default())
    }

    /// Creates a router with an explicit configuration.
    pub fn with_config(arch: &'a Architecture, config: SabreConfig) -> Self {
        let dist = arch.distance_matrix().into_iter().flatten().collect();
        SabreRouter { arch, dist, config }
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
        self.validate(circuit)?;
        let mut layout = self.config.initial_mapping.build(circuit, self.arch);
        let reversed = circuit.reversed();
        // The dependency DAGs are layout-independent: build each once and
        // share it across every refinement round. Refinement passes only
        // feed the next pass's initial layout, so they skip building the
        // physical circuit entirely — the swap decisions (layout, front,
        // decay, distances) are unaffected and the final pass emits the
        // exact circuit the unshared per-pass construction would.
        let dag = GateDag::new(circuit);
        let reversed_dag = GateDag::new(&reversed);
        for _ in 0..self.config.reverse_traversal_rounds {
            layout = self.route_pass(circuit, &dag, layout, None).0;
            layout = self.route_pass(&reversed, &reversed_dag, layout, None).0;
        }
        Ok(self.route_once(circuit, &dag, layout))
    }

    /// Routes a circuit from an explicit initial layout, without
    /// reverse-traversal refinement.
    ///
    /// # Errors
    ///
    /// Same as [`SabreRouter::route`], plus
    /// [`MappingError::InvalidLayout`] if the layout's size does not match
    /// the chip.
    pub fn route_from(
        &self,
        circuit: &Circuit,
        initial: Layout,
    ) -> Result<MappedCircuit, MappingError> {
        self.validate(circuit)?;
        if initial.len() != self.arch.num_qubits() {
            return Err(MappingError::InvalidLayout {
                reason: format!(
                    "layout covers {} qubits, architecture has {}",
                    initial.len(),
                    self.arch.num_qubits()
                ),
            });
        }
        Ok(self.route_once(circuit, &GateDag::new(circuit), initial))
    }

    fn validate(&self, circuit: &Circuit) -> Result<(), MappingError> {
        if circuit.num_qubits() > self.arch.num_qubits() {
            return Err(MappingError::CircuitTooWide {
                logical: circuit.num_qubits(),
                physical: self.arch.num_qubits(),
            });
        }
        if !self.arch.is_connected() {
            return Err(MappingError::DisconnectedArchitecture);
        }
        for inst in circuit.iter() {
            if inst.gate().is_unitary() && inst.qubits().len() > 2 {
                return Err(MappingError::UnsupportedGate { gate: inst.gate().name() });
            }
        }
        Ok(())
    }

    /// One full recorded routing pass (the core SABRE loop), emitting
    /// the physical circuit.
    fn route_once(&self, circuit: &Circuit, dag: &GateDag, initial: Layout) -> MappedCircuit {
        let mut physical = Circuit::new(self.arch.num_qubits());
        let (final_layout, swaps) =
            self.route_pass(circuit, dag, initial.clone(), Some(&mut physical));
        MappedCircuit {
            physical,
            initial_layout: initial,
            final_layout,
            original_gates: circuit.gate_count(),
            swaps,
        }
    }

    /// The SABRE loop over a prebuilt dependency DAG. With
    /// `record: None` (the refinement rounds) no physical circuit is
    /// built — only the final layout and swap count are produced; the
    /// swap decisions are identical either way because they read only
    /// the layout, the front layer, the decay table, and the distance
    /// matrix.
    fn route_pass(
        &self,
        circuit: &Circuit,
        dag: &GateDag,
        initial: Layout,
        mut record: Option<&mut Circuit>,
    ) -> (Layout, usize) {
        let n_phys = self.arch.num_qubits();
        let mut cursor = dag.cursor();
        let mut layout = initial;
        let mut front: Vec<usize> = dag.initial_front().to_vec();
        let mut next_front: Vec<usize> = Vec::with_capacity(front.len() + 8);
        let mut swaps = 0usize;
        let mut decay = vec![1.0f64; n_phys];
        let mut swaps_since_reset = 0usize;

        // Reused per-blocked-step buffers: the mapped-operand scratch,
        // the front pair list, the front-occupancy flags, and the
        // extended-set BFS state (epoch-marked visited array instead of
        // a rehashed set per step).
        let mut mapped_buf: Vec<Qubit> = Vec::with_capacity(4);
        let mut front_pairs: Vec<(usize, usize)> = Vec::new();
        let mut front_phys = vec![false; n_phys];
        let mut extended: Vec<(usize, usize)> = Vec::with_capacity(self.config.extended_set_size);
        let mut ext_queue: VecDeque<usize> = VecDeque::new();
        let mut ext_seen: Vec<u32> = vec![0; dag.len()];
        let mut ext_epoch: u32 = 0;

        let instructions = circuit.instructions();

        while !cursor.is_done() {
            // Phase 1: drain every executable gate from the front layer.
            let mut progressed = true;
            while progressed {
                progressed = false;
                next_front.clear();
                for &idx in &front {
                    if self.is_executable(&instructions[idx], &layout) {
                        if let Some(physical) = record.as_deref_mut() {
                            let inst = &instructions[idx];
                            mapped_buf.clear();
                            mapped_buf.extend(
                                inst.qubits()
                                    .iter()
                                    .map(|q| Qubit::from(layout.phys_of_log(q.index()))),
                            );
                            physical
                                .push(inst.gate().clone(), &mapped_buf)
                                .expect("mapped instruction is valid");
                        }
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
            front_pairs.clear();
            front_pairs.extend(
                front
                    .iter()
                    .filter_map(|&idx| instructions[idx].qubit_pair())
                    .map(|(a, b)| (a.index(), b.index())),
            );
            ext_epoch += 1;
            self.extended_set(
                instructions,
                dag,
                &cursor,
                &front,
                &mut extended,
                &mut ext_queue,
                &mut ext_seen,
                ext_epoch,
            );

            front_phys.fill(false);
            for &(a, b) in &front_pairs {
                front_phys[layout.phys_of_log(a)] = true;
                front_phys[layout.phys_of_log(b)] = true;
            }

            let mut best: Option<((usize, usize), f64)> = None;
            for &(p1, p2) in self.arch.coupling_edges() {
                if !front_phys[p1] && !front_phys[p2] {
                    continue;
                }
                layout.swap_physical(p1, p2);
                let mut h = 0.0f64;
                for &(a, b) in &front_pairs {
                    h += self.dist(layout.phys_of_log(a), layout.phys_of_log(b)) as f64;
                }
                h /= front_pairs.len() as f64;
                if !extended.is_empty() {
                    let mut e = 0.0f64;
                    for &(a, b) in &extended {
                        e += self.dist(layout.phys_of_log(a), layout.phys_of_log(b)) as f64;
                    }
                    h += self.config.extended_set_weight * e / extended.len() as f64;
                }
                layout.swap_physical(p1, p2);
                let score = decay[p1].max(decay[p2]) * h;
                let better = match best {
                    None => true,
                    Some((_, s)) => score < s - 1e-12,
                };
                if better {
                    best = Some(((p1, p2), score));
                }
            }
            let ((p1, p2), _) = best.expect("connected architecture always offers a swap");

            if let Some(physical) = record.as_deref_mut() {
                physical
                    .push(Gate::Swap, &[Qubit::from(p1), Qubit::from(p2)])
                    .expect("swap on valid physical qubits");
            }
            layout.swap_physical(p1, p2);
            swaps += 1;
            decay[p1] += self.config.decay_delta;
            decay[p2] += self.config.decay_delta;
            swaps_since_reset += 1;
            if swaps_since_reset >= self.config.decay_reset_interval {
                decay.fill(1.0);
                swaps_since_reset = 0;
            }
        }

        (layout, swaps)
    }

    fn is_executable(&self, inst: &Instruction, layout: &Layout) -> bool {
        if !(inst.gate().is_unitary() && inst.qubits().len() == 2) {
            return true;
        }
        let (a, b) = inst.qubit_pair().expect("two-qubit gate");
        self.dist(layout.phys_of_log(a.index()), layout.phys_of_log(b.index())) == 1
    }

    /// The lookahead extended set: the nearest unexecuted two-qubit
    /// successors of the front layer in BFS order, capped at
    /// `extended_set_size` gates.
    ///
    /// Writes into caller-owned buffers: `pairs` receives the result;
    /// `queue` and `seen`/`epoch` replace a per-call hash set with an
    /// epoch-marked visited array (a node is "seen" iff its slot holds
    /// the current epoch), so nothing is reallocated per blocked step.
    #[allow(clippy::too_many_arguments)]
    fn extended_set(
        &self,
        instructions: &[Instruction],
        dag: &GateDag,
        cursor: &DagCursor<'_>,
        front: &[usize],
        pairs: &mut Vec<(usize, usize)>,
        queue: &mut VecDeque<usize>,
        seen: &mut [u32],
        epoch: u32,
    ) {
        pairs.clear();
        queue.clear();
        for &f in front {
            seen[f] = epoch;
        }
        for &f in front {
            for &succ in dag.successors(f) {
                if !cursor.is_executed(succ) && seen[succ] != epoch {
                    seen[succ] = epoch;
                    queue.push_back(succ);
                }
            }
        }
        while let Some(idx) = queue.pop_front() {
            let inst = &instructions[idx];
            if inst.gate().is_unitary() && inst.qubits().len() == 2 {
                let (a, b) = inst.qubit_pair().expect("two-qubit gate");
                pairs.push((a.index(), b.index()));
                if pairs.len() >= self.config.extended_set_size {
                    break;
                }
            }
            for &succ in dag.successors(idx) {
                if !cursor.is_executed(succ) && seen[succ] != epoch {
                    seen[succ] = epoch;
                    queue.push_back(succ);
                }
            }
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
        let router = SabreRouter::with_config(
            &arch,
            SabreConfig { initial_mapping: InitialMapping::Trivial, ..Default::default() },
        );
        let mapped = router.route_from(&c, Layout::trivial(3)).unwrap();
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
        let mapped = router.route_from(&c, Layout::trivial(4)).unwrap();
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
        let unrefined = SabreRouter::new(&arch)
            .route_from(&c, InitialMapping::DegreeMatched.build(&c, &arch))
            .unwrap();
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
