//! The degree-matched initial mapping that seeds SABRE's refinement.

use qpd_circuit::Circuit;
use qpd_topology::Architecture;

use crate::layout::Layout;

/// A layout on `arch.num_qubits()` qubits for `circuit`: logical qubits
/// sorted by coupling degree are assigned to physical qubits sorted by
/// degree and centrality, so busy logical qubits land on well-connected,
/// central physical qubits.
///
/// The circuit may be narrower than the chip; extra physical qubits
/// host dummy logical qubits.
pub(crate) fn degree_matched(circuit: &Circuit, arch: &Architecture) -> Layout {
    let n = arch.num_qubits();
    // Logical degrees: number of two-qubit gates per qubit.
    let mut logical_degree = vec![0u64; n];
    for (a, b) in circuit.two_qubit_pairs() {
        logical_degree[a.index()] += 1;
        logical_degree[b.index()] += 1;
    }
    let mut logical: Vec<usize> = (0..n).collect();
    logical.sort_by_key(|&q| (std::cmp::Reverse(logical_degree[q]), q));

    // Physical preference: high degree first, then closeness to the
    // center qubit, then index.
    let from_center = arch.distances_from(arch.center_qubit());
    let mut physical: Vec<usize> = (0..n).collect();
    physical.sort_by_key(|&p| (std::cmp::Reverse(arch.degree(p)), from_center[p], p));

    let mut log_to_phys = vec![0u32; n];
    for (l, p) in logical.into_iter().zip(physical) {
        log_to_phys[l] = p as u32;
    }
    Layout::from_log_to_phys(log_to_phys).expect("constructed permutation is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd_topology::Architecture;

    fn line4() -> Architecture {
        let mut b = Architecture::builder("line4");
        for c in 0..4 {
            b.qubit(0, c);
        }
        b.build().unwrap()
    }

    #[test]
    fn degree_matched_centers_busy_qubit() {
        let arch = line4();
        // Qubit 3 is the busiest logical qubit.
        let mut c = Circuit::new(4);
        c.cx(3, 0).cx(3, 1).cx(3, 2);
        let l = degree_matched(&c, &arch);
        // Physical qubits 1 and 2 have degree 2 (ends have 1); the busy
        // logical qubit must land on one of them.
        let p = l.phys_of_log(3);
        assert!(p == 1 || p == 2, "busy qubit placed at end: {p}");
    }

    #[test]
    fn narrow_circuit_padded() {
        let arch = line4();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let l = degree_matched(&c, &arch);
        assert_eq!(l.len(), 4);
        // All four physical qubits are used by the bijection.
        let mut seen = [false; 4];
        for log in 0..4 {
            seen[l.phys_of_log(log)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
