//! Gate dependency DAG over a circuit.
//!
//! Routing algorithms (SABRE in `qpd-mapping`) consume circuits as a
//! dependency graph: instruction B depends on instruction A when they share
//! a qubit and A precedes B. The DAG exposes the *front layer* (instructions
//! with no unresolved dependencies) and lets callers retire instructions to
//! release their successors.

use crate::circuit::Circuit;

/// Immutable dependency structure of a circuit, with per-gate successor
/// lists and in-degrees.
///
/// ```
/// use qpd_circuit::{Circuit, GateDag};
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 1).cx(1, 2).cx(0, 2);
/// let dag = GateDag::new(&c);
/// assert_eq!(dag.initial_front(), &[0]);
/// assert_eq!(dag.successors(0), &[1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct GateDag {
    successors: Vec<Vec<usize>>,
    in_degree: Vec<usize>,
    initial_front: Vec<usize>,
}

impl GateDag {
    /// Builds the dependency DAG for `circuit`.
    ///
    /// Two instructions are ordered iff they share at least one qubit;
    /// each instruction depends on the previous instruction on each of its
    /// qubit lines (transitive edges are not materialized).
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut in_degree = vec![0usize; n];
        let mut last_on_line: Vec<Option<usize>> = vec![None; circuit.num_qubits()];

        for (idx, inst) in circuit.iter().enumerate() {
            for q in inst.qubits() {
                if let Some(prev) = last_on_line[q.index()] {
                    // A gate touching two lines whose previous gate is the
                    // same instruction must not double-count the edge.
                    if successors[prev].last() != Some(&idx) {
                        successors[prev].push(idx);
                        in_degree[idx] += 1;
                    }
                }
                last_on_line[q.index()] = Some(idx);
            }
        }

        let initial_front = (0..n).filter(|&i| in_degree[i] == 0).collect();
        GateDag { successors, in_degree, initial_front }
    }

    /// Number of instructions in the underlying circuit.
    pub fn len(&self) -> usize {
        self.in_degree.len()
    }

    /// Whether the underlying circuit was empty.
    pub fn is_empty(&self) -> bool {
        self.in_degree.is_empty()
    }

    /// Instructions with no dependencies at all (the initial front layer).
    pub fn initial_front(&self) -> &[usize] {
        &self.initial_front
    }

    /// Direct successors of instruction `idx`.
    pub fn successors(&self, idx: usize) -> &[usize] {
        &self.successors[idx]
    }

    /// In-degree (number of direct predecessors) of instruction `idx`.
    pub fn in_degree(&self, idx: usize) -> usize {
        self.in_degree[idx]
    }

    /// Creates a mutable traversal cursor over this DAG.
    pub fn cursor(&self) -> DagCursor<'_> {
        DagCursor {
            dag: self,
            remaining_preds: self.in_degree.clone(),
            executed: vec![false; self.len()],
            executed_count: 0,
        }
    }
}

/// A mutable topological traversal over a [`GateDag`].
///
/// Callers retire ready instructions with [`DagCursor::execute_into`];
/// newly released successors are handed back so the caller can maintain
/// its own front layer.
#[derive(Debug, Clone)]
pub struct DagCursor<'a> {
    dag: &'a GateDag,
    remaining_preds: Vec<usize>,
    executed: Vec<bool>,
    executed_count: usize,
}

impl<'a> DagCursor<'a> {
    /// Whether instruction `idx` has all dependencies resolved and has not
    /// been executed yet.
    pub fn is_ready(&self, idx: usize) -> bool {
        !self.executed[idx] && self.remaining_preds[idx] == 0
    }

    /// Number of instructions executed so far.
    pub fn executed_count(&self) -> usize {
        self.executed_count
    }

    /// Whether every instruction has been executed.
    pub fn is_done(&self) -> bool {
        self.executed_count == self.dag.len()
    }

    /// Retires instruction `idx`, *appending* the successors that became
    /// ready as a result to `released` (the buffer is not cleared), so a
    /// traversal loop can retire every instruction of a front layer
    /// without allocating per gate.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not ready (unexecuted with zero remaining
    /// predecessors); executing out of order would corrupt the traversal.
    pub fn execute_into(&mut self, idx: usize, released: &mut Vec<usize>) {
        assert!(self.is_ready(idx), "instruction {idx} executed out of order");
        self.executed[idx] = true;
        self.executed_count += 1;
        for &succ in self.dag.successors(idx) {
            self.remaining_preds[succ] -= 1;
            if self.remaining_preds[succ] == 0 {
                released.push(succ);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn chain3() -> Circuit {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2).cx(0, 2);
        c
    }

    #[test]
    fn front_and_successors() {
        let dag = GateDag::new(&chain3());
        assert_eq!(dag.initial_front(), &[0]);
        assert_eq!(dag.successors(0), &[1, 2]);
        assert_eq!(dag.successors(1), &[2]);
        assert_eq!(dag.in_degree(2), 2);
    }

    #[test]
    fn no_duplicate_edges_for_shared_pair() {
        // Both lines of the second cx end at the first cx.
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0);
        let dag = GateDag::new(&c);
        assert_eq!(dag.successors(0), &[1]);
        assert_eq!(dag.in_degree(1), 1);
    }

    #[test]
    fn cursor_releases_in_topological_order() {
        let dag = GateDag::new(&chain3());
        let mut cur = dag.cursor();
        assert!(cur.is_ready(0));
        assert!(!cur.is_ready(1));
        let mut released = Vec::new();
        cur.execute_into(0, &mut released);
        assert_eq!(released, vec![1]);
        cur.execute_into(1, &mut released);
        assert_eq!(released, vec![1, 2]);
        assert!(!cur.is_done());
        cur.execute_into(2, &mut released);
        assert_eq!(released, vec![1, 2]);
        assert!(cur.is_done());
        assert_eq!(cur.executed_count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn cursor_rejects_out_of_order() {
        let dag = GateDag::new(&chain3());
        let mut cur = dag.cursor();
        cur.execute_into(2, &mut Vec::new());
    }

    #[test]
    fn parallel_gates_all_in_front() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3);
        let dag = GateDag::new(&c);
        assert_eq!(dag.initial_front(), &[0, 1]);
    }

    #[test]
    fn single_qubit_gates_chain() {
        let mut c = Circuit::new(1);
        c.h(0).x(0).h(0);
        let dag = GateDag::new(&c);
        assert_eq!(dag.initial_front(), &[0]);
        assert_eq!(dag.successors(0), &[1]);
        assert_eq!(dag.successors(1), &[2]);
    }

    #[test]
    fn empty_circuit() {
        let dag = GateDag::new(&Circuit::new(3));
        assert!(dag.is_empty());
        assert!(dag.cursor().is_done());
    }
}
