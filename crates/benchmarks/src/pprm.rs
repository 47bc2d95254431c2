//! Positive-polarity Reed–Muller (PPRM) synthesis of Boolean functions
//! into multi-controlled-Toffoli networks.
//!
//! Any Boolean function `f : {0,1}^n -> {0,1}` has a unique expansion
//! `f(x) = XOR over subsets S of a_S * AND_{i in S} x_i` with
//! coefficients given by the Möbius transform `a_S = XOR_{T subset of S}
//! f(T)`. Each monomial with `a_S = 1` becomes one MCT with controls `S`
//! targeting the output line — the classic ESOP/PPRM reversible
//! synthesis that RevLib's arithmetic benchmarks are built from.

use qpd_circuit::{Circuit, Gate, Qubit};

/// The PPRM (algebraic normal form) coefficients of a single-output
/// function given as a truth table over `n` inputs (`truth[x]` is `f(x)`
/// with input bit `i` of `x` = variable `i`).
///
/// Returns one `u32` mask per monomial with coefficient 1.
///
/// # Panics
///
/// Panics unless `truth.len() == 1 << n` with `n <= 20`.
pub fn pprm_monomials(n: usize, truth: &[bool]) -> Vec<u32> {
    assert!(n <= 20, "PPRM synthesis capped at 20 inputs");
    assert_eq!(truth.len(), 1usize << n, "truth table size mismatch");
    // In-place Möbius transform over the subset lattice.
    let mut a: Vec<bool> = truth.to_vec();
    for i in 0..n {
        let bit = 1usize << i;
        for x in 0..a.len() {
            if x & bit != 0 {
                a[x] ^= a[x ^ bit];
            }
        }
    }
    (0..a.len()).filter(|&s| a[s]).map(|s| s as u32).collect()
}

/// Synthesizes a multi-output function into an MCT network.
///
/// Lines `0..num_inputs` hold the inputs; line `num_inputs + k` receives
/// output `k` (xored onto it). `extra_lines` idle lines are appended —
/// RevLib circuits carry them, and the MCT decomposition borrows them as
/// dirty ancillas.
///
/// `outputs[k]` is the truth table of output `k`.
///
/// # Panics
///
/// Panics on truth-table size mismatches (see [`pprm_monomials`]).
pub fn synthesize(num_inputs: usize, outputs: &[Vec<bool>], extra_lines: usize) -> Circuit {
    let num_qubits = num_inputs + outputs.len() + extra_lines;
    let mut circuit = Circuit::new(num_qubits);
    for (k, truth) in outputs.iter().enumerate() {
        let target = Qubit::from(num_inputs + k);
        for mask in pprm_monomials(num_inputs, truth) {
            if mask == 0 {
                // Constant-1 coefficient: plain X on the output.
                circuit.push(Gate::X, &[target]).expect("valid");
                continue;
            }
            let mut operands: Vec<Qubit> =
                (0..num_inputs).filter(|i| mask >> i & 1 == 1).map(Qubit::from).collect();
            operands.push(target);
            let gate = match operands.len() {
                2 => Gate::Cx,
                3 => Gate::Ccx,
                _ => Gate::Mcx,
            };
            circuit.push(gate, &operands).expect("valid MCT");
        }
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd_circuit::sim::apply_reversible;

    /// Evaluates a PPRM monomial list on input `x`.
    fn eval_pprm(monomials: &[u32], x: u32) -> bool {
        monomials.iter().filter(|&&s| x & s == s).count() % 2 == 1
    }

    #[test]
    fn xor_function_is_linear() {
        // f = x0 xor x1: monomials {x0}, {x1}.
        let truth: Vec<bool> = (0..4u32).map(|x| (x.count_ones() % 2) == 1).collect();
        let mut monos = pprm_monomials(2, &truth);
        monos.sort_unstable();
        assert_eq!(monos, vec![0b01, 0b10]);
    }

    #[test]
    fn and_function_is_single_monomial() {
        let truth: Vec<bool> = (0..4u32).map(|x| x == 0b11).collect();
        assert_eq!(pprm_monomials(2, &truth), vec![0b11]);
    }

    #[test]
    fn or_has_three_monomials() {
        // x or y = x xor y xor xy.
        let truth: Vec<bool> = (0..4u32).map(|x| x != 0).collect();
        let mut monos = pprm_monomials(2, &truth);
        monos.sort_unstable();
        assert_eq!(monos, vec![0b01, 0b10, 0b11]);
    }

    #[test]
    fn constant_one() {
        let truth = vec![true, true];
        assert_eq!(pprm_monomials(1, &truth), vec![0]);
    }

    #[test]
    fn eval_matches_transform() {
        // Random-ish 4-input function; PPRM evaluation must reproduce it.
        let truth: Vec<bool> = (0..16u32).map(|x| (x * 7 + 3) % 5 < 2).collect();
        let monos = pprm_monomials(4, &truth);
        for x in 0..16u32 {
            assert_eq!(eval_pprm(&monos, x), truth[x as usize], "x={x}");
        }
    }

    #[test]
    fn synthesized_circuit_computes_function() {
        // Two outputs over 3 inputs: majority and parity.
        let majority: Vec<bool> = (0..8u32).map(|x| x.count_ones() >= 2).collect();
        let parity: Vec<bool> = (0..8u32).map(|x| x.count_ones() % 2 == 1).collect();
        let circuit = synthesize(3, &[majority.clone(), parity.clone()], 1);
        assert_eq!(circuit.num_qubits(), 6);
        for x in 0..8u128 {
            let out = apply_reversible(&circuit, x).unwrap();
            let maj_bit = out >> 3 & 1;
            let par_bit = out >> 4 & 1;
            assert_eq!(maj_bit == 1, majority[x as usize], "majority({x})");
            assert_eq!(par_bit == 1, parity[x as usize], "parity({x})");
            // Inputs preserved, spare line untouched.
            assert_eq!(out & 0b111, x);
            assert_eq!(out >> 5 & 1, 0);
        }
    }
}
