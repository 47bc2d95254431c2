//! Gate decomposition passes.
//!
//! The modeled hardware natively supports single-qubit gates and CNOT
//! (paper §2.1: "any multi-qubit gate can be decomposed into a series of
//! single-qubit gates and CNOT gates ... the basic gate set directly
//! supported on IBM's devices"). This module lowers the full [`Gate`]
//! set to that basis:
//!
//! - [`lower_mcx`] rewrites multi-controlled NOTs into `{CCX, CX, X}`
//!   using a dirty-ancilla V-chain (Barenco et al. Lemma 7.2 shape) when
//!   `k - 2` spare qubits exist, falling back to the one-dirty-ancilla
//!   split of Lemma 7.3 otherwise;
//! - [`decompose_to_native`] lowers every remaining non-native gate
//!   (CZ, CY, CH, SWAP, CP, CRZ, CU3, RZZ, CCX, CSWAP) to `{CX, 1q}`.
//!
//! All decompositions are verified in tests against the reference
//! simulators in [`crate::sim`].

use crate::circuit::{Circuit, Instruction};
use crate::error::CircuitError;
use crate::gate::Gate;
use crate::qubit::Qubit;

/// Lowers [`Gate::Mcx`] instructions to `{CCX, CX, X}`; all other
/// instructions are copied through unchanged.
///
/// # Errors
///
/// Returns [`CircuitError::NotEnoughAncillas`] if an MCX with three or
/// more controls spans every qubit of the circuit (the decomposition
/// needs at least one spare qubit to borrow as a dirty ancilla).
pub fn lower_mcx(circuit: &Circuit) -> Result<Circuit, CircuitError> {
    let mut out = Circuit::new(circuit.num_qubits());
    for inst in circuit.iter() {
        match inst.gate() {
            Gate::Mcx => {
                let (target, controls) = inst.qubits().split_last().expect("mcx operands");
                emit_mcx(&mut out, controls, *target)?;
            }
            _ => out.push_instruction(inst.clone())?,
        }
    }
    Ok(out)
}

/// Emits an MCX on `controls`/`target` into `out`, borrowing dirty
/// ancillas from the unused qubits of `out`.
fn emit_mcx(out: &mut Circuit, controls: &[Qubit], target: Qubit) -> Result<(), CircuitError> {
    match controls.len() {
        0 => unreachable!("mcx arity >= 2 enforced by Instruction::new"),
        1 => {
            out.push(Gate::Cx, &[controls[0], target])?;
            Ok(())
        }
        2 => {
            out.push(Gate::Ccx, &[controls[0], controls[1], target])?;
            Ok(())
        }
        k => {
            let free = free_qubits(out.num_qubits(), controls, target);
            if free.len() >= k - 2 {
                emit_vchain(out, controls, &free[..k - 2], target)
            } else if !free.is_empty() {
                emit_split(out, controls, free[0], target)
            } else {
                Err(CircuitError::NotEnoughAncillas { gate: "mcx", needed: 1, available: 0 })
            }
        }
    }
}

/// Qubits of the circuit not among the given operands (usable as dirty
/// ancillas).
fn free_qubits(num_qubits: usize, controls: &[Qubit], target: Qubit) -> Vec<Qubit> {
    let mut used = vec![false; num_qubits];
    for c in controls {
        used[c.index()] = true;
    }
    used[target.index()] = true;
    (0..num_qubits).map(Qubit::from).filter(|q| !used[q.index()]).collect()
}

/// Dirty-ancilla V-chain: `k >= 3` controls, `k - 2` ancillas of arbitrary
/// initial value (restored afterwards). Emits `4k - 8` Toffolis.
fn emit_vchain(
    out: &mut Circuit,
    controls: &[Qubit],
    ancillas: &[Qubit],
    target: Qubit,
) -> Result<(), CircuitError> {
    let k = controls.len();
    debug_assert!(k >= 3 && ancillas.len() == k - 2);
    let half = |out: &mut Circuit| -> Result<(), CircuitError> {
        out.push(Gate::Ccx, &[controls[k - 1], ancillas[k - 3], target])?;
        for i in (2..k - 1).rev() {
            out.push(Gate::Ccx, &[controls[i], ancillas[i - 2], ancillas[i - 1]])?;
        }
        out.push(Gate::Ccx, &[controls[0], controls[1], ancillas[0]])?;
        for i in 2..k - 1 {
            out.push(Gate::Ccx, &[controls[i], ancillas[i - 2], ancillas[i - 1]])?;
        }
        Ok(())
    };
    half(out)?;
    half(out)
}

/// One-dirty-ancilla split (Barenco Lemma 7.3 shape):
/// `MCX(C, t) = MCX(C1, a) MCX(C2 + a, t) MCX(C1, a) MCX(C2 + a, t)`
/// with `C = C1 + C2`, correct for an ancilla of arbitrary initial value.
fn emit_split(
    out: &mut Circuit,
    controls: &[Qubit],
    ancilla: Qubit,
    target: Qubit,
) -> Result<(), CircuitError> {
    let k = controls.len();
    let m1 = k.div_ceil(2);
    let (c1, c2) = controls.split_at(m1);
    let mut c2a: Vec<Qubit> = c2.to_vec();
    c2a.push(ancilla);
    for _ in 0..2 {
        emit_mcx(out, c1, ancilla)?;
        emit_mcx(out, &c2a, target)?;
    }
    Ok(())
}

/// Lowers a circuit all the way to the native basis `{CX, single-qubit,
/// measure, reset, barrier}`.
///
/// # Errors
///
/// Propagates [`CircuitError::NotEnoughAncillas`] from [`lower_mcx`].
pub fn decompose_to_native(circuit: &Circuit) -> Result<Circuit, CircuitError> {
    let lowered = lower_mcx(circuit)?;
    let mut out = Circuit::new(lowered.num_qubits());
    for inst in lowered.iter() {
        emit_native(&mut out, inst)?;
    }
    Ok(out)
}

fn emit_native(out: &mut Circuit, inst: &Instruction) -> Result<(), CircuitError> {
    let qs = inst.qubits();
    match *inst.gate() {
        ref g if g.is_native() => out.push_instruction(inst.clone()),
        Gate::Cz => {
            let (c, t) = (qs[0], qs[1]);
            out.h(t).cx(c, t).h(t);
            Ok(())
        }
        Gate::Cy => {
            let (c, t) = (qs[0], qs[1]);
            out.sdg(t).cx(c, t).s(t);
            Ok(())
        }
        Gate::Ch => {
            // qelib1 ch decomposition.
            let (a, b) = (qs[0], qs[1]);
            out.h(b).sdg(b).cx(a, b).h(b).t(b).cx(a, b).t(b).h(b).s(b).x(b).s(a);
            Ok(())
        }
        Gate::Swap => {
            let (a, b) = (qs[0], qs[1]);
            out.cx(a, b).cx(b, a).cx(a, b);
            Ok(())
        }
        Gate::Cp(lambda) => {
            let (c, t) = (qs[0], qs[1]);
            out.p(lambda / 2.0, c).cx(c, t).p(-lambda / 2.0, t).cx(c, t).p(lambda / 2.0, t);
            Ok(())
        }
        Gate::Crz(theta) => {
            let (c, t) = (qs[0], qs[1]);
            out.rz(theta / 2.0, t).cx(c, t).rz(-theta / 2.0, t).cx(c, t);
            Ok(())
        }
        Gate::Cu3(theta, phi, lambda) => {
            // qelib1 cu3 decomposition.
            let (c, t) = (qs[0], qs[1]);
            out.p((lambda + phi) / 2.0, c)
                .p((lambda - phi) / 2.0, t)
                .cx(c, t)
                .u(-theta / 2.0, 0.0, -(phi + lambda) / 2.0, t)
                .cx(c, t)
                .u(theta / 2.0, phi, 0.0, t);
            Ok(())
        }
        Gate::Rzz(theta) => {
            let (a, b) = (qs[0], qs[1]);
            out.cx(a, b).rz(theta, b).cx(a, b);
            Ok(())
        }
        Gate::Ccx => {
            emit_ccx(out, qs[0], qs[1], qs[2]);
            Ok(())
        }
        Gate::Cswap => {
            // qelib1: cswap a,b,c = cx c,b; ccx a,b,c; cx c,b.
            let (a, b, c) = (qs[0], qs[1], qs[2]);
            out.cx(c, b);
            emit_ccx(out, a, b, c);
            out.cx(c, b);
            Ok(())
        }
        Gate::Mcx => unreachable!("mcx removed by lower_mcx"),
        ref g => unreachable!("unhandled non-native gate {}", g.name()),
    }
}

/// Standard 6-CNOT Toffoli decomposition (qelib1 `ccx`).
fn emit_ccx(out: &mut Circuit, a: Qubit, b: Qubit, c: Qubit) {
    out.h(c)
        .cx(b, c)
        .tdg(c)
        .cx(a, c)
        .t(c)
        .cx(b, c)
        .tdg(c)
        .cx(a, c)
        .t(b)
        .t(c)
        .h(c)
        .cx(a, b)
        .t(a)
        .tdg(b)
        .cx(a, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{apply_reversible, StateVector};

    /// A generic product state preparation so equivalence checks are not
    /// fooled by special inputs.
    fn scramble(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.u(0.3 + 0.41 * q as f64, 0.7 - 0.13 * q as f64, 0.2 + 0.29 * q as f64, q as u32);
        }
        c
    }

    fn assert_equiv(original: &Circuit, decomposed: &Circuit) {
        let n = original.num_qubits();
        let mut a = scramble(n);
        a.compose(original).unwrap();
        let mut b = scramble(n);
        b.compose(decomposed).unwrap();
        let sa = StateVector::from_circuit(&a).unwrap();
        let sb = StateVector::from_circuit(&b).unwrap();
        assert!(sa.approx_eq_global_phase(&sb, 1e-9), "decomposition changed the unitary action");
    }

    #[test]
    fn native_passthrough() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(0.3, 1).measure(1);
        let d = decompose_to_native(&c).unwrap();
        assert_eq!(d.len(), c.len());
    }

    type GateCase = Box<dyn Fn(&mut Circuit)>;

    #[test]
    fn every_two_qubit_gate_decomposes_correctly() {
        let cases: Vec<GateCase> = vec![
            Box::new(|c| {
                c.cz(0, 1);
            }),
            Box::new(|c| {
                c.push(Gate::Cy, &[Qubit::new(0), Qubit::new(1)]).unwrap();
            }),
            Box::new(|c| {
                c.push(Gate::Ch, &[Qubit::new(0), Qubit::new(1)]).unwrap();
            }),
            Box::new(|c| {
                c.swap(0, 1);
            }),
            Box::new(|c| {
                c.cp(0.37, 0, 1);
            }),
            Box::new(|c| {
                c.crz(1.2, 0, 1);
            }),
            Box::new(|c| {
                c.push(Gate::Cu3(0.4, 0.9, -0.3), &[Qubit::new(0), Qubit::new(1)]).unwrap();
            }),
            Box::new(|c| {
                c.rzz(0.81, 0, 1);
            }),
        ];
        for case in cases {
            let mut orig = Circuit::new(2);
            case(&mut orig);
            let native = decompose_to_native(&orig).unwrap();
            assert!(native.iter().all(|i| i.gate().is_native()), "not native: {native}");
            assert_equiv(&orig, &native);
        }
    }

    #[test]
    fn ccx_and_cswap_decompose_correctly() {
        let mut orig = Circuit::new(3);
        orig.ccx(0, 1, 2);
        let native = decompose_to_native(&orig).unwrap();
        assert!(native.iter().all(|i| i.gate().is_native()));
        assert_equiv(&orig, &native);

        let mut orig = Circuit::new(3);
        orig.push(Gate::Cswap, &[Qubit::new(0), Qubit::new(1), Qubit::new(2)]).unwrap();
        let native = decompose_to_native(&orig).unwrap();
        assert_equiv(&orig, &native);
    }

    #[test]
    fn mcx_lowering_truth_tables_with_dirty_ancillas() {
        // For each control count, exhaustively check the lowered circuit on
        // every basis state of the full register (so ancilla restoration is
        // verified for dirty values too).
        for k in 1..=6usize {
            let n = k + 3; // one target + two spare lines
            let mut c = Circuit::new(n);
            let controls: Vec<u32> = (0..k as u32).collect();
            c.mcx(&controls, k as u32);
            let lowered = lower_mcx(&c).unwrap();
            assert!(
                lowered.iter().all(|i| matches!(i.gate(), Gate::Ccx | Gate::Cx | Gate::X)),
                "unexpected gate in lowered mcx"
            );
            let cmask: u128 = (1 << k) - 1;
            for input in 0..(1u128 << n) {
                let expected = if input & cmask == cmask { input ^ (1 << k) } else { input };
                assert_eq!(
                    apply_reversible(&lowered, input).unwrap(),
                    expected,
                    "k={k} input={input:b}"
                );
            }
        }
    }

    #[test]
    fn mcx_split_path_with_single_free_qubit() {
        // k controls, 1 target, exactly 1 free qubit forces the Lemma 7.3
        // split for k >= 4.
        for k in 3..=6usize {
            let n = k + 2;
            let mut c = Circuit::new(n);
            let controls: Vec<u32> = (0..k as u32).collect();
            c.mcx(&controls, k as u32);
            let lowered = lower_mcx(&c).unwrap();
            let cmask: u128 = (1 << k) - 1;
            for input in 0..(1u128 << n) {
                let expected = if input & cmask == cmask { input ^ (1 << k) } else { input };
                assert_eq!(
                    apply_reversible(&lowered, input).unwrap(),
                    expected,
                    "k={k} input={input:b}"
                );
            }
        }
    }

    #[test]
    fn full_width_mcx_errors() {
        let mut c = Circuit::new(4);
        c.mcx(&[0, 1, 2], 3);
        let err = lower_mcx(&c).unwrap_err();
        assert!(matches!(err, CircuitError::NotEnoughAncillas { gate: "mcx", .. }));
    }

    #[test]
    fn small_mcx_direct() {
        let mut c = Circuit::new(4);
        c.mcx(&[0], 1).mcx(&[0, 1], 2);
        let lowered = lower_mcx(&c).unwrap();
        let names: Vec<_> = lowered.iter().map(|i| i.gate().name()).collect();
        assert_eq!(names, vec!["cx", "ccx"]);
    }

    #[test]
    fn decompose_to_native_handles_mcx_end_to_end() {
        let mut c = Circuit::new(6);
        c.mcx(&[0, 1, 2], 3);
        let native = decompose_to_native(&c).unwrap();
        assert!(native.iter().all(|i| i.gate().is_native()));
        // Functional check through the state-vector simulator.
        assert_equiv(
            &{
                let mut lc = Circuit::new(6);
                lc.mcx(&[0, 1, 2], 3);
                lc
            },
            &native,
        );
    }

    #[test]
    fn vchain_cost_is_linear() {
        // 4k - 8 Toffolis for the dirty V-chain.
        for k in 3..=7usize {
            let n = 2 * k; // plenty of ancillas
            let mut c = Circuit::new(n);
            let controls: Vec<u32> = (0..k as u32).collect();
            c.mcx(&controls, k as u32);
            let lowered = lower_mcx(&c).unwrap();
            assert_eq!(lowered.len(), 4 * k - 8, "k={k}");
        }
    }
}
