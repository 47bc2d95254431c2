//! The seven frequency-collision conditions (paper Figure 3).
//!
//! With anharmonicity `delta = f12 - f01` (negative, -340 MHz for the
//! typical transmon design) the conditions are, for a connected pair
//! `(j, k)` checked in both orientations:
//!
//! 1. `f_j ~= f_k`              within 17 MHz
//! 2. `f_j ~= f_k - delta/2`    within 4 MHz
//! 3. `f_j ~= f_k - delta`      within 25 MHz
//! 4. `f_j >  f_k - delta`      (strict inequality, no threshold)
//!
//! and for qubits `i` and `k` both connected to a common qubit `j`:
//!
//! 5. `f_i ~= f_k`              within 17 MHz
//! 6. `f_i ~= f_k - delta`      within 25 MHz
//! 7. `2 f_j + delta ~= f_k + f_i` within 17 MHz
//!
//! Because every condition is symmetric once both orientations are
//! folded in, the checker reduces pair conditions to the absolute detuning
//! `d = |f_j - f_k|`: collision iff `d < 17 MHz`, `|d - 170 MHz| < 4 MHz`,
//! `|d - 340 MHz| < 25 MHz`, or `d > 340 MHz`.

use qpd_topology::Architecture;

/// Model parameters: anharmonicity and the per-condition thresholds, all
/// in GHz. Defaults follow the paper (Figure 3 and §2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionParams {
    /// Qubit anharmonicity `delta = f12 - f01` (negative), GHz.
    pub anharmonicity_ghz: f64,
    /// Threshold for conditions 1 and 5 (degenerate neighbors), GHz.
    pub t_degenerate_ghz: f64,
    /// Threshold for condition 2 (half-anharmonicity resonance), GHz.
    pub t_half_ghz: f64,
    /// Threshold for conditions 3 and 6 (full-anharmonicity resonance), GHz.
    pub t_full_ghz: f64,
    /// Threshold for condition 7 (two-photon resonance), GHz.
    pub t_two_photon_ghz: f64,
}

impl Default for CollisionParams {
    fn default() -> Self {
        CollisionParams {
            anharmonicity_ghz: -0.340,
            t_degenerate_ghz: 0.017,
            t_half_ghz: 0.004,
            t_full_ghz: 0.025,
            t_two_photon_ghz: 0.017,
        }
    }
}

impl CollisionParams {
    /// Whether a connected pair at frequencies `fa`, `fb` trips any of
    /// conditions 1–4. This is the single shared hot-path predicate; the
    /// checker and the local-yield evaluator both call it, so their
    /// floating-point behavior is identical by construction.
    #[inline]
    pub fn pair_collides(&self, fa: f64, fb: f64) -> bool {
        let gap = -self.anharmonicity_ghz;
        let d = (fa - fb).abs();
        d < self.t_degenerate_ghz
            || (d - gap / 2.0).abs() < self.t_half_ghz
            || (d - gap).abs() < self.t_full_ghz
            || d > gap
    }

    /// Whether qubits at `fi`, `fk` sharing a neighbor at `fj` trip any
    /// of conditions 5–7.
    #[inline]
    pub fn triple_collides(&self, fj: f64, fi: f64, fk: f64) -> bool {
        let gap = -self.anharmonicity_ghz;
        let d = (fi - fk).abs();
        d < self.t_degenerate_ghz
            || (d - gap).abs() < self.t_full_ghz
            || (2.0 * fj - gap - fi - fk).abs() < self.t_two_photon_ghz
    }
}

/// A detected collision: which condition fired and the qubits involved.
///
/// For conditions 1–4 `third` is `None`; for 5–7 the tuple is
/// `(i, k, Some(j))` with `j` the shared neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollisionEvent {
    /// Condition number, 1 through 7 (Figure 3 numbering).
    pub condition: u8,
    /// First involved qubit.
    pub a: usize,
    /// Second involved qubit.
    pub b: usize,
    /// Shared neighbor for the three-qubit conditions.
    pub third: Option<usize>,
}

/// Precompiled collision checker for one architecture.
///
/// Construction extracts the connected pairs and the `(j; i, k)` triples
/// (two distinct neighbors of a common qubit) once, so the per-trial hot
/// path is a flat scan.
#[derive(Debug, Clone)]
pub struct CollisionChecker {
    params: CollisionParams,
    pairs: Vec<(u32, u32)>,
    /// (shared neighbor j, i, k) with i < k.
    triples: Vec<(u32, u32, u32)>,
}

impl CollisionChecker {
    /// Builds a checker for `arch` with default parameters.
    pub fn new(arch: &Architecture) -> Self {
        Self::with_params(arch, CollisionParams::default())
    }

    /// Builds a checker with explicit parameters.
    pub fn with_params(arch: &Architecture, params: CollisionParams) -> Self {
        let pairs: Vec<(u32, u32)> =
            arch.coupling_edges().iter().map(|&(a, b)| (a as u32, b as u32)).collect();
        let mut triples = Vec::new();
        for j in 0..arch.num_qubits() {
            let nbrs = arch.neighbors(j);
            for x in 0..nbrs.len() {
                for y in x + 1..nbrs.len() {
                    triples.push((j as u32, nbrs[x] as u32, nbrs[y] as u32));
                }
            }
        }
        CollisionChecker { params, pairs, triples }
    }

    /// The parameters in use.
    pub fn params(&self) -> &CollisionParams {
        &self.params
    }

    /// Number of connected pairs checked per trial.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Number of common-neighbor triples checked per trial.
    pub fn triple_count(&self) -> usize {
        self.triples.len()
    }

    /// The connected pairs checked per trial, as qubit indices `(a, b)` in
    /// the order [`Self::has_collision`] visits them — the batch kernels
    /// lay their per-candidate operands out in exactly this order.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// The common-neighbor triples checked per trial, as qubit indices
    /// `(j; i, k)` in [`Self::has_collision`] order.
    pub fn triples(&self) -> &[(u32, u32, u32)] {
        &self.triples
    }

    /// Whether the (post-fabrication) frequencies collide anywhere.
    ///
    /// `freqs[q]` is the frequency of qubit `q` in GHz. The Monte Carlo
    /// kernel ([`crate::batch`]) applies exactly these checks, in this
    /// order with this early exit, to each candidate lane.
    ///
    /// # Panics
    ///
    /// Panics if `freqs` is shorter than the architecture's qubit count.
    pub fn has_collision(&self, freqs: &[f64]) -> bool {
        let p = &self.params;
        for &(a, b) in &self.pairs {
            if p.pair_collides(freqs[a as usize], freqs[b as usize]) {
                return true;
            }
        }
        for &(j, i, k) in &self.triples {
            if p.triple_collides(freqs[j as usize], freqs[i as usize], freqs[k as usize]) {
                return true;
            }
        }
        false
    }

    /// All collisions in the given frequencies, with condition numbers —
    /// the diagnostic (non-hot-path) variant of [`Self::has_collision`].
    ///
    /// # Panics
    ///
    /// Panics if `freqs` is shorter than the architecture's qubit count.
    pub fn collisions(&self, freqs: &[f64]) -> Vec<CollisionEvent> {
        let p = &self.params;
        let gap = -p.anharmonicity_ghz;
        let mut events = Vec::new();
        for &(a, b) in &self.pairs {
            let (a, b) = (a as usize, b as usize);
            let d = (freqs[a] - freqs[b]).abs();
            if d < p.t_degenerate_ghz {
                events.push(CollisionEvent { condition: 1, a, b, third: None });
            }
            if (d - gap / 2.0).abs() < p.t_half_ghz {
                events.push(CollisionEvent { condition: 2, a, b, third: None });
            }
            if (d - gap).abs() < p.t_full_ghz {
                events.push(CollisionEvent { condition: 3, a, b, third: None });
            }
            if d > gap {
                events.push(CollisionEvent { condition: 4, a, b, third: None });
            }
        }
        for &(j, i, k) in &self.triples {
            let (j, i, k) = (j as usize, i as usize, k as usize);
            let d = (freqs[i] - freqs[k]).abs();
            if d < p.t_degenerate_ghz {
                events.push(CollisionEvent { condition: 5, a: i, b: k, third: Some(j) });
            }
            if (d - gap).abs() < p.t_full_ghz {
                events.push(CollisionEvent { condition: 6, a: i, b: k, third: Some(j) });
            }
            if (2.0 * freqs[j] - gap - freqs[i] - freqs[k]).abs() < p.t_two_photon_ghz {
                events.push(CollisionEvent { condition: 7, a: i, b: k, third: Some(j) });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd_topology::Architecture;

    /// Two connected qubits.
    fn pair() -> Architecture {
        let mut b = Architecture::builder("pair");
        b.qubit(0, 0).qubit(0, 1);
        b.build().unwrap()
    }

    /// A path of three qubits: 0 - 1 - 2 (qubit 1 in the middle).
    fn path3() -> Architecture {
        let mut b = Architecture::builder("path3");
        b.qubit(0, 0).qubit(0, 1).qubit(0, 2);
        b.build().unwrap()
    }

    fn conditions(arch: &Architecture, freqs: &[f64]) -> Vec<u8> {
        let mut c: Vec<u8> =
            CollisionChecker::new(arch).collisions(freqs).iter().map(|e| e.condition).collect();
        c.sort_unstable();
        c.dedup();
        c
    }

    #[test]
    fn condition1_degenerate_pair() {
        assert_eq!(conditions(&pair(), &[5.10, 5.11]), vec![1]);
        assert!(conditions(&pair(), &[5.10, 5.13]).is_empty());
    }

    #[test]
    fn condition2_half_anharmonicity() {
        // Detuning 170 MHz within 4 MHz.
        assert_eq!(conditions(&pair(), &[5.00, 5.17]), vec![2]);
        assert_eq!(conditions(&pair(), &[5.17, 5.003]), vec![2]); // other orientation
        assert!(conditions(&pair(), &[5.00, 5.175]).is_empty());
    }

    #[test]
    fn condition3_and_4_full_anharmonicity() {
        // Detuning exactly 340 MHz: condition 3 fires; condition 4 does not
        // (strict inequality).
        assert_eq!(conditions(&pair(), &[5.00, 5.34]), vec![3]);
        // Detuning 360 MHz: conditions 3 (within 25 MHz) and 4 (d > gap).
        assert_eq!(conditions(&pair(), &[5.00, 5.36]), vec![3, 4]);
        // Detuning 400 MHz: only condition 4.
        assert_eq!(conditions(&pair(), &[5.00, 5.40]), vec![4]);
    }

    #[test]
    fn condition5_degenerate_neighbors() {
        // Qubits 0 and 2 share neighbor 1; they are 400 MHz away from the
        // middle qubit (no pair collision: d=0.4 > 0.34 -> condition 4!).
        // Use a spacing that keeps pairs clean: middle at 5.17, ends at
        // 5.05 and 5.06: pair detunings 0.12 and 0.11 are clean; ends
        // differ by 10 MHz < 17 MHz -> condition 5.
        assert_eq!(conditions(&path3(), &[5.05, 5.17, 5.06]), vec![5]);
    }

    #[test]
    fn condition6_neighbor_full_gap() {
        // Ends differ by exactly 340 MHz; middle chosen so pair detunings
        // stay clean: 5.00, 5.17, 5.34: pairs are both at 0.17 -> that is
        // condition 2 territory... shift middle: 5.00, 5.10, 5.34 gives
        // pair detunings 0.10 and 0.24 (clean) and end gap 0.34.
        let c = conditions(&path3(), &[5.00, 5.10, 5.34]);
        assert!(c.contains(&6), "got {c:?}");
        assert!(!c.contains(&1) && !c.contains(&2) && !c.contains(&3) && !c.contains(&4));
    }

    #[test]
    fn condition7_two_photon() {
        // 2 f_j + delta = f_i + f_k with j the middle qubit.
        // Pick f_i = 5.00, f_k = 5.06; f_j = (5.00 + 5.06 + 0.34) / 2 = 5.20.
        // Pair detunings: 0.20, 0.14 (clean); end gap 0.06 (clean).
        let c = conditions(&path3(), &[5.00, 5.20, 5.06]);
        assert_eq!(c, vec![7]);
    }

    #[test]
    fn unconnected_qubits_do_not_collide() {
        let mut b = Architecture::builder("far");
        b.qubit(0, 0).qubit(3, 3);
        let arch = b.build().unwrap();
        // Identical frequencies, but no coupling edge.
        assert!(conditions(&arch, &[5.10, 5.10]).is_empty());
    }

    #[test]
    fn has_collision_matches_collisions() {
        let arch = path3();
        let checker = CollisionChecker::new(&arch);
        for freqs in [
            [5.05, 5.17, 5.06],
            [5.00, 5.20, 5.06],
            [5.02, 5.14, 5.28],
            [5.00, 5.10, 5.34],
            [5.01, 5.11, 5.21],
        ] {
            assert_eq!(
                checker.has_collision(&freqs),
                !checker.collisions(&freqs).is_empty(),
                "freqs {freqs:?}"
            );
        }
    }

    #[test]
    fn counts_of_pairs_and_triples() {
        let checker = CollisionChecker::new(&path3());
        assert_eq!(checker.pair_count(), 2);
        assert_eq!(checker.triple_count(), 1);
        // A 4-qubit-bus square: 4 qubits all mutually connected (6 edges);
        // each qubit has 3 neighbors -> 4 * C(3,2) = 12 triples.
        let mut b = Architecture::builder("sq");
        b.qubit(0, 0).qubit(0, 1).qubit(1, 0).qubit(1, 1).four_qubit_bus(0, 0);
        let arch = b.build().unwrap();
        let checker = CollisionChecker::new(&arch);
        assert_eq!(checker.pair_count(), 6);
        assert_eq!(checker.triple_count(), 12);
    }

    #[test]
    fn five_frequency_neighbors_are_clean_by_design() {
        // Adjacent five-scheme frequencies (70 MHz apart or more, under
        // 340 MHz) trigger no pair condition pre-fabrication.
        let checker = CollisionChecker::new(&pair());
        for (a, b) in [(5.00, 5.07), (5.07, 5.13), (5.00, 5.27), (5.13, 5.27)] {
            assert!(!checker.has_collision(&[a, b]), "({a}, {b})");
        }
    }

    #[test]
    fn custom_params_change_sensitivity() {
        // Widen condition 1 to 50 MHz.
        let params = CollisionParams { t_degenerate_ghz: 0.050, ..Default::default() };
        let arch = pair();
        let strict = CollisionChecker::with_params(&arch, params);
        let default = CollisionChecker::new(&arch);
        let freqs = [5.10, 5.14];
        assert!(strict.has_collision(&freqs));
        assert!(!default.has_collision(&freqs));
    }
}
