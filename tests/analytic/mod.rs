//! Closed-form approximation of pairwise collision probabilities: the
//! test oracle the Monte Carlo yield simulator is checked against.
//!
//! For two connected qubits with designed detuning `d` and independent
//! Gaussian noise of width `sigma` on each, the post-fabrication detuning
//! is `N(d, sigma * sqrt(2))`, so the probability of each window-shaped
//! pair condition (1, 2, 3) and of the one-sided condition 4 has a
//! closed form in the normal CDF. Multiplying the survival probabilities
//! over all pair constraints gives a yield estimate that:
//!
//! - upper-bounds the Monte Carlo yield (it ignores the three-qubit
//!   conditions 5–7),
//! - ranks architectures/plans like the simulator,
//! - agrees with the simulator on triple-free architectures.
//!
//! The three-qubit conditions couple constraints (shared qubits), so no
//! comparably simple product form exists for them.

use qpd::topology::Architecture;
use qpd::yield_sim::CollisionParams;

/// The standard normal CDF via `erf`-free Abramowitz–Stegun 7.1.26
/// approximation (|error| < 7.5e-8, far below Monte Carlo noise).
fn phi(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let tail = pdf * poly;
    if x >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Probability that `N(mean, sd)` lands inside `(lo, hi)`.
fn window(mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
    phi((hi - mean) / sd) - phi((lo - mean) / sd)
}

/// Probability that one connected pair with designed detuning
/// `detuning_ghz` collides under any of conditions 1–4 (both
/// orientations folded in), given per-qubit noise `sigma_ghz`.
pub fn pair_collision_probability(
    detuning_ghz: f64,
    sigma_ghz: f64,
    params: &CollisionParams,
) -> f64 {
    let d = detuning_ghz.abs();
    let sd = sigma_ghz * std::f64::consts::SQRT_2;
    let gap = -params.anharmonicity_ghz;
    if sd == 0.0 {
        let collides = d < params.t_degenerate_ghz
            || (d - gap / 2.0).abs() < params.t_half_ghz
            || (d - gap).abs() < params.t_full_ghz
            || d > gap;
        return if collides { 1.0 } else { 0.0 };
    }
    // The post-fab detuning is x ~ N(d, sd) and the conditions constrain
    // |x|. Their union is exactly
    //   [0, t1) U (gap/2 - t2, gap/2 + t2) U (gap - t3, inf)
    // (conditions 3 and 4 merge into one unbounded interval), so the
    // survival probability is the mass of the two safe windows, folded
    // over the sign of x.
    let safe = [
        (params.t_degenerate_ghz, gap / 2.0 - params.t_half_ghz),
        (gap / 2.0 + params.t_half_ghz, gap - params.t_full_ghz),
    ];
    let mut survive = 0.0;
    for (lo, hi) in safe {
        if hi > lo {
            survive += window(d, sd, lo, hi) + window(d, sd, -hi, -lo);
        }
    }
    (1.0 - survive).clamp(0.0, 1.0)
}

/// Product-form survival estimate over all *pair* constraints of an
/// architecture: an upper bound on the true yield (conditions 5–7 are
/// ignored) that is exact for architectures without common-neighbor
/// triples.
///
/// # Panics
///
/// Panics if `designed.len() != arch.num_qubits()`.
pub fn pairwise_yield_estimate(
    arch: &Architecture,
    designed: &[f64],
    sigma_ghz: f64,
    params: &CollisionParams,
) -> f64 {
    assert_eq!(designed.len(), arch.num_qubits(), "frequency vector length mismatch");
    arch.coupling_edges()
        .iter()
        .map(|&(a, b)| {
            1.0 - pair_collision_probability(designed[a] - designed[b], sigma_ghz, params)
        })
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd::yield_sim::YieldSimulator;

    fn params() -> CollisionParams {
        CollisionParams::default()
    }

    #[test]
    fn phi_matches_known_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-7);
        assert!((phi(1.959963985) - 0.975).abs() < 1e-4);
        assert!((phi(-1.0) - 0.158655).abs() < 1e-5);
    }

    #[test]
    fn zero_noise_limits() {
        // Clean detuning: no collision.
        assert_eq!(pair_collision_probability(0.10, 0.0, &params()), 0.0);
        // Degenerate pair: certain collision.
        assert_eq!(pair_collision_probability(0.005, 0.0, &params()), 1.0);
        // Half-anharmonicity resonance.
        assert_eq!(pair_collision_probability(0.17, 0.0, &params()), 1.0);
        // Beyond the anharmonicity gap (condition 4).
        assert_eq!(pair_collision_probability(0.40, 0.0, &params()), 1.0);
    }

    #[test]
    fn safe_detunings_have_low_probability() {
        // ~90 MHz and ~250 MHz sit between the collision windows.
        let p90 = pair_collision_probability(0.09, 0.030, &params());
        let p250 = pair_collision_probability(0.25, 0.030, &params());
        let p70 = pair_collision_probability(0.07, 0.030, &params());
        assert!(p90 < p70, "90 MHz ({p90}) should beat 70 MHz ({p70})");
        assert!(p90 < 0.10 && p250 < 0.12);
    }

    #[test]
    fn matches_monte_carlo_on_a_pair() {
        // A single connected pair has no triples, so the analytic value
        // must agree with the simulator within Monte Carlo error.
        let mut b = Architecture::builder("pair");
        b.qubit(0, 0).qubit(0, 1);
        let arch = b.build().unwrap();
        for detuning in [0.05, 0.09, 0.14, 0.20, 0.30] {
            let designed = [5.05, 5.05 + detuning];
            let analytic = pairwise_yield_estimate(&arch, &designed, 0.030, &params());
            let mc = YieldSimulator::new()
                .with_trials(200_000)
                .with_seed(17)
                .estimate_with_frequencies(&arch, &designed)
                .rate();
            assert!(
                (analytic - mc).abs() < 0.01,
                "detuning {detuning}: analytic {analytic} vs mc {mc}"
            );
        }
    }

    #[test]
    fn matches_monte_carlo_on_a_triple_free_line() {
        // A 2-qubit-per-component architecture: isolated pairs have no
        // triples. Use two disjoint pairs.
        let mut b = Architecture::builder("pairs");
        b.qubit(0, 0).qubit(0, 1).qubit(5, 0).qubit(5, 1);
        let arch = b.build().unwrap();
        let designed = [5.02, 5.13, 5.20, 5.31];
        let analytic = pairwise_yield_estimate(&arch, &designed, 0.030, &params());
        let mc = YieldSimulator::new()
            .with_trials(200_000)
            .with_seed(3)
            .estimate_with_frequencies(&arch, &designed)
            .rate();
        assert!((analytic - mc).abs() < 0.01, "analytic {analytic} vs mc {mc}");
    }

    #[test]
    fn upper_bounds_monte_carlo_with_triples() {
        // On a path (which has a triple), the pairwise product must be an
        // upper bound.
        let mut b = Architecture::builder("path3");
        b.qubit(0, 0).qubit(0, 1).qubit(0, 2);
        let arch = b.build().unwrap();
        let designed = [5.04, 5.13, 5.22];
        let analytic = pairwise_yield_estimate(&arch, &designed, 0.030, &params());
        let mc = YieldSimulator::new()
            .with_trials(100_000)
            .with_seed(5)
            .estimate_with_frequencies(&arch, &designed)
            .rate();
        assert!(analytic >= mc - 0.01, "analytic {analytic} not an upper bound of {mc}");
    }

    #[test]
    fn ranks_plans_like_the_simulator() {
        let mut b = Architecture::builder("line4");
        for c in 0..4 {
            b.qubit(0, c);
        }
        let arch = b.build().unwrap();
        let good = [5.02, 5.11, 5.02, 5.11]; // 90 MHz detunings
        let bad = [5.10, 5.11, 5.12, 5.13]; // 10 MHz detunings (cond. 1)
        let pg = pairwise_yield_estimate(&arch, &good, 0.030, &params());
        let pb = pairwise_yield_estimate(&arch, &bad, 0.030, &params());
        assert!(pg > pb * 2.0, "good {pg} vs bad {pb}");
    }
}
