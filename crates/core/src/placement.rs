//! Layout design: coupling-based qubit placement (paper Algorithm 1).

use std::collections::BTreeSet;

use qpd_profile::CouplingProfile;
use qpd_topology::Coord;

/// Places every logical qubit of the profiled program on a 2D lattice
/// node; the returned vector maps logical qubit `i` to its coordinate.
///
/// The algorithm follows the paper:
///
/// - the qubit with the largest coupling degree seeds the layout at
///   `(0, 0)`;
/// - each following step places the highest-coupling-degree qubit among
///   those connected to an already placed qubit;
/// - it goes on the empty frontier node minimizing
///   `sum over placed neighbors q' of M[q][q'] * manhattan(node, q')`
///   (Algorithm 1, line 13).
///
/// Ties break deterministically: by qubit order in the coupling degree
/// list, and by `(row, col)` among equal-cost nodes. Programs whose
/// logical coupling graph is disconnected (or has isolated qubits) seed
/// each new component on the frontier of the existing cluster, keeping
/// the chip compact and connected.
///
/// # Panics
///
/// Panics if the profile covers zero qubits.
pub fn place_qubits(profile: &CouplingProfile) -> Vec<Coord> {
    let n = profile.num_qubits();
    assert!(n > 0, "cannot place zero qubits");

    let degree_list = profile.degree_list();
    let mut placed: Vec<Option<Coord>> = vec![None; n];
    let mut occupied: BTreeSet<Coord> = BTreeSet::new();
    let mut remaining: Vec<usize> = degree_list.iter().map(|(q, _)| q.index()).collect();

    // Seed: the first entry of the coupling degree list at (0, 0).
    let seed = remaining.remove(0);
    placed[seed] = Some(Coord::new(0, 0));
    occupied.insert(Coord::new(0, 0));

    while !remaining.is_empty() {
        // Next qubit: highest coupling degree among those adjacent (in the
        // logical coupling graph) to a placed qubit; `remaining` is in
        // degree-list order, so the first match wins.
        let pick_pos = remaining
            .iter()
            .position(|&q| profile.neighbors(q).iter().any(|&nb| placed[nb].is_some()))
            .unwrap_or(0); // disconnected component: next by degree
        let q = remaining.remove(pick_pos);

        // Frontier: empty nodes adjacent to at least one occupied node.
        let frontier: BTreeSet<Coord> = occupied
            .iter()
            .flat_map(|c| c.neighbors4())
            .filter(|c| !occupied.contains(c))
            .collect();

        // Cost of a location: sum over placed logical-coupling neighbors
        // of (coupling strength) * (manhattan distance). Equal-cost nodes
        // (common: the example of paper Figure 6 ties on six nodes) break
        // toward the seed at (0, 0) — "closest to q4" in the paper's
        // walkthrough — keeping the layout compact; then by (row, col).
        let mut best: Option<(u64, u32, Coord)> = None;
        for &loc in &frontier {
            let mut cost = 0u64;
            for &nb in &profile.neighbors(q) {
                if let Some(nb_coord) = placed[nb] {
                    cost += profile.strength(q, nb) as u64 * loc.manhattan(nb_coord) as u64;
                }
            }
            let candidate = (cost, loc.manhattan(Coord::new(0, 0)), loc);
            if best.is_none_or(|b| candidate < b) {
                best = Some(candidate);
            }
        }
        let (_, _, loc) = best.expect("frontier of a non-empty layout is never empty");
        placed[q] = Some(loc);
        occupied.insert(loc);
    }

    placed.into_iter().map(|c| c.expect("all qubits placed")).collect()
}

/// Chooses lattice nodes for `count` auxiliary physical qubits around an
/// existing placement (paper §6, "Exploring More Design Space": extra
/// qubits used only for routing, trading yield for performance).
///
/// Auxiliary qubits go on empty frontier nodes with the most occupied
/// neighbors — each one opens the largest number of new routing edges
/// per qubit spent. Ties prefer nodes closest to the layout centroid,
/// then lexicographic `(row, col)`.
///
/// # Panics
///
/// Panics if `coords` is empty.
pub fn place_auxiliary(coords: &[Coord], count: usize) -> Vec<Coord> {
    assert!(!coords.is_empty(), "cannot extend an empty placement");
    let mut occupied: BTreeSet<Coord> = coords.iter().copied().collect();
    let centroid_row = coords.iter().map(|c| c.row as f64).sum::<f64>() / coords.len() as f64;
    let centroid_col = coords.iter().map(|c| c.col as f64).sum::<f64>() / coords.len() as f64;
    let mut added = Vec::with_capacity(count);
    for _ in 0..count {
        let frontier: BTreeSet<Coord> = occupied
            .iter()
            .flat_map(|c| c.neighbors4())
            .filter(|c| !occupied.contains(c))
            .collect();
        let best = frontier
            .into_iter()
            .max_by(|a, b| {
                let occ =
                    |c: &Coord| c.neighbors4().iter().filter(|n| occupied.contains(n)).count();
                let dist = |c: &Coord| {
                    (c.row as f64 - centroid_row).powi(2) + (c.col as f64 - centroid_col).powi(2)
                };
                occ(a).cmp(&occ(b)).then_with(|| dist(b).total_cmp(&dist(a))).then_with(|| b.cmp(a))
            })
            .expect("frontier of a non-empty layout is never empty");
        occupied.insert(best);
        added.push(best);
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd_profile::CouplingProfile;

    /// Total weighted wirelength of a placement: for every coupled
    /// logical pair, coupling strength times lattice distance. Lower is
    /// better; the quantity Algorithm 1 greedily minimizes.
    fn weighted_wirelength(profile: &CouplingProfile, coords: &[Coord]) -> u64 {
        profile
            .edges()
            .iter()
            .map(|e| e.weight as u64 * coords[e.a.index()].manhattan(coords[e.b.index()]) as u64)
            .sum()
    }

    fn coords_are_unique(coords: &[Coord]) -> bool {
        let set: BTreeSet<&Coord> = coords.iter().collect();
        set.len() == coords.len()
    }

    fn is_lattice_connected(coords: &[Coord]) -> bool {
        let set: BTreeSet<Coord> = coords.iter().copied().collect();
        let mut seen = BTreeSet::new();
        let mut stack = vec![coords[0]];
        seen.insert(coords[0]);
        while let Some(c) = stack.pop() {
            for nb in c.neighbors4() {
                if set.contains(&nb) && seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        seen.len() == coords.len()
    }

    #[test]
    fn chain_program_gets_chain_layout() {
        // A pure chain should place as a path with every coupled pair
        // adjacent (wirelength == total weight).
        let profile = CouplingProfile::from_edges(5, &[(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 4, 4)]);
        let coords = place_qubits(&profile);
        assert!(coords_are_unique(&coords));
        assert!(is_lattice_connected(&coords));
        for e in profile.edges() {
            assert_eq!(
                coords[e.a.index()].manhattan(coords[e.b.index()]),
                1,
                "chain edge {e:?} not adjacent"
            );
        }
    }

    #[test]
    fn star_center_is_surrounded() {
        // Star with 4 leaves: all 4 can sit adjacent to the hub.
        let profile = CouplingProfile::from_edges(5, &[(0, 1, 5), (0, 2, 5), (0, 3, 5), (0, 4, 5)]);
        let coords = place_qubits(&profile);
        for leaf in 1..5 {
            assert_eq!(coords[0].manhattan(coords[leaf]), 1, "leaf {leaf} not adjacent to hub");
        }
    }

    #[test]
    fn strongly_coupled_pairs_win_adjacency() {
        // q0-q1 heavy, q0-q2 light, and q1, q2 both coupled to q3 lightly:
        // the heavy pair must be adjacent.
        let profile =
            CouplingProfile::from_edges(4, &[(0, 1, 100), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
        let coords = place_qubits(&profile);
        assert_eq!(coords[0].manhattan(coords[1]), 1);
    }

    #[test]
    fn figure4_example_placement() {
        // Figure 6 walks Algorithm 1 on the Figure 4 profile: q4 at the
        // seed, its four neighbors on the four adjacent nodes.
        let profile = CouplingProfile::from_edges(
            5,
            &[(0, 4, 2), (0, 1, 1), (1, 4, 1), (2, 4, 1), (3, 4, 1)],
        );
        let coords = place_qubits(&profile);
        // q4 seeds at the origin.
        assert_eq!(coords[4], Coord::new(0, 0));
        // All of q0..q3 are adjacent to q4 (they fill its four neighbors).
        for q in 0..4 {
            assert_eq!(coords[q].manhattan(coords[4]), 1, "q{q} not adjacent to hub q4");
        }
    }

    #[test]
    fn disconnected_components_stay_compact() {
        let profile = CouplingProfile::from_edges(4, &[(0, 1, 3), (2, 3, 3)]);
        let coords = place_qubits(&profile);
        assert!(coords_are_unique(&coords));
        assert!(is_lattice_connected(&coords));
    }

    #[test]
    fn isolated_qubits_are_still_placed() {
        let profile = CouplingProfile::from_edges(3, &[(0, 1, 1)]);
        let coords = place_qubits(&profile);
        assert_eq!(coords.len(), 3);
        assert!(coords_are_unique(&coords));
        assert!(is_lattice_connected(&coords));
    }

    #[test]
    fn single_qubit_program() {
        let profile = CouplingProfile::from_edges(1, &[]);
        assert_eq!(place_qubits(&profile), vec![Coord::new(0, 0)]);
    }

    #[test]
    fn placement_is_deterministic() {
        let profile = CouplingProfile::from_edges(
            6,
            &[(0, 1, 2), (1, 2, 7), (2, 3, 1), (3, 4, 9), (4, 5, 2), (5, 0, 4)],
        );
        assert_eq!(place_qubits(&profile), place_qubits(&profile));
    }

    #[test]
    fn wirelength_beats_pathological_order() {
        // The greedy placement should do far better than placing qubits
        // in a straight line in index order for a star program.
        let profile = CouplingProfile::from_edges(
            7,
            &[(0, 1, 9), (0, 2, 9), (0, 3, 9), (0, 4, 9), (0, 5, 9), (0, 6, 9)],
        );
        let coords = place_qubits(&profile);
        let greedy = weighted_wirelength(&profile, &coords);
        let line: Vec<Coord> = (0..7).map(|i| Coord::new(0, i)).collect();
        let naive = weighted_wirelength(&profile, &line);
        assert!(greedy < naive, "greedy {greedy} vs naive {naive}");
    }
}
