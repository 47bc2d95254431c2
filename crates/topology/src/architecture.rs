//! The chip architecture: placed qubits, buses, and the derived coupling
//! graph.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use crate::coord::Coord;
use crate::error::TopologyError;
use crate::freq::FrequencyPlan;

/// A unit square of the lattice, identified by its origin — the corner
/// with minimum row and column. Its four corners are `(r, c)`,
/// `(r+1, c)`, `(r, c+1)`, `(r+1, c+1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Square {
    /// Origin corner (minimum row and column).
    pub origin: Coord,
}

impl Square {
    /// The square with the given origin corner.
    pub const fn new(row: i32, col: i32) -> Self {
        Square { origin: Coord::new(row, col) }
    }

    /// The four corner coordinates: origin, south, east, south-east.
    pub fn corners(self) -> [Coord; 4] {
        let Coord { row, col } = self.origin;
        [
            Coord::new(row, col),
            Coord::new(row + 1, col),
            Coord::new(row, col + 1),
            Coord::new(row + 1, col + 1),
        ]
    }

    /// The two diagonal corner pairs.
    pub fn diagonals(self) -> [(Coord, Coord); 2] {
        let Coord { row, col } = self.origin;
        [
            (Coord::new(row, col), Coord::new(row + 1, col + 1)),
            (Coord::new(row + 1, col), Coord::new(row, col + 1)),
        ]
    }

    /// The four edge-adjacent squares (those sharing a side with `self`),
    /// which the prohibited condition blocks from also hosting a 4-qubit
    /// bus.
    pub fn neighbors4(self) -> [Square; 4] {
        let Coord { row, col } = self.origin;
        [
            Square::new(row - 1, col),
            Square::new(row + 1, col),
            Square::new(row, col - 1),
            Square::new(row, col + 1),
        ]
    }
}

/// Baseline connection styles for regular lattices (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BusMode {
    /// 2-qubit buses only: the coupling graph is the occupied lattice
    /// grid.
    TwoQubitOnly,
    /// As many 4-qubit buses as the prohibited condition allows.
    MaxFourQubit,
}

/// An immutable, validated chip architecture.
///
/// Invariants enforced at construction:
/// - every qubit occupies a distinct lattice node;
/// - every 4-qubit bus square has at least three placed corner qubits;
/// - no two 4-qubit buses are edge-adjacent (prohibited condition).
///
/// The coupling graph contains every occupied lattice edge (2-qubit buses
/// or 4-qubit bus sides) plus the occupied diagonal pairs of each 4-qubit
/// bus square.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    name: String,
    coords: Vec<Coord>,
    four_squares: Vec<Square>,
    /// Derived coupling edges, `a < b`, sorted.
    edges: Vec<(usize, usize)>,
    /// Derived adjacency lists.
    neighbors: Vec<Vec<usize>>,
    frequencies: Option<FrequencyPlan>,
}

impl Architecture {
    /// Starts building an architecture.
    pub fn builder(name: impl Into<String>) -> ArchitectureBuilder {
        ArchitectureBuilder { name: name.into(), coords: Vec::new(), squares: Vec::new() }
    }

    /// Human-readable architecture name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.coords.len()
    }

    /// Lattice coordinate of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn coord(&self, q: usize) -> Coord {
        self.coords[q]
    }

    /// All qubit coordinates in qubit order.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// The qubit at lattice node `coord`, if any.
    pub fn qubit_at(&self, coord: Coord) -> Option<usize> {
        self.coords.iter().position(|&c| c == coord)
    }

    /// The coupling edges (`a < b`, sorted ascending).
    pub fn coupling_edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Qubits coupled to `q`, ascending.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.neighbors[q]
    }

    /// Coupling degree of qubit `q`.
    pub fn degree(&self, q: usize) -> usize {
        self.neighbors[q].len()
    }

    /// The selected 4-qubit bus squares, ascending by origin.
    pub fn four_qubit_buses(&self) -> &[Square] {
        &self.four_squares
    }

    /// The 2-qubit buses: occupied lattice edges not covered by any
    /// 4-qubit bus square (a 4-qubit bus replaces the 2-qubit buses on its
    /// sides, paper §4.2).
    pub fn two_qubit_buses(&self) -> Vec<(usize, usize)> {
        let covered: BTreeSet<(Coord, Coord)> = self
            .four_squares
            .iter()
            .flat_map(|s| {
                let c = s.corners();
                // The four sides of the square, normalized (min, max).
                [(c[0], c[1]), (c[0], c[2]), (c[1], c[3]), (c[2], c[3])]
            })
            .collect();
        self.edges
            .iter()
            .copied()
            .filter(|&(a, b)| {
                let (ca, cb) = (self.coords[a], self.coords[b]);
                if !ca.is_adjacent(cb) {
                    return false; // diagonal coupling belongs to a 4q bus
                }
                let key = if ca < cb { (ca, cb) } else { (cb, ca) };
                !covered.contains(&key)
            })
            .collect()
    }

    /// Total bus count: 2-qubit buses plus 4-qubit buses. This is the
    /// "hardware resource" count the paper trades against yield.
    pub fn bus_count(&self) -> usize {
        self.two_qubit_buses().len() + self.four_squares.len()
    }

    /// Whether the coupling graph is connected (ignoring a zero-qubit
    /// architecture, which cannot be built).
    pub fn is_connected(&self) -> bool {
        let n = self.num_qubits();
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(q) = queue.pop_front() {
            for &j in self.neighbors(q) {
                if !seen[j] {
                    seen[j] = true;
                    count += 1;
                    queue.push_back(j);
                }
            }
        }
        count == n
    }

    /// All-pairs shortest-path distances over the coupling graph: row
    /// `s` is [`Self::distances_from`]`(s)`. Unreachable pairs get
    /// `u32::MAX`.
    pub fn distance_matrix(&self) -> Vec<Vec<u32>> {
        (0..self.num_qubits()).map(|start| self.distances_from(start)).collect()
    }

    /// Shortest-path distances from `start` to every qubit over the
    /// coupling graph (one BFS). Unreachable qubits get `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn distances_from(&self, start: usize) -> Vec<u32> {
        let mut row = vec![u32::MAX; self.num_qubits()];
        row[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(q) = queue.pop_front() {
            for &j in self.neighbors(q) {
                if row[j] == u32::MAX {
                    row[j] = row[q] + 1;
                    queue.push_back(j);
                }
            }
        }
        row
    }

    /// The designed frequency plan, if one has been attached.
    pub fn frequencies(&self) -> Option<&FrequencyPlan> {
        self.frequencies.as_ref()
    }

    /// Attaches a frequency plan, validating its size and the default
    /// fixed-frequency band ([`crate::ALLOWED_BAND_GHZ`]).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::FrequencyPlanSize`] or
    /// [`TopologyError::FrequencyOutOfBand`].
    pub fn with_frequencies(self, plan: FrequencyPlan) -> Result<Self, TopologyError> {
        self.with_frequencies_in_band(plan, crate::ALLOWED_BAND_GHZ)
    }

    /// Attaches a frequency plan, validating its size against an explicit
    /// allowed band — the entry point for hardware families whose bands
    /// differ from the paper's fixed-frequency transmon.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::FrequencyPlanSize`] or
    /// [`TopologyError::FrequencyOutOfBand`].
    pub fn with_frequencies_in_band(
        mut self,
        plan: FrequencyPlan,
        band: (f64, f64),
    ) -> Result<Self, TopologyError> {
        if plan.len() != self.num_qubits() {
            return Err(TopologyError::FrequencyPlanSize {
                provided: plan.len(),
                qubits: self.num_qubits(),
            });
        }
        plan.check_band_within(band)?;
        self.frequencies = Some(plan);
        Ok(self)
    }

    /// Returns a copy with a different name (used when labeling experiment
    /// series).
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The qubit closest to the geometric centroid of the layout
    /// (Algorithm 3 starts frequency allocation here). Ties break toward
    /// the lower qubit index.
    pub fn center_qubit(&self) -> usize {
        let n = self.num_qubits() as f64;
        let mean_row = self.coords.iter().map(|c| c.row as f64).sum::<f64>() / n;
        let mean_col = self.coords.iter().map(|c| c.col as f64).sum::<f64>() / n;
        (0..self.num_qubits())
            .min_by(|&a, &b| {
                let da = (self.coords[a].row as f64 - mean_row).powi(2)
                    + (self.coords[a].col as f64 - mean_col).powi(2);
                let db = (self.coords[b].row as f64 - mean_row).powi(2)
                    + (self.coords[b].col as f64 - mean_col).powi(2);
                da.total_cmp(&db)
            })
            .expect("non-empty architecture")
    }

    /// Qubits within coupling-graph distance `radius` of `q` (including
    /// `q` itself), ascending.
    pub fn ball(&self, q: usize, radius: u32) -> Vec<usize> {
        let mut dist: BTreeMap<usize, u32> = BTreeMap::new();
        dist.insert(q, 0);
        let mut queue = VecDeque::from([q]);
        while let Some(u) = queue.pop_front() {
            let d = dist[&u];
            if d == radius {
                continue;
            }
            for &v in self.neighbors(u) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(v) {
                    e.insert(d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist.into_keys().collect()
    }
}

/// Builder for [`Architecture`] (paper §4's design flow emits these).
#[derive(Debug, Clone)]
pub struct ArchitectureBuilder {
    name: String,
    coords: Vec<Coord>,
    squares: Vec<Square>,
}

impl ArchitectureBuilder {
    /// Places a qubit at `(row, col)`; qubit indices follow call order.
    pub fn qubit(&mut self, row: i32, col: i32) -> &mut Self {
        self.coords.push(Coord::new(row, col));
        self
    }

    /// Places a qubit at a coordinate.
    pub fn qubit_at(&mut self, coord: Coord) -> &mut Self {
        self.coords.push(coord);
        self
    }

    /// Places qubits at all coordinates, in order.
    pub fn qubits<I: IntoIterator<Item = Coord>>(&mut self, coords: I) -> &mut Self {
        self.coords.extend(coords);
        self
    }

    /// Upgrades the square with origin `(row, col)` to a 4-qubit bus.
    pub fn four_qubit_bus(&mut self, row: i32, col: i32) -> &mut Self {
        self.squares.push(Square::new(row, col));
        self
    }

    /// Upgrades a square to a 4-qubit bus.
    pub fn four_qubit_bus_at(&mut self, square: Square) -> &mut Self {
        self.squares.push(square);
        self
    }

    /// Validates and builds the architecture.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: duplicate coordinates, empty
    /// layout, under-populated or duplicate squares, or edge-adjacent
    /// 4-qubit buses (the prohibited condition).
    pub fn build(&self) -> Result<Architecture, TopologyError> {
        if self.coords.is_empty() {
            return Err(TopologyError::Empty);
        }
        let mut index: BTreeMap<Coord, usize> = BTreeMap::new();
        for (q, &c) in self.coords.iter().enumerate() {
            if index.insert(c, q).is_some() {
                return Err(TopologyError::DuplicateCoord { coord: c });
            }
        }

        let mut squares = self.squares.clone();
        squares.sort();
        for pair in squares.windows(2) {
            if pair[0] == pair[1] {
                return Err(TopologyError::DuplicateSquare { origin: pair[0].origin });
            }
        }
        let square_set: BTreeSet<Square> = squares.iter().copied().collect();
        for &s in &squares {
            let occupied = s.corners().iter().filter(|c| index.contains_key(c)).count();
            if occupied < 3 {
                return Err(TopologyError::SquareTooEmpty { origin: s.origin, occupied });
            }
            for nb in s.neighbors4() {
                if square_set.contains(&nb) {
                    let (a, b) = if s.origin < nb.origin {
                        (s.origin, nb.origin)
                    } else {
                        (nb.origin, s.origin)
                    };
                    return Err(TopologyError::AdjacentFourQubitBuses { a, b });
                }
            }
        }

        // Derive coupling edges: all occupied lattice edges...
        let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (&c, &q) in &index {
            for nb in [Coord::new(c.row + 1, c.col), Coord::new(c.row, c.col + 1)] {
                if let Some(&r) = index.get(&nb) {
                    edge_set.insert((q.min(r), q.max(r)));
                }
            }
        }
        // ...plus occupied diagonals of each 4-qubit bus square.
        for &s in &squares {
            for (a, b) in s.diagonals() {
                if let (Some(&qa), Some(&qb)) = (index.get(&a), index.get(&b)) {
                    edge_set.insert((qa.min(qb), qa.max(qb)));
                }
            }
        }

        let edges: Vec<(usize, usize)> = edge_set.into_iter().collect();
        let mut neighbors = vec![Vec::new(); self.coords.len()];
        for &(a, b) in &edges {
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
        for list in &mut neighbors {
            list.sort_unstable();
        }

        Ok(Architecture {
            name: self.name.clone(),
            coords: self.coords.clone(),
            four_squares: squares,
            edges,
            neighbors,
            frequencies: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(rows: i32, cols: i32) -> ArchitectureBuilder {
        let mut b = Architecture::builder(format!("{rows}x{cols}"));
        for r in 0..rows {
            for c in 0..cols {
                b.qubit(r, c);
            }
        }
        b
    }

    #[test]
    fn grid_edges() {
        let arch = grid(2, 3).build().unwrap();
        // 2x3 grid: 3 horizontal per row * 2? no: per row 2 horizontal
        // edges * 2 rows + 3 vertical = 7.
        assert_eq!(arch.coupling_edges().len(), 7);
        assert!(arch.is_connected());
        assert_eq!(arch.bus_count(), 7);
    }

    #[test]
    fn duplicate_coord_rejected() {
        let mut b = Architecture::builder("dup");
        b.qubit(0, 0).qubit(0, 0);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::DuplicateCoord { coord: Coord::new(0, 0) }
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Architecture::builder("e").build().unwrap_err(), TopologyError::Empty);
    }

    #[test]
    fn four_qubit_bus_adds_diagonals() {
        let mut b = grid(2, 2);
        b.four_qubit_bus(0, 0);
        let arch = b.build().unwrap();
        // 4 side edges + 2 diagonals.
        assert_eq!(arch.coupling_edges().len(), 6);
        // All sides are covered by the square: no 2-qubit buses remain.
        assert!(arch.two_qubit_buses().is_empty());
        assert_eq!(arch.bus_count(), 1);
        // Every qubit now has degree 3.
        for q in 0..4 {
            assert_eq!(arch.degree(q), 3);
        }
    }

    #[test]
    fn three_qubit_corner_square() {
        // L-shaped layout: only 3 corners of the square occupied.
        let mut b = Architecture::builder("L");
        b.qubit(0, 0).qubit(1, 0).qubit(0, 1);
        b.four_qubit_bus(0, 0);
        let arch = b.build().unwrap();
        // Sides (0,0)-(1,0), (0,0)-(0,1) plus the occupied diagonal
        // (1,0)-(0,1).
        assert_eq!(arch.coupling_edges().len(), 3);
        assert!(arch.is_connected());
    }

    #[test]
    fn square_with_two_qubits_rejected() {
        let mut b = Architecture::builder("thin");
        b.qubit(0, 0).qubit(0, 1);
        b.four_qubit_bus(0, 0);
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::SquareTooEmpty { occupied: 2, .. }
        ));
    }

    #[test]
    fn prohibited_condition_enforced() {
        let mut b = grid(2, 3);
        b.four_qubit_bus(0, 0).four_qubit_bus(0, 1);
        assert!(matches!(b.build().unwrap_err(), TopologyError::AdjacentFourQubitBuses { .. }));
        // Diagonal squares are fine.
        let mut b = grid(3, 3);
        b.four_qubit_bus(0, 0).four_qubit_bus(1, 1);
        assert!(b.build().is_ok());
    }

    #[test]
    fn duplicate_square_rejected() {
        let mut b = grid(2, 2);
        b.four_qubit_bus(0, 0).four_qubit_bus(0, 0);
        assert!(matches!(b.build().unwrap_err(), TopologyError::DuplicateSquare { .. }));
    }

    #[test]
    fn two_qubit_buses_exclude_square_sides() {
        let mut b = grid(2, 3);
        b.four_qubit_bus(0, 0);
        let arch = b.build().unwrap();
        // Total lattice edges 7; square covers 4 sides; 3 two-qubit buses
        // remain; coupling edges = 7 + 2 diagonals = 9.
        assert_eq!(arch.two_qubit_buses().len(), 3);
        assert_eq!(arch.coupling_edges().len(), 9);
        assert_eq!(arch.bus_count(), 4);
    }

    #[test]
    fn distance_matrix_bfs() {
        let arch = grid(1, 4).build().unwrap();
        let d = arch.distance_matrix();
        assert_eq!(d[0][3], 3);
        assert_eq!(d[3][0], 3);
        assert_eq!(d[2][2], 0);
        assert_eq!(arch.distances_from(1), [1, 0, 1, 2]);
    }

    #[test]
    fn distance_matrix_disconnected() {
        let mut b = Architecture::builder("disc");
        b.qubit(0, 0).qubit(5, 5);
        let arch = b.build().unwrap();
        assert!(!arch.is_connected());
        assert_eq!(arch.distance_matrix()[0][1], u32::MAX);
    }

    #[test]
    fn center_qubit_of_grid() {
        let arch = grid(3, 3).build().unwrap();
        // Centroid is (1, 1) = qubit 4.
        assert_eq!(arch.center_qubit(), 4);
    }

    #[test]
    fn ball_radius() {
        let arch = grid(1, 5).build().unwrap();
        assert_eq!(arch.ball(2, 1), vec![1, 2, 3]);
        assert_eq!(arch.ball(0, 2), vec![0, 1, 2]);
        assert_eq!(arch.ball(0, 0), vec![0]);
    }

    #[test]
    fn frequency_plan_attachment() {
        let arch = grid(1, 2).build().unwrap();
        let err = arch.clone().with_frequencies(FrequencyPlan::new(vec![5.1])).unwrap_err();
        assert!(matches!(err, TopologyError::FrequencyPlanSize { provided: 1, qubits: 2 }));
        let err = arch.clone().with_frequencies(FrequencyPlan::new(vec![5.1, 4.0])).unwrap_err();
        assert!(matches!(err, TopologyError::FrequencyOutOfBand { qubit: 1, .. }));
        let ok = arch.with_frequencies(FrequencyPlan::new(vec![5.1, 5.2])).unwrap();
        assert_eq!(ok.frequencies().unwrap().ghz(0), 5.1);
    }

    #[test]
    fn qubit_lookup() {
        let arch = grid(2, 2).build().unwrap();
        assert_eq!(arch.qubit_at(Coord::new(1, 1)), Some(3));
        assert_eq!(arch.qubit_at(Coord::new(9, 9)), None);
    }

    #[test]
    fn renamed_keeps_structure() {
        let arch = grid(2, 2).build().unwrap().renamed("other");
        assert_eq!(arch.name(), "other");
        assert_eq!(arch.num_qubits(), 4);
    }
}
