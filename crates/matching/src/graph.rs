//! Weighted undirected graph representation shared by the matchers.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An undirected weighted edge `(u, v, weight)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub u: usize,
    pub v: usize,
    pub weight: i64,
}

impl Edge {
    pub fn new(u: usize, v: usize, weight: i64) -> Self {
        Edge { u, v, weight }
    }

    /// The endpoint different from `x`; panics if `x` is not incident.
    pub fn other(&self, x: usize) -> usize {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("vertex {x} not incident to edge ({}, {})", self.u, self.v)
        }
    }
}

/// A simple undirected weighted graph over vertices `0..n`.
///
/// Self-loops are rejected (a token cannot pair with itself); parallel
/// edges are permitted by the matchers but [`Graph::add_edge`] keeps the
/// heavier one to match the eligible-pair semantics (one `s_ij` per pair).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// Position in `edges` of the edge between `(min, max)`, so a
    /// duplicate is found without scanning the edge list.
    index: HashMap<(usize, usize), usize, BuildHasherDefault<PairHasher>>,
}

/// A multiplicative hasher for the `(min, max)` edge index: each word
/// is folded in with a rotate, an xor and a multiply by an odd
/// constant (the FxHash step). Vertex ids are not attacker-chosen
/// hash-flooding input, so SipHash's keyed mixing buys nothing here.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Graph {
    /// Empty graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            index: HashMap::default(),
        }
    }

    /// Builds a graph from raw edges, growing the vertex count as needed.
    pub fn from_edges(edges: impl IntoIterator<Item = (usize, usize, i64)>) -> Self {
        let mut g = Graph::new(0);
        for (u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edge list.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Adds an undirected edge. Panics on self-loops. If the pair
    /// already exists, keeps the maximum weight.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: i64) {
        assert_ne!(
            u, v,
            "self-loops are not allowed (token paired with itself)"
        );
        self.n = self.n.max(u + 1).max(v + 1);
        match self.index.entry((u.min(v), u.max(v))) {
            Entry::Occupied(at) => {
                let e = &mut self.edges[*at.get()];
                e.weight = e.weight.max(weight);
            }
            Entry::Vacant(slot) => {
                slot.insert(self.edges.len());
                self.edges.push(Edge::new(u, v, weight));
            }
        }
    }

    /// Total weight of a set of edge indices.
    pub fn weight_of(&self, edge_indices: &[usize]) -> i64 {
        edge_indices.iter().map(|&i| self.edges[i].weight).sum()
    }

    /// `true` iff the edge-index set is a matching (no shared vertices).
    pub fn is_matching(&self, edge_indices: &[usize]) -> bool {
        let mut seen = vec![false; self.n];
        for &i in edge_indices {
            let e = self.edges[i];
            if seen[e.u] || seen[e.v] {
                return false;
            }
            seen[e.u] = true;
            seen[e.v] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_grows() {
        let mut g = Graph::new(0);
        g.add_edge(0, 3, 5);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 1);
        g.add_edge(1, 2, 7);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn duplicate_edge_keeps_max_weight() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 0, 9);
        g.add_edge(0, 1, 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges()[0].weight, 9);
    }

    #[test]
    fn duplicates_keep_first_insertion_position_and_orientation() {
        let raw = [
            (2, 5, 4),
            (0, 1, 3),
            (5, 2, 8),
            (1, 3, 6),
            (1, 0, 1),
            (3, 1, 6),
            (4, 2, 2),
            (2, 5, 7),
        ];
        let mut g = Graph::new(0);
        for (u, v, w) in raw {
            g.add_edge(u, v, w);
        }
        let want = [
            Edge::new(2, 5, 8),
            Edge::new(0, 1, 3),
            Edge::new(1, 3, 6),
            Edge::new(4, 2, 2),
        ];
        assert_eq!(g.edges(), want);
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(Graph::from_edges(raw).edges(), want);
        // Blossom sees the deduplicated graph: the heavier parallel
        // weight decides the matching.
        let mate = crate::blossom::max_weight_matching(&g, false);
        assert_eq!(mate[2], Some(5));
        assert_eq!(mate[1], Some(3));
        assert_eq!(mate[0], None);
    }

    #[test]
    fn indexed_dedup_matches_a_scan_on_random_multigraphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9_4a_ed);
        for _ in 0..50 {
            let raw: Vec<(usize, usize, i64)> = (0..200)
                .map(|_| {
                    (
                        rng.gen_range(0..12),
                        rng.gen_range(0..12),
                        rng.gen_range(1..50),
                    )
                })
                .filter(|(u, v, _)| u != v)
                .collect();
            // Reference: the linear scan for an existing (u, v) pair.
            let mut scan: Vec<Edge> = Vec::new();
            for &(u, v, w) in &raw {
                match scan
                    .iter_mut()
                    .find(|e| (e.u == u && e.v == v) || (e.u == v && e.v == u))
                {
                    Some(e) => e.weight = e.weight.max(w),
                    None => scan.push(Edge::new(u, v, w)),
                }
            }
            let g = Graph::from_edges(raw);
            assert_eq!(g.edges(), scan);
            let mut reference = Graph::new(g.num_vertices());
            reference.edges = scan;
            assert_eq!(
                crate::blossom::max_weight_matching(&g, false),
                crate::blossom::max_weight_matching(&reference, false)
            );
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        Graph::new(2).add_edge(1, 1, 3);
    }

    #[test]
    fn matching_check() {
        let g = Graph::from_edges([(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        assert!(g.is_matching(&[0, 2]));
        assert!(!g.is_matching(&[0, 1]));
        assert!(g.is_matching(&[]));
    }

    #[test]
    fn edge_other() {
        let e = Edge::new(2, 5, 1);
        assert_eq!(e.other(2), 5);
        assert_eq!(e.other(5), 2);
    }

    #[test]
    #[should_panic(expected = "not incident")]
    fn edge_other_panics() {
        Edge::new(2, 5, 1).other(3);
    }
}
