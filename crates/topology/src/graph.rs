//! Compressed sparse-row undirected graphs.

use gossip_net::NodeId;

/// An undirected graph on nodes `0..n` stored in compressed sparse-row form.
///
/// This is the communication topology of the *sparse-network* model of
/// Section 4 of the paper: in one round a node may exchange messages with
/// its immediate neighbours only (but with all of them simultaneously, as in
/// the standard message-passing model).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    offsets: Vec<usize>,
    adjacency: Vec<u32>,
}

impl Graph {
    /// Build a graph from an undirected edge list. Self-loops and duplicate
    /// edges are dropped.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        assert!(n >= 1, "graph must have at least one node");
        // Collect per-node neighbour sets, deduplicated and sorted.
        let mut neighbor_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for n={n}");
            if a == b {
                continue;
            }
            neighbor_lists[a].push(b as u32);
            neighbor_lists[b].push(a as u32);
        }
        for list in &mut neighbor_lists {
            list.sort_unstable();
            list.dedup();
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::new();
        offsets.push(0);
        for list in &neighbor_lists {
            adjacency.extend_from_slice(list);
            offsets.push(adjacency.len());
        }
        Graph {
            n,
            offsets,
            adjacency,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Degree of a node.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The (sorted) neighbours of a node.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let i = v.index();
        self.adjacency[self.offsets[i]..self.offsets[i + 1]]
            .iter()
            .map(|&u| NodeId(u))
    }

    /// Raw neighbour slice of a node (dense `u32` ids).
    #[inline]
    pub fn neighbor_slice(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.adjacency[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Whether `{a, b}` is an edge. `O(log degree)`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbor_slice(a).binary_search(&(b.0)).is_ok()
    }

    /// All nodes `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId::new)
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes.
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.adjacency.len() as f64 / self.n as f64
        }
    }

    /// Sum over nodes of `1/(degree+1)` — the expected number of trees
    /// produced by Local-DRR on this graph (Theorem 13).
    pub fn expected_local_drr_trees(&self) -> f64 {
        self.nodes()
            .map(|v| 1.0 / (self.degree(v) as f64 + 1.0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        // 0-1, 1-2, 2-0, 2-3
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn basic_structure() {
        let g = triangle_plus_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(2)), 3);
        assert_eq!(g.degree(NodeId::new(3)), 1);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_pendant();
        let n2: Vec<usize> = g.neighbors(NodeId::new(2)).map(|v| v.index()).collect();
        assert_eq!(n2, vec![0, 1, 3]);
        for v in g.nodes() {
            for u in g.neighbors(v) {
                assert!(g.has_edge(u, v));
                assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let g = Graph::from_edges(3, &[(0, 0), (0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn has_edge_negative() {
        let g = triangle_plus_pendant();
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(0)));
    }

    #[test]
    fn expected_local_drr_trees_matches_formula() {
        let g = triangle_plus_pendant();
        let expected = 1.0 / 3.0 + 1.0 / 3.0 + 1.0 / 4.0 + 1.0 / 2.0;
        assert!((g.expected_local_drr_trees() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::from_edges(1, &[]);
        assert_eq!(g.n(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(NodeId::new(0)), 0);
    }
}
