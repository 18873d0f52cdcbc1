//! Tree-Decomposition-based graph partitioning (Algorithm 2 of the paper).
//!
//! TD-partitioning chooses one *root vertex* per partition: the partition is
//! the root's subtree in the tree decomposition, and its boundary set is the
//! root's bag `X(u).N`, which by construction separates the subtree from the
//! rest of the graph. Every vertex that is not inside a chosen subtree becomes
//! an *overlay* vertex. Because the partition inherits the MDE vertex order,
//! the resulting PSP index (PostMHL) reaches the query-efficiency upper bound
//! of Theorem 1 — i.e., plain H2H query speed — while still maintaining
//! partitions in parallel.

use htsp_graph::VertexId;
use htsp_td::TreeDecomposition;

/// Parameters of TD-partitioning (Algorithm 2).
#[derive(Clone, Copy, Debug)]
pub struct TdPartitionConfig {
    /// Bandwidth `τ`: the maximum allowed boundary size (bag size of a root
    /// candidate). Larger values shrink the overlay graph but slow the
    /// post-boundary queries (Exp. 8).
    pub bandwidth: usize,
    /// Expected number of partitions `k_e` (drives the size bounds).
    pub expected_partitions: usize,
    /// Lower imbalance ratio `β_l`: a candidate subtree must hold at least
    /// `β_l · n / k_e` vertices.
    pub beta_lower: f64,
    /// Upper imbalance ratio `β_u`: a candidate subtree must hold at most
    /// `β_u · n / k_e` vertices.
    pub beta_upper: f64,
}

impl Default for TdPartitionConfig {
    fn default() -> Self {
        // The paper's experimental defaults: β_l = 0.1, β_u = 2 (§VII-A).
        TdPartitionConfig {
            bandwidth: 16,
            expected_partitions: 32,
            beta_lower: 0.1,
            beta_upper: 2.0,
        }
    }
}

/// The result of TD-partitioning.
#[derive(Clone, Debug)]
pub struct TdPartition {
    /// Root vertex of each partition (`V_R`).
    roots: Vec<VertexId>,
    /// `partition_of[v]` = partition id, or `None` if `v` is an overlay vertex.
    partition_of: Vec<Option<u32>>,
    /// Vertices of each partition (the root and its descendants).
    vertices: Vec<Vec<VertexId>>,
    /// Boundary vertices `B_i` of each partition (= the root's bag members).
    boundaries: Vec<Vec<VertexId>>,
    /// Vertices of the overlay graph (all vertices in no partition).
    overlay_vertices: Vec<VertexId>,
}

impl TdPartition {
    /// Number of partitions actually produced.
    pub fn num_partitions(&self) -> usize {
        self.roots.len()
    }

    /// Root vertices of all partitions.
    pub fn roots(&self) -> &[VertexId] {
        &self.roots
    }

    /// Partition id of `v`, or `None` if `v` belongs to the overlay graph.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> Option<usize> {
        self.partition_of[v.index()].map(|p| p as usize)
    }

    /// Returns `true` if `v` is an overlay vertex.
    #[inline]
    pub fn is_overlay(&self, v: VertexId) -> bool {
        self.partition_of[v.index()].is_none()
    }

    /// In-partition vertices of partition `i` (root and descendants).
    pub fn vertices(&self, i: usize) -> &[VertexId] {
        &self.vertices[i]
    }

    /// Boundary vertices `B_i` of partition `i` (all overlay vertices).
    pub fn boundary(&self, i: usize) -> &[VertexId] {
        &self.boundaries[i]
    }

    /// All overlay vertices.
    pub fn overlay_vertices(&self) -> &[VertexId] {
        &self.overlay_vertices
    }
}

/// Runs TD-partitioning (Algorithm 2) over a tree decomposition.
pub fn td_partition(td: &TreeDecomposition, config: &TdPartitionConfig) -> TdPartition {
    let n = td.num_vertices();
    let sizes = td.subtree_sizes(); // cN, lines 2-5
    let target = n as f64 / config.expected_partitions.max(1) as f64;
    let lower = (config.beta_lower * target).floor() as u32;
    let upper = (config.beta_upper * target).ceil() as u32;

    // Lines 6-9: root candidates in decreasing vertex order (rank).
    let mut candidates: Vec<VertexId> = Vec::new();
    for r in (0..n as u32).rev() {
        let v = td.order().vertex_at(r);
        let c = sizes[v.index()];
        if c >= lower.max(1) && c <= upper && td.bag(v).len() <= config.bandwidth {
            candidates.push(v);
        }
    }

    // Lines 10-12: minimum-overlay selection — keep a candidate only if no
    // already chosen root is its ancestor.
    let mut roots: Vec<VertexId> = Vec::new();
    for &v in &candidates {
        let covered = roots.iter().any(|&u| td.lca_index().is_ancestor(u, v));
        if !covered {
            roots.push(v);
        }
    }

    // Line 13: partition = root's subtree; boundary = root's bag; overlay =
    // everything else.
    let mut partition_of: Vec<Option<u32>> = vec![None; n];
    let mut vertices: Vec<Vec<VertexId>> = Vec::with_capacity(roots.len());
    let mut boundaries: Vec<Vec<VertexId>> = Vec::with_capacity(roots.len());
    for (i, &root) in roots.iter().enumerate() {
        let mut members = Vec::with_capacity(sizes[root.index()] as usize);
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            debug_assert!(partition_of[v.index()].is_none(), "overlapping partitions");
            partition_of[v.index()] = Some(i as u32);
            members.push(v);
            stack.extend_from_slice(td.children(v));
        }
        vertices.push(members);
        boundaries.push(td.bag(root).iter().map(|&(u, _)| u).collect());
    }
    let overlay_vertices: Vec<VertexId> = (0..n)
        .map(VertexId::from_index)
        .filter(|v| partition_of[v.index()].is_none())
        .collect();

    TdPartition {
        roots,
        partition_of,
        vertices,
        boundaries,
        overlay_vertices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, random_geometric, WeightRange};

    fn config(bandwidth: usize, ke: usize) -> TdPartitionConfig {
        TdPartitionConfig {
            bandwidth,
            expected_partitions: ke,
            beta_lower: 0.1,
            beta_upper: 2.0,
        }
    }

    #[test]
    fn partitions_are_disjoint_subtrees() {
        let g = grid(12, 12, WeightRange::new(1, 9), 3);
        let td = TreeDecomposition::build(&g);
        let tp = td_partition(&td, &config(12, 8));
        assert!(tp.num_partitions() >= 2, "expected at least two partitions");
        // Disjointness + coverage accounting.
        let covered: usize = (0..tp.num_partitions()).map(|i| tp.vertices(i).len()).sum();
        assert_eq!(covered + tp.overlay_vertices().len(), g.num_vertices());
        // Every partition member's partition_of agrees, and members are
        // descendants of the root.
        for i in 0..tp.num_partitions() {
            let root = tp.roots()[i];
            for &v in tp.vertices(i) {
                assert_eq!(tp.partition_of(v), Some(i));
                assert!(td.lca_index().is_ancestor(root, v));
            }
        }
    }

    #[test]
    fn boundaries_are_root_bags_and_overlay_vertices() {
        let g = grid(12, 12, WeightRange::new(1, 9), 5);
        let td = TreeDecomposition::build(&g);
        let tp = td_partition(&td, &config(12, 8));
        for i in 0..tp.num_partitions() {
            let root = tp.roots()[i];
            let bag: Vec<VertexId> = td.bag(root).iter().map(|&(u, _)| u).collect();
            assert_eq!(tp.boundary(i), bag.as_slice());
            assert!(tp.boundary(i).len() <= 12, "bandwidth violated");
            for &b in tp.boundary(i) {
                assert!(tp.is_overlay(b), "boundary vertex {b} must be overlay");
            }
        }
    }

    #[test]
    fn size_bounds_respected() {
        let g = grid(16, 16, WeightRange::new(1, 9), 7);
        let td = TreeDecomposition::build(&g);
        let ke = 8;
        let cfg = config(16, ke);
        let tp = td_partition(&td, &cfg);
        let target = g.num_vertices() as f64 / ke as f64;
        for i in 0..tp.num_partitions() {
            let s = tp.vertices(i).len() as f64;
            assert!(s >= (cfg.beta_lower * target).floor().max(1.0));
            assert!(s <= (cfg.beta_upper * target).ceil());
        }
    }

    #[test]
    fn larger_bandwidth_shrinks_overlay() {
        // The Exp. 8 trend: increasing τ lets more subtrees become partitions,
        // so the overlay graph gets smaller (or stays equal).
        let g = grid(16, 16, WeightRange::new(1, 9), 9);
        let td = TreeDecomposition::build(&g);
        let small = td_partition(&td, &config(6, 16));
        let large = td_partition(&td, &config(24, 16));
        assert!(large.overlay_vertices().len() <= small.overlay_vertices().len());
    }

    #[test]
    fn works_on_geometric_graphs() {
        let g = random_geometric(400, 3, WeightRange::new(1, 50), 11);
        let td = TreeDecomposition::build(&g);
        let tp = td_partition(&td, &config(16, 8));
        let covered: usize = (0..tp.num_partitions()).map(|i| tp.vertices(i).len()).sum();
        assert_eq!(covered + tp.overlay_vertices().len(), g.num_vertices());
    }

    #[test]
    fn roots_are_never_nested() {
        let g = grid(14, 14, WeightRange::new(1, 9), 13);
        let td = TreeDecomposition::build(&g);
        let tp = td_partition(&td, &config(14, 12));
        for (i, &a) in tp.roots().iter().enumerate() {
            for (j, &b) in tp.roots().iter().enumerate() {
                if i != j {
                    assert!(
                        !td.lca_index().is_ancestor(a, b),
                        "{a} is an ancestor of {b}"
                    );
                }
            }
        }
    }
}
