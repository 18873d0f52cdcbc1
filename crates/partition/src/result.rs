//! Partition descriptions shared by every PSP index.

use htsp_graph::{EdgeId, Graph, VertexId};
use rustc_hash::FxHashSet;

/// A planar partition of a road network into `k` vertex-disjoint subgraphs
/// (§III-C): every vertex belongs to exactly one partition, and the boundary
/// set `B_i` of partition `i` contains the vertices of `G_i` incident to at
/// least one inter-partition edge.
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// `part_of[v]` = partition id of vertex `v`.
    part_of: Vec<u32>,
    /// Vertices of each partition.
    vertices: Vec<Vec<VertexId>>,
    /// Boundary vertices of each partition.
    boundary: Vec<Vec<VertexId>>,
    /// `is_boundary[v]`.
    is_boundary: Vec<bool>,
    /// Inter-partition edges.
    inter_edges: Vec<EdgeId>,
}

impl PartitionResult {
    /// Builds the partition description from a per-vertex assignment.
    ///
    /// # Panics
    /// Panics if `part_of.len() != graph.num_vertices()` or an id is `>= k`.
    pub fn from_assignment(graph: &Graph, part_of: Vec<u32>, k: usize) -> Self {
        assert_eq!(part_of.len(), graph.num_vertices());
        let mut vertices: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for (v, &p) in part_of.iter().enumerate() {
            assert!((p as usize) < k, "partition id {p} out of range");
            vertices[p as usize].push(VertexId::from_index(v));
        }
        let mut is_boundary = vec![false; graph.num_vertices()];
        let mut inter_edges = Vec::new();
        for (e, u, v, _) in graph.edges() {
            if part_of[u.index()] != part_of[v.index()] {
                is_boundary[u.index()] = true;
                is_boundary[v.index()] = true;
                inter_edges.push(e);
            }
        }
        let mut boundary: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for v in 0..graph.num_vertices() {
            if is_boundary[v] {
                boundary[part_of[v] as usize].push(VertexId::from_index(v));
            }
        }
        PartitionResult {
            part_of,
            vertices,
            boundary,
            is_boundary,
            inter_edges,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.vertices.len()
    }

    /// Partition id of `v`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        self.part_of[v.index()] as usize
    }

    /// Vertices of partition `i`.
    pub fn vertices(&self, i: usize) -> &[VertexId] {
        &self.vertices[i]
    }

    /// Boundary vertices `B_i` of partition `i`.
    pub fn boundary(&self, i: usize) -> &[VertexId] {
        &self.boundary[i]
    }

    /// All boundary vertices `B = ∪ B_i`.
    pub fn all_boundary(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.is_boundary
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(v, _)| VertexId::from_index(v))
    }

    /// Total number of boundary vertices (`|B|`, reported in Fig. 10).
    pub fn num_boundary(&self) -> usize {
        self.is_boundary.iter().filter(|&&b| b).count()
    }

    /// The boundary vertices as a hash set (for boundary-first ordering).
    pub fn boundary_set(&self) -> FxHashSet<VertexId> {
        self.all_boundary().collect()
    }

    /// Returns `true` if `v` is a boundary vertex.
    #[inline]
    pub fn is_boundary(&self, v: VertexId) -> bool {
        self.is_boundary[v.index()]
    }

    /// Inter-partition edges (`E_inter`).
    pub fn inter_edges(&self) -> &[EdgeId] {
        &self.inter_edges
    }

    /// Returns `true` if the two endpoints lie in the same partition.
    pub fn same_partition(&self, u: VertexId, v: VertexId) -> bool {
        self.part_of[u.index()] == self.part_of[v.index()]
    }

    /// Size of the largest partition (used to check the balance constraint).
    pub fn max_partition_size(&self) -> usize {
        self.vertices.iter().map(|p| p.len()).max().unwrap_or(0)
    }

    /// Load-balance factor: largest partition size over the ideal `n / k`
    /// share (1.0 = perfectly balanced). The sharded serving tier reports
    /// this per fleet, since one oversized shard bounds fleet maintenance.
    pub fn balance(&self) -> f64 {
        let n: usize = self.vertices.iter().map(|p| p.len()).sum();
        if n == 0 || self.vertices.is_empty() {
            return 1.0;
        }
        let ideal = n as f64 / self.vertices.len() as f64;
        self.max_partition_size() as f64 / ideal
    }

    /// Fraction of all vertices that are boundary vertices — the share of
    /// queries and updates that must consult the overlay.
    pub fn boundary_fraction(&self) -> f64 {
        let n: usize = self.vertices.iter().map(|p| p.len()).sum();
        if n == 0 {
            return 0.0;
        }
        self.num_boundary() as f64 / n as f64
    }

    /// Checks internal consistency against the graph; intended for tests.
    pub fn validate(&self, graph: &Graph) -> Result<(), String> {
        if self.part_of.len() != graph.num_vertices() {
            return Err("assignment length mismatch".into());
        }
        let total: usize = self.vertices.iter().map(|p| p.len()).sum();
        if total != graph.num_vertices() {
            return Err("partitions do not cover all vertices".into());
        }
        for (e, u, v, _) in graph.edges() {
            let cross = self.part_of[u.index()] != self.part_of[v.index()];
            if cross != self.inter_edges.contains(&e) && cross {
                return Err(format!("inter edge {e:?} missing"));
            }
            if cross && (!self.is_boundary(u) || !self.is_boundary(v)) {
                return Err(format!("endpoints of inter edge {e:?} not boundary"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, WeightRange};

    #[test]
    fn two_way_split_of_grid() {
        let g = grid(4, 4, WeightRange::new(1, 9), 1);
        // Left half partition 0, right half partition 1.
        let part_of: Vec<u32> = (0..16).map(|v| if v % 4 < 2 { 0 } else { 1 }).collect();
        let pr = PartitionResult::from_assignment(&g, part_of, 2);
        pr.validate(&g).unwrap();
        assert_eq!(pr.num_partitions(), 2);
        assert_eq!(pr.vertices(0).len(), 8);
        assert_eq!(pr.vertices(1).len(), 8);
        // Columns 1 and 2 are the boundary.
        assert_eq!(pr.num_boundary(), 8);
        assert_eq!(pr.boundary(0).len(), 4);
        assert_eq!(pr.boundary(1).len(), 4);
        assert_eq!(pr.inter_edges().len(), 4);
        assert!(pr.same_partition(VertexId(0), VertexId(5)));
        assert!(!pr.same_partition(VertexId(0), VertexId(3)));
    }

    #[test]
    fn single_partition_has_no_boundary() {
        let g = grid(3, 3, WeightRange::new(1, 9), 1);
        let pr = PartitionResult::from_assignment(&g, vec![0; 9], 1);
        pr.validate(&g).unwrap();
        assert_eq!(pr.num_boundary(), 0);
        assert!(pr.inter_edges().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_partition_id_panics() {
        let g = grid(2, 2, WeightRange::new(1, 9), 1);
        let _ = PartitionResult::from_assignment(&g, vec![0, 0, 2, 0], 2);
    }

    #[test]
    fn boundary_set_matches_flags() {
        let g = grid(4, 4, WeightRange::new(1, 9), 1);
        let part_of: Vec<u32> = (0..16).map(|v| if v < 8 { 0 } else { 1 }).collect();
        let pr = PartitionResult::from_assignment(&g, part_of, 2);
        let set = pr.boundary_set();
        for v in g.vertices() {
            assert_eq!(set.contains(&v), pr.is_boundary(v));
        }
    }
}
