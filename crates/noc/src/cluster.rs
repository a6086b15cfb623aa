//! L2-to-MC mappings: clusters of cores and their assigned memory
//! controllers (§4 of the paper, Figure 8).
//!
//! A *valid* mapping tiles the mesh into equal rectangular clusters and
//! assigns every cluster the same number `k` of memory controllers. The
//! paper's two running examples are:
//!
//! * **M1** (Figure 8a): four quadrant clusters, each bound to its nearest
//!   corner MC (`k = 1`) — best locality;
//! * **M2** (Figure 8b): two half-mesh clusters, each bound to the two MCs
//!   on its side (`k = 2`) — better memory-level parallelism.

use crate::geometry::{McId, McPlacement, Mesh, NodeId};
use std::fmt;

/// Identifies a cluster within an [`L2ToMcMapping`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClusterId(pub u16);

/// Error produced when an L2-to-MC mapping violates the paper's validity
/// constraints.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MappingError {
    /// Cluster dimensions do not evenly tile the mesh.
    UnevenTiling {
        /// Mesh dimension that failed to divide.
        axis: char,
    },
    /// Clusters are assigned differing numbers of MCs.
    UnequalMcCounts,
    /// An assignment refers to an MC id that does not exist.
    UnknownMc(McId),
    /// The number of cluster assignments differs from the cluster count.
    WrongClusterCount {
        /// Number of assignment entries provided.
        got: usize,
        /// Number of clusters the tiling produces.
        expected: usize,
    },
    /// A cluster was assigned no MCs.
    EmptyAssignment(ClusterId),
    /// Two memory controllers attach to the same mesh node.
    DuplicateMcNode(NodeId),
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::UnevenTiling { axis } => {
                write!(f, "cluster size does not divide the mesh along {axis}")
            }
            MappingError::UnequalMcCounts => {
                write!(f, "all clusters must be assigned the same number of MCs")
            }
            MappingError::UnknownMc(mc) => write!(f, "assignment references unknown {mc}"),
            MappingError::WrongClusterCount { got, expected } => {
                write!(f, "expected {expected} cluster assignments, got {got}")
            }
            MappingError::EmptyAssignment(c) => {
                write!(f, "cluster {} has no assigned MC", c.0)
            }
            MappingError::DuplicateMcNode(n) => {
                write!(f, "two memory controllers attach to node {}", n.0)
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// An L2-to-MC mapping: the user-provided input of the layout pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct L2ToMcMapping {
    mesh: Mesh,
    cluster_w: u16,
    cluster_h: u16,
    mc_nodes: Vec<NodeId>,
    /// Every cluster's MCs, cluster after cluster, `k` each.
    assigned: Vec<McId>,
    /// MCs per cluster.
    k: usize,
    /// The cluster of every node, indexed by [`NodeId`] — a function of the
    /// tiling, filled once so that [`cluster_of`](Self::cluster_of) is a
    /// load for the layout pass, the estimator and first-touch allocation.
    node_cluster: Vec<ClusterId>,
}

impl L2ToMcMapping {
    /// Creates a mapping from cluster dimensions and per-cluster MC
    /// assignments.
    ///
    /// Clusters tile the mesh row-major: cluster `(cx, cy)` covers nodes
    /// with `x in [cx*cluster_w, (cx+1)*cluster_w)` etc. `assignments[c]`
    /// lists the MCs serving cluster `c` (round-robin across them for
    /// consecutive data chunks, per §5.3).
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if the tiling is uneven, assignment counts
    /// differ (the paper's two validity constraints), or ids are invalid.
    pub fn new(
        mesh: Mesh,
        cluster_w: u16,
        cluster_h: u16,
        mc_nodes: Vec<NodeId>,
        assignments: Vec<Vec<McId>>,
    ) -> Result<Self, MappingError> {
        let mut mapping = Self {
            mesh,
            cluster_w,
            cluster_h,
            mc_nodes: Vec::new(),
            assigned: Vec::new(),
            k: 0,
            node_cluster: Vec::new(),
        };
        mapping.reset(mesh, cluster_w, cluster_h, &mc_nodes, &assignments)?;
        Ok(mapping)
    }

    /// Makes this the mapping [`new`](Self::new) creates from the same
    /// arguments, in the buffers it already has.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new); the mapping is then left as it was.
    pub(crate) fn reset(
        &mut self,
        mesh: Mesh,
        cluster_w: u16,
        cluster_h: u16,
        mc_nodes: &[NodeId],
        assignments: &[Vec<McId>],
    ) -> Result<(), MappingError> {
        if cluster_w == 0 || !mesh.width().is_multiple_of(cluster_w) {
            return Err(MappingError::UnevenTiling { axis: 'x' });
        }
        if cluster_h == 0 || !mesh.height().is_multiple_of(cluster_h) {
            return Err(MappingError::UnevenTiling { axis: 'y' });
        }
        let n_clusters = (mesh.width() / cluster_w) as usize * (mesh.height() / cluster_h) as usize;
        if assignments.len() != n_clusters {
            return Err(MappingError::WrongClusterCount {
                got: assignments.len(),
                expected: n_clusters,
            });
        }
        let k = assignments[0].len();
        for (c, a) in assignments.iter().enumerate() {
            if a.is_empty() {
                return Err(MappingError::EmptyAssignment(ClusterId(c as u16)));
            }
            if a.len() != k {
                return Err(MappingError::UnequalMcCounts);
            }
            for &mc in a {
                if mc.0 as usize >= mc_nodes.len() {
                    return Err(MappingError::UnknownMc(mc));
                }
            }
        }
        self.mesh = mesh;
        self.cluster_w = cluster_w;
        self.cluster_h = cluster_h;
        self.mc_nodes.clear();
        self.mc_nodes.extend_from_slice(mc_nodes);
        self.assigned.clear();
        self.assigned.extend(assignments.iter().flatten());
        self.k = k;
        // Nodes are numbered row-major and so are clusters: the first node
        // row takes one division per column, every later row is the first
        // shifted by its cluster row — none per node.
        let (w, clusters_x) = (mesh.width() as usize, mesh.width() / cluster_w);
        let node_cluster = &mut self.node_cluster;
        node_cluster.clear();
        node_cluster.extend((0..mesh.width()).map(|x| ClusterId(x / cluster_w)));
        for y in 1..mesh.height() {
            let shift = (y / cluster_h) * clusters_x;
            node_cluster.extend_from_within(..w);
            let row = node_cluster.len() - w;
            for c in &mut node_cluster[row..] {
                c.0 += shift;
            }
        }
        Ok(())
    }

    /// The paper's default mapping **M1**: each cluster is the quadrant (or
    /// general grid cell) nearest to one MC, with exactly one MC per
    /// cluster. Works for any placement whose MC count tiles the mesh into
    /// a grid (4 → 2×2, 8 → 4×2, 16 → 4×4).
    ///
    /// Each grid cell is assigned the MC whose attach node is nearest to
    /// the cell centre.
    ///
    /// # Panics
    ///
    /// Panics if the MC count is not 4, 8, or 16, or the mesh cannot be
    /// tiled accordingly.
    pub fn nearest_cluster(mesh: Mesh, placement: &McPlacement) -> Self {
        let mc_nodes = placement.attach_nodes(&mesh);
        let (gx, gy) = match mc_nodes.len() {
            4 => (2u16, 2u16),
            8 => (4, 2),
            16 => (4, 4),
            n => panic!("unsupported MC count {n} for nearest_cluster"),
        };
        assert!(
            mesh.width().is_multiple_of(gx) && mesh.height().is_multiple_of(gy),
            "mesh does not tile into {gx}x{gy} clusters"
        );
        let cw = mesh.width() / gx;
        let ch = mesh.height() / gy;
        let mut assignments = Vec::with_capacity((gx * gy) as usize);
        let mut used = vec![false; mc_nodes.len()];
        for cy in 0..gy {
            for cx in 0..gx {
                // Cluster centre in node coordinates (doubled to stay integral).
                let cen_x2 = 2 * cx * cw + cw - 1;
                let cen_y2 = 2 * cy * ch + ch - 1;
                // Nearest unused MC to the centre; break ties by id. Using
                // each MC exactly once keeps load balanced (paper M1).
                let (best, _) = mc_nodes
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !used[*i])
                    .map(|(i, &n)| {
                        let (x, y) = mesh.coords(n);
                        let d = (2 * x).abs_diff(cen_x2) + (2 * y).abs_diff(cen_y2);
                        (i, d)
                    })
                    .min_by_key(|&(i, d)| (d, i))
                    .expect(
                        "invariant: the loop assigns one MC per cluster and there are \
                         exactly as many clusters as MCs, so an unused MC remains",
                    );
                used[best] = true;
                assignments.push(vec![McId(best as u16)]);
            }
        }
        Self::new(mesh, cw, ch, mc_nodes, assignments).expect(
            "invariant: the tiling was asserted even and the loop assigned one \
                 distinct in-range MC per cluster, satisfying every Self::new check",
        )
    }

    /// The paper's alternate mapping **M2** (Figure 8b): two half-mesh
    /// clusters (left / right), each assigned the two MCs on its side
    /// (`k = 2`), trading locality for memory-level parallelism.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not have exactly 4 MCs or the mesh
    /// width is odd.
    pub fn halves(mesh: Mesh, placement: &McPlacement) -> Self {
        let mc_nodes = placement.attach_nodes(&mesh);
        assert_eq!(mc_nodes.len(), 4, "halves mapping requires 4 MCs");
        assert_eq!(
            mesh.width() % 2,
            0,
            "halves mapping requires even mesh width"
        );
        let cw = mesh.width() / 2;
        // Sort MCs into left / right of the mesh midline.
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (i, &n) in mc_nodes.iter().enumerate() {
            let (x, _) = mesh.coords(n);
            if x < cw {
                left.push(McId(i as u16));
            } else {
                right.push(McId(i as u16));
            }
        }
        assert_eq!(left.len(), 2, "placement must put two MCs on each side");
        Self::new(mesh, cw, mesh.height(), mc_nodes, vec![left, right]).expect(
            "invariant: the asserted 2+2 left/right split gives both clusters \
                 equal non-empty in-range MC sets, satisfying every Self::new check",
        )
    }

    /// The mesh this mapping is defined over.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Cluster grid width `c_x` (clusters along X).
    pub fn clusters_x(&self) -> u16 {
        self.mesh.width() / self.cluster_w
    }

    /// Cluster grid height `c_y` (clusters along Y).
    pub fn clusters_y(&self) -> u16 {
        self.mesh.height() / self.cluster_h
    }

    /// Cores per cluster along X (`n_x`).
    pub fn cores_x(&self) -> u16 {
        self.cluster_w
    }

    /// Cores per cluster along Y (`n_y`).
    pub fn cores_y(&self) -> u16 {
        self.cluster_h
    }

    /// Total number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.assigned.len() / self.k
    }

    /// Cores per cluster.
    pub fn cores_per_cluster(&self) -> usize {
        self.cluster_w as usize * self.cluster_h as usize
    }

    /// MCs assigned to each cluster (`k` of §5.3).
    pub fn mcs_per_cluster(&self) -> usize {
        self.k
    }

    /// Number of memory controllers.
    pub fn num_mcs(&self) -> usize {
        self.mc_nodes.len()
    }

    /// Attachment node of a memory controller.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn mc_node(&self, mc: McId) -> NodeId {
        self.mc_nodes[mc.0 as usize]
    }

    /// All MC attachment nodes, indexed by [`McId`].
    pub fn mc_nodes(&self) -> &[NodeId] {
        &self.mc_nodes
    }

    /// The cluster containing a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the mesh.
    pub fn cluster_of(&self, n: NodeId) -> ClusterId {
        self.node_cluster[n.0 as usize]
    }

    /// The MCs serving a cluster.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cluster_mcs(&self, c: ClusterId) -> &[McId] {
        let c = usize::from(c.0);
        &self.assigned[c * self.k..(c + 1) * self.k]
    }

    /// The MCs serving the cluster of a node.
    pub fn mcs_of_node(&self, n: NodeId) -> &[McId] {
        self.cluster_mcs(self.cluster_of(n))
    }

    /// The MC nearest to a node (used by the *optimal scheme* of §2 and by
    /// first-touch style policies).
    pub fn nearest_mc(&self, n: NodeId) -> McId {
        let (best, _) = self
            .mc_nodes
            .iter()
            .enumerate()
            .map(|(i, &m)| (i, self.mesh.hop_distance(n, m)))
            .min_by_key(|&(i, d)| (d, i))
            .expect("invariant: Self::new rejects mappings with an empty MC set");
        McId(best as u16)
    }

    /// Average hop distance from a node to the MCs serving its cluster —
    /// the *distance-to-MC* metric of the compiler's mapping-selection
    /// analysis (§4, final paragraph).
    pub fn avg_distance_to_mc(&self) -> f64 {
        let mut total = 0u64;
        let mut count = 0u64;
        for n in self.mesh.nodes() {
            for &mc in self.mcs_of_node(n) {
                total += self.mesh.hop_distance(n, self.mc_node(mc)) as u64;
                count += 1;
            }
        }
        total as f64 / count as f64
    }

    /// Memory-level-parallelism metric: how many MCs serve each cluster.
    pub fn mlp_degree(&self) -> usize {
        self.mcs_per_cluster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn m1_has_four_singleton_clusters() {
        let m1 = L2ToMcMapping::nearest_cluster(mesh8(), &McPlacement::Corners);
        assert_eq!(m1.num_clusters(), 4);
        assert_eq!(m1.mcs_per_cluster(), 1);
        assert_eq!(m1.cores_per_cluster(), 16);
        // Top-left quadrant maps to the top-left corner MC (MC id 0 at node 0).
        assert_eq!(m1.cluster_mcs(m1.cluster_of(NodeId(0))), &[McId(0)]);
        // Bottom-right quadrant maps to node 63's MC.
        assert_eq!(
            m1.mc_node(m1.cluster_mcs(m1.cluster_of(NodeId(63)))[0]),
            NodeId(63)
        );
    }

    #[test]
    fn m1_clusters_use_distinct_mcs() {
        let m1 = L2ToMcMapping::nearest_cluster(mesh8(), &McPlacement::Corners);
        let mut seen: Vec<McId> = (0..4).map(|c| m1.cluster_mcs(ClusterId(c))[0]).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn m2_has_two_clusters_with_two_mcs() {
        let m2 = L2ToMcMapping::halves(mesh8(), &McPlacement::Corners);
        assert_eq!(m2.num_clusters(), 2);
        assert_eq!(m2.mcs_per_cluster(), 2);
        assert_eq!(m2.cores_per_cluster(), 32);
        // Left half nodes see the two left corners.
        let left = m2.mcs_of_node(NodeId(0));
        for &mc in left {
            let (x, _) = mesh8().coords(m2.mc_node(mc));
            assert!(x < 4);
        }
    }

    #[test]
    fn m1_beats_m2_on_distance_m2_beats_m1_on_mlp() {
        // The locality-vs-parallelism tradeoff of §4.
        let m1 = L2ToMcMapping::nearest_cluster(mesh8(), &McPlacement::Corners);
        let m2 = L2ToMcMapping::halves(mesh8(), &McPlacement::Corners);
        assert!(m1.avg_distance_to_mc() < m2.avg_distance_to_mc());
        assert!(m2.mlp_degree() > m1.mlp_degree());
    }

    #[test]
    fn invalid_tiling_rejected() {
        let err = L2ToMcMapping::new(Mesh::new(8, 8), 3, 4, vec![NodeId(0)], vec![vec![McId(0)]])
            .unwrap_err();
        assert_eq!(err, MappingError::UnevenTiling { axis: 'x' });
    }

    #[test]
    fn unequal_mc_counts_rejected() {
        let err = L2ToMcMapping::new(
            Mesh::new(8, 8),
            4,
            8,
            vec![NodeId(0), NodeId(7)],
            vec![vec![McId(0)], vec![McId(0), McId(1)]],
        )
        .unwrap_err();
        assert_eq!(err, MappingError::UnequalMcCounts);
    }

    #[test]
    fn unknown_mc_rejected() {
        let err = L2ToMcMapping::new(
            Mesh::new(8, 8),
            4,
            8,
            vec![NodeId(0)],
            vec![vec![McId(0)], vec![McId(9)]],
        )
        .unwrap_err();
        assert_eq!(err, MappingError::UnknownMc(McId(9)));
    }

    #[test]
    fn nearest_mc_is_closest() {
        let m1 = L2ToMcMapping::nearest_cluster(mesh8(), &McPlacement::Corners);
        let mesh = mesh8();
        for n in mesh.nodes() {
            let nearest = m1.nearest_mc(n);
            let d = mesh.hop_distance(n, m1.mc_node(nearest));
            for mc in 0..4 {
                assert!(d <= mesh.hop_distance(n, m1.mc_node(McId(mc))));
            }
        }
    }

    /// The definition the node → cluster table replaced.
    fn cluster_by_division(m: &L2ToMcMapping, n: NodeId) -> ClusterId {
        let (x, y) = m.mesh().coords(n);
        ClusterId((y / m.cores_y()) * m.clusters_x() + x / m.cores_x())
    }

    #[test]
    fn cluster_table_equals_the_division() {
        // Every even tiling of a square and an oblong mesh (a superset of
        // the search's `TILINGS`), then the named placements' M1 and M2 maps.
        let mut maps = Vec::new();
        for mesh in [mesh8(), Mesh::new(8, 4)] {
            for cw in (1..=mesh.width()).filter(|w| mesh.width() % w == 0) {
                for ch in (1..=mesh.height()).filter(|h| mesh.height() % h == 0) {
                    let n = (mesh.width() / cw) as usize * (mesh.height() / ch) as usize;
                    maps.push(
                        L2ToMcMapping::new(mesh, cw, ch, vec![NodeId(0)], vec![vec![McId(0)]; n])
                            .expect("an even tiling"),
                    );
                }
            }
        }
        for p in [
            McPlacement::Corners,
            McPlacement::EdgeMidpoints,
            McPlacement::Diagonal,
            McPlacement::Eight,
            McPlacement::Sixteen,
        ] {
            maps.push(L2ToMcMapping::nearest_cluster(mesh8(), &p));
        }
        for p in [McPlacement::Corners, McPlacement::Diagonal] {
            maps.push(L2ToMcMapping::halves(mesh8(), &p));
        }
        for m in &maps {
            for n in m.mesh().nodes() {
                assert_eq!(m.cluster_of(n), cluster_by_division(m, n), "{m:?} at {n:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn cluster_of_rejects_a_node_outside_the_mesh() {
        L2ToMcMapping::nearest_cluster(mesh8(), &McPlacement::Corners).cluster_of(NodeId(64));
    }

    #[test]
    fn eight_mc_nearest_cluster_valid() {
        let m = L2ToMcMapping::nearest_cluster(mesh8(), &McPlacement::Eight);
        assert_eq!(m.num_clusters(), 8);
        assert_eq!(m.mcs_per_cluster(), 1);
    }

    #[test]
    fn sixteen_mc_nearest_cluster_valid() {
        let m = L2ToMcMapping::nearest_cluster(mesh8(), &McPlacement::Sixteen);
        assert_eq!(m.num_clusters(), 16);
        assert_eq!(m.cores_per_cluster(), 4);
    }
}
