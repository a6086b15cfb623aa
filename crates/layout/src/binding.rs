//! Thread-to-core binding.
//!
//! Footnote 5 of the paper: *"We bind each thread to a core through a
//! system call to ensure that the order of the cores is consistent with the
//! order of memory controllers in the target two-dimensional grid."* The
//! binding below enumerates clusters in order and, within each cluster, its
//! nodes row-major — so consecutive thread blocks fill one cluster before
//! moving to the next, making each cluster's share of the partitioned data
//! dimension contiguous.

use hoploc_noc::{L2ToMcMapping, NodeId};

/// A bijection between thread indices and mesh nodes.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct ThreadBinding {
    to_node: Vec<NodeId>,
    to_thread: Vec<u32>,
}

impl ThreadBinding {
    /// A fresh [`set_cluster_major`](Self::set_cluster_major) binding.
    #[cfg(test)]
    pub(crate) fn cluster_major(mapping: &L2ToMcMapping) -> Self {
        let mut binding = Self::default();
        binding.set_cluster_major(mapping);
        binding
    }

    /// Makes this the cluster-major binding the paper's footnote 5 requires
    /// of `mapping`, in the buffers it already has: threads fill cluster
    /// 0's nodes (row-major within the cluster), then cluster 1's, and so
    /// on.
    pub(crate) fn set_cluster_major(&mut self, mapping: &L2ToMcMapping) {
        // Clusters tile the mesh and are numbered row-major, as are the
        // nodes, so walking each cluster's rectangle row by row, cluster
        // after cluster, lists the nodes in (cluster, id) order.
        let mesh = mapping.mesh();
        let (cw, ch) = (mapping.cores_x(), mapping.cores_y());
        self.to_node.clear();
        for cy in 0..mapping.clusters_y() {
            for cx in 0..mapping.clusters_x() {
                for y in cy * ch..(cy + 1) * ch {
                    let row = (cx * cw..(cx + 1) * cw).map(|x| mesh.node_at(x, y));
                    self.to_node.extend(row);
                }
            }
        }
        self.index_threads();
    }

    /// The identity binding: thread `t` runs on node `t`. Used as the
    /// unoptimized baseline (OS default placement).
    pub fn identity(num_nodes: usize) -> Self {
        let mut binding = Self {
            to_node: (0..num_nodes as u16).map(NodeId).collect(),
            to_thread: Vec::new(),
        };
        binding.index_threads();
        binding
    }

    /// Fills `to_thread` as the inverse of `to_node`.
    fn index_threads(&mut self) {
        let n = self.to_node.len();
        self.to_thread.clear();
        self.to_thread.resize(n, u32::MAX);
        for (t, node) in self.to_node.iter().enumerate() {
            match self.to_thread.get_mut(node.0 as usize) {
                Some(slot) if *slot == u32::MAX => *slot = t as u32,
                _ => panic!("binding must be a bijection"),
            }
        }
    }

    /// Number of threads (= nodes).
    pub fn len(&self) -> usize {
        self.to_node.len()
    }

    /// Whether the binding is empty.
    pub fn is_empty(&self) -> bool {
        self.to_node.is_empty()
    }

    /// The node thread `t` runs on.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn node_of(&self, t: usize) -> NodeId {
        self.to_node[t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_noc::{McId, McPlacement, Mesh};

    #[test]
    fn cluster_major_groups_threads_by_cluster() {
        let mapping = L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners);
        let b = ThreadBinding::cluster_major(&mapping);
        assert_eq!(b.len(), 64);
        // First 16 threads all live in one cluster, next 16 in another, etc.
        for chunk in 0..4 {
            let c0 = mapping.cluster_of(b.node_of(chunk * 16));
            for t in chunk * 16..(chunk + 1) * 16 {
                assert_eq!(mapping.cluster_of(b.node_of(t)), c0, "thread {t}");
            }
        }
    }

    #[test]
    fn binding_round_trips() {
        let mapping = L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners);
        for b in [
            ThreadBinding::cluster_major(&mapping),
            ThreadBinding::identity(64),
        ] {
            for t in 0..64 {
                assert_eq!(b.to_thread[b.node_of(t).0 as usize] as usize, t);
            }
        }
    }

    #[test]
    fn cluster_major_lists_each_clusters_nodes_in_id_order() {
        // The definition the tiling walk replaced: a stable sort of the
        // nodes by cluster, over every tiling of an 8x8 mesh into clusters
        // of 1 to 64 cores.
        let mesh = Mesh::new(8, 8);
        let mc_nodes = McPlacement::Corners.attach_nodes(&mesh);
        let mut kept = ThreadBinding::default();
        for (cw, ch) in [
            (8, 8),
            (4, 4),
            (2, 8),
            (8, 2),
            (2, 4),
            (4, 2),
            (1, 1),
            (4, 8),
            (8, 1),
        ] {
            let clusters = usize::from((8 / cw) * (8 / ch));
            let assignments = (0..clusters).map(|c| vec![McId((c % 4) as u16)]).collect();
            let mapping = L2ToMcMapping::new(mesh, cw, ch, mc_nodes.clone(), assignments).unwrap();
            let mut sorted: Vec<NodeId> = mesh.nodes().collect();
            sorted.sort_by_key(|&n| mapping.cluster_of(n));
            let want = ThreadBinding {
                to_thread: (0..64)
                    .map(|n| sorted.iter().position(|&s| s == NodeId(n)).unwrap() as u32)
                    .collect(),
                to_node: sorted,
            };
            assert_eq!(ThreadBinding::cluster_major(&mapping), want, "{cw}x{ch}");
            kept.set_cluster_major(&mapping);
            assert_eq!(kept, want, "{cw}x{ch}, refilled");
        }
    }

    #[test]
    fn identity_binding_is_identity() {
        let b = ThreadBinding::identity(16);
        assert_eq!(b.node_of(5), NodeId(5));
    }
}
