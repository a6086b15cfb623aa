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
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadBinding {
    to_node: Vec<NodeId>,
    to_thread: Vec<u32>,
}

impl ThreadBinding {
    /// The cluster-major binding the paper's footnote 5 requires: threads
    /// fill cluster 0's nodes (row-major within the cluster), then cluster
    /// 1's, and so on.
    pub fn cluster_major(mapping: &L2ToMcMapping) -> Self {
        // Nodes enumerate in id order, so a stable sort by cluster leaves
        // each cluster's members in id order.
        let mut to_node: Vec<NodeId> = mapping.mesh().nodes().collect();
        to_node.sort_by_cached_key(|&n| mapping.cluster_of(n));
        Self::from_nodes(to_node)
    }

    /// The identity binding: thread `t` runs on node `t`. Used as the
    /// unoptimized baseline (OS default placement).
    pub fn identity(num_nodes: usize) -> Self {
        Self::from_nodes((0..num_nodes as u16).map(NodeId).collect())
    }

    fn from_nodes(to_node: Vec<NodeId>) -> Self {
        let mut to_thread = vec![u32::MAX; to_node.len()];
        for (t, n) in to_node.iter().enumerate() {
            assert!(
                (n.0 as usize) < to_node.len() && to_thread[n.0 as usize] == u32::MAX,
                "binding must be a bijection"
            );
            to_thread[n.0 as usize] = t as u32;
        }
        Self { to_node, to_thread }
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

    /// The thread bound to a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn thread_of(&self, n: NodeId) -> usize {
        self.to_thread[n.0 as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_noc::{McPlacement, Mesh};

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
                assert_eq!(b.thread_of(b.node_of(t)), t);
            }
        }
    }

    #[test]
    fn identity_binding_is_identity() {
        let b = ThreadBinding::identity(16);
        assert_eq!(b.node_of(5), NodeId(5));
    }
}
