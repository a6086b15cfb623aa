//! A unified placement: MC attach coordinates plus the L2-to-MC cluster
//! map, kept consistent by construction.
//!
//! Historically each layer carried its own half of the geometry: the
//! simulator takes an [`McPlacement`] in its config *and* an
//! [`L2ToMcMapping`] at construction, and asserts at runtime that
//! `mapping.mc_nodes() == placement.attach_nodes(&mesh)`. Code that
//! builds candidate designs (the `hoploc-search` optimizer, the serve
//! engine, the CLI) had to re-derive both halves and hope they agreed.
//!
//! [`Placement`] packages the pair and guarantees the invariant: the
//! wrapped mapping's MC nodes *are* the attach nodes of the wrapped
//! [`McPlacement`], always. Every constructor either derives one half
//! from the other or validates the pair, so a `Placement` can be split
//! into a simulator config + mapping without any possibility of the
//! runtime assertion firing.

use crate::cluster::{L2ToMcMapping, MappingError};
use crate::geometry::{McId, McPlacement, Mesh, NodeId};

/// MC attach nodes and the L2-to-MC cluster map, consistent by
/// construction (see module docs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Placement {
    mc_placement: McPlacement,
    mapping: L2ToMcMapping,
}

impl Placement {
    /// The paper's M1 mapping over a named placement: nearest-cluster
    /// grid, one distinct MC per cluster.
    ///
    /// # Panics
    ///
    /// Panics if the MC count is not 4, 8, or 16 (the grids
    /// [`L2ToMcMapping::nearest_cluster`] supports).
    pub fn nearest(mesh: Mesh, mc_placement: &McPlacement) -> Self {
        let mapping = L2ToMcMapping::nearest_cluster(mesh, mc_placement);
        Self {
            mc_placement: mc_placement.clone(),
            mapping,
        }
    }

    /// The paper's M2 mapping over a placement: two half-mesh clusters
    /// with two MCs each.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not have exactly 4 MCs split 2+2
    /// across the mesh midline.
    pub fn halves(mesh: Mesh, mc_placement: &McPlacement) -> Self {
        let mapping = L2ToMcMapping::halves(mesh, mc_placement);
        Self {
            mc_placement: mc_placement.clone(),
            mapping,
        }
    }

    /// A fully custom placement: explicit MC attach nodes, cluster
    /// tiling, and per-cluster MC assignments.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if two MCs share an attach node, a
    /// node is outside the mesh, or the mapping violates the paper's
    /// validity constraints (uneven tiling, unequal per-cluster MC
    /// counts, unknown ids, empty assignments).
    pub fn custom(
        mesh: Mesh,
        mc_nodes: Vec<NodeId>,
        cluster_w: u16,
        cluster_h: u16,
        assignments: Vec<Vec<McId>>,
    ) -> Result<Self, MappingError> {
        check_attach_nodes(&mesh, &mc_nodes)?;
        let mapping =
            L2ToMcMapping::new(mesh, cluster_w, cluster_h, mc_nodes.clone(), assignments)?;
        Ok(Self {
            mc_placement: McPlacement::Custom(mc_nodes),
            mapping,
        })
    }

    /// Makes this the placement [`custom`](Self::custom) creates from the
    /// same arguments, in the buffers it already has.
    ///
    /// # Errors
    ///
    /// As [`custom`](Self::custom); the placement is then left as it was.
    pub fn set_custom(
        &mut self,
        mesh: Mesh,
        mc_nodes: &[NodeId],
        cluster_w: u16,
        cluster_h: u16,
        assignments: &[Vec<McId>],
    ) -> Result<(), MappingError> {
        check_attach_nodes(&mesh, mc_nodes)?;
        (self.mapping).reset(mesh, cluster_w, cluster_h, mc_nodes, assignments)?;
        match &mut self.mc_placement {
            McPlacement::Custom(nodes) => {
                nodes.clear();
                nodes.extend_from_slice(mc_nodes);
            }
            named => *named = McPlacement::Custom(mc_nodes.to_vec()),
        }
        Ok(())
    }

    /// The [`McPlacement`] half, suitable for a simulator config. Its
    /// `attach_nodes` equal [`Self::mapping`]'s `mc_nodes` by
    /// construction.
    pub fn mc_placement(&self) -> &McPlacement {
        &self.mc_placement
    }

    /// The L2-to-MC mapping half.
    pub fn mapping(&self) -> &L2ToMcMapping {
        &self.mapping
    }

    /// Consumes the placement, yielding the mapping.
    pub fn into_mapping(self) -> L2ToMcMapping {
        self.mapping
    }

    /// The mesh both halves are defined over.
    pub fn mesh(&self) -> &Mesh {
        self.mapping.mesh()
    }

    /// MC attach nodes, indexed by [`McId`].
    pub fn mc_nodes(&self) -> &[NodeId] {
        self.mapping.mc_nodes()
    }

    /// Average hop distance from a core to the MCs serving its cluster
    /// (the compiler's mapping-selection metric, §4).
    pub fn avg_distance_to_mc(&self) -> f64 {
        self.mapping.avg_distance_to_mc()
    }

    /// A stable one-line canonical form: `mcs=a+b+..;tile=WxH;assign=
    /// 0|1|..` where each `assign` group lists the MC ids of one cluster
    /// joined by `+`. Two placements are geometrically identical iff
    /// their canonical forms are byte-equal.
    pub fn canon(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("mcs=");
        for (i, n) in self.mc_nodes().iter().enumerate() {
            if i > 0 {
                s.push('+');
            }
            let _ = write!(s, "{}", n.0);
        }
        let _ = write!(
            s,
            ";tile={}x{};assign=",
            self.mapping.cores_x(),
            self.mapping.cores_y()
        );
        for c in 0..self.mapping.num_clusters() {
            if c > 0 {
                s.push('|');
            }
            for (i, mc) in self
                .mapping
                .cluster_mcs(crate::cluster::ClusterId(c as u16))
                .iter()
                .enumerate()
            {
                if i > 0 {
                    s.push('+');
                }
                let _ = write!(s, "{}", mc.0);
            }
        }
        s
    }
}

/// Rejects attach nodes outside the mesh or shared by two controllers.
fn check_attach_nodes(mesh: &Mesh, mc_nodes: &[NodeId]) -> Result<(), MappingError> {
    for (i, &a) in mc_nodes.iter().enumerate() {
        if a.0 as usize >= mesh.num_nodes() {
            return Err(MappingError::UnknownMc(McId(i as u16)));
        }
        if mc_nodes[..i].contains(&a) {
            return Err(MappingError::DuplicateMcNode(a));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn nearest_upholds_machine_invariant() {
        let p = Placement::nearest(mesh8(), &McPlacement::Corners);
        assert_eq!(
            p.mapping().mc_nodes(),
            p.mc_placement().attach_nodes(&mesh8())
        );
    }

    #[test]
    fn custom_upholds_machine_invariant() {
        let nodes = vec![NodeId(18), NodeId(21), NodeId(42), NodeId(45)];
        let p = Placement::custom(
            mesh8(),
            nodes.clone(),
            4,
            4,
            vec![vec![McId(0)], vec![McId(1)], vec![McId(2)], vec![McId(3)]],
        )
        .unwrap();
        assert_eq!(p.mc_placement().attach_nodes(&mesh8()), nodes);
        assert_eq!(p.mapping().mc_nodes(), nodes);
    }

    #[test]
    fn set_custom_equals_custom_and_keeps_the_placement_on_an_error() {
        let nodes = vec![NodeId(18), NodeId(21), NodeId(42), NodeId(45)];
        let quads = vec![vec![McId(0)], vec![McId(1)], vec![McId(2)], vec![McId(3)]];
        let pairs: Vec<Vec<McId>> = (0..8).map(|c| vec![McId(c % 4), McId(3 - c % 4)]).collect();
        let mut kept = Placement::nearest(mesh8(), &McPlacement::Corners);
        for (cw, ch, assignments) in [(4, 4, &quads), (2, 4, &pairs), (4, 4, &quads)] {
            let want = Placement::custom(mesh8(), nodes.clone(), cw, ch, assignments.clone());
            kept.set_custom(mesh8(), &nodes, cw, ch, assignments)
                .unwrap();
            assert_eq!(Ok(&kept), want.as_ref());
        }
        let before = kept.clone();
        let twice = [NodeId(0), NodeId(0), NodeId(7), NodeId(56)];
        assert_eq!(
            kept.set_custom(mesh8(), &twice, 4, 4, &quads),
            Err(MappingError::DuplicateMcNode(NodeId(0)))
        );
        assert_eq!(
            kept.set_custom(mesh8(), &nodes, 4, 4, &pairs),
            Err(MappingError::WrongClusterCount {
                got: 8,
                expected: 4
            })
        );
        assert_eq!(kept, before);
    }

    #[test]
    fn custom_rejects_duplicate_attach_node() {
        let err = Placement::custom(
            mesh8(),
            vec![NodeId(0), NodeId(0), NodeId(7), NodeId(56)],
            4,
            4,
            vec![vec![McId(0)], vec![McId(1)], vec![McId(2)], vec![McId(3)]],
        )
        .unwrap_err();
        assert_eq!(err, MappingError::DuplicateMcNode(NodeId(0)));
    }

    #[test]
    fn custom_rejects_out_of_mesh_node() {
        let err = Placement::custom(
            mesh8(),
            vec![NodeId(0), NodeId(64)],
            4,
            8,
            vec![vec![McId(0)], vec![McId(1)]],
        )
        .unwrap_err();
        assert_eq!(err, MappingError::UnknownMc(McId(1)));
    }

    #[test]
    fn custom_propagates_mapping_errors() {
        let err = Placement::custom(
            mesh8(),
            vec![NodeId(0), NodeId(7)],
            3,
            8,
            vec![vec![McId(0)], vec![McId(1)]],
        )
        .unwrap_err();
        assert_eq!(err, MappingError::UnevenTiling { axis: 'x' });
    }

    #[test]
    fn canon_is_stable_and_discriminating() {
        let a = Placement::nearest(mesh8(), &McPlacement::Corners);
        assert_eq!(a.canon(), "mcs=0+7+56+63;tile=4x4;assign=0|1|2|3");
        let b = Placement::halves(mesh8(), &McPlacement::Corners);
        assert_eq!(b.canon(), "mcs=0+7+56+63;tile=4x8;assign=0+2|1+3");
        assert_ne!(a.canon(), b.canon());
    }

    #[test]
    fn shared_mcs_across_clusters_are_legal() {
        // Validity (§4) requires equal per-cluster MC counts, not that
        // every MC is used exactly once — search moves rely on this.
        let p = Placement::custom(
            mesh8(),
            vec![NodeId(0), NodeId(7), NodeId(56), NodeId(63)],
            4,
            4,
            vec![vec![McId(0)], vec![McId(0)], vec![McId(3)], vec![McId(3)]],
        )
        .unwrap();
        assert_eq!(p.mapping().num_clusters(), 4);
    }
}
