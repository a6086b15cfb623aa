//! Mesh geometry: nodes, coordinates, hop distances, and XY routes.

use std::fmt;

/// Identifies a node (core + router + local cache slice) in the mesh.
///
/// Node ids are assigned in row-major order: node `y * width + x` sits at
/// coordinates `(x, y)`, matching Figure 1 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a memory controller.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct McId(pub u16);

impl fmt::Display for McId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MC{}", self.0 + 1)
    }
}

/// A two-dimensional mesh of the given width × height.
///
/// # Examples
///
/// ```
/// use hoploc_noc::{Mesh, NodeId};
///
/// let mesh = Mesh::new(8, 8);
/// assert_eq!(mesh.num_nodes(), 64);
/// assert_eq!(mesh.hop_distance(NodeId(0), NodeId(63)), 14);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        Self { width, height }
    }

    /// Mesh width (columns).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Coordinates `(x, y)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the mesh.
    pub fn coords(&self, n: NodeId) -> (u16, u16) {
        assert!((n.0 as usize) < self.num_nodes(), "node outside mesh");
        (n.0 % self.width, n.0 / self.width)
    }

    /// The node at coordinates `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    pub fn node_at(&self, x: u16, y: u16) -> NodeId {
        assert!(
            x < self.width && y < self.height,
            "coordinates outside mesh"
        );
        NodeId(y * self.width + x)
    }

    /// Manhattan (hop) distance between two nodes — the number of links an
    /// XY-routed message traverses.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
    }

    /// [`hop_distance`](Self::hop_distance) from every node to `to`, in
    /// node-id order — a table row for callers that would otherwise divide
    /// out the coordinates of all nodes again for each target.
    pub fn hop_distances_to(&self, to: NodeId) -> impl Iterator<Item = u32> {
        let (tx, ty) = self.coords(to);
        let width = self.width;
        // Ids run row-major (`node_at`): step the coordinates with them.
        let (mut x, mut y) = (0u16, 0u16);
        (0..self.num_nodes()).map(move |_| {
            let d = x.abs_diff(tx) + y.abs_diff(ty);
            x += 1;
            if x == width {
                (x, y) = (0, y + 1);
            }
            d as u32
        })
    }

    /// The XY route from `src` to `dst` as the sequence of nodes visited
    /// (excluding `src`, including `dst`): first all X movement, then all Y
    /// movement, matching the paper's deterministic XY routing.
    pub fn xy_route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut path = Vec::with_capacity(self.hop_distance(src, dst) as usize);
        let mut x = sx;
        while x != dx {
            x = if dx > x { x + 1 } else { x - 1 };
            path.push(self.node_at(x, sy));
        }
        let mut y = sy;
        while y != dy {
            y = if dy > y { y + 1 } else { y - 1 };
            path.push(self.node_at(dx, y));
        }
        path
    }

    /// The YX route from `src` to `dst`: all Y movement first, then X —
    /// the mirror of [`Mesh::xy_route`].
    pub fn yx_route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut path = Vec::with_capacity(self.hop_distance(src, dst) as usize);
        let mut y = sy;
        while y != dy {
            y = if dy > y { y + 1 } else { y - 1 };
            path.push(self.node_at(sx, y));
        }
        let mut x = sx;
        while x != dx {
            x = if dx > x { x + 1 } else { x - 1 };
            path.push(self.node_at(x, dy));
        }
        path
    }

    /// Iterates over all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u16).map(NodeId)
    }
}

/// Where the memory controllers attach to the mesh.
///
/// The paper's default (P1, Figure 8a) attaches 4 MCs at the corners;
/// Figure 26 explores two alternatives (P2, P3), and Figure 27 increases
/// the MC count to 8 and 16.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum McPlacement {
    /// Four MCs at the mesh corners (the paper's P1 / default).
    Corners,
    /// Four MCs at the midpoints of the four mesh edges (P2 — lower average
    /// distance-to-controller, per §6.2 "placement P2 generates slightly
    /// better results").
    EdgeMidpoints,
    /// Four MCs placed along the main diagonal (P3).
    Diagonal,
    /// Eight MCs: the four corners plus the four edge midpoints
    /// (Figure 27a).
    Eight,
    /// Sixteen MCs spread around the perimeter (Figure 27b).
    Sixteen,
    /// Arbitrary user-chosen attachment nodes.
    Custom(Vec<NodeId>),
}

impl McPlacement {
    /// Resolves the placement to concrete attachment nodes on a mesh.
    ///
    /// # Panics
    ///
    /// Panics if the mesh is too small for the placement (all built-in
    /// placements need at least a 4×4 mesh) or a custom node is outside the
    /// mesh.
    pub fn attach_nodes(&self, mesh: &Mesh) -> Vec<NodeId> {
        let w = mesh.width();
        let h = mesh.height();
        let mx = w / 2;
        let my = h / 2;
        match self {
            McPlacement::Corners => vec![
                mesh.node_at(0, 0),
                mesh.node_at(w - 1, 0),
                mesh.node_at(0, h - 1),
                mesh.node_at(w - 1, h - 1),
            ],
            McPlacement::EdgeMidpoints => vec![
                mesh.node_at(mx, 0),
                mesh.node_at(0, my),
                mesh.node_at(w - 1, my),
                mesh.node_at(mx, h - 1),
            ],
            McPlacement::Diagonal => {
                assert!(w >= 4 && h >= 4, "diagonal placement needs a 4x4 mesh");
                (0..4)
                    .map(|k| {
                        let x = (k * (w - 1) as usize / 3) as u16;
                        let y = (k * (h - 1) as usize / 3) as u16;
                        mesh.node_at(x, y)
                    })
                    .collect()
            }
            McPlacement::Eight => {
                let mut v = McPlacement::Corners.attach_nodes(mesh);
                v.extend(McPlacement::EdgeMidpoints.attach_nodes(mesh));
                v
            }
            McPlacement::Sixteen => {
                assert!(w >= 8 && h >= 8, "sixteen-MC placement needs an 8x8 mesh");
                let q1 = w / 4;
                let q3 = 3 * w / 4;
                let r1 = h / 4;
                let r3 = 3 * h / 4;
                let mut v = McPlacement::Eight.attach_nodes(mesh);
                v.extend([
                    mesh.node_at(q1, 0),
                    mesh.node_at(q3, 0),
                    mesh.node_at(0, r1),
                    mesh.node_at(0, r3),
                    mesh.node_at(w - 1, r1),
                    mesh.node_at(w - 1, r3),
                    mesh.node_at(q1, h - 1),
                    mesh.node_at(q3, h - 1),
                ]);
                v
            }
            McPlacement::Custom(nodes) => {
                for n in nodes {
                    assert!(
                        (n.0 as usize) < mesh.num_nodes(),
                        "custom MC node outside mesh"
                    );
                }
                nodes.clone()
            }
        }
    }

    /// Number of memory controllers this placement creates.
    pub fn mc_count(&self) -> usize {
        match self {
            McPlacement::Corners | McPlacement::EdgeMidpoints | McPlacement::Diagonal => 4,
            McPlacement::Eight => 8,
            McPlacement::Sixteen => 16,
            McPlacement::Custom(nodes) => nodes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_distance_rows_equal_hop_distance() {
        for m in [Mesh::new(8, 8), Mesh::new(8, 4), Mesh::new(1, 5)] {
            for to in m.nodes() {
                let row: Vec<u32> = m.hop_distances_to(to).collect();
                let want: Vec<u32> = m.nodes().map(|n| m.hop_distance(n, to)).collect();
                assert_eq!(row, want, "{m:?} to {to:?}");
            }
        }
    }

    #[test]
    fn coords_round_trip() {
        let m = Mesh::new(8, 8);
        for n in m.nodes() {
            let (x, y) = m.coords(n);
            assert_eq!(m.node_at(x, y), n);
        }
    }

    #[test]
    fn hop_distance_is_manhattan() {
        let m = Mesh::new(8, 8);
        assert_eq!(m.hop_distance(NodeId(0), NodeId(0)), 0);
        assert_eq!(m.hop_distance(m.node_at(0, 0), m.node_at(7, 7)), 14);
        assert_eq!(m.hop_distance(m.node_at(2, 3), m.node_at(5, 1)), 5);
    }

    #[test]
    fn xy_route_length_matches_distance() {
        let m = Mesh::new(8, 8);
        let src = m.node_at(1, 2);
        let dst = m.node_at(6, 5);
        let route = m.xy_route(src, dst);
        assert_eq!(route.len() as u32, m.hop_distance(src, dst));
        assert_eq!(*route.last().unwrap(), dst);
    }

    #[test]
    fn xy_route_goes_x_first() {
        let m = Mesh::new(4, 4);
        let route = m.xy_route(m.node_at(0, 0), m.node_at(2, 2));
        assert_eq!(
            route,
            vec![
                m.node_at(1, 0),
                m.node_at(2, 0),
                m.node_at(2, 1),
                m.node_at(2, 2)
            ]
        );
    }

    #[test]
    fn yx_route_mirrors_xy() {
        let m = Mesh::new(4, 4);
        let src = m.node_at(0, 0);
        let dst = m.node_at(2, 2);
        let yx = m.yx_route(src, dst);
        assert_eq!(
            yx,
            vec![
                m.node_at(0, 1),
                m.node_at(0, 2),
                m.node_at(1, 2),
                m.node_at(2, 2)
            ]
        );
        assert_eq!(yx.len(), m.xy_route(src, dst).len());
    }

    #[test]
    fn xy_route_to_self_is_empty() {
        let m = Mesh::new(4, 4);
        assert!(m.xy_route(NodeId(5), NodeId(5)).is_empty());
    }

    #[test]
    fn corner_placement_is_p1() {
        let m = Mesh::new(8, 8);
        let mcs = McPlacement::Corners.attach_nodes(&m);
        assert_eq!(mcs, vec![NodeId(0), NodeId(7), NodeId(56), NodeId(63)]);
    }

    #[test]
    fn placements_have_declared_counts() {
        let m = Mesh::new(8, 8);
        for p in [
            McPlacement::Corners,
            McPlacement::EdgeMidpoints,
            McPlacement::Diagonal,
            McPlacement::Eight,
            McPlacement::Sixteen,
        ] {
            let nodes = p.attach_nodes(&m);
            assert_eq!(nodes.len(), p.mc_count(), "{p:?}");
            // All attach points distinct.
            let mut sorted = nodes.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), nodes.len(), "duplicate attach nodes in {p:?}");
        }
    }

    #[test]
    fn edge_midpoint_placement_has_lower_average_distance() {
        // The paper observes P2 beats P1 because average distance-to-MC is
        // lower when each node uses its nearest controller.
        let m = Mesh::new(8, 8);
        let avg = |p: &McPlacement| -> f64 {
            let mcs = p.attach_nodes(&m);
            let total: u32 = m
                .nodes()
                .map(|n| mcs.iter().map(|&mc| m.hop_distance(n, mc)).min().unwrap())
                .sum();
            total as f64 / m.num_nodes() as f64
        };
        assert!(avg(&McPlacement::EdgeMidpoints) < avg(&McPlacement::Corners));
    }
}
