//! The design space: candidate points and the neighbor-move generator.
//!
//! A candidate fixes all three axes the optimizer explores — MC attach
//! nodes, the L2-to-MC cluster map, and the layout-plan parameters
//! (interleaving granularity, approximation threshold). Candidates are
//! *legal by construction*: every constructor and every move goes
//! through [`Candidate::placement`], which builds a validated
//! [`Placement`] (the paper's §4 validity constraints plus
//! duplicate-node rejection), and moves that would produce an invalid
//! point return `None` instead of emitting it.

use crate::bnb::balanced_assignment;
use hoploc_layout::{Granularity, PassConfig};
use hoploc_noc::{McId, McPlacement, Mesh, NodeId, Placement};
use hoploc_obs::{Floats, JsonWriter};
use hoploc_ptest::SmallRng;
use std::fmt::Write as _;

/// Approximation thresholds the layout-plan axis ranges over.
pub const APPROX_LEVELS: [f64; 3] = [0.15, 0.30, 0.45];

/// Cluster tilings `(cluster_w, cluster_h, k)` explored on an 8×8 mesh
/// with 4 MCs — every combination that tiles the mesh evenly and
/// balances `n_clusters · k` slots across 4 controllers.
pub const TILINGS: [(u16, u16, usize); 8] = [
    (4, 4, 1),
    (2, 8, 1),
    (8, 2, 1),
    (2, 4, 1),
    (4, 2, 1),
    (4, 8, 2),
    (8, 4, 2),
    (8, 8, 4),
];

/// A candidate's identity as [`Candidate::compact_key`] gives it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CandidateKey {
    /// The key's fields, bit-packed, when they fit in 128 bits — as every
    /// candidate of a four-controller 8×8 search, under any of the
    /// [`TILINGS`], does.
    Packed(u128),
    /// The key itself, for a candidate whose fields do not pack.
    Spelled(String),
}

/// Fixed-width fields packed into 128 bits, low bits first.
#[derive(Default)]
struct Bits {
    word: u128,
    used: u32,
}

impl Bits {
    /// Appends `value` in `width` bits; `None` if it or the word overflows.
    fn push(&mut self, value: usize, width: u32) -> Option<()> {
        if value >> width != 0 || self.used + width > u128::BITS {
            return None;
        }
        self.word |= (value as u128) << self.used;
        self.used += width;
        Some(())
    }
}

/// `approx` in hundredths as [`Candidate::key`] spells it (`{:.2}`, which
/// rounds ties to even), when that spelling is `d.dd`.
fn hundredths(approx: f64) -> Option<usize> {
    /// Room for `d.dd`; a longer spelling fails the write.
    struct Spelling([u8; 4], usize);
    impl std::fmt::Write for Spelling {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            let end = self.1 + s.len();
            let room = self.0.get_mut(self.1..end).ok_or(std::fmt::Error)?;
            room.copy_from_slice(s.as_bytes());
            self.1 = end;
            Ok(())
        }
    }
    let mut spelled = Spelling([0; 4], 0);
    write!(spelled, "{approx:.2}").ok()?;
    match spelled {
        Spelling([d, b'.', t, h], 4) if [d, t, h].iter().all(u8::is_ascii_digit) => Some(
            [d, t, h]
                .iter()
                .fold(0, |v, &c| v * 10 + usize::from(c - b'0')),
        ),
        _ => None,
    }
}

/// One point of the design space.
#[derive(Clone, PartialEq, Debug)]
pub struct Candidate {
    /// MC attach nodes, indexed by [`McId`].
    pub mc_nodes: Vec<NodeId>,
    /// Cluster width in cores.
    pub cluster_w: u16,
    /// Cluster height in cores.
    pub cluster_h: u16,
    /// Per-cluster MC assignments.
    pub assignments: Vec<Vec<McId>>,
    /// Physical interleaving granularity of the layout plan.
    pub granularity: Granularity,
    /// Approximation threshold of the layout pass.
    pub approx: f64,
}

impl Candidate {
    /// The paper's default design point under a given base granularity:
    /// a named placement with its nearest-cluster (M1) mapping.
    pub fn from_named(mesh: &Mesh, placement: &McPlacement, granularity: Granularity) -> Self {
        let p = Placement::nearest(*mesh, placement);
        let mapping = p.mapping();
        let assignments = (0..mapping.num_clusters())
            .map(|c| {
                mapping
                    .cluster_mcs(hoploc_noc::ClusterId(c as u16))
                    .to_vec()
            })
            .collect();
        Self {
            mc_nodes: mapping.mc_nodes().to_vec(),
            cluster_w: mapping.cores_x(),
            cluster_h: mapping.cores_y(),
            assignments,
            granularity,
            // The layout pass's default, as the paper baselines are
            // verified under: the start candidate on the corner placement
            // and the corner baseline are one machine.
            approx: PassConfig::default().approx_threshold,
        }
    }

    /// Builds the validated geometry half. `Err` means the candidate is
    /// illegal — constructors and moves never emit such a point, so
    /// downstream code treats `Err` as a bug.
    pub fn placement(&self, mesh: &Mesh) -> Result<Placement, hoploc_noc::MappingError> {
        Placement::custom(
            *mesh,
            self.mc_nodes.clone(),
            self.cluster_w,
            self.cluster_h,
            self.assignments.clone(),
        )
    }

    /// [`key`](Self::key) without spelling it, for a cache to look up
    /// cheaply: equal exactly when the keys are.
    pub fn compact_key(&self) -> CandidateKey {
        self.packed_key()
            .map_or_else(|| CandidateKey::Spelled(self.key()), CandidateKey::Packed)
    }

    /// The key's fields in key order, each in a fixed width and every
    /// count before what it counts, so that two packings are equal exactly
    /// when the fields are. `None` if a field outgrows its width, the whole
    /// outgrows 128 bits, or there is no cluster or an empty one (no
    /// clusters and one empty cluster spell alike).
    fn packed_key(&self) -> Option<u128> {
        let mut bits = Bits::default();
        bits.push(self.mc_nodes.len(), 3)?;
        for n in &self.mc_nodes {
            bits.push(n.0.into(), 8)?;
        }
        bits.push(self.cluster_w.into(), 8)?;
        bits.push(self.cluster_h.into(), 8)?;
        bits.push(self.assignments.len().checked_sub(1)?, 6)?;
        for a in &self.assignments {
            bits.push(a.len().checked_sub(1)?, 3)?;
            for mc in a {
                bits.push(mc.0.into(), 3)?;
            }
        }
        let granularity = match self.granularity {
            Granularity::CacheLine => 0,
            Granularity::Page => 1,
        };
        bits.push(granularity, 1)?;
        bits.push(hundredths(self.approx)?, 10)?;
        Some(bits.word)
    }

    /// A stable identity key: the placement canon plus the layout-plan
    /// parameters. Byte-equal keys mean identical candidates; the
    /// evaluator dedupes on [`compact_key`](Self::compact_key) and breaks
    /// shortlist ties on this.
    pub fn key(&self) -> String {
        let mut s = String::from("mcs=");
        for (i, n) in self.mc_nodes.iter().enumerate() {
            if i > 0 {
                s.push('+');
            }
            let _ = write!(s, "{}", n.0);
        }
        let _ = write!(s, ";tile={}x{};assign=", self.cluster_w, self.cluster_h);
        self.write_assignments(&mut s);
        let _ = write!(
            s,
            ";gran={};approx={:.2}",
            self.granularity.name(),
            self.approx
        );
        s
    }

    /// The cluster assignments as the key and the JSON spell them: clusters
    /// split by `|`, each cluster's controllers joined by `+`.
    fn write_assignments(&self, s: &mut String) {
        for (c, a) in self.assignments.iter().enumerate() {
            if c > 0 {
                s.push('|');
            }
            for (i, mc) in a.iter().enumerate() {
                if i > 0 {
                    s.push('+');
                }
                let _ = write!(s, "{}", mc.0);
            }
        }
    }

    /// The candidate as a single-line JSON object (stable field order), its
    /// approximation threshold at two decimal places.
    pub fn to_json(&self) -> String {
        let mut assign = String::new();
        self.write_assignments(&mut assign);
        let mut w = JsonWriter::compact().floats(Floats::Fixed(2));
        (w.obj().key("mcs").items(self.mc_nodes.iter().map(|n| n.0)))
            .field("tile", format!("{}x{}", self.cluster_w, self.cluster_h))
            .field("assign", assign)
            .field("granularity", self.granularity.name())
            .field("approx", self.approx)
            .end_obj()
            .take()
    }
}

/// The curated phase-1 space: the paper's 4-MC placements plus the mesh
/// quadrant centres, crossed with every balanced tiling and every
/// layout-plan parameter; assignments come from the exact
/// branch-and-bound, so each point is the distance-optimal balanced
/// mapping of its (placement, tiling) pair.
pub fn curated(mesh: &Mesh, granularities: &[Granularity]) -> Vec<Candidate> {
    let mut placements: Vec<Vec<NodeId>> = vec![
        McPlacement::Corners.attach_nodes(mesh),
        McPlacement::EdgeMidpoints.attach_nodes(mesh),
        McPlacement::Diagonal.attach_nodes(mesh),
    ];
    // Quadrant centres: the interior counterpart of the corner placement
    // (for an 8×8 mesh: nodes 18, 21, 42, 45).
    if mesh.width() >= 4 && mesh.height() >= 4 {
        let qx = [mesh.width() / 4, mesh.width() - 1 - mesh.width() / 4];
        let qy = [mesh.height() / 4, mesh.height() - 1 - mesh.height() / 4];
        placements.push(vec![
            mesh.node_at(qx[0], qy[0]),
            mesh.node_at(qx[1], qy[0]),
            mesh.node_at(qx[0], qy[1]),
            mesh.node_at(qx[1], qy[1]),
        ]);
    }
    let mut out = Vec::new();
    for nodes in &placements {
        for &(cw, ch, k) in &TILINGS {
            let Some((assignments, _)) = balanced_assignment(mesh, nodes, cw, ch, k) else {
                continue;
            };
            for &granularity in granularities {
                for &approx in &[0.15, 0.30] {
                    out.push(Candidate {
                        mc_nodes: nodes.clone(),
                        cluster_w: cw,
                        cluster_h: ch,
                        assignments: assignments.clone(),
                        granularity,
                        approx,
                    });
                }
            }
        }
    }
    out
}

/// Proposes one neighbor of `cand`, or `None` if the drawn move would
/// not change the candidate or would produce an illegal point (the
/// caller redraws). Every `Some` is a valid design point.
pub fn propose(rng: &mut SmallRng, cand: &Candidate, mesh: &Mesh) -> Option<Candidate> {
    propose_placed(rng, cand, mesh).map(|(next, _)| next)
}

/// [`propose`], returning beside the neighbor the validated placement its
/// legality check built, so that the chain builds it once.
pub(crate) fn propose_placed(
    rng: &mut SmallRng,
    cand: &Candidate,
    mesh: &Mesh,
) -> Option<(Candidate, Placement)> {
    let mut next = cand.clone();
    match rng.usize_in(0..6) {
        // Relocate one MC to a random free node.
        0 => {
            let i = rng.usize_in(0..next.mc_nodes.len());
            let node = NodeId(rng.u16_in(0..mesh.num_nodes() as u16));
            if next.mc_nodes.contains(&node) {
                return None;
            }
            next.mc_nodes[i] = node;
        }
        // Change the cluster tiling, re-deriving the distance-optimal
        // balanced assignment for the new grid.
        1 => {
            let (cw, ch, k) = TILINGS[rng.usize_in(0..TILINGS.len())];
            let (assignments, _) = balanced_assignment(mesh, &next.mc_nodes, cw, ch, k)?;
            if cw == next.cluster_w && ch == next.cluster_h && assignments == next.assignments {
                return None;
            }
            next.cluster_w = cw;
            next.cluster_h = ch;
            next.assignments = assignments;
        }
        // Reassign one cluster to a different same-size MC subset
        // (validity does not require each MC be used exactly once).
        2 => {
            let c = rng.usize_in(0..next.assignments.len());
            let k = next.assignments[c].len();
            let n_mcs = next.mc_nodes.len();
            if k >= n_mcs {
                return None;
            }
            let mut subset: Vec<McId> = Vec::with_capacity(k);
            let mut remaining: Vec<u16> = (0..n_mcs as u16).collect();
            for _ in 0..k {
                let i = rng.usize_in(0..remaining.len());
                subset.push(McId(remaining.remove(i)));
            }
            subset.sort();
            if subset == next.assignments[c] {
                return None;
            }
            next.assignments[c] = subset;
        }
        // Swap two clusters' MC subsets.
        3 => {
            if next.assignments.len() < 2 {
                return None;
            }
            let a = rng.usize_in(0..next.assignments.len());
            let b = rng.usize_in(0..next.assignments.len());
            if a == b || next.assignments[a] == next.assignments[b] {
                return None;
            }
            next.assignments.swap(a, b);
        }
        // Flip the interleaving granularity.
        4 => {
            next.granularity = match next.granularity {
                Granularity::CacheLine => Granularity::Page,
                Granularity::Page => Granularity::CacheLine,
            };
        }
        // Step the approximation threshold.
        _ => {
            let level = APPROX_LEVELS[rng.usize_in(0..APPROX_LEVELS.len())];
            if (level - next.approx).abs() < 1e-9 {
                return None;
            }
            next.approx = level;
        }
    }
    // Defense in depth: a move that slipped an invalid point through
    // construction is dropped here rather than emitted.
    let placement = next.placement(mesh).ok()?;
    Some((next, placement))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curated_points_are_all_legal() {
        let mesh = Mesh::new(8, 8);
        let pts = curated(&mesh, &[Granularity::CacheLine, Granularity::Page]);
        assert!(pts.len() >= 64, "curated space unexpectedly small");
        for c in &pts {
            c.placement(&mesh).expect("curated candidate must be legal");
        }
    }

    #[test]
    fn curated_keys_are_distinct() {
        let mesh = Mesh::new(8, 8);
        let pts = curated(&mesh, &[Granularity::CacheLine]);
        let mut keys: Vec<String> = pts.iter().map(|c| c.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), pts.len());
    }

    #[test]
    fn proposals_are_always_legal() {
        let mesh = Mesh::new(8, 8);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut cand = Candidate::from_named(&mesh, &McPlacement::Corners, Granularity::CacheLine);
        let mut accepted = 0;
        for _ in 0..2000 {
            if let Some(next) = propose(&mut rng, &cand, &mesh) {
                next.placement(&mesh)
                    .expect("proposed candidate must be legal");
                assert_ne!(next.key(), cand.key(), "move must change the candidate");
                cand = next;
                accepted += 1;
            }
        }
        assert!(accepted > 500, "move generator rejects too much");
    }

    #[test]
    fn from_named_matches_nearest_cluster() {
        let mesh = Mesh::new(8, 8);
        let c = Candidate::from_named(&mesh, &McPlacement::Corners, Granularity::CacheLine);
        let p = c.placement(&mesh).unwrap();
        let m1 = Placement::nearest(mesh, &McPlacement::Corners);
        assert_eq!(p.mapping(), m1.mapping());
    }
}
