//! Exact branch-and-bound for the *balanced assignment* subproblem:
//! given fixed MC attach nodes and a fixed cluster tiling, assign each
//! cluster `k` MCs so that every MC serves the same number of clusters,
//! minimizing total core-to-assigned-MC hop distance (the compiler's
//! distance-to-MC metric, §4).
//!
//! Without the balance constraint the optimum is trivially separable
//! (each cluster independently takes its nearest `k`-subset); *with* it
//! the per-cluster choices compete for MC capacity, which is what makes
//! the search interesting — and a classic branch-and-bound with an
//! admissible remaining-cost bound solves the small instances here
//! exactly. The bound is the sum of each remaining cluster's
//! *unconstrained* minimum subset cost, which never exceeds any feasible
//! completion, so pruning cannot cut off the optimum (the property suite
//! cross-checks this against unpruned brute force).
//!
//! The search itself allocates nothing: subsets are controller bit masks,
//! the controllers at capacity are one mask, and the path and the best
//! leaf are two arrays sized once per instance.

use hoploc_noc::{McId, Mesh, NodeId};

/// The most controllers an instance may have: one bit each in a `u64`.
const MAX_MCS: usize = 64;

/// The controllers in `mask`, ascending.
fn members(mask: u64) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let m = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            m
        })
    })
}

/// All `k`-element subsets of `0..n` as bit masks, in lexicographic order
/// of their member lists.
fn k_subsets(n: usize, k: usize) -> Vec<u64> {
    fn rec(start: usize, n: usize, k: usize, mask: u64, out: &mut Vec<u64>) {
        if k == 0 {
            out.push(mask);
            return;
        }
        for i in start..n {
            rec(i + 1, n, k - 1, mask | 1 << i, out);
        }
    }
    let mut out = Vec::new();
    rec(0, n, k, 0, &mut out);
    out
}

/// Per-cluster total hop distance from every node of the cluster to one
/// MC attach node, cluster-major (`cluster * n_mcs + mc`). A hop distance
/// is a sum over the two axes, so a cluster's total is each axis's sum of
/// distances times the cluster's extent along the other.
fn cluster_mc_costs(mesh: &Mesh, mc_nodes: &[NodeId], cw: u16, ch: u16) -> Vec<u64> {
    let axis = |lo: u16, len: u16, to: u16| -> u64 {
        (lo..lo + len).map(|v| u64::from(v.abs_diff(to))).sum()
    };
    let (gx, gy) = (mesh.width() / cw, mesh.height() / ch);
    let mut costs = Vec::with_capacity(usize::from(gx * gy) * mc_nodes.len());
    for cy in 0..gy {
        for cx in 0..gx {
            for &mc in mc_nodes {
                let (x, y) = mesh.coords(mc);
                costs.push(
                    u64::from(ch) * axis(cx * cw, cw, x) + u64::from(cw) * axis(cy * ch, ch, y),
                );
            }
        }
    }
    costs
}

struct Solver {
    /// The `k`-subsets, as controller masks.
    subsets: Vec<u64>,
    /// Cluster-major cost of every (cluster, subset) pair.
    subset_costs: Vec<u64>,
    /// `suffix_min[c]` = Σ_{c' >= c} of cluster `c'`'s cheapest subset.
    suffix_min: Vec<u64>,
    /// Clusters each controller serves in a balanced map.
    cap: u32,
    prune: bool,
    best_total: u64,
    /// Subset index per cluster: on the current path, and at the best leaf.
    path: Vec<usize>,
    best: Vec<usize>,
}

impl Solver {
    /// Extends the path at cluster `c`; `usage` counts each controller's
    /// clusters on the path and `full` masks those at capacity.
    fn solve(&mut self, c: usize, usage: &mut [u32; MAX_MCS], full: u64, total: u64) {
        if c == self.path.len() {
            if total < self.best_total {
                self.best_total = total;
                self.best.copy_from_slice(&self.path);
            }
            return;
        }
        if self.prune && total + self.suffix_min[c] >= self.best_total {
            return;
        }
        let n_subsets = self.subsets.len();
        for si in 0..n_subsets {
            let subset = self.subsets[si];
            if subset & full != 0 {
                continue;
            }
            let mut now_full = full;
            for m in members(subset) {
                usage[m] += 1;
                if usage[m] == self.cap {
                    now_full |= 1 << m;
                }
            }
            self.path[c] = si;
            let cost = self.subset_costs[c * n_subsets + si];
            self.solve(c + 1, usage, now_full, total + cost);
            for m in members(subset) {
                usage[m] -= 1;
            }
        }
    }
}

fn run(
    mesh: &Mesh,
    mc_nodes: &[NodeId],
    cw: u16,
    ch: u16,
    k: usize,
    prune: bool,
) -> Option<(Vec<Vec<McId>>, u64)> {
    let n_mcs = mc_nodes.len();
    if k == 0 || k > n_mcs || cw == 0 || ch == 0 {
        return None;
    }
    if !mesh.width().is_multiple_of(cw) || !mesh.height().is_multiple_of(ch) {
        return None;
    }
    assert!(
        n_mcs <= MAX_MCS,
        "balanced assignment takes at most {MAX_MCS} controllers, not {n_mcs}"
    );
    let n_clusters = (mesh.width() / cw) as usize * (mesh.height() / ch) as usize;
    // Balance: every MC serves exactly slots / n_mcs clusters.
    if !(n_clusters * k).is_multiple_of(n_mcs) {
        return None;
    }
    let costs = cluster_mc_costs(mesh, mc_nodes, cw, ch);
    let subsets = k_subsets(n_mcs, k);
    let subset_costs: Vec<u64> = (costs.chunks_exact(n_mcs))
        .flat_map(|row| (subsets.iter()).map(|&s| members(s).map(|m| row[m]).sum::<u64>()))
        .collect();
    let mut suffix_min = vec![0u64; n_clusters + 1];
    for (c, row) in subset_costs.chunks_exact(subsets.len()).enumerate().rev() {
        let min = *row.iter().min().expect("subsets are non-empty");
        suffix_min[c] = suffix_min[c + 1] + min;
    }
    let mut solver = Solver {
        subsets,
        subset_costs,
        suffix_min,
        cap: (n_clusters * k / n_mcs) as u32,
        prune,
        best_total: u64::MAX,
        path: vec![0; n_clusters],
        best: vec![0; n_clusters],
    };
    solver.solve(0, &mut [0; MAX_MCS], 0, 0);
    if solver.best_total == u64::MAX {
        return None;
    }
    let assignments = (solver.best.iter())
        .map(|&si| {
            members(solver.subsets[si])
                .map(|m| McId(m as u16))
                .collect()
        })
        .collect();
    Some((assignments, solver.best_total))
}

/// Minimum-distance balanced assignment: each cluster gets `k` MCs, each
/// MC serves `n_clusters·k / n_mcs` clusters, total core-to-MC hop
/// distance is exactly minimized. Returns `None` if the tiling does not
/// divide the mesh or the slot count does not balance across MCs.
pub fn balanced_assignment(
    mesh: &Mesh,
    mc_nodes: &[NodeId],
    cw: u16,
    ch: u16,
    k: usize,
) -> Option<(Vec<Vec<McId>>, u64)> {
    run(mesh, mc_nodes, cw, ch, k, true)
}

/// Unpruned brute force over the same space — the oracle the property
/// suite compares [`balanced_assignment`] against.
pub fn balanced_assignment_brute(
    mesh: &Mesh,
    mc_nodes: &[NodeId],
    cw: u16,
    ch: u16,
    k: usize,
) -> Option<(Vec<Vec<McId>>, u64)> {
    run(mesh, mc_nodes, cw, ch, k, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_noc::McPlacement;

    fn corners(mesh: &Mesh) -> Vec<NodeId> {
        McPlacement::Corners.attach_nodes(mesh)
    }

    #[test]
    fn quadrants_with_corner_mcs_recover_m1() {
        let mesh = Mesh::new(8, 8);
        let (assign, _) = balanced_assignment(&mesh, &corners(&mesh), 4, 4, 1).unwrap();
        // Each quadrant takes its own corner, exactly the paper's M1.
        assert_eq!(
            assign,
            vec![vec![McId(0)], vec![McId(1)], vec![McId(2)], vec![McId(3)]]
        );
    }

    #[test]
    fn halves_with_corner_mcs_recover_m2() {
        let mesh = Mesh::new(8, 8);
        let (assign, _) = balanced_assignment(&mesh, &corners(&mesh), 4, 8, 2).unwrap();
        assert_eq!(assign, vec![vec![McId(0), McId(2)], vec![McId(1), McId(3)]]);
    }

    #[test]
    fn unbalanced_slot_counts_rejected() {
        let mesh = Mesh::new(8, 8);
        // 2 clusters × k=3 = 6 slots over 4 MCs: not balanceable.
        assert!(balanced_assignment(&mesh, &corners(&mesh), 4, 8, 3).is_none());
        // Uneven tiling.
        assert!(balanced_assignment(&mesh, &corners(&mesh), 3, 8, 1).is_none());
    }

    #[test]
    fn pruned_matches_brute_force() {
        let mesh = Mesh::new(8, 8);
        for nodes in [
            corners(&mesh),
            McPlacement::Diagonal.attach_nodes(&mesh),
            vec![NodeId(18), NodeId(21), NodeId(42), NodeId(45)],
        ] {
            for (cw, ch, k) in [(4, 4, 1), (2, 8, 1), (2, 4, 1), (4, 8, 2), (8, 8, 4)] {
                let a = balanced_assignment(&mesh, &nodes, cw, ch, k).unwrap();
                let b = balanced_assignment_brute(&mesh, &nodes, cw, ch, k).unwrap();
                assert_eq!(a.1, b.1, "bound must be admissible for {cw}x{ch} k={k}");
            }
        }
    }
}
