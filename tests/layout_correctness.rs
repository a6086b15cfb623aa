//! Cross-crate layout correctness: for every application and both cache
//! organizations, the customized layouts must be bijective renamings whose
//! interleave units land on the owner's controllers, and a renaming never
//! changes a dependence.

use hoploc::affine::{test_dependence, AccessFn, AffineAccess, ArrayId, Dependence, LoopNest};
use hoploc::check::{check_races, CheckConfig, Code};
use hoploc::layout::{determine_data_to_core, optimize_program, Granularity, L2Mode, PassConfig};
use hoploc::noc::{L2ToMcMapping, McId, McPlacement, Mesh};
use hoploc::sim::AddressSpace;
use hoploc::workloads::{all_apps, Scale};
use std::collections::HashSet;

fn mapping() -> L2ToMcMapping {
    L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners)
}

/// Walks every element of every optimized array of an app, checking
/// injectivity and bounds.
fn check_bijection(cfg: PassConfig) {
    for app in all_apps(Scale::Test) {
        let layout = optimize_program(&app.program, &mapping(), cfg);
        for (i, decl) in app.program.arrays().iter().enumerate() {
            let l = layout.layout(ArrayId(i));
            let dims = decl.dims();
            let mut seen = HashSet::new();
            let mut walk = vec![0i64; dims.len()];
            'outer: loop {
                let off = l.place(&walk);
                assert!(
                    off >= 0 && off < l.span_elements(),
                    "{}::{}: offset {off} out of span {}",
                    app.name(),
                    decl.name(),
                    l.span_elements()
                );
                assert!(
                    seen.insert(off),
                    "{}::{}: collision at {walk:?}",
                    app.name(),
                    decl.name()
                );
                // Advance the odometer; stop once it wraps around.
                let mut k = dims.len();
                loop {
                    if k == 0 {
                        break 'outer;
                    }
                    k -= 1;
                    walk[k] += 1;
                    if walk[k] < dims[k] {
                        break;
                    }
                    walk[k] = 0;
                }
            }
        }
    }
}

#[test]
fn private_layouts_are_bijective_for_all_apps() {
    check_bijection(PassConfig::default());
}

#[test]
fn shared_layouts_are_bijective_for_all_apps() {
    check_bijection(PassConfig {
        l2_mode: L2Mode::Shared,
        ..PassConfig::default()
    });
}

#[test]
fn page_layouts_are_bijective_for_all_apps() {
    check_bijection(PassConfig {
        granularity: Granularity::Page,
        ..PassConfig::default()
    });
}

#[test]
fn optimized_units_respect_cluster_mcs() {
    let mapping = mapping();
    for app in all_apps(Scale::Test) {
        let layout = optimize_program(&app.program, &mapping, PassConfig::default());
        for (i, decl) in app.program.arrays().iter().enumerate() {
            let l = layout.layout(ArrayId(i));
            if l.is_original() {
                continue;
            }
            let pe = l.unit_elems();
            let dims = decl.dims();
            // Sample a diagonal-ish sweep.
            let samples = 64.min(dims[0]);
            for s in 0..samples {
                let dvec: Vec<i64> = dims
                    .iter()
                    .map(|&d| (s * d / samples).clamp(0, d - 1))
                    .collect();
                let owner = l.owner_thread(&dvec).expect("localized");
                let node = layout.binding().node_of(owner);
                let unit = l.place(&dvec) / pe;
                let mc = McId((unit % mapping.num_mcs() as i64) as u16);
                assert!(
                    mapping.mcs_of_node(node).contains(&mc),
                    "{}::{}: element {dvec:?} on {mc} not serving {node}",
                    app.name(),
                    decl.name()
                );
            }
        }
    }
}

#[test]
fn desired_page_map_matches_os_semantics() {
    // Under page interleaving, the desired map the layout exports must
    // agree with what the placement function computes.
    let mapping = mapping();
    let cfg = PassConfig {
        granularity: Granularity::Page,
        ..PassConfig::default()
    };
    for app in all_apps(Scale::Test).into_iter().take(5) {
        let layout = optimize_program(&app.program, &mapping, cfg);
        let space = AddressSpace::build(&app.program, &layout, 0);
        let desired = space.desired_page_mcs(&app.program, &layout, 4096);
        for (i, decl) in app.program.arrays().iter().enumerate() {
            let l = layout.layout(ArrayId(i));
            if l.is_original() {
                continue;
            }
            let dvec = vec![0i64; decl.rank()];
            let vaddr = space.addr_of(&layout, ArrayId(i), &dvec);
            let vpn = vaddr / 4096;
            let unit = l.place(&dvec) / l.unit_elems();
            assert_eq!(
                desired.get(&vpn).copied(),
                l.desired_unit_mc(unit),
                "{}::{}: OS map disagrees with layout",
                app.name(),
                decl.name()
            );
        }
    }
}

/// The affine references of a nest, with the array each one names.
fn affine_refs(nest: &LoopNest) -> impl Iterator<Item = (ArrayId, &AffineAccess)> {
    let refs = nest.body().iter().flat_map(|s| &s.refs);
    refs.filter_map(|r| match &r.access {
        AccessFn::Affine(a) => Some((r.array, a)),
        AccessFn::Indexed { .. } => None,
    })
}

#[test]
fn layout_transformation_never_changes_dependences() {
    // §1: "data transformations are essentially a kind of renaming and not
    // affected by dependences" — check over every app's nests: the U
    // chosen by the pass leaves every characterizable dependence distance
    // intact.
    for app in all_apps(Scale::Test) {
        for (i, _) in app.program.arrays().iter().enumerate() {
            let Ok(d2c) = determine_data_to_core(&app.program, ArrayId(i)) else {
                continue;
            };
            for nest in app.program.nests() {
                for (a, aa) in affine_refs(nest) {
                    for (b, bb) in affine_refs(nest) {
                        if a != ArrayId(i) || b != ArrayId(i) {
                            continue;
                        }
                        let before = test_dependence(aa, bb);
                        let after =
                            test_dependence(&aa.transformed(&d2c.u), &bb.transformed(&d2c.u));
                        if let (Dependence::Uniform(x), Dependence::Uniform(y)) = (&before, &after)
                        {
                            assert_eq!(x, y, "{}: U changed a distance vector", app.name());
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dependence_census_over_the_suite() {
    // Sanity over the modelled applications: every program yields the race
    // detector's verdict (not a crash), and SSOR-style nests carry
    // dependences — matching the kernels they model.
    let mut carried = Vec::new();
    for app in all_apps(Scale::Test) {
        for d in check_races(&app.program, &CheckConfig::default()) {
            if d.code == Code::HaloCarriedDependence {
                carried.push(format!("{}#{}", d.app, d.nest.expect("a nest finding")));
            }
        }
    }
    // Gauss-Seidel-style updates in place: mgrid's relaxation, applu's
    // sweeps, the stencils that write their own input. Their presence is
    // structural, not a bug; their absence would mean the models lost
    // their in-place character.
    assert!(
        carried.iter().any(|s| s == "applu#1"),
        "applu's SSOR nest must carry a halo dependence (HL0202), got {carried:?}"
    );
}
