//! Virtual address-space construction from a program layout.
//!
//! Arrays are placed sequentially in the virtual address space, each base
//! aligned per the layout's padding requirement (§5.3: "we also employ
//! padding to keep the base addresses of arrays aligned to the desired
//! memory controller"). The resulting [`AddressSpace`] converts
//! `(array, data vector)` pairs into virtual byte addresses and exports the
//! desired-MC-per-page map consumed by the OS-assisted page allocator.

use hoploc_affine::{ArrayId, Program};
use hoploc_layout::ProgramLayout;
use hoploc_noc::McId;
use std::collections::HashMap;

/// The virtual placement of a program's arrays under a chosen layout.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    bases: Vec<u64>,
    elem_sizes: Vec<u64>,
    total_bytes: u64,
}

impl AddressSpace {
    /// Lays out every array of the program, starting at `origin`.
    ///
    /// Distinct applications in a multiprogrammed run pass distinct origins
    /// so their address spaces do not collide.
    pub fn build(program: &Program, layout: &ProgramLayout, origin: u64) -> Self {
        let mut bases = Vec::with_capacity(program.arrays().len());
        let mut elem_sizes = Vec::with_capacity(program.arrays().len());
        let mut cursor = origin;
        for (i, decl) in program.arrays().iter().enumerate() {
            let l = layout.layout(ArrayId(i));
            let align = l.base_alignment_bytes().max(decl.elem_size() as i64) as u64;
            cursor = cursor.div_ceil(align) * align;
            bases.push(cursor);
            elem_sizes.push(decl.elem_size() as u64);
            cursor += l.span_bytes() as u64;
        }
        Self {
            bases,
            elem_sizes,
            total_bytes: cursor - origin,
        }
    }

    /// Virtual byte address of a data element under the layout.
    ///
    /// # Panics
    ///
    /// Panics if the array id is stale.
    pub fn addr_of(&self, layout: &ProgramLayout, array: ArrayId, dvec: &[i64]) -> u64 {
        self.addr_at(array, layout.layout(array).place(dvec))
    }

    /// Virtual byte address of the element at `offset` (an
    /// `ArrayLayout::place` result, or a `Run` step) within an array's
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the array id is stale.
    pub fn addr_at(&self, array: ArrayId, offset: i64) -> u64 {
        self.bases[array.0] + offset as u64 * self.elem_sizes[array.0]
    }

    /// Base address of an array.
    pub fn base(&self, array: ArrayId) -> u64 {
        self.bases[array.0]
    }

    /// Total footprint in bytes (including padding and alignment).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Builds the desired-MC map for page-interleaved runs: virtual page
    /// number → the controller the layout wants that page on. Pages of
    /// unoptimized arrays have no preference and are absent.
    pub fn desired_page_mcs(
        &self,
        program: &Program,
        layout: &ProgramLayout,
        page_bytes: u64,
    ) -> HashMap<u64, McId> {
        let mut map = HashMap::new();
        for (i, _) in program.arrays().iter().enumerate() {
            let array = ArrayId(i);
            let l = layout.layout(array);
            let unit_elems = l.unit_elems();
            if unit_elems == 0 {
                continue;
            }
            let unit_bytes = unit_elems as u64 * self.elem_sizes[i];
            if unit_bytes != page_bytes {
                // The layout was built at a different granularity; derive
                // page preferences only when units are whole pages.
                continue;
            }
            let base = self.bases[i];
            debug_assert_eq!(base % page_bytes, 0, "page-unit layouts are page-aligned");
            let units = l.span_bytes() as u64 / unit_bytes;
            for u in 0..units {
                if let Some(mc) = l.desired_unit_mc(u as i64) {
                    map.insert((base + u * unit_bytes) / page_bytes, mc);
                }
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_affine::{AffineAccess, ArrayDecl, ArrayRef, Loop, LoopNest, Statement};
    use hoploc_layout::{baseline_layout, optimize_program, Granularity, PassConfig};
    use hoploc_noc::{L2ToMcMapping, McPlacement, Mesh};

    fn program() -> Program {
        let mut p = Program::new("t");
        let x = p.add_array(ArrayDecl::new("X", vec![256, 64], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![256, 64], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 256), Loop::constant(0, 64)],
            0,
            vec![Statement::new(
                vec![
                    ArrayRef::read(x, AffineAccess::identity(2)),
                    ArrayRef::write(y, AffineAccess::identity(2)),
                ],
                1,
            )],
            1,
        ));
        p
    }

    fn mapping() -> L2ToMcMapping {
        L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners)
    }

    #[test]
    fn arrays_do_not_overlap() {
        let p = program();
        let layout = optimize_program(&p, &mapping(), PassConfig::default());
        let space = AddressSpace::build(&p, &layout, 0);
        let x_end = space.base(ArrayId(0)) + layout.layout(ArrayId(0)).span_bytes() as u64;
        assert!(space.base(ArrayId(1)) >= x_end);
    }

    #[test]
    fn bases_are_supergroup_aligned() {
        let p = program();
        let layout = optimize_program(&p, &mapping(), PassConfig::default());
        let space = AddressSpace::build(&p, &layout, 12345);
        for i in 0..2 {
            let align = layout.layout(ArrayId(i)).base_alignment_bytes() as u64;
            assert_eq!(space.base(ArrayId(i)) % align, 0);
        }
    }

    #[test]
    fn addr_of_distinct_elements_distinct() {
        let p = program();
        let layout = baseline_layout(&p, 64);
        let space = AddressSpace::build(&p, &layout, 0);
        let a = space.addr_of(&layout, ArrayId(0), &[0, 0]);
        let b = space.addr_of(&layout, ArrayId(0), &[0, 1]);
        assert_eq!(b - a, 8);
    }

    #[test]
    fn page_granularity_exports_desired_mcs() {
        let p = program();
        let cfg = PassConfig {
            granularity: Granularity::Page,
            ..PassConfig::default()
        };
        let layout = optimize_program(&p, &mapping(), cfg);
        let space = AddressSpace::build(&p, &layout, 0);
        let map = space.desired_page_mcs(&p, &layout, 4096);
        assert!(!map.is_empty());
        // Every optimized page's desired MC is one of the four.
        for mc in map.values() {
            assert!(mc.0 < 4);
        }
    }

    #[test]
    fn cacheline_granularity_exports_no_page_map() {
        let p = program();
        let layout = optimize_program(&p, &mapping(), PassConfig::default());
        let space = AddressSpace::build(&p, &layout, 0);
        assert!(space.desired_page_mcs(&p, &layout, 4096).is_empty());
    }
}
