//! Whole programs: arrays, index tables, and loop nests.

use crate::nest::{ArrayId, LoopNest, TableId};
use std::fmt;

/// Declaration of an `n`-dimensional array.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArrayDecl {
    name: String,
    dims: Vec<i64>,
    elem_size: u32,
}

impl ArrayDecl {
    /// Declares an array.
    ///
    /// `dims` are sizes from slowest- to fastest-varying dimension
    /// (row-major, as assumed throughout the paper); `elem_size` is in
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, any dimension is non-positive, or
    /// `elem_size` is zero.
    pub fn new(name: impl Into<String>, dims: Vec<i64>, elem_size: u32) -> Self {
        assert!(!dims.is_empty(), "array must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "array dimensions must be positive"
        );
        assert!(elem_size > 0, "element size must be positive");
        Self {
            name: name.into(),
            dims,
            elem_size,
        }
    }

    /// The array's name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimension sizes, slowest-varying first.
    pub fn dims(&self) -> &[i64] {
        &self.dims
    }

    /// Number of dimensions `n`.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Element size in bytes.
    pub fn elem_size(&self) -> u32 {
        self.elem_size
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> i64 {
        self.dims.iter().product()
    }

    /// Total footprint in bytes.
    pub fn size_bytes(&self) -> i64 {
        self.num_elements() * self.elem_size as i64
    }
}

impl fmt::Display for ArrayDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for d in &self.dims {
            write!(f, "[{d}]")?;
        }
        write!(f, " ({}B elems)", self.elem_size)
    }
}

/// A data-parallel affine program: the unit the layout pass optimizes.
///
/// # Examples
///
/// ```
/// use hoploc_affine::{AffineAccess, ArrayDecl, ArrayRef, Loop, LoopNest, Program, Statement};
///
/// let mut p = Program::new("example");
/// let z = p.add_array(ArrayDecl::new("Z", vec![64, 64], 8));
/// p.add_nest(LoopNest::new(
///     vec![Loop::constant(0, 64), Loop::constant(0, 64)],
///     0,
///     vec![Statement::new(vec![ArrayRef::read(z, AffineAccess::identity(2))], 1)],
///     1,
/// ));
/// assert_eq!(p.arrays().len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    name: String,
    arrays: Vec<ArrayDecl>,
    tables: Vec<Vec<i64>>,
    nests: Vec<LoopNest>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            arrays: Vec::new(),
            tables: Vec::new(),
            nests: Vec::new(),
        }
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an array declaration, returning its id.
    pub fn add_array(&mut self, decl: ArrayDecl) -> ArrayId {
        self.arrays.push(decl);
        ArrayId(self.arrays.len() - 1)
    }

    /// Adds an index table (contents of e.g. a CRS column-index array),
    /// returning its id.
    pub fn add_table(&mut self, values: Vec<i64>) -> TableId {
        self.tables.push(values);
        TableId(self.tables.len() - 1)
    }

    /// Adds a loop nest.
    pub fn add_nest(&mut self, nest: LoopNest) {
        self.nests.push(nest);
    }

    /// All array declarations.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Looks up an array declaration.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        self.try_array(id).unwrap_or_else(|| {
            panic!(
                "stale ArrayId({}): program {:?} declares {} arrays",
                id.0,
                self.name,
                self.arrays.len()
            )
        })
    }

    /// Looks up an array declaration, returning `None` for a stale id.
    /// Diagnostics-producing consumers (the `hoploc-check` lints) use this
    /// so a malformed program is reported, not panicked on.
    pub fn try_array(&self, id: ArrayId) -> Option<&ArrayDecl> {
        self.arrays.get(id.0)
    }

    /// Looks up an index table.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn table(&self, id: TableId) -> &[i64] {
        self.try_table(id).unwrap_or_else(|| {
            panic!(
                "stale TableId({}): program {:?} declares {} tables",
                id.0,
                self.name,
                self.tables.len()
            )
        })
    }

    /// Looks up an index table, returning `None` for a stale id.
    pub fn try_table(&self, id: TableId) -> Option<&[i64]> {
        self.tables.get(id.0).map(Vec::as_slice)
    }

    /// All index tables, indexed by [`TableId`].
    pub fn tables(&self) -> &[Vec<i64>] {
        &self.tables
    }

    /// All loop nests.
    pub fn nests(&self) -> &[LoopNest] {
        &self.nests
    }

    /// Total estimated dynamic iterations across all nests.
    pub fn iteration_estimate(&self) -> u64 {
        self.nests.iter().map(|n| n.iteration_estimate()).sum()
    }

    /// Iterates over `(nest, reference)` pairs touching the given array.
    pub fn refs_to(
        &self,
        array: ArrayId,
    ) -> impl Iterator<Item = (&LoopNest, &crate::nest::ArrayRef)> {
        self.nests.iter().flat_map(move |n| {
            n.body()
                .iter()
                .flat_map(|s| s.refs.iter())
                .filter(move |r| r.array == array)
                .map(move |r| (n, r))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AffineAccess;
    use crate::nest::{ArrayRef, Loop, Statement};

    #[test]
    fn footprint_accounts_elem_size() {
        let a = ArrayDecl::new("A", vec![10, 10], 4);
        assert_eq!(a.size_bytes(), 400);
    }

    #[test]
    fn refs_to_filters_by_array() {
        let mut p = Program::new("t");
        let x = p.add_array(ArrayDecl::new("X", vec![16], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![16], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 16)],
            0,
            vec![Statement::new(
                vec![
                    ArrayRef::read(x, AffineAccess::identity(1)),
                    ArrayRef::write(y, AffineAccess::identity(1)),
                    ArrayRef::read(x, AffineAccess::identity(1)),
                ],
                1,
            )],
            1,
        ));
        assert_eq!(p.refs_to(x).count(), 2);
        assert_eq!(p.refs_to(y).count(), 1);
    }

    #[test]
    fn tables_round_trip() {
        let mut p = Program::new("t");
        let t = p.add_table(vec![3, 1, 4, 1, 5]);
        assert_eq!(p.table(t), &[3, 1, 4, 1, 5]);
    }
}
