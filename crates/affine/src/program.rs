//! Whole programs: arrays, index tables, and loop nests.

use crate::nest::{ArrayId, LoopNest, TableId};
use std::fmt;
use std::sync::OnceLock;

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

/// A generator of index-table values: what [`Program::declare_table`]
/// stores in place of the values, which are built on the table's first
/// read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableGen {
    /// A near-affine index table: a diagonal band with bounded jitter,
    /// like a reordered-mesh CRS column index. Entry `k` is `k·extent/len`
    /// plus a hashed jitter in `[-jitter, jitter]`, clamped into
    /// `[0, extent)`. Approximates well (§5.4).
    Banded {
        /// Number of entries.
        len: i64,
        /// Entries lie in `[0, extent)`.
        extent: i64,
        /// Largest distance from the band's diagonal.
        jitter: i64,
        /// Selects the jitter pattern.
        seed: i64,
    },
    /// A scrambled index table with no affine structure (fails
    /// approximation): entry `k` is `|(k·2654435761 + seed) mod extent|`.
    Scrambled {
        /// Number of entries.
        len: i64,
        /// Entries lie in `[0, extent)`.
        extent: i64,
        /// Shifts the hash.
        seed: i64,
    },
}

impl TableGen {
    /// Generates the table's values.
    pub fn values(self) -> Vec<i64> {
        match self {
            TableGen::Banded {
                len,
                extent,
                jitter,
                seed,
            } => (0..len)
                .map(|k| {
                    let base = k * extent / len;
                    let j = ((k * 1103515245 + seed * 12345) >> 4) % (2 * jitter + 1) - jitter;
                    (base + j).clamp(0, extent - 1)
                })
                .collect(),
            TableGen::Scrambled { len, extent, seed } => (0..len)
                .map(|k| ((k * 2654435761 + seed) % extent).abs())
                .collect(),
        }
    }
}

/// One index table: its values, or the generator that builds them on the
/// first read. Equality and `Debug` see the declaration, never the built
/// copy.
#[derive(Clone)]
enum Table {
    Literal(Vec<i64>),
    Generated(TableGen, OnceLock<Vec<i64>>),
}

impl Table {
    /// The values, building a generated table on its first read.
    /// Concurrent first readers wait for one build.
    fn values(&self) -> &[i64] {
        match self {
            Table::Literal(values) => values,
            Table::Generated(gen, built) => built.get_or_init(|| gen.values()),
        }
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Table::Literal(a), Table::Literal(b)) => a == b,
            (Table::Generated(a, _), Table::Generated(b, _)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Table {}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Table::Literal(values) => values.fmt(f),
            Table::Generated(gen, _) => gen.fmt(f),
        }
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
    tables: Vec<Table>,
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
        self.tables.push(Table::Literal(values));
        TableId(self.tables.len() - 1)
    }

    /// Declares an index table that `gen` builds on its first read,
    /// returning its id. Until then the table costs its declaration only.
    pub fn declare_table(&mut self, gen: TableGen) -> TableId {
        self.tables.push(Table::Generated(gen, OnceLock::new()));
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

    /// Looks up an index table, building a declared one on its first read:
    /// every read of a program, from any thread, sees one build.
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

    /// Looks up an index table as [`table`](Self::table) does, returning
    /// `None` for a stale id.
    pub fn try_table(&self, id: TableId) -> Option<&[i64]> {
        self.tables.get(id.0).map(Table::values)
    }

    /// Number of index tables; ids run from `TableId(0)` below it.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Whether table `id`'s values are in memory: always for an
    /// [`add_table`](Self::add_table) table, after the first read for a
    /// [declared](Self::declare_table) one. False for a stale id.
    pub fn table_is_built(&self, id: TableId) -> bool {
        match self.tables.get(id.0) {
            Some(Table::Literal(_)) => true,
            Some(Table::Generated(_, built)) => built.get().is_some(),
            None => false,
        }
    }

    /// Reads every index table, building each declared one not yet read.
    pub fn build_tables(&self) {
        for table in &self.tables {
            table.values();
        }
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
        assert!(p.table_is_built(t));
        assert_eq!(format!("{:?}", p.tables), "[[3, 1, 4, 1, 5]]");
    }

    #[test]
    fn banded_tables_stay_in_range() {
        let gen = TableGen::Banded {
            len: 1000,
            extent: 500,
            jitter: 30,
            seed: 1,
        };
        assert!(gen.values().iter().all(|&v| (0..500).contains(&v)));
    }

    #[test]
    fn a_declared_table_is_built_on_its_first_read_and_compared_by_declaration() {
        let gen = TableGen::Scrambled {
            len: 64,
            extent: 40,
            seed: 5,
        };
        let mut p = Program::new("t");
        let t = p.declare_table(gen);
        let q = p.clone();
        assert!(!p.table_is_built(t));
        assert_eq!(p.table(t), gen.values());
        assert!(p.table_is_built(t));
        assert!(!q.table_is_built(t), "a clone made before the read");
        assert_eq!(p, q, "equal declarations, one built");
        assert!(!p.table_is_built(TableId(1)));

        let mut literal = Program::new("t");
        literal.add_table(gen.values());
        assert_ne!(p, literal, "equal values, different declarations");
    }
}
