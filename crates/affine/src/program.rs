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
///
/// Every parameter set a generator accepts has `len ≥ 1`, `extent ≥ 1`,
/// `jitter ≥ 0` and `seed ≥ 0`, and every intermediate of its closed form
/// fits an `i64`; [`Program::declare_table`] rejects any other. Over that
/// domain [`values`](Self::values) builds each entry from the previous
/// one, without a division.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableGen {
    /// A near-affine index table: a diagonal band with bounded jitter,
    /// like a reordered-mesh CRS column index. Entry `k` is `k·extent/len`
    /// plus the jitter `((k·1103515245 + seed·12345) >> 4) mod
    /// (2·jitter + 1) − jitter`, clamped into `[0, extent)`. Approximates
    /// well (§5.4).
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
    /// approximation): entry `k` is `(k·2654435761 + seed) mod extent`.
    Scrambled {
        /// Number of entries.
        len: i64,
        /// Entries lie in `[0, extent)`.
        extent: i64,
        /// Shifts the hash.
        seed: i64,
    },
}

/// The multipliers of [`TableGen::Banded`]'s jitter hash and of
/// [`TableGen::Scrambled`]'s.
const BANDED_MUL: i64 = 1103515245;
const BANDED_SEED_MUL: i64 = 12345;
const SCRAMBLED_MUL: i64 = 2654435761;

/// `(a + b) mod m` for `a, b` in `[0, m)`, without overflow.
fn add_mod(a: i64, b: i64, m: i64) -> i64 {
    if a >= m - b {
        a - (m - b)
    } else {
        a + b
    }
}

impl TableGen {
    /// Why the generator's parameters lie outside the domain it builds
    /// (see [`TableGen`]), if they do.
    fn check(self) -> Result<(), &'static str> {
        let (len, extent, seed) = match self {
            TableGen::Banded {
                len, extent, seed, ..
            }
            | TableGen::Scrambled { len, extent, seed } => (len, extent, seed),
        };
        if len < 1 {
            return Err("len must be at least 1");
        }
        if extent < 1 {
            return Err("extent must be at least 1");
        }
        if seed < 0 {
            return Err("seed must not be negative");
        }
        let last = len - 1;
        let fits = match self {
            TableGen::Banded { jitter, .. } => {
                if jitter < 0 {
                    return Err("jitter must not be negative");
                }
                last.checked_mul(extent).is_some()
                    && (last.checked_mul(BANDED_MUL))
                        .zip(seed.checked_mul(BANDED_SEED_MUL))
                        .and_then(|(a, b)| a.checked_add(b))
                        .is_some()
                    && jitter
                        .checked_mul(2)
                        .and_then(|j| j.checked_add(1))
                        .is_some()
                    && (extent - 1).checked_add(jitter).is_some()
            }
            TableGen::Scrambled { .. } => (last.checked_mul(SCRAMBLED_MUL))
                .and_then(|a| a.checked_add(seed))
                .is_some(),
        };
        if fits {
            Ok(())
        } else {
            Err("an entry's closed form overflows i64")
        }
    }

    /// Generates the table's values, each from the previous one: a running
    /// quotient and remainder stand for `k·extent/len`, and running
    /// residues for the hashes' `mod`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters lie outside the generator's domain (see
    /// [`TableGen`]).
    pub fn values(self) -> Vec<i64> {
        if let Err(why) = self.check() {
            panic!("{self:?}: {why}");
        }
        match self {
            TableGen::Banded {
                len,
                extent,
                jitter,
                seed,
            } => {
                // k·extent = q·len + r, and extent = q_step·len + r_step.
                let (q_step, r_step) = (extent / len, extent % len);
                let (mut q, mut r) = (0, 0);
                // For x = k·BANDED_MUL + seed·BANDED_SEED_MUL, `h` keeps
                // (x >> 4) mod m and `lo` keeps x mod 16, whose carry adds
                // one to x >> 4.
                let m = 2 * jitter + 1;
                let x = seed * BANDED_SEED_MUL;
                let (h_step, lo_step) = ((BANDED_MUL >> 4) % m, BANDED_MUL & 15);
                let (mut h, mut lo) = ((x >> 4) % m, x & 15);
                (0..len)
                    .map(|_| {
                        let value = (q + (h - jitter)).clamp(0, extent - 1);
                        q += q_step;
                        if r >= len - r_step {
                            r -= len - r_step;
                            q += 1;
                        } else {
                            r += r_step;
                        }
                        h = add_mod(h, h_step, m);
                        lo += lo_step;
                        if lo >= 16 {
                            lo -= 16;
                            h += 1;
                            if h == m {
                                h = 0;
                            }
                        }
                        value
                    })
                    .collect()
            }
            TableGen::Scrambled { len, extent, seed } => {
                let step = SCRAMBLED_MUL % extent;
                let mut v = seed % extent;
                (0..len)
                    .map(|_| {
                        let value = v;
                        v = add_mod(v, step, extent);
                        value
                    })
                    .collect()
            }
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
    ///
    /// # Panics
    ///
    /// Panics if `gen`'s parameters lie outside the domain it builds (see
    /// [`TableGen`]).
    pub fn declare_table(&mut self, gen: TableGen) -> TableId {
        if let Err(why) = gen.check() {
            panic!("{gen:?}: {why}");
        }
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

    /// The number of entries of table `id`, without building it.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn table_len(&self, id: TableId) -> usize {
        match &self.tables[id.0] {
            Table::Literal(values) => values.len(),
            Table::Generated(TableGen::Banded { len, .. } | TableGen::Scrambled { len, .. }, _) => {
                *len as usize
            }
        }
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
    fn generators_outside_their_domain_are_rejected() {
        let banded = |len, extent, jitter, seed| TableGen::Banded {
            len,
            extent,
            jitter,
            seed,
        };
        let scrambled = |len, extent, seed| TableGen::Scrambled { len, extent, seed };
        let max = i64::MAX;
        let overflow = "an entry's closed form overflows i64";
        let rejected = [
            (banded(0, 8, 1, 0), "len must be at least 1"),
            (banded(8, 0, 1, 0), "extent must be at least 1"),
            (banded(8, 8, -1, 0), "jitter must not be negative"),
            (banded(8, 8, 1, -1), "seed must not be negative"),
            // k·extent, k·1103515245, seed·12345, their sum, 2·jitter + 1
            // and the clamp's operand, each one step past i64.
            (banded(3, max / 2 + 1, 0, 0), overflow),
            (banded(max / BANDED_MUL + 2, 1, 0, 0), overflow),
            (banded(1, 1, 0, max / BANDED_SEED_MUL + 1), overflow),
            (
                banded(2, 1, 0, (max - BANDED_MUL) / BANDED_SEED_MUL + 1),
                overflow,
            ),
            (banded(1, 1, max / 2 + 1, 0), overflow),
            (banded(1, max - max / 2 + 2, max / 2, 0), overflow),
            (scrambled(0, 8, 0), "len must be at least 1"),
            (scrambled(8, 0, 0), "extent must be at least 1"),
            (scrambled(8, 8, -1), "seed must not be negative"),
            (scrambled(max / SCRAMBLED_MUL + 2, 8, 0), overflow),
            (scrambled(3, 8, max - 2 * SCRAMBLED_MUL + 1), overflow),
        ];
        for (gen, why) in rejected {
            assert_eq!(gen.check(), Err(why), "{gen:?}");
            let declared = std::panic::catch_unwind(|| Program::new("t").declare_table(gen));
            assert!(declared.is_err(), "{gen:?} declared");
            assert!(
                std::panic::catch_unwind(|| gen.values()).is_err(),
                "{gen:?} built"
            );
        }
        // One step inside each bound.
        let accepted = [
            banded(3, max / 2, 0, 0),
            banded(max / BANDED_MUL + 1, 1, 0, 0),
            banded(2, 1, 0, (max - BANDED_MUL) / BANDED_SEED_MUL),
            banded(1, 1, max / 2, 0),
            banded(1, max - max / 2 + 1, max / 2, 0),
            scrambled(3, 8, max - 2 * SCRAMBLED_MUL),
        ];
        for gen in accepted {
            assert_eq!(gen.check(), Ok(()), "{gen:?}");
        }
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
