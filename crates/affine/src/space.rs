//! Data-space partitioning (§5.2 of the paper).

/// Partitions the `dim`-th axis of a data space of extent `extent` into
/// `blocks` equal blocks (the last block may be smaller), returning the
/// block index for a given coordinate.
///
/// This is the block structure that the parallel hyperplane family
/// orthogonal to `v` induces on the transformed data space in §5.2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockPartition {
    extent: i64,
    block_size: i64,
}

impl BlockPartition {
    /// Splits `[0, extent)` into `blocks` contiguous blocks.
    ///
    /// # Panics
    ///
    /// Panics if `extent <= 0` or `blocks == 0`.
    pub fn new(extent: i64, blocks: usize) -> Self {
        assert!(extent > 0, "extent must be positive");
        assert!(blocks > 0, "block count must be positive");
        let block_size = (extent + blocks as i64 - 1) / blocks as i64;
        Self {
            extent,
            block_size: block_size.max(1),
        }
    }

    /// Block size `b` (elements along the partitioned dimension per block).
    pub fn block_size(&self) -> i64 {
        self.block_size
    }

    /// The block index owning a coordinate, clamping out-of-range inputs.
    pub fn block_of(&self, coord: i64) -> i64 {
        coord.clamp(0, self.extent - 1) / self.block_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_partition_covers_evenly() {
        let p = BlockPartition::new(64, 4);
        assert_eq!(p.block_size(), 16);
        assert_eq!(p.block_of(0), 0);
        assert_eq!(p.block_of(15), 0);
        assert_eq!(p.block_of(16), 1);
        assert_eq!(p.block_of(63), 3);
    }

    #[test]
    fn block_partition_clamps() {
        let p = BlockPartition::new(64, 4);
        assert_eq!(p.block_of(-5), 0);
        assert_eq!(p.block_of(1000), 3);
    }

    #[test]
    fn block_partition_uneven_tail() {
        let p = BlockPartition::new(10, 4);
        assert_eq!(p.block_size(), 3);
        assert_eq!(p.block_of(9), 3);
    }
}
