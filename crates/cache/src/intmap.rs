//! A `HashMap` for keys the simulator generates itself.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IntHasher`]: for the per-access books keyed by
/// line addresses and request tokens.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A multiplicative hasher for integer keys (and small tuples of them).
///
/// The default SipHash exists to resist keys crafted to collide. These
/// keys — line addresses, request tokens — are produced by the simulation
/// itself, and they are hashed on every memory access, so one multiply
/// per word replaces it. Do not use it for keys read from outside the
/// program.
#[derive(Clone, Copy, Default, Debug)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        // The table takes its bucket from the low bits, where a product
        // is weakest: fold the high half down.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_map_over_strided_and_tuple_keys() {
        // Strided keys (multiples of a power of two) are the classic trap
        // for multiplicative hashing; the map must still find them all.
        let mut m: IntMap<u64, u64> = IntMap::default();
        for k in 0..10_000u64 {
            m.insert(k << 12, k);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|k| m.get(&(k << 12)) == Some(&k)));
        let mut t: IntMap<(u16, u64), u64> = IntMap::default();
        t.insert((3, 9), 1);
        t.insert((9, 3), 2);
        assert_eq!((t[&(3, 9)], t[&(9, 3)]), (1, 2));
        assert_eq!(t.remove(&(3, 9)), Some(1));
        assert!(!t.contains_key(&(3, 9)));
    }
}
