//! A fast, fixed hasher for `u64` keys, and the `HashMap` alias that
//! uses it.
//!
//! The SipHash default is DoS-resistant but roughly an order of
//! magnitude slower. [`IdHasher`] is unkeyed: anyone who chooses the
//! keys can choose them to collide. So every map of this type says who
//! chooses its keys in a `// keys:` comment above it (qtag-lint R8).
//! Where only trusted code inserts keys — the impression store, whose
//! rows come from the ad server's served log — wire ids only look up,
//! and a lookup's probe length is bounded by a table of trusted keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hasher for `u64` keys.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    /// Folds the product's high half into its low half. The table picks
    /// a bucket from the hash's low bits, and in a bare product those
    /// depend only on the key's low bits: ids that differ only above
    /// bit 16 (`(client << 32) | seq`) would all share one bucket chain.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// `HashMap` keyed by a `u64`, using [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::Hash;

    fn hash(id: u64) -> u64 {
        let mut h = IdHasher::default();
        id.hash(&mut h);
        h.finish()
    }

    /// Distinct values of the low 12 bits (a 4,096-bucket table's
    /// index) over `ids`.
    fn low_bits_spread(ids: impl Iterator<Item = u64>) -> usize {
        ids.map(|id| hash(id) & 4095).collect::<BTreeSet<_>>().len()
    }

    #[test]
    fn strided_ids_spread_over_the_low_bits() {
        // Ids that differ only above bit 16: a bare product maps every
        // one of them to the same low bits.
        let spread = low_bits_spread((0..4096u64).map(|k| k << 16));
        assert!(spread >= 1_024, "strided ids hit {spread} of 4096 buckets");
        let clients = low_bits_spread((0..4096u64).map(|k| (k << 32) | 7));
        assert!(
            clients >= 1_024,
            "(client << 32) | seq hit {clients} buckets"
        );
    }

    #[test]
    fn sequential_ids_spread_over_the_low_bits() {
        let spread = low_bits_spread(1..=4096u64);
        assert!(spread >= 2_048, "ids 1..=4096 hit {spread} of 4096 buckets");
    }
}
