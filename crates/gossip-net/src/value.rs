//! Node value abstraction.
//!
//! The paper assumes every node `v` holds an `O(log n)`-bit value `x_v` drawn
//! from a totally ordered universe. [`NodeValue`] captures exactly what the
//! quantile algorithms need from such a value: a total order, cheap copies and
//! a bit-size for message accounting.

use crate::message::MessageSize;
use std::cmp::Ordering;
use std::fmt;

/// A value held by a node, as assumed by the quantile computation problem.
///
/// Implementations exist for the primitive integer types and for
/// [`OrderedF64`]. Tuples `(A, B)` of node values are also node values
/// (ordered lexicographically); the exact-quantile algorithm uses this to
/// break ties between duplicated values.
///
/// The `Copy` bound is also what makes node values plain-old-data for the
/// engine's memory-layout machinery: states built from them have no drop
/// glue or heap indirection, so the cache-blocked back-buffer refresh
/// ([`crate::soa::clone_block`]) compiles down to straight block copies and
/// the [`crate::soa`] column stores hold them in flat, autovectorisable
/// arrays.
pub trait NodeValue: Copy + Ord + fmt::Debug + Send + Sync + MessageSize + 'static {}

impl<T> NodeValue for T where T: Copy + Ord + fmt::Debug + Send + Sync + MessageSize + 'static {}

/// A totally ordered `f64` suitable for use as a node value.
///
/// Construction rejects NaN so that the ordering is total; this is the
/// standard "not NaN" newtype pattern. It also reads `-0.0` as `+0.0`: the
/// two compare equal, so they must hash equally, and a value that is equal
/// to another is then the same bits.
///
/// ```
/// use gossip_net::OrderedF64;
/// let a = OrderedF64::new(1.5).unwrap();
/// let b = OrderedF64::new(2.5).unwrap();
/// assert!(a < b);
/// assert!(OrderedF64::new(f64::NAN).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wraps a finite or infinite (but not NaN) `f64`, `-0.0` as `+0.0`.
    ///
    /// Returns `None` if `x` is NaN.
    pub fn new(x: f64) -> Option<Self> {
        if x.is_nan() {
            None
        } else if x == 0.0 {
            Some(OrderedF64(0.0))
        } else {
            Some(OrderedF64(x))
        }
    }

    /// Returns the wrapped floating-point value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe because construction rejects NaN.
        self.0
            .partial_cmp(&other.0)
            .expect("OrderedF64 never holds NaN")
    }
}

impl fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<OrderedF64> for f64 {
    fn from(v: OrderedF64) -> f64 {
        v.0
    }
}

impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl MessageSize for OrderedF64 {
    fn message_bits(&self) -> u64 {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_f64_rejects_nan() {
        assert!(OrderedF64::new(f64::NAN).is_none());
        assert!(OrderedF64::new(0.0).is_some());
        assert!(OrderedF64::new(f64::INFINITY).is_some());
    }

    #[test]
    fn ordered_f64_total_order() {
        let mut v: Vec<OrderedF64> = [3.0, -1.0, 2.5, 0.0, f64::INFINITY, f64::NEG_INFINITY]
            .iter()
            .map(|&x| OrderedF64::new(x).unwrap())
            .collect();
        v.sort();
        let sorted: Vec<f64> = v.into_iter().map(f64::from).collect();
        assert_eq!(
            sorted,
            vec![f64::NEG_INFINITY, -1.0, 0.0, 2.5, 3.0, f64::INFINITY]
        );
    }

    #[test]
    fn ordered_f64_reads_negative_zero_as_positive_zero() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |x: OrderedF64| {
            let mut hasher = DefaultHasher::new();
            x.hash(&mut hasher);
            hasher.finish()
        };
        let (negative, positive) = (
            OrderedF64::new(-0.0).unwrap(),
            OrderedF64::new(0.0).unwrap(),
        );
        assert_eq!(negative, positive);
        assert_eq!(hash(negative), hash(positive));
        assert_eq!(negative.get().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn primitive_types_are_node_values() {
        fn assert_node_value<T: NodeValue>() {}
        assert_node_value::<u64>();
        assert_node_value::<i64>();
        assert_node_value::<u32>();
        assert_node_value::<OrderedF64>();
        assert_node_value::<(u64, u64)>();
    }

    #[test]
    fn tuple_values_order_lexicographically() {
        // The exact-quantile algorithm relies on this for rank tie-breaking.
        assert!((5u64, 0u64) < (5u64, 1u64));
        assert!((4u64, u64::MAX) < (5u64, 0u64));
    }

    #[test]
    fn ordered_f64_display_and_get() {
        let x = OrderedF64::new(1.25).unwrap();
        assert_eq!(x.get(), 1.25);
        assert_eq!(x.to_string(), "1.25");
    }
}
