//! The table of distinct values that rank codes index.
//!
//! [`crate::exact`] and [`crate::service`] carry values as dense ranks: a
//! value's index in the ascending table of the distinct inputs. Ranks order
//! exactly as the values do, so comparing two ranks answers as comparing
//! their values, and `table[rank]` decodes the rank to one member of the
//! value's Ord-equal class.

use gossip_net::NodeValue;

/// Sorts a copy of `values` into `table`, which keeps its allocation: their
/// distinct values, ascending.
pub(crate) fn sort_distinct<V: NodeValue>(values: &[V], table: &mut Vec<V>) {
    table.clear();
    table.extend_from_slice(values);
    table.sort_unstable();
    table.dedup();
}

/// The dense rank of `x` in a table that [`sort_distinct`] built from values
/// including one equal to `x`.
pub(crate) fn rank<V: Ord>(table: &[V], x: &V) -> usize {
    table
        .binary_search(x)
        .expect("the table holds every input's class")
}
