//! Message size accounting.
//!
//! The gossip model in the paper restricts messages to `O(log n)` bits.
//! Rather than enforcing a hard limit (which would make it impossible to
//! implement and measure the larger-message baselines of Appendix A), the
//! simulator *accounts* for the number of bits every exchanged message would
//! occupy on the wire. Experiment E8 of the reproduction is generated from
//! these counters.

/// Types that know how many bits they would occupy when sent as a gossip
/// message.
///
/// The accounting is intentionally simple and deterministic: fixed-width
/// encodings for scalars, and the sum of element sizes (plus a 32-bit length
/// prefix) for vectors. This is what a straightforward binary wire format
/// would use and is what the paper's `O(log n)`-bit budget refers to.
pub trait MessageSize {
    /// Number of bits this message occupies on the wire.
    fn message_bits(&self) -> u64;
}

macro_rules! impl_message_size_fixed {
    ($($t:ty => $bits:expr),* $(,)?) => {
        $(
            impl MessageSize for $t {
                fn message_bits(&self) -> u64 {
                    $bits
                }
            }
        )*
    };
}

impl_message_size_fixed! {
    u8 => 8, u16 => 16, u32 => 32, u64 => 64, u128 => 128, usize => 64,
    i8 => 8, i16 => 16, i32 => 32, i64 => 64, i128 => 128, isize => 64,
    f32 => 32, f64 => 64, bool => 1,
}

impl MessageSize for () {
    fn message_bits(&self) -> u64 {
        0
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    fn message_bits(&self) -> u64 {
        self.0.message_bits() + self.1.message_bits()
    }
}

impl<A: MessageSize, B: MessageSize, C: MessageSize> MessageSize for (A, B, C) {
    fn message_bits(&self) -> u64 {
        self.0.message_bits() + self.1.message_bits() + self.2.message_bits()
    }
}

/// A fixed-length array carries no length prefix: its elements only.
impl<T: MessageSize, const N: usize> MessageSize for [T; N] {
    fn message_bits(&self) -> u64 {
        self.iter().map(MessageSize::message_bits).sum()
    }
}

impl<T: MessageSize> MessageSize for Option<T> {
    fn message_bits(&self) -> u64 {
        1 + self.as_ref().map_or(0, MessageSize::message_bits)
    }
}

/// The wire footprint of a variable-length sequence: a 32-bit length prefix
/// plus the elements.
///
/// This is the formula behind `Vec<T>`'s [`MessageSize`] impl, exposed so
/// allocation-free paths (e.g. the engine's lane-matrix collector, which
/// serves a borrowed row instead of building a `Vec`) charge exactly the
/// same bits as the vector message they replace.
pub fn seq_message_bits<T: MessageSize>(items: &[T]) -> u64 {
    32 + items.iter().map(MessageSize::message_bits).sum::<u64>()
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn message_bits(&self) -> u64 {
        seq_message_bits(self)
    }
}

impl<T: MessageSize> MessageSize for &T {
    fn message_bits(&self) -> u64 {
        (**self).message_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(42u64.message_bits(), 64);
        assert_eq!(42u32.message_bits(), 32);
        assert_eq!(1.5f64.message_bits(), 64);
        assert_eq!(true.message_bits(), 1);
        assert_eq!(().message_bits(), 0);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((1u64, 2u64).message_bits(), 128);
        assert_eq!((1u64, 2u64, 3u32).message_bits(), 160);
        assert_eq!(([1.0f64, 2.0], 3.0f64).message_bits(), 192);
        assert_eq!(Some(7u64).message_bits(), 65);
        assert_eq!(None::<u64>.message_bits(), 1);
    }

    #[test]
    fn vec_size_includes_length_prefix() {
        let v = vec![1u64, 2, 3];
        assert_eq!(v.message_bits(), 32 + 3 * 64);
        let empty: Vec<u64> = Vec::new();
        assert_eq!(empty.message_bits(), 32);
    }

    #[test]
    fn reference_forwards_to_value() {
        let x = 9u64;
        assert_eq!(x.message_bits(), 64);
    }
}
