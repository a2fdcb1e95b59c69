//! Atomic memory operations (AMOs).
//!
//! DMAPP offers a limited set of 8-byte atomics (§2.1 of the paper); the
//! same set is available intra-node via CPU atomics. Everything richer
//! (floating-point min, products, ...) must be built from these by the upper
//! layer (foMPI's lock-get-compute-put fallback, §2.4).

/// The hardware-supported 8-byte atomic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// Fetch-and-add (returns the old value).
    Add,
    /// Fetch-and-AND.
    And,
    /// Fetch-and-OR.
    Or,
    /// Fetch-and-XOR.
    Xor,
    /// Atomic swap (returns the old value).
    Swap,
    /// Compare-and-swap: the operand is the *desired* value; the compare
    /// value travels separately. Returns the old value.
    Cas,
    /// Plain atomic read (fetch with no modification).
    Fetch,
}

impl AmoOp {
    /// Apply the operation to `old` with `operand`/`compare`, returning the
    /// new stored value. (The caller returns `old` to the origin.)
    pub fn apply(self, old: u64, operand: u64, compare: u64) -> u64 {
        match self {
            AmoOp::Add => old.wrapping_add(operand),
            AmoOp::And => old & operand,
            AmoOp::Or => old | operand,
            AmoOp::Xor => old ^ operand,
            AmoOp::Swap => operand,
            AmoOp::Cas => {
                if old == compare {
                    operand
                } else {
                    old
                }
            }
            AmoOp::Fetch => old,
        }
    }
}

/// One element of a fetching-AMO list ([`crate::Endpoint::amo_fetch_list`]):
/// the 8-byte AMO `op` on the word at byte `at` of the list's span, with
/// its operand (a CAS's desired value) and a CAS's compare value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchAmo {
    /// Byte offset of the word inside the span (a multiple of 8).
    pub at: usize,
    /// The operation.
    pub op: AmoOp,
    /// Its operand; a CAS's desired value.
    pub operand: u64,
    /// A CAS's compare value (ignored by the other operations).
    pub compare: u64,
}

impl FetchAmo {
    /// An atomic read of the word at `at`.
    pub const fn read(at: usize) -> FetchAmo {
        FetchAmo { at, op: AmoOp::Fetch, operand: 0, compare: 0 }
    }

    /// `CAS(expected → desired)` on the word at `at`.
    pub const fn cas(at: usize, desired: u64, expected: u64) -> FetchAmo {
        FetchAmo { at, op: AmoOp::Cas, operand: desired, compare: expected }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_wraps() {
        assert_eq!(AmoOp::Add.apply(u64::MAX, 2, 0), 1);
    }

    #[test]
    fn cas_semantics() {
        assert_eq!(AmoOp::Cas.apply(5, 9, 5), 9); // matched: store desired
        assert_eq!(AmoOp::Cas.apply(5, 9, 4), 5); // mismatched: unchanged
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(AmoOp::And.apply(0b1100, 0b1010, 0), 0b1000);
        assert_eq!(AmoOp::Or.apply(0b1100, 0b1010, 0), 0b1110);
        assert_eq!(AmoOp::Xor.apply(0b1100, 0b1010, 0), 0b0110);
    }

    #[test]
    fn swap_and_fetch() {
        assert_eq!(AmoOp::Swap.apply(7, 42, 0), 42);
        assert_eq!(AmoOp::Fetch.apply(7, 42, 0), 7);
    }
}
