//! MPI reduction operations for accumulate calls.
//!
//! DMAPP accelerates "many common integer operations on 8-byte data"
//! (§2.1/§2.4): for those we issue per-element hardware AMOs. Everything
//! else takes foMPI's lock-get-compute-put fallback, which is why the paper
//! measures `Pacc,min` with a 7.3 µs base but *better bandwidth* than the
//! AMO stream (Figure 6a).

use fompi_fabric::AmoOp;

/// The MPI_Op set supported by accumulate/get_accumulate/fetch_and_op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiOp {
    /// MPI_SUM
    Sum,
    /// MPI_PROD
    Prod,
    /// MPI_MIN
    Min,
    /// MPI_MAX
    Max,
    /// MPI_BAND
    Band,
    /// MPI_BOR
    Bor,
    /// MPI_BXOR
    Bxor,
    /// MPI_REPLACE (put with accumulate atomicity)
    Replace,
    /// MPI_NO_OP (pure atomic read in get_accumulate/fetch_and_op)
    NoOp,
}

/// Element types accumulate understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumKind {
    /// 64-bit signed integer.
    I64,
    /// 64-bit unsigned integer.
    U64,
    /// 64-bit float.
    F64,
    /// 32-bit signed integer.
    I32,
    /// 32-bit float.
    F32,
    /// Raw byte.
    U8,
}

impl NumKind {
    /// Element size in bytes.
    pub fn size(self) -> usize {
        match self {
            NumKind::I64 | NumKind::U64 | NumKind::F64 => 8,
            NumKind::I32 | NumKind::F32 => 4,
            NumKind::U8 => 1,
        }
    }
}

impl MpiOp {
    /// The hardware AMO this op maps to for 8-byte integer data, if DMAPP
    /// accelerates it. `Min`/`Max`/`Prod` and all floating point fall back
    /// to the software protocol, matching the paper.
    pub fn hw_amo(self, kind: NumKind) -> Option<AmoOp> {
        if kind.size() != 8 || matches!(kind, NumKind::F64) {
            return None;
        }
        match self {
            MpiOp::Sum => Some(AmoOp::Add),
            MpiOp::Band => Some(AmoOp::And),
            MpiOp::Bor => Some(AmoOp::Or),
            MpiOp::Bxor => Some(AmoOp::Xor),
            MpiOp::Replace => Some(AmoOp::Swap),
            MpiOp::NoOp => Some(AmoOp::Fetch),
            MpiOp::Min | MpiOp::Max | MpiOp::Prod => None,
        }
    }

    /// Combine one element in place: `target := target ⊕ origin`. Operands
    /// are the raw little-endian bytes of the element, interpreted per
    /// `kind`.
    pub fn apply(self, kind: NumKind, target: &mut [u8], origin: &[u8]) {
        debug_assert_eq!(target.len(), kind.size());
        debug_assert_eq!(origin.len(), kind.size());
        macro_rules! num {
            ($t:ty) => {{
                let a = <$t>::from_le_bytes((&*target).try_into().unwrap());
                let b = <$t>::from_le_bytes(origin.try_into().unwrap());
                let r: $t = match self {
                    MpiOp::Sum => a.wrapping_add_compat(b),
                    MpiOp::Prod => a.wrapping_mul_compat(b),
                    MpiOp::Min => {
                        if b < a {
                            b
                        } else {
                            a
                        }
                    }
                    MpiOp::Max => {
                        if b > a {
                            b
                        } else {
                            a
                        }
                    }
                    MpiOp::Band | MpiOp::Bor | MpiOp::Bxor => {
                        unreachable!("bitwise ops handled on integer path")
                    }
                    MpiOp::Replace => b,
                    MpiOp::NoOp => a,
                };
                target.copy_from_slice(&r.to_le_bytes())
            }};
        }
        macro_rules! int {
            ($t:ty) => {{
                let a = <$t>::from_le_bytes((&*target).try_into().unwrap());
                let b = <$t>::from_le_bytes(origin.try_into().unwrap());
                let r: $t = match self {
                    MpiOp::Sum => a.wrapping_add(b),
                    MpiOp::Prod => a.wrapping_mul(b),
                    MpiOp::Min => a.min(b),
                    MpiOp::Max => a.max(b),
                    MpiOp::Band => a & b,
                    MpiOp::Bor => a | b,
                    MpiOp::Bxor => a ^ b,
                    MpiOp::Replace => b,
                    MpiOp::NoOp => a,
                };
                target.copy_from_slice(&r.to_le_bytes())
            }};
        }
        match kind {
            NumKind::I64 => int!(i64),
            NumKind::U64 => int!(u64),
            NumKind::I32 => int!(i32),
            NumKind::U8 => int!(u8),
            NumKind::F64 => num!(f64),
            NumKind::F32 => num!(f32),
        }
    }
}

/// Float helpers so the `num!` macro can use one name for add/mul.
trait WrappingCompat {
    fn wrapping_add_compat(self, o: Self) -> Self;
    fn wrapping_mul_compat(self, o: Self) -> Self;
}
impl WrappingCompat for f64 {
    fn wrapping_add_compat(self, o: Self) -> Self {
        self + o
    }
    fn wrapping_mul_compat(self, o: Self) -> Self {
        self * o
    }
}
impl WrappingCompat for f32 {
    fn wrapping_add_compat(self, o: Self) -> Self {
        self + o
    }
    fn wrapping_mul_compat(self, o: Self) -> Self {
        self * o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hw_acceleration_set_matches_paper() {
        // SUM on 8-byte ints is accelerated; MIN is not (Figure 6a).
        assert_eq!(MpiOp::Sum.hw_amo(NumKind::I64), Some(AmoOp::Add));
        assert_eq!(MpiOp::Sum.hw_amo(NumKind::U64), Some(AmoOp::Add));
        assert_eq!(MpiOp::Min.hw_amo(NumKind::I64), None);
        assert_eq!(MpiOp::Sum.hw_amo(NumKind::F64), None);
        assert_eq!(MpiOp::Sum.hw_amo(NumKind::I32), None);
        assert_eq!(MpiOp::Replace.hw_amo(NumKind::U64), Some(AmoOp::Swap));
    }

    /// `target ⊕ origin` on one `$t` element, through the in-place API.
    macro_rules! applied {
        ($op:ident, $kind:ident, $t:expr, $o:expr) => {{
            let mut target = $t.to_le_bytes();
            MpiOp::$op.apply(NumKind::$kind, &mut target, &$o.to_le_bytes());
            target
        }};
    }

    #[test]
    fn apply_i64() {
        assert_eq!(applied!(Sum, I64, 10i64, 3i64), 13i64.to_le_bytes());
        assert_eq!(applied!(Min, I64, 10i64, 3i64), 3i64.to_le_bytes());
        assert_eq!(applied!(Max, I64, 10i64, 3i64), 10i64.to_le_bytes());
        assert_eq!(applied!(Prod, I64, 10i64, 3i64), 30i64.to_le_bytes());
        assert_eq!(applied!(Replace, I64, 10i64, 3i64), 3i64.to_le_bytes());
        assert_eq!(applied!(NoOp, I64, 10i64, 3i64), 10i64.to_le_bytes());
    }

    #[test]
    fn apply_f64_and_f32() {
        assert_eq!(applied!(Sum, F64, 1.5f64, 2.25f64), 3.75f64.to_le_bytes());
        assert_eq!(applied!(Min, F64, 1.5f64, 2.25f64), 1.5f64.to_le_bytes());
        assert_eq!(applied!(Prod, F32, 2.0f32, 4.0f32), 8.0f32.to_le_bytes());
    }

    #[test]
    fn apply_bitwise_u64() {
        assert_eq!(applied!(Band, U64, 0b1100u64, 0b1010u64), 0b1000u64.to_le_bytes());
        assert_eq!(applied!(Bxor, U64, 0b1100u64, 0b1010u64), 0b0110u64.to_le_bytes());
    }

    #[test]
    fn sum_wraps_like_hardware() {
        assert_eq!(applied!(Sum, U64, u64::MAX, 2u64), 1u64.to_le_bytes());
    }
}
