//! NaN-free folds over schedule times.
//!
//! Every start, finish, data-ready time, rank and level a scheduler folds
//! is built with `+`, `×` and `÷` from weights the model stores as
//! non-negative, non-NaN and `+0.0` (`network.rs` `weight`, `graph.rs`
//! `checked_cost`). Costs and data sizes are finite, every quotient
//! divides one such cost by a speed or a link strength, and a zero cost
//! neither divides nor multiplies (see
//! [`Network::exec_time`](crate::Network::exec_time)), so no `inf / inf`,
//! `0 / 0` or `0 × inf` arises. No difference of two times feeds a fold.
//! So these values are never NaN, and never `-0.0`.
//!
//! On those values [`later`] and [`earlier`] return the bits
//! `f64::max`/`f64::min` return, but compile to one compare-select: the
//! standard pair also has to pick the non-NaN operand, which on baseline
//! x86-64 costs four more instructions per call. Each helper checks the
//! invariant with a `debug_assert!`, so every debug-built test checks it
//! at every fold. Keep `f64::max`/`f64::min` where an operand can be NaN:
//! a difference of two times, a quotient of sums (which can overflow to
//! `+inf`), or a value from outside the model (a sampled weight, a release
//! time, a hand-built schedule).

/// Whether `x` may enter a time fold: not NaN and not `-0.0`.
fn foldable(x: f64) -> bool {
    !x.is_nan() && x.to_bits() != (-0.0f64).to_bits()
}

/// The later of two schedule times: `f64::max(a, b)` for operands that are
/// never NaN or `-0.0` (see the [module docs](self)), as one compare.
///
/// # Panics
/// Panics (debug) if either operand is NaN or `-0.0`.
#[inline(always)]
pub fn later(a: f64, b: f64) -> f64 {
    debug_assert!(foldable(a) && foldable(b), "time fold over {a:?}, {b:?}");
    if a < b {
        b
    } else {
        a
    }
}

/// The earlier of two schedule times: `f64::min(a, b)` for operands that
/// are never NaN or `-0.0` (see the [module docs](self)), as one compare.
///
/// # Panics
/// Panics (debug) if either operand is NaN or `-0.0`.
#[inline(always)]
pub fn earlier(a: f64, b: f64) -> f64 {
    debug_assert!(foldable(a) && foldable(b), "time fold over {a:?}, {b:?}");
    if b < a {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the oracle: the helpers must match the NaN-aware pair bit for bit"
    )]
    fn helpers_match_the_std_pair_bit_for_bit() {
        let values = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    later(a, b).to_bits(),
                    f64::max(a, b).to_bits(),
                    "{a:?}, {b:?}"
                );
                assert_eq!(
                    earlier(a, b).to_bits(),
                    f64::min(a, b).to_bits(),
                    "{a:?}, {b:?}"
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "time fold")]
    fn a_nan_operand_trips_the_assertion() {
        later(1.0, f64::NAN);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "time fold")]
    fn a_negative_zero_operand_trips_the_assertion() {
        earlier(-0.0, 1.0);
    }
}
