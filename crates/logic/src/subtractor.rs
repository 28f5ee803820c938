//! In-memory subtraction.
//!
//! The kernels' difference terms (`p00 − p11` in Roberts, the butterfly's
//! `a − t` in the FFT) run in-memory as two's-complement addition:
//! `x − y = x + ȳ + 1`. The complement is one column-parallel NOT (one
//! cycle) and the `+1` rides the serial adder's carry seed for free — the
//! seed cell holds 1 instead of 0. Total: `12N + 2` cycles.

use apim_crossbar::{BlockId, BlockedCrossbar, Result, RowAllocator};
use std::ops::Range;

use crate::adder_serial::SerialScratch;
use crate::lanes::sub_lanes;

/// Subtracts the word in `y_row` from the word in `x_row` over `cols`
/// (two's complement, wrapping at the word width), writing the difference
/// into `out_row`. Needs one extra scratch row for `ȳ` on top of the
/// serial adder's [`SerialScratch`].
///
/// Costs `12N + 2` cycles: one NOT for the complement, one NOR seeding the
/// carry chain with 1, then the `12N` ripple — [`sub_lanes`] at one lane.
///
/// # Errors
///
/// Propagates crossbar errors (bounds, initialization discipline).
#[allow(clippy::too_many_arguments)] // one parameter per row of the layout
pub fn sub_words(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    x_row: usize,
    y_row: usize,
    not_y_row: usize,
    out_row: usize,
    cols: Range<usize>,
    scratch: &SerialScratch,
) -> Result<()> {
    sub_lanes(
        xbar, block, x_row, y_row, not_y_row, out_row, cols, 1, scratch,
    )
}

/// Convenience: builds the scratch, runs [`sub_words`] and reads the
/// result back (helper for tests and examples; production layouts manage
/// their own rows).
///
/// # Errors
///
/// Propagates crossbar errors; the block needs ~16 free rows.
pub fn subtract(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    x: u64,
    y: u64,
    n: usize,
) -> Result<u64> {
    let mut alloc = RowAllocator::new(xbar.rows());
    let rows = alloc.alloc_many(4)?; // x, y, !y, out
    let scratch = SerialScratch::alloc(&mut alloc)?;
    xbar.preload_u64(block, rows[0], 0, n, x)?;
    xbar.preload_u64(block, rows[1], 0, n, y)?;
    sub_words(
        xbar,
        block,
        rows[0],
        rows[1],
        rows[2],
        rows[3],
        0..n,
        &scratch,
    )?;
    xbar.peek_u64(block, rows[3], 0, n)
}

/// In-memory unsigned comparison: `x ≥ y`, read from the subtraction's
/// carry-out (`x + ȳ + 1` carries out of bit `n−1` exactly when `x ≥ y`).
/// Same cycle cost as [`sub_words`]; the difference lands in `out_row` as
/// a by-product (`x − y` when `x ≥ y`, the wrapped value otherwise) —
/// exposing the intermediate per C-INTERMEDIATE.
///
/// # Errors
///
/// Propagates crossbar errors.
#[allow(clippy::too_many_arguments)] // one parameter per row of the layout
pub fn greater_equal(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    x_row: usize,
    y_row: usize,
    not_y_row: usize,
    out_row: usize,
    cols: Range<usize>,
    scratch: &SerialScratch,
) -> Result<bool> {
    let end = cols.end;
    sub_words(xbar, block, x_row, y_row, not_y_row, out_row, cols, scratch)?;
    // The ripple leaves the *complemented* carry at (carry row, end);
    // reading it through the sense amplifier costs no cycles.
    let carry_comp = xbar.read_bit(block, scratch.carry, end)?;
    Ok(!carry_comp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apim_crossbar::CrossbarConfig;

    fn xbar() -> BlockedCrossbar {
        BlockedCrossbar::new(CrossbarConfig::default()).unwrap()
    }

    #[test]
    fn subtracts_small_numbers() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        assert_eq!(subtract(&mut x, b, 100, 58, 8).unwrap(), 42);
    }

    #[test]
    fn wraps_like_twos_complement() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        // 5 - 9 = -4 = 0xFC in 8 bits.
        assert_eq!(subtract(&mut x, b, 5, 9, 8).unwrap(), 0xFC);
    }

    #[test]
    fn exhaustive_4_bit() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        for a in 0u64..16 {
            for c in 0u64..16 {
                let got = subtract(&mut x, b, a, c, 4).unwrap();
                assert_eq!(got, a.wrapping_sub(c) & 0xF, "{a}-{c}");
            }
        }
    }

    #[test]
    fn costs_12n_plus_2_cycles() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        let n = 16;
        // Account only the subtraction, not the operand preloads.
        let mut alloc = RowAllocator::new(x.rows());
        let rows = alloc.alloc_many(4).unwrap();
        let scratch = SerialScratch::alloc(&mut alloc).unwrap();
        let bits = |v: u64| (0..n).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>();
        x.preload_word(b, rows[0], 0, &bits(50_000)).unwrap();
        x.preload_word(b, rows[1], 0, &bits(12_345)).unwrap();
        let before = x.stats().cycles;
        sub_words(
            &mut x,
            b,
            rows[0],
            rows[1],
            rows[2],
            rows[3],
            0..n,
            &scratch,
        )
        .unwrap();
        assert_eq!((x.stats().cycles - before).get(), (12 * n + 2) as u64);
    }

    #[test]
    fn zero_minus_zero_is_zero() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        assert_eq!(subtract(&mut x, b, 0, 0, 8).unwrap(), 0);
    }

    #[test]
    fn comparator_exhaustive_4_bit() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        let n = 4;
        for a in 0u64..16 {
            for c in 0u64..16 {
                let mut alloc = RowAllocator::new(x.rows());
                let rows = alloc.alloc_many(4).unwrap();
                let scratch = SerialScratch::alloc(&mut alloc).unwrap();
                let bits = |v: u64| (0..n).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>();
                x.preload_word(b, rows[0], 0, &bits(a)).unwrap();
                x.preload_word(b, rows[1], 0, &bits(c)).unwrap();
                let ge = greater_equal(
                    &mut x,
                    b,
                    rows[0],
                    rows[1],
                    rows[2],
                    rows[3],
                    0..n,
                    &scratch,
                )
                .unwrap();
                assert_eq!(ge, a >= c, "{a} >= {c}");
            }
        }
    }
}
