//! In-memory division (extension).
//!
//! The paper's kernels avoid division ("approximated by [add and
//! multiply]"), but a general PIM library needs one. This is classic
//! restoring division realized from the primitives this crate already
//! validates gate-level: per quotient bit, one trial subtraction of the
//! shifted divisor (the [`crate::subtractor`] netlist) whose carry-out *is*
//! the comparison — restore is free because the remainder register is only
//! overwritten when the trial succeeds.
//!
//! Cost: `N` trial subtractions over a `2N`-bit window ⇒
//! `N · (12·2N + 2)` cycles — division is an order of magnitude more
//! expensive than multiplication in-memory, which is exactly why the
//! paper's workloads were formulated without it.

use apim_crossbar::{BlockId, BlockedCrossbar, CrossbarError, Result, RowAllocator};
use apim_device::Cycles;

use crate::adder_serial::SerialScratch;
use crate::subtractor::greater_equal;

/// Quotient and remainder of a gate-level division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivRun {
    /// `x / y`.
    pub quotient: u64,
    /// `x mod y`.
    pub remainder: u64,
    /// Cycles charged.
    pub cycles: Cycles,
}

/// Divides `x` by `y` (`n`-bit operands) on the crossbar with restoring
/// division.
///
/// # Errors
///
/// Returns [`CrossbarError::InvalidConfig`] for a zero divisor or operands
/// exceeding `n` bits; crossbar errors propagate. The block needs
/// ~16 rows and `2n + 2` columns.
pub fn divide(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    x: u64,
    y: u64,
    n: usize,
) -> Result<DivRun> {
    if y == 0 {
        return Err(CrossbarError::InvalidConfig("division by zero".into()));
    }
    if n < 64 && (x >> n != 0 || y >> n != 0) {
        return Err(CrossbarError::InvalidConfig(format!(
            "operands must fit in {n} bits"
        )));
    }
    let w = 2 * n; // remainder window: remainder < y << n
    let mut alloc = RowAllocator::new(xbar.rows());
    let rows = alloc.alloc_many(4)?; // remainder, shifted divisor, !divisor, trial
    let scratch = SerialScratch::alloc(&mut alloc)?;
    // Word stores split a > 64-bit request into two accounting ops, so the
    // packed fast path only applies while the window fits one word.
    let preload_window = |xbar: &mut BlockedCrossbar, row: usize, v: u128| -> Result<()> {
        if w <= 64 {
            xbar.preload_u64(block, row, 0, w, v as u64)
        } else {
            let bits: Vec<bool> = (0..w).map(|i| (v >> i) & 1 == 1).collect();
            xbar.preload_word(block, row, 0, &bits)
        }
    };

    // Remainder register starts as the dividend over the full window.
    preload_window(xbar, rows[0], u128::from(x))?;
    let before = xbar.stats().cycles;
    let mut quotient = 0u64;
    for step in (0..n).rev() {
        // Trial: remainder - (y << step).
        let shifted = (y as u128) << step;
        preload_window(xbar, rows[1], shifted)?;
        let ge = greater_equal(
            xbar,
            block,
            rows[0],
            rows[1],
            rows[2],
            rows[3],
            0..w,
            &scratch,
        )?;
        if ge {
            quotient |= 1 << step;
            // Commit the difference as the new remainder: a shifted copy
            // through the block's own rows (2 NOTs, 2 cycles).
            xbar.init_rows(block, &[rows[2]], 0..w)?;
            xbar.nor_rows_shifted(
                &[apim_crossbar::RowRef::new(block, rows[3])],
                apim_crossbar::RowRef::new(block, rows[2]),
                0..w,
                0,
            )?;
            xbar.init_rows(block, &[rows[0]], 0..w)?;
            xbar.nor_rows_shifted(
                &[apim_crossbar::RowRef::new(block, rows[2])],
                apim_crossbar::RowRef::new(block, rows[0]),
                0..w,
                0,
            )?;
        }
        // Restoring is free: on failure the remainder row was never
        // touched (the trial wrote only the scratch output row).
    }
    let remainder = xbar.peek_u64(block, rows[0], 0, n)?;
    Ok(DivRun {
        quotient,
        remainder,
        cycles: xbar.stats().cycles - before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apim_crossbar::CrossbarConfig;

    fn xbar() -> BlockedCrossbar {
        BlockedCrossbar::new(CrossbarConfig::default()).unwrap()
    }

    #[test]
    fn divides_exactly() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        let run = divide(&mut x, b, 84, 7, 8).unwrap();
        assert_eq!(run.quotient, 12);
        assert_eq!(run.remainder, 0);
    }

    #[test]
    fn remainder_is_correct() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        let run = divide(&mut x, b, 100, 7, 8).unwrap();
        assert_eq!(run.quotient, 14);
        assert_eq!(run.remainder, 2);
    }

    #[test]
    fn exhaustive_5_bit() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        for dividend in 0u64..32 {
            for divisor in 1u64..32 {
                let run = divide(&mut x, b, dividend, divisor, 5).unwrap();
                assert_eq!(run.quotient, dividend / divisor, "{dividend}/{divisor}");
                assert_eq!(run.remainder, dividend % divisor, "{dividend}%{divisor}");
            }
        }
    }

    #[test]
    fn division_by_zero_rejected() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        assert!(divide(&mut x, b, 5, 0, 8).is_err());
    }

    #[test]
    fn oversized_operands_rejected() {
        let mut x = xbar();
        let b = x.block(1).unwrap();
        assert!(divide(&mut x, b, 256, 3, 8).is_err());
    }

    #[test]
    fn division_is_much_slower_than_multiplication() {
        // The extension quantifies the paper's implicit design rule:
        // division costs ~N trial subtractions over a 2N window.
        let mut x = xbar();
        let b = x.block(1).unwrap();
        let run = divide(&mut x, b, 255, 3, 8).unwrap();
        let floor = 8 * (12 * 16 + 2);
        assert!(
            run.cycles.get() >= floor as u64,
            "{} cycles < {floor}",
            run.cycles
        );
        use crate::model::CostModel;
        let mul = CostModel::new(&apim_device::Device::default())
            .multiply_trunc_expected(8, crate::PrecisionMode::Exact);
        assert!(run.cycles.get() > 5 * mul.cycles.get());
    }
}
