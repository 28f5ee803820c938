//! Wallace-tree N:2 reduction toggling between two processing blocks
//! (§3.2–3.3).
//!
//! At every stage the live operands are grouped in threes; each group is
//! compressed 3:2 by [`crate::adder_csa::csa_group`] with its outputs
//! steered into the *other* block (sum unshifted, carry shifted by one
//! bitline through the configurable interconnect). Leftover operands are
//! copied across so the next stage again finds everything in one block —
//! "N:2 reduction can be efficiently executed by utilising only 2 blocks of
//! the memory, toggling between them at every step".
//!
//! # Parallelism accounting
//!
//! Groups within a stage are independent and execute concurrently on the
//! hardware (they occupy disjoint rows); the simulator replays them
//! sequentially and then rewinds the serialization overhead so every stage
//! costs exactly 13 cycles, while all writes and energy remain charged.
//! Leftover copies (2 NOT cycles) hide under the same 13-cycle window.

use apim_crossbar::{BlockId, BlockedCrossbar, Result, RowRef};
use apim_device::Cycles;
use std::ops::Range;

use crate::adder_csa::{csa_group_lanes, CSA_SCRATCH_ROWS};
use crate::adder_serial::{add_words, SerialScratch};

/// Zeroes a row over the physical lane span of `cols` plus a two-logical-
/// column carry-drift margin (`2 * lanes` bitlines) — free of cycles,
/// charged as writes.
fn zero_row(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    row: usize,
    cols: &Range<usize>,
    lanes: usize,
) -> Result<()> {
    let width = (cols.len() + 2) * lanes;
    xbar.preload_zeros(block, row, cols.start * lanes, width)
}

/// Reduces the operands stored in rows `base .. base + count` of `src`
/// down to at most two, ping-ponging between `src` and `dst`. Every row
/// holds `lanes` independent operands in the interleaved layout of
/// [`crate::lanes`] (logical column `c` of lane `j` at bitline
/// `c * lanes + j`; one lane is the plain word layout), and each stage
/// compresses all of them at once via [`crate::adder_csa::csa_group_lanes`].
///
/// The whole working region (operands, stage outputs, scratch) is offset
/// by `base` wordlines, which wear-leveling callers rotate across
/// invocations. Returns the block holding the survivors and how many there
/// are (rows `base ..` of that block, in the canonical order matching
/// [`crate::functional::reduce_step`]).
///
/// Each stage charges exactly 13 cycles (see the module docs); the total is
/// `13 · tree_stages(count)` at every lane count, which is the batching
/// win.
///
/// # Errors
///
/// Propagates crossbar errors; each block needs `base + count +
/// CSA_SCRATCH_ROWS` rows and `(cols.end + 2) * lanes` columns.
#[allow(clippy::too_many_arguments)] // one parameter per dimension of the region
pub fn reduce_rows_to_two_lanes(
    xbar: &mut BlockedCrossbar,
    src: BlockId,
    dst: BlockId,
    count: usize,
    cols: Range<usize>,
    lanes: usize,
    base: usize,
) -> Result<(BlockId, usize)> {
    // The interleaved layout keeps the working window contiguous, so every
    // row-parallel op below just runs over the scaled physical span.
    let span = cols.start * lanes..cols.end * lanes;
    let mut cur = src;
    let mut oth = dst;
    let mut k = count;
    while k > 2 {
        let groups = k / 3;
        let leftovers = k % 3;
        let scratch: [usize; CSA_SCRATCH_ROWS] = core::array::from_fn(|i| base + k + i);
        let before = xbar.stats().cycles;
        for g in 0..groups {
            let sum_row = base + 2 * g;
            let carry_row = base + 2 * g + 1;
            zero_row(xbar, oth, sum_row, &cols, lanes)?;
            zero_row(xbar, oth, carry_row, &cols, lanes)?;
            csa_group_lanes(
                xbar,
                RowRef::new(cur, base + 3 * g),
                RowRef::new(cur, base + 3 * g + 1),
                RowRef::new(cur, base + 3 * g + 2),
                RowRef::new(oth, sum_row),
                RowRef::new(oth, carry_row),
                cols.clone(),
                lanes,
                &scratch,
            )?;
        }
        for l in 0..leftovers {
            let src_row = base + 3 * groups + l;
            let dst_row = base + 2 * groups + l;
            zero_row(xbar, oth, dst_row, &cols, lanes)?;
            // Copy = two NOTs; the intermediate complement reuses the first
            // scratch row.
            xbar.init_rows(cur, &[scratch[0]], span.clone())?;
            xbar.nor_rows_shifted(
                &[RowRef::new(cur, src_row)],
                RowRef::new(cur, scratch[0]),
                span.clone(),
                0,
            )?;
            xbar.init_rows(oth, &[dst_row], span.clone())?;
            xbar.nor_rows_shifted(
                &[RowRef::new(cur, scratch[0])],
                RowRef::new(oth, dst_row),
                span.clone(),
                0,
            )?;
        }
        // Rewind serialization: the hardware runs all groups (and hides the
        // leftover copies) within one 13-cycle stage.
        let charged = xbar.stats().cycles - before;
        xbar.rewind_cycles(charged.saturating_sub(Cycles::new(13)));
        k = 2 * groups + leftovers;
        std::mem::swap(&mut cur, &mut oth);
    }
    Ok((cur, k))
}

/// Sums the `count` operands stored in rows `0..count` of `src` (each
/// zero-padded over `0..result_bits`): Wallace reduction followed by a
/// final serial addition. Returns the block and row holding the
/// `result_bits`-bit sum.
///
/// This is the paper's fast multi-operand adder benchmarked in Figure 6;
/// its cost matches [`crate::CostModel::sum_reduce`] with zero relax bits.
///
/// # Errors
///
/// Propagates crossbar errors (row/column budget as in
/// [`reduce_rows_to_two_lanes`], plus 13 rows for the final serial adder).
pub fn sum_rows(
    xbar: &mut BlockedCrossbar,
    src: BlockId,
    dst: BlockId,
    count: usize,
    result_bits: usize,
) -> Result<(BlockId, usize)> {
    if count == 0 {
        return Ok((src, 0)); // row 0 untouched; caller sees its own zeros
    }
    let cols = 0..result_bits;
    let (block, survivors) = reduce_rows_to_two_lanes(xbar, src, dst, count, cols.clone(), 1, 0)?;
    if survivors < 2 {
        return Ok((block, 0));
    }
    let out_row = 2;
    let mut alloc = apim_crossbar::RowAllocator::new(xbar.rows());
    alloc.alloc_many(3)?; // rows 0,1 operands; row 2 result
    let scratch = SerialScratch::alloc(&mut alloc)?;
    add_words(xbar, block, 0, 1, out_row, cols, &scratch)?;
    Ok((block, out_row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional;
    use crate::model::{ceil_log2, CostModel};
    use apim_crossbar::{BlockedCrossbar, CrossbarConfig};
    use apim_device::Device;

    fn to_bits(v: u64, n: usize) -> Vec<bool> {
        (0..n).map(|i| (v >> i) & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    fn setup(values: &[u64], window: usize) -> (BlockedCrossbar, BlockId, BlockId) {
        let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
        let src = xbar.block(1).unwrap();
        let dst = xbar.block(2).unwrap();
        for (row, &v) in values.iter().enumerate() {
            xbar.preload_word(src, row, 0, &to_bits(v, window)).unwrap();
        }
        xbar.reset_stats();
        (xbar, src, dst)
    }

    #[test]
    fn reduce_preserves_total() {
        let values: Vec<u64> = vec![11, 22, 33, 44, 55, 66, 77, 88, 99];
        let window = 12;
        let (mut xbar, src, dst) = setup(&values, window);
        let (block, k) =
            reduce_rows_to_two_lanes(&mut xbar, src, dst, values.len(), 0..window, 1, 0).unwrap();
        assert_eq!(k, 2);
        let a = from_bits(&xbar.peek_word(block, 0, 0, window + 1).unwrap());
        let b = from_bits(&xbar.peek_word(block, 1, 0, window + 1).unwrap());
        assert_eq!(a + b, values.iter().sum::<u64>());
    }

    #[test]
    fn reduce_matches_functional_order_bit_exactly() {
        let values: Vec<u64> = vec![0x3A, 0x15, 0x77, 0x01, 0xFF, 0x2C, 0x63];
        let window = 12;
        let (mut xbar, src, dst) = setup(&values, window);
        let (block, k) =
            reduce_rows_to_two_lanes(&mut xbar, src, dst, values.len(), 0..window, 1, 0).unwrap();
        assert_eq!(k, 2);
        let expected =
            functional::reduce_to_two(&values.iter().map(|&v| v as u128).collect::<Vec<_>>());
        let a = from_bits(&xbar.peek_word(block, 0, 0, window + 1).unwrap());
        let b = from_bits(&xbar.peek_word(block, 1, 0, window + 1).unwrap());
        assert_eq!(a as u128, expected[0], "sum word order");
        assert_eq!(b as u128, expected[1], "carry word order");
    }

    #[test]
    fn nine_operands_take_four_stages() {
        let values: Vec<u64> = (1..=9).collect();
        let (mut xbar, src, dst) = setup(&values, 8);
        reduce_rows_to_two_lanes(&mut xbar, src, dst, 9, 0..8, 1, 0).unwrap();
        assert_eq!(
            xbar.stats().cycles.get(),
            4 * 13,
            "9:2 in four 13-cycle stages"
        );
    }

    #[test]
    fn reduce_lanes_preserves_every_lane_total_at_serial_cycle_cost() {
        use crate::lanes::{preload_lanes, read_lanes};
        let lanes = 64;
        let window = 10;
        let count = 7;
        let mut xbar = BlockedCrossbar::new(CrossbarConfig {
            cols: 1024,
            ..CrossbarConfig::default()
        })
        .unwrap();
        let src = xbar.block(1).unwrap();
        let dst = xbar.block(2).unwrap();
        // Row r, lane j holds a distinct small operand.
        let operands: Vec<Vec<u64>> = (0..count)
            .map(|r| {
                (0..lanes as u64)
                    .map(|j| (j * 19 + r as u64 * 7 + 1) & 0x3F)
                    .collect()
            })
            .collect();
        for (r, vals) in operands.iter().enumerate() {
            preload_lanes(&mut xbar, src, r, 0, window, lanes, vals).unwrap();
        }
        xbar.reset_stats();
        let (block, k) =
            reduce_rows_to_two_lanes(&mut xbar, src, dst, count, 0..window, lanes, 0).unwrap();
        assert_eq!(k, 2);
        // Same stage count as the 1-lane reduction: 7 -> 5 -> 4 -> 3 -> 2.
        assert_eq!(xbar.stats().cycles.get(), 4 * 13);
        let a = read_lanes(&xbar, block, 0, 0, window + 1, lanes).unwrap();
        let b = read_lanes(&xbar, block, 1, 0, window + 1, lanes).unwrap();
        for j in 0..lanes {
            let total: u64 = operands.iter().map(|vals| vals[j]).sum();
            assert_eq!(a[j] + b[j], total, "lane {j}");
        }
    }

    #[test]
    fn small_counts_are_noops() {
        let (mut xbar, src, dst) = setup(&[5, 7], 8);
        let (block, k) = reduce_rows_to_two_lanes(&mut xbar, src, dst, 2, 0..8, 1, 0).unwrap();
        assert_eq!((block, k), (src, 2));
        assert_eq!(xbar.stats().cycles.get(), 0);
        let _ = dst;
    }

    #[test]
    fn sum_rows_computes_multi_operand_sum() {
        let values: Vec<u64> = vec![100, 200, 300, 400, 500, 600, 700];
        let operand_bits = 10;
        let result_bits = operand_bits + ceil_log2(values.len() as u32) as usize;
        let (mut xbar, src, dst) = setup(
            &values,
            result_bits, // zero-padded to the full window
        );
        let (block, row) = sum_rows(&mut xbar, src, dst, values.len(), result_bits).unwrap();
        let got = from_bits(&xbar.peek_word(block, row, 0, result_bits).unwrap());
        assert_eq!(got, 2800);
    }

    #[test]
    fn sum_rows_cycles_match_cost_model() {
        let values: Vec<u64> = (1..=16).map(|i| i * 37).collect();
        let operand_bits = 12u32;
        let result_bits = operand_bits + ceil_log2(values.len() as u32);
        let (mut xbar, src, dst) = setup(&values, result_bits as usize);
        sum_rows(&mut xbar, src, dst, values.len(), result_bits as usize).unwrap();
        let model = CostModel::new(&Device::default());
        let predicted = model.sum_reduce(values.len() as u32, operand_bits, 0);
        assert_eq!(xbar.stats().cycles, predicted.cycles);
    }

    #[test]
    fn sum_rows_energy_matches_cost_model() {
        let values: Vec<u64> = vec![9, 18, 27, 36, 45, 54];
        let operand_bits = 8u32;
        let result_bits = operand_bits + ceil_log2(values.len() as u32);
        let (mut xbar, src, dst) = setup(&values, result_bits as usize);
        sum_rows(&mut xbar, src, dst, values.len(), result_bits as usize).unwrap();
        let model = CostModel::new(&Device::default());
        let predicted = model.sum_reduce(values.len() as u32, operand_bits, 0);
        let rel = (xbar.stats().energy.as_joules() - predicted.energy.as_joules()).abs()
            / predicted.energy.as_joules();
        assert!(rel < 1e-9, "energy mismatch: {rel}");
    }

    #[test]
    fn single_operand_passes_through() {
        let (mut xbar, src, dst) = setup(&[42], 8);
        let (block, row) = sum_rows(&mut xbar, src, dst, 1, 8).unwrap();
        assert_eq!(from_bits(&xbar.peek_word(block, row, 0, 8).unwrap()), 42);
        assert_eq!(xbar.stats().cycles.get(), 0);
    }
}
