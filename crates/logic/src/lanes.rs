//! Lane-generic arithmetic: one netlist per primitive, run over `L ≤ 64`
//! independent instances per microprogram pass.
//!
//! The paper's column-parallel NOR costs one cycle regardless of how many
//! bitlines it spans, so a kernel whose netlist touches logical column `c`
//! can just as well touch a *span* of bitlines `c·L .. c·L + L` — running
//! `L` independent operand instances (lanes) through the identical gate
//! sequence for the cost of one. Lanes are data, not control: the recorded
//! microprogram is the same shape at every `L`, which is why the hazard
//! passes and the symbolic equivalence prover certify it once and the
//! verdict transfers across lanes.
//!
//! Layout: logical column `c` of lane `j` lives at bitline `c * lanes + j`.
//! [`preload_lanes`] / [`read_lanes`] are the bit transpose between `L`
//! ordinary operand words and that interleaved layout, built on the
//! existing `preload_u64` / `peek_u64` word APIs (one word per *bit
//! position*, carrying that bit of all `L` instances).
//!
//! [`add_lanes`], [`add_lanes_with_carry`] and [`sub_lanes`] are the only
//! bodies of the `12N + 1` ripple adder and the `12N + 2` subtractor; the
//! word kernels [`crate::adder_serial::add_words`] and
//! [`crate::subtractor::sub_words`] are these netlists at `lanes = 1`, and
//! the cycle counts do not depend on `lanes`. The lane count only picks
//! which crossbar ops a gate drives, once per call, in `LaneOps`.

use apim_crossbar::{BlockId, BlockedCrossbar, CrossbarError, Result, RowRef, WORD_BITS};
use std::ops::Range;

use crate::adder_serial::SerialScratch;

/// Rejects lane counts outside `1..=64` (one u64 word of instances).
fn check_lanes(lanes: usize) -> Result<()> {
    if lanes == 0 || lanes > WORD_BITS {
        return Err(CrossbarError::InvalidConfig(format!(
            "lane count {lanes} outside 1..={WORD_BITS}"
        )));
    }
    Ok(())
}

/// One netlist gate: initialize the output span, then NOR the inputs into
/// it (one cycle). Cells are `(row, first bitline of the lane span)`.
type Gate =
    fn(&mut BlockedCrossbar, BlockId, &[(usize, usize)], (usize, usize), usize) -> Result<()>;

/// The crossbar ops one primitive call drives, picked once from its lane
/// count — the only place the lane count chooses ops. One lane drives
/// single cells (`init_cells` / `nor_cells`, a `preload_bit` carry seed),
/// so the word kernels record exactly the scattered single-cell trace; more
/// lanes drive the span ops (`init_rows` / `nor_lanes`, a `preload_u64`
/// seed word) over `lanes` bitlines.
#[derive(Clone, Copy)]
struct LaneOps {
    block: BlockId,
    lanes: usize,
    gate: Gate,
}

impl LaneOps {
    fn new(block: BlockId, lanes: usize) -> Result<Self> {
        check_lanes(lanes)?;
        let gate: Gate = if lanes == 1 {
            |xbar, block, inputs, out, _| {
                xbar.init_cells(block, &[out])?;
                xbar.nor_cells(block, inputs, out)
            }
        } else {
            |xbar, block, inputs, out, lanes| {
                xbar.init_rows(block, &[out.0], out.1..out.1 + lanes)?;
                xbar.nor_lanes(block, inputs, out, lanes)
            }
        };
        Ok(LaneOps { block, lanes, gate })
    }

    /// `out = NOR(inputs)` in every lane.
    fn gate(
        &self,
        xbar: &mut BlockedCrossbar,
        inputs: &[(usize, usize)],
        out: (usize, usize),
    ) -> Result<()> {
        (self.gate)(xbar, self.block, inputs, out, self.lanes)
    }

    /// Seeds the complemented carry chain at bitline `p` with `carry_in`
    /// in every lane: the seed cells hold `carry_in` and the chain starts
    /// at `Cin' = NOR(seed)` (one cycle).
    fn seed_carry(
        &self,
        xbar: &mut BlockedCrossbar,
        scratch: &SerialScratch,
        p: usize,
        carry_in: bool,
    ) -> Result<()> {
        if self.lanes == 1 {
            xbar.preload_bit(self.block, scratch.zero, p, carry_in)?;
        } else {
            let word = (u64::MAX >> (WORD_BITS - self.lanes)) * u64::from(carry_in);
            xbar.preload_u64(self.block, scratch.zero, p, self.lanes, word)?;
        }
        self.gate(xbar, &[(scratch.zero, p)], (scratch.carry, p))
    }
}

/// Stores `values[j]` (each `width` bits) as lane `j` of the interleaved
/// layout rooted at `col0`: bit `i` of lane `j` lands at bitline
/// `col0 + i * lanes + j`. One lane is one `preload_u64` of the whole
/// word, more lanes one per bit position; free of cycles, charged as
/// writes.
///
/// # Errors
///
/// Rejects `values.len() != lanes`, lane counts outside `1..=64`, and
/// propagates crossbar bounds errors.
pub fn preload_lanes(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    row: usize,
    col0: usize,
    width: usize,
    lanes: usize,
    values: &[u64],
) -> Result<()> {
    check_lanes(lanes)?;
    if values.len() != lanes {
        return Err(CrossbarError::InvalidConfig(format!(
            "preload_lanes got {} values for {lanes} lanes",
            values.len()
        )));
    }
    if lanes == 1 {
        return xbar.preload_u64(block, row, col0, width, values[0]);
    }
    for bit in 0..width {
        let mut word = 0u64;
        for (j, &v) in values.iter().enumerate() {
            word |= ((v >> bit) & 1) << j;
        }
        xbar.preload_u64(block, row, col0 + bit * lanes, lanes, word)?;
    }
    Ok(())
}

/// Reads back `lanes` operand words of `width` bits from the interleaved
/// layout rooted at `col0` — the inverse transpose of [`preload_lanes`].
///
/// # Errors
///
/// Rejects lane counts outside `1..=64`; propagates crossbar bounds errors.
pub fn read_lanes(
    xbar: &BlockedCrossbar,
    block: BlockId,
    row: usize,
    col0: usize,
    width: usize,
    lanes: usize,
) -> Result<Vec<u64>> {
    check_lanes(lanes)?;
    let mut values = vec![0u64; lanes];
    for bit in 0..width {
        let word = xbar.peek_u64(block, row, col0 + bit * lanes, lanes)?;
        for (j, v) in values.iter_mut().enumerate() {
            *v |= ((word >> j) & 1) << bit;
        }
    }
    Ok(values)
}

/// Serial ripple addition over logical columns `cols`: lane `j` of
/// `out_row` receives `x_j + y_j mod 2^N`. Carry-in is zero in every lane.
/// Costs `12N + 1` cycles for `N = cols.len()` — independent of `lanes`,
/// which is the whole point.
///
/// Layout as in [`preload_lanes`] with `col0 = 0`: logical column `c`
/// occupies bitlines `c * lanes .. (c + 1) * lanes`. The final complemented
/// carries are left in the lane span at logical column `cols.end` of
/// `scratch.carry`.
///
/// # Errors
///
/// Propagates crossbar errors; the block needs `(cols.end + 1) * lanes`
/// bitlines.
#[allow(clippy::too_many_arguments)] // one parameter per row of the layout
pub fn add_lanes(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    x_row: usize,
    y_row: usize,
    out_row: usize,
    cols: Range<usize>,
    lanes: usize,
    scratch: &SerialScratch,
) -> Result<()> {
    LaneOps::new(block, lanes)?.seed_carry(xbar, scratch, cols.start * lanes, false)?;
    add_lanes_with_carry(xbar, block, x_row, y_row, out_row, cols, lanes, scratch)
}

/// [`add_lanes`] with the carry chain seeded from existing complemented
/// carries in the lane span at logical column `cols.start` of
/// `scratch.carry`. Costs `12N` cycles. The 12-NOR full-adder netlist is
/// drawn in [`crate::adder_serial`].
///
/// # Errors
///
/// Propagates crossbar errors.
#[allow(clippy::too_many_arguments)] // one parameter per row of the layout
pub fn add_lanes_with_carry(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    x_row: usize,
    y_row: usize,
    out_row: usize,
    cols: Range<usize>,
    lanes: usize,
    scratch: &SerialScratch,
) -> Result<()> {
    let ops = LaneOps::new(block, lanes)?;
    let [n1, n2, n3, n4, n5, m1, m2, m3, q1, q2] = scratch.netlist;
    let carry = scratch.carry;
    for c in cols {
        let p = c * lanes;
        let a = (x_row, p);
        let b = (y_row, p);
        let cin = (carry, p);
        ops.gate(xbar, &[a, b], (n1, p))?;
        ops.gate(xbar, &[a, (n1, p)], (n2, p))?;
        ops.gate(xbar, &[b, (n1, p)], (n3, p))?;
        ops.gate(xbar, &[(n2, p), (n3, p)], (n4, p))?;
        ops.gate(xbar, &[(n4, p)], (n5, p))?;
        ops.gate(xbar, &[(n5, p), cin], (m1, p))?;
        ops.gate(xbar, &[(n5, p), (m1, p)], (m2, p))?;
        ops.gate(xbar, &[cin, (m1, p)], (m3, p))?;
        ops.gate(xbar, &[(m2, p), (m3, p)], (out_row, p))?;
        ops.gate(xbar, &[(n4, p), cin], (q1, p))?;
        ops.gate(xbar, &[(n1, p), (n2, p), (n3, p)], (q2, p))?;
        ops.gate(xbar, &[(q1, p), (q2, p)], (carry, p + lanes))?;
    }
    Ok(())
}

/// Two's-complement subtraction `x − y = x + ȳ + 1`: lane `j` of `out_row`
/// receives `x_j − y_j mod 2^N`. Costs `12N + 2` cycles, independent of
/// `lanes`: the complement is one column-parallel NOT over the whole
/// interleaved span (which is contiguous) into `not_y_row`, and the `+1`
/// is a carry seed of 1 instead of 0.
///
/// # Errors
///
/// Propagates crossbar errors.
#[allow(clippy::too_many_arguments)] // one parameter per row of the layout
pub fn sub_lanes(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    x_row: usize,
    y_row: usize,
    not_y_row: usize,
    out_row: usize,
    cols: Range<usize>,
    lanes: usize,
    scratch: &SerialScratch,
) -> Result<()> {
    let ops = LaneOps::new(block, lanes)?;
    let span = cols.start * lanes..cols.end * lanes;
    xbar.init_rows(block, &[not_y_row], span.clone())?;
    xbar.nor_rows_shifted(
        &[RowRef::new(block, y_row)],
        RowRef::new(block, not_y_row),
        span,
        0,
    )?;
    ops.seed_carry(xbar, scratch, cols.start * lanes, true)?;
    add_lanes_with_carry(xbar, block, x_row, not_y_row, out_row, cols, lanes, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use apim_crossbar::{Backend, CrossbarConfig, RowAllocator};

    /// A crossbar wide enough for 64 lanes of 8-bit operands plus carry.
    fn wide_xbar(backend: Backend) -> BlockedCrossbar {
        BlockedCrossbar::new(CrossbarConfig {
            cols: 1024,
            backend,
            ..CrossbarConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn preload_read_round_trips_the_transpose() {
        for backend in [Backend::Packed, Backend::Scalar] {
            let mut xbar = wide_xbar(backend);
            let blk = xbar.block(0).unwrap();
            let values: Vec<u64> = (0..64).map(|j| (j * 37 + 11) & 0xFF).collect();
            preload_lanes(&mut xbar, blk, 3, 0, 8, 64, &values).unwrap();
            assert_eq!(read_lanes(&xbar, blk, 3, 0, 8, 64).unwrap(), values);
        }
    }

    #[test]
    fn transpose_rejects_bad_lane_counts() {
        let mut xbar = wide_xbar(Backend::Packed);
        let blk = xbar.block(0).unwrap();
        assert!(preload_lanes(&mut xbar, blk, 0, 0, 8, 0, &[]).is_err());
        assert!(preload_lanes(&mut xbar, blk, 0, 0, 8, 65, &[0; 65]).is_err());
        assert!(preload_lanes(&mut xbar, blk, 0, 0, 8, 4, &[0; 3]).is_err());
        assert!(read_lanes(&xbar, blk, 0, 0, 8, 0).is_err());
    }

    fn run_add_lanes(backend: Backend, lanes: usize, n: usize) -> (Vec<u64>, Vec<u64>, u64) {
        let mut xbar = wide_xbar(backend);
        let blk = xbar.block(1).unwrap();
        let xs: Vec<u64> = (0..lanes as u64)
            .map(|j| (j * 73 + 5) & spec::mask(n))
            .collect();
        let ys: Vec<u64> = (0..lanes as u64)
            .map(|j| (j * 41 + 190) & spec::mask(n))
            .collect();
        preload_lanes(&mut xbar, blk, 0, 0, n, lanes, &xs).unwrap();
        preload_lanes(&mut xbar, blk, 1, 0, n, lanes, &ys).unwrap();
        let mut alloc = RowAllocator::new(xbar.rows());
        alloc.alloc_many(3).unwrap();
        let scratch = SerialScratch::alloc(&mut alloc).unwrap();
        let before = *xbar.stats();
        add_lanes(&mut xbar, blk, 0, 1, 2, 0..n, lanes, &scratch).unwrap();
        let cycles = (*xbar.stats() - before).cycles.get();
        let sums = read_lanes(&xbar, blk, 2, 0, n, lanes).unwrap();
        let expected: Vec<u64> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| spec::add(x, y, n))
            .collect();
        (sums, expected, cycles)
    }

    #[test]
    fn add_lanes_matches_serial_spec_in_every_lane() {
        for backend in [Backend::Packed, Backend::Scalar] {
            for lanes in [1, 2, 64] {
                let (sums, expected, _) = run_add_lanes(backend, lanes, 8);
                assert_eq!(sums, expected, "{backend:?}, lanes = {lanes}");
            }
        }
    }

    #[test]
    fn add_lanes_cycles_are_width_independent() {
        let n = 8;
        for lanes in [1, 2, 64] {
            let (_, _, cycles) = run_add_lanes(Backend::Packed, lanes, n);
            assert_eq!(cycles, (12 * n + 1) as u64, "lanes = {lanes}");
        }
    }

    #[test]
    fn sub_lanes_matches_serial_spec_in_every_lane() {
        let n = 8;
        for backend in [Backend::Packed, Backend::Scalar] {
            for lanes in [1, 2, 64] {
                let mut xbar = wide_xbar(backend);
                let blk = xbar.block(1).unwrap();
                let xs: Vec<u64> = (0..lanes as u64)
                    .map(|j| (j * 97 + 3) & spec::mask(n))
                    .collect();
                let ys: Vec<u64> = (0..lanes as u64)
                    .map(|j| (j * 59 + 77) & spec::mask(n))
                    .collect();
                preload_lanes(&mut xbar, blk, 0, 0, n, lanes, &xs).unwrap();
                preload_lanes(&mut xbar, blk, 1, 0, n, lanes, &ys).unwrap();
                let mut alloc = RowAllocator::new(xbar.rows());
                alloc.alloc_many(4).unwrap();
                let scratch = SerialScratch::alloc(&mut alloc).unwrap();
                let before = *xbar.stats();
                sub_lanes(&mut xbar, blk, 0, 1, 2, 3, 0..n, lanes, &scratch).unwrap();
                assert_eq!(
                    (*xbar.stats() - before).cycles.get(),
                    (12 * n + 2) as u64,
                    "{backend:?}, lanes = {lanes}"
                );
                let got = read_lanes(&xbar, blk, 3, 0, n, lanes).unwrap();
                let expected: Vec<u64> = xs
                    .iter()
                    .zip(&ys)
                    .map(|(&x, &y)| spec::sub(x, y, n))
                    .collect();
                assert_eq!(got, expected, "{backend:?}, lanes = {lanes}");
            }
        }
    }
}
