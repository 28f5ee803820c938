//! Elementary in-memory gates built from MAGIC NOR.
//!
//! The paper composes everything from NOR (Eq. 2: `AND(A,B) =
//! NOR(NOR(A), NOR(B))`, three cycles). These helpers operate
//! column-parallel on whole row segments and follow the crate's init-then-
//! evaluate discipline, so they compose with the adders and multiplier.

use apim_crossbar::{BlockedCrossbar, CrossbarError, Result, RowRef};
use std::ops::Range;

/// Shifts a column range by `shift`.
///
/// # Errors
///
/// Returns [`CrossbarError::IllegalShift`] when the shifted range would
/// start before column zero. Clamping instead (as an earlier version did)
/// silently shrinks the range, so source and destination widths disagree
/// and the NOR writes fewer bits than the caller asked for.
pub(crate) fn shifted(cols: &Range<usize>, shift: isize) -> Result<Range<usize>> {
    let start = cols.start as isize + shift;
    let end = cols.end as isize + shift;
    if start < 0 || end < 0 {
        return Err(CrossbarError::IllegalShift {
            shift,
            start: cols.start,
            end: cols.end,
        });
    }
    Ok(start as usize..end as usize)
}

/// `dst = NOT(src)` over `cols`, optionally shifted across the
/// interconnect. One cycle (a single-input NOR).
///
/// # Errors
///
/// Propagates any [`apim_crossbar::CrossbarError`] from the underlying
/// primitives (bad coordinates, illegal shift, …).
pub fn not_row(
    xbar: &mut BlockedCrossbar,
    src: RowRef,
    dst: RowRef,
    cols: Range<usize>,
    shift: isize,
) -> Result<()> {
    xbar.init_rows(dst.block, &[dst.row], shifted(&cols, shift)?)?;
    xbar.nor_rows_shifted(&[src], dst, cols, shift)
}

/// `dst = NOR(a, b)` over `cols`. One cycle.
///
/// # Errors
///
/// Propagates crossbar errors; `a` and `b` must share a block.
pub fn nor_row(
    xbar: &mut BlockedCrossbar,
    a: RowRef,
    b: RowRef,
    dst: RowRef,
    cols: Range<usize>,
) -> Result<()> {
    xbar.init_rows(dst.block, &[dst.row], cols.clone())?;
    xbar.nor_rows_shifted(&[a, b], dst, cols, 0)
}

/// `dst = OR(a, b)` over `cols` via `NOT(NOR(a, b))`. Two cycles.
///
/// # Errors
///
/// Propagates crossbar errors.
pub fn or_row(
    xbar: &mut BlockedCrossbar,
    a: RowRef,
    b: RowRef,
    dst: RowRef,
    scratch: RowRef,
    cols: Range<usize>,
) -> Result<()> {
    nor_row(xbar, a, b, scratch, cols.clone())?;
    not_row(xbar, scratch, dst, cols, 0)
}

/// `dst = AND(a, b)` over `cols` via Eq. (2): `NOR(NOR(a), NOR(b))`.
/// Three cycles.
///
/// # Errors
///
/// Propagates crossbar errors.
pub fn and_row(
    xbar: &mut BlockedCrossbar,
    a: RowRef,
    b: RowRef,
    dst: RowRef,
    scratch: [RowRef; 2],
    cols: Range<usize>,
) -> Result<()> {
    not_row(xbar, a, scratch[0], cols.clone(), 0)?;
    not_row(xbar, b, scratch[1], cols.clone(), 0)?;
    nor_row(xbar, scratch[0], scratch[1], dst, cols)
}

/// `dst = NAND(a, b)` over `cols` via `NOT(AND(a, b))`. Four cycles.
///
/// # Errors
///
/// Propagates crossbar errors.
pub fn nand_row(
    xbar: &mut BlockedCrossbar,
    a: RowRef,
    b: RowRef,
    dst: RowRef,
    scratch: [RowRef; 3],
    cols: Range<usize>,
) -> Result<()> {
    and_row(
        xbar,
        a,
        b,
        scratch[2],
        [scratch[0], scratch[1]],
        cols.clone(),
    )?;
    not_row(xbar, scratch[2], dst, cols, 0)
}

/// `dst = XNOR(a, b)` over `cols` — the 4-NOR network the serial adder's
/// netlist is built around. Four cycles.
///
/// # Errors
///
/// Propagates crossbar errors.
pub fn xnor_row(
    xbar: &mut BlockedCrossbar,
    a: RowRef,
    b: RowRef,
    dst: RowRef,
    scratch: [RowRef; 3],
    cols: Range<usize>,
) -> Result<()> {
    let [n1, n2, n3] = scratch;
    nor_row(xbar, a, b, n1, cols.clone())?;
    nor_row(xbar, a, n1, n2, cols.clone())?;
    nor_row(xbar, b, n1, n3, cols.clone())?;
    nor_row(xbar, n2, n3, dst, cols)
}

/// `dst = XOR(a, b)` over `cols` using the 4-NOR XNOR network plus a final
/// inversion. Five cycles.
///
/// # Errors
///
/// Propagates crossbar errors.
pub fn xor_row(
    xbar: &mut BlockedCrossbar,
    a: RowRef,
    b: RowRef,
    dst: RowRef,
    scratch: [RowRef; 4],
    cols: Range<usize>,
) -> Result<()> {
    let [n1, n2, n3, n4] = scratch;
    nor_row(xbar, a, b, n1, cols.clone())?;
    nor_row(xbar, a, n1, n2, cols.clone())?;
    nor_row(xbar, b, n1, n3, cols.clone())?;
    nor_row(xbar, n2, n3, n4, cols.clone())?; // XNOR
    not_row(xbar, n4, dst, cols, 0)
}

/// Transposes a word from row orientation (bits along columns of `row`)
/// to column orientation (bits along rows of `col`): each bit is read
/// through the sense amplifier (free) and written back (one cycle), so the
/// cost is `N` cycles per word.
///
/// This is exactly the overhead §3.3 engineers around: "In order to avoid
/// the time and area overhead involved in transposing and creating
/// multiple copies of multiplier, we read-out the multiplier" — the
/// partial-product generator's per-set-bit copy (`ones + 1` cycles) beats
/// paying `N` cycles per transposed operand. The routine exists for
/// layouts that genuinely need column-oriented words (e.g. feeding
/// [`apim_crossbar::BlockedCrossbar::nor_cols`]).
///
/// # Errors
///
/// Propagates crossbar errors (bounds).
pub fn transpose_row_to_col(
    xbar: &mut BlockedCrossbar,
    block: apim_crossbar::BlockId,
    row: usize,
    col: usize,
    n: usize,
) -> Result<()> {
    for i in 0..n {
        let bit = xbar.read_bit(block, row, i)?;
        xbar.write_back_bit(block, i, col, bit)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apim_crossbar::{CrossbarConfig, RowAllocator};

    const W: usize = 8;

    fn setup(a: u8, b: u8) -> (BlockedCrossbar, apim_crossbar::BlockId, RowAllocator) {
        let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
        let blk = xbar.block(0).unwrap();
        let bits = |v: u8| (0..W).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>();
        xbar.preload_word(blk, 0, 0, &bits(a)).unwrap();
        xbar.preload_word(blk, 1, 0, &bits(b)).unwrap();
        let mut alloc = RowAllocator::new(xbar.rows());
        alloc.alloc_many(2).unwrap(); // rows 0,1 taken by operands
        (xbar, blk, alloc)
    }

    fn word(xbar: &BlockedCrossbar, blk: apim_crossbar::BlockId, row: usize) -> u8 {
        (0..W).fold(0u8, |acc, i| {
            acc | u8::from(xbar.peek_bit(blk, row, i).unwrap()) << i
        })
    }

    #[test]
    fn not_row_inverts() {
        let (mut x, blk, mut al) = setup(0b1010_0110, 0);
        let dst = al.alloc().unwrap();
        not_row(&mut x, RowRef::new(blk, 0), RowRef::new(blk, dst), 0..W, 0).unwrap();
        assert_eq!(word(&x, blk, dst), !0b1010_0110);
    }

    #[test]
    fn and_row_matches_bitwise_and() {
        let (mut x, blk, mut al) = setup(0b1100_1010, 0b1010_0110);
        let rows = al.alloc_many(3).unwrap();
        let before = x.stats().cycles;
        and_row(
            &mut x,
            RowRef::new(blk, 0),
            RowRef::new(blk, 1),
            RowRef::new(blk, rows[0]),
            [RowRef::new(blk, rows[1]), RowRef::new(blk, rows[2])],
            0..W,
        )
        .unwrap();
        assert_eq!(word(&x, blk, rows[0]), 0b1100_1010 & 0b1010_0110);
        // Eq. (2): AND is three NOR cycles.
        assert_eq!((x.stats().cycles - before).get(), 3);
    }

    #[test]
    fn or_row_matches_bitwise_or() {
        let (mut x, blk, mut al) = setup(0b0101_0101, 0b0011_0011);
        let rows = al.alloc_many(2).unwrap();
        or_row(
            &mut x,
            RowRef::new(blk, 0),
            RowRef::new(blk, 1),
            RowRef::new(blk, rows[0]),
            RowRef::new(blk, rows[1]),
            0..W,
        )
        .unwrap();
        assert_eq!(word(&x, blk, rows[0]), 0b0101_0101 | 0b0011_0011);
    }

    #[test]
    fn xor_row_matches_bitwise_xor() {
        let (mut x, blk, mut al) = setup(0b1110_0001, 0b1010_1010);
        let rows = al.alloc_many(5).unwrap();
        xor_row(
            &mut x,
            RowRef::new(blk, 0),
            RowRef::new(blk, 1),
            RowRef::new(blk, rows[0]),
            [
                RowRef::new(blk, rows[1]),
                RowRef::new(blk, rows[2]),
                RowRef::new(blk, rows[3]),
                RowRef::new(blk, rows[4]),
            ],
            0..W,
        )
        .unwrap();
        assert_eq!(word(&x, blk, rows[0]), 0b1110_0001 ^ 0b1010_1010);
    }

    #[test]
    fn nand_and_xnor_match_bitwise_reference() {
        let (mut x, blk, mut al) = setup(0b1100_0101, 0b1010_0011);
        let rows = al.alloc_many(4).unwrap();
        nand_row(
            &mut x,
            RowRef::new(blk, 0),
            RowRef::new(blk, 1),
            RowRef::new(blk, rows[0]),
            [
                RowRef::new(blk, rows[1]),
                RowRef::new(blk, rows[2]),
                RowRef::new(blk, rows[3]),
            ],
            0..W,
        )
        .unwrap();
        assert_eq!(word(&x, blk, rows[0]), !(0b1100_0101u8 & 0b1010_0011));
        xnor_row(
            &mut x,
            RowRef::new(blk, 0),
            RowRef::new(blk, 1),
            RowRef::new(blk, rows[0]),
            [
                RowRef::new(blk, rows[1]),
                RowRef::new(blk, rows[2]),
                RowRef::new(blk, rows[3]),
            ],
            0..W,
        )
        .unwrap();
        assert_eq!(word(&x, blk, rows[0]), !(0b1100_0101u8 ^ 0b1010_0011));
    }

    #[test]
    fn every_two_input_gate_matches_all_256_input_bytes() {
        // Exhaustive: one 8-bit word per operand covers all 4 input
        // combinations per column many times over; sweep all byte pairs
        // on a diagonal to keep runtime sane.
        for v in 0u16..=255 {
            let a = v as u8;
            let b = a.rotate_left(3) ^ 0x5A;
            let (mut x, blk, mut al) = setup(a, b);
            let rows = al.alloc_many(5).unwrap();
            let scratch2 = [RowRef::new(blk, rows[1]), RowRef::new(blk, rows[2])];
            and_row(
                &mut x,
                RowRef::new(blk, 0),
                RowRef::new(blk, 1),
                RowRef::new(blk, rows[0]),
                scratch2,
                0..W,
            )
            .unwrap();
            assert_eq!(word(&x, blk, rows[0]), a & b, "AND {a:#x} {b:#x}");
            or_row(
                &mut x,
                RowRef::new(blk, 0),
                RowRef::new(blk, 1),
                RowRef::new(blk, rows[0]),
                RowRef::new(blk, rows[1]),
                0..W,
            )
            .unwrap();
            assert_eq!(word(&x, blk, rows[0]), a | b, "OR {a:#x} {b:#x}");
        }
    }

    #[test]
    fn gates_work_across_the_interconnect() {
        let (mut x, blk, _) = setup(0b0000_1111, 0);
        let other = x.block(1).unwrap();
        not_row(&mut x, RowRef::new(blk, 0), RowRef::new(other, 0), 0..4, 2).unwrap();
        // in bits 0..4 = 1111, NOTed into cols 2..6 of the other block.
        assert_eq!(
            x.peek_word(other, 0, 2, 4).unwrap(),
            vec![false, false, false, false]
        );
    }

    #[test]
    fn transpose_round_trips_through_column_orientation() {
        let (mut x, blk, _) = setup(0b1011_0010, 0);
        let before = x.stats().cycles;
        transpose_row_to_col(&mut x, blk, 0, 10, W).unwrap();
        assert_eq!((x.stats().cycles - before).get(), W as u64, "N cycles");
        let got = (0..W).fold(0u8, |acc, i| {
            acc | (u8::from(x.peek_bit(blk, i, 10).unwrap()) << i)
        });
        assert_eq!(got, 0b1011_0010);
    }

    #[test]
    fn sense_amp_copies_beat_transposing_the_multiplier() {
        // Quantify §3.3's design argument: generating partial products via
        // the sense-amp read (ones + 1 cycles) vs transposing the
        // multiplier first (N cycles) before a column-oriented scheme
        // could even start.
        use crate::model::CostModel;
        use apim_device::Device;
        let model = CostModel::new(&Device::default());
        let n = 32;
        let transpose_cycles = n as u64; // this module's routine
        for ones in [4u32, 16, 31] {
            let pp = model.partial_products(n, ones).cycles.get();
            assert!(
                pp <= transpose_cycles + 1,
                "ones={ones}: pp {pp} should not exceed a transpose"
            );
        }
    }

    #[test]
    fn shifted_rejects_underflow_instead_of_clamping() {
        assert_eq!(
            shifted(&(0..4), -2),
            Err(apim_crossbar::CrossbarError::IllegalShift {
                shift: -2,
                start: 0,
                end: 4
            })
        );
        assert_eq!(shifted(&(4..8), -2).unwrap(), 2..6);
        assert_eq!(shifted(&(0..4), 3).unwrap(), 3..7);
    }
}
