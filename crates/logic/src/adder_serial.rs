//! Serial in-memory addition: the `12N + 1`-cycle ripple adder.
//!
//! This is the adder style of Talati et al. \[24\], which APIM retains for
//! final carry propagation. Each bit position evaluates a 12-NOR full-adder
//! netlist that consumes the *complement* of the incoming carry and
//! produces the complement of the outgoing one, so no extra inversion is
//! needed between bits:
//!
//! ```text
//! inputs A, B, Cin'                      (Cin' = complemented carry-in)
//! n1 = NOR(A,B)    n2 = NOR(A,n1)   n3 = NOR(B,n1)
//! n4 = NOR(n2,n3)  # XNOR(A,B)      n5 = NOR(n4)      # XOR(A,B)
//! m1 = NOR(n5,Cin') m2 = NOR(n5,m1) m3 = NOR(Cin',m1)
//! S  = NOR(m2,m3)  # XOR(A,B,Cin)
//! q1 = NOR(n4,Cin') # XOR(A,B)·Cin  q2 = NOR(n1,n2,n3) # A·B
//! Cout' = NOR(q1,q2)
//! ```
//!
//! One initial NOR complements the (zero) carry seed, giving `12N + 1`
//! cycles total — exactly the count \[24\] and the paper quote.
//!
//! The netlist has one body, the lane-generic [`crate::lanes::add_lanes`];
//! [`add_words`] and [`add_words_with_carry`] are it at one lane.

use apim_crossbar::{BlockId, BlockedCrossbar, Result, RowAllocator};
use std::ops::Range;

use crate::lanes::{add_lanes, add_lanes_with_carry};

/// Scratch layout for the serial adder: ten netlist rows, one carry row and
/// one all-zero seed row, all in the operands' block.
#[derive(Debug, Clone)]
pub struct SerialScratch {
    /// Ten rows for `n1,n2,n3,n4,n5,m1,m2,m3,q1,q2`.
    pub netlist: [usize; 10],
    /// Carry-complement chain: cell at column `c` holds `Cin'` of bit `c`.
    pub carry: usize,
    /// The carry-seed row: its cell holds the carry-in (0 to add, 1 to
    /// subtract) and its complement starts the carry chain.
    pub zero: usize,
}

impl SerialScratch {
    /// Claims the 12 scratch rows from an allocator.
    ///
    /// # Errors
    ///
    /// Fails if the block does not have 12 free rows.
    pub fn alloc(alloc: &mut RowAllocator) -> Result<Self> {
        let rows = alloc.alloc_many(12)?;
        Ok(SerialScratch {
            netlist: rows[0..10].try_into().expect("ten rows"),
            carry: rows[10],
            zero: rows[11],
        })
    }

    /// Releases the scratch rows.
    ///
    /// # Errors
    ///
    /// Propagates the allocator's rejection if a row was already returned
    /// (see [`RowAllocator::free`]).
    pub fn release(self, alloc: &mut RowAllocator) -> Result<()> {
        alloc.free_many(self.netlist)?;
        alloc.free(self.carry)?;
        alloc.free(self.zero)
    }
}

/// Adds the words in `x_row` and `y_row` over `cols`, writing sum bits into
/// `out_row` (same columns). Carry-in is zero. Costs `12N + 1` cycles for
/// `N = cols.len()`: [`add_lanes`] at one lane.
///
/// The final carry-complement is left at `(scratch.carry, cols.end)` for
/// callers that need the carry-out.
///
/// # Errors
///
/// Propagates crossbar errors (bounds, initialization discipline).
pub fn add_words(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    x_row: usize,
    y_row: usize,
    out_row: usize,
    cols: Range<usize>,
    scratch: &SerialScratch,
) -> Result<()> {
    add_lanes(xbar, block, x_row, y_row, out_row, cols, 1, scratch)
}

/// Adds the words in `x_row` and `y_row` over `cols` with the carry chain
/// seeded from an existing complemented carry at
/// `(scratch.carry, cols.start)`. Costs `12N` cycles:
/// [`add_lanes_with_carry`] at one lane.
///
/// This is the entry point used by the mixed-precision final product stage
/// (§3.4), where the approximate region hands over its exactly-computed
/// boundary carry.
///
/// # Errors
///
/// Propagates crossbar errors.
pub fn add_words_with_carry(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    x_row: usize,
    y_row: usize,
    out_row: usize,
    cols: Range<usize>,
    scratch: &SerialScratch,
) -> Result<()> {
    add_lanes_with_carry(xbar, block, x_row, y_row, out_row, cols, 1, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apim_crossbar::CrossbarConfig;
    use apim_device::Cycles;

    fn to_bits(v: u64, n: usize) -> Vec<bool> {
        (0..n).map(|i| (v >> i) & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    fn run_add(x: u64, y: u64, n: usize) -> (u64, bool, u64) {
        let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
        let blk = xbar.block(1).unwrap();
        xbar.preload_word(blk, 0, 0, &to_bits(x, n)).unwrap();
        xbar.preload_word(blk, 1, 0, &to_bits(y, n)).unwrap();
        let mut alloc = RowAllocator::new(xbar.rows());
        alloc.alloc_many(3).unwrap(); // operands + out
        let scratch = SerialScratch::alloc(&mut alloc).unwrap();
        let before = *xbar.stats();
        add_words(&mut xbar, blk, 0, 1, 2, 0..n, &scratch).unwrap();
        let cycles = (*xbar.stats() - before).cycles.get();
        let sum = from_bits(&xbar.peek_word(blk, 2, 0, n).unwrap());
        let carry_out = !xbar.peek_bit(blk, scratch.carry, n).unwrap();
        (sum, carry_out, cycles)
    }

    #[test]
    fn adds_small_numbers() {
        let (sum, carry, _) = run_add(5, 9, 8);
        assert_eq!(sum, 14);
        assert!(!carry);
    }

    #[test]
    fn carry_out_detected() {
        let (sum, carry, _) = run_add(0xFF, 0x01, 8);
        assert_eq!(sum, 0, "wraps within 8 bits");
        assert!(carry, "carry-out of the top bit");
    }

    #[test]
    fn cycle_count_is_12n_plus_1() {
        for n in [4usize, 8, 16, 32] {
            let (_, _, cycles) = run_add(3, 7, n);
            assert_eq!(cycles, (12 * n + 1) as u64, "n = {n}");
        }
    }

    #[test]
    fn exhaustive_4_bit() {
        for x in 0u64..16 {
            for y in 0u64..16 {
                let (sum, carry, _) = run_add(x, y, 4);
                assert_eq!(sum, (x + y) & 0xF, "{x}+{y}");
                assert_eq!(carry, x + y > 0xF, "{x}+{y} carry");
            }
        }
    }

    #[test]
    fn matches_model_energy_exactly() {
        use crate::model::CostModel;
        let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
        let blk = xbar.block(1).unwrap();
        let n = 16;
        xbar.preload_word(blk, 0, 0, &to_bits(1234, n)).unwrap();
        xbar.preload_word(blk, 1, 0, &to_bits(4321, n)).unwrap();
        let mut alloc = RowAllocator::new(xbar.rows());
        alloc.alloc_many(3).unwrap();
        let scratch = SerialScratch::alloc(&mut alloc).unwrap();
        let before = *xbar.stats();
        add_words(&mut xbar, blk, 0, 1, 2, 0..n, &scratch).unwrap();
        let delta = *xbar.stats() - before;
        let model = CostModel::new(&apim_device::Device::default());
        let predicted = model.serial_add(n as u32);
        assert_eq!(delta.cycles, predicted.cycles);
        let rel = (delta.energy.as_joules() - predicted.energy.as_joules()).abs()
            / predicted.energy.as_joules();
        assert!(rel < 1e-9, "energy mismatch: {rel}");
    }

    #[test]
    fn scratch_allocation_requires_twelve_rows() {
        let mut small = RowAllocator::new(5);
        assert!(SerialScratch::alloc(&mut small).is_err());
        let mut big = RowAllocator::new(12);
        let s = SerialScratch::alloc(&mut big).unwrap();
        assert_eq!(big.available(), 0);
        s.release(&mut big).unwrap();
        assert_eq!(big.available(), 12);
    }

    #[test]
    fn with_carry_seeds_from_existing_complement() {
        let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
        let blk = xbar.block(1).unwrap();
        let n = 8;
        xbar.preload_word(blk, 0, 0, &to_bits(10, n)).unwrap();
        xbar.preload_word(blk, 1, 0, &to_bits(20, n)).unwrap();
        let mut alloc = RowAllocator::new(xbar.rows());
        alloc.alloc_many(3).unwrap();
        let scratch = SerialScratch::alloc(&mut alloc).unwrap();
        // Carry-in = 1 -> complement = 0 at the seed cell.
        xbar.preload_bit(blk, scratch.carry, 0, false).unwrap();
        let before = *xbar.stats();
        add_words_with_carry(&mut xbar, blk, 0, 1, 2, 0..n, &scratch).unwrap();
        assert_eq!((*xbar.stats() - before).cycles, Cycles::new(12 * 8));
        let sum = from_bits(&xbar.peek_word(blk, 2, 0, n).unwrap());
        assert_eq!(sum, 31, "10 + 20 + carry-in 1");
    }
}
