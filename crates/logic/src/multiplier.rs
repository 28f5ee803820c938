//! The full APIM multiplier (§3.3–3.4), gate-level.
//!
//! Three stages on a blocked crossbar with one data block and two
//! processing blocks — the paper's "3-level memory (with 2 processing
//! blocks per data block)" of §3.3, so resident data is never disturbed by
//! logic execution:
//!
//! 1. **Partial-product generation** — the multiplier is read bit-wise
//!    through the sense amplifiers; for every `1` bit the multiplicand is
//!    copied into the second processing block, *pre-shifted* by the
//!    configurable interconnect. The first NOT of the copy pair is computed
//!    once and reused, so the stage costs `ones + 1` cycles (worst case
//!    `N + 1`).
//! 2. **Fast reduction** — [`crate::wallace::reduce_rows_to_two_lanes`]
//!    brings the partial products down to two operands in `13 · stages`
//!    cycles.
//! 3. **Final product generation** — exact serial addition, or
//!    [`relaxed_final_add`]: the §3.4 sense-amplifier MAJ approximation of
//!    the `m` low bits with the exact ripple above them, per the configured
//!    [`PrecisionMode`].
//!
//! Two product windows are supported: the full `2N`-bit product
//! ([`CrossbarMultiplier::multiply`], §3.4's `k + m = 2N` framing) and the
//! truncated `N`-bit product of C `int` semantics
//! ([`CrossbarMultiplier::multiply_trunc`]), where the paper's maximum
//! approximation — 32 relax bits — spans the whole final stage.
//!
//! Produced values are bit-identical to [`crate::functional::multiply`] /
//! [`crate::functional::multiply_trunc`] for every mode, and the charged
//! cycles/energy match [`crate::CostModel`] exactly — both equivalences are
//! enforced by tests.

use apim_crossbar::{
    Backend, BlockId, BlockedCrossbar, CrossbarConfig, CrossbarError, Result, RowAllocator, RowRef,
    Stats,
};
use apim_device::Device;

use crate::adder_csa::CSA_SCRATCH_ROWS;
use crate::adder_serial::{add_words, add_words_with_carry, SerialScratch};
use crate::functional::partial_product_shifts;
use crate::precision::PrecisionMode;
use crate::wallace::reduce_rows_to_two_lanes;

/// Per-stage cost split of one multiplication (the §3.2 remark that the
/// tree's speed is bought with extra writes/energy is visible here).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Stage 1: sense-amp reads + shift-copies of the multiplicand.
    pub partial_products: Stats,
    /// Stage 2: Wallace-tree N:2 reduction.
    pub reduction: Stats,
    /// Stage 3: final product generation.
    pub final_stage: Stats,
}

/// Outcome of one gate-level multiplication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulRun {
    /// The (possibly approximate) product.
    pub product: u128,
    /// Cycles/energy/op-count delta charged by this multiplication.
    pub stats: Stats,
    /// The same delta split by pipeline stage.
    pub breakdown: StageBreakdown,
}

/// A gate-level `n × n` multiplier on its own blocked crossbar.
///
/// ```
/// use apim_logic::multiplier::CrossbarMultiplier;
/// use apim_logic::PrecisionMode;
/// use apim_device::Device;
///
/// # fn main() -> Result<(), apim_crossbar::CrossbarError> {
/// let mut mul = CrossbarMultiplier::new(8, &Device::default())?;
/// let run = mul.multiply(200, 57, PrecisionMode::Exact)?;
/// assert_eq!(run.product, 200 * 57);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarMultiplier {
    xbar: BlockedCrossbar,
    n: u32,
    /// Wear-leveling: number of alternative scratch regions for the final
    /// stage (1 = fixed allocation).
    level_slots: usize,
    /// Rotation epoch, advanced once per multiplication.
    epoch: usize,
}

impl CrossbarMultiplier {
    /// Builds a multiplier for `n`-bit operands (`4 ..= 64`), sizing the
    /// crossbar automatically.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] for unsupported widths or
    /// invalid device parameters.
    pub fn new(n: u32, device: &Device) -> Result<Self> {
        if !(4..=64).contains(&n) {
            return Err(CrossbarError::InvalidConfig(format!(
                "operand width {n} outside supported range 4..=64"
            )));
        }
        Self::build(n, device, 1, Backend::default())
    }

    /// Like [`CrossbarMultiplier::new`] on an explicit storage [`Backend`]
    /// — the differential suites run the same multiplier on the packed
    /// path and the scalar oracle and compare bit-for-bit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CrossbarMultiplier::new`].
    pub fn with_backend(n: u32, device: &Device, backend: Backend) -> Result<Self> {
        Self::build(n, device, 1, backend)
    }

    /// Like [`CrossbarMultiplier::new`] but with wear leveling: the final
    /// stage's scratch rows — the wear hotspot of the whole pipeline, since
    /// every serial-adder bit rewrites them 12 times — rotate through
    /// `slots` disjoint regions across calls, spreading endurance wear at
    /// the cost of `slots × 13` extra wordlines per block.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CrossbarMultiplier::new`]; additionally rejects
    /// `slots == 0`.
    pub fn new_with_wear_leveling(n: u32, device: &Device, slots: usize) -> Result<Self> {
        if slots == 0 {
            return Err(CrossbarError::InvalidConfig(
                "wear leveling needs at least one slot".into(),
            ));
        }
        Self::build(n, device, slots, Backend::default())
    }

    fn build(n: u32, device: &Device, level_slots: usize, backend: Backend) -> Result<Self> {
        if !(4..=64).contains(&n) {
            return Err(CrossbarError::InvalidConfig(format!(
                "operand width {n} outside supported range 4..=64"
            )));
        }
        // One full working region (tree operands + scratch, final-stage
        // rows) per leveling slot, plus the shared NOT row at the top.
        let region = Self::region_rows(n);
        let rows = (region * level_slots + 1).max(17);
        let cols = 2 * n as usize + 4;
        let xbar = BlockedCrossbar::new(CrossbarConfig {
            blocks: 3,
            rows,
            cols,
            device: device.clone(),
            strict_init: true,
            backend,
        })?;
        Ok(CrossbarMultiplier {
            xbar,
            n,
            level_slots,
            epoch: 0,
        })
    }

    /// Wordlines of one rotation region: enough for the Wallace tree
    /// (`n` operands + scratch) and the final stage (operands, result,
    /// carry, serial netlist, seed).
    fn region_rows(n: u32) -> usize {
        (n as usize + CSA_SCRATCH_ROWS).max(16)
    }

    /// Operand width.
    pub fn operand_bits(&self) -> u32 {
        self.n
    }

    /// The underlying crossbar (cumulative statistics, fault injection…).
    pub fn crossbar(&self) -> &BlockedCrossbar {
        &self.xbar
    }

    /// Mutable access to the underlying crossbar, e.g. for fault injection.
    pub fn crossbar_mut(&mut self) -> &mut BlockedCrossbar {
        &mut self.xbar
    }

    /// Multiplies `a × b` under `mode`, producing the full `2N`-bit
    /// product.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] if operands exceed `n` bits
    /// or the mode fails [`PrecisionMode::validate`]; crossbar errors
    /// propagate.
    pub fn multiply(&mut self, a: u64, b: u64, mode: PrecisionMode) -> Result<MulRun> {
        let w = 2 * self.n as usize;
        self.run_pipeline(a, b, mode, w)
    }

    /// Multiplies `a × b` under `mode`, producing the truncated `N`-bit
    /// product (C `int` semantics): partial products and the reduction
    /// window end at bit `N`, and `relax_bits` is clamped to `N`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CrossbarMultiplier::multiply`].
    pub fn multiply_trunc(&mut self, a: u64, b: u64, mode: PrecisionMode) -> Result<MulRun> {
        let w = self.n as usize;
        self.run_pipeline(a, b, mode, w)
    }

    fn run_pipeline(&mut self, a: u64, b: u64, mode: PrecisionMode, w: usize) -> Result<MulRun> {
        self.epoch = self.epoch.wrapping_add(1);
        let n = self.n as usize;
        if self.n < 64 && (a >> self.n != 0 || b >> self.n != 0) {
            return Err(CrossbarError::InvalidConfig(format!(
                "operands must fit in {n} bits"
            )));
        }
        mode.validate(self.n)
            .map_err(|e| CrossbarError::InvalidConfig(e.to_string()))?;

        let data = self.xbar.block(0)?;
        let p0 = self.xbar.block(1)?;
        let p1 = self.xbar.block(2)?;

        // Resident data (outside the compute accounting).
        self.xbar.preload_u64(data, 0, 0, n, a)?;
        self.xbar.preload_u64(data, 1, 0, n, b)?;
        let snapshot = *self.xbar.stats();
        let mut breakdown = StageBreakdown::default();

        // ---- Stage 1: partial products through the sense amplifiers ----
        let mut multiplier_bits = 0u64;
        for i in 0..n {
            let bit = self.xbar.read_bit(data, 1, i)?;
            multiplier_bits |= u64::from(bit) << i;
        }
        let shifts = partial_product_shifts(multiplier_bits, mode.masked_multiplier_bits());
        let ones = shifts.len();
        if ones == 0 {
            breakdown.partial_products = *self.xbar.stats() - snapshot;
            return Ok(MulRun {
                product: 0,
                stats: *self.xbar.stats() - snapshot,
                breakdown,
            });
        }
        // Wear leveling: rotate the whole working region through the slots.
        let base = (self.epoch % self.level_slots) * Self::region_rows(self.n);

        // Shared first NOT of the multiplicand (reused by every copy).
        let not_row = self.xbar.rows() - 1;
        self.xbar.init_rows(p0, &[not_row], 0..n)?;
        self.xbar
            .nor_rows_shifted(&[RowRef::new(data, 0)], RowRef::new(p0, not_row), 0..n, 0)?;
        for (row, &shift) in shifts.iter().enumerate() {
            // Fresh operand row: clear the full product window.
            self.xbar.preload_zeros(p1, base + row, 0, w + 2)?;
            let lo = shift as usize;
            let hi = (lo + n).min(w);
            self.xbar.init_rows(p1, &[base + row], lo..hi)?;
            self.xbar.nor_rows_shifted(
                &[RowRef::new(p0, not_row)],
                RowRef::new(p1, base + row),
                0..hi - lo,
                shift as isize,
            )?;
        }
        breakdown.partial_products = *self.xbar.stats() - snapshot;
        if ones == 1 {
            let product = peek_wide(&self.xbar, p1, base, 0, w)?;
            return Ok(MulRun {
                product,
                stats: *self.xbar.stats() - snapshot,
                breakdown,
            });
        }

        // ---- Stage 2: Wallace reduction, toggling between the blocks ----
        let before_tree = *self.xbar.stats();
        let (block, survivors) =
            reduce_rows_to_two_lanes(&mut self.xbar, p1, p0, ones, 0..w, 1, base)?;
        debug_assert_eq!(survivors, 2);
        let other = if block == p0 { p1 } else { p0 };
        breakdown.reduction = *self.xbar.stats() - before_tree;

        // ---- Stage 3: final product generation (§3.4) ----
        let before_final = *self.xbar.stats();
        let m = (mode.relaxed_product_bits() as usize).min(w);
        let product = final_product(&mut self.xbar, block, other, w, m, base)?;
        breakdown.final_stage = *self.xbar.stats() - before_final;
        Ok(MulRun {
            product,
            stats: *self.xbar.stats() - snapshot,
            breakdown,
        })
    }
}

/// Final two-operand addition of rows `base`/`base + 1` of `block` with
/// `m` relaxed LSBs; returns the `w`-bit result. The rest of the region
/// above the operands hosts the result row, the MAJ-carry row and the
/// serial scratch; the relaxed bits land in row `base` of `other`. Shared
/// by the multiplier and the fused MAC.
pub(crate) fn final_product(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    other: BlockId,
    w: usize,
    m: usize,
    base: usize,
) -> Result<u128> {
    let mut alloc = RowAllocator::new(xbar.rows());
    alloc.alloc_many(base + 2)?; // skip earlier regions + the operands
    let out_row = alloc.alloc()?;
    let carry_row = alloc.alloc()?; // exact carries of the relaxed region
    let scratch = SerialScratch::alloc(&mut alloc)?;
    if m == 0 {
        add_words(xbar, block, base, base + 1, out_row, 0..w, &scratch)?;
        return peek_wide(xbar, block, out_row, 0, w);
    }
    let low = RowRef::new(other, base);
    relaxed_final_add(
        xbar,
        block,
        base,
        base + 1,
        carry_row,
        out_row,
        low,
        w,
        m,
        &scratch,
    )?;
    let low = peek_wide(xbar, other, base, 0, m)?;
    if m == w {
        return Ok(low);
    }
    let high = peek_wide(xbar, block, out_row, m, w - m)?;
    Ok(low | high << m)
}

/// The §3.4 final product generation with `1 ≤ m ≤ w` relaxed LSBs, over
/// the operands in rows `x_row`/`y_row` of `block`:
///
/// 1. the exact carries of the relaxed region through the MAJ sense
///    amplifier, one read and one write-back into `carry_row` per bit
///    (2 cycles each);
/// 2. every relaxed sum bit at once, `S[i] = NOT(C[i+1])`, as one parallel
///    NOR through the interconnect (shift −1) into `low`, a row of the
///    partner block;
/// 3. unless `m == w`, the boundary carry complemented into the serial
///    scratch (1 cycle) and the `12 (w − m)`-cycle ripple of the high bits
///    into `out_row`, columns `m..w`.
///
/// The MAJ reads steer write-backs, so the schedule is one-lane only.
///
/// # Errors
///
/// Rejects `m == 0` and `m > w`; propagates crossbar errors.
#[allow(clippy::too_many_arguments)] // one parameter per row of the layout
pub fn relaxed_final_add(
    xbar: &mut BlockedCrossbar,
    block: BlockId,
    x_row: usize,
    y_row: usize,
    carry_row: usize,
    out_row: usize,
    low: RowRef,
    w: usize,
    m: usize,
    scratch: &SerialScratch,
) -> Result<()> {
    if m == 0 || m > w {
        return Err(CrossbarError::InvalidConfig(format!(
            "relaxed final add needs 1 ..= {w} relaxed bits, got {m}"
        )));
    }
    xbar.preload_bit(block, carry_row, 0, false)?;
    for i in 0..m {
        let carry = xbar.maj_read(block, [(x_row, i), (y_row, i), (carry_row, i)])?;
        xbar.write_back_bit(block, carry_row, i + 1, carry)?;
    }
    xbar.init_rows(low.block, &[low.row], 0..m)?;
    xbar.nor_rows_shifted(&[RowRef::new(block, carry_row)], low, 1..m + 1, -1)?;
    if m == w {
        return Ok(());
    }
    xbar.init_cells(block, &[(scratch.carry, m)])?;
    xbar.nor_cells(block, &[(carry_row, m)], (scratch.carry, m))?;
    add_words_with_carry(xbar, block, x_row, y_row, out_row, m..w, scratch)
}

/// Debug read of up to 128 bits (the `2N`-bit product window) as ≤ 64-bit
/// packed chunks — peeks are unaccounted, so chunking changes nothing.
fn peek_wide(
    xbar: &BlockedCrossbar,
    block: BlockId,
    row: usize,
    col0: usize,
    width: usize,
) -> Result<u128> {
    let mut out = 0u128;
    let mut done = 0usize;
    while done < width {
        let chunk = (width - done).min(64);
        let v = xbar.peek_u64(block, row, col0 + done, chunk)?;
        out |= u128::from(v) << done;
        done += chunk;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional;
    use crate::model::CostModel;

    fn multiplier(n: u32) -> CrossbarMultiplier {
        CrossbarMultiplier::new(n, &Device::default()).unwrap()
    }

    #[test]
    fn exact_products_match_native() {
        let mut mul = multiplier(8);
        for (a, b) in [
            (0u64, 0u64),
            (1, 1),
            (255, 255),
            (200, 57),
            (13, 17),
            (128, 2),
        ] {
            let run = mul.multiply(a, b, PrecisionMode::Exact).unwrap();
            assert_eq!(run.product, a as u128 * b as u128, "{a}*{b}");
        }
    }

    #[test]
    fn exact_16_bit_spot_checks() {
        let mut mul = multiplier(16);
        for (a, b) in [(65535u64, 65535u64), (12345, 54321), (40000, 3)] {
            let run = mul.multiply(a, b, PrecisionMode::Exact).unwrap();
            assert_eq!(run.product, a as u128 * b as u128);
        }
    }

    #[test]
    fn gate_level_matches_functional_all_modes() {
        let mut mul = multiplier(8);
        let modes = [
            PrecisionMode::Exact,
            PrecisionMode::FirstStage { masked_bits: 3 },
            PrecisionMode::LastStage { relax_bits: 0 },
            PrecisionMode::LastStage { relax_bits: 5 },
            PrecisionMode::LastStage { relax_bits: 16 },
        ];
        for (a, b) in [(173u64, 89u64), (255, 254), (99, 1), (7, 255), (128, 128)] {
            for mode in modes {
                let run = mul.multiply(a, b, mode).unwrap();
                let expected = functional::multiply(a, b, 8, mode);
                assert_eq!(run.product, expected, "{a}*{b} {mode}");
            }
        }
    }

    #[test]
    fn trunc_gate_level_matches_functional() {
        let mut mul = multiplier(8);
        let modes = [
            PrecisionMode::Exact,
            PrecisionMode::FirstStage { masked_bits: 2 },
            PrecisionMode::LastStage { relax_bits: 4 },
            PrecisionMode::LastStage { relax_bits: 8 },
        ];
        for (a, b) in [(255u64, 255u64), (173, 89), (16, 16), (250, 3)] {
            for mode in modes {
                let run = mul.multiply_trunc(a, b, mode).unwrap();
                let expected = functional::multiply_trunc(a, b, 8, mode);
                assert_eq!(run.product, u128::from(expected), "{a}*{b} {mode}");
            }
        }
    }

    #[test]
    fn trunc_cycles_match_cost_model_exactly() {
        let model = CostModel::new(&Device::default());
        let mut mul = multiplier(8);
        for (a, b) in [(255u64, 255u64), (173, 89), (250, 3)] {
            for mode in [
                PrecisionMode::Exact,
                PrecisionMode::LastStage { relax_bits: 4 },
                PrecisionMode::LastStage { relax_bits: 8 },
            ] {
                let run = mul.multiply_trunc(a, b, mode).unwrap();
                let predicted = model.multiply_trunc_value(8, b, mode);
                assert_eq!(run.stats.cycles, predicted.cycles, "{a}*{b} {mode}");
                let rel = (run.stats.energy.as_joules() - predicted.energy.as_joules()).abs()
                    / predicted.energy.as_joules();
                assert!(rel < 1e-9, "{a}*{b} {mode}: energy rel err {rel}");
            }
        }
    }

    #[test]
    fn trunc_is_cheaper_than_full() {
        let mut mul = multiplier(16);
        let full = mul.multiply(0xBEEF, 0xF00D, PrecisionMode::Exact).unwrap();
        let trunc = mul
            .multiply_trunc(0xBEEF, 0xF00D, PrecisionMode::Exact)
            .unwrap();
        assert!(trunc.stats.cycles < full.stats.cycles);
        assert!(trunc.stats.energy.as_joules() < full.stats.energy.as_joules());
        assert_eq!(
            trunc.product,
            (0xBEEFu128 * 0xF00D) & 0xFFFF,
            "low half of the product"
        );
    }

    #[test]
    fn cycles_match_cost_model_exactly() {
        let model = CostModel::new(&Device::default());
        let mut mul = multiplier(8);
        for (a, b) in [(173u64, 89u64), (255, 255), (8, 8), (99, 0), (1, 170)] {
            for mode in [
                PrecisionMode::Exact,
                PrecisionMode::FirstStage { masked_bits: 4 },
                PrecisionMode::LastStage { relax_bits: 6 },
                PrecisionMode::LastStage { relax_bits: 16 },
            ] {
                let run = mul.multiply(a, b, mode).unwrap();
                let predicted = model.multiply(8, b, mode);
                assert_eq!(
                    run.stats.cycles, predicted.cycles,
                    "{a}*{b} {mode}: sim {} vs model {}",
                    run.stats.cycles, predicted.cycles
                );
            }
        }
    }

    #[test]
    fn energy_matches_cost_model_exactly() {
        let model = CostModel::new(&Device::default());
        let mut mul = multiplier(8);
        for (a, b) in [(173u64, 89u64), (255, 255), (12, 34)] {
            for mode in [
                PrecisionMode::Exact,
                PrecisionMode::LastStage { relax_bits: 6 },
            ] {
                let run = mul.multiply(a, b, mode).unwrap();
                let predicted = model.multiply(8, b, mode);
                let rel = (run.stats.energy.as_joules() - predicted.energy.as_joules()).abs()
                    / predicted.energy.as_joules();
                assert!(rel < 1e-9, "{a}*{b} {mode}: energy rel err {rel}");
            }
        }
    }

    #[test]
    fn energy_breakdown_partitions_the_total() {
        let mut mul = multiplier(8);
        let run = mul
            .multiply(173, 89, PrecisionMode::LastStage { relax_bits: 6 })
            .unwrap();
        let bd = run.stats.energy_breakdown;
        let rel = (bd.total().as_joules() - run.stats.energy.as_joules()).abs()
            / run.stats.energy.as_joules();
        assert!(rel < 1e-9, "breakdown must partition the energy: {rel}");
        assert!(bd.nor.as_joules() > 0.0);
        assert!(bd.write.as_joules() > 0.0);
        assert!(bd.read.as_joules() > 0.0);
        assert!(bd.maj.as_joules() > 0.0, "the relaxed region used MAJ");
        assert!(bd.interconnect.as_joules() > 0.0);
        // The init-then-evaluate discipline makes writes the biggest bill.
        assert!(bd.write.as_joules() > bd.nor.as_joules());
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut mul = multiplier(8);
        let run = mul.multiply(173, 89, PrecisionMode::Exact).unwrap();
        let mut sum = run.breakdown.partial_products;
        sum.merge(&run.breakdown.reduction);
        sum.merge(&run.breakdown.final_stage);
        assert_eq!(sum.cycles, run.stats.cycles);
        assert_eq!(sum.cell_writes, run.stats.cell_writes);
        assert!((sum.energy.as_joules() - run.stats.energy.as_joules()).abs() < 1e-20);
    }

    #[test]
    fn final_stage_dominates_exact_latency() {
        // §3.4: "This latency is dominant as compared to the previous
        // stages of multiplication, making the last stage a bottleneck".
        let mut mul = multiplier(16);
        let run = mul.multiply(0xBEEF, 0xCAFE, PrecisionMode::Exact).unwrap();
        let final_cycles = run.breakdown.final_stage.cycles.get();
        assert!(
            final_cycles * 2 > run.stats.cycles.get(),
            "final stage {final_cycles} of {}",
            run.stats.cycles
        );
    }

    #[test]
    fn tree_buys_speed_with_energy() {
        // §3.2: "this speed up comes at the cost of increased energy
        // consumption and number of writes" — the reduction stage's share
        // of writes exceeds its share of cycles.
        let mut mul = multiplier(16);
        let run = mul.multiply(0xBEEF, 0xCAFE, PrecisionMode::Exact).unwrap();
        let tree = &run.breakdown.reduction;
        let cycle_share = tree.cycles.get() as f64 / run.stats.cycles.get() as f64;
        let write_share = tree.cell_writes as f64 / run.stats.cell_writes as f64;
        assert!(
            write_share > 2.0 * cycle_share,
            "writes {write_share:.2} vs cycles {cycle_share:.2}"
        );
    }

    #[test]
    fn sparse_multiplier_is_cheap() {
        let mut mul = multiplier(8);
        let run = mul
            .multiply(201, 0b0001_0000, PrecisionMode::Exact)
            .unwrap();
        assert_eq!(run.product, 201 << 4);
        assert_eq!(run.stats.cycles.get(), 2, "one PP: shared NOT + one copy");
    }

    #[test]
    fn zero_multiplier_is_free() {
        let mut mul = multiplier(8);
        let run = mul.multiply(201, 0, PrecisionMode::Exact).unwrap();
        assert_eq!(run.product, 0);
        assert_eq!(run.stats.cycles.get(), 0);
        assert_eq!(run.stats.reads, 8, "the multiplier is still sensed");
    }

    #[test]
    fn first_stage_masking_reduces_cycles() {
        let mut mul = multiplier(8);
        let b = 0b1111_1111;
        let exact = mul.multiply(200, b, PrecisionMode::Exact).unwrap();
        let masked = mul
            .multiply(200, b, PrecisionMode::FirstStage { masked_bits: 4 })
            .unwrap();
        assert!(masked.stats.cycles < exact.stats.cycles);
        assert_eq!(masked.product, 200u128 * u128::from(b & 0xF0));
    }

    #[test]
    fn relaxing_bits_reduces_cycles_monotonically() {
        let mut mul = multiplier(8);
        let mut last = u64::MAX;
        for m in [0u8, 4, 8, 12, 16] {
            let run = mul
                .multiply(251, 173, PrecisionMode::LastStage { relax_bits: m })
                .unwrap();
            assert!(run.stats.cycles.get() < last, "m={m}");
            last = run.stats.cycles.get();
        }
    }

    #[test]
    fn relaxed_error_is_bounded() {
        let mut mul = multiplier(8);
        for m in [4u8, 8, 12] {
            let run = mul
                .multiply(251, 173, PrecisionMode::LastStage { relax_bits: m })
                .unwrap();
            let exact = 251u128 * 173;
            assert!(run.product.abs_diff(exact) < 1 << m, "m={m}");
            assert_eq!(run.product >> m, exact >> m, "high bits exact, m={m}");
        }
    }

    #[test]
    fn oversized_operands_rejected() {
        let mut mul = multiplier(8);
        assert!(mul.multiply(256, 1, PrecisionMode::Exact).is_err());
        assert!(mul.multiply(1, 1 << 20, PrecisionMode::Exact).is_err());
        assert!(mul.multiply_trunc(256, 1, PrecisionMode::Exact).is_err());
    }

    #[test]
    fn invalid_mode_rejected() {
        let mut mul = multiplier(8);
        assert!(mul
            .multiply(1, 1, PrecisionMode::LastStage { relax_bits: 17 })
            .is_err());
        assert!(mul
            .multiply(1, 1, PrecisionMode::FirstStage { masked_bits: 9 })
            .is_err());
    }

    #[test]
    fn unsupported_widths_rejected() {
        assert!(CrossbarMultiplier::new(3, &Device::default()).is_err());
        assert!(CrossbarMultiplier::new(65, &Device::default()).is_err());
    }

    #[test]
    fn repeated_multiplies_are_independent() {
        // Stale state from one run must never leak into the next.
        let mut mul = multiplier(8);
        mul.multiply(255, 255, PrecisionMode::Exact).unwrap();
        let run = mul.multiply(3, 5, PrecisionMode::Exact).unwrap();
        assert_eq!(run.product, 15);
        // Note the §3.4 quirk: with x = y = 0 every relaxed bit hits the
        // (0,0,0) error case and reads 1 — the approximation of 0 × 255 is
        // 0xFF, faithfully matching the functional model.
        let run = mul
            .multiply(0, 255, PrecisionMode::LastStage { relax_bits: 8 })
            .unwrap();
        assert_eq!(
            run.product,
            functional::multiply(0, 255, 8, PrecisionMode::LastStage { relax_bits: 8 })
        );
        assert_eq!(run.product, 0xFF);
    }

    #[test]
    fn full_and_trunc_interleave_cleanly() {
        let mut mul = multiplier(8);
        let full = mul.multiply(250, 250, PrecisionMode::Exact).unwrap();
        let trunc = mul.multiply_trunc(250, 250, PrecisionMode::Exact).unwrap();
        let full2 = mul.multiply(250, 250, PrecisionMode::Exact).unwrap();
        assert_eq!(full.product, 62500);
        assert_eq!(trunc.product, 62500 & 0xFF);
        assert_eq!(full2.product, 62500);
    }

    #[test]
    fn wear_leveling_spreads_the_hotspot() {
        let runs = 24;
        let mut fixed = CrossbarMultiplier::new(8, &Device::default()).unwrap();
        let mut leveled =
            CrossbarMultiplier::new_with_wear_leveling(8, &Device::default(), 4).unwrap();
        for i in 0..runs {
            let a = 100 + i as u64;
            fixed.multiply(a, 173, PrecisionMode::Exact).unwrap();
            leveled.multiply(a, 173, PrecisionMode::Exact).unwrap();
        }
        let hot_fixed = fixed.crossbar().max_cell_writes();
        let hot_leveled = leveled.crossbar().max_cell_writes();
        assert!(
            (hot_leveled as f64) < 0.6 * hot_fixed as f64,
            "leveling must spread wear: {hot_leveled} vs {hot_fixed}"
        );
        // Values stay correct while rotating.
        let run = leveled.multiply(251, 173, PrecisionMode::Exact).unwrap();
        assert_eq!(run.product, 251 * 173);
    }

    #[test]
    fn wear_leveling_rejects_zero_slots() {
        assert!(CrossbarMultiplier::new_with_wear_leveling(8, &Device::default(), 0).is_err());
    }

    #[test]
    fn wear_accumulates_across_runs() {
        let mut mul = multiplier(8);
        for _ in 0..3 {
            mul.multiply(123, 231, PrecisionMode::Exact).unwrap();
        }
        assert!(mul.crossbar().max_cell_writes() > 3);
    }
}
