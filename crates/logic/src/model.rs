//! Analytic cost model: closed-form cycle and energy formulas.
//!
//! Every formula mirrors the corresponding crossbar routine **operation for
//! operation** — same NOR counts, same initialization writes, same
//! interconnect crossings — so the property tests in this crate can require
//! exact agreement between `model` and the gate-level simulation. The
//! architecture layer (`apim-arch`) then uses these formulas to cost
//! GB-scale workloads without simulating cells.

use apim_device::{Cycles, Device, EnergyDelayProduct, EnergyModel, Joules, Seconds, TimingModel};

use crate::functional::{partial_product_shifts, tree_stages};
use crate::precision::PrecisionMode;

/// Cycle + energy cost of an operation.
///
/// ```
/// use apim_logic::{CostModel, OpCost};
/// use apim_device::Device;
///
/// let model = CostModel::new(&Device::paper());
/// let add = model.serial_add(32);
/// assert_eq!(add.cycles.get(), 12 * 32 + 1); // the paper's 12N + 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    /// MAGIC cycles.
    pub cycles: Cycles,
    /// Energy dissipated.
    pub energy: Joules,
}

impl OpCost {
    /// The zero cost.
    pub const ZERO: OpCost = OpCost {
        cycles: Cycles::ZERO,
        energy: Joules::ZERO,
    };

    /// Component-wise sum.
    pub fn plus(self, other: OpCost) -> OpCost {
        OpCost {
            cycles: self.cycles + other.cycles,
            energy: self.energy + other.energy,
        }
    }

    /// Scales the cost by an operation count (for workload-level totals).
    pub fn scale(self, count: u64) -> OpCost {
        OpCost {
            cycles: self.cycles * count,
            energy: self.energy * count as f64,
        }
    }
}

impl std::ops::Add for OpCost {
    type Output = OpCost;
    fn add(self, rhs: OpCost) -> OpCost {
        self.plus(rhs)
    }
}

impl std::ops::AddAssign for OpCost {
    fn add_assign(&mut self, rhs: OpCost) {
        *self = self.plus(rhs);
    }
}

/// The APIM analytic cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    em: EnergyModel,
    tm: TimingModel,
}

impl CostModel {
    /// The model of `device`: copies its energy and timing constants.
    pub fn new(device: &Device) -> Self {
        CostModel {
            em: device.energy().clone(),
            tm: device.timing().clone(),
        }
    }

    /// The timing model in force.
    pub fn timing(&self) -> &TimingModel {
        &self.tm
    }

    /// The energy model in force.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.em
    }

    /// Wall-clock latency of a cost.
    pub fn latency(&self, cost: OpCost) -> Seconds {
        self.tm.cycles_to_time(cost.cycles)
    }

    /// Energy-delay product of a cost.
    pub fn edp(&self, cost: OpCost) -> EnergyDelayProduct {
        cost.energy * self.latency(cost)
    }

    // -----------------------------------------------------------------
    // Adders
    // -----------------------------------------------------------------

    /// Serial in-memory addition of two `n`-bit numbers: `12N + 1` cycles
    /// (\[24\]'s count, reproduced by our 12-NOR-per-bit netlist plus one
    /// carry-complement initialization).
    pub fn serial_add(&self, n: u32) -> OpCost {
        let ops = u64::from(12 * n + 1);
        OpCost {
            cycles: Cycles::new(ops),
            // One zeroing write for the carry seed cell, then init + NOR
            // per netlist operation.
            energy: self.em.write_op(1) + (self.em.nor_op(1) + self.em.write_op(1)) * ops as f64,
        }
    }

    /// One carry-save group (3 operands → sum + carry) at `width` bits:
    /// 11 in-block netlist NORs plus the two cross-block output NORs.
    /// Cycles are charged per *stage*, not per group — see
    /// [`CostModel::tree_reduce`].
    fn csa_group_energy(&self, width: u32, zero_width: u32) -> Joules {
        let w = width as usize;
        let wz = zero_width as usize;
        (self.em.write_op(w) + self.em.nor_op(w)) * 11.0
            + (self.em.write_op(wz)
                + self.em.write_op(w)
                + self.em.nor_op(w)
                + self.em.interconnect_op(w))
                * 2.0
    }

    /// Moving one leftover operand row to the other block (a 2-NOT copy
    /// overlapped with the 13-cycle stage, so it charges no cycles).
    fn leftover_move_energy(&self, width: u32, zero_width: u32) -> Joules {
        let w = width as usize;
        let wz = zero_width as usize;
        self.em.write_op(wz)
            + (self.em.write_op(w) + self.em.nor_op(w))
            + (self.em.write_op(w) + self.em.nor_op(w) + self.em.interconnect_op(w))
    }

    /// Wallace-tree reduction of `k` operands to two at `width` bits:
    /// 13 cycles per stage (§3.2), block-toggling included.
    ///
    /// `zero_width` is the full row window that gets cleared when a fresh
    /// operand row is claimed (`width + 2` in the multiplier layout).
    pub fn tree_reduce(&self, k: u32, width: u32, zero_width: u32) -> OpCost {
        let mut remaining = k;
        let mut cost = OpCost::ZERO;
        while remaining > 2 {
            let groups = remaining / 3;
            let leftovers = remaining % 3;
            cost.cycles += Cycles::new(13);
            cost.energy += self.csa_group_energy(width, zero_width) * f64::from(groups);
            cost.energy += self.leftover_move_energy(width, zero_width) * f64::from(leftovers);
            remaining = 2 * groups + leftovers;
        }
        cost
    }

    // -----------------------------------------------------------------
    // Multiplier stages (§3.3–3.4)
    // -----------------------------------------------------------------

    /// Partial-product generation for an `n × n` multiplication whose
    /// multiplier has `ones` set bits after masking: bitwise sense-amp read
    /// of the multiplier, one shared NOT of the multiplicand, then one
    /// shift-copy NOR per set bit — `ones + 1` cycles, worst case `N + 1`.
    pub fn partial_products(&self, n: u32, ones: u32) -> OpCost {
        let nn = n as usize;
        let read_energy = self.em.read_op(1) * f64::from(n);
        if ones == 0 {
            return OpCost {
                cycles: Cycles::ZERO,
                energy: read_energy,
            };
        }
        let zero_width = (2 * n + 2) as usize;
        // The shared NOT crosses from the data block into the processing
        // block, so it pays the interconnect like every copy does.
        let first_not = self.em.write_op(nn) + self.em.nor_op(nn) + self.em.interconnect_op(nn);
        let per_pp = self.em.write_op(zero_width)
            + self.em.write_op(nn)
            + self.em.nor_op(nn)
            + self.em.interconnect_op(nn);
        OpCost {
            cycles: Cycles::new(u64::from(ones) + 1),
            energy: read_energy + first_not + per_pp * f64::from(ones),
        }
    }

    /// Final product generation over `w = 2n` bits with `m` relaxed LSBs
    /// (§3.4):
    ///
    /// * `m = 0` — fully serial: `12w + 1` cycles;
    /// * `m = w` — fully approximate: `2m + 1` cycles (MAJ + write-back per
    ///   bit, then one parallel inversion);
    /// * otherwise — `12k + 2m + 2` cycles with `k = w − m` (the extra
    ///   cycle re-complements the boundary carry for the serial netlist).
    pub fn final_stage(&self, n: u32, m: u32) -> OpCost {
        let w = 2 * n;
        debug_assert!(m <= w);
        let per_serial_bit = self.em.nor_op(1) + self.em.write_op(1);
        if m == 0 {
            let ops = u64::from(12 * w + 1);
            return OpCost {
                cycles: Cycles::new(ops),
                energy: self.em.write_op(1) + per_serial_bit * ops as f64,
            };
        }
        let mm = m as usize;
        // Approximate region: carry seed write, m MAJ + write-back pairs,
        // one parallel inversion into the other block.
        let approx_energy = self.em.write_op(1)
            + (self.em.maj_op(1) + self.em.write_op(1)) * f64::from(m)
            + (self.em.write_op(mm) + self.em.nor_op(mm) + self.em.interconnect_op(mm));
        if m == w {
            return OpCost {
                cycles: Cycles::new(u64::from(2 * m + 1)),
                energy: approx_energy,
            };
        }
        let k = w - m;
        let serial_ops = u64::from(12 * k);
        OpCost {
            cycles: Cycles::new(u64::from(2 * m) + 1 + 1 + serial_ops),
            energy: approx_energy
                + (self.em.write_op(1) + self.em.nor_op(1)) // boundary carry complement
                + per_serial_bit * serial_ops as f64,
        }
    }

    /// Cost of one `n × n` multiplication with the given multiplier value
    /// (the partial-product count depends on its set bits, §3.3).
    pub fn multiply(&self, n: u32, multiplier: u64, mode: PrecisionMode) -> OpCost {
        let shifts = partial_product_shifts(multiplier, mode.masked_multiplier_bits());
        self.multiply_with_ones(n, shifts.len() as u32, mode)
    }

    /// Cost of one `n × n` multiplication whose multiplier has `ones` set
    /// bits after masking.
    pub fn multiply_with_ones(&self, n: u32, ones: u32, mode: PrecisionMode) -> OpCost {
        let mut cost = self.partial_products(n, ones);
        if ones >= 2 {
            cost += self.tree_reduce(ones, 2 * n, 2 * n + 2);
            cost += self.final_stage(n, mode.relaxed_product_bits());
        }
        cost
    }

    /// Expected cost of an `n × n` multiplication on random data: on
    /// average half the unmasked multiplier bits are ones ("there would be
    /// only 16 additions on average for 32 × 32", §3.3).
    pub fn multiply_expected(&self, n: u32, mode: PrecisionMode) -> OpCost {
        let unmasked = n - mode.masked_multiplier_bits().min(n);
        self.multiply_with_ones(n, (unmasked / 2).max(1), mode)
    }

    /// Cost of summing `k` operands of `operand_bits` bits each — Wallace
    /// reduction followed by a final addition wide enough for the result
    /// (`operand_bits + ceil(log2 k)`), optionally relaxing `relax_bits`
    /// LSBs in that final addition (the "99.9 % accuracy" series of
    /// Figure 6).
    pub fn sum_reduce(&self, k: u32, operand_bits: u32, relax_bits: u32) -> OpCost {
        if k == 0 {
            return OpCost::ZERO;
        }
        let result_bits = operand_bits + ceil_log2(k);
        if k == 1 {
            return OpCost::ZERO;
        }
        let mut cost = self.tree_reduce(k, result_bits, result_bits + 2);
        cost += self.final_add_width(result_bits, relax_bits.min(result_bits));
        cost
    }

    /// Cost of one *truncated* `n × n → n` multiplication (C `int`
    /// semantics, which is what the evaluation's OpenCL kernels execute):
    /// identical partial-product and reduction stages, but the final
    /// product generation only produces the low `n` bits, so the paper's
    /// maximum approximation — 32 relax bits — relaxes the *entire* final
    /// stage.
    pub fn multiply_trunc_with_ones(&self, n: u32, ones: u32, mode: PrecisionMode) -> OpCost {
        let mut cost = self.partial_products(n, ones);
        if ones >= 2 {
            cost += self.tree_reduce(ones, n, n + 2);
            cost += self.final_add_width(n, mode.relaxed_product_bits().min(n));
        }
        cost
    }

    /// Expected truncated-multiplication cost on random data (half the
    /// unmasked multiplier bits set).
    pub fn multiply_trunc_expected(&self, n: u32, mode: PrecisionMode) -> OpCost {
        let unmasked = n - mode.masked_multiplier_bits().min(n);
        self.multiply_trunc_with_ones(n, (unmasked / 2).max(1), mode)
    }

    /// Exact cost of one truncated multiplication for a *known* multiplier
    /// value: partial products whose windows are clipped at bit `n` cost
    /// proportionally less, so this is cheaper (and more precise) than the
    /// conservative [`CostModel::multiply_trunc_with_ones`] estimate. This
    /// is the formula the gate-level simulator is validated against.
    pub fn multiply_trunc_value(&self, n: u32, multiplier: u64, mode: PrecisionMode) -> OpCost {
        let shifts = partial_product_shifts(multiplier, mode.masked_multiplier_bits());
        let ones = shifts.len() as u32;
        let mut cost = self.partial_products_trunc(n, &shifts);
        if ones >= 2 {
            cost += self.tree_reduce(ones, n, n + 2);
            cost += self.final_add_width(n, mode.relaxed_product_bits().min(n));
        }
        cost
    }

    /// Exact cost of a fused MAC over *known* multiplier values (the
    /// gate-level [`crate::mac::CrossbarMac`] is validated against this):
    /// per-term truncated partial products, one tree over the whole pile,
    /// one relaxed final addition.
    pub fn mac_group_value(&self, n: u32, multipliers: &[u64], mode: PrecisionMode) -> OpCost {
        let mut cost = OpCost::ZERO;
        let mut total_pps = 0u32;
        for &b in multipliers {
            let shifts = partial_product_shifts(b, mode.masked_multiplier_bits());
            total_pps += shifts.len() as u32;
            cost += self.partial_products_trunc(n, &shifts);
        }
        if total_pps >= 2 {
            cost += self.tree_reduce(total_pps, n, n + 2);
            cost += self.final_add_width(n, mode.relaxed_product_bits().min(n));
        }
        cost
    }

    /// Partial-product generation with the window clipped at bit `n`
    /// (truncated products): the copy of the pp shifted by `s` only spans
    /// `n − s` bitlines.
    pub fn partial_products_trunc(&self, n: u32, shifts: &[u32]) -> OpCost {
        let nn = n as usize;
        let read_energy = self.em.read_op(1) * f64::from(n);
        if shifts.is_empty() {
            return OpCost {
                cycles: Cycles::ZERO,
                energy: read_energy,
            };
        }
        let zero_width = (n + 2) as usize;
        let first_not = self.em.write_op(nn) + self.em.nor_op(nn) + self.em.interconnect_op(nn);
        let mut energy = read_energy + first_not;
        for &s in shifts {
            let width = (n - s.min(n)) as usize;
            energy += self.em.write_op(zero_width)
                + self.em.write_op(width)
                + self.em.nor_op(width)
                + self.em.interconnect_op(width);
        }
        OpCost {
            cycles: Cycles::new(shifts.len() as u64 + 1),
            energy,
        }
    }

    /// Cost of a fused multiply-accumulate group (§3.2-style): `group`
    /// truncated `n`-bit products whose sum/carry pairs all feed **one**
    /// Wallace tree and **one** final addition — the natural APIM mapping
    /// of convolution taps or butterfly terms. `ones` is the per-multiplier
    /// set-bit count.
    pub fn mac_group(&self, group: u32, n: u32, ones: u32, mode: PrecisionMode) -> OpCost {
        if group == 0 {
            return OpCost::ZERO;
        }
        let mut cost = self.partial_products(n, ones).scale(u64::from(group));
        let operands = group * ones.max(1);
        if operands >= 2 {
            cost += self.tree_reduce(operands, n, n + 2);
            cost += self.final_add_width(n, mode.relaxed_product_bits().min(n));
        }
        cost
    }

    /// Final two-operand addition at an explicit width with `m` relaxed
    /// LSBs (shared by [`CostModel::sum_reduce`] and the truncated
    /// multiplication path).
    pub fn final_add_width(&self, w: u32, m: u32) -> OpCost {
        // Same structure as `final_stage` but parameterized directly on w.
        let per_serial_bit = self.em.nor_op(1) + self.em.write_op(1);
        if m == 0 {
            let ops = u64::from(12 * w + 1);
            return OpCost {
                cycles: Cycles::new(ops),
                energy: self.em.write_op(1) + per_serial_bit * ops as f64,
            };
        }
        let mm = m as usize;
        let approx_energy = self.em.write_op(1)
            + (self.em.maj_op(1) + self.em.write_op(1)) * f64::from(m)
            + (self.em.write_op(mm) + self.em.nor_op(mm) + self.em.interconnect_op(mm));
        if m == w {
            return OpCost {
                cycles: Cycles::new(u64::from(2 * m + 1)),
                energy: approx_energy,
            };
        }
        let k = w - m;
        let serial_ops = u64::from(12 * k);
        OpCost {
            cycles: Cycles::new(u64::from(2 * m) + 2 + serial_ops),
            energy: approx_energy
                + (self.em.write_op(1) + self.em.nor_op(1))
                + per_serial_bit * serial_ops as f64,
        }
    }

    /// Serial in-memory subtraction of two `n`-bit numbers: the ripple
    /// netlist of [`CostModel::serial_add`] plus one row-wide NOT of the
    /// subtrahend and a seeded (rather than zero) carry complement —
    /// `12N + 2` cycles, mirroring [`crate::subtractor::sub_words`].
    pub fn serial_sub(&self, n: u32) -> OpCost {
        let nn = n as usize;
        let netlist_ops = u64::from(12 * n);
        let per_serial_bit = self.em.nor_op(1) + self.em.write_op(1);
        OpCost {
            cycles: Cycles::new(netlist_ops + 2),
            // NOT of the subtrahend row, the carry-seed preload, the seed
            // complement NOR, then init + NOR per netlist operation.
            energy: (self.em.write_op(nn) + self.em.nor_op(nn))
                + self.em.write_op(1)
                + per_serial_bit
                + per_serial_bit * netlist_ops as f64,
        }
    }

    /// Constant shift of an `n`-bit word through the interconnect: two
    /// NOT copies (the shift rides the cross-block NOR for free, §2), plus
    /// — for arithmetic right shifts (`amount < 0`) — one sense-amp read
    /// and `|amount|` serial write-backs that re-drive the sign bits.
    pub fn shift_copy(&self, n: u32, amount: i32) -> OpCost {
        let k = amount.unsigned_abs().min(n);
        let width = (n - k) as usize;
        let copy_energy = self.em.write_op(n as usize)
            + (self.em.write_op(width) + self.em.nor_op(width) + self.em.interconnect_op(width))
            + (self.em.write_op(width) + self.em.nor_op(width));
        if amount >= 0 {
            OpCost {
                cycles: Cycles::new(2),
                energy: copy_energy,
            }
        } else {
            OpCost {
                cycles: Cycles::new(2 + u64::from(k)),
                energy: copy_energy + self.em.read_op(1) + self.em.write_op(1) * f64::from(k),
            }
        }
    }

    /// Cycles of a gate-level restoring division of `n`-bit operands
    /// (extension; see [`crate::divider`]): `n` trial subtractions over a
    /// `2n`-bit window plus two commit NOTs per set quotient bit
    /// (`q_ones`, worst case `n`).
    pub fn divide_cycles(n: u32, q_ones: u32) -> Cycles {
        Cycles::new(u64::from(n) * u64::from(12 * 2 * n + 2) + 2 * u64::from(q_ones.min(n)))
    }

    /// The number of tree stages for `k` operands (re-exported convenience).
    pub fn stages(k: u32) -> u32 {
        tree_stages(k as usize) as u32
    }
}

/// Ceiling of log2 (0 and 1 map to 0).
pub fn ceil_log2(k: u32) -> u32 {
    if k <= 1 {
        0
    } else {
        32 - (k - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(&Device::default())
    }

    #[test]
    fn serial_add_matches_paper_formula() {
        let m = model();
        for n in [1u32, 8, 16, 32, 64] {
            assert_eq!(m.serial_add(n).cycles.get(), u64::from(12 * n + 1));
        }
    }

    #[test]
    fn csa_tree_uses_13_cycles_per_stage() {
        let m = model();
        // 9 operands: 4 stages (§3.2) -> 52 cycles.
        assert_eq!(m.tree_reduce(9, 32, 34).cycles.get(), 4 * 13);
        // <= 2 operands: no reduction needed.
        assert_eq!(m.tree_reduce(2, 32, 34).cycles, Cycles::ZERO);
        assert_eq!(m.tree_reduce(0, 32, 34), OpCost::ZERO);
    }

    #[test]
    fn fast_adder_beats_serial_by_paper_margin() {
        // §3.2: adding 3 N-bit numbers: 12N + 14 (tree) vs 24N - 22
        // (two serial passes). Our counts: 13 + 12(N+2) + 1 vs 2 serial
        // adds — check the crossover behaviour holds.
        let m = model();
        for n in [16u32, 32, 64] {
            let fast = m.sum_reduce(3, n, 0).cycles.get();
            let serial_twice = 2 * m.serial_add(n).cycles.get();
            assert!(
                fast < serial_twice,
                "n={n}: tree {fast} !< 2x serial {serial_twice}"
            );
        }
    }

    #[test]
    fn partial_products_cost_ones_plus_one() {
        let m = model();
        assert_eq!(m.partial_products(32, 16).cycles.get(), 17);
        assert_eq!(m.partial_products(32, 32).cycles.get(), 33); // worst: N+1
        assert_eq!(m.partial_products(32, 0).cycles, Cycles::ZERO);
        assert!(
            m.partial_products(32, 0).energy.as_joules() > 0.0,
            "reads still cost"
        );
    }

    #[test]
    fn final_stage_piecewise_formula() {
        let m = model();
        let n = 32;
        let w = 64;
        assert_eq!(m.final_stage(n, 0).cycles.get(), u64::from(12 * w + 1));
        assert_eq!(m.final_stage(n, w).cycles.get(), u64::from(2 * w + 1));
        let mm = 16;
        assert_eq!(
            m.final_stage(n, mm).cycles.get(),
            u64::from(12 * (w - mm) + 2 * mm + 2)
        );
    }

    #[test]
    fn approximation_strictly_reduces_final_cost() {
        let m = model();
        let mut last = u64::MAX;
        for relax in [0u32, 4, 8, 16, 24, 32, 48, 64] {
            let c = m.final_stage(32, relax).cycles.get();
            assert!(c < last, "relax={relax}: {c} !< {last}");
            last = c;
        }
    }

    #[test]
    fn multiply_costs_decrease_with_masking() {
        let m = model();
        let exact = m.multiply(32, u64::from(u32::MAX), PrecisionMode::Exact);
        let masked = m.multiply(
            32,
            u64::from(u32::MAX),
            PrecisionMode::FirstStage { masked_bits: 8 },
        );
        assert!(masked.cycles < exact.cycles);
        assert!(masked.energy.as_joules() < exact.energy.as_joules());
    }

    #[test]
    fn multiply_sparse_multiplier_is_cheap() {
        let m = model();
        let sparse = m.multiply(32, 0b1000, PrecisionMode::Exact);
        let dense = m.multiply(32, u64::from(u32::MAX), PrecisionMode::Exact);
        // One partial product: no tree, no final stage.
        assert_eq!(sparse.cycles.get(), 2);
        assert!(sparse.cycles.get() * 100 < dense.cycles.get());
    }

    #[test]
    fn multiply_zero_multiplier_costs_reads_only() {
        let m = model();
        let c = m.multiply(32, 0, PrecisionMode::Exact);
        assert_eq!(c.cycles, Cycles::ZERO);
    }

    #[test]
    fn expected_multiply_uses_half_density() {
        let m = model();
        let expected = m.multiply_expected(32, PrecisionMode::Exact);
        let with_16 = m.multiply_with_ones(32, 16, PrecisionMode::Exact);
        assert_eq!(expected, with_16);
    }

    #[test]
    fn reduction_time_independent_of_operand_size() {
        // §3.3: "N x 32 multiplication takes the same time in this stage
        // for any value of N" — tree cycles depend only on operand count.
        let m = model();
        let narrow = m.tree_reduce(16, 16, 18).cycles;
        let wide = m.tree_reduce(16, 128, 130).cycles;
        assert_eq!(narrow, wide);
    }

    #[test]
    fn edp_and_latency_are_consistent() {
        let m = model();
        let cost = m.multiply_expected(32, PrecisionMode::Exact);
        let latency = m.latency(cost);
        assert!((latency.as_nanos() - cost.cycles.get() as f64 * 1.1).abs() < 1e-6);
        let edp = m.edp(cost);
        assert!(
            (edp.as_joule_seconds() - cost.energy.as_joules() * latency.as_secs()).abs() < 1e-30
        );
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(32), 5);
        assert_eq!(ceil_log2(33), 6);
    }

    #[test]
    fn opcost_arithmetic() {
        let a = OpCost {
            cycles: Cycles::new(5),
            energy: Joules::from_picojoules(1.0),
        };
        let b = a.scale(3);
        assert_eq!(b.cycles.get(), 15);
        assert!((b.energy.as_picojoules() - 3.0).abs() < 1e-12);
        let mut c = a;
        c += a;
        assert_eq!(c.cycles.get(), 10);
        assert_eq!((a + a).cycles.get(), 10);
    }

    #[test]
    fn trunc_multiply_final_stage_shrinks_to_nothing() {
        let m = model();
        let exact = m.multiply_trunc_expected(32, PrecisionMode::Exact);
        let relaxed = m.multiply_trunc_expected(32, PrecisionMode::LastStage { relax_bits: 32 });
        // pp(16) + tree + 12*32+1 vs pp + tree + 2*32+1.
        assert_eq!(exact.cycles.get(), 17 + 13 * 6 + 385);
        assert_eq!(relaxed.cycles.get(), 17 + 13 * 6 + 65);
        let ratio = exact.cycles.get() as f64 / relaxed.cycles.get() as f64;
        assert!(ratio > 2.5, "max relaxation should cut ~3x: {ratio}");
    }

    #[test]
    fn trunc_costs_less_than_full_width() {
        let m = model();
        let full = m.multiply_expected(32, PrecisionMode::Exact);
        let trunc = m.multiply_trunc_expected(32, PrecisionMode::Exact);
        assert!(trunc.cycles < full.cycles);
        assert!(trunc.energy.as_joules() < full.energy.as_joules());
    }

    #[test]
    fn mac_group_shares_one_final_stage() {
        let m = model();
        let mode = PrecisionMode::Exact;
        let fused = m.mac_group(12, 32, 16, mode);
        let separate = m.multiply_trunc_with_ones(32, 16, mode).scale(12);
        // Fusing 12 products saves 11 final stages (minus the bigger tree).
        assert!(fused.cycles < separate.cycles);
        assert_eq!(m.mac_group(0, 32, 16, mode), OpCost::ZERO);
        // A single product degenerates to a plain truncated multiply.
        assert_eq!(
            m.mac_group(1, 32, 16, mode).cycles,
            m.multiply_trunc_with_ones(32, 16, mode).cycles
        );
    }

    #[test]
    fn mac_group_relaxation_has_leverage() {
        let m = model();
        let exact = m.mac_group(12, 32, 16, PrecisionMode::Exact);
        let relaxed = m.mac_group(12, 32, 16, PrecisionMode::LastStage { relax_bits: 32 });
        let ratio = exact.cycles.get() as f64 / relaxed.cycles.get() as f64;
        assert!(ratio > 1.5, "fused relaxation ratio {ratio}");
    }

    #[test]
    fn divide_formula_matches_gate_level() {
        use crate::divider::divide;
        use apim_crossbar::{BlockedCrossbar, CrossbarConfig};
        let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
        let blk = xbar.block(1).unwrap();
        for (x, y) in [(200u64, 7u64), (255, 1), (1, 255), (84, 84)] {
            let run = divide(&mut xbar, blk, x, y, 8).unwrap();
            let q_ones = (x / y).count_ones();
            assert_eq!(run.cycles, CostModel::divide_cycles(8, q_ones), "{x}/{y}");
        }
    }

    #[test]
    fn sum_reduce_matches_fig6_structure() {
        let m = model();
        // Adding N operands of N bits: 13*stages(N) + serial over
        // N + ceil_log2(N) bits.
        let n = 32;
        let expect = 13 * u64::from(CostModel::stages(n)) + u64::from(12 * (n + ceil_log2(n)) + 1);
        assert_eq!(m.sum_reduce(n, n, 0).cycles.get(), expect);
        // Relaxed final stage is cheaper.
        assert!(m.sum_reduce(n, n, 16).cycles < m.sum_reduce(n, n, 0).cycles);
        assert_eq!(m.sum_reduce(1, 32, 0), OpCost::ZERO);
        assert_eq!(m.sum_reduce(0, 32, 0), OpCost::ZERO);
    }
}
