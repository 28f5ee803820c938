//! Gate-level fused multiply-accumulate (the §3.2 pattern, realized).
//!
//! A convolution tap sum `Σ aᵢ·bᵢ` does not need one final product
//! generation per multiplication: APIM generates *all* partial products of
//! *all* terms into the processing block, reduces the whole pile with one
//! Wallace tree, and pays one final addition for the entire output — the
//! very workload the paper's multi-operand fast adder exists for. This is
//! the mapping the cost executor charges for application kernels
//! ([`crate::CostModel::mac_group`]); this module realizes it on simulated
//! cells and the tests pin the two against each other.
//!
//! Products are truncated `n`-bit C `int` semantics; the accumulation wraps
//! modulo `2^n` exactly like the kernels it models.
//!
//! The unit holds no pipeline code of its own: it runs the multiplier's
//! product body (stage 1 is [`crate::multiplier::partial_products`]) over
//! `k` terms, where a truncated multiply is the one-term case.

use apim_crossbar::{Backend, BlockedCrossbar, CrossbarConfig, CrossbarError, Result, Stats};
use apim_device::Device;

use crate::adder_csa::CSA_SCRATCH_ROWS;
use crate::functional::partial_product_shifts;
use crate::multiplier::product;
use crate::precision::PrecisionMode;

/// Outcome of one fused MAC evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacRun {
    /// `Σ aᵢ·bᵢ mod 2^n` under the configured precision.
    pub value: u64,
    /// Cost delta of this evaluation.
    pub stats: Stats,
}

/// A gate-level fused MAC unit for `n`-bit operands.
///
/// ```
/// use apim_logic::mac::CrossbarMac;
/// use apim_logic::PrecisionMode;
/// use apim_device::Device;
///
/// # fn main() -> Result<(), apim_crossbar::CrossbarError> {
/// let mut mac = CrossbarMac::new(8, 4, &Device::default())?;
/// let run = mac.mac(&[(3, 5), (7, 9), (2, 2)], PrecisionMode::Exact)?;
/// assert_eq!(run.value, (3 * 5 + 7 * 9 + 2 * 2) & 0xFF);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarMac {
    xbar: BlockedCrossbar,
    n: u32,
    max_terms: usize,
}

impl CrossbarMac {
    /// Builds a MAC unit accepting up to `max_terms` products of `n`-bit
    /// operands.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] for unsupported widths or a
    /// zero term budget.
    pub fn new(n: u32, max_terms: usize, device: &Device) -> Result<Self> {
        Self::with_backend(n, max_terms, device, Backend::default())
    }

    /// Like [`CrossbarMac::new`] on an explicit storage [`Backend`] — the
    /// differential suites run the same MAC on the packed path and the
    /// scalar oracle and compare bit-for-bit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CrossbarMac::new`].
    pub fn with_backend(
        n: u32,
        max_terms: usize,
        device: &Device,
        backend: Backend,
    ) -> Result<Self> {
        if !(4..=64).contains(&n) {
            return Err(CrossbarError::InvalidConfig(format!(
                "operand width {n} outside supported range 4..=64"
            )));
        }
        if max_terms == 0 {
            return Err(CrossbarError::InvalidConfig(
                "MAC needs at least one term".into(),
            ));
        }
        // Worst case: every multiplier bit set -> n partial products/term.
        let operand_rows = max_terms * n as usize;
        let rows = (operand_rows + CSA_SCRATCH_ROWS).max(17);
        let cols = n as usize + 4;
        let xbar = BlockedCrossbar::new(CrossbarConfig {
            blocks: 3,
            rows,
            cols,
            device: device.clone(),
            strict_init: true,
            backend,
        })?;
        Ok(CrossbarMac { xbar, n, max_terms })
    }

    /// Maximum number of product terms per evaluation.
    pub fn max_terms(&self) -> usize {
        self.max_terms
    }

    /// The underlying crossbar.
    pub fn crossbar(&self) -> &BlockedCrossbar {
        &self.xbar
    }

    /// Mutable access to the underlying crossbar — used by callers that
    /// arm operation recording (see `BlockedCrossbar::start_recording`)
    /// around a MAC evaluation.
    pub fn crossbar_mut(&mut self) -> &mut BlockedCrossbar {
        &mut self.xbar
    }

    /// Evaluates `Σ aᵢ·bᵢ mod 2^n` over the term list under `mode`:
    /// per-term partial products (shared first NOT per term), one Wallace
    /// reduction over the whole pile, one (optionally relaxed) final
    /// addition.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] if there are more terms
    /// than budgeted, operands exceed `n` bits, or the mode is invalid.
    pub fn mac(&mut self, terms: &[(u64, u64)], mode: PrecisionMode) -> Result<MacRun> {
        if terms.len() > self.max_terms {
            return Err(CrossbarError::InvalidConfig(format!(
                "{} terms exceed the budget of {}",
                terms.len(),
                self.max_terms
            )));
        }
        let run = product(&mut self.xbar, self.n, terms, self.n as usize, 0, mode)?;
        Ok(MacRun {
            // A w ≤ 64-bit sum: the cast is lossless.
            value: run.product as u64,
            stats: run.stats,
        })
    }
}

/// Functional reference of the fused MAC: all partial products of all
/// terms, reduced together, one relaxed final addition over `n` bits.
pub fn mac_trunc_functional(terms: &[(u64, u64)], n: u32, mode: PrecisionMode) -> u64 {
    use crate::functional::{approx_add_last_stage, reduce_step};
    let mask = if n == 64 { u128::MAX } else { (1u128 << n) - 1 };
    let mut pps = Vec::new();
    for &(a, b) in terms {
        for s in partial_product_shifts(b, mode.masked_multiplier_bits()) {
            pps.push(((a as u128) << s) & mask);
        }
    }
    match pps.len() {
        0 => 0,
        1 => pps[0] as u64,
        _ => {
            let mut ops = pps;
            while ops.len() > 2 {
                ops = reduce_step(&ops).into_iter().map(|v| v & mask).collect();
            }
            let m = mode.relaxed_product_bits().min(n);
            approx_add_last_stage(ops[0] & mask, ops[1] & mask, n, m) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_analysis::SplitMix64;

    fn mac_unit(n: u32, terms: usize) -> CrossbarMac {
        CrossbarMac::new(n, terms, &Device::default()).unwrap()
    }

    #[test]
    fn exact_mac_matches_native_mod_2n() {
        let mut mac = mac_unit(8, 4);
        let terms = [(3u64, 5u64), (7, 9), (2, 2), (100, 100)];
        let run = mac.mac(&terms, PrecisionMode::Exact).unwrap();
        let native: u64 = terms.iter().map(|&(a, b)| a * b).sum::<u64>() & 0xFF;
        assert_eq!(run.value, native);
    }

    #[test]
    fn matches_functional_reference_in_all_modes() {
        let mut rng = SplitMix64::new(77);
        let mut mac = mac_unit(8, 3);
        for _ in 0..5 {
            let terms: Vec<(u64, u64)> = (0..3)
                .map(|_| (rng.next_bits(8), rng.next_bits(8)))
                .collect();
            for mode in [
                PrecisionMode::Exact,
                PrecisionMode::FirstStage { masked_bits: 2 },
                PrecisionMode::LastStage { relax_bits: 4 },
                PrecisionMode::LastStage { relax_bits: 8 },
            ] {
                let run = mac.mac(&terms, mode).unwrap();
                assert_eq!(
                    run.value,
                    mac_trunc_functional(&terms, 8, mode),
                    "{terms:?} {mode}"
                );
            }
        }
    }

    #[test]
    fn gate_level_cost_matches_model_exactly() {
        use crate::model::CostModel;
        let model = CostModel::new(&Device::default());
        let mut mac = mac_unit(8, 3);
        for terms in [
            vec![(250u64, 101u64), (37, 201), (99, 77)],
            vec![(13, 240), (200, 15)],
            vec![(255, 255), (1, 1), (128, 129)],
        ] {
            for mode in [
                PrecisionMode::Exact,
                PrecisionMode::LastStage { relax_bits: 6 },
            ] {
                let run = mac.mac(&terms, mode).unwrap();
                let multipliers: Vec<u64> = terms.iter().map(|&(_, b)| b).collect();
                let predicted = model.mac_group_value(8, &multipliers, mode);
                assert_eq!(run.stats.cycles, predicted.cycles, "{terms:?} {mode}");
                let rel = (run.stats.energy.as_joules() - predicted.energy.as_joules()).abs()
                    / predicted.energy.as_joules();
                assert!(rel < 1e-9, "{terms:?} {mode}: energy rel err {rel}");
            }
        }
    }

    #[test]
    fn fused_mac_beats_separate_multiplies() {
        use crate::multiplier::CrossbarMultiplier;
        let terms = [(250u64, 101u64), (37, 201), (99, 77)];
        let mut mac = mac_unit(8, 3);
        let fused = mac.mac(&terms, PrecisionMode::Exact).unwrap();
        let mut mul = CrossbarMultiplier::new(8, &Device::default()).unwrap();
        let mut separate_cycles = 0;
        for &(a, b) in &terms {
            separate_cycles += mul
                .multiply_trunc(a, b, PrecisionMode::Exact)
                .unwrap()
                .stats
                .cycles
                .get();
        }
        // The fused version pays one final stage instead of three (plus the
        // two accumulation adds the separate path would still need).
        assert!(
            fused.stats.cycles.get() < separate_cycles,
            "fused {} vs separate {separate_cycles}",
            fused.stats.cycles
        );
    }

    #[test]
    fn relaxation_reduces_fused_cost() {
        let terms = [(250u64, 101u64), (37, 201), (99, 77), (11, 254)];
        let mut mac = mac_unit(8, 4);
        let exact = mac.mac(&terms, PrecisionMode::Exact).unwrap();
        let relaxed = mac
            .mac(&terms, PrecisionMode::LastStage { relax_bits: 8 })
            .unwrap();
        assert!(relaxed.stats.cycles < exact.stats.cycles);
        assert!(relaxed.stats.energy.as_joules() < exact.stats.energy.as_joules());
    }

    #[test]
    fn empty_and_degenerate_terms() {
        let mut mac = mac_unit(8, 4);
        assert_eq!(mac.mac(&[], PrecisionMode::Exact).unwrap().value, 0);
        assert_eq!(
            mac.mac(&[(0, 255), (255, 0)], PrecisionMode::Exact)
                .unwrap()
                .value,
            0
        );
        // A single one-bit multiplier: one pp, read out directly.
        let run = mac.mac(&[(77, 2)], PrecisionMode::Exact).unwrap();
        assert_eq!(run.value, 154);
    }

    #[test]
    fn term_budget_enforced() {
        let mut mac = mac_unit(8, 2);
        let err = mac
            .mac(&[(1, 1), (2, 2), (3, 3)], PrecisionMode::Exact)
            .unwrap_err();
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn oversized_operands_rejected() {
        let mut mac = mac_unit(8, 2);
        assert!(mac.mac(&[(256, 1)], PrecisionMode::Exact).is_err());
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(CrossbarMac::new(3, 4, &Device::default()).is_err());
        assert!(CrossbarMac::new(8, 0, &Device::default()).is_err());
    }

    #[test]
    fn wrapping_matches_c_int_semantics() {
        let mut mac = mac_unit(8, 2);
        // 200*200 = 40000 = 0x9C40 -> wraps to 0x40 per term; sum wraps too.
        let run = mac
            .mac(&[(200, 200), (200, 200)], PrecisionMode::Exact)
            .unwrap();
        let native = (200u64 * 200 + 200 * 200) & 0xFF;
        assert_eq!(run.value, native);
    }
}
