//! Property-based tests for the APIM arithmetic stack.
//!
//! The repo's core invariant chain: native integer math == functional model
//! == gate-level crossbar simulation, for every precision mode, with cycle
//! counts matching the analytic cost model exactly.

use apim_device::Device;
use apim_logic::error_analysis::SplitMix64;
use apim_logic::functional::{
    approx_add_last_stage, csa, multiply, multiply_signed, reduce_to_two, tree_stages,
};
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::{CostModel, PrecisionMode};
use proptest::prelude::*;

proptest! {
    #[test]
    fn csa_always_preserves_sum(a in 0u128..1 << 100, b in 0u128..1 << 100, c in 0u128..1 << 100) {
        let (s, cy) = csa(a, b, c);
        prop_assert_eq!(s + cy, a + b + c);
    }

    #[test]
    fn reduction_preserves_sum(ops in proptest::collection::vec(0u128..1 << 90, 0..40)) {
        let [s, c] = reduce_to_two(&ops);
        prop_assert_eq!(s + c, ops.iter().sum::<u128>());
    }

    #[test]
    fn tree_stage_count_is_logarithmic(k in 3usize..4096) {
        let stages = tree_stages(k);
        // 3:2 reduction shrinks by at most 2/3 per stage; stages is
        // Theta(log_{3/2} k).
        prop_assert!(stages >= 1);
        prop_assert!(stages <= 2 + (k as f64).log(1.5).ceil() as usize);
    }

    #[test]
    fn exact_multiply_equals_native(a: u32, b: u32) {
        prop_assert_eq!(
            multiply(u64::from(a), u64::from(b), 32, PrecisionMode::Exact),
            u128::from(a) * u128::from(b)
        );
    }

    #[test]
    fn first_stage_equals_masked_native(a: u32, b: u32, f in 0u8..=32) {
        let masked = if f >= 32 { 0 } else { u64::from(b) & (u64::MAX << f) };
        prop_assert_eq!(
            multiply(u64::from(a), u64::from(b), 32, PrecisionMode::FirstStage { masked_bits: f }),
            u128::from(a) * u128::from(masked)
        );
    }

    #[test]
    fn last_stage_error_bounded_and_high_bits_exact(a: u32, b: u32, m in 0u8..=64) {
        let approx = multiply(u64::from(a), u64::from(b), 32,
                              PrecisionMode::LastStage { relax_bits: m });
        let exact = u128::from(a) * u128::from(b);
        if a != 0 && b != 0 {
            // Operands with >= 2 partial products go through the final adder.
            prop_assert!(approx.abs_diff(exact) < 1u128 << m || approx == exact);
            if m < 64 {
                prop_assert_eq!(approx >> m, exact >> m);
            }
        } else {
            prop_assert_eq!(approx, 0);
        }
    }

    #[test]
    fn approx_add_m0_is_exact(x in 0u128..1 << 64, y in 0u128..1 << 64) {
        prop_assert_eq!(approx_add_last_stage(x, y, 66, 0), x + y);
    }

    #[test]
    fn approx_add_error_localized(x in 0u128..1 << 40, y in 0u128..1 << 40, m in 0u32..=41) {
        let approx = approx_add_last_stage(x, y, 42, m);
        let exact = (x + y) & ((1 << 42) - 1);
        prop_assert_eq!(approx >> m, exact >> m);
    }

    #[test]
    fn signed_multiply_sign_correct(a: i32, b: i32) {
        let r = multiply_signed(i64::from(a), i64::from(b), 32, PrecisionMode::Exact);
        prop_assert_eq!(r, i128::from(a) * i128::from(b));
    }

    #[test]
    fn relax_bits_monotonically_cheapen(m1 in 0u32..=63, delta in 1u32..=16) {
        let m2 = (m1 + delta).min(64);
        let model = CostModel::new(&Device::default());
        let c1 = model.final_stage(32, m1);
        let c2 = model.final_stage(32, m2);
        prop_assert!(c2.cycles < c1.cycles);
        prop_assert!(c2.energy.as_joules() < c1.energy.as_joules());
    }

    #[test]
    fn masking_monotonically_cheapens(f in 0u8..32) {
        let model = CostModel::new(&Device::default());
        let b = u64::from(u32::MAX);
        let c1 = model.multiply(32, b, PrecisionMode::FirstStage { masked_bits: f });
        let c2 = model.multiply(32, b, PrecisionMode::FirstStage { masked_bits: f + 1 });
        prop_assert!(c2.cycles <= c1.cycles);
    }
}

proptest! {
    #[test]
    fn trunc_multiply_wraps_exactly(a: u32, b: u32) {
        use apim_logic::functional::multiply_trunc;
        prop_assert_eq!(
            multiply_trunc(u64::from(a), u64::from(b), 32, PrecisionMode::Exact),
            u64::from(a.wrapping_mul(b))
        );
    }

    #[test]
    fn trunc_relaxed_high_bits_follow_exact_carries(a: u32, b: u32, m in 0u8..=32) {
        use apim_logic::functional::multiply_trunc;
        let mode = PrecisionMode::LastStage { relax_bits: m };
        let approx = multiply_trunc(u64::from(a), u64::from(b), 32, mode);
        let exact = u64::from(a.wrapping_mul(b));
        if m < 32 && a != 0 && b != 0 {
            // Carries are exact, so bits above m agree with the wrapped
            // exact product.
            prop_assert_eq!(approx >> m, exact >> m);
        }
    }

    #[test]
    fn mac_functional_sums_partial_products(
        terms in proptest::collection::vec((0u64..256, 0u64..256), 0..6)
    ) {
        use apim_logic::mac::mac_trunc_functional;
        let got = mac_trunc_functional(&terms, 8, PrecisionMode::Exact);
        let expect = terms.iter().fold(0u64, |acc, &(a, b)| acc.wrapping_add(a * b)) & 0xFF;
        prop_assert_eq!(got, expect);
    }
}

// Gate-level equivalence is the expensive property; keep the case count
// moderate and the operand width small.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gate_level_equals_functional(a in 0u64..256, b in 0u64..256, m in 0u8..=16, f in 0u8..=8) {
        let mut mul = CrossbarMultiplier::new(8, &Device::default()).unwrap();
        let model = CostModel::new(&Device::default());
        for mode in [
            PrecisionMode::Exact,
            PrecisionMode::FirstStage { masked_bits: f },
            PrecisionMode::LastStage { relax_bits: m },
        ] {
            let run = mul.multiply(a, b, mode).unwrap();
            prop_assert_eq!(run.product, multiply(a, b, 8, mode),
                "value mismatch: {} x {} {}", a, b, mode);
            let predicted = model.multiply(8, b, mode);
            prop_assert_eq!(run.stats.cycles, predicted.cycles,
                "cycle mismatch: {} x {} {}", a, b, mode);
            let rel = (run.stats.energy.as_joules() - predicted.energy.as_joules()).abs()
                / predicted.energy.as_joules().max(1e-30);
            prop_assert!(rel < 1e-9, "energy mismatch {} for {} x {} {}", rel, a, b, mode);
        }
    }

    #[test]
    fn gate_level_divider_matches_native(x in 0u64..256, y in 1u64..256) {
        use apim_crossbar::{BlockedCrossbar, CrossbarConfig};
        use apim_logic::divider::divide;
        let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
        let blk = xbar.block(1).unwrap();
        let run = divide(&mut xbar, blk, x, y, 8).unwrap();
        prop_assert_eq!(run.quotient, x / y);
        prop_assert_eq!(run.remainder, x % y);
    }

    #[test]
    fn gate_level_subtractor_matches_native(x: u16, y: u16) {
        use apim_crossbar::{BlockedCrossbar, CrossbarConfig};
        use apim_logic::subtractor::subtract;
        let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
        let blk = xbar.block(1).unwrap();
        let got = subtract(&mut xbar, blk, u64::from(x), u64::from(y), 16).unwrap();
        prop_assert_eq!(got, u64::from(x.wrapping_sub(y)));
    }

    #[test]
    fn gate_level_add_lanes_matches_native(
        pairs in proptest::collection::vec((0u64..65536, 0u64..65536), 1..6)
    ) {
        use apim_crossbar::{BlockedCrossbar, CrossbarConfig, RowAllocator};
        use apim_logic::adder_serial::SerialScratch;
        use apim_logic::lanes::{add_lanes, preload_lanes, read_lanes};
        let lanes = pairs.len();
        let xs: Vec<u64> = pairs.iter().map(|&(a, _)| a).collect();
        let ys: Vec<u64> = pairs.iter().map(|&(_, b)| b).collect();
        let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
        let blk = xbar.block(1).unwrap();
        preload_lanes(&mut xbar, blk, 0, 0, 16, lanes, &xs).unwrap();
        preload_lanes(&mut xbar, blk, 1, 0, 16, lanes, &ys).unwrap();
        let mut alloc = RowAllocator::new(xbar.rows());
        alloc.alloc_many(3).unwrap();
        let scratch = SerialScratch::alloc(&mut alloc).unwrap();
        let before = *xbar.stats();
        add_lanes(&mut xbar, blk, 0, 1, 2, 0..16, lanes, &scratch).unwrap();
        let sums = read_lanes(&xbar, blk, 2, 0, 16, lanes).unwrap();
        for (got, &(a, b)) in sums.iter().zip(&pairs) {
            prop_assert_eq!(*got, (a + b) & 0xFFFF);
        }
        prop_assert_eq!((*xbar.stats() - before).cycles.get(), 12 * 16 + 1);
    }

    #[test]
    fn gate_level_16_bit_exact(seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let a = rng.next_bits(16);
        let b = rng.next_bits(16);
        let mut mul = CrossbarMultiplier::new(16, &Device::default()).unwrap();
        let run = mul.multiply(a, b, PrecisionMode::Exact).unwrap();
        prop_assert_eq!(run.product, u128::from(a) * u128::from(b));
    }
}
