//! Cross-layer consistency: the repo's central invariant chain checked
//! through public APIs only — gate-level crossbar simulation == pure
//! functional semantics == native integer math (exact mode), with cycle
//! counts equal to the analytic cost model.

use apim::{Device, DeviceParams, PrecisionMode};
use apim_logic::error_analysis::SplitMix64;
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::{functional, CostModel};

#[test]
fn sixteen_bit_multiplier_chain_holds_across_modes() {
    let device = Device::default();
    let mut mul = CrossbarMultiplier::new(16, &device).unwrap();
    let model = CostModel::new(&device);
    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..10 {
        let a = rng.next_bits(16);
        let b = rng.next_bits(16);
        for mode in [
            PrecisionMode::Exact,
            PrecisionMode::FirstStage { masked_bits: 5 },
            PrecisionMode::LastStage { relax_bits: 10 },
            PrecisionMode::LastStage { relax_bits: 32 },
        ] {
            let run = mul.multiply(a, b, mode).unwrap();
            assert_eq!(
                run.product,
                functional::multiply(a, b, 16, mode),
                "{a}x{b} {mode}: gate-level vs functional"
            );
            if mode == PrecisionMode::Exact {
                assert_eq!(run.product, a as u128 * b as u128, "{a}x{b}: vs native");
            }
            assert_eq!(
                run.stats.cycles,
                model.multiply(16, b, mode).cycles,
                "{a}x{b} {mode}: cycles vs analytic model"
            );
        }
    }
}

#[test]
fn thirty_two_bit_multiplier_spot_check() {
    let device = Device::default();
    let mut mul = CrossbarMultiplier::new(32, &device).unwrap();
    let model = CostModel::new(&device);
    let (a, b) = (0xDEAD_BEEFu64, 0x7654_3210u64);
    let run = mul.multiply(a, b, PrecisionMode::Exact).unwrap();
    assert_eq!(run.product, a as u128 * b as u128);
    assert_eq!(
        run.stats.cycles,
        model.multiply(32, b, PrecisionMode::Exact).cycles
    );
    let energy_rel = (run.stats.energy.as_joules()
        - model
            .multiply(32, b, PrecisionMode::Exact)
            .energy
            .as_joules())
    .abs()
        / run.stats.energy.as_joules();
    assert!(energy_rel < 1e-9, "energy mismatch {energy_rel}");
}

#[test]
fn workload_arith_matches_functional_semantics() {
    use apim_workloads::{ApimArith, Arith};
    let mode = PrecisionMode::LastStage { relax_bits: 20 };
    let mut arith = ApimArith::new(mode);
    for (a, b) in [(123_456i32, -987_654i32), (-4096, -8192), (77, 0)] {
        assert_eq!(
            arith.mul(a, b),
            functional::multiply_signed(i64::from(a), i64::from(b), 32, mode) as i64
        );
    }
}

#[test]
fn cost_model_is_device_parameter_sensitive() {
    let slow = Device::new(DeviceParams {
        cycle_ns: 3.3,
        ..Default::default()
    })
    .unwrap();
    let slow = CostModel::new(&slow);
    let fast = CostModel::new(&Device::default());
    let cost = fast.multiply_expected(32, PrecisionMode::Exact);
    let cost_slow = slow.multiply_expected(32, PrecisionMode::Exact);
    // Same cycles, different wall-clock.
    assert_eq!(cost.cycles, cost_slow.cycles);
    let ratio = slow.latency(cost_slow) / fast.latency(cost);
    assert!((ratio - 3.0).abs() < 1e-9);
}
