//! Integration tests for the adaptive QoS controller against real kernel
//! quality, and for the fault-injection extension.

use apim::prelude::*;
use apim::App;
use apim_crossbar::Fault;
use apim_logic::multiplier::CrossbarMultiplier;
use apim_workloads::{run_app, RunConfig};

/// The controller must settle on a *boundary-optimal* level: the chosen
/// mode is acceptable while one more 4-bit step of relaxation is not
/// (unless it already accepted the maximum).
#[test]
fn adaptive_settles_on_the_qos_boundary() {
    for app in App::all() {
        let acceptable = |m: u32| {
            run_app(
                app,
                &RunConfig {
                    mode: PrecisionMode::LastStage {
                        relax_bits: m as u8,
                    },
                    ..RunConfig::default()
                },
            )
            .quality
            .acceptable
        };
        let outcome = AdaptiveController::paper().tune(|mode| {
            run_app(
                app,
                &RunConfig {
                    mode,
                    ..RunConfig::default()
                },
            )
            .quality
            .acceptable
        });
        let chosen = outcome.mode.relaxed_product_bits();
        assert!(acceptable(chosen), "{app}: chosen level must be acceptable");
        if chosen < 32 {
            assert!(
                !acceptable(chosen + 4),
                "{app}: one more step must break QoS (chosen {chosen})"
            );
        }
    }
}

#[test]
fn adaptive_trial_count_matches_trajectory() {
    for app in [App::Sobel, App::Fft] {
        let outcome = AdaptiveController::paper().tune(|mode| {
            run_app(
                app,
                &RunConfig {
                    mode,
                    ..RunConfig::default()
                },
            )
            .quality
            .acceptable
        });
        let expected_trials = (32 - outcome.mode.relaxed_product_bits()) / 4 + 1;
        assert_eq!(outcome.trials, expected_trials, "{app}");
    }
}

#[test]
fn stuck_at_fault_corrupts_products_deterministically() {
    let mut mul = CrossbarMultiplier::new(8, &apim::Device::default()).unwrap();
    let clean = mul
        .multiply(200, 170, PrecisionMode::Exact)
        .unwrap()
        .product;
    assert_eq!(clean, 200 * 170);

    // Stick a partial-product cell high: products using that bitline
    // corrupt, and repeatably so.
    let pp_block = mul.crossbar().block(2).unwrap();
    mul.crossbar_mut()
        .inject_fault(pp_block, 0, 3, Some(Fault::StuckAtOne))
        .unwrap();
    let faulty_a = mul
        .multiply(200, 170, PrecisionMode::Exact)
        .unwrap()
        .product;
    let faulty_b = mul
        .multiply(200, 170, PrecisionMode::Exact)
        .unwrap()
        .product;
    assert_eq!(faulty_a, faulty_b, "fault effects are deterministic");
    assert_ne!(faulty_a, clean, "the stuck bit must corrupt this product");

    // Clearing the fault restores correctness.
    mul.crossbar_mut()
        .inject_fault(pp_block, 0, 3, None)
        .unwrap();
    assert_eq!(
        mul.multiply(200, 170, PrecisionMode::Exact)
            .unwrap()
            .product,
        clean
    );
}

#[test]
fn stuck_at_zero_is_caught_by_the_init_discipline() {
    // A MAGIC output cell stuck at 0 can never be initialized to the ON
    // state; the crossbar's strict initialization check turns what would
    // be silent corruption into a detectable execution error — a free
    // fault-detection property of the init-then-evaluate discipline.
    let mut mul = CrossbarMultiplier::new(8, &apim::Device::default()).unwrap();
    let p0 = mul.crossbar().block(1).unwrap();
    let not_row = mul.crossbar().rows() - 1;
    mul.crossbar_mut()
        .inject_fault(p0, not_row, 0, Some(Fault::StuckAtZero))
        .unwrap();
    let err = mul
        .multiply(0b1010_1010, 0b11, PrecisionMode::Exact)
        .unwrap_err();
    assert!(
        matches!(
            err,
            apim_crossbar::CrossbarError::UninitializedOutput { .. }
        ),
        "got {err}"
    );
    // Clearing the fault restores operation.
    mul.crossbar_mut()
        .inject_fault(p0, not_row, 0, None)
        .unwrap();
    let run = mul
        .multiply(0b1010_1010, 0b11, PrecisionMode::Exact)
        .unwrap();
    assert_eq!(run.product, 0b1010_1010u128 * 0b11);
}

#[test]
fn endurance_counters_accumulate_with_use() {
    let mut mul = CrossbarMultiplier::new(8, &apim::Device::default()).unwrap();
    let mut last = 0;
    for i in 0..4 {
        mul.multiply(123, 231, PrecisionMode::Exact).unwrap();
        let now = mul.crossbar().max_cell_writes();
        assert!(now > last, "iteration {i}: wear must accumulate");
        last = now;
    }
}
