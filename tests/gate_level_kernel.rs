//! Flagship end-to-end test: a complete (tiny) convolution kernel executed
//! **entirely on simulated cells** — every multiply, every accumulate —
//! and checked against the functional semantics, with its cycle bill
//! matching the analytic model exactly.
//!
//! This is the strongest form of the repo's central invariant: not one
//! operation, but a whole kernel, gate level.

use apim::{Device, PrecisionMode};
use apim_logic::mac::{mac_trunc_functional, CrossbarMac};
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::CostModel;

/// 3-tap causal convolution weights (non-dyadic, so approximation bites).
const TAPS: [u64; 3] = [3, 7, 5];

/// The signal (8-bit samples).
const SIGNAL: [u64; 10] = [12, 200, 7, 99, 250, 1, 63, 128, 33, 180];

fn conv_terms(i: usize) -> Vec<(u64, u64)> {
    TAPS.iter()
        .enumerate()
        .filter_map(|(k, &w)| {
            // Causal: output i uses samples i, i-1, i-2.
            i.checked_sub(k).map(|idx| (SIGNAL[idx], w))
        })
        .collect()
}

#[test]
fn whole_convolution_runs_gate_level() {
    for mode in [
        PrecisionMode::Exact,
        PrecisionMode::LastStage { relax_bits: 4 },
        PrecisionMode::LastStage { relax_bits: 8 },
    ] {
        let mut mac = CrossbarMac::new(8, 3, &Device::default()).unwrap();
        let model = CostModel::new(&Device::default());
        let mut total_cycles = 0u64;
        let mut outputs = Vec::new();
        for i in 0..SIGNAL.len() {
            let terms = conv_terms(i);
            let run = mac.mac(&terms, mode).unwrap();
            // Gate level == functional, per output.
            assert_eq!(
                run.value,
                mac_trunc_functional(&terms, 8, mode),
                "output {i} under {mode}"
            );
            // Cycle bill == analytic model, per output.
            let multipliers: Vec<u64> = terms.iter().map(|&(_, b)| b).collect();
            assert_eq!(
                run.stats.cycles,
                model.mac_group_value(8, &multipliers, mode).cycles,
                "output {i} cycles under {mode}"
            );
            total_cycles += run.stats.cycles.get();
            outputs.push(run.value);
        }
        // In exact mode the whole kernel equals the native convolution.
        if mode == PrecisionMode::Exact {
            let native: Vec<u64> = (0..SIGNAL.len())
                .map(|i| {
                    conv_terms(i)
                        .iter()
                        .fold(0u64, |acc, &(a, b)| acc.wrapping_add(a * b))
                        & 0xFF
                })
                .collect();
            assert_eq!(outputs, native, "gate-level kernel == native kernel");
        }
        assert!(total_cycles > 0);
    }
}

#[test]
fn relaxation_cuts_the_whole_kernel_cost() {
    let run_kernel = |mode: PrecisionMode| -> (u64, f64) {
        let mut mac = CrossbarMac::new(8, 3, &Device::default()).unwrap();
        let mut cycles = 0;
        let mut energy = 0.0;
        for i in 0..SIGNAL.len() {
            let run = mac.mac(&conv_terms(i), mode).unwrap();
            cycles += run.stats.cycles.get();
            energy += run.stats.energy.as_joules();
        }
        (cycles, energy)
    };
    let (exact_cycles, exact_energy) = run_kernel(PrecisionMode::Exact);
    let (relaxed_cycles, relaxed_energy) = run_kernel(PrecisionMode::LastStage { relax_bits: 8 });
    assert!(relaxed_cycles < exact_cycles);
    assert!(relaxed_energy < exact_energy);
    let edp_gain = (exact_cycles as f64 * exact_energy) / (relaxed_cycles as f64 * relaxed_energy);
    assert!(edp_gain > 1.5, "whole-kernel EDP gain {edp_gain:.2}");
}

#[test]
fn relaxed_kernel_output_stays_close() {
    let mut mac = CrossbarMac::new(8, 3, &Device::default()).unwrap();
    let mut max_err = 0u64;
    for i in 0..SIGNAL.len() {
        let terms = conv_terms(i);
        let exact = mac.mac(&terms, PrecisionMode::Exact).unwrap().value;
        let relaxed = mac
            .mac(&terms, PrecisionMode::LastStage { relax_bits: 4 })
            .unwrap()
            .value;
        max_err = max_err.max(exact.abs_diff(relaxed));
    }
    assert!(max_err < 16, "4 relax bits bound the error: {max_err}");
}

#[test]
fn one_term_mac_is_the_truncated_multiply() {
    let device = Device::default();
    for n in [8u32, 16, 32] {
        let mask = (1u64 << n) - 1;
        let pairs = [
            (0x9E37_79B9 & mask, 0x6A09_E667 & mask),
            (mask, mask),
            (0xC3 & mask, 1 << (n - 1)),
            (0x5A & mask, 0),
        ];
        for mode in [
            PrecisionMode::Exact,
            PrecisionMode::FirstStage { masked_bits: 2 },
            PrecisionMode::LastStage { relax_bits: 4 },
        ] {
            let mut mac = CrossbarMac::new(n, 1, &device).unwrap();
            let mut mul = CrossbarMultiplier::new(n, &device).unwrap();
            for (a, b) in pairs {
                let fused = mac.mac(&[(a, b)], mode).unwrap();
                let single = mul.multiply_trunc(a, b, mode).unwrap();
                let what = format!("{a:#x} * {b:#x} at {n} bits, {mode}");
                assert_eq!(u128::from(fused.value), single.product, "{what}");
                assert_eq!(fused.stats.cycles, single.stats.cycles, "{what}");
                assert_eq!(
                    fused.stats.energy.as_joules().to_bits(),
                    single.stats.energy.as_joules().to_bits(),
                    "{what}"
                );
            }
        }
    }
}
