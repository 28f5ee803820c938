//! Figure 4 — "% Error vs EDP" for first-stage vs last-stage approximation
//! of a 32×32 multiplication.
//!
//! Reproduces the paper's comparison: sweeping each approach's knob traces
//! an (EDP, error) curve; at comparable EDP the last-stage approach is
//! orders of magnitude more accurate.

use apim::{ApimConfig, DeviceParams, PrecisionMode};
use apim_logic::error_analysis::multiplier_error;
use apim_logic::CostModel;

/// One point of a Figure 4 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// The precision mode swept to.
    pub mode: PrecisionMode,
    /// Energy-delay product of one expected 32×32 multiplication, J·s.
    pub edp_joule_seconds: f64,
    /// Mean relative error, percent (Monte-Carlo over random operands).
    pub error_percent: f64,
}

/// The two series of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Data {
    /// First-stage approximation sweep (masked multiplier bits 0..=32).
    pub first_stage: Vec<Fig4Point>,
    /// Last-stage approximation sweep (relaxed product bits 0..=64).
    pub last_stage: Vec<Fig4Point>,
}

const OPERAND_BITS: u32 = 32;
const SAMPLES: u32 = 400;
const SEED: u64 = 0xF164;

fn point(model: &CostModel, mode: PrecisionMode) -> Fig4Point {
    let cost = model.multiply_expected(OPERAND_BITS, mode);
    let stats = multiplier_error(OPERAND_BITS, mode, SAMPLES, SEED);
    Fig4Point {
        mode,
        edp_joule_seconds: model.edp(cost).as_joule_seconds(),
        error_percent: 100.0 * stats.mean_relative,
    }
}

/// Generates both series.
pub fn generate() -> Fig4Data {
    let model = CostModel::new(&ApimConfig::default().device);
    let _ = DeviceParams::default();
    let first_stage = (0..=32)
        .step_by(2)
        .map(|f| {
            point(
                &model,
                PrecisionMode::FirstStage {
                    masked_bits: f as u8,
                },
            )
        })
        .collect();
    let last_stage = (0..=64)
        .step_by(4)
        .map(|m| {
            point(
                &model,
                PrecisionMode::LastStage {
                    relax_bits: m as u8,
                },
            )
        })
        .collect();
    Fig4Data {
        first_stage,
        last_stage,
    }
}

/// Renders the figure as aligned text.
pub fn render(data: &Fig4Data) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: error vs EDP of the two approximation approaches (32x32 multiply)\n");
    out.push_str(&format!(
        "{:<36} {:>14} {:>14}\n",
        "mode", "EDP (J.s)", "error (%)"
    ));
    for (label, series) in [
        ("first-stage", &data.first_stage),
        ("last-stage", &data.last_stage),
    ] {
        out.push_str(&format!("-- {label} approximation --\n"));
        for p in series {
            out.push_str(&format!(
                "{:<36} {:>14.4e} {:>14.4e}\n",
                p.mode.to_string(),
                p.edp_joule_seconds,
                p.error_percent
            ));
        }
    }
    out.push_str(&format!(
        "\nAt matched EDP the last-stage error is lower by >= {:.0e}x (paper: ~5 orders of magnitude).\n",
        accuracy_advantage(data)
    ));
    out
}

/// The paper's claim quantified: for each last-stage point, find a
/// first-stage point of comparable (or lower) EDP and compare errors;
/// returns the best error ratio (first / last).
pub fn accuracy_advantage(data: &Fig4Data) -> f64 {
    let mut best: f64 = 1.0;
    for ls in &data.last_stage {
        if ls.error_percent <= 0.0 {
            continue;
        }
        for fs in &data.first_stage {
            if fs.edp_joule_seconds <= ls.edp_joule_seconds && fs.error_percent > 0.0 {
                best = best.max(fs.error_percent / ls.error_percent);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_series_are_monotone_in_their_knob() {
        let data = generate();
        // EDP decreases as approximation deepens.
        for series in [&data.first_stage, &data.last_stage] {
            for pair in series.windows(2) {
                assert!(pair[1].edp_joule_seconds <= pair[0].edp_joule_seconds + 1e-30);
            }
        }
        // Exact endpoints have zero error.
        assert_eq!(data.first_stage[0].error_percent, 0.0);
        assert_eq!(data.last_stage[0].error_percent, 0.0);
    }

    #[test]
    fn last_stage_is_orders_of_magnitude_more_accurate() {
        let advantage = accuracy_advantage(&generate());
        assert!(
            advantage > 1e3,
            "last-stage accuracy advantage only {advantage:.1e}"
        );
    }

    #[test]
    fn render_contains_both_series() {
        let text = render(&generate());
        assert!(text.contains("first-stage"));
        assert!(text.contains("last-stage"));
        assert!(text.contains("EDP"));
    }
}
