//! Ablation study of APIM's design choices, quantified (§3's arguments):
//!
//! 1. blocked memory + configurable interconnect vs bit-wise shifting;
//! 2. the Wallace-tree fast adder vs serial accumulation;
//! 3. the MAGIC logic family vs IMPLY;
//! 4. the MAJ sense-amplifier final stage vs fully serial.

use apim::{ApimConfig, PrecisionMode};
use apim_baselines::{imply, magic_serial};
use apim_logic::CostModel;

/// One shift-cost comparison row (ablation 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftRow {
    /// Shift distance, bitlines.
    pub k: u64,
    /// Cycles with the barrel-shifter interconnect (a 2-NOT copy).
    pub blocked: u64,
    /// Cycles moving a 32-bit word bit-by-bit in a flat crossbar.
    pub flat: u64,
}

/// One multi-operand-adder comparison row (ablations 2 + 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdderRow {
    /// N operands of N bits.
    pub n: u32,
    /// APIM tree cycles.
    pub tree: u64,
    /// \[24\]-style serial MAGIC accumulation.
    pub serial: u64,
    /// IMPLY-family serial accumulation.
    pub imply: u64,
}

/// One final-stage comparison row (ablation 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinalStageRow {
    /// Relaxed product bits.
    pub relax_bits: u8,
    /// Truncated 32×32 multiply cycles at this setting.
    pub mul_cycles: u64,
}

/// The full ablation data set.
#[derive(Debug, Clone)]
pub struct AblationData {
    /// Interconnect vs flat shifting.
    pub shifts: Vec<ShiftRow>,
    /// Tree vs serial vs IMPLY.
    pub adders: Vec<AdderRow>,
    /// MAJ final stage sweep.
    pub final_stage: Vec<FinalStageRow>,
}

/// Generates all three studies.
pub fn generate() -> AblationData {
    let model = CostModel::new(&ApimConfig::default().device);
    let shifts = [1u64, 4, 8, 16]
        .iter()
        .map(|&k| ShiftRow {
            k,
            blocked: 2,
            flat: 2 * 32 * k.min(32),
        })
        .collect();
    let adders = [4u32, 9, 16, 32]
        .iter()
        .map(|&n| AdderRow {
            n,
            tree: model.sum_reduce(n, n, 0).cycles.get(),
            serial: magic_serial::sum_cycles(n, n).get(),
            imply: imply::sum_cycles(n, n).get(),
        })
        .collect();
    let final_stage = [0u8, 8, 16, 24, 32]
        .iter()
        .map(|&m| FinalStageRow {
            relax_bits: m,
            mul_cycles: model
                .multiply_trunc_expected(32, PrecisionMode::LastStage { relax_bits: m })
                .cycles
                .get(),
        })
        .collect();
    AblationData {
        shifts,
        adders,
        final_stage,
    }
}

/// Renders the three tables.
pub fn render(data: &AblationData) -> String {
    let mut out = String::new();
    out.push_str("Ablation 1: shifting one 32-bit word by k bitlines\n");
    out.push_str(&format!(
        "{:>6} {:>22} {:>24}\n",
        "k", "interconnect (cycles)", "bit-wise copy (cycles)"
    ));
    for r in &data.shifts {
        out.push_str(&format!("{:>6} {:>22} {:>24}\n", r.k, r.blocked, r.flat));
    }
    out.push_str("\nAblation 2+3: summing N operands of N bits, by design\n");
    out.push_str(&format!(
        "{:>6} {:>14} {:>16} {:>16} {:>10}\n",
        "N", "APIM tree", "MAGIC serial", "IMPLY serial", "tree wins"
    ));
    for r in &data.adders {
        out.push_str(&format!(
            "{:>6} {:>14} {:>16} {:>16} {:>9.1}x\n",
            r.n,
            r.tree,
            r.serial,
            r.imply,
            r.serial as f64 / r.tree as f64
        ));
    }
    out.push_str("\nAblation 4: truncated 32x32 multiply vs final-stage relaxation\n");
    out.push_str(&format!(
        "{:>12} {:>12} {:>10}\n",
        "relax bits", "cycles", "vs exact"
    ));
    let exact = data.final_stage.first().map(|r| r.mul_cycles).unwrap_or(1);
    for r in &data.final_stage {
        out.push_str(&format!(
            "{:>12} {:>12} {:>9.2}x\n",
            r.relax_bits,
            r.mul_cycles,
            exact as f64 / r.mul_cycles as f64
        ));
    }
    out
}

/// The interconnect's advantage at shift distance `k` (ablation 1).
pub fn interconnect_advantage(data: &AblationData, k: u64) -> Option<f64> {
    data.shifts
        .iter()
        .find(|r| r.k == k)
        .map(|r| r.flat as f64 / r.blocked as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interconnect_wins_grow_with_shift_distance() {
        let data = generate();
        let a1 = interconnect_advantage(&data, 1).unwrap();
        let a16 = interconnect_advantage(&data, 16).unwrap();
        assert!(a1 >= 16.0, "even 1-bit shifts save a word's worth: {a1}");
        assert!(a16 > 10.0 * a1 / 2.0, "advantage scales: {a16}");
        assert_eq!(interconnect_advantage(&data, 999), None);
    }

    #[test]
    fn design_ordering_holds_everywhere() {
        // tree < MAGIC serial < IMPLY serial, at every N.
        for r in generate().adders {
            assert!(r.tree < r.serial, "N={}", r.n);
            assert!(r.serial < r.imply, "N={}", r.n);
        }
    }

    #[test]
    fn tree_advantage_grows_with_n() {
        let rows = generate().adders;
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        let g0 = first.serial as f64 / first.tree as f64;
        let g1 = last.serial as f64 / last.tree as f64;
        assert!(g1 > 2.0 * g0);
    }

    #[test]
    fn full_relaxation_triples_multiplier_throughput() {
        let rows = generate().final_stage;
        let exact = rows.first().unwrap().mul_cycles;
        let relaxed = rows.last().unwrap().mul_cycles;
        let ratio = exact as f64 / relaxed as f64;
        assert!((2.5..4.0).contains(&ratio), "final-stage leverage {ratio}");
        // Monotone.
        for pair in rows.windows(2) {
            assert!(pair[1].mul_cycles < pair[0].mul_cycles);
        }
    }

    #[test]
    fn render_has_all_three_studies() {
        let text = render(&generate());
        assert!(text.contains("Ablation 1"));
        assert!(text.contains("Ablation 2+3"));
        assert!(text.contains("Ablation 4"));
        assert!(text.contains("IMPLY"));
    }
}
