//! Figure 6 — performance of adding N operands of N bits each: APIM
//! (exact and 99.9 %-accurate) vs the \[24\] MAGIC serial adder and the
//! \[25\] PC-adder.

use apim::{ApimConfig, Cycles};
use apim_baselines::{magic_serial, pc_adder};
use apim_logic::model::ceil_log2;
use apim_logic::CostModel;

/// Operand counts/widths swept (the paper's x-axis runs 4…32).
pub const N_VALUES: [u32; 8] = [4, 8, 12, 16, 20, 24, 28, 32];

/// One row of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig6Row {
    /// N (operand count and width).
    pub n: u32,
    /// Talati et al. \[24\] serial MAGIC adder.
    pub magic_cycles: Cycles,
    /// Siemon et al. \[25\] PC-adder.
    pub pc_adder_cycles: Cycles,
    /// APIM fast adder, exact.
    pub apim_exact_cycles: Cycles,
    /// APIM fast adder with the final stage relaxed to ~99.9 % accuracy.
    pub apim_approx_cycles: Cycles,
}

/// Relax bits giving ≈99.9 % accuracy for an `N`-operand sum: leave 8
/// exact bits above the expected error scale.
pub fn relax_bits_999(n: u32) -> u32 {
    let result_bits = n + ceil_log2(n);
    result_bits.saturating_sub(8)
}

/// Generates the figure's rows.
pub fn generate() -> Vec<Fig6Row> {
    let model = CostModel::new(&ApimConfig::default().device);
    N_VALUES
        .iter()
        .map(|&n| Fig6Row {
            n,
            magic_cycles: magic_serial::sum_cycles(n, n),
            pc_adder_cycles: pc_adder::sum_cycles(n, n),
            apim_exact_cycles: model.sum_reduce(n, n, 0).cycles,
            apim_approx_cycles: model.sum_reduce(n, n, relax_bits_999(n)).cycles,
        })
        .collect()
}

/// Renders the figure as aligned text.
pub fn render(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 6: cycles to add N operands of N bits each\n");
    out.push_str(&format!(
        "{:>4} {:>12} {:>12} {:>12} {:>14} {:>12} {:>12}\n",
        "N", "MAGIC [24]", "PC-Adder[25]", "APIM exact", "APIM 99.9%", "vs best", "vs best~"
    ));
    for r in rows {
        let best_prior = r.magic_cycles.get().min(r.pc_adder_cycles.get()) as f64;
        out.push_str(&format!(
            "{:>4} {:>12} {:>12} {:>12} {:>14} {:>12} {:>12}\n",
            r.n,
            r.magic_cycles.get(),
            r.pc_adder_cycles.get(),
            r.apim_exact_cycles.get(),
            r.apim_approx_cycles.get(),
            crate::times(best_prior / r.apim_exact_cycles.get() as f64),
            crate::times(best_prior / r.apim_approx_cycles.get() as f64),
        ));
    }
    if let Some(last) = rows.last() {
        out.push('\n');
        out.push_str(&crate::chart::log_bar_chart(
            &format!("cycles at N = {} (log scale)", last.n),
            &[
                ("MAGIC [24]".into(), last.magic_cycles.get() as f64),
                ("PC-Adder [25]".into(), last.pc_adder_cycles.get() as f64),
                ("APIM exact".into(), last.apim_exact_cycles.get() as f64),
                ("APIM 99.9%".into(), last.apim_approx_cycles.get() as f64),
            ],
            48,
        ));
    }
    out.push_str(
        "\nShape checks: APIM wins everywhere; >= 2x vs the best prior design in exact\n\
         mode at N >= 16, and substantially more with 99.9% accuracy (paper: >= 2x / 6x).\n\
         [24]/[25] counts exclude their shift latency, as the paper notes.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apim_beats_both_priors_everywhere() {
        for r in generate() {
            assert!(r.apim_exact_cycles < r.magic_cycles, "N={}", r.n);
            assert!(r.apim_exact_cycles < r.pc_adder_cycles, "N={}", r.n);
            if relax_bits_999(r.n) > 0 {
                assert!(r.apim_approx_cycles < r.apim_exact_cycles, "N={}", r.n);
            } else {
                assert_eq!(r.apim_approx_cycles, r.apim_exact_cycles, "N={}", r.n);
            }
        }
    }

    #[test]
    fn exact_speedup_at_least_2x_beyond_n16() {
        for r in generate().iter().filter(|r| r.n >= 16) {
            let best_prior = r.magic_cycles.get().min(r.pc_adder_cycles.get());
            let ratio = best_prior as f64 / r.apim_exact_cycles.get() as f64;
            assert!(ratio >= 2.0, "N={}: exact speedup {ratio:.2}", r.n);
        }
    }

    #[test]
    fn approx_speedup_much_larger() {
        let rows = generate();
        let last = rows.last().unwrap();
        let best_prior = last.magic_cycles.get().min(last.pc_adder_cycles.get());
        let ratio = best_prior as f64 / last.apim_approx_cycles.get() as f64;
        assert!(ratio >= 4.0, "approx speedup at N=32: {ratio:.2}");
    }

    #[test]
    fn gap_to_serial_grows_with_n() {
        let rows = generate();
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        let g0 = first.magic_cycles.get() as f64 / first.apim_exact_cycles.get() as f64;
        let g1 = last.magic_cycles.get() as f64 / last.apim_exact_cycles.get() as f64;
        assert!(g1 > 2.0 * g0, "gap must widen: {g0:.1} -> {g1:.1}");
    }

    #[test]
    fn relax_bits_leave_8_exact_msbs() {
        assert_eq!(relax_bits_999(32), 32 + 5 - 8);
        assert_eq!(relax_bits_999(4), 0); // saturates for tiny widths
    }

    #[test]
    fn render_has_all_rows() {
        let text = render(&generate());
        for n in N_VALUES {
            assert!(text.contains(&format!("\n{n:>4} ")) || text.starts_with(&format!("{n:>4} ")));
        }
    }
}
