//! Recording harnesses binding the shipped kernels to their closed-form
//! specs ([`apim_logic::spec`]) for symbolic equivalence checking.
//!
//! Each harness records one kernel run exactly the way production callers
//! drive it, declares which operand windows are symbolic, where the result
//! lives, and what pure-integer function the kernel promises — then hands
//! everything to [`check_equiv`].
//!
//! Kernels whose *op sequence* depends on operand data (the multiplier
//! reads its multiplier bit-wise to place partial products, the divider
//! branches on in-memory comparisons) are checked **per specialization**:
//! the steering operand stays concrete — captured by the spec closure —
//! and several concrete choices are swept, while the data-path operands
//! stay fully symbolic. Kernels with data-independent schedules (adder,
//! subtractor, Wallace sum) are checked with every operand bit symbolic.

use apim_crossbar::{BlockedCrossbar, CrossbarConfig, OpTrace, Result, RowAllocator, TraceOp};
use apim_device::Device;
use apim_logic::adder_serial::{add_words, SerialScratch};
use apim_logic::divider::divide;
use apim_logic::mac::CrossbarMac;
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::spec;
use apim_logic::subtractor::sub_words;
use apim_logic::wallace::sum_rows;
use apim_logic::PrecisionMode;

use crate::equiv::{check_equiv, EquivReport, OperandBinding, OutputBinding};
use crate::kernels::DEFAULT_WIDTHS;

/// A kernel with a closed-form spec the equivalence checker can prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EquivTarget {
    /// Serial ripple adder: `x + y mod 2^n`.
    SerialAdder,
    /// Two's-complement subtractor: `x − y mod 2^n`.
    Subtractor,
    /// Wallace multi-operand sum: `Σ xᵢ mod 2^(n+4)` over nine operands.
    WallaceTree,
    /// Full multiplier: `a · b mod 2^2n`, per multiplier specialization.
    Multiplier,
    /// Fused MAC: `Σ aᵢ·bᵢ mod 2^n`, per multiplier specialization.
    Mac,
    /// Restoring divider fast path: `x mod y`, fully concrete replay.
    Divider,
}

impl EquivTarget {
    /// Every target, in display order.
    pub const ALL: [EquivTarget; 6] = [
        EquivTarget::SerialAdder,
        EquivTarget::Subtractor,
        EquivTarget::WallaceTree,
        EquivTarget::Multiplier,
        EquivTarget::Mac,
        EquivTarget::Divider,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            EquivTarget::SerialAdder => "adder",
            EquivTarget::Subtractor => "subtractor",
            EquivTarget::WallaceTree => "wallace",
            EquivTarget::Multiplier => "multiplier",
            EquivTarget::Mac => "mac",
            EquivTarget::Divider => "divider",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        EquivTarget::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// One equivalence-checked kernel recording.
#[derive(Debug, Clone)]
pub struct EquivKernelRun {
    /// The kernel checked.
    pub target: EquivTarget,
    /// Operand width in bits.
    pub width: u32,
    /// Which specialization (concrete steering operands), if any.
    pub detail: String,
    /// Number of recorded ops.
    pub ops: usize,
    /// The checker's verdict.
    pub report: EquivReport,
}

fn to_bits(v: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (v >> i) & 1 == 1).collect()
}

fn binding(name: &str, block: usize, row: usize, width: usize) -> OperandBinding {
    OperandBinding {
        name: name.into(),
        block,
        row,
        col0: 0,
        width,
        col_step: 1,
    }
}

/// The block whose `row` received the last single-cell NOR write — how the
/// harnesses locate a result whose block is decided mid-run by the
/// Wallace tree's ping-ponging.
fn block_writing_row(trace: &OpTrace, row: usize) -> Option<usize> {
    trace.ops.iter().rev().find_map(|op| match op {
        TraceOp::NorCells { block, out, .. } if out.0 == row => Some(*block),
        _ => None,
    })
}

fn adder_run(width: u32) -> Result<EquivKernelRun> {
    let n = width as usize;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let blk = xbar.block(1)?;
    let mut alloc = RowAllocator::new(xbar.rows());
    let rows = alloc.alloc_many(3)?; // x, y, out
    let scratch = SerialScratch::alloc(&mut alloc)?;
    xbar.start_recording();
    xbar.preload_word(blk, rows[0], 0, &to_bits(0x1234_5677 & spec::mask(n), n))?;
    xbar.preload_word(blk, rows[1], 0, &to_bits(0x0FED_CBA9 & spec::mask(n), n))?;
    add_words(&mut xbar, blk, rows[0], rows[1], rows[2], 0..n, &scratch)?;
    let trace = xbar.stop_recording();
    let operands = [
        binding("x", blk.index(), rows[0], n),
        binding("y", blk.index(), rows[1], n),
    ];
    let output = OutputBinding {
        block: blk.index(),
        row: rows[2],
        col0: 0,
        width: n,
        col_step: 1,
    };
    let report = check_equiv(&trace, &operands, &output, |v| spec::add(v[0], v[1], n));
    Ok(EquivKernelRun {
        target: EquivTarget::SerialAdder,
        width,
        detail: String::new(),
        ops: trace.len(),
        report,
    })
}

fn subtractor_run(width: u32) -> Result<EquivKernelRun> {
    let n = width as usize;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let blk = xbar.block(1)?;
    let mut alloc = RowAllocator::new(xbar.rows());
    let rows = alloc.alloc_many(4)?; // x, y, !y, out
    let scratch = SerialScratch::alloc(&mut alloc)?;
    xbar.start_recording();
    xbar.preload_word(blk, rows[0], 0, &to_bits(0x0F1E_2D3C & spec::mask(n), n))?;
    xbar.preload_word(blk, rows[1], 0, &to_bits(0x5A69_7887 & spec::mask(n), n))?;
    sub_words(
        &mut xbar,
        blk,
        rows[0],
        rows[1],
        rows[2],
        rows[3],
        0..n,
        &scratch,
    )?;
    let trace = xbar.stop_recording();
    let operands = [
        binding("x", blk.index(), rows[0], n),
        binding("y", blk.index(), rows[1], n),
    ];
    let output = OutputBinding {
        block: blk.index(),
        row: rows[3],
        col0: 0,
        width: n,
        col_step: 1,
    };
    let report = check_equiv(&trace, &operands, &output, |v| spec::sub(v[0], v[1], n));
    Ok(EquivKernelRun {
        target: EquivTarget::Subtractor,
        width,
        detail: String::new(),
        ops: trace.len(),
        report,
    })
}

const WALLACE_OPERANDS: usize = 9;

fn wallace_run(width: u32) -> Result<EquivKernelRun> {
    let n = width as usize;
    // Nine n-bit operands summed exactly into an (n + 4)-bit window.
    let window = n + 4;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let src = xbar.block(1)?;
    let dst = xbar.block(2)?;
    xbar.start_recording();
    for i in 0..WALLACE_OPERANDS {
        let v = (37 * i as u64 + 11) & spec::mask(n);
        xbar.preload_word(src, i, 0, &to_bits(v, window))?;
    }
    let (block, row) = sum_rows(&mut xbar, src, dst, WALLACE_OPERANDS, window)?;
    let trace = xbar.stop_recording();
    let operands: Vec<OperandBinding> = (0..WALLACE_OPERANDS)
        .map(|i| binding(&format!("x{i}"), src.index(), i, n))
        .collect();
    let output = OutputBinding {
        block: block.index(),
        row,
        col0: 0,
        width: window,
        col_step: 1,
    };
    let report = check_equiv(&trace, &operands, &output, |v| spec::sum(v, window));
    Ok(EquivKernelRun {
        target: EquivTarget::WallaceTree,
        width,
        detail: format!("{WALLACE_OPERANDS} operands"),
        ops: trace.len(),
        report,
    })
}

/// Multiplier specializations: the multiplicand is fully symbolic, the
/// multiplier (which steers partial-product placement through sense reads)
/// is swept over concrete values on the main pipeline path.
fn multiplier_specializations(width: u32) -> [u64; 2] {
    let m = spec::mask(width as usize);
    [0x6A09_E667 & m, 0b1011_0101 & m]
}

fn multiplier_run(width: u32, b: u64) -> Result<EquivKernelRun> {
    let n = width as usize;
    let w = 2 * n;
    let a_base = 0x9E37_79B9 & spec::mask(n);
    let mut mul = CrossbarMultiplier::new(width, &Device::default())?;
    mul.crossbar_mut().start_recording();
    mul.multiply(a_base, b, PrecisionMode::Exact)?;
    let trace = mul.crossbar_mut().stop_recording();
    // Exact mode ends in a serial addition into row 2 of whichever block
    // the reduction landed in.
    let out_block = block_writing_row(&trace, 2).expect("exact multiply ends in a serial add");
    let operands = [binding("a", 0, 0, n)];
    let output = OutputBinding {
        block: out_block,
        row: 2,
        col0: 0,
        width: w,
        col_step: 1,
    };
    let report = check_equiv(&trace, &operands, &output, |v| spec::mul(v[0], b, w));
    Ok(EquivKernelRun {
        target: EquivTarget::Multiplier,
        width,
        detail: format!("b=0x{b:X}"),
        ops: trace.len(),
        report,
    })
}

fn mac_multipliers(width: u32) -> [u64; 3] {
    let m = spec::mask(width as usize);
    [0x65 & m, 0xB3 & m, 0x2F & m]
}

fn mac_run(width: u32) -> Result<EquivKernelRun> {
    let n = width as usize;
    let bs = mac_multipliers(width);
    let a_bases = [
        0x9E37_79B9 & spec::mask(n),
        0x3C6E_F372 & spec::mask(n),
        0x1B87_3593 & spec::mask(n),
    ];
    let terms: Vec<(u64, u64)> = a_bases.iter().zip(bs).map(|(&a, b)| (a, b)).collect();
    let mut mac = CrossbarMac::new(width, terms.len(), &Device::default())?;
    mac.crossbar_mut().start_recording();
    mac.mac(&terms, PrecisionMode::Exact)?;
    let trace = mac.crossbar_mut().stop_recording();
    let out_block = block_writing_row(&trace, 2).expect("exact MAC ends in a serial add");
    let operands: Vec<OperandBinding> = (0..terms.len())
        .map(|i| binding(&format!("a{i}"), 0, 2 * i, n))
        .collect();
    let output = OutputBinding {
        block: out_block,
        row: 2,
        col0: 0,
        width: n,
        col_step: 1,
    };
    let report = check_equiv(&trace, &operands, &output, |v| {
        let terms: Vec<(u64, u64)> = v.iter().zip(bs).map(|(&a, b)| (a, b)).collect();
        spec::mac(&terms, n)
    });
    Ok(EquivKernelRun {
        target: EquivTarget::Mac,
        width,
        detail: format!("b={bs:?}"),
        ops: trace.len(),
        report,
    })
}

/// Divider specializations: host control flow branches on the in-memory
/// comparison every step, so both operands stay concrete and the checker
/// replays the exact recorded path (the divider's fast path).
fn divider_specializations(width: u32) -> [(u64, u64); 2] {
    let m = spec::mask(width as usize);
    [(0xDEAD_BEEF & m, 7), (0x1234_5678 & m, 0x1D & m | 1)]
}

fn divider_run(width: u32, x: u64, y: u64) -> Result<EquivKernelRun> {
    let n = width as usize;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let blk = xbar.block(1)?;
    xbar.start_recording();
    divide(&mut xbar, blk, x, y, n)?;
    let trace = xbar.stop_recording();
    // The remainder register is the first allocated row.
    let output = OutputBinding {
        block: blk.index(),
        row: 0,
        col0: 0,
        width: n,
        col_step: 1,
    };
    let report = check_equiv(&trace, &[], &output, |_| spec::rem(x, y));
    Ok(EquivKernelRun {
        target: EquivTarget::Divider,
        width,
        detail: format!("x=0x{x:X} y=0x{y:X}"),
        ops: trace.len(),
        report,
    })
}

/// Checks one target at one width, possibly over several specializations.
///
/// # Errors
///
/// Propagates crossbar errors from the recording run itself; checker
/// verdicts (including failures) land in the returned reports.
pub fn verify_equiv_kernel(target: EquivTarget, width: u32) -> Result<Vec<EquivKernelRun>> {
    match target {
        EquivTarget::SerialAdder => Ok(vec![adder_run(width)?]),
        EquivTarget::Subtractor => Ok(vec![subtractor_run(width)?]),
        EquivTarget::WallaceTree => Ok(vec![wallace_run(width)?]),
        EquivTarget::Multiplier => multiplier_specializations(width)
            .into_iter()
            .map(|b| multiplier_run(width, b))
            .collect(),
        EquivTarget::Mac => Ok(vec![mac_run(width)?]),
        EquivTarget::Divider => divider_specializations(width)
            .into_iter()
            .map(|(x, y)| divider_run(width, x, y))
            .collect(),
    }
}

/// Sweeps every target over the default widths.
///
/// # Errors
///
/// Propagates crossbar errors from the recording runs.
pub fn verify_equiv_all() -> Result<Vec<EquivKernelRun>> {
    let mut runs = Vec::new();
    for target in EquivTarget::ALL {
        for width in DEFAULT_WIDTHS {
            runs.extend(verify_equiv_kernel(target, width)?);
        }
    }
    Ok(runs)
}

/// Renders runs as a fixed-width table.
pub fn render_equiv(runs: &[EquivKernelRun]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>5} {:<20} {:>6} {:>7} {:<18} verdict\n",
        "kernel", "width", "detail", "ops", "nodes", "mode"
    ));
    for run in runs {
        let verdict = if run.report.equivalent {
            "equivalent".to_string()
        } else if let Some(cx) = &run.report.counterexample {
            format!("MISMATCH {cx}")
        } else {
            format!("FAILED ({})", run.report.lint)
        };
        out.push_str(&format!(
            "{:<12} {:>5} {:<20} {:>6} {:>7} {:<18} {}\n",
            run.target.name(),
            run.width,
            run.detail,
            run.ops,
            run.report.nodes,
            run.report.mode.to_string(),
            verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::CheckMode;

    #[test]
    fn adder_is_proven_equivalent_at_8_bits() {
        let run = adder_run(8).unwrap();
        assert!(run.report.equivalent, "{}", render_equiv(&[run]));
        assert_eq!(
            run.report.mode,
            CheckMode::Exhaustive {
                assignments: 1 << 16
            }
        );
    }

    #[test]
    fn subtractor_is_proven_equivalent_at_8_bits() {
        let run = subtractor_run(8).unwrap();
        assert!(run.report.equivalent, "{}", render_equiv(&[run]));
    }

    #[test]
    fn wallace_sum_is_equivalent_at_8_bits() {
        let run = wallace_run(8).unwrap();
        assert!(run.report.equivalent, "{}", render_equiv(&[run]));
        assert_eq!(run.report.input_bits, 72, "nine 8-bit operands");
    }

    #[test]
    fn multiplier_is_proven_equivalent_at_8_bits() {
        for b in multiplier_specializations(8) {
            let run = multiplier_run(8, b).unwrap();
            assert!(run.report.equivalent, "{}", render_equiv(&[run]));
            assert_eq!(run.report.input_bits, 8, "multiplicand fully symbolic");
        }
    }

    #[test]
    fn mac_is_equivalent_at_8_bits() {
        let run = mac_run(8).unwrap();
        assert!(run.report.equivalent, "{}", render_equiv(&[run]));
        assert_eq!(run.report.input_bits, 24);
    }

    #[test]
    fn divider_fast_path_replays_exactly() {
        for (x, y) in divider_specializations(8) {
            let run = divider_run(8, x, y).unwrap();
            assert!(run.report.equivalent, "{}", render_equiv(&[run]));
            assert_eq!(run.report.input_bits, 0, "fully concrete specialization");
        }
    }

    #[test]
    fn target_names_round_trip() {
        for t in EquivTarget::ALL {
            assert_eq!(EquivTarget::from_name(t.name()), Some(t));
        }
        assert_eq!(EquivTarget::from_name("nope"), None);
    }
}
