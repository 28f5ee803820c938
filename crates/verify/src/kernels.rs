//! Recording harnesses: run each shipped kernel with recording armed and
//! lint the captured microprogram.
//!
//! Every harness plays the same shape: build a crossbar, arm
//! [`BlockedCrossbar::start_recording`], drive the kernel exactly the way
//! its production callers do, then hand the [`OpTrace`] (plus the traced
//! scratch-allocator events and the analytic cycle prediction) to
//! [`verify_trace`].

use apim_crossbar::{
    AllocEvent, BlockedCrossbar, CrossbarConfig, OpTrace, Result, RowAllocator, RowRef,
};
use apim_device::Device;
use apim_logic::adder_csa::{csa_group, CSA_SCRATCH_ROWS};
use apim_logic::adder_serial::{add_words, SerialScratch};
use apim_logic::gates;
use apim_logic::mac::CrossbarMac;
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::wallace::reduce_rows_to_two_lanes;
use apim_logic::{CostModel, PrecisionMode};

use crate::passes::verify_trace;
use crate::report::LintReport;

/// The operand widths `apim verify` sweeps by default.
pub const DEFAULT_WIDTHS: [u32; 3] = [8, 16, 32];

/// A verifiable kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The elementary gate set (NOT/NOR/OR/AND/NAND/XNOR/XOR rows).
    Gates,
    /// The `12N + 1`-cycle serial adder.
    SerialAdder,
    /// One 13-cycle carry-save 3:2 group.
    CsaGroup,
    /// Wallace-tree 9:2 reduction across two blocks.
    WallaceTree,
    /// The full three-stage multiplier (exact mode).
    Multiplier,
    /// The fused multiply-accumulate over three terms.
    Mac,
}

impl Kernel {
    /// Every kernel, in sweep order.
    pub const ALL: [Kernel; 6] = [
        Kernel::Gates,
        Kernel::SerialAdder,
        Kernel::CsaGroup,
        Kernel::WallaceTree,
        Kernel::Multiplier,
        Kernel::Mac,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Gates => "gates",
            Kernel::SerialAdder => "adder",
            Kernel::CsaGroup => "csa",
            Kernel::WallaceTree => "wallace",
            Kernel::Multiplier => "multiplier",
            Kernel::Mac => "mac",
        }
    }

    /// Parses a CLI name (a few aliases accepted).
    pub fn from_name(name: &str) -> Option<Kernel> {
        match name.to_ascii_lowercase().as_str() {
            "gates" | "gate" => Some(Kernel::Gates),
            "adder" | "serial" | "serial-adder" => Some(Kernel::SerialAdder),
            "csa" => Some(Kernel::CsaGroup),
            "wallace" | "tree" => Some(Kernel::WallaceTree),
            "multiplier" | "multiply" | "mul" => Some(Kernel::Multiplier),
            "mac" => Some(Kernel::Mac),
            _ => None,
        }
    }
}

/// Outcome of linting one kernel at one width.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// The kernel.
    pub kernel: Kernel,
    /// Operand width in bits.
    pub width: u32,
    /// Number of recorded primitives.
    pub ops: usize,
    /// Cycles the trace accounts for.
    pub cycles: u64,
    /// The cost model's prediction for the same kernel.
    pub expected_cycles: u64,
    /// The ranked findings.
    pub report: LintReport,
}

fn to_bits(v: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (v >> i) & 1 == 1).collect()
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// One recorded kernel execution: the inputs [`verify_kernel`] lints.
#[derive(Debug, Clone)]
pub struct RecordedKernel {
    /// The captured microprogram.
    pub trace: OpTrace,
    /// The traced scratch-allocator events.
    pub events: Vec<AllocEvent>,
    /// The cost model's cycle prediction for the kernel.
    pub expected_cycles: u64,
}

/// The gate set: one of each elementary gate over a `width`-bit window.
/// 1 + 1 + 2 + 3 + 4 + 4 + 5 = 20 NOR cycles.
fn record_gates(width: u32) -> Result<RecordedKernel> {
    let n = width as usize;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let blk = xbar.block(0)?;
    let mut alloc = RowAllocator::with_tracing(xbar.rows());
    let operands = alloc.alloc_many(2)?;
    xbar.start_recording();
    xbar.preload_word(blk, operands[0], 0, &to_bits(0xA5A5_A5A5 & mask(width), n))?;
    xbar.preload_word(blk, operands[1], 0, &to_bits(0x3C5A_96F0 & mask(width), n))?;
    let work = alloc.alloc_many(5)?;
    let r = |row: usize| RowRef::new(blk, row);
    let (a, b, dst) = (r(operands[0]), r(operands[1]), r(work[0]));
    let s = [r(work[1]), r(work[2]), r(work[3]), r(work[4])];
    let cols = 0..n;
    gates::not_row(&mut xbar, a, dst, cols.clone(), 0)?;
    gates::nor_row(&mut xbar, a, b, dst, cols.clone())?;
    gates::or_row(&mut xbar, a, b, dst, s[0], cols.clone())?;
    gates::and_row(&mut xbar, a, b, dst, [s[0], s[1]], cols.clone())?;
    gates::nand_row(&mut xbar, a, b, dst, [s[0], s[1], s[2]], cols.clone())?;
    gates::xnor_row(&mut xbar, a, b, dst, [s[0], s[1], s[2]], cols.clone())?;
    gates::xor_row(&mut xbar, a, b, dst, s, cols)?;
    let trace = xbar.stop_recording();
    alloc.free_many(work)?;
    alloc.free_many(operands)?;
    Ok(RecordedKernel {
        trace,
        events: alloc.take_events(),
        expected_cycles: 20,
    })
}

/// The serial ripple adder over `width` bits: `12N + 1` cycles.
fn record_serial_adder(width: u32) -> Result<RecordedKernel> {
    let n = width as usize;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let blk = xbar.block(1)?;
    let mut alloc = RowAllocator::with_tracing(xbar.rows());
    let rows = alloc.alloc_many(3)?; // x, y, out
    xbar.start_recording();
    xbar.preload_word(blk, rows[0], 0, &to_bits(0x1234_5677 & mask(width), n))?;
    xbar.preload_word(blk, rows[1], 0, &to_bits(0x0FED_CBA9 & mask(width), n))?;
    let scratch = SerialScratch::alloc(&mut alloc)?;
    add_words(&mut xbar, blk, rows[0], rows[1], rows[2], 0..n, &scratch)?;
    let trace = xbar.stop_recording();
    scratch.release(&mut alloc)?;
    alloc.free_many(rows)?;
    let model = CostModel::new(&Device::default());
    Ok(RecordedKernel {
        trace,
        events: alloc.take_events(),
        expected_cycles: model.serial_add(width).cycles.get(),
    })
}

/// One carry-save 3:2 group: 13 cycles at any width.
fn record_csa_group(width: u32) -> Result<RecordedKernel> {
    let n = width as usize;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let src = xbar.block(1)?;
    let dst = xbar.block(2)?;
    let mut alloc = RowAllocator::with_tracing(xbar.rows());
    let operands = alloc.alloc_many(3)?;
    let scratch_rows = alloc.alloc_many(CSA_SCRATCH_ROWS)?;
    let scratch: [usize; CSA_SCRATCH_ROWS] = scratch_rows.clone().try_into().expect("eleven rows");
    xbar.start_recording();
    for (i, v) in [0x0F0Fu64, 0x3333, 0x5555].into_iter().enumerate() {
        xbar.preload_word(src, operands[i], 0, &to_bits(v & mask(width), n))?;
    }
    // Destination rows live in the other block; zero them over the operand
    // window plus the carry-drift margin, as the Wallace caller does.
    xbar.preload_word(dst, 0, 0, &vec![false; n + 2])?;
    xbar.preload_word(dst, 1, 0, &vec![false; n + 2])?;
    csa_group(
        &mut xbar,
        RowRef::new(src, operands[0]),
        RowRef::new(src, operands[1]),
        RowRef::new(src, operands[2]),
        RowRef::new(dst, 0),
        RowRef::new(dst, 1),
        0..n,
        &scratch,
    )?;
    let trace = xbar.stop_recording();
    alloc.free_many(scratch_rows)?;
    alloc.free_many(operands)?;
    Ok(RecordedKernel {
        trace,
        events: alloc.take_events(),
        expected_cycles: 13,
    })
}

/// Wallace 9:2 reduction: `13 · stages(9)` cycles.
fn record_wallace(width: u32) -> Result<RecordedKernel> {
    const COUNT: usize = 9;
    let n = width as usize;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let src = xbar.block(1)?;
    let dst = xbar.block(2)?;
    // Mirror the region the reduction occupies (operands + stage scratch)
    // through a traced allocator so the lifetime pass sees the claim.
    let mut alloc = RowAllocator::with_tracing(xbar.rows());
    let region = alloc.alloc_many(COUNT + CSA_SCRATCH_ROWS)?;
    xbar.start_recording();
    for (i, row) in region.iter().take(COUNT).enumerate() {
        let v = (37 * i as u64 + 11) & mask(width);
        xbar.preload_word(src, *row, 0, &to_bits(v, n))?;
    }
    reduce_rows_to_two_lanes(&mut xbar, src, dst, COUNT, 0..n, 1, 0)?;
    let trace = xbar.stop_recording();
    alloc.free_many(region)?;
    Ok(RecordedKernel {
        trace,
        events: alloc.take_events(),
        expected_cycles: 13 * u64::from(CostModel::stages(COUNT as u32)),
    })
}

/// The full exact multiplier; prediction from [`CostModel::multiply`].
fn record_multiplier(width: u32) -> Result<RecordedKernel> {
    let a = 0x9E37_79B9 & mask(width);
    let b = 0x6A09_E667 & mask(width);
    let mut mul = CrossbarMultiplier::new(width, &Device::default())?;
    mul.crossbar_mut().start_recording();
    mul.multiply(a, b, PrecisionMode::Exact)?;
    let trace = mul.crossbar_mut().stop_recording();
    let model = CostModel::new(&Device::default());
    Ok(RecordedKernel {
        trace,
        events: Vec::new(),
        expected_cycles: model.multiply(width, b, PrecisionMode::Exact).cycles.get(),
    })
}

/// The fused MAC over three terms; prediction from
/// [`CostModel::mac_group_value`].
fn record_mac(width: u32) -> Result<RecordedKernel> {
    let m = mask(width);
    let terms = [
        (0x0000_0C3Au64 & m, 0x0000_0055u64 & m),
        (0x0000_00B7 & m, 0x0000_0091 & m),
        (0x0000_0D05 & m, 0x0000_0036 & m),
    ];
    let mut mac = CrossbarMac::new(width, 4, &Device::default())?;
    mac.crossbar_mut().start_recording();
    mac.mac(&terms, PrecisionMode::Exact)?;
    let trace = mac.crossbar_mut().stop_recording();
    let model = CostModel::new(&Device::default());
    let multipliers: Vec<u64> = terms.iter().map(|&(_, b)| b).collect();
    Ok(RecordedKernel {
        trace,
        events: Vec::new(),
        expected_cycles: model
            .mac_group_value(width, &multipliers, PrecisionMode::Exact)
            .cycles
            .get(),
    })
}

/// Records `kernel` at `width` without linting it — the raw material for
/// differential checks of the passes themselves.
///
/// # Errors
///
/// Propagates crossbar errors from running the kernel.
pub fn record_kernel(kernel: Kernel, width: u32) -> Result<RecordedKernel> {
    match kernel {
        Kernel::Gates => record_gates(width),
        Kernel::SerialAdder => record_serial_adder(width),
        Kernel::CsaGroup => record_csa_group(width),
        Kernel::WallaceTree => record_wallace(width),
        Kernel::Multiplier => record_multiplier(width),
        Kernel::Mac => record_mac(width),
    }
}

/// Records `kernel` at `width` and lints the captured microprogram.
///
/// # Errors
///
/// Propagates crossbar errors from *running* the kernel (the lint findings
/// themselves are data, not errors — see [`KernelRun::report`]).
pub fn verify_kernel(kernel: Kernel, width: u32) -> Result<KernelRun> {
    let recorded = record_kernel(kernel, width)?;
    let report = verify_trace(
        &recorded.trace,
        &recorded.events,
        Some(recorded.expected_cycles),
    );
    Ok(KernelRun {
        kernel,
        width,
        ops: recorded.trace.len(),
        cycles: recorded.trace.cycles(),
        expected_cycles: recorded.expected_cycles,
        report,
    })
}

/// Sweeps every kernel at every width.
///
/// # Errors
///
/// Propagates the first kernel-execution error.
pub fn verify_all(widths: &[u32]) -> Result<Vec<KernelRun>> {
    let mut runs = Vec::with_capacity(Kernel::ALL.len() * widths.len());
    for kernel in Kernel::ALL {
        for &width in widths {
            runs.push(verify_kernel(kernel, width)?);
        }
    }
    Ok(runs)
}

/// Renders a sweep as a fixed-width table plus any findings.
pub fn render(runs: &[KernelRun]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>6} {:>8} {:>9}  verdict",
        "kernel", "width", "ops", "cycles", "predicted"
    );
    for run in runs {
        let verdict = if run.report.is_clean() {
            "clean".to_string()
        } else {
            format!(
                "{} error(s), {} warning(s)",
                run.report.error_count(),
                run.report.warning_count()
            )
        };
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>6} {:>8} {:>9}  {verdict}",
            run.kernel.name(),
            run.width,
            run.ops,
            run.cycles,
            run.expected_cycles
        );
    }
    for run in runs.iter().filter(|r| !r.report.is_clean()) {
        let _ = writeln!(out, "\n{} @ {} bits:", run.kernel.name(), run.width);
        for finding in run.report.findings() {
            let _ = writeln!(out, "  {finding}");
        }
    }
    out.pop();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_is_clean_at_every_default_width() {
        for run in verify_all(&DEFAULT_WIDTHS).unwrap() {
            assert!(
                run.report.is_clean(),
                "{} @ {} bits:\n{}",
                run.kernel.name(),
                run.width,
                run.report
            );
            assert_eq!(
                run.cycles,
                run.expected_cycles,
                "{} @ {} bits",
                run.kernel.name(),
                run.width
            );
            assert!(run.ops > 0);
        }
    }

    #[test]
    fn kernel_names_round_trip() {
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::from_name(kernel.name()), Some(kernel));
        }
        assert_eq!(Kernel::from_name("mul"), Some(Kernel::Multiplier));
        assert_eq!(Kernel::from_name("nosuch"), None);
    }

    #[test]
    fn render_produces_one_row_per_run() {
        let runs = verify_all(&[8]).unwrap();
        let table = render(&runs);
        assert_eq!(table.lines().count(), 1 + runs.len(), "{table}");
        assert!(table.contains("clean"));
    }
}
