//! Static hazard analysis for MAGIC NOR microprograms.
//!
//! The gate-level crates execute kernels against simulated memristive
//! cells, which catches *value-dependent* symptoms of scheduling bugs
//! (e.g. `strict_init` fires only when the stale bit happens to be OFF).
//! This crate catches the bugs themselves, statically: a kernel is run once
//! with operation recording armed (see
//! [`apim_crossbar::BlockedCrossbar::start_recording`]), and the captured
//! [`apim_crossbar::OpTrace`] — the sequence of primitives the kernel
//! *requested*, before any runtime validation — is replayed through five
//! dataflow passes:
//!
//! 1. **init-discipline** — every NOR destination cell is initialized to
//!    the ON state after its last write and before evaluation.
//! 2. **aliasing** — no NOR names one of its own input cells as output.
//! 3. **shift-bounds** — interconnect shifts keep the column window inside
//!    the array, and never ask a single block to shift against itself.
//! 4. **scratch-lifetime** — alloc/free pairing over
//!    [`apim_crossbar::RowAllocator::with_tracing`] event logs:
//!    double-frees, frees of never-allocated rows, leaks at kernel exit.
//! 5. **cycle-accounting** — the trace accounts for exactly the cycles the
//!    analytic [`apim_logic::CostModel`] predicts (13-cycle CSA stage,
//!    `12N + 1` serial addition, `ones + 1` partial products, …).
//!
//! [`verify_kernel`]/[`verify_all`] bundle the recording harnesses for the
//! shipped kernels (gates, serial adder, CSA group, Wallace tree,
//! multiplier, MAC); `apim-cli verify` and the CI lint gate sit on top of
//! them.
//!
//! On top of the hazard passes, the [`equiv`] module proves microprograms
//! *compute their specification*: the trace is re-executed over a
//! hash-consed symbolic NOR graph ([`xprop`] supplies the three-valued
//! unknown lattice) and compared against a pure-integer spec by 64-lane
//! packed cofactor evaluation — exhaustive up to
//! [`equiv::MAX_EXHAUSTIVE_BITS`] input bits, seeded-sampled beyond, with
//! concrete counterexamples on mismatch. [`verify_equiv_kernel`] /
//! [`verify_equiv_all`] bundle the recording harnesses; `apim-cli verify
//! --equiv` sits on top.
//!
//! ```
//! use apim_verify::{verify_kernel, Kernel};
//!
//! # fn main() -> Result<(), apim_crossbar::CrossbarError> {
//! let run = verify_kernel(Kernel::SerialAdder, 16)?;
//! assert!(run.report.is_clean());
//! assert_eq!(run.cycles, 12 * 16 + 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod equiv;
pub mod equiv_kernels;
pub mod kernels;
pub mod passes;
pub mod report;
pub mod xprop;

pub use equiv::{
    check_equiv, CheckMode, Counterexample, EquivReport, NorGraph, OperandBinding, OutputBinding,
};
pub use equiv_kernels::{
    render_equiv, verify_equiv_all, verify_equiv_kernel, EquivKernelRun, EquivTarget,
};
pub use kernels::{
    record_kernel, render, verify_all, verify_kernel, Kernel, KernelRun, RecordedKernel,
    DEFAULT_WIDTHS,
};
pub use passes::{
    pass_aliasing, pass_cycle_accounting, pass_init_discipline, pass_scratch_lifetime,
    pass_shift_bounds, verify_trace,
};
pub use report::{Finding, LintReport, Pass, Severity};
