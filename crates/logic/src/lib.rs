//! In-memory arithmetic for APIM.
//!
//! This crate implements the paper's §3 — everything between raw MAGIC NOR
//! primitives and whole applications:
//!
//! * [`gates`] — elementary in-memory gates (NOT, AND, OR, XOR) built from
//!   MAGIC NOR, as in Eq. (2) of the paper.
//! * [`adder_serial`] — the `12N + 1`-cycle serial in-memory adder of
//!   Talati et al. \[24\], which APIM uses for final carry propagation.
//! * [`subtractor`] — two's-complement in-memory subtraction
//!   (`12N + 2` cycles).
//! * [`adder_csa`] — the width-independent 13-cycle 3:2 carry-save
//!   reduction (§3.2).
//! * [`lanes`] — the lane-batched operand layout: up to 64 independent
//!   instances interleaved across the bitlines so one microprogram pass
//!   computes all of them (SIMD across instances, not across bits).
//! * [`wallace`] — the Wallace-tree-style N:2 reduction toggling between
//!   two processing blocks (§3.2–3.3).
//! * [`multiplier`] — the full three-stage multiplier: partial-product
//!   generation through the sense amplifiers, fast reduction, and the
//!   (optionally approximate) final product generation (§3.3–3.4).
//! * [`functional`] — **pure-integer reference semantics** for every one of
//!   those circuits, bit-exact including approximation behaviour. The
//!   crossbar implementations are tested against these functions; the
//!   workload crate executes them at scale.
//! * [`spec`] — one-line closed-form specifications of what each kernel
//!   promises to compute; the `apim-verify` equivalence checker proves the
//!   recorded microprograms against exactly these.
//! * [`model`] — the **analytic cost model**: closed-form cycle/energy
//!   formulas, cross-validated against the crossbar simulation.
//! * [`error_analysis`] — Monte-Carlo and analytic error estimation used by
//!   Figure 4.
//!
//! # Cycle-accounting conventions
//!
//! The implementation is *netlist-faithful*: each documented NOR netlist
//! charges exactly one cycle per NOR. This reproduces the paper's
//! `12N + 1` serial adder and 13-cycle CSA stage exactly. One deliberate
//! deviation: the paper charges the exact portion of final product
//! generation at 13 cycles/bit (`13k + 2m + 1`); our netlist needs only 12
//! cycles/bit (the same count as its own `12N + 1` serial adder), so this
//! repo uses `12k + 2m + 2` (and `12W + 1` / `2m + 1` at the ends). The
//! discrepancy is internal to the paper and the shape of every result is
//! unaffected; see `EXPERIMENTS.md`.
//!
//! # Example
//!
//! ```
//! use apim_logic::{functional, PrecisionMode};
//!
//! // 32x32-bit multiplication with the paper's last-stage approximation,
//! // relaxing the 16 least-significant product bits.
//! let mode = PrecisionMode::LastStage { relax_bits: 16 };
//! let exact = functional::multiply(123_456, 987_654, 32, PrecisionMode::Exact);
//! let approx = functional::multiply(123_456, 987_654, 32, mode);
//! assert_eq!(exact, 123_456u128 * 987_654u128);
//! let rel_err = (approx as f64 - exact as f64).abs() / exact as f64;
//! assert!(rel_err < 1e-3);
//! ```

#![deny(missing_docs)]

pub mod adder_csa;
pub mod adder_serial;
pub mod divider;
pub mod error_analysis;
pub mod functional;
pub mod gates;
pub mod lanes;
pub mod mac;
pub mod model;
pub mod multiplier;
pub mod spec;
pub mod subtractor;
pub mod wallace;

mod precision;

pub use model::{CostModel, OpCost};
pub use precision::{PrecisionError, PrecisionMode};
