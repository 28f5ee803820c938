//! Expression-DAG → MAGIC NOR microprogram compiler.
//!
//! The hand-written kernels in `apim-logic` and `apim-workloads` prove the
//! paper's arithmetic *primitives*; this crate closes the loop from
//! *programs* to those primitives. A [`Dag`] describes a fixed-point
//! computation (add/sub/mul/MAC/shift/const over `width`-bit words, each
//! multiplication carrying its own §3.4 [`apim_logic::PrecisionMode`]);
//! [`compile`] maps it onto a [`apim_crossbar::BlockedCrossbar`]:
//!
//! 1. **Lowering** ([`lower()`]) — the DAG becomes an
//!    [`apim_arch::isa::Trace`] of controller macro-ops, costable by the
//!    analytic executor.
//! 2. **Placement** ([`plan`]) — staging, serial-adder scratch and the
//!    Wallace-tree region are reserved in the compute block pair; one row
//!    per live value is register-allocated with last-use recycling, and
//!    values that exceed the block **spill** into the data blocks.
//! 3. **Scheduling** ([`plan::schedule`]) — independent DAG nodes are
//!    list-scheduled across the crossbar's block pairs for the parallel
//!    latency estimate.
//! 4. **Gate-level execution** ([`backend`]) — [`CompiledProgram::run`]
//!    drives the real simulated cells with operation recording armed, then
//!    replays the captured microprogram through **all five**
//!    `apim-verify` hazard passes as a post-condition. A compiled program
//!    that trips a lint is a compiler bug, reported as
//!    [`CompileError::VerificationFailed`]. The same machine runs up to
//!    64 instances per pass ([`compile_batched`], one instance per
//!    bitline lane); one lane is the serial program.
//!
//! The reference semantics ([`eval`]) are pure-integer and bit-exact
//! against the gate level in every precision mode; the property tests pin
//! the two together over random DAGs.

#![deny(missing_docs)]

pub mod backend;
pub mod batch;
pub mod eval;
pub mod expand;
pub mod ir;
pub mod lower;
pub mod parse;
pub mod plan;

pub use apim_math::{MathFn, MathMode, MathSpec};
pub use backend::{compile, CompileOptions, CompiledProgram, RunReport};
pub use batch::{compile_batched, BatchCompiledProgram, BatchRunReport};
pub use eval::{evaluate, evaluate_all, evaluate_all_with, evaluate_bound};
pub use expand::{expand_math, has_math};
pub use ir::{Dag, Node, NodeId};
pub use lower::lower;
pub use parse::{parse_program, render_program, ParseError, Program};
pub use plan::{place, schedule, BlockSchedule, Placement, Slot};

use apim_crossbar::CrossbarError;

/// Errors from DAG construction, compilation or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The DAG itself is malformed (bad width, dangling operand, …).
    InvalidDag(String),
    /// No root node was designated before compiling/evaluating.
    NoRoot,
    /// A named input has no run-time binding.
    UnboundInput(String),
    /// The program does not fit the crossbar geometry.
    AreaExceeded {
        /// What ran out.
        what: String,
        /// How much the program needs.
        needed: usize,
        /// How much the crossbar offers.
        available: usize,
    },
    /// An underlying crossbar operation failed.
    Crossbar(CrossbarError),
    /// The expression source failed to parse.
    Parse(ParseError),
    /// The compiled microprogram tripped an `apim-verify` hazard pass —
    /// a compiler bug, never a user error.
    VerificationFailed(String),
    /// The DAG (or call) is outside the data-independent-control subset a
    /// program of two or more lanes admits — e.g. a non-constant
    /// multiplier or an approximate final product.
    BatchUnsupported(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::InvalidDag(msg) => write!(f, "invalid DAG: {msg}"),
            CompileError::NoRoot => write!(f, "no root node designated"),
            CompileError::UnboundInput(name) => write!(f, "input '{name}' has no binding"),
            CompileError::AreaExceeded {
                what,
                needed,
                available,
            } => write!(
                f,
                "program exceeds crossbar area: {what} needs {needed}, only {available} available"
            ),
            CompileError::Crossbar(e) => write!(f, "crossbar error: {e}"),
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::VerificationFailed(msg) => {
                write!(f, "compiled microprogram failed hazard verification: {msg}")
            }
            CompileError::BatchUnsupported(msg) => {
                write!(f, "not lane-batchable: {msg}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<CrossbarError> for CompileError {
    fn from(e: CrossbarError) -> Self {
        CompileError::Crossbar(e)
    }
}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}
