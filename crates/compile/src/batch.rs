//! Lane-batched programs: one compiled microprogram computes up to 64
//! independent instances per pass.
//!
//! [`compile_batched`] compiles a DAG through the same pipeline as
//! [`crate::compile`] and runs it on the same gate-level machine
//! ([`crate::backend`]) at `L ≤ 64` lanes: every value row is laid out in
//! the interleaved lane format of [`apim_logic::lanes`] — logical column
//! `c` of lane `j` at bitline `c · L + j`. Column-parallel MAGIC NOR costs
//! one cycle regardless of span width, so every primitive widens to all
//! lanes for free and the batched program's cycle count is (almost) the
//! one-lane count — a throughput win of ~`L`×. One lane is the serial
//! program itself.
//!
//! **Lanes are data, not control.** At two or more lanes the machine is
//! restricted to nodes whose microprogram shape is independent of the
//! operand values: constant multipliers (partial-product shifts known at
//! compile time) and exact final products (`relaxed_product_bits == 0` —
//! the approximate §3.4 tail reads per-bit carries through the sense
//! amps, which would be per-lane control). [`compile_batched`] rejects
//! anything else with [`CompileError::BatchUnsupported`]. Within that
//! class, the recorded trace has the same shape for every lane, so the
//! five hazard passes certify all lanes in one replay and the symbolic
//! equivalence check is replicated per lane purely by re-aiming the
//! output binding (`col0 = lane`, `col_step = L`).
//!
//! The pure-integer evaluator stays the differential oracle: every
//! batched run reads back all lanes and reports them next to the per-lane
//! references.

use std::collections::HashMap;

use apim_arch::isa::Trace;
use apim_crossbar::{OpTrace, WORD_BITS};
use apim_device::Joules;
use apim_logic::CostModel;
use apim_verify::{EquivReport, LintReport};

use crate::backend::{CompileOptions, Core};
use crate::ir::{Dag, Node};
use crate::plan::{mul_multiplier, BlockSchedule, Placement};
use crate::CompileError;

/// A DAG compiled for lane-batched execution: `lanes` instances per pass.
#[derive(Debug, Clone)]
pub struct BatchCompiledProgram(Core);

/// Outcome of one lane-batched gate-level execution.
#[derive(Debug, Clone)]
pub struct BatchRunReport {
    /// Per-lane values read back from the crossbar's result row.
    pub values: Vec<u64>,
    /// Per-lane pure-integer reference values — the serial oracle; equal
    /// to `values` for a correct compiler.
    pub references: Vec<u64>,
    /// Cycles charged by the simulated crossbar — for the whole batch, not
    /// per instance.
    pub cycles: u64,
    /// The closed-form cycle prediction fed to the cycle-accounting pass.
    pub expected_cycles: u64,
    /// Energy charged by the simulated crossbar.
    pub energy: Joules,
    /// Number of recorded microprogram primitives.
    pub trace_len: usize,
    /// The full hazard report (clean for a correct compiler).
    pub lint: LintReport,
}

/// Rejects DAG features whose microprogram shape would depend on lane
/// data. Runs on the post-expansion, post-strength-reduction DAG — the one
/// the machine actually executes.
pub(crate) fn validate_for_batch(dag: &Dag) -> Result<(), CompileError> {
    for i in 0..dag.len() {
        match &dag.nodes()[i] {
            Node::Mul { a, b, mode } => {
                if mul_multiplier(dag, *a, *b, *mode).2.is_none() {
                    return Err(CompileError::BatchUnsupported(format!(
                        "node {i}: non-constant multiplier (partial-product placement \
                         would differ per lane)"
                    )));
                }
                if mode.relaxed_product_bits() > 0 {
                    return Err(CompileError::BatchUnsupported(format!(
                        "node {i}: approximate final product (per-bit carry reads are \
                         per-lane control)"
                    )));
                }
            }
            Node::Mac { terms, mode } => {
                if mode.relaxed_product_bits() > 0 {
                    return Err(CompileError::BatchUnsupported(format!(
                        "node {i}: approximate final product (per-bit carry reads are \
                         per-lane control)"
                    )));
                }
                if let Some((t, _)) = terms
                    .iter()
                    .enumerate()
                    .find(|(_, &(_, b))| !matches!(dag.nodes()[b.0], Node::Const { .. }))
                {
                    return Err(CompileError::BatchUnsupported(format!(
                        "node {i}: MAC term {t} has a non-constant multiplier"
                    )));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Compiles `dag` for lane-batched execution at `lanes` instances per
/// pass through [`crate::compile`]'s pipeline. At two or more lanes the
/// batch legality check runs after strength reduction and the geometry is
/// widened to `(width + 2) · lanes` bitlines when the configured crossbar
/// is narrower; one lane compiles the serial program.
///
/// # Errors
///
/// [`CompileError::BatchUnsupported`] for lane counts outside `1..=64` or,
/// at two or more lanes, DAG features that would need per-lane control
/// flow; otherwise the same failures as [`crate::compile`].
pub fn compile_batched(
    dag: &Dag,
    options: &CompileOptions,
    lanes: usize,
) -> Result<BatchCompiledProgram, CompileError> {
    if lanes == 0 || lanes > WORD_BITS {
        return Err(CompileError::BatchUnsupported(format!(
            "lane count {lanes} outside 1..={WORD_BITS}"
        )));
    }
    Core::compile(dag, options, lanes).map(BatchCompiledProgram)
}

impl BatchCompiledProgram {
    /// The (possibly strength-reduced) DAG this program executes.
    pub fn dag(&self) -> &Dag {
        &self.0.dag
    }

    /// The row placement (the same row map at every lane count — lane
    /// batching scales columns, not rows).
    pub fn placement(&self) -> &Placement {
        &self.0.placement
    }

    /// The block-pair list schedule.
    pub fn schedule(&self) -> &BlockSchedule {
        &self.0.schedule
    }

    /// The lowered controller macro-op trace.
    pub fn trace(&self) -> &Trace {
        &self.0.trace
    }

    /// The analytic cost model used for cycle bookkeeping.
    pub fn model(&self) -> &CostModel {
        &self.0.model
    }

    /// Instances per pass this program was compiled for.
    pub fn lanes(&self) -> usize {
        self.0.lanes
    }

    /// Executes all `lanes` input bindings in one microprogram pass, then
    /// lints the recorded trace through all five hazard passes.
    ///
    /// # Errors
    ///
    /// A binding-count mismatch ([`CompileError::BatchUnsupported`]),
    /// unbound inputs, crossbar faults, or
    /// [`CompileError::VerificationFailed`] for an error-severity hazard
    /// finding.
    pub fn run(&self, inputs: &[HashMap<String, u64>]) -> Result<BatchRunReport, CompileError> {
        let (exec, lint) = self.0.run(inputs)?;
        Ok(BatchRunReport {
            trace_len: exec.ops.len(),
            values: exec.values,
            references: exec.references,
            cycles: exec.cycles,
            expected_cycles: exec.expected_cycles,
            energy: exec.energy,
            lint,
        })
    }

    /// Symbolically re-executes the recorded batched microprogram and
    /// checks lane `lane` of the root row against that lane's
    /// pure-integer reference — the per-lane replication of
    /// [`crate::CompiledProgram::verify_equiv`]. The trace is recorded
    /// once; only the output binding moves (`col0 = lane`,
    /// `col_step = lanes`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchCompiledProgram::run`], plus an
    /// out-of-range `lane`.
    pub fn verify_equiv_lane(
        &self,
        inputs: &[HashMap<String, u64>],
        lane: usize,
    ) -> Result<EquivReport, CompileError> {
        self.0.verify_equiv(inputs, lane)
    }

    /// Records one lane-batched execution and returns the raw
    /// microprogram, unlinted — the batched counterpart of
    /// [`crate::CompiledProgram::record`], for differential checks of the
    /// hazard passes and miscompile-fixture construction.
    ///
    /// # Errors
    ///
    /// A binding-count mismatch, unbound inputs or crossbar faults.
    pub fn record(&self, inputs: &[HashMap<String, u64>]) -> Result<OpTrace, CompileError> {
        Ok(self.0.execute(inputs)?.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apim_logic::PrecisionMode;

    fn bind(pairs: &[(&str, u64)]) -> HashMap<String, u64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    /// x + y - z at width 16, batched across all 64 lanes, checked against
    /// the serial reference per lane.
    #[test]
    fn batched_add_sub_matches_reference_in_every_lane() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let z = dag.input("z").unwrap();
        let s = dag.add(x, y).unwrap();
        let d = dag.sub(s, z).unwrap();
        dag.set_root(d).unwrap();
        let lanes = 64;
        let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
        let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| {
                bind(&[
                    ("x", (j * 977 + 3) & 0xFFFF),
                    ("y", (j * 1543 + 77) & 0xFFFF),
                    ("z", (j * 401 + 9) & 0xFFFF),
                ])
            })
            .collect();
        let report = program.run(&inputs).unwrap();
        assert!(report.lint.is_clean(), "lint: {}", report.lint);
        assert_eq!(report.values, report.references);
        assert_eq!(report.cycles, report.expected_cycles);
        // The batch costs what one serial instance costs: 12n+1 + 12n+2.
        assert_eq!(report.cycles, (12 * 16 + 1) + (12 * 16 + 2));
    }

    #[test]
    fn batched_cycles_match_the_serial_program() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let c = dag.constant(0b1011);
        let m = dag.mul(x, c, PrecisionMode::Exact).unwrap();
        let s = dag.add(m, x).unwrap();
        let r = dag.shr(s, 3).unwrap();
        dag.set_root(r).unwrap();

        let serial = crate::compile(&dag, &CompileOptions::default()).unwrap();
        let serial_report = serial.run(&bind(&[("x", 1234)])).unwrap();

        let lanes = 8;
        let batched = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
        let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| bind(&[("x", 1000 + j * 111)]))
            .collect();
        let report = batched.run(&inputs).unwrap();
        assert_eq!(report.values, report.references);
        assert_eq!(report.cycles, report.expected_cycles);
        // The batched Shr pays one extra cycle (in-array sign fill); all
        // other nodes cost exactly the serial count.
        assert_eq!(report.cycles, serial_report.cycles + 1);
        // Lane 0 of the batch computes the serial lane-0 value.
        assert_eq!(
            report.values[0],
            crate::eval::evaluate(batched.dag(), &inputs[0]).unwrap()
        );
    }

    #[test]
    fn batched_mac_and_shl_run_clean() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let c = dag.constant(3);
        let d = dag.constant(21);
        let m = dag.mac(vec![(x, c), (y, d)], PrecisionMode::Exact).unwrap();
        let l = dag.shl(m, 2).unwrap();
        dag.set_root(l).unwrap();
        let lanes = 16;
        let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
        let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| bind(&[("x", 500 + j * 31), ("y", 900 + j * 17)]))
            .collect();
        let report = program.run(&inputs).unwrap();
        assert!(report.lint.is_clean(), "lint: {}", report.lint);
        assert_eq!(report.values, report.references);
        assert_eq!(report.cycles, report.expected_cycles);
    }

    #[test]
    fn negative_constants_strength_reduce_and_batch() {
        // A sharpen-style tap: add(x·5, y·(-1)) — strength reduction turns
        // the negative tap into a Sub, leaving only positive constant
        // multipliers, which is exactly what makes workload DAGs batchable.
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let five = dag.constant(5);
        let neg = dag.constant(0xFFFF); // -1 at width 16
        let m1 = dag.mul(x, five, PrecisionMode::Exact).unwrap();
        let m2 = dag.mul(y, neg, PrecisionMode::Exact).unwrap();
        let s = dag.add(m1, m2).unwrap();
        dag.set_root(s).unwrap();
        let lanes = 4;
        let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
        let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| bind(&[("x", 100 + j), ("y", 7 * j + 1)]))
            .collect();
        let report = program.run(&inputs).unwrap();
        assert_eq!(report.values, report.references);
    }

    #[test]
    fn per_lane_equivalence_proofs_transfer() {
        let mut dag = Dag::new(12).unwrap();
        let x = dag.input("x").unwrap();
        let c = dag.constant(0b101);
        let m = dag.mul(x, c, PrecisionMode::Exact).unwrap();
        let y = dag.input("y").unwrap();
        let s = dag.add(m, y).unwrap();
        dag.set_root(s).unwrap();
        let lanes = 8;
        let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
        let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| bind(&[("x", (j * 53 + 11) & 0xFFF), ("y", (j * 29 + 5) & 0xFFF)]))
            .collect();
        for lane in [0, 1, lanes - 1] {
            let report = program.verify_equiv_lane(&inputs, lane).unwrap();
            assert!(report.equivalent, "lane {lane}: {}", report.lint);
        }
    }

    #[test]
    fn unsupported_batches_are_rejected_up_front() {
        // Unknown multiplier: per-lane partial-product placement.
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let m = dag.mul(x, y, PrecisionMode::Exact).unwrap();
        dag.set_root(m).unwrap();
        assert!(matches!(
            compile_batched(&dag, &CompileOptions::default(), 4),
            Err(CompileError::BatchUnsupported(_))
        ));

        // Approximate final product: per-lane carry reads.
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let c = dag.constant(7);
        let m = dag
            .mul(x, c, PrecisionMode::LastStage { relax_bits: 4 })
            .unwrap();
        dag.set_root(m).unwrap();
        assert!(matches!(
            compile_batched(&dag, &CompileOptions::default(), 4),
            Err(CompileError::BatchUnsupported(_))
        ));

        // Lane counts outside 1..=64.
        let mut dag = Dag::new(8).unwrap();
        let x = dag.input("x").unwrap();
        dag.set_root(x).unwrap();
        for lanes in [0, 65] {
            assert!(matches!(
                compile_batched(&dag, &CompileOptions::default(), lanes),
                Err(CompileError::BatchUnsupported(_))
            ));
        }
    }

    #[test]
    fn binding_count_must_match_lanes() {
        let mut dag = Dag::new(8).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let s = dag.add(x, y).unwrap();
        dag.set_root(s).unwrap();
        let program = compile_batched(&dag, &CompileOptions::default(), 4).unwrap();
        let short: Vec<HashMap<String, u64>> =
            (0..3).map(|j| bind(&[("x", j), ("y", j)])).collect();
        assert!(matches!(
            program.run(&short),
            Err(CompileError::BatchUnsupported(_))
        ));
    }
}
