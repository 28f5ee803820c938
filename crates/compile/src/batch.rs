//! Lane-batched gate-level backend: one compiled microprogram computes up
//! to 64 independent instances per pass.
//!
//! The serial backend ([`crate::backend`]) runs a DAG for one input
//! binding; this module runs the *same* placement for `L ≤ 64` bindings at
//! once by laying every value row out in the interleaved lane format of
//! [`apim_logic::lanes`] — logical column `c` of lane `j` at bitline
//! `c · L + j`. Column-parallel MAGIC NOR costs one cycle regardless of
//! span width, so every primitive the serial machine issues widens to all
//! lanes for free and the batched program's cycle count is (almost) the
//! serial count — a throughput win of ~`L`×.
//!
//! **Lanes are data, not control.** The batched machine is restricted to
//! nodes whose microprogram shape is independent of the operand values:
//! constant multipliers (partial-product shifts known at compile time) and
//! exact final products (`relaxed_product_bits == 0` — the approximate
//! §3.4 tail reads per-bit carries through the sense amps, which would be
//! per-lane control). [`compile_batched`] rejects anything else with
//! [`CompileError::BatchUnsupported`]. Within that class, the recorded
//! trace has the same shape for every lane, so the five hazard passes
//! certify all lanes in one replay and the symbolic equivalence check is
//! replicated per lane purely by re-aiming the output binding
//! (`col0 = lane`, `col_step = L`).
//!
//! The serial path stays the differential oracle: every batched run reads
//! back all lanes and reports them next to the pure-integer references.

use std::collections::HashMap;

use apim_arch::isa::Trace;
use apim_crossbar::{
    AllocEvent, BlockId, BlockedCrossbar, OpTrace, RowAllocator, RowRef, WORD_BITS,
};
use apim_device::Joules;
use apim_logic::adder_serial::SerialScratch;
use apim_logic::functional::partial_product_shifts;
use apim_logic::lanes::{add_lanes, preload_lanes, read_lanes, sub_lanes};
use apim_logic::wallace::reduce_rows_to_two_lanes;
use apim_logic::CostModel;
use apim_verify::{check_equiv, verify_trace, EquivReport, LintReport, OutputBinding};

use crate::backend::CompileOptions;
use crate::eval::evaluate_all;
use crate::expand::expand_math;
use crate::ir::{Dag, Node, NodeId};
use crate::lower::lower;
use crate::plan::{
    mul_copy_overhead, mul_multiplier, place, schedule, serial_copy_overhead, BlockSchedule,
    Placement, Slot, ROW_AUX, ROW_RES, ROW_X, ROW_Y,
};
use crate::CompileError;

/// A DAG compiled for lane-batched execution: `lanes` instances per pass.
#[derive(Debug, Clone)]
pub struct BatchCompiledProgram {
    dag: Dag,
    placement: Placement,
    schedule: BlockSchedule,
    trace: Trace,
    model: CostModel,
    lanes: usize,
}

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
fn validate_for_batch(dag: &Dag) -> Result<(), CompileError> {
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
/// pass: the serial pipeline (math expansion, strength reduction,
/// placement, scheduling) plus the batch legality check, against a
/// geometry widened to `(width + 2) · lanes` bitlines when the configured
/// crossbar is narrower.
///
/// # Errors
///
/// [`CompileError::BatchUnsupported`] for lane counts outside `1..=64` or
/// DAG features that would need per-lane control flow; otherwise the same
/// failures as [`crate::compile`].
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
    dag.root().ok_or(CompileError::NoRoot)?;
    let mut dag = expand_math(dag);
    if options.strength_reduce {
        dag.strength_reduce_negated_constants();
    }
    validate_for_batch(&dag)?;
    let n = dag.width() as usize;
    let mut config = options.config.clone();
    config.cols = config.cols.max((n + 2) * lanes);
    let placement = place(&dag, &config)?;
    let model = CostModel::new(&config.params);
    let schedule = schedule(&dag, &placement, &model);
    let trace = lower(&dag);
    Ok(BatchCompiledProgram {
        dag,
        placement,
        schedule,
        trace,
        model,
        lanes,
    })
}

impl BatchCompiledProgram {
    /// The (possibly strength-reduced) DAG this program executes.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The row placement (shared with the serial backend — lane batching
    /// scales columns, not rows).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The block-pair list schedule.
    pub fn schedule(&self) -> &BlockSchedule {
        &self.schedule
    }

    /// The lowered controller macro-op trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The analytic cost model used for cycle bookkeeping.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Instances per pass this program was compiled for.
    pub fn lanes(&self) -> usize {
        self.lanes
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
        let exec = self.execute(inputs)?;
        let lint = verify_trace(&exec.ops, &exec.events, Some(exec.expected_cycles));
        if lint.error_count() > 0 {
            return Err(CompileError::VerificationFailed(lint.to_string()));
        }
        Ok(BatchRunReport {
            values: exec.values,
            references: exec.references,
            cycles: exec.cycles,
            expected_cycles: exec.expected_cycles,
            energy: exec.energy,
            trace_len: exec.ops.len(),
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
        if lane >= self.lanes {
            return Err(CompileError::BatchUnsupported(format!(
                "lane {lane} out of range for a {}-lane program",
                self.lanes
            )));
        }
        let exec = self.execute(inputs)?;
        let output = OutputBinding {
            block: exec.root_block,
            row: exec.root_row,
            col0: lane,
            width: self.dag.width() as usize,
            col_step: self.lanes,
        };
        let reference = exec.references[lane];
        Ok(check_equiv(&exec.ops, &[], &output, move |_| reference))
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
        Ok(self.execute(inputs)?.ops)
    }

    /// One recorded lane-batched execution: the shared body behind
    /// [`BatchCompiledProgram::run`] and
    /// [`BatchCompiledProgram::verify_equiv_lane`]. Mirrors the serial
    /// backend's allocator discipline row for row — lane batching scales
    /// columns only, so the planner's row map transfers unchanged.
    fn execute(&self, inputs: &[HashMap<String, u64>]) -> Result<BatchExecution, CompileError> {
        if inputs.len() != self.lanes {
            return Err(CompileError::BatchUnsupported(format!(
                "{} input bindings for a {}-lane program",
                inputs.len(),
                self.lanes
            )));
        }
        let per_lane: Vec<Vec<u64>> = inputs
            .iter()
            .map(|m| evaluate_all(&self.dag, m))
            .collect::<Result<_, _>>()?;
        // Transpose to per-node lane vectors for the preload calls.
        let values: Vec<Vec<u64>> = (0..self.dag.len())
            .map(|i| per_lane.iter().map(|l| l[i]).collect())
            .collect();

        let cfg = &self.placement.config;
        let n = self.dag.width() as usize;
        let mut xbar = BlockedCrossbar::new(cfg.clone())?;
        let blocks: Vec<BlockId> = (0..cfg.blocks)
            .map(|i| xbar.block(i))
            .collect::<Result<_, _>>()?;

        let mut allocs: Vec<RowAllocator> = (0..cfg.blocks)
            .map(|_| RowAllocator::with_tracing(cfg.rows))
            .collect();
        let mut scratches: Vec<SerialScratch> = Vec::with_capacity(2);
        let mut regions: Vec<Vec<usize>> = Vec::with_capacity(2);
        for alloc in allocs.iter_mut().take(2) {
            let staging = alloc.alloc_many(4)?;
            debug_assert_eq!(staging, [ROW_X, ROW_Y, ROW_AUX, ROW_RES]);
            scratches.push(SerialScratch::alloc(alloc)?);
            regions.push(if self.placement.region_rows > 0 {
                alloc.alloc_many(self.placement.region_rows)?
            } else {
                Vec::new()
            });
        }
        let scratches: [SerialScratch; 2] = scratches.try_into().expect("two compute blocks");

        let stats_before = *xbar.stats();
        xbar.start_recording();

        let mut machine = BatchMachine {
            xbar: &mut xbar,
            blocks: &blocks,
            scratch: &scratches,
            n,
            lanes: self.lanes,
            t0: self.placement.region_base,
            not_row: self.placement.region_base + self.placement.region_rows.saturating_sub(1),
        };
        let mut expected_cycles = 0u64;
        for i in 0..self.dag.len() {
            let id = NodeId(i);
            let dest = self.placement.slots[i];
            let row = allocs[dest.block].alloc()?;
            debug_assert_eq!(row, dest.row, "planner/runtime divergence at {id}");
            expected_cycles +=
                machine.exec(&self.dag, &self.placement, &self.model, &values, id)?;
            for &op in &self.placement.frees[i] {
                let s = self.placement.slots[op.0];
                allocs[s.block].free(s.row)?;
            }
        }
        let trace = machine.xbar.stop_recording();

        let root = self.dag.root().ok_or(CompileError::NoRoot)?;
        let root_slot = self.placement.slots[root.0];
        let lane_values = read_lanes(
            &xbar,
            blocks[root_slot.block],
            root_slot.row,
            0,
            n,
            self.lanes,
        )?;

        allocs[root_slot.block].free(root_slot.row)?;
        for (b, scratch) in scratches.into_iter().enumerate() {
            allocs[b].free_many(regions[b].iter().copied())?;
            scratch.release(&mut allocs[b])?;
            allocs[b].free_many([ROW_X, ROW_Y, ROW_AUX, ROW_RES])?;
        }

        let mut events = Vec::new();
        for (b, alloc) in allocs.iter_mut().enumerate() {
            let offset = b * cfg.rows;
            events.extend(alloc.take_events().into_iter().map(|ev| match ev {
                AllocEvent::Alloc { row } => AllocEvent::Alloc { row: row + offset },
                AllocEvent::Free { row } => AllocEvent::Free { row: row + offset },
            }));
        }

        let delta = *xbar.stats() - stats_before;
        Ok(BatchExecution {
            ops: trace,
            events,
            expected_cycles,
            values: lane_values,
            references: (0..self.lanes).map(|j| per_lane[j][root.0]).collect(),
            cycles: delta.cycles.get(),
            energy: delta.energy,
            root_block: root_slot.block,
            root_row: root_slot.row,
        })
    }
}

/// Raw outcome of one recorded lane-batched execution.
struct BatchExecution {
    ops: OpTrace,
    events: Vec<AllocEvent>,
    expected_cycles: u64,
    values: Vec<u64>,
    references: Vec<u64>,
    cycles: u64,
    energy: Joules,
    root_block: usize,
    root_row: usize,
}

/// Lane-batched execution context: [`crate::backend`]'s `Machine` with
/// every column coordinate scaled by `lanes`.
struct BatchMachine<'a> {
    xbar: &'a mut BlockedCrossbar,
    blocks: &'a [BlockId],
    scratch: &'a [SerialScratch; 2],
    n: usize,
    lanes: usize,
    /// First ALU-region row (partial products / tree survivors).
    t0: usize,
    /// Shared multiplicand-complement row (block 1, top of the region).
    not_row: usize,
}

impl BatchMachine<'_> {
    /// Physical bitline span of logical columns `c0..c1`.
    fn span(&self, c0: usize, c1: usize) -> std::ops::Range<usize> {
        c0 * self.lanes..c1 * self.lanes
    }

    /// Two-NOT copy of a logical column window between value rows, staged
    /// through block 1's AUX row (2 cycles — span width is free).
    fn copy_word(
        &mut self,
        src: Slot,
        dst: Slot,
        c0: usize,
        c1: usize,
    ) -> Result<(), CompileError> {
        self.xbar.copy_row_shifted(
            RowRef::new(self.blocks[src.block], src.row),
            RowRef::new(self.blocks[1], ROW_AUX),
            RowRef::new(self.blocks[dst.block], dst.row),
            self.span(c0, c1),
            0,
        )?;
        Ok(())
    }

    /// Returns a compute-block row holding the operand: its home row when
    /// already in block 0, else a 2-cycle staging copy into `staging_row`.
    fn stage(&mut self, slot: Slot, staging_row: usize) -> Result<usize, CompileError> {
        if slot.block == 0 {
            return Ok(slot.row);
        }
        self.copy_word(
            slot,
            Slot {
                block: 0,
                row: staging_row,
            },
            0,
            self.n,
        )?;
        Ok(staging_row)
    }

    /// Executes one node across all lanes, returning its closed-form
    /// expected cycle count. `values[node][lane]` is the reference value
    /// of `node` in `lane`.
    fn exec(
        &mut self,
        dag: &Dag,
        placement: &Placement,
        model: &CostModel,
        values: &[Vec<u64>],
        id: NodeId,
    ) -> Result<u64, CompileError> {
        let n = self.n;
        let lanes = self.lanes;
        let bits = dag.width();
        let dest = placement.slots[id.0];
        match &dag.nodes()[id.0] {
            Node::Input { .. } | Node::Const { .. } => {
                preload_lanes(
                    self.xbar,
                    self.blocks[dest.block],
                    dest.row,
                    0,
                    n,
                    lanes,
                    &values[id.0],
                )?;
                Ok(0)
            }
            Node::Add { a, b } => {
                let x = self.stage(placement.slots[a.0], ROW_X)?;
                let y = self.stage(placement.slots[b.0], ROW_Y)?;
                let (out, copy_out) = self.serial_out(dest);
                add_lanes(
                    self.xbar,
                    self.blocks[0],
                    x,
                    y,
                    out,
                    0..n,
                    lanes,
                    &self.scratch[0],
                )?;
                if copy_out {
                    self.copy_word(
                        Slot {
                            block: 0,
                            row: ROW_RES,
                        },
                        dest,
                        0,
                        n,
                    )?;
                }
                Ok(model.serial_add(bits).cycles.get()
                    + serial_copy_overhead(placement, *a, *b, id))
            }
            Node::Sub { a, b } => {
                let x = self.stage(placement.slots[a.0], ROW_X)?;
                let y = self.stage(placement.slots[b.0], ROW_Y)?;
                let (out, copy_out) = self.serial_out(dest);
                sub_lanes(
                    self.xbar,
                    self.blocks[0],
                    x,
                    y,
                    ROW_AUX,
                    out,
                    0..n,
                    lanes,
                    &self.scratch[0],
                )?;
                if copy_out {
                    self.copy_word(
                        Slot {
                            block: 0,
                            row: ROW_RES,
                        },
                        dest,
                        0,
                        n,
                    )?;
                }
                Ok(model.serial_sub(bits).cycles.get()
                    + serial_copy_overhead(placement, *a, *b, id))
            }
            Node::Shl { x, amount } => {
                let k = *amount as usize;
                let src = placement.slots[x.0];
                self.xbar
                    .preload_zeros(self.blocks[dest.block], dest.row, 0, n * lanes)?;
                self.xbar.copy_row_shifted(
                    RowRef::new(self.blocks[src.block], src.row),
                    RowRef::new(self.blocks[1], ROW_AUX),
                    RowRef::new(self.blocks[dest.block], dest.row),
                    self.span(0, n - k),
                    (k * lanes) as isize,
                )?;
                Ok(2)
            }
            Node::Shr { x, amount } => {
                // The serial backend reads the sign bit through the sense
                // amplifier and writes it back per fill column — per-lane
                // control. The batched form keeps it in-array: NOT the
                // sign lane span into AUX once, then one cross-block NOR
                // per fill column re-complements it into place
                // (3 + k cycles vs. the serial 2 + k).
                let k = *amount as usize;
                let src = placement.slots[x.0];
                self.xbar
                    .preload_zeros(self.blocks[dest.block], dest.row, 0, n * lanes)?;
                self.xbar.copy_row_shifted(
                    RowRef::new(self.blocks[src.block], src.row),
                    RowRef::new(self.blocks[1], ROW_AUX),
                    RowRef::new(self.blocks[dest.block], dest.row),
                    self.span(k, n),
                    -((k * lanes) as isize),
                )?;
                if k > 0 {
                    let sign = self.span(n - 1, n);
                    self.xbar
                        .init_rows(self.blocks[1], &[ROW_AUX], sign.clone())?;
                    self.xbar.nor_rows_shifted(
                        &[RowRef::new(self.blocks[src.block], src.row)],
                        RowRef::new(self.blocks[1], ROW_AUX),
                        sign.clone(),
                        0,
                    )?;
                    for c in n - k..n {
                        let shift = (c as isize - (n as isize - 1)) * lanes as isize;
                        self.xbar.init_rows(
                            self.blocks[dest.block],
                            &[dest.row],
                            self.span(c, c + 1),
                        )?;
                        self.xbar.nor_rows_shifted(
                            &[RowRef::new(self.blocks[1], ROW_AUX)],
                            RowRef::new(self.blocks[dest.block], dest.row),
                            sign.clone(),
                            shift,
                        )?;
                    }
                }
                Ok(2 + if k > 0 { 1 + k as u64 } else { 0 })
            }
            Node::Mul { a, b, mode } => {
                let (mcand, _, cval) = mul_multiplier(dag, *a, *b, *mode);
                let c = cval.expect("compile_batched validated a constant multiplier");
                let shifts = partial_product_shifts(c, mode.masked_multiplier_bits());
                let count = self.place_pps(placement.slots[mcand.0], &shifts, 0)?;
                self.finish_product(count, dest)?;
                Ok(model.multiply_trunc_value(bits, c, *mode).cycles.get()
                    + mul_copy_overhead(bits, count, 0, placement.in_compute(id)))
            }
            Node::Mac { terms, mode } => {
                let mut count = 0usize;
                let mut multipliers = Vec::with_capacity(terms.len());
                for &(ta, tb) in terms {
                    let Node::Const { value } = dag.nodes()[tb.0] else {
                        unreachable!("compile_batched validated constant MAC multipliers")
                    };
                    multipliers.push(value);
                    let shifts = partial_product_shifts(value, mode.masked_multiplier_bits());
                    count += self.place_pps(placement.slots[ta.0], &shifts, count)?;
                }
                self.finish_product(count, dest)?;
                Ok(model
                    .mac_group_value(bits, &multipliers, *mode)
                    .cycles
                    .get()
                    + mul_copy_overhead(bits, count, 0, placement.in_compute(id)))
            }
            Node::Math { .. } => Err(CompileError::InvalidDag(
                "unexpanded math node reached the lane-batched backend".into(),
            )),
        }
    }

    /// Where a serial-netlist (block 0) result lands: the destination row
    /// when it lives in block 0, else the staging RES row plus a copy-out.
    fn serial_out(&self, dest: Slot) -> (usize, bool) {
        if dest.block == 0 {
            (dest.row, false)
        } else {
            (ROW_RES, true)
        }
    }

    /// Generates one multiplicand's partial products into region rows
    /// `t0 + pp_base ..` across all lanes, sharing a single complement NOR
    /// (`1 + shifts.len()` cycles — identical to the serial count; the
    /// shifts come from a compile-time constant, so every lane gets the
    /// same rows).
    fn place_pps(
        &mut self,
        mcand: Slot,
        shifts: &[u32],
        pp_base: usize,
    ) -> Result<usize, CompileError> {
        if shifts.is_empty() {
            return Ok(0);
        }
        let n = self.n;
        let lanes = self.lanes;
        self.xbar
            .init_rows(self.blocks[1], &[self.not_row], self.span(0, n))?;
        self.xbar.nor_rows_shifted(
            &[RowRef::new(self.blocks[mcand.block], mcand.row)],
            RowRef::new(self.blocks[1], self.not_row),
            self.span(0, n),
            0,
        )?;
        for (i, &shift) in shifts.iter().enumerate() {
            let lo = shift as usize;
            let row = self.t0 + pp_base + i;
            self.xbar
                .preload_zeros(self.blocks[0], row, 0, (n + 2) * lanes)?;
            self.xbar
                .init_rows(self.blocks[0], &[row], self.span(lo, n))?;
            self.xbar.nor_rows_shifted(
                &[RowRef::new(self.blocks[1], self.not_row)],
                RowRef::new(self.blocks[0], row),
                self.span(0, n - lo),
                (lo * lanes) as isize,
            )?;
        }
        Ok(shifts.len())
    }

    /// Turns `count` partial products (region rows `t0..`) into the
    /// destination word in every lane: Wallace reduction to two survivors,
    /// then the exact final addition (`relaxed_product_bits == 0` was
    /// enforced at compile time).
    fn finish_product(&mut self, count: usize, dest: Slot) -> Result<(), CompileError> {
        let n = self.n;
        let lanes = self.lanes;
        match count {
            0 => {
                self.xbar
                    .preload_zeros(self.blocks[dest.block], dest.row, 0, n * lanes)?;
                Ok(())
            }
            1 => self.copy_word(
                Slot {
                    block: 0,
                    row: self.t0,
                },
                dest,
                0,
                n,
            ),
            _ => {
                let (survivor_block, survivors) = reduce_rows_to_two_lanes(
                    self.xbar,
                    self.blocks[0],
                    self.blocks[1],
                    count,
                    0..n,
                    lanes,
                    self.t0,
                )?;
                debug_assert_eq!(survivors, 2);
                let si = if survivor_block == self.blocks[0] {
                    0
                } else {
                    1
                };
                let (t0, t1) = (self.t0, self.t0 + 1);
                if si == 0 && dest.block == 0 {
                    add_lanes(
                        self.xbar,
                        survivor_block,
                        t0,
                        t1,
                        dest.row,
                        0..n,
                        lanes,
                        &self.scratch[0],
                    )?;
                } else {
                    add_lanes(
                        self.xbar,
                        survivor_block,
                        t0,
                        t1,
                        ROW_RES,
                        0..n,
                        lanes,
                        &self.scratch[si],
                    )?;
                    self.copy_word(
                        Slot {
                            block: si,
                            row: ROW_RES,
                        },
                        dest,
                        0,
                        n,
                    )?;
                }
                Ok(())
            }
        }
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
