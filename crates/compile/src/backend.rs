//! Gate-level backend: executes a compiled DAG on simulated cells, for
//! one input binding or for up to 64 at once, and verifies the captured
//! microprogram.
//!
//! One machine serves every lane count. Every value row uses the
//! interleaved lane layout of [`apim_logic::lanes`]: logical column `c`
//! of lane `j` sits at bitline `c · lanes + j`, so at one lane it is the
//! plain word layout and the machine runs the serial program. Each DAG
//! node is realized with the lane-generic netlists the hand-written
//! kernels are built from (`add_lanes`, `sub_lanes`, the Wallace
//! reduction, the multiplier's stage-1 `partial_products`, the §3.4
//! `relaxed_final_add`), placed per the [`Placement`]'s row map. `Mul`
//! and `Mac` share one arm: a multiply is the one-term MAC.
//! Column-parallel MAGIC NOR costs one cycle however wide its span, so `L`
//! lanes cost what one does.
//!
//! **Data steers control only at one lane.** The serial program reads the
//! multiplier through the sense amplifiers to place partial products,
//! reads the Shr sign bit and writes it back, and reads carries through a
//! MAJ sense amp in the relaxed §3.4 final add. At two or more lanes those
//! reads would be per-lane control, so [`crate::compile_batched`] admits
//! only programs that never need them (constant multipliers, exact final
//! products) and the Shr sign fill stays in-array.
//!
//! Every execution runs with operation recording armed and finishes by
//! replaying the trace through all five `apim-verify` hazard passes —
//! including cycle-accounting against the closed-form cost this module
//! accumulates node by node. A finding of error severity aborts the run
//! with [`CompileError::VerificationFailed`].

use std::collections::HashMap;
use std::ops::Range;

use apim_arch::isa::Trace;
use apim_crossbar::{
    AllocEvent, BlockId, BlockedCrossbar, CrossbarConfig, OpTrace, RowAllocator, RowRef,
};
use apim_device::{Device, Joules};
use apim_logic::adder_serial::SerialScratch;
use apim_logic::lanes::{add_lanes, preload_lanes, read_lanes, sub_lanes};
use apim_logic::multiplier::{partial_products, relaxed_final_add};
use apim_logic::wallace::reduce_rows_to_two_lanes;
use apim_logic::{CostModel, PrecisionMode};
use apim_verify::{check_equiv, verify_trace, EquivReport, LintReport, OutputBinding};

use crate::batch::validate_for_batch;
use crate::eval::evaluate_all;
use crate::expand::expand_math;
use crate::ir::{Dag, Node, NodeId};
use crate::lower::lower;
use crate::plan::{
    constant, mul_copy_overhead, place, product_terms, schedule, serial_copy_overhead,
    BlockSchedule, Placement, Slot, ROW_AUX, ROW_RES, ROW_X, ROW_Y,
};
use crate::CompileError;

/// Knobs for [`compile`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Target crossbar geometry and device. Every program compiled with
    /// these options, and every crossbar it runs on, charges this device's
    /// constants; compiling derives none.
    pub config: CrossbarConfig,
    /// Run the negated-constant strength reduction before placement.
    pub strength_reduce: bool,
}

impl CompileOptions {
    /// The default options ([`CrossbarConfig::new`]'s geometry, strength
    /// reduction on) for `device`.
    pub fn new(device: Device) -> Self {
        CompileOptions {
            config: CrossbarConfig::new(device),
            strength_reduce: true,
        }
    }
}

impl Default for CompileOptions {
    /// [`CompileOptions::new`] on the paper's device.
    fn default() -> Self {
        CompileOptions::new(Device::default())
    }
}

/// A DAG compiled against a concrete crossbar geometry.
#[derive(Debug, Clone)]
pub struct CompiledProgram(Core);

/// Outcome of one gate-level execution of a compiled program.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The value read back from the crossbar's result row.
    pub value: u64,
    /// The pure-integer reference value ([`crate::eval::evaluate`]) — equal
    /// to `value` for a correct compiler.
    pub reference: u64,
    /// Cycles actually charged by the simulated crossbar.
    pub cycles: u64,
    /// The closed-form cycle prediction fed to the cycle-accounting pass.
    pub expected_cycles: u64,
    /// Energy actually charged by the simulated crossbar.
    pub energy: Joules,
    /// Number of recorded microprogram primitives.
    pub trace_len: usize,
    /// The full hazard report (clean for a correct compiler).
    pub lint: LintReport,
}

/// Compiles `dag` for the geometry in `options`: math expansion,
/// optimization, lowering, placement and block-pair scheduling.
/// Gate-level execution is deferred to [`CompiledProgram::run`].
///
/// # Errors
///
/// [`CompileError::NoRoot`] without a designated output,
/// [`CompileError::AreaExceeded`] when the program does not fit.
pub fn compile(dag: &Dag, options: &CompileOptions) -> Result<CompiledProgram, CompileError> {
    Core::compile(dag, options, 1).map(CompiledProgram)
}

impl CompiledProgram {
    /// The (possibly strength-reduced) DAG this program executes.
    pub fn dag(&self) -> &Dag {
        &self.0.dag
    }

    /// The row placement.
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

    /// Executes the program on simulated cells with the given input
    /// bindings, then lints the recorded microprogram.
    ///
    /// # Errors
    ///
    /// Unbound inputs, crossbar faults, or —
    /// [`CompileError::VerificationFailed`] — an error-severity hazard
    /// finding (a compiler bug by definition).
    pub fn run(&self, inputs: &HashMap<String, u64>) -> Result<RunReport, CompileError> {
        let (exec, lint) = self.0.run(std::slice::from_ref(inputs))?;
        Ok(RunReport {
            value: exec.values[0],
            reference: exec.references[0],
            cycles: exec.cycles,
            expected_cycles: exec.expected_cycles,
            energy: exec.energy,
            trace_len: exec.ops.len(),
            lint,
        })
    }

    /// Symbolically re-executes the recorded microprogram for one input
    /// specialization and checks the root row against the pure-integer
    /// reference evaluator.
    ///
    /// Compiled programs read multiplier operands through the sense
    /// amplifiers to steer partial-product placement, so every input stays
    /// concrete and the proof covers the recorded specialization: the
    /// symbolic replay still discharges X-propagation, init obligations
    /// and write-back divergence that concrete execution can mask.
    ///
    /// # Errors
    ///
    /// Unbound inputs or crossbar faults; checker verdicts (including
    /// non-equivalence) land in the returned report.
    pub fn verify_equiv(&self, inputs: &HashMap<String, u64>) -> Result<EquivReport, CompileError> {
        self.0.verify_equiv(std::slice::from_ref(inputs), 0)
    }

    /// Records one gate-level execution and returns the raw microprogram,
    /// its output binding and the reference value — the ingredients for
    /// external equivalence checking and miscompile-fixture construction
    /// (mutate the trace, watch the checker catch it).
    ///
    /// # Errors
    ///
    /// Unbound inputs or crossbar faults.
    pub fn record(
        &self,
        inputs: &HashMap<String, u64>,
    ) -> Result<(OpTrace, OutputBinding, u64), CompileError> {
        let exec = self.0.execute(std::slice::from_ref(inputs))?;
        let output = self.0.output(&exec, 0);
        Ok((exec.ops, output, exec.references[0]))
    }
}

/// The compiled program behind both public views: [`CompiledProgram`] is
/// the one-lane core, [`crate::BatchCompiledProgram`] a core of any lane
/// count.
#[derive(Debug, Clone)]
pub(crate) struct Core {
    pub(crate) dag: Dag,
    pub(crate) placement: Placement,
    pub(crate) schedule: BlockSchedule,
    pub(crate) trace: Trace,
    pub(crate) model: CostModel,
    pub(crate) lanes: usize,
}

/// Raw outcome of one recorded gate-level execution, before any
/// verification pass has judged it. `values` and `references` hold one
/// entry per lane.
pub(crate) struct Execution {
    pub(crate) ops: OpTrace,
    events: Vec<AllocEvent>,
    pub(crate) expected_cycles: u64,
    pub(crate) values: Vec<u64>,
    pub(crate) references: Vec<u64>,
    pub(crate) cycles: u64,
    pub(crate) energy: Joules,
    root_block: usize,
    root_row: usize,
}

impl Core {
    /// The one compile pipeline: math expansion → strength reduction →
    /// batch legality (two or more lanes) → placement → scheduling →
    /// lowering. Two or more lanes widen the geometry to
    /// `(width + 2) · lanes` bitlines when the configured crossbar is
    /// narrower; one lane compiles against it as given.
    pub(crate) fn compile(
        dag: &Dag,
        options: &CompileOptions,
        lanes: usize,
    ) -> Result<Core, CompileError> {
        dag.root().ok_or(CompileError::NoRoot)?;
        let mut dag = expand_math(dag);
        if options.strength_reduce {
            dag.strength_reduce_negated_constants();
        }
        let mut config = options.config.clone();
        if lanes > 1 {
            validate_for_batch(&dag)?;
            config.cols = config.cols.max((dag.width() as usize + 2) * lanes);
        }
        let placement = place(&dag, &config)?;
        let model = CostModel::new(&config.device);
        let schedule = schedule(&dag, &placement, &model);
        let trace = lower(&dag);
        Ok(Core {
            dag,
            placement,
            schedule,
            trace,
            model,
            lanes,
        })
    }

    /// One recorded execution, linted through all five hazard passes; an
    /// error-severity finding fails it.
    pub(crate) fn run(
        &self,
        inputs: &[HashMap<String, u64>],
    ) -> Result<(Execution, LintReport), CompileError> {
        let exec = self.execute(inputs)?;
        let lint = verify_trace(&exec.ops, &exec.events, Some(exec.expected_cycles));
        if lint.error_count() > 0 {
            return Err(CompileError::VerificationFailed(lint.to_string()));
        }
        Ok((exec, lint))
    }

    /// Symbolically re-executes one recorded execution and checks lane
    /// `lane` of the root row against that lane's reference. The trace is
    /// recorded once; only the output binding moves.
    pub(crate) fn verify_equiv(
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
        let output = self.output(&exec, lane);
        let reference = exec.references[lane];
        Ok(check_equiv(&exec.ops, &[], &output, move |_| reference))
    }

    /// Where lane `lane` of the root value sits in `exec`'s crossbar.
    fn output(&self, exec: &Execution, lane: usize) -> OutputBinding {
        OutputBinding {
            block: exec.root_block,
            row: exec.root_row,
            col0: lane,
            width: self.dag.width() as usize,
            col_step: self.lanes,
        }
    }

    /// One recorded gate-level execution of all `lanes` input bindings:
    /// the shared body behind every run, proof and record.
    pub(crate) fn execute(
        &self,
        inputs: &[HashMap<String, u64>],
    ) -> Result<Execution, CompileError> {
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

        // Traced allocators, one per block; the planner pre-simulated this
        // exact call sequence, so each alloc's row is asserted against it.
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

        let mut machine = Machine {
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

        // Teardown: return every reserved row so the scratch-lifetime pass
        // sees a leak-free program.
        allocs[root_slot.block].free(root_slot.row)?;
        for (b, scratch) in scratches.into_iter().enumerate() {
            allocs[b].free_many(regions[b].iter().copied())?;
            scratch.release(&mut allocs[b])?;
            allocs[b].free_many([ROW_X, ROW_Y, ROW_AUX, ROW_RES])?;
        }

        // Merge the per-block event logs into one flat row space (block ·
        // rows + row) — each row belongs to exactly one allocator, so
        // per-row event ordering is preserved.
        let mut events = Vec::new();
        for (b, alloc) in allocs.iter_mut().enumerate() {
            let offset = b * cfg.rows;
            events.extend(alloc.take_events().into_iter().map(|ev| match ev {
                AllocEvent::Alloc { row } => AllocEvent::Alloc { row: row + offset },
                AllocEvent::Free { row } => AllocEvent::Free { row: row + offset },
            }));
        }

        let delta = *xbar.stats() - stats_before;
        Ok(Execution {
            ops: trace,
            events,
            expected_cycles,
            values: lane_values,
            references: per_lane.iter().map(|l| l[root.0]).collect(),
            cycles: delta.cycles.get(),
            energy: delta.energy,
            root_block: root_slot.block,
            root_row: root_slot.row,
        })
    }
}

/// Execution context: the crossbar, the fixed layout handles and the lane
/// count every column coordinate is scaled by.
struct Machine<'a> {
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

impl Machine<'_> {
    /// Physical bitline span of logical columns `c0..c1`.
    fn span(&self, c0: usize, c1: usize) -> Range<usize> {
        c0 * self.lanes..c1 * self.lanes
    }

    /// Two-NOT copy of logical columns `c0..c1` between value rows,
    /// shifted by `shift` logical columns and staged through block 1's AUX
    /// row (2 cycles — span width is free).
    fn copy(
        &mut self,
        src: Slot,
        dst: Slot,
        c0: usize,
        c1: usize,
        shift: isize,
    ) -> Result<(), CompileError> {
        self.xbar.copy_row_shifted(
            RowRef::new(self.blocks[src.block], src.row),
            RowRef::new(self.blocks[1], ROW_AUX),
            RowRef::new(self.blocks[dst.block], dst.row),
            self.span(c0, c1),
            shift * self.lanes as isize,
        )?;
        Ok(())
    }

    /// Returns a compute-block row holding the operand: its home row when
    /// already in block 0, else a 2-cycle staging copy into `staging_row`.
    fn stage(&mut self, slot: Slot, staging_row: usize) -> Result<usize, CompileError> {
        if slot.block == 0 {
            return Ok(slot.row);
        }
        let staged = Slot {
            block: 0,
            row: staging_row,
        };
        self.copy(slot, staged, 0, self.n, 0)?;
        Ok(staging_row)
    }

    /// Stores one value per lane into `slot` (free of cycles).
    fn preload(&mut self, slot: Slot, values: &[u64]) -> Result<(), CompileError> {
        let block = self.blocks[slot.block];
        preload_lanes(self.xbar, block, slot.row, 0, self.n, self.lanes, values)?;
        Ok(())
    }

    /// Zeroes logical columns `0..cols` of `slot` in every lane (free of
    /// cycles).
    fn zero(&mut self, slot: Slot, cols: usize) -> Result<(), CompileError> {
        let block = self.blocks[slot.block];
        self.xbar
            .preload_zeros(block, slot.row, 0, cols * self.lanes)?;
        Ok(())
    }

    /// `out = x + y` over the whole word through compute block `b`'s
    /// serial netlist (`12n + 1` cycles).
    fn add(&mut self, b: usize, x: usize, y: usize, out: usize) -> Result<(), CompileError> {
        let (block, n, lanes) = (self.blocks[b], self.n, self.lanes);
        add_lanes(self.xbar, block, x, y, out, 0..n, lanes, &self.scratch[b])?;
        Ok(())
    }

    /// `out = x − y` in block 0, complementing `y` through AUX
    /// (`12n + 2` cycles).
    fn sub(&mut self, x: usize, y: usize, out: usize) -> Result<(), CompileError> {
        let (block, n, lanes) = (self.blocks[0], self.n, self.lanes);
        let scratch = &self.scratch[0];
        sub_lanes(self.xbar, block, x, y, ROW_AUX, out, 0..n, lanes, scratch)?;
        Ok(())
    }

    /// Executes one node in every lane, returning its closed-form expected
    /// cycle count. `values[node][lane]` is the reference value of `node`
    /// in `lane`.
    fn exec(
        &mut self,
        dag: &Dag,
        placement: &Placement,
        model: &CostModel,
        values: &[Vec<u64>],
        id: NodeId,
    ) -> Result<u64, CompileError> {
        let n = self.n;
        let bits = dag.width();
        let dest = placement.slots[id.0];
        let node = &dag.nodes()[id.0];
        match node {
            Node::Input { .. } | Node::Const { .. } => {
                self.preload(dest, &values[id.0])?;
                Ok(0)
            }
            Node::Add { a, b } | Node::Sub { a, b } => {
                let x = self.stage(placement.slots[a.0], ROW_X)?;
                let y = self.stage(placement.slots[b.0], ROW_Y)?;
                // The netlist writes block 0; a result homed elsewhere
                // lands in RES and is copied out.
                let out = if dest.block == 0 { dest.row } else { ROW_RES };
                let cost = if let Node::Sub { .. } = node {
                    self.sub(x, y, out)?;
                    model.serial_sub(bits)
                } else {
                    self.add(0, x, y, out)?;
                    model.serial_add(bits)
                };
                if dest.block != 0 {
                    let res = Slot {
                        block: 0,
                        row: ROW_RES,
                    };
                    self.copy(res, dest, 0, n, 0)?;
                }
                Ok(cost.cycles.get() + serial_copy_overhead(placement, *a, *b, id))
            }
            Node::Shl { x, amount } => {
                let k = *amount as usize;
                self.zero(dest, n)?;
                self.copy(placement.slots[x.0], dest, 0, n - k, k as isize)?;
                Ok(2)
            }
            Node::Shr { x, amount } => self.shr(placement.slots[x.0], dest, *amount as usize),
            Node::Mul { .. } | Node::Mac { .. } => {
                let (terms, mode) = product_terms(dag, node).expect("a product node");
                let not = RowRef::new(self.blocks[1], self.not_row);
                let mut count = 0usize;
                let mut multipliers = Vec::with_capacity(terms.len());
                for (mcand, mult) in terms {
                    let (a, b) = (placement.slots[mcand.0], placement.slots[mult.0]);
                    let (mbits, pps) = partial_products(
                        self.xbar,
                        RowRef::new(self.blocks[a.block], a.row),
                        RowRef::new(self.blocks[b.block], b.row),
                        constant(dag, mult),
                        not,
                        RowRef::new(self.blocks[0], self.t0 + count),
                        n,
                        n,
                        self.lanes,
                        mode,
                    )?;
                    debug_assert_eq!(mbits, values[mult.0][0]);
                    multipliers.push(mbits);
                    count += pps;
                }
                self.finish_product(count, mode, dest)?;
                Ok(model.mac_group_value(bits, &multipliers, mode).cycles.get()
                    + mul_copy_overhead(
                        bits,
                        count,
                        mode.relaxed_product_bits(),
                        placement.in_compute(id),
                    ))
            }
            // compile() expands Math nodes before placement and place()
            // rejects any that remain, so execution can never see one.
            Node::Math { .. } => Err(CompileError::InvalidDag(
                "unexpanded math node reached the gate-level backend".into(),
            )),
        }
    }

    /// Arithmetic right shift by `k`, returning its cycle count. One lane
    /// reads the sign bit through the sense amplifier and writes it back
    /// per fill column (`2 + k` cycles). More lanes keep the fill in-array:
    /// NOT the sign span into AUX once, then one cross-block NOR per fill
    /// column re-complements it into place (`3 + k` cycles).
    fn shr(&mut self, src: Slot, dest: Slot, k: usize) -> Result<u64, CompileError> {
        let n = self.n;
        let lanes = self.lanes;
        let sign = if lanes == 1 {
            Some(self.xbar.read_bit(self.blocks[src.block], src.row, n - 1)?)
        } else {
            None
        };
        self.zero(dest, n)?;
        self.copy(src, dest, k, n, -(k as isize))?;
        let dest_block = self.blocks[dest.block];
        if let Some(sign) = sign {
            for col in n - k..n {
                self.xbar.write_back_bit(dest_block, dest.row, col, sign)?;
            }
            return Ok(2 + k as u64);
        }
        if k == 0 {
            return Ok(2);
        }
        let sign = self.span(n - 1, n);
        let aux = RowRef::new(self.blocks[1], ROW_AUX);
        self.xbar.init_rows(aux.block, &[ROW_AUX], sign.clone())?;
        self.xbar.nor_rows_shifted(
            &[RowRef::new(self.blocks[src.block], src.row)],
            aux,
            sign.clone(),
            0,
        )?;
        for c in n - k..n {
            let shift = (c as isize - (n as isize - 1)) * lanes as isize;
            self.xbar
                .init_rows(dest_block, &[dest.row], self.span(c, c + 1))?;
            self.xbar.nor_rows_shifted(
                &[aux],
                RowRef::new(dest_block, dest.row),
                sign.clone(),
                shift,
            )?;
        }
        Ok(3 + k as u64)
    }

    /// Turns a pile of `count` partial products (region rows `t0..`) into
    /// the destination word: Wallace reduction to two survivors, then the
    /// (optionally relaxed) final addition of the §3.4 scheme.
    fn finish_product(
        &mut self,
        count: usize,
        mode: PrecisionMode,
        dest: Slot,
    ) -> Result<(), CompileError> {
        let n = self.n;
        match count {
            0 => self.zero(dest, n),
            1 => self.copy(
                Slot {
                    block: 0,
                    row: self.t0,
                },
                dest,
                0,
                n,
                0,
            ),
            _ => {
                let (survivor_block, survivors) = reduce_rows_to_two_lanes(
                    self.xbar,
                    self.blocks[0],
                    self.blocks[1],
                    count,
                    0..n,
                    self.lanes,
                    self.t0,
                )?;
                debug_assert_eq!(survivors, 2);
                let m = (mode.relaxed_product_bits() as usize).min(n);
                self.final_add(survivor_block, m, dest)
            }
        }
    }

    /// The §3.4 final product generation over the two survivors at rows
    /// `t0`/`t0 + 1` of `s`: `m` approximate LSBs via MAJ carries, the rest
    /// via the serial netlist seeded with the boundary carry. The MAJ
    /// carry reads steer write-backs, so `m > 0` is one-lane only.
    fn final_add(&mut self, s: BlockId, m: usize, dest: Slot) -> Result<(), CompileError> {
        let n = self.n;
        let si = usize::from(s != self.blocks[0]);
        let oi = 1 - si;
        let (t0, t1) = (self.t0, self.t0 + 1);
        let res = |block| Slot {
            block,
            row: ROW_RES,
        };
        if m == 0 {
            if si == 0 && dest.block == 0 {
                self.add(0, t0, t1, dest.row)?;
            } else {
                self.add(si, t0, t1, ROW_RES)?;
                self.copy(res(si), dest, 0, n, 0)?;
            }
            return Ok(());
        }
        debug_assert_eq!(self.lanes, 1, "relaxed final add at more than one lane");
        // MAJ carries in AUX; the approximate LSBs land in the partner
        // block's RES row, the exact high bits in this block's.
        let low = RowRef::new(self.blocks[oi], ROW_RES);
        let scratch = &self.scratch[si];
        relaxed_final_add(self.xbar, s, t0, t1, ROW_AUX, ROW_RES, low, n, m, scratch)?;
        if m == n {
            return self.copy(res(oi), dest, 0, n, 0);
        }
        self.copy(res(oi), dest, 0, m, 0)?;
        self.copy(res(si), dest, m, n, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;

    fn run_dag(dag: &Dag, bindings: &[(&str, u64)]) -> RunReport {
        let program = compile(dag, &CompileOptions::default()).unwrap();
        let inputs: HashMap<String, u64> =
            bindings.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        let report = program.run(&inputs).unwrap();
        assert!(report.lint.is_clean(), "lint: {}", report.lint);
        assert_eq!(
            report.cycles, report.expected_cycles,
            "measured vs predicted cycles"
        );
        assert_eq!(
            report.value,
            evaluate(program.dag(), &inputs).unwrap(),
            "gate level vs reference evaluator"
        );
        report
    }

    #[test]
    fn add_sub_chain_matches_reference() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let s = dag.add(x, y).unwrap();
        let d = dag.sub(s, x).unwrap();
        dag.set_root(d).unwrap();
        let report = run_dag(&dag, &[("x", 0xABCD), ("y", 0x1234)]);
        assert_eq!(report.value, 0x1234);
        // One add + one sub, all operands resident in the compute block.
        assert_eq!(report.cycles, (12 * 16 + 1) + (12 * 16 + 2));
    }

    #[test]
    fn constant_multiplier_product() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let c = dag.constant(0b101);
        let m = dag.mul(x, c, PrecisionMode::Exact).unwrap();
        dag.set_root(m).unwrap();
        let report = run_dag(&dag, &[("x", 1234)]);
        assert_eq!(report.value, (1234 * 0b101) & 0xFFFF);
    }

    #[test]
    fn unknown_multiplier_product_all_modes() {
        for mode in [
            PrecisionMode::Exact,
            PrecisionMode::FirstStage { masked_bits: 4 },
            PrecisionMode::LastStage { relax_bits: 6 },
            PrecisionMode::LastStage { relax_bits: 16 },
        ] {
            let mut dag = Dag::new(16).unwrap();
            let x = dag.input("x").unwrap();
            let y = dag.input("y").unwrap();
            let m = dag.mul(x, y, mode).unwrap();
            dag.set_root(m).unwrap();
            run_dag(&dag, &[("x", 51234), ("y", 47111)]);
        }
    }

    #[test]
    fn shifts_match_reference() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let l = dag.shl(x, 3).unwrap();
        let r = dag.shr(l, 5).unwrap();
        dag.set_root(r).unwrap();
        // 0xF00F << 3 = 0x8078 (negative) >> 5 arithmetic.
        let report = run_dag(&dag, &[("x", 0xF00F)]);
        assert_eq!(report.cycles, 2 + (2 + 5));
        assert_eq!(report.value, 0xFC03);
    }

    #[test]
    fn mac_node_matches_reference() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let c = dag.constant(3);
        let d = dag.constant(21);
        let m = dag.mac(vec![(x, c), (y, d)], PrecisionMode::Exact).unwrap();
        dag.set_root(m).unwrap();
        let report = run_dag(&dag, &[("x", 1000), ("y", 2000)]);
        assert_eq!(report.value, (1000 * 3 + 2000 * 21) & 0xFFFF);
    }

    #[test]
    fn spilled_values_round_trip() {
        // 24-row blocks: staging alone eats 16, so values spill quickly.
        let mut dag = Dag::new(8).unwrap();
        let inputs: Vec<NodeId> = (0..12)
            .map(|i| dag.input(&format!("x{i}")).unwrap())
            .collect();
        let mut acc = inputs[0];
        for &x in &inputs[1..] {
            acc = dag.add(acc, x).unwrap();
        }
        dag.set_root(acc).unwrap();
        let options = CompileOptions {
            config: CrossbarConfig {
                rows: 24,
                ..CrossbarConfig::default()
            },
            ..CompileOptions::default()
        };
        let program = compile(&dag, &options).unwrap();
        assert!(program.placement().spilled > 0);
        let bindings: HashMap<String, u64> =
            (0..12).map(|i| (format!("x{i}"), i as u64 + 1)).collect();
        let report = program.run(&bindings).unwrap();
        assert!(report.lint.is_clean(), "lint: {}", report.lint);
        assert_eq!(report.cycles, report.expected_cycles);
        assert_eq!(report.value, (1..=12).sum::<u64>() & 0xFF);
    }

    #[test]
    fn strength_reduction_pays_off_at_the_gate_level() {
        let build = || {
            let mut dag = Dag::new(16).unwrap();
            let x = dag.input("x").unwrap();
            let c = dag.constant(0xFFF0); // -16
            let m = dag.mul(x, c, PrecisionMode::Exact).unwrap();
            let y = dag.input("y").unwrap();
            let r = dag.add(y, m).unwrap();
            dag.set_root(r).unwrap();
            dag
        };
        let reduced = compile(&build(), &CompileOptions::default()).unwrap();
        let naive = compile(
            &build(),
            &CompileOptions {
                strength_reduce: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let inputs: HashMap<String, u64> =
            [("x".to_string(), 777u64), ("y".to_string(), 123u64)].into();
        let fast = reduced.run(&inputs).unwrap();
        let slow = naive.run(&inputs).unwrap();
        assert_eq!(fast.value, slow.value, "rewrite preserves semantics");
        assert!(
            fast.cycles < slow.cycles,
            "reduced {} vs naive {}",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn symbolic_replay_proves_the_recorded_specialization() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let m = dag.mul(x, y, PrecisionMode::Exact).unwrap();
        let s = dag.add(m, x).unwrap();
        dag.set_root(s).unwrap();
        let program = compile(&dag, &CompileOptions::default()).unwrap();
        let inputs: HashMap<String, u64> =
            [("x".to_string(), 51234u64), ("y".to_string(), 47111u64)].into();
        let report = program.verify_equiv(&inputs).unwrap();
        assert!(report.equivalent, "{}", report.lint);
        assert_eq!(report.input_bits, 0, "compiled inputs stay concrete");
    }

    #[test]
    fn compiled_math_kernels_run_clean_at_the_gate_level() {
        use apim_math::{default_spec, to_pattern, MathFn};
        // sqrt(1521) = 39 as a pure in-crossbar microprogram.
        let mut dag = Dag::new(12).unwrap();
        let x = dag.input("x").unwrap();
        let m = dag.math(x, default_spec(MathFn::Sqrt, 12)).unwrap();
        dag.set_root(m).unwrap();
        let report = run_dag(&dag, &[("x", 1521)]);
        assert_eq!(report.value, 39);

        // sin(π/6) ≈ 0.5 in Q9 at width 12.
        let spec = default_spec(MathFn::Sin, 12);
        let angle = apim_math::consts::half_pi_q(spec.frac) / 3;
        let mut dag = Dag::new(12).unwrap();
        let x = dag.input("x").unwrap();
        let m = dag.math(x, spec).unwrap();
        dag.set_root(m).unwrap();
        let report = run_dag(&dag, &[("x", to_pattern(angle, 12))]);
        let got = apim_math::from_pattern(report.value, 12);
        assert!((got - 256).abs() <= 4, "sin(π/6) in Q9: {got}");
    }

    #[test]
    fn symbolic_prover_covers_math_expansions_at_width_12() {
        use apim_math::{default_spec, to_pattern, MathFn};
        for (func, input) in [
            (
                MathFn::Sin,
                to_pattern(apim_math::consts::half_pi_q(9) / 5, 12),
            ),
            (
                MathFn::Cos,
                to_pattern(-apim_math::consts::half_pi_q(9) / 7, 12),
            ),
            (MathFn::Sqrt, 1000),
        ] {
            let mut dag = Dag::new(12).unwrap();
            let x = dag.input("x").unwrap();
            let m = dag.math(x, default_spec(func, 12)).unwrap();
            dag.set_root(m).unwrap();
            let program = compile(&dag, &CompileOptions::default()).unwrap();
            let inputs: HashMap<String, u64> = [("x".to_string(), input)].into();
            let report = program.verify_equiv(&inputs).unwrap();
            assert!(report.equivalent, "{func}: {}", report.lint);
        }
    }

    #[test]
    fn compile_requires_root() {
        let mut dag = Dag::new(8).unwrap();
        dag.input("x").unwrap();
        assert!(matches!(
            compile(&dag, &CompileOptions::default()),
            Err(CompileError::NoRoot)
        ));
    }
}
