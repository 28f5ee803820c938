//! The blocked crossbar memory unit with configurable interconnects.

use apim_device::{Cycles, Device, EnergyModel, TimingModel};

use crate::array::CrossbarArray;
use crate::cell::Fault;
use crate::error::CrossbarError;
use crate::packed::{self, PackedArray, WORD_BITS};
use crate::semantics;
use crate::stats::Stats;
use crate::trace::{OpTrace, TraceOp};
use crate::Result;

use std::ops::Range;

/// Opaque handle to one block of the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(usize);

impl BlockId {
    /// The raw block index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The role a block currently plays (§3.1: "the two blocks are structurally
/// the same and can be used interchangeably").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockRole {
    /// Holds resident data.
    Data,
    /// Scratch space for MAGIC execution.
    Processing,
}

/// A reference to one wordline of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowRef {
    /// The block containing the row.
    pub block: BlockId,
    /// The wordline index within the block.
    pub row: usize,
}

impl RowRef {
    /// Creates a row reference.
    pub fn new(block: BlockId, row: usize) -> Self {
        RowRef { block, row }
    }
}

/// Which storage fabric backs the simulated cells.
///
/// Both backends are bit-identical in results, statistics, wear counters
/// and error payloads; the packed backend is the production path, the
/// scalar backend is the reference oracle the differential suites compare
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Bit-packed rows, 64 cells per `u64` word: column-parallel MAGIC NOR
    /// executes as word ops (`!(a | b | …)` with edge masks), the
    /// interconnect shift as a cross-word funnel shift.
    #[default]
    Packed,
    /// One [`crate::Cell`] per coordinate with per-cell loops — the scalar
    /// reference implementation kept as the differential-testing oracle.
    Scalar,
}

/// One block's storage, dispatched on the configured [`Backend`].
#[derive(Debug, Clone)]
enum Store {
    Packed(PackedArray),
    Scalar(CrossbarArray),
}

impl Store {
    fn new(backend: Backend, rows: usize, cols: usize) -> Result<Self> {
        Ok(match backend {
            Backend::Packed => Store::Packed(PackedArray::new(rows, cols)?),
            Backend::Scalar => Store::Scalar(CrossbarArray::new(rows, cols)?),
        })
    }

    fn get(&self, row: usize, col: usize) -> Result<bool> {
        match self {
            Store::Packed(a) => a.get(row, col),
            Store::Scalar(a) => a.get(row, col),
        }
    }

    fn set(&mut self, row: usize, col: usize, bit: bool) -> Result<()> {
        match self {
            Store::Packed(a) => a.set(row, col, bit),
            Store::Scalar(a) => a.set(row, col, bit),
        }
    }

    fn cell_writes(&self, row: usize, col: usize) -> Result<u64> {
        match self {
            Store::Packed(a) => a.cell_writes(row, col),
            Store::Scalar(a) => a.cell_writes(row, col),
        }
    }

    fn max_cell_writes(&self) -> u64 {
        match self {
            Store::Packed(a) => a.max_cell_writes(),
            Store::Scalar(a) => a.max_cell_writes(),
        }
    }

    fn total_cell_writes(&self) -> u64 {
        match self {
            Store::Packed(a) => a.total_cell_writes(),
            Store::Scalar(a) => a.total_cell_writes(),
        }
    }

    fn cell_count(&self) -> usize {
        match self {
            Store::Packed(a) => a.cell_count(),
            Store::Scalar(a) => a.cell_count(),
        }
    }

    fn inject_fault(&mut self, row: usize, col: usize, fault: Option<Fault>) -> Result<()> {
        match self {
            Store::Packed(a) => a.inject_fault(row, col, fault),
            Store::Scalar(a) => a.inject_fault(row, col, fault),
        }
    }

    fn fault_count(&self) -> usize {
        match self {
            Store::Packed(a) => a.fault_count(),
            Store::Scalar(a) => a.fault_count(),
        }
    }

    fn hotspots(&self, k: usize) -> Vec<(usize, usize, u64)> {
        match self {
            Store::Packed(a) => a.hotspots(k),
            Store::Scalar(a) => a.hotspots(k),
        }
    }

    /// Lowest column in `span` of `row` reading OFF, if any (pre-validated
    /// coordinates). The strict-init scan.
    fn first_off(&self, row: usize, span: &Range<usize>) -> Option<usize> {
        match self {
            Store::Packed(a) => a.first_off(row, span),
            Store::Scalar(a) => span
                .clone()
                .find(|&c| !semantics::strict_init_ok(a.get(row, c).expect("span validated"))),
        }
    }

    /// Sets every cell of a pre-validated span of `row` to ON.
    fn fill_on_span(&mut self, row: usize, span: &Range<usize>) {
        match self {
            Store::Packed(a) => a.fill_on_span(row, span),
            Store::Scalar(a) => {
                for col in span.clone() {
                    a.set(row, col, true).expect("span validated");
                }
            }
        }
    }

    /// Stores `bits` LSB-first from `col0` of a pre-validated row.
    fn store_bools(&mut self, row: usize, col0: usize, bits: &[bool]) {
        match self {
            Store::Packed(a) => {
                for (i, chunk) in bits.chunks(WORD_BITS).enumerate() {
                    let mut word = 0u64;
                    for (b, &bit) in chunk.iter().enumerate() {
                        word |= u64::from(bit) << b;
                    }
                    a.store_word_bits(row, col0 + i * WORD_BITS, chunk.len(), word)
                        .expect("span validated");
                }
            }
            Store::Scalar(a) => {
                for (i, &bit) in bits.iter().enumerate() {
                    a.set(row, col0 + i, bit).expect("span validated");
                }
            }
        }
    }

    /// Stores the low `width ≤ 64` bits of `value` from `col0` of a
    /// pre-validated row.
    fn store_word_bits(&mut self, row: usize, col0: usize, width: usize, value: u64) {
        match self {
            Store::Packed(a) => a
                .store_word_bits(row, col0, width, value)
                .expect("span validated"),
            Store::Scalar(a) => {
                for i in 0..width {
                    a.set(row, col0 + i, (value >> i) & 1 == 1)
                        .expect("span validated");
                }
            }
        }
    }

    /// Stores `len` OFF cells from `col0` of a pre-validated row.
    fn store_zeros(&mut self, row: usize, col0: usize, len: usize) {
        match self {
            Store::Packed(a) => {
                for (w, mask) in packed::word_span(&(col0..col0 + len)) {
                    a.store_masked(row, w, 0, mask);
                }
            }
            Store::Scalar(a) => {
                for i in 0..len {
                    a.set(row, col0 + i, false).expect("span validated");
                }
            }
        }
    }

    /// Reads `width ≤ 64` bits LSB-first from `col0` of a pre-validated row.
    fn read_word_bits(&self, row: usize, col0: usize, width: usize) -> u64 {
        match self {
            Store::Packed(a) => a.read_word_bits(row, col0, width).expect("span validated"),
            Store::Scalar(a) => {
                let mut out = 0u64;
                for i in 0..width {
                    out |= u64::from(a.get(row, col0 + i).expect("span validated")) << i;
                }
                out
            }
        }
    }

    /// Same-block column-parallel NOR (`shift == 0`, pre-validated).
    fn nor_same(&mut self, in_rows: &[usize], out_row: usize, span: &Range<usize>) {
        match self {
            Store::Packed(a) => packed::nor_span_same(a, in_rows, out_row, span),
            Store::Scalar(a) => {
                for col in span.clone() {
                    let value = semantics::nor_bits(
                        in_rows
                            .iter()
                            .map(|&r| a.get(r, col).expect("span validated")),
                    );
                    a.set(out_row, col, value).expect("span validated");
                }
            }
        }
    }
}

/// Cross-block column-parallel NOR through the interconnect
/// (pre-validated coordinates; `inp` and `out` are different blocks).
fn nor_cross(
    inp: &Store,
    in_rows: &[usize],
    out: &mut Store,
    out_row: usize,
    in_span: &Range<usize>,
    shift: isize,
) {
    match (inp, out) {
        (Store::Packed(i), Store::Packed(o)) => {
            packed::nor_span_cross(i, in_rows, o, out_row, in_span, shift);
        }
        (Store::Scalar(i), Store::Scalar(o)) => {
            for col in in_span.clone() {
                let out_col = (col as isize + shift) as usize;
                let value = semantics::nor_bits(
                    in_rows
                        .iter()
                        .map(|&r| i.get(r, col).expect("span validated")),
                );
                o.set(out_row, out_col, value).expect("span validated");
            }
        }
        _ => unreachable!("all blocks of one crossbar share a backend"),
    }
}

/// Splits `blocks` into (immutable input, mutable output) at two distinct
/// indices.
///
/// The only caller is `nor_rows_shifted`'s cross-block branch, entered
/// exclusively when `in_block != out.block`, so the distinct-index debug
/// assertion is unreachable from the public API (audit: it documents the
/// split-borrow contract, it does not guard reachable input).
fn pair_mut(blocks: &mut [Store], input: usize, output: usize) -> (&Store, &mut Store) {
    debug_assert_ne!(input, output);
    if input < output {
        let (left, right) = blocks.split_at_mut(output);
        (&left[input], &mut right[0])
    } else {
        let (left, right) = blocks.split_at_mut(input);
        (&right[0], &mut left[output])
    }
}

/// Configuration of a [`BlockedCrossbar`].
///
/// ```
/// use apim_crossbar::{BlockedCrossbar, CrossbarConfig};
/// # fn main() -> Result<(), apim_crossbar::CrossbarError> {
/// let config = CrossbarConfig {
///     blocks: 2,
///     rows: 32,
///     cols: 128,
///     ..CrossbarConfig::default()
/// };
/// let xbar = BlockedCrossbar::new(config)?;
/// assert_eq!(xbar.block_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarConfig {
    /// Number of blocks (≥ 2 for data + processing).
    pub blocks: usize,
    /// Wordlines per block.
    pub rows: usize,
    /// Bitlines per block.
    pub cols: usize,
    /// The device whose energy and timing constants every crossbar built
    /// from this configuration charges. Cloning the configuration copies
    /// the constants; nothing is derived again.
    pub device: Device,
    /// When `true`, MAGIC NORs verify that output cells were initialized to
    /// the ON state first and fail otherwise — catches scheduling bugs in
    /// higher-level routines.
    pub strict_init: bool,
    /// Storage fabric: bit-packed production path (default) or the scalar
    /// reference oracle.
    pub backend: Backend,
}

impl CrossbarConfig {
    /// The default geometry — four 64 × 256 blocks, strict initialization,
    /// packed storage — on `device`.
    pub fn new(device: Device) -> Self {
        CrossbarConfig {
            blocks: 4,
            rows: 64,
            cols: 256,
            device,
            strict_init: true,
            backend: Backend::Packed,
        }
    }
}

impl Default for CrossbarConfig {
    /// [`CrossbarConfig::new`] on the paper's device.
    fn default() -> Self {
        CrossbarConfig::new(Device::default())
    }
}

/// The APIM memory unit: several crossbar blocks sharing row/column
/// decoders, joined by configurable (barrel-shifter) interconnects, with
/// modified sense amplifiers supporting bitwise reads and the majority
/// function.
///
/// All compute primitives update the embedded [`Stats`]; see the
/// [crate documentation](crate) for the cycle-accounting conventions.
///
/// Every fallible primitive validates its *entire* request — bounds,
/// shift legality and (in strict mode) output initialization — before
/// mutating any cell, so a rejected operation leaves the crossbar exactly
/// as it was.
#[derive(Debug, Clone)]
pub struct BlockedCrossbar {
    blocks: Vec<Store>,
    roles: Vec<BlockRole>,
    stats: Stats,
    energy: EnergyModel,
    timing: TimingModel,
    strict_init: bool,
    backend: Backend,
    rows: usize,
    cols: usize,
    recorder: Option<Vec<TraceOp>>,
}

impl BlockedCrossbar {
    /// Builds the memory unit.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] if there are fewer than two
    /// blocks (the blocked design needs at least a data and a processing
    /// block) or if a dimension is zero. The device was validated when it
    /// was built; its constants are copied, not derived again.
    pub fn new(config: CrossbarConfig) -> Result<Self> {
        if config.blocks < 2 {
            return Err(CrossbarError::InvalidConfig(
                "need at least 2 blocks (data + processing)".into(),
            ));
        }
        let mut blocks = Vec::with_capacity(config.blocks);
        let mut roles = Vec::with_capacity(config.blocks);
        for i in 0..config.blocks {
            blocks.push(Store::new(config.backend, config.rows, config.cols)?);
            roles.push(if i == 0 {
                BlockRole::Data
            } else {
                BlockRole::Processing
            });
        }
        Ok(BlockedCrossbar {
            blocks,
            roles,
            stats: Stats::new(),
            energy: config.device.energy().clone(),
            timing: config.device.timing().clone(),
            strict_init: config.strict_init,
            backend: config.backend,
            rows: config.rows,
            cols: config.cols,
            recorder: None,
        })
    }

    // ---------------------------------------------------------------
    // Operation recording (consumed by the `apim-verify` static passes)
    // ---------------------------------------------------------------

    /// Starts recording every primitive into an operation trace,
    /// discarding any previous recording.
    ///
    /// Primitives are recorded as *requests*, before validation — an
    /// operation the runtime rejects still lands in the trace, so static
    /// passes can diagnose the hazard that caused the rejection.
    pub fn start_recording(&mut self) {
        self.recorder = Some(Vec::new());
    }

    /// Whether a recording is in progress.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Stops recording and returns the captured microprogram. Returns an
    /// empty trace if recording was never started.
    pub fn stop_recording(&mut self) -> OpTrace {
        OpTrace {
            blocks: self.blocks.len(),
            rows: self.rows,
            cols: self.cols,
            ops: self.recorder.take().unwrap_or_default(),
        }
    }

    /// Appends to the trace when recording; `op` is only built if armed.
    fn record(&mut self, op: impl FnOnce() -> TraceOp) {
        if let Some(trace) = &mut self.recorder {
            trace.push(op());
        }
    }

    /// Handle to block `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::NoSuchBlock`] if `index` is out of range.
    pub fn block(&self, index: usize) -> Result<BlockId> {
        if index >= self.blocks.len() {
            return Err(CrossbarError::NoSuchBlock {
                index,
                blocks: self.blocks.len(),
            });
        }
        Ok(BlockId(index))
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Wordlines per block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bitlines per block.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The storage fabric in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The current role of a block.
    pub fn role(&self, block: BlockId) -> BlockRole {
        self.roles[block.0]
    }

    /// Re-assigns a block's role (blocks are interchangeable, §3.1).
    pub fn set_role(&mut self, block: BlockId, role: BlockRole) {
        self.roles[block.0] = role;
    }

    /// Cumulative execution statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Resets statistics to zero (cell contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = Stats::new();
    }

    /// The timing model in force.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// The energy model in force.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Advances the cycle counter without touching cells — used by
    /// higher-level routines to account latency the primitive set cannot
    /// express (e.g. the non-hideable output initialization of a carry-save
    /// stage).
    pub fn advance_cycles(&mut self, cycles: Cycles) {
        self.record(|| TraceOp::AdvanceCycles {
            cycles: cycles.get(),
        });
        self.stats.cycles += cycles;
    }

    /// Discounts cycles that were charged sequentially but execute in
    /// parallel on the real hardware.
    ///
    /// The simulator executes independent same-stage operations (e.g. the
    /// carry-save groups of one Wallace-tree stage, §3.2) one after the
    /// other, but the paper's hardware runs them concurrently. Callers that
    /// model such parallelism replay the operations sequentially — keeping
    /// every write, read and joule accounted — and then rewind the
    /// serialization overhead. Saturates at zero.
    pub fn rewind_cycles(&mut self, cycles: Cycles) {
        self.record(|| TraceOp::RewindCycles {
            cycles: cycles.get(),
        });
        self.stats.cycles = self.stats.cycles.saturating_sub(cycles);
    }

    fn check_range(&self, cols: &Range<usize>) -> Result<()> {
        if cols.end > self.cols || cols.start >= cols.end {
            return Err(CrossbarError::OutOfBounds {
                what: "col range",
                index: cols.end,
                limit: self.cols,
            });
        }
        Ok(())
    }

    fn check_row(&self, row: usize) -> Result<()> {
        if row >= self.rows {
            return Err(CrossbarError::OutOfBounds {
                what: "row",
                index: row,
                limit: self.rows,
            });
        }
        Ok(())
    }

    fn check_col(&self, col: usize) -> Result<()> {
        if col >= self.cols {
            return Err(CrossbarError::OutOfBounds {
                what: "col",
                index: col,
                limit: self.cols,
            });
        }
        Ok(())
    }

    /// Resolves `cols` shifted by `shift` against the column count,
    /// reporting the first offending output column exactly like the
    /// historical per-column walk did.
    fn shifted_span(&self, cols: &Range<usize>, shift: isize) -> Result<Range<usize>> {
        let start = cols.start as isize + shift;
        let end = cols.end as isize + shift;
        if start < 0 {
            return Err(CrossbarError::OutOfBounds {
                what: "shifted col",
                index: 0,
                limit: self.cols,
            });
        }
        if end as usize > self.cols {
            let first_bad = (self.cols as isize - shift).max(cols.start as isize);
            return Err(CrossbarError::OutOfBounds {
                what: "shifted col",
                index: (first_bad + shift) as usize,
                limit: self.cols,
            });
        }
        Ok(start as usize..end as usize)
    }

    fn charge_writes(&mut self, cells: usize) {
        self.stats.cell_writes += cells as u64;
        let energy = self.energy.write_op(cells);
        self.stats.energy += energy;
        self.stats.energy_breakdown.write += energy;
    }

    // ---------------------------------------------------------------
    // Data movement (no compute cycles)
    // ---------------------------------------------------------------

    /// Stores one bit as resident data: counts the write and its energy but
    /// no compute cycles (datasets are assumed memory-resident, §4.2).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn preload_bit(&mut self, block: BlockId, row: usize, col: usize, bit: bool) -> Result<()> {
        self.record(|| TraceOp::PreloadBit {
            block: block.0,
            row,
            col,
            value: bit,
        });
        self.blocks[block.0].set(row, col, bit)?;
        self.charge_writes(1);
        Ok(())
    }

    /// Stores a word (LSB first) along a row starting at `col0`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] if the word does not fit; the
    /// crossbar is left unchanged.
    pub fn preload_word(
        &mut self,
        block: BlockId,
        row: usize,
        col0: usize,
        bits: &[bool],
    ) -> Result<()> {
        self.record(|| TraceOp::PreloadWord {
            block: block.0,
            row,
            col0,
            bits: bits.to_vec(),
        });
        self.check_word_store(row, col0, bits.len())?;
        self.blocks[block.0].store_bools(row, col0, bits);
        self.charge_writes(bits.len());
        Ok(())
    }

    /// Stores the low `width ≤ 64` bits of `value` (LSB first) along a row
    /// starting at `col0` — the packed fast path of
    /// [`BlockedCrossbar::preload_word`], with identical accounting and
    /// trace recording.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] for `width > 64` and
    /// [`CrossbarError::OutOfBounds`] if the word does not fit.
    pub fn preload_u64(
        &mut self,
        block: BlockId,
        row: usize,
        col0: usize,
        width: usize,
        value: u64,
    ) -> Result<()> {
        self.record(|| TraceOp::PreloadWord {
            block: block.0,
            row,
            col0,
            // Oversized widths are recorded (then rejected below); guard the
            // shift so the request still lands in the trace.
            bits: (0..width)
                .map(|i| i < WORD_BITS && (value >> i) & 1 == 1)
                .collect(),
        });
        if width > WORD_BITS {
            return Err(CrossbarError::InvalidConfig(format!(
                "preload_u64 width {width} exceeds {WORD_BITS} bits"
            )));
        }
        self.check_word_store(row, col0, width)?;
        self.blocks[block.0].store_word_bits(row, col0, width, value);
        self.charge_writes(width);
        Ok(())
    }

    /// Stores `len` OFF cells along a row starting at `col0` (any length) —
    /// the fast path for zeroing accumulator rows, accounted like a
    /// same-length [`BlockedCrossbar::preload_word`].
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] if the span does not fit.
    pub fn preload_zeros(
        &mut self,
        block: BlockId,
        row: usize,
        col0: usize,
        len: usize,
    ) -> Result<()> {
        self.record(|| TraceOp::PreloadWord {
            block: block.0,
            row,
            col0,
            bits: vec![false; len],
        });
        self.check_word_store(row, col0, len)?;
        self.blocks[block.0].store_zeros(row, col0, len);
        self.charge_writes(len);
        Ok(())
    }

    /// Validates a `len`-cell store at `(row, col0..)`, reporting the same
    /// error payloads the historical per-cell walk produced.
    fn check_word_store(&self, row: usize, col0: usize, len: usize) -> Result<()> {
        self.check_row(row)?;
        if col0 + len > self.cols {
            return Err(CrossbarError::OutOfBounds {
                what: "col",
                index: col0.max(self.cols),
                limit: self.cols,
            });
        }
        Ok(())
    }

    /// Debug read of one cell — free of charge, for tests and result
    /// extraction outside the modelled computation.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn peek_bit(&self, block: BlockId, row: usize, col: usize) -> Result<bool> {
        self.blocks[block.0].get(row, col)
    }

    /// Debug read of `len` bits (LSB first) along a row.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] if the range does not fit.
    pub fn peek_word(
        &self,
        block: BlockId,
        row: usize,
        col0: usize,
        len: usize,
    ) -> Result<Vec<bool>> {
        (0..len)
            .map(|i| self.blocks[block.0].get(row, col0 + i))
            .collect()
    }

    /// Debug read of `width ≤ 64` bits (LSB first) along a row as a packed
    /// word — the fast path of [`BlockedCrossbar::peek_word`].
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] for `width > 64` and
    /// [`CrossbarError::OutOfBounds`] if the range does not fit.
    pub fn peek_u64(&self, block: BlockId, row: usize, col0: usize, width: usize) -> Result<u64> {
        if width > WORD_BITS {
            return Err(CrossbarError::InvalidConfig(format!(
                "peek_u64 width {width} exceeds {WORD_BITS} bits"
            )));
        }
        self.check_word_store(row, col0, width)?;
        Ok(self.blocks[block.0].read_word_bits(row, col0, width))
    }

    /// Per-cell write count (endurance proxy) — debug accessor for wear
    /// studies and the differential suites.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn cell_writes(&self, block: BlockId, row: usize, col: usize) -> Result<u64> {
        self.blocks[block.0].cell_writes(row, col)
    }

    // ---------------------------------------------------------------
    // Sense-amplifier reads
    // ---------------------------------------------------------------

    /// Reads one bit through the sense amplifier.
    ///
    /// The 0.3 ns read is sub-cycle and overlapped with MAGIC execution
    /// (§3.3), so it charges energy and a read count but no cycles.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn read_bit(&mut self, block: BlockId, row: usize, col: usize) -> Result<bool> {
        self.record(|| TraceOp::ReadBit {
            block: block.0,
            row,
            col,
        });
        let bit = self.blocks[block.0].get(row, col)?;
        self.stats.reads += 1;
        self.stats.energy += self.energy.read_op(1);
        self.stats.energy_breakdown.read += self.energy.read_op(1);
        Ok(bit)
    }

    /// Evaluates the majority of three cells in one column through the
    /// modified sense amplifier (Figure 3(b)).
    ///
    /// Charged one cycle: the 0.3 ns read + 0.6 ns MAJ fit inside one
    /// 1.1 ns cycle, and the paper accounts MAJ-plus-writeback as 2 cycles
    /// per bit (§3.4) — the write-back is the second cycle, performed with
    /// [`BlockedCrossbar::write_back_bit`].
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn maj_read(&mut self, block: BlockId, cells: [(usize, usize); 3]) -> Result<bool> {
        self.record(|| TraceOp::MajRead {
            block: block.0,
            cells,
        });
        let a = self.blocks[block.0].get(cells[0].0, cells[0].1)?;
        let b = self.blocks[block.0].get(cells[1].0, cells[1].1)?;
        let c = self.blocks[block.0].get(cells[2].0, cells[2].1)?;
        self.stats.maj_ops += 1;
        self.stats.cycles += Cycles::new(1);
        self.stats.energy += self.energy.maj_op(1);
        self.stats.energy_breakdown.maj += self.energy.maj_op(1);
        Ok((a & b) | (b & c) | (c & a))
    }

    /// Writes one bit produced by peripheral logic back into the array:
    /// one cycle, one cell write.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn write_back_bit(
        &mut self,
        block: BlockId,
        row: usize,
        col: usize,
        bit: bool,
    ) -> Result<()> {
        self.record(|| TraceOp::WriteBackBit {
            block: block.0,
            row,
            col,
            value: bit,
        });
        self.blocks[block.0].set(row, col, bit)?;
        self.stats.cell_writes += 1;
        self.stats.cycles += Cycles::new(1);
        self.stats.energy += self.energy.write_op(1);
        self.stats.energy_breakdown.write += self.energy.write_op(1);
        Ok(())
    }

    // ---------------------------------------------------------------
    // MAGIC execution
    // ---------------------------------------------------------------

    /// Initializes output cells to the ON state ahead of MAGIC evaluation.
    ///
    /// Initialization of future output rows is overlapped with ongoing
    /// evaluation on other rows (standard MAGIC scheduling), so it charges
    /// writes and energy but no cycles; routines that cannot hide it call
    /// [`BlockedCrossbar::advance_cycles`] explicitly.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates; the
    /// whole request is validated before any cell is written.
    pub fn init_rows(&mut self, block: BlockId, rows: &[usize], cols: Range<usize>) -> Result<()> {
        self.record(|| TraceOp::InitRows {
            block: block.0,
            rows: rows.to_vec(),
            cols: cols.clone(),
        });
        self.check_range(&cols)?;
        for &row in rows {
            self.check_row(row)?;
        }
        for &row in rows {
            self.blocks[block.0].fill_on_span(row, &cols);
        }
        self.charge_writes(rows.len() * cols.len());
        Ok(())
    }

    /// Initializes scattered cells to the ON state (same accounting as
    /// [`BlockedCrossbar::init_rows`]).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates; the
    /// whole request is validated before any cell is written.
    pub fn init_cells(&mut self, block: BlockId, cells: &[(usize, usize)]) -> Result<()> {
        self.record(|| TraceOp::InitCells {
            block: block.0,
            cells: cells.to_vec(),
        });
        for &(row, col) in cells {
            self.check_row(row)?;
            self.check_col(col)?;
        }
        for &(row, col) in cells {
            self.blocks[block.0]
                .set(row, col, true)
                .expect("cells validated");
        }
        self.charge_writes(cells.len());
        Ok(())
    }

    /// One column-parallel MAGIC NOR: for every column `c` in `cols`,
    /// `out[c + shift] = NOR(inputs[c]…)`. Costs exactly one cycle
    /// regardless of width.
    ///
    /// All inputs must live in one block. If `out` is in the same block the
    /// shift must be zero; crossing into another block goes through the
    /// configurable interconnect, which applies the shift *for free* (§3.1)
    /// while charging interconnect energy.
    ///
    /// On the packed backend the evaluation is word-parallel: inputs fold
    /// with word-OR, the NOR is `!fold` under the span's edge masks, and a
    /// cross-block shift is a cross-word funnel shift.
    ///
    /// The full request — column range, shift legality and (in strict
    /// mode) every output cell's initialization — is validated before any
    /// write, so a rejected NOR leaves the crossbar unchanged.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::InputsSpanBlocks`] if inputs are spread over
    ///   several blocks.
    /// * [`CrossbarError::ShiftWithinBlock`] for a nonzero same-block shift.
    /// * [`CrossbarError::OutOfBounds`] if any coordinate (after shifting)
    ///   falls outside the arrays.
    /// * [`CrossbarError::UninitializedOutput`] in strict mode when an
    ///   output cell was not initialized to ON.
    pub fn nor_rows_shifted(
        &mut self,
        inputs: &[RowRef],
        out: RowRef,
        cols: Range<usize>,
        shift: isize,
    ) -> Result<()> {
        self.record(|| TraceOp::nor_rows(inputs, out, cols.clone(), shift));
        self.check_range(&cols)?;
        let in_block = match inputs {
            [] => {
                return Err(CrossbarError::InvalidConfig(
                    "NOR needs at least one input row".into(),
                ))
            }
            [first, rest @ ..] => {
                if rest.iter().any(|r| r.block != first.block) {
                    return Err(CrossbarError::InputsSpanBlocks);
                }
                first.block
            }
        };
        let cross_block = in_block != out.block;
        if !cross_block && shift != 0 {
            return Err(CrossbarError::ShiftWithinBlock { shift });
        }
        let out_span = self.shifted_span(&cols, shift)?;
        self.check_row(out.row)?;
        for input in inputs {
            self.check_row(input.row)?;
        }
        if self.strict_init {
            if let Some(col) = self.blocks[out.block.0].first_off(out.row, &out_span) {
                return Err(CrossbarError::UninitializedOutput {
                    block: out.block.0,
                    row: out.row,
                    col,
                });
            }
        }
        let width = cols.len();
        // Hot path: gather input rows on the stack (MAGIC fan-in rarely
        // exceeds a handful of rows), spilling to the heap only beyond 8.
        let mut row_buf = [0usize; 8];
        let mut row_spill = Vec::new();
        let in_rows: &[usize] = if inputs.len() <= row_buf.len() {
            for (slot, r) in row_buf.iter_mut().zip(inputs) {
                *slot = r.row;
            }
            &row_buf[..inputs.len()]
        } else {
            row_spill.extend(inputs.iter().map(|r| r.row));
            &row_spill
        };
        if cross_block {
            let (inp, dst) = pair_mut(&mut self.blocks, in_block.0, out.block.0);
            nor_cross(inp, in_rows, dst, out.row, &cols, shift);
        } else {
            self.blocks[in_block.0].nor_same(in_rows, out.row, &cols);
        }
        self.stats.nor_ops += 1;
        self.stats.nor_cells += width as u64;
        self.stats.cycles += Cycles::new(1);
        let nor_energy = self.energy.nor_op(width);
        self.stats.energy += nor_energy;
        self.stats.energy_breakdown.nor += nor_energy;
        if cross_block {
            self.stats.interconnect_bits += width as u64;
            let link_energy = self.energy.interconnect_op(width);
            self.stats.energy += link_energy;
            self.stats.energy_breakdown.interconnect += link_energy;
        }
        Ok(())
    }

    /// One row-parallel MAGIC NOR along *columns*: for every row `r` in
    /// `rows`, `out_col[r] = NOR(input_cols[r]...)` — the transposed twin of
    /// [`BlockedCrossbar::nor_rows_shifted`] ("in case of NOR in a column,
    /// the execution voltage is applied to the wordlines of the outputs").
    /// Costs one cycle regardless of the row count. All cells live in one
    /// block; column layouts do not cross the (bitline-oriented)
    /// interconnect, so no shift is available.
    ///
    /// Like the row-parallel twin, the whole request is validated before
    /// any write.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::InvalidConfig`] for an empty input set.
    /// * [`CrossbarError::OutOfBounds`] for invalid coordinates.
    /// * [`CrossbarError::UninitializedOutput`] in strict mode when an
    ///   output cell was not initialized to ON.
    pub fn nor_cols(
        &mut self,
        block: BlockId,
        input_cols: &[usize],
        out_col: usize,
        rows: Range<usize>,
    ) -> Result<()> {
        self.record(|| TraceOp::NorCols {
            block: block.0,
            input_cols: input_cols.to_vec(),
            out_col,
            rows: rows.clone(),
        });
        if input_cols.is_empty() {
            return Err(CrossbarError::InvalidConfig(
                "NOR needs at least one input column".into(),
            ));
        }
        if rows.end > self.rows || rows.start >= rows.end {
            return Err(CrossbarError::OutOfBounds {
                what: "row range",
                index: rows.end,
                limit: self.rows,
            });
        }
        self.check_col(out_col)?;
        for &col in input_cols {
            self.check_col(col)?;
        }
        if self.strict_init {
            for row in rows.clone() {
                let before = self.blocks[block.0]
                    .get(row, out_col)
                    .expect("rows validated");
                if !semantics::strict_init_ok(before) {
                    return Err(CrossbarError::UninitializedOutput {
                        block: block.0,
                        row,
                        col: out_col,
                    });
                }
            }
        }
        let height = rows.len();
        for row in rows {
            let value = semantics::nor_bits(
                input_cols
                    .iter()
                    .map(|&col| self.blocks[block.0].get(row, col).expect("cols validated")),
            );
            self.blocks[block.0]
                .set(row, out_col, value)
                .expect("cols validated");
        }
        self.stats.nor_ops += 1;
        self.stats.nor_cells += height as u64;
        self.stats.cycles += Cycles::new(1);
        self.stats.energy += self.energy.nor_op(height);
        self.stats.energy_breakdown.nor += self.energy.nor_op(height);
        Ok(())
    }

    /// Initializes a column segment to the ON state (the column twin of
    /// [`BlockedCrossbar::init_rows`]; same zero-cycle accounting).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates; the
    /// whole request is validated before any cell is written.
    pub fn init_cols(&mut self, block: BlockId, cols: &[usize], rows: Range<usize>) -> Result<()> {
        self.record(|| TraceOp::InitCols {
            block: block.0,
            cols: cols.to_vec(),
            rows: rows.clone(),
        });
        if rows.end > self.rows || rows.start >= rows.end {
            return Err(CrossbarError::OutOfBounds {
                what: "row range",
                index: rows.end,
                limit: self.rows,
            });
        }
        for &col in cols {
            self.check_col(col)?;
        }
        for &col in cols {
            for row in rows.clone() {
                self.blocks[block.0].set(row, col, true).expect("validated");
            }
        }
        self.charge_writes(cols.len() * rows.len());
        Ok(())
    }

    /// One single-bit MAGIC NOR over scattered cells of one block (used for
    /// the serial carry chains). Costs one cycle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockedCrossbar::nor_rows_shifted`] where
    /// applicable.
    pub fn nor_cells(
        &mut self,
        block: BlockId,
        inputs: &[(usize, usize)],
        out: (usize, usize),
    ) -> Result<()> {
        self.record(|| TraceOp::NorCells {
            block: block.0,
            inputs: inputs.to_vec(),
            out,
        });
        if inputs.is_empty() {
            return Err(CrossbarError::InvalidConfig(
                "NOR needs at least one input cell".into(),
            ));
        }
        if self.strict_init && !semantics::strict_init_ok(self.blocks[block.0].get(out.0, out.1)?) {
            return Err(CrossbarError::UninitializedOutput {
                block: block.0,
                row: out.0,
                col: out.1,
            });
        }
        for &(row, col) in inputs {
            self.check_row(row)?;
            self.check_col(col)?;
        }
        let value = semantics::nor_bits(
            inputs
                .iter()
                .map(|&(row, col)| self.blocks[block.0].get(row, col).expect("cells validated")),
        );
        self.blocks[block.0].set(out.0, out.1, value)?;
        self.stats.nor_ops += 1;
        self.stats.nor_cells += 1;
        self.stats.cycles += Cycles::new(1);
        self.stats.energy += self.energy.nor_op(1);
        self.stats.energy_breakdown.nor += self.energy.nor_op(1);
        Ok(())
    }

    /// One lane-parallel MAGIC NOR over scattered column *spans* of one
    /// block: for every lane `j < lanes`, the single-bit gate
    /// `(out.0, out.1 + j) = NOR(inputs[i].0, inputs[i].1 + j)` fires.
    /// Costs one cycle regardless of the lane count — each lane's gate
    /// uses its own bitlines, so the `lanes` gates share one voltage
    /// application exactly as the columns of
    /// [`BlockedCrossbar::nor_rows_shifted`] do. This is the SIMD
    /// backbone of lane-batched kernels: the serial adder's carry step
    /// crosses columns *within* a block (which the interconnect shift of
    /// `nor_rows_shifted` cannot express), and `nor_lanes` replicates it
    /// across up to 64 independent operand instances at once.
    ///
    /// Spans must be pairwise identical or disjoint; a partial overlap
    /// would wire one lane's output bitline as another lane's input
    /// bitline inside the same cycle, which no single voltage pattern can
    /// realize.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::InvalidConfig`] for an empty input set or a lane
    ///   count outside `1..=64`.
    /// * [`CrossbarError::OutOfBounds`] if any span falls outside the
    ///   arrays.
    /// * [`CrossbarError::LaneOverlap`] for partially overlapping spans.
    /// * [`CrossbarError::UninitializedOutput`] in strict mode when an
    ///   output cell was not initialized to ON.
    pub fn nor_lanes(
        &mut self,
        block: BlockId,
        inputs: &[(usize, usize)],
        out: (usize, usize),
        lanes: usize,
    ) -> Result<()> {
        self.record(|| TraceOp::NorLanes {
            block: block.0,
            inputs: inputs.to_vec(),
            out,
            lanes,
        });
        if inputs.is_empty() {
            return Err(CrossbarError::InvalidConfig(
                "NOR needs at least one input span".into(),
            ));
        }
        if lanes == 0 || lanes > WORD_BITS {
            return Err(CrossbarError::InvalidConfig(format!(
                "nor_lanes lane count {lanes} outside 1..={WORD_BITS}"
            )));
        }
        self.check_row(out.0)?;
        self.check_word_store(out.0, out.1, lanes)?;
        for &(row, col0) in inputs {
            self.check_row(row)?;
            self.check_word_store(row, col0, lanes)?;
        }
        let disjoint = |a: usize, b: usize| a == b || a.abs_diff(b) >= lanes;
        for (i, &(_, a)) in inputs.iter().enumerate() {
            if !disjoint(a, out.1) {
                return Err(CrossbarError::LaneOverlap { a, b: out.1, lanes });
            }
            for &(_, b) in &inputs[..i] {
                if !disjoint(a, b) {
                    return Err(CrossbarError::LaneOverlap { a, b, lanes });
                }
            }
        }
        if self.strict_init {
            if let Some(col) = self.blocks[block.0].first_off(out.0, &(out.1..out.1 + lanes)) {
                return Err(CrossbarError::UninitializedOutput {
                    block: block.0,
                    row: out.0,
                    col,
                });
            }
        }
        let value = semantics::nor_words(
            inputs
                .iter()
                .map(|&(row, col0)| self.blocks[block.0].read_word_bits(row, col0, lanes)),
        );
        self.blocks[block.0].store_word_bits(out.0, out.1, lanes, value);
        self.stats.nor_ops += 1;
        self.stats.nor_cells += lanes as u64;
        self.stats.cycles += Cycles::new(1);
        let nor_energy = self.energy.nor_op(lanes);
        self.stats.energy += nor_energy;
        self.stats.energy_breakdown.nor += nor_energy;
        Ok(())
    }

    /// Copies a row segment into another block with an optional shift.
    ///
    /// A copy is two successive NOT (single-input NOR) operations; this
    /// helper charges both (2 cycles) and handles intermediate
    /// initialization. Routines that copy one source to *many*
    /// destinations should perform the first NOT once and reuse it — see
    /// the multiplier's partial-product generator in `apim-logic`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockedCrossbar::nor_rows_shifted`].
    pub fn copy_row_shifted(
        &mut self,
        src: RowRef,
        scratch: RowRef,
        dst: RowRef,
        cols: Range<usize>,
        shift: isize,
    ) -> Result<()> {
        self.init_rows(scratch.block, &[scratch.row], cols.clone())?;
        self.nor_rows_shifted(&[src], scratch, cols.clone(), 0)?;
        let shifted = shift_range(&cols, 0);
        self.init_rows(
            dst.block,
            &[dst.row],
            shift_range(&cols, shift).ok_or(CrossbarError::OutOfBounds {
                what: "shifted col",
                index: cols.end,
                limit: self.cols,
            })?,
        )?;
        self.nor_rows_shifted(&[scratch], dst, shifted.expect("zero shift"), shift)?;
        Ok(())
    }

    // ---------------------------------------------------------------
    // Fault injection / endurance (extension)
    // ---------------------------------------------------------------

    /// Injects (or clears) a stuck-at fault.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn inject_fault(
        &mut self,
        block: BlockId,
        row: usize,
        col: usize,
        fault: Option<Fault>,
    ) -> Result<()> {
        self.blocks[block.0].inject_fault(row, col, fault)
    }

    /// Per-block endurance summary.
    pub fn wear_report(&self) -> crate::wear::WearReport {
        crate::wear::WearReport {
            blocks: self
                .blocks
                .iter()
                .enumerate()
                .map(|(i, arr)| {
                    let total = arr.total_cell_writes();
                    crate::wear::BlockWear {
                        block: i,
                        max_cell_writes: arr.max_cell_writes(),
                        total_writes: total,
                        mean_writes: total as f64 / arr.cell_count() as f64,
                    }
                })
                .collect(),
        }
    }

    /// The highest per-cell write count across all blocks (wear hotspot).
    pub fn max_cell_writes(&self) -> u64 {
        self.blocks
            .iter()
            .map(Store::max_cell_writes)
            .max()
            .unwrap_or(0)
    }

    /// The `k` most-written cells across every block, hottest first (ties
    /// broken by coordinate). Built from the same two-level counters as
    /// [`BlockedCrossbar::wear_report`]; never-written cells are omitted.
    pub fn hotspots(&self, k: usize) -> Vec<crate::wear::HotSpot> {
        let mut cells: Vec<crate::wear::HotSpot> = self
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(block, store)| {
                store
                    .hotspots(k)
                    .into_iter()
                    .map(move |(row, col, writes)| crate::wear::HotSpot {
                        block,
                        row,
                        col,
                        writes,
                    })
            })
            .collect();
        cells.sort_by(|a, b| {
            b.writes
                .cmp(&a.writes)
                .then(a.block.cmp(&b.block))
                .then(a.row.cmp(&b.row))
                .then(a.col.cmp(&b.col))
        });
        cells.truncate(k);
        cells
    }

    /// Number of cells currently carrying an injected stuck-at fault,
    /// summed over every block.
    pub fn fault_count(&self) -> usize {
        self.blocks.iter().map(Store::fault_count).sum()
    }
}

/// Shifts a column range, returning `None` on underflow.
fn shift_range(cols: &Range<usize>, shift: isize) -> Option<Range<usize>> {
    let start = cols.start as isize + shift;
    let end = cols.end as isize + shift;
    if start < 0 || end < 0 {
        return None;
    }
    Some(start as usize..end as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar() -> BlockedCrossbar {
        BlockedCrossbar::new(CrossbarConfig::default()).unwrap()
    }

    fn scalar_xbar() -> BlockedCrossbar {
        BlockedCrossbar::new(CrossbarConfig {
            backend: Backend::Scalar,
            ..CrossbarConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let bad = CrossbarConfig {
            blocks: 1,
            ..CrossbarConfig::default()
        };
        assert!(BlockedCrossbar::new(bad).is_err());
        let bad = CrossbarConfig {
            rows: 0,
            ..CrossbarConfig::default()
        };
        assert!(BlockedCrossbar::new(bad).is_err());
    }

    #[test]
    fn default_backend_is_packed() {
        assert_eq!(xbar().backend(), Backend::Packed);
        assert_eq!(scalar_xbar().backend(), Backend::Scalar);
    }

    #[test]
    fn roles_default_and_reassign() {
        let mut x = xbar();
        let b0 = x.block(0).unwrap();
        let b1 = x.block(1).unwrap();
        assert_eq!(x.role(b0), BlockRole::Data);
        assert_eq!(x.role(b1), BlockRole::Processing);
        x.set_role(b1, BlockRole::Data);
        assert_eq!(x.role(b1), BlockRole::Data);
    }

    #[test]
    fn no_such_block() {
        let x = xbar();
        assert!(matches!(
            x.block(99),
            Err(CrossbarError::NoSuchBlock { .. })
        ));
    }

    #[test]
    fn preload_charges_no_cycles() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        x.preload_word(b, 0, 0, &[true, true, false]).unwrap();
        assert_eq!(x.stats().cycles, Cycles::ZERO);
        assert_eq!(x.stats().cell_writes, 3);
        assert!(x.stats().energy.as_joules() > 0.0);
    }

    #[test]
    fn nor_truth_table() {
        for mut x in [xbar(), scalar_xbar()] {
            let b = x.block(0).unwrap();
            for (a, bb, expected) in [
                (false, false, true),
                (false, true, false),
                (true, false, false),
                (true, true, false),
            ] {
                x.preload_bit(b, 0, 0, a).unwrap();
                x.preload_bit(b, 1, 0, bb).unwrap();
                x.init_rows(b, &[2], 0..1).unwrap();
                x.nor_rows_shifted(
                    &[RowRef::new(b, 0), RowRef::new(b, 1)],
                    RowRef::new(b, 2),
                    0..1,
                    0,
                )
                .unwrap();
                assert_eq!(x.peek_bit(b, 2, 0).unwrap(), expected);
            }
        }
    }

    #[test]
    fn nor_is_width_parallel_one_cycle() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        x.preload_word(b, 0, 0, &[false; 64]).unwrap();
        x.init_rows(b, &[1], 0..64).unwrap();
        let before = x.stats().cycles;
        x.nor_rows_shifted(&[RowRef::new(b, 0)], RowRef::new(b, 1), 0..64, 0)
            .unwrap();
        assert_eq!((x.stats().cycles - before).get(), 1);
        assert_eq!(x.peek_word(b, 1, 0, 64).unwrap(), vec![true; 64]);
    }

    #[test]
    fn cross_block_shift_applies_offset() {
        let mut x = xbar();
        let b0 = x.block(0).unwrap();
        let b1 = x.block(1).unwrap();
        x.preload_word(b0, 0, 0, &[false, true, false, false])
            .unwrap();
        x.init_rows(b1, &[0], 3..7).unwrap();
        // NOT with shift +3: out[c+3] = !in[c]
        x.nor_rows_shifted(&[RowRef::new(b0, 0)], RowRef::new(b1, 0), 0..4, 3)
            .unwrap();
        assert_eq!(
            x.peek_word(b1, 0, 3, 4).unwrap(),
            vec![true, false, true, true]
        );
        assert_eq!(x.stats().interconnect_bits, 4);
    }

    #[test]
    fn cross_block_shift_crosses_word_boundaries() {
        let mut x = xbar();
        let b0 = x.block(0).unwrap();
        let b1 = x.block(1).unwrap();
        let pattern: Vec<bool> = (0..80).map(|i| i % 3 == 0).collect();
        x.preload_word(b0, 0, 20, &pattern).unwrap();
        x.init_rows(b1, &[0], 90..170).unwrap();
        x.nor_rows_shifted(&[RowRef::new(b0, 0)], RowRef::new(b1, 0), 20..100, 70)
            .unwrap();
        let got = x.peek_word(b1, 0, 90, 80).unwrap();
        let expect: Vec<bool> = pattern.iter().map(|&b| !b).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn same_block_shift_rejected() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        x.init_rows(b, &[1], 0..8).unwrap();
        let err = x
            .nor_rows_shifted(&[RowRef::new(b, 0)], RowRef::new(b, 1), 0..4, 2)
            .unwrap_err();
        assert_eq!(err, CrossbarError::ShiftWithinBlock { shift: 2 });
    }

    #[test]
    fn inputs_must_share_a_block() {
        let mut x = xbar();
        let b0 = x.block(0).unwrap();
        let b1 = x.block(1).unwrap();
        x.init_rows(b0, &[2], 0..4).unwrap();
        let err = x
            .nor_rows_shifted(
                &[RowRef::new(b0, 0), RowRef::new(b1, 1)],
                RowRef::new(b0, 2),
                0..4,
                0,
            )
            .unwrap_err();
        assert_eq!(err, CrossbarError::InputsSpanBlocks);
    }

    #[test]
    fn strict_init_catches_missing_initialization() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        // Row 1 never initialized: cells read 0 -> strict mode errors.
        let err = x
            .nor_rows_shifted(&[RowRef::new(b, 0)], RowRef::new(b, 1), 0..4, 0)
            .unwrap_err();
        assert!(matches!(err, CrossbarError::UninitializedOutput { .. }));
    }

    #[test]
    fn rejected_nor_leaves_crossbar_unchanged() {
        // Regression for the historical partial-mutation bug: a mid-range
        // strict-init (or bounds) failure used to leave already-visited
        // columns overwritten. The full request is now validated up front.
        for mut x in [xbar(), scalar_xbar()] {
            let b = x.block(0).unwrap();
            x.preload_word(b, 0, 0, &[true; 8]).unwrap();
            // Columns 0..4 initialized, 4..8 NOT initialized: the NOR over
            // 0..8 must fail on column 4 and write nothing.
            x.init_rows(b, &[1], 0..4).unwrap();
            let stats_before = *x.stats();
            let row_before = x.peek_word(b, 1, 0, 8).unwrap();
            let wear_before: Vec<u64> = (0..8).map(|c| x.cell_writes(b, 1, c).unwrap()).collect();
            let err = x
                .nor_rows_shifted(&[RowRef::new(b, 0)], RowRef::new(b, 1), 0..8, 0)
                .unwrap_err();
            assert_eq!(
                err,
                CrossbarError::UninitializedOutput {
                    block: 0,
                    row: 1,
                    col: 4
                }
            );
            assert_eq!(x.peek_word(b, 1, 0, 8).unwrap(), row_before);
            assert_eq!(*x.stats(), stats_before);
            let wear_after: Vec<u64> = (0..8).map(|c| x.cell_writes(b, 1, c).unwrap()).collect();
            assert_eq!(wear_after, wear_before, "no wear on a rejected op");
        }
    }

    #[test]
    fn rejected_shifted_nor_leaves_crossbar_unchanged() {
        for mut x in [xbar(), scalar_xbar()] {
            let b0 = x.block(0).unwrap();
            let b1 = x.block(1).unwrap();
            let cols = 250..256;
            x.init_rows(b1, &[0], cols.clone()).unwrap();
            let before = x.peek_word(b1, 0, 248, 8).unwrap();
            let stats_before = *x.stats();
            let err = x
                .nor_rows_shifted(&[RowRef::new(b0, 0)], RowRef::new(b1, 0), cols, 10)
                .unwrap_err();
            assert!(matches!(err, CrossbarError::OutOfBounds { .. }));
            assert_eq!(x.peek_word(b1, 0, 248, 8).unwrap(), before);
            assert_eq!(*x.stats(), stats_before);
        }
    }

    #[test]
    fn rejected_init_rows_leaves_crossbar_unchanged() {
        for mut x in [xbar(), scalar_xbar()] {
            let b = x.block(0).unwrap();
            let stats_before = *x.stats();
            // Second row out of bounds: nothing (including row 0) is set.
            let err = x.init_rows(b, &[0, 9999], 0..4).unwrap_err();
            assert!(matches!(err, CrossbarError::OutOfBounds { .. }));
            assert_eq!(x.peek_word(b, 0, 0, 4).unwrap(), vec![false; 4]);
            assert_eq!(*x.stats(), stats_before);
        }
    }

    #[test]
    fn non_strict_mode_allows_uninitialized_outputs() {
        let cfg = CrossbarConfig {
            strict_init: false,
            ..CrossbarConfig::default()
        };
        let mut x = BlockedCrossbar::new(cfg).unwrap();
        let b = x.block(0).unwrap();
        x.nor_rows_shifted(&[RowRef::new(b, 0)], RowRef::new(b, 1), 0..4, 0)
            .unwrap();
        assert_eq!(x.peek_word(b, 1, 0, 4).unwrap(), vec![true; 4]);
    }

    #[test]
    fn nor_cells_single_bit() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        x.preload_bit(b, 0, 0, true).unwrap();
        x.preload_bit(b, 0, 1, false).unwrap();
        x.init_cells(b, &[(0, 2)]).unwrap();
        x.nor_cells(b, &[(0, 0), (0, 1)], (0, 2)).unwrap();
        assert!(!x.peek_bit(b, 0, 2).unwrap());
        assert_eq!(x.stats().cycles.get(), 1);
    }

    #[test]
    fn nor_lanes_matches_per_lane_nor_cells_on_both_backends() {
        for mut x in [xbar(), scalar_xbar()] {
            let b = x.block(0).unwrap();
            let lanes = 8;
            x.preload_u64(b, 0, 0, lanes, 0b1010_0110).unwrap();
            x.preload_u64(b, 1, 0, lanes, 0b1100_0011).unwrap();
            x.init_rows(b, &[2], 16..16 + lanes).unwrap();
            let before = x.stats().cycles;
            x.nor_lanes(b, &[(0, 0), (1, 0)], (2, 16), lanes).unwrap();
            assert_eq!(
                (x.stats().cycles - before).get(),
                1,
                "one cycle, any lane count"
            );
            let expected = !(0b1010_0110u64 | 0b1100_0011) & 0xFF;
            assert_eq!(x.peek_u64(b, 2, 16, lanes).unwrap(), expected);
        }
    }

    #[test]
    fn nor_lanes_allows_equal_spans_and_rejects_partial_overlap() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        x.preload_u64(b, 0, 0, 8, 0x0F).unwrap();
        x.preload_u64(b, 1, 0, 8, 0x33).unwrap();
        x.init_rows(b, &[2], 8..16).unwrap();
        // Equal input spans are fine (same bitlines, different wordlines).
        x.nor_lanes(b, &[(0, 0), (1, 0)], (2, 8), 8).unwrap();
        // Output span partially overlapping an input span is not.
        x.init_rows(b, &[3], 4..12).unwrap();
        let err = x.nor_lanes(b, &[(0, 0)], (3, 4), 8).unwrap_err();
        assert!(matches!(err, CrossbarError::LaneOverlap { .. }));
        // Two input spans partially overlapping each other, likewise.
        x.init_rows(b, &[3], 16..24).unwrap();
        let err = x.nor_lanes(b, &[(0, 0), (1, 6)], (3, 16), 8).unwrap_err();
        assert!(matches!(err, CrossbarError::LaneOverlap { .. }));
    }

    #[test]
    fn nor_lanes_validates_before_writing() {
        for mut x in [xbar(), scalar_xbar()] {
            let b = x.block(0).unwrap();
            x.init_rows(b, &[2], 0..8).unwrap();
            let stats_before = *x.stats();
            let err = x.nor_lanes(b, &[(9999, 0)], (2, 0), 8).unwrap_err();
            assert!(matches!(err, CrossbarError::OutOfBounds { .. }));
            assert_eq!(x.peek_u64(b, 2, 0, 8).unwrap(), 0xFF, "init kept");
            assert_eq!(*x.stats(), stats_before);
            assert!(x.nor_lanes(b, &[], (2, 0), 8).is_err(), "empty inputs");
            assert!(x.nor_lanes(b, &[(0, 0)], (2, 0), 0).is_err(), "0 lanes");
            assert!(x.nor_lanes(b, &[(0, 0)], (2, 0), 65).is_err(), "65 lanes");
        }
    }

    #[test]
    fn nor_lanes_respects_strict_init() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        x.preload_u64(b, 0, 0, 4, 0x5).unwrap();
        let err = x.nor_lanes(b, &[(0, 0)], (1, 8), 4).unwrap_err();
        assert!(matches!(err, CrossbarError::UninitializedOutput { .. }));
    }

    #[test]
    fn nor_cols_is_the_transposed_twin() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        // Column 0: bits per row; column 1: bits per row.
        for (row, (a, bb)) in [(false, false), (false, true), (true, false), (true, true)]
            .into_iter()
            .enumerate()
        {
            x.preload_bit(b, row, 0, a).unwrap();
            x.preload_bit(b, row, 1, bb).unwrap();
        }
        x.init_cols(b, &[2], 0..4).unwrap();
        let before = x.stats().cycles;
        x.nor_cols(b, &[0, 1], 2, 0..4).unwrap();
        assert_eq!(
            (x.stats().cycles - before).get(),
            1,
            "one cycle, any height"
        );
        let got: Vec<bool> = (0..4).map(|r| x.peek_bit(b, r, 2).unwrap()).collect();
        assert_eq!(got, vec![true, false, false, false]);
    }

    #[test]
    fn nor_cols_respects_strict_init() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        let err = x.nor_cols(b, &[0], 1, 0..4).unwrap_err();
        assert!(matches!(err, CrossbarError::UninitializedOutput { .. }));
        assert!(x.nor_cols(b, &[], 1, 0..4).is_err());
        assert!(x.nor_cols(b, &[0], 1, 0..9999).is_err());
    }

    #[test]
    fn nor_cols_validates_before_writing() {
        for mut x in [xbar(), scalar_xbar()] {
            let b = x.block(0).unwrap();
            x.init_cols(b, &[2], 0..4).unwrap();
            let stats_before = *x.stats();
            // Input column out of bounds: no row of the output is touched.
            let err = x.nor_cols(b, &[0, 9999], 2, 0..4).unwrap_err();
            assert!(matches!(err, CrossbarError::OutOfBounds { .. }));
            let got: Vec<bool> = (0..4).map(|r| x.peek_bit(b, r, 2).unwrap()).collect();
            assert_eq!(got, vec![true; 4], "outputs keep their init value");
            assert_eq!(*x.stats(), stats_before);
        }
    }

    #[test]
    fn maj_read_majority_function() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        for (bits, expected) in [
            ([false, false, false], false),
            ([true, false, false], false),
            ([true, true, false], true),
            ([true, true, true], true),
        ] {
            for (i, &bit) in bits.iter().enumerate() {
                x.preload_bit(b, i, 0, bit).unwrap();
            }
            let got = x.maj_read(b, [(0, 0), (1, 0), (2, 0)]).unwrap();
            assert_eq!(got, expected, "MAJ{bits:?}");
        }
        assert_eq!(x.stats().maj_ops, 4);
        assert_eq!(x.stats().cycles.get(), 4);
    }

    #[test]
    fn write_back_costs_one_cycle() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        x.write_back_bit(b, 0, 0, true).unwrap();
        assert_eq!(x.stats().cycles.get(), 1);
        assert!(x.peek_bit(b, 0, 0).unwrap());
    }

    #[test]
    fn copy_row_shifted_moves_and_shifts() {
        let mut x = xbar();
        let b0 = x.block(0).unwrap();
        let b1 = x.block(1).unwrap();
        let word = [true, false, true, true];
        x.preload_word(b0, 0, 0, &word).unwrap();
        let before = x.stats().cycles;
        x.copy_row_shifted(
            RowRef::new(b0, 0),
            RowRef::new(b0, 10),
            RowRef::new(b1, 0),
            0..4,
            5,
        )
        .unwrap();
        assert_eq!((x.stats().cycles - before).get(), 2, "copy = 2 NOTs");
        assert_eq!(x.peek_word(b1, 0, 5, 4).unwrap(), word.to_vec());
    }

    #[test]
    fn read_bit_counts_energy_not_cycles() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        x.preload_bit(b, 0, 0, true).unwrap();
        let before = x.stats().energy;
        assert!(x.read_bit(b, 0, 0).unwrap());
        assert_eq!(x.stats().cycles, Cycles::ZERO);
        assert_eq!(x.stats().reads, 1);
        assert!(x.stats().energy.as_joules() > before.as_joules());
    }

    #[test]
    fn shifted_out_of_bounds_rejected() {
        let mut x = xbar();
        let b0 = x.block(0).unwrap();
        let b1 = x.block(1).unwrap();
        let cols = 250..256;
        x.init_rows(b1, &[0], cols.clone()).unwrap();
        let err = x
            .nor_rows_shifted(&[RowRef::new(b0, 0)], RowRef::new(b1, 0), cols, 10)
            .unwrap_err();
        assert!(matches!(err, CrossbarError::OutOfBounds { .. }));
    }

    #[test]
    fn fault_injection_reaches_reads() {
        for mut x in [xbar(), scalar_xbar()] {
            let b = x.block(0).unwrap();
            x.inject_fault(b, 0, 0, Some(Fault::StuckAtOne)).unwrap();
            assert!(x.peek_bit(b, 0, 0).unwrap());
        }
    }

    #[test]
    fn wear_tracking_reports_hotspot() {
        for mut x in [xbar(), scalar_xbar()] {
            let b = x.block(0).unwrap();
            for _ in 0..7 {
                x.preload_bit(b, 3, 3, true).unwrap();
            }
            assert_eq!(x.max_cell_writes(), 7);
            assert_eq!(x.cell_writes(b, 3, 3).unwrap(), 7);
        }
    }

    #[test]
    fn preload_u64_matches_preload_word() {
        let mut a = xbar();
        let mut b = xbar();
        let blk = a.block(0).unwrap();
        let v = 0xDEAD_BEEF_1234_5678u64;
        let bits: Vec<bool> = (0..64).map(|i| (v >> i) & 1 == 1).collect();
        a.preload_word(blk, 2, 30, &bits).unwrap();
        b.preload_u64(blk, 2, 30, 64, v).unwrap();
        assert_eq!(
            a.peek_word(blk, 2, 30, 64).unwrap(),
            b.peek_word(blk, 2, 30, 64).unwrap()
        );
        assert_eq!(a.stats(), b.stats());
        assert_eq!(b.peek_u64(blk, 2, 30, 64).unwrap(), v);
        // Oversized widths and overflowing spans are rejected.
        assert!(b.preload_u64(blk, 0, 0, 65, 0).is_err());
        assert!(b.preload_u64(blk, 0, 250, 10, 0).is_err());
        assert!(b.peek_u64(blk, 0, 0, 65).is_err());
    }

    #[test]
    fn preload_zeros_clears_a_span() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        x.init_rows(b, &[0], 0..100).unwrap();
        x.preload_zeros(b, 0, 10, 70).unwrap();
        assert!(x.peek_bit(b, 0, 9).unwrap());
        assert_eq!(x.peek_word(b, 0, 10, 70).unwrap(), vec![false; 70]);
        assert!(x.peek_bit(b, 0, 80).unwrap());
        assert_eq!(x.stats().cell_writes, 170);
        assert!(x.preload_zeros(b, 0, 250, 10).is_err());
    }

    #[test]
    fn reset_stats_clears_accounting() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        x.preload_bit(b, 0, 0, true).unwrap();
        x.reset_stats();
        assert_eq!(*x.stats(), Stats::new());
    }

    #[test]
    fn advance_cycles_adds_latency() {
        let mut x = xbar();
        x.advance_cycles(Cycles::new(13));
        assert_eq!(x.stats().cycles.get(), 13);
    }

    #[test]
    fn empty_inputs_rejected() {
        let mut x = xbar();
        let b = x.block(0).unwrap();
        assert!(x.nor_rows_shifted(&[], RowRef::new(b, 0), 0..4, 0).is_err());
        assert!(x.nor_cells(b, &[], (0, 0)).is_err());
    }

    #[test]
    fn recording_round_trips_the_microprogram() {
        use crate::trace::TraceOp;
        let mut x = xbar();
        let a = x.block(0).unwrap();
        let b = x.block(1).unwrap();
        assert!(!x.is_recording());
        x.preload_bit(a, 0, 0, true).unwrap(); // before arming: not recorded
        x.start_recording();
        assert!(x.is_recording());
        let before = x.stats().cycles;
        x.preload_word(a, 1, 0, &[true, false]).unwrap();
        // Shift 1: the output window is cols 1..3, so initialize that.
        x.init_rows(b, &[0], 1..3).unwrap();
        x.nor_rows_shifted(&[RowRef::new(a, 1)], RowRef::new(b, 0), 0..2, 1)
            .unwrap();
        let trace = x.stop_recording();
        assert!(!x.is_recording());
        assert_eq!(
            trace.ops,
            vec![
                TraceOp::PreloadWord {
                    block: 0,
                    row: 1,
                    col0: 0,
                    bits: vec![true, false]
                },
                TraceOp::InitRows {
                    block: 1,
                    rows: vec![0],
                    cols: 1..3
                },
                TraceOp::NorRowsShifted {
                    inputs: vec![(0, 1)],
                    out: (1, 0),
                    cols: 0..2,
                    shift: 1
                },
            ]
        );
        assert_eq!((trace.blocks, trace.rows, trace.cols), (4, 64, 256));
        assert_eq!(trace.cycles(), (x.stats().cycles - before).get());
        // A fresh recording starts empty.
        x.start_recording();
        assert!(x.stop_recording().is_empty());
    }
}
