//! The five static dataflow passes over a recorded microprogram.
//!
//! Each pass walks the [`OpTrace`] (or the allocator event log) once and
//! emits [`Finding`]s; [`verify_trace`] bundles them into one ranked
//! [`LintReport`]. The passes are deliberately *value-independent*: they
//! reject any microprogram whose correctness depends on the data it happens
//! to run on (e.g. a skipped re-initialization that the runtime's
//! `strict_init` check only catches when the stale bit is OFF).

use std::collections::{BTreeSet, HashSet};
use std::ops::Range;

use apim_crossbar::{AllocEvent, OpTrace, TraceOp};

use crate::report::{Finding, LintReport, Pass, Severity};

/// Runs every pass and ranks the combined findings.
///
/// `expected_cycles` is the analytic cost-model prediction for the recorded
/// kernel; pass `None` when no closed form applies (the cycle-accounting
/// pass is then skipped).
pub fn verify_trace(
    trace: &OpTrace,
    events: &[AllocEvent],
    expected_cycles: Option<u64>,
) -> LintReport {
    let mut findings = pass_init_discipline(trace);
    findings.extend(pass_aliasing(trace));
    findings.extend(pass_shift_bounds(trace));
    findings.extend(pass_scratch_lifetime(events));
    if let Some(expected) = expected_cycles {
        findings.extend(pass_cycle_accounting(trace, expected));
    }
    LintReport::from_findings(findings)
}

/// One bit per cell over the bounding box of the cells a trace touches:
/// set = armed (initialized since its last write). Each `(block, row)`
/// starts on a word boundary, so a column span within one row is a run of
/// whole-word mask operations.
struct CellBits {
    rows: usize,
    row_bits: usize,
    words: Vec<u64>,
}

impl CellBits {
    /// Sizes the table from one pre-scan of the largest block, row and
    /// column any op of `trace` touches. Cells outside the recorded
    /// geometry get bits like any other, as they did in a set of cells.
    fn for_trace(trace: &OpTrace) -> Self {
        let (mut blocks, mut rows, mut cols) = (0, 0, 0);
        for (block, row, col) in trace.ops.iter().filter_map(max_cell) {
            blocks = blocks.max(block + 1);
            rows = rows.max(row + 1);
            cols = cols.max(col + 1);
        }
        let row_bits = cols.div_ceil(64) * 64;
        CellBits {
            rows,
            row_bits,
            words: vec![0; blocks * rows * row_bits / 64],
        }
    }

    /// Bit index of column 0 of `(block, row)` and the bit range of
    /// columns `cols` there; an empty or reversed `cols` covers nothing
    /// (its row may lie outside the table).
    fn span(&self, block: usize, row: usize, cols: Range<usize>) -> (usize, Range<usize>) {
        if cols.is_empty() {
            return (0, 0..0);
        }
        let base = (block * self.rows + row) * self.row_bits;
        (base, base + cols.start..base + cols.end)
    }

    /// Arms columns `cols` of `(block, row)`.
    fn arm(&mut self, block: usize, row: usize, cols: Range<usize>) {
        for_words(self.span(block, row, cols).1, |w, mask| {
            self.words[w] |= mask;
        });
    }

    /// Disarms columns `cols` of `(block, row)`.
    fn disarm(&mut self, block: usize, row: usize, cols: Range<usize>) {
        for_words(self.span(block, row, cols).1, |w, mask| {
            self.words[w] &= !mask;
        });
    }

    /// A NOR evaluating into columns `cols` of `(block, row)`: counts the
    /// unarmed cells, returns the count and the lowest such column, and
    /// consumes the initialization of the whole span.
    fn evaluate(&mut self, block: usize, row: usize, cols: Range<usize>) -> (usize, Option<usize>) {
        let (base, bits) = self.span(block, row, cols);
        let (mut stale, mut first) = (0, None);
        for_words(bits, |w, mask| {
            let missing = !self.words[w] & mask;
            if missing != 0 {
                stale += missing.count_ones() as usize;
                first.get_or_insert(w * 64 + missing.trailing_zeros() as usize - base);
            }
            self.words[w] &= !mask;
        });
        (stale, first)
    }
}

/// Calls `f(word, mask)` for every word the bit range `bits` covers,
/// `mask` selecting the range's bits in that word.
fn for_words(bits: Range<usize>, mut f: impl FnMut(usize, u64)) {
    let (mut i, end) = (bits.start, bits.end);
    while i < end {
        let offset = i % 64;
        let n = (64 - offset).min(end - i);
        f(i / 64, (u64::MAX >> (64 - n)) << offset);
        i += n;
    }
}

/// The output columns of a shifted NOR: `cols + shift`, less the columns
/// the shift pushes below zero (the shift-bounds pass owns that
/// diagnosis).
fn shifted_span(cols: &Range<usize>, shift: isize) -> Range<usize> {
    let end = (cols.end as isize + shift).max(0) as usize;
    let start = (cols.start as isize + shift).max(0) as usize;
    start..end
}

/// The largest `(block, row, col)` along each axis among the cells `op`
/// arms, disarms or evaluates into; `None` when it touches none.
fn max_cell(op: &TraceOp) -> Option<(usize, usize, usize)> {
    let span_end = |cols: &Range<usize>| (cols.start < cols.end).then(|| cols.end - 1);
    match op {
        TraceOp::InitRows { block, rows, cols } => {
            Some((*block, *rows.iter().max()?, span_end(cols)?))
        }
        TraceOp::InitCells { block, cells } => Some((
            *block,
            cells.iter().map(|c| c.0).max()?,
            cells.iter().map(|c| c.1).max()?,
        )),
        TraceOp::InitCols { block, cols, rows } => {
            Some((*block, span_end(rows)?, *cols.iter().max()?))
        }
        TraceOp::PreloadBit {
            block, row, col, ..
        }
        | TraceOp::WriteBackBit {
            block, row, col, ..
        } => Some((*block, *row, *col)),
        TraceOp::PreloadWord {
            block,
            row,
            col0,
            bits,
        } => Some((*block, *row, span_end(&(*col0..col0 + bits.len()))?)),
        TraceOp::NorRowsShifted {
            out, cols, shift, ..
        } => Some((out.0, out.1, span_end(&shifted_span(cols, *shift))?)),
        TraceOp::NorCols {
            block,
            out_col,
            rows,
            ..
        } => Some((*block, span_end(rows)?, *out_col)),
        TraceOp::NorCells { block, out, .. } => Some((*block, out.0, out.1)),
        TraceOp::NorLanes {
            block, out, lanes, ..
        } => Some((*block, out.0, span_end(&(out.1..out.1 + lanes))?)),
        TraceOp::ReadBit { .. }
        | TraceOp::MajRead { .. }
        | TraceOp::AdvanceCycles { .. }
        | TraceOp::RewindCycles { .. } => None,
    }
}

/// Pass 1: init-before-NOR discipline.
///
/// MAGIC NOR can only switch its output cell OFF, so every destination cell
/// must be driven to the ON state *after* its previous write and *before*
/// the evaluation. This pass tracks, per cell, whether the most recent
/// touch was an initialization; a NOR whose destination is not in that
/// state is an error regardless of the data values involved.
///
/// The armed cells live in a dense bitset ([`CellBits`]) sized by one
/// pre-scan of the trace; row spans are armed, disarmed and tested a word
/// at a time, and no op allocates.
pub fn pass_init_discipline(trace: &OpTrace) -> Vec<Finding> {
    let mut armed = CellBits::for_trace(trace);
    let mut findings = Vec::new();
    for (i, op) in trace.ops.iter().enumerate() {
        // `(block, stale count, first stale (row, col))` of a NOR.
        let evaluated = match op {
            TraceOp::InitRows { block, rows, cols } => {
                for &r in rows {
                    armed.arm(*block, r, cols.clone());
                }
                continue;
            }
            TraceOp::InitCells { block, cells } => {
                for &(r, c) in cells {
                    armed.arm(*block, r, c..c + 1);
                }
                continue;
            }
            TraceOp::InitCols { block, cols, rows } => {
                for &c in cols {
                    for r in rows.clone() {
                        armed.arm(*block, r, c..c + 1);
                    }
                }
                continue;
            }
            TraceOp::PreloadBit {
                block, row, col, ..
            }
            | TraceOp::WriteBackBit {
                block, row, col, ..
            } => {
                armed.disarm(*block, *row, *col..col + 1);
                continue;
            }
            TraceOp::PreloadWord {
                block,
                row,
                col0,
                bits,
            } => {
                armed.disarm(*block, *row, *col0..col0 + bits.len());
                continue;
            }
            TraceOp::NorRowsShifted {
                out, cols, shift, ..
            } => {
                let (stale, first) = armed.evaluate(out.0, out.1, shifted_span(cols, *shift));
                (out.0, stale, first.map(|c| (out.1, c)))
            }
            TraceOp::NorCols {
                block,
                out_col,
                rows,
                ..
            } => {
                // One cell per row, in row order: the first stale row wins.
                let (mut stale, mut first) = (0, None);
                for r in rows.clone() {
                    if armed.evaluate(*block, r, *out_col..out_col + 1).0 == 1 {
                        stale += 1;
                        first.get_or_insert((r, *out_col));
                    }
                }
                (*block, stale, first)
            }
            TraceOp::NorCells { block, out, .. } => {
                let (stale, _) = armed.evaluate(*block, out.0, out.1..out.1 + 1);
                (*block, stale, (stale == 1).then_some(*out))
            }
            TraceOp::NorLanes {
                block, out, lanes, ..
            } => {
                let (stale, first) = armed.evaluate(*block, out.0, out.1..out.1 + lanes);
                (*block, stale, first.map(|c| (out.0, c)))
            }
            TraceOp::ReadBit { .. }
            | TraceOp::MajRead { .. }
            | TraceOp::AdvanceCycles { .. }
            | TraceOp::RewindCycles { .. } => continue,
        };
        if let (b, stale, Some((r, c))) = evaluated {
            findings.push(Finding {
                pass: Pass::InitDiscipline,
                severity: Severity::Error,
                op_index: Some(i),
                message: format!(
                    "NOR evaluates into {stale} uninitialized cell(s), first at \
                     (block {b}, row {r}, col {c})"
                ),
            });
        }
    }
    findings
}

/// Pass 2: src/dst aliasing.
///
/// A NOR that names one of its own input cells as the destination reads and
/// overwrites the same device in one evaluation — electrically undefined on
/// the crossbar, and a bug in any netlist.
pub fn pass_aliasing(trace: &OpTrace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, op) in trace.ops.iter().enumerate() {
        let aliased: Option<String> = match op {
            TraceOp::NorRowsShifted {
                inputs,
                out,
                cols,
                shift,
            } => inputs
                .iter()
                .find(|&&(b, r)| {
                    // Output columns are `cols + shift`; with equal block and
                    // row the ranges overlap unless the shift moves the
                    // window entirely past itself.
                    (b, r) == *out && shift.unsigned_abs() < cols.len()
                })
                .map(|&(b, r)| format!("input row (block {b}, row {r}) is also the output row")),
            TraceOp::NorCols {
                input_cols,
                out_col,
                ..
            } => input_cols
                .contains(out_col)
                .then(|| format!("input column {out_col} is also the output column")),
            TraceOp::NorCells { inputs, out, .. } => inputs.contains(out).then(|| {
                format!(
                    "input cell (row {}, col {}) is also the output",
                    out.0, out.1
                )
            }),
            TraceOp::NorLanes {
                inputs, out, lanes, ..
            } => inputs
                .iter()
                .find(|&&(r, c)| r == out.0 && c.abs_diff(out.1) < *lanes)
                .map(|&(r, c)| format!("input span (row {r}, col {c}..) overlaps the output span")),
            _ => None,
        };
        if let Some(message) = aliased {
            findings.push(Finding {
                pass: Pass::Aliasing,
                severity: Severity::Error,
                op_index: Some(i),
                message,
            });
        }
    }
    findings
}

/// Pass 3: interconnect shift bounds.
///
/// A shifted NOR whose target column range leaves `0..trace.cols` would be
/// silently truncated (or rejected at runtime, depending on the sign); a
/// nonzero shift with all operands in the output's own block asks for a
/// barrel-shifter path that does not exist within a block. Both are
/// microprogram bugs independent of data.
pub fn pass_shift_bounds(trace: &OpTrace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, op) in trace.ops.iter().enumerate() {
        let TraceOp::NorRowsShifted {
            inputs,
            out,
            cols,
            shift,
        } = op
        else {
            continue;
        };
        let start = cols.start as isize + shift;
        let end = cols.end as isize + shift;
        if start < 0 || end > trace.cols as isize {
            findings.push(Finding {
                pass: Pass::ShiftBounds,
                severity: Severity::Error,
                op_index: Some(i),
                message: format!(
                    "shift {shift} moves column range {}..{} to {start}..{end}, \
                     outside the array's 0..{}",
                    cols.start, cols.end, trace.cols
                ),
            });
        }
        if *shift != 0 && inputs.iter().all(|&(b, _)| b == out.0) {
            findings.push(Finding {
                pass: Pass::ShiftBounds,
                severity: Severity::Error,
                op_index: Some(i),
                message: format!(
                    "shift {shift} stays within block {}: only the inter-block \
                     interconnect can shift",
                    out.0
                ),
            });
        }
    }
    findings
}

/// Pass 4: scratch-row lifetime.
///
/// Checks alloc/free pairing over the recorded allocator events: a row freed
/// twice or freed without ever being allocated is an error (the allocator
/// itself also rejects these at runtime — the pass sees the recorded
/// *attempt*); rows still live when the kernel exits are flagged as leaks.
pub fn pass_scratch_lifetime(events: &[AllocEvent]) -> Vec<Finding> {
    let mut live: BTreeSet<usize> = BTreeSet::new();
    let mut ever: HashSet<usize> = HashSet::new();
    let mut findings = Vec::new();
    for event in events {
        match *event {
            AllocEvent::Alloc { row } => {
                if !live.insert(row) {
                    findings.push(Finding {
                        pass: Pass::ScratchLifetime,
                        severity: Severity::Error,
                        op_index: None,
                        message: format!(
                            "scratch row {row} handed out twice without an intervening free"
                        ),
                    });
                }
                ever.insert(row);
            }
            AllocEvent::Free { row } => {
                if live.remove(&row) {
                    continue;
                }
                let message = if ever.contains(&row) {
                    format!("scratch row {row} freed twice")
                } else {
                    format!("scratch row {row} freed but never allocated")
                };
                findings.push(Finding {
                    pass: Pass::ScratchLifetime,
                    severity: Severity::Error,
                    op_index: None,
                    message,
                });
            }
        }
    }
    for row in live {
        findings.push(Finding {
            pass: Pass::ScratchLifetime,
            severity: Severity::Warning,
            op_index: None,
            message: format!("scratch row {row} still allocated at kernel exit (leak)"),
        });
    }
    findings
}

/// Pass 5: cycle-accounting consistency.
///
/// The recorded trace must account for exactly the cycles the analytic
/// [`apim_logic::CostModel`] predicts for the kernel — the paper's headline
/// numbers come from those closed forms, so a divergence means either the
/// netlist or the model is wrong.
pub fn pass_cycle_accounting(trace: &OpTrace, expected: u64) -> Vec<Finding> {
    let recorded = trace.cycles();
    if recorded == expected {
        return Vec::new();
    }
    vec![Finding {
        pass: Pass::CycleAccounting,
        severity: Severity::Error,
        op_index: None,
        message: format!(
            "trace accounts for {recorded} cycles but the cost model predicts {expected}"
        ),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(ops: Vec<TraceOp>) -> OpTrace {
        OpTrace {
            blocks: 4,
            rows: 16,
            cols: 16,
            ops,
        }
    }

    #[test]
    fn init_then_nor_is_clean_and_reuse_is_not() {
        let t = trace(vec![
            TraceOp::InitRows {
                block: 1,
                rows: vec![2],
                cols: 0..8,
            },
            TraceOp::NorRowsShifted {
                inputs: vec![(1, 0)],
                out: (1, 2),
                cols: 0..8,
                shift: 0,
            },
            // Second NOR into the same row without re-initializing.
            TraceOp::NorRowsShifted {
                inputs: vec![(1, 1)],
                out: (1, 2),
                cols: 0..8,
                shift: 0,
            },
        ]);
        let findings = pass_init_discipline(&t);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].op_index, Some(2));
    }

    #[test]
    fn preload_invalidates_initialization() {
        let t = trace(vec![
            TraceOp::InitCells {
                block: 0,
                cells: vec![(3, 3)],
            },
            TraceOp::PreloadBit {
                block: 0,
                row: 3,
                col: 3,
                value: false,
            },
            TraceOp::NorCells {
                block: 0,
                inputs: vec![(0, 0)],
                out: (3, 3),
            },
        ]);
        assert_eq!(pass_init_discipline(&t).len(), 1);
    }

    #[test]
    fn aliasing_detected_in_all_three_nor_forms() {
        let t = trace(vec![
            TraceOp::NorRowsShifted {
                inputs: vec![(0, 1), (0, 2)],
                out: (0, 2),
                cols: 0..4,
                shift: 0,
            },
            TraceOp::NorCols {
                block: 0,
                input_cols: vec![1, 5],
                out_col: 5,
                rows: 0..4,
            },
            TraceOp::NorCells {
                block: 0,
                inputs: vec![(1, 1)],
                out: (1, 1),
            },
        ]);
        assert_eq!(pass_aliasing(&t).len(), 3);
    }

    #[test]
    fn nor_lanes_tracks_init_and_aliasing_per_lane() {
        let t = trace(vec![
            TraceOp::InitRows {
                block: 0,
                rows: vec![4],
                cols: 0..4,
            },
            // Clean: all four output lanes armed, input spans disjoint.
            TraceOp::NorLanes {
                block: 0,
                inputs: vec![(0, 0), (1, 0)],
                out: (4, 0),
                lanes: 4,
            },
            // Init consumed: re-evaluating the same span is stale.
            TraceOp::NorLanes {
                block: 0,
                inputs: vec![(0, 0)],
                out: (4, 0),
                lanes: 4,
            },
        ]);
        let findings = pass_init_discipline(&t);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].op_index, Some(2));
        assert!(findings[0].message.contains("4 uninitialized"));

        // Same-row overlapping spans alias; same row disjoint spans do not.
        let t = trace(vec![
            TraceOp::NorLanes {
                block: 0,
                inputs: vec![(2, 2)],
                out: (2, 0),
                lanes: 4,
            },
            TraceOp::NorLanes {
                block: 0,
                inputs: vec![(2, 4)],
                out: (2, 0),
                lanes: 4,
            },
        ]);
        let findings = pass_aliasing(&t);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].op_index, Some(0));
        assert!(findings[0].message.contains("overlaps the output span"));
    }

    #[test]
    fn cross_block_same_row_is_not_aliasing() {
        let t = trace(vec![TraceOp::NorRowsShifted {
            inputs: vec![(0, 2)],
            out: (1, 2),
            cols: 0..4,
            shift: 0,
        }]);
        assert!(pass_aliasing(&t).is_empty());
    }

    #[test]
    fn shift_bounds_flags_underflow_overflow_and_intra_block() {
        let t = trace(vec![
            TraceOp::NorRowsShifted {
                inputs: vec![(0, 0)],
                out: (1, 1),
                cols: 0..4,
                shift: -1,
            },
            TraceOp::NorRowsShifted {
                inputs: vec![(0, 0)],
                out: (1, 1),
                cols: 12..16,
                shift: 2,
            },
            TraceOp::NorRowsShifted {
                inputs: vec![(1, 0)],
                out: (1, 1),
                cols: 0..4,
                shift: 1,
            },
        ]);
        let findings = pass_shift_bounds(&t);
        assert_eq!(findings.len(), 3);
        assert!(findings[2].message.contains("within block"));
    }

    #[test]
    fn lifetime_distinguishes_double_free_from_unallocated() {
        let events = [
            AllocEvent::Alloc { row: 3 },
            AllocEvent::Free { row: 3 },
            AllocEvent::Free { row: 3 },  // double free
            AllocEvent::Free { row: 9 },  // never allocated
            AllocEvent::Alloc { row: 4 }, // leaked
        ];
        let findings = pass_scratch_lifetime(&events);
        assert_eq!(findings.len(), 3);
        assert!(findings[0].message.contains("freed twice"));
        assert!(findings[1].message.contains("never allocated"));
        assert!(findings[2].message.contains("leak"));
        assert_eq!(findings[2].severity, Severity::Warning);
    }

    #[test]
    fn free_then_realloc_is_clean() {
        let events = [
            AllocEvent::Alloc { row: 0 },
            AllocEvent::Free { row: 0 },
            AllocEvent::Alloc { row: 0 },
            AllocEvent::Free { row: 0 },
        ];
        assert!(pass_scratch_lifetime(&events).is_empty());
    }

    #[test]
    fn cycle_accounting_compares_against_expectation() {
        let t = trace(vec![
            TraceOp::NorCells {
                block: 0,
                inputs: vec![(0, 0)],
                out: (1, 0),
            },
            TraceOp::AdvanceCycles { cycles: 4 },
        ]);
        assert!(pass_cycle_accounting(&t, 5).is_empty());
        let findings = pass_cycle_accounting(&t, 6);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("5 cycles"));
    }

    #[test]
    fn verify_trace_bundles_and_ranks() {
        let t = trace(vec![TraceOp::NorCells {
            block: 0,
            inputs: vec![(1, 1)],
            out: (1, 1),
        }]);
        let events = [AllocEvent::Alloc { row: 2 }];
        let report = verify_trace(&t, &events, Some(1));
        // aliasing error + init error + leak warning; cycles match.
        assert_eq!(report.error_count(), 2);
        assert_eq!(report.warning_count(), 1);
        assert_eq!(
            report.findings().last().unwrap().pass,
            Pass::ScratchLifetime
        );
    }
}
