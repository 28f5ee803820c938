//! The differential oracle for `apim_verify::pass_init_discipline`: the
//! original cell-at-a-time pass over a `HashSet` of armed cells, kept
//! verbatim so the dense-bitset pass can be checked finding for finding.
//! Included by path from the tests that compare against it; not a test
//! target of its own.

use std::collections::HashSet;

use apim_crossbar::{OpTrace, TraceOp};
use apim_verify::{Finding, Pass, Severity};

/// The cells a NOR evaluation writes, as `(block, row, col)` triples.
/// Columns the shift pushes below zero are skipped here — the shift-bounds
/// pass owns that diagnosis.
fn nor_outputs(op: &TraceOp) -> Vec<(usize, usize, usize)> {
    match op {
        TraceOp::NorRowsShifted {
            out, cols, shift, ..
        } => cols
            .clone()
            .filter_map(|c| {
                let target = c as isize + shift;
                (target >= 0).then_some((out.0, out.1, target as usize))
            })
            .collect(),
        TraceOp::NorCols {
            block,
            out_col,
            rows,
            ..
        } => rows.clone().map(|r| (*block, r, *out_col)).collect(),
        TraceOp::NorCells { block, out, .. } => vec![(*block, out.0, out.1)],
        TraceOp::NorLanes {
            block, out, lanes, ..
        } => (0..*lanes).map(|j| (*block, out.0, out.1 + j)).collect(),
        _ => Vec::new(),
    }
}

/// Init-before-NOR discipline, one `HashSet` insert or remove per cell.
pub fn init_discipline_oracle(trace: &OpTrace) -> Vec<Finding> {
    let mut armed: HashSet<(usize, usize, usize)> = HashSet::new();
    let mut findings = Vec::new();
    for (i, op) in trace.ops.iter().enumerate() {
        match op {
            TraceOp::InitRows { block, rows, cols } => {
                for &r in rows {
                    for c in cols.clone() {
                        armed.insert((*block, r, c));
                    }
                }
            }
            TraceOp::InitCells { block, cells } => {
                for &(r, c) in cells {
                    armed.insert((*block, r, c));
                }
            }
            TraceOp::InitCols { block, cols, rows } => {
                for &c in cols {
                    for r in rows.clone() {
                        armed.insert((*block, r, c));
                    }
                }
            }
            TraceOp::PreloadBit {
                block, row, col, ..
            } => {
                armed.remove(&(*block, *row, *col));
            }
            TraceOp::PreloadWord {
                block,
                row,
                col0,
                bits,
            } => {
                for c in *col0..col0 + bits.len() {
                    armed.remove(&(*block, *row, c));
                }
            }
            TraceOp::WriteBackBit {
                block, row, col, ..
            } => {
                armed.remove(&(*block, *row, *col));
            }
            TraceOp::NorRowsShifted { .. }
            | TraceOp::NorCols { .. }
            | TraceOp::NorCells { .. }
            | TraceOp::NorLanes { .. } => {
                let outputs = nor_outputs(op);
                let stale: Vec<_> = outputs.iter().filter(|c| !armed.contains(c)).collect();
                if let Some(&&(b, r, c)) = stale.first() {
                    findings.push(Finding {
                        pass: Pass::InitDiscipline,
                        severity: Severity::Error,
                        op_index: Some(i),
                        message: format!(
                            "NOR evaluates into {} uninitialized cell(s), first at \
                             (block {b}, row {r}, col {c})",
                            stale.len()
                        ),
                    });
                }
                // Evaluation consumes the initialization.
                for cell in outputs {
                    armed.remove(&cell);
                }
            }
            TraceOp::ReadBit { .. }
            | TraceOp::MajRead { .. }
            | TraceOp::AdvanceCycles { .. }
            | TraceOp::RewindCycles { .. } => {}
        }
    }
    findings
}
