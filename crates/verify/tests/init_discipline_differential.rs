//! Differential test of the dense-bitset init-discipline pass against
//! `init_discipline_oracle`, the original `HashSet` pass kept verbatim in
//! `support/`. The two must agree finding for finding — pass, severity,
//! op index, stale-cell count and first stale cell — on random traces
//! (out-of-range coordinates, negative and positive shifts, duplicate and
//! overlapping cells, empty and reversed ranges, `NorLanes` spans), on
//! every kernel `apim-cli verify --all` sweeps, and on lane-batched
//! sharpen/Sobel passes.

#[path = "support/init_discipline_oracle.rs"]
mod oracle;

use std::collections::HashMap;

use apim_compile::{compile_batched, CompileOptions, Dag};
use apim_crossbar::{OpTrace, TraceOp};
use apim_verify::{
    pass_aliasing, pass_init_discipline, pass_shift_bounds, record_kernel, verify_trace, Kernel,
    LintReport, Pass, DEFAULT_WIDTHS,
};
use oracle::init_discipline_oracle;

/// SplitMix64: one seed → a reproducible stream of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Recorded geometry of the random traces; coordinates range past it.
const BLOCKS: usize = 2;
const ROWS: usize = 6;
const COLS: usize = 64;

/// A column range over `0..COLS + 80`: usually forward, sometimes empty
/// or reversed.
fn cols(rng: &mut Rng) -> std::ops::Range<usize> {
    let start = rng.below(COLS + 80);
    match rng.below(8) {
        0 => start..start,
        1 => start..start.saturating_sub(1 + rng.below(8)),
        _ => start..start + rng.below(140),
    }
}

fn random_op(rng: &mut Rng) -> TraceOp {
    let block = rng.below(BLOCKS + 2);
    let row = rng.below(ROWS + 3);
    let col = rng.below(COLS + 80);
    let cell = |rng: &mut Rng| (rng.below(ROWS + 3), rng.below(COLS + 80));
    match rng.below(14) {
        0 | 1 => TraceOp::InitRows {
            block,
            rows: (0..rng.below(4)).map(|_| rng.below(ROWS + 3)).collect(),
            cols: cols(rng),
        },
        2 => TraceOp::InitCells {
            block,
            cells: (0..rng.below(6)).map(|_| cell(rng)).collect(),
        },
        3 => TraceOp::InitCols {
            block,
            cols: (0..rng.below(4)).map(|_| rng.below(COLS + 80)).collect(),
            rows: {
                let r = rng.below(ROWS + 3);
                r..r + rng.below(5)
            },
        },
        4 => TraceOp::PreloadBit {
            block,
            row,
            col,
            value: rng.below(2) == 1,
        },
        5 => TraceOp::PreloadWord {
            block,
            row,
            col0: col,
            bits: vec![true; rng.below(70)],
        },
        6 => TraceOp::WriteBackBit {
            block,
            row,
            col,
            value: false,
        },
        7 | 8 => TraceOp::NorRowsShifted {
            inputs: vec![(rng.below(BLOCKS), rng.below(ROWS))],
            out: (block, row),
            cols: cols(rng),
            shift: rng.below(141) as isize - 70,
        },
        9 => TraceOp::NorCols {
            block,
            input_cols: vec![rng.below(COLS)],
            out_col: col,
            rows: {
                let r = rng.below(ROWS + 3);
                r..r + rng.below(5)
            },
        },
        10 => TraceOp::NorCells {
            block,
            inputs: vec![cell(rng)],
            out: (row, col),
        },
        11 | 12 => TraceOp::NorLanes {
            block,
            inputs: vec![cell(rng)],
            out: (row, col),
            lanes: rng.below(71),
        },
        _ => match rng.below(3) {
            0 => TraceOp::ReadBit { block, row, col },
            1 => TraceOp::MajRead {
                block,
                cells: [cell(rng), cell(rng), cell(rng)],
            },
            _ => TraceOp::AdvanceCycles { cycles: 1 },
        },
    }
}

/// Asserts the new pass matches the oracle on `trace`, and that the
/// bundled report equals one built around the oracle's findings.
fn assert_agrees(trace: &OpTrace, what: &str) {
    let oracle = init_discipline_oracle(trace);
    assert_eq!(pass_init_discipline(trace), oracle, "{what}");
    let mut findings = oracle;
    findings.extend(pass_aliasing(trace));
    findings.extend(pass_shift_bounds(trace));
    assert_eq!(
        verify_trace(trace, &[], None).findings(),
        LintReport::from_findings(findings).findings(),
        "{what}"
    );
}

#[test]
fn random_traces_match_the_oracle() {
    let mut dirty = 0;
    let mut clean_nors = 0;
    for seed in 0..400u64 {
        let mut rng = Rng(seed);
        let trace = OpTrace {
            blocks: BLOCKS,
            rows: ROWS,
            cols: COLS,
            ops: (0..1 + rng.below(60))
                .map(|_| random_op(&mut rng))
                .collect(),
        };
        assert_agrees(&trace, &format!("seed {seed}"));
        let findings = init_discipline_oracle(&trace).len();
        dirty += usize::from(findings > 0);
        let nors = trace
            .ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    TraceOp::NorRowsShifted { .. }
                        | TraceOp::NorCols { .. }
                        | TraceOp::NorCells { .. }
                        | TraceOp::NorLanes { .. }
                )
            })
            .count();
        clean_nors += nors.saturating_sub(findings);
    }
    // The generator must reach both verdicts, not just one.
    assert!(dirty > 100, "only {dirty} traces with findings");
    assert!(clean_nors > 100, "only {clean_nors} clean NORs");
}

#[test]
fn every_swept_kernel_matches_the_oracle() {
    for kernel in Kernel::ALL {
        for width in DEFAULT_WIDTHS {
            let recorded = record_kernel(kernel, width).unwrap();
            let what = format!("{} at {width}", kernel.name());
            assert!(init_discipline_oracle(&recorded.trace).is_empty(), "{what}");
            assert_agrees(&recorded.trace, &what);
            // Dirty variants: drop one initialization at a time.
            let inits: Vec<usize> = (0..recorded.trace.ops.len())
                .filter(|&i| {
                    matches!(
                        recorded.trace.ops[i],
                        TraceOp::InitRows { .. }
                            | TraceOp::InitCells { .. }
                            | TraceOp::InitCols { .. }
                    )
                })
                .collect();
            for &drop in inits.iter().step_by(inits.len().div_ceil(12).max(1)) {
                let mut trace = recorded.trace.clone();
                trace.ops.remove(drop);
                assert_agrees(&trace, &format!("{what} without op {drop}"));
            }
        }
    }
}

fn lane_bindings(dag: &Dag, lanes: usize, seed: u64) -> Vec<HashMap<String, u64>> {
    let mut rng = Rng(seed);
    (0..lanes)
        .map(|_| {
            dag.inputs()
                .iter()
                .map(|name| (name.to_string(), rng.next() & 0xFF))
                .collect()
        })
        .collect()
}

#[test]
fn lane_batched_image_kernels_match_the_oracle() {
    let kernels = [
        ("sharpen", apim_workloads::dags::sharpen_dag()),
        ("sobel", apim_workloads::dags::sobel_gradient_dag()),
    ];
    for (name, dag) in kernels {
        for lanes in [2, 8, 64] {
            let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
            let trace = program
                .record(&lane_bindings(&dag, lanes, lanes as u64))
                .unwrap();
            let what = format!("{name} at {lanes} lanes");
            assert_agrees(&trace, &what);
            let first_init = trace
                .ops
                .iter()
                .position(|op| matches!(op, TraceOp::InitRows { .. }))
                .unwrap();
            let mut dirty = trace.clone();
            dirty.ops.remove(first_init);
            let findings = init_discipline_oracle(&dirty);
            assert!(
                findings.iter().any(|f| f.pass == Pass::InitDiscipline),
                "{what}"
            );
            assert_agrees(&dirty, &format!("{what} without op {first_init}"));
        }
    }
}
