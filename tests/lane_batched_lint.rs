//! Lane-batched image kernels end to end, at 8 and 64 lanes: every lane
//! reads back its pure-integer reference, the crossbar charges exactly the
//! closed-form cycles, and the recorded trace lints clean. A trace with
//! one initialization dropped draws the same init-discipline error from
//! the dense-bitset pass as from the original `HashSet` oracle.

#[path = "../crates/verify/tests/support/init_discipline_oracle.rs"]
mod oracle;

use std::collections::HashMap;

use apim_compile::{compile_batched, CompileOptions, Dag};
use apim_crossbar::TraceOp;
use apim_verify::{verify_trace, Pass, Severity};
use apim_workloads::dags::{sharpen_dag, sobel_gradient_dag};
use oracle::init_discipline_oracle;

/// Per-lane tap bindings: 8-bit pixel values varied by lane and tap, so
/// no two lanes agree.
fn bindings(dag: &Dag, lanes: usize) -> Vec<HashMap<String, u64>> {
    (0..lanes as u64)
        .map(|lane| {
            dag.inputs()
                .iter()
                .zip(0u64..)
                .map(|(name, tap)| (name.to_string(), (lane * 37 + tap * 11) % 256))
                .collect()
        })
        .collect()
}

fn kernels() -> [(&'static str, Dag); 2] {
    [("sharpen", sharpen_dag()), ("sobel", sobel_gradient_dag())]
}

#[test]
fn lane_batched_kernels_are_exact_on_budget_and_lint_clean() {
    for (name, dag) in kernels() {
        for lanes in [8, 64] {
            let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
            let report = program.run(&bindings(&dag, lanes)).unwrap();
            assert_eq!(report.values, report.references, "{name} at {lanes} lanes");
            assert_eq!(
                report.cycles, report.expected_cycles,
                "{name} at {lanes} lanes"
            );
            assert!(
                report.lint.is_clean(),
                "{name} at {lanes} lanes:\n{}",
                report.lint
            );
        }
    }
}

#[test]
fn dropped_init_draws_the_oracles_init_discipline_error() {
    for (name, dag) in kernels() {
        for lanes in [8, 64] {
            let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
            let mut trace = program.record(&bindings(&dag, lanes)).unwrap();
            let dropped = trace
                .ops
                .iter()
                .position(|op| matches!(op, TraceOp::InitRows { .. }))
                .expect("batched kernels initialize rows");
            trace.ops.remove(dropped);
            let expected = init_discipline_oracle(&trace);
            assert!(!expected.is_empty(), "{name} at {lanes} lanes");
            let lint = verify_trace(&trace, &[], None);
            let found: Vec<_> = lint
                .findings()
                .iter()
                .filter(|f| f.pass == Pass::InitDiscipline)
                .cloned()
                .collect();
            assert_eq!(found, expected, "{name} at {lanes} lanes");
            assert_eq!(found[0].severity, Severity::Error);
        }
    }
}
