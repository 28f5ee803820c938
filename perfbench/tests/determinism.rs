//! The request set is a pure function of the workload and the seed, a
//! run's simulated cost and error rate repeat exactly for one seed, and a
//! traced run reports every per-layer metric.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use apim_perfbench::{frames, gen, run, Metric, Outcome, RunConfig, Workload, PER_LAYER};

/// Runs `config`, trying again after an invalid run. A run is invalid
/// when the machine held the load thread up long enough to change what
/// was measured (a `frames` tile popped before it was fully queued, an
/// open loop behind its schedule); such a run reports no figures, so it
/// says nothing about determinism.
fn valid_run(config: &RunConfig) -> Outcome {
    let mut invalid = Vec::new();
    for _ in 0..3 {
        match run(config) {
            Ok(outcome) => return outcome,
            Err(e) if e.starts_with("invalid run") => invalid.push(e),
            Err(e) => panic!("{}: {e}", config.workload.name()),
        }
    }
    panic!(
        "{}: three invalid runs: {invalid:?}",
        config.workload.name()
    );
}

#[test]
fn one_seed_gives_one_request_set_and_another_seed_another() {
    let frames = |seed| gen::frames_digest(&gen::frames(seed, 2, 8, 8).expect("frames set"));
    assert_eq!(frames(7), frames(7));
    assert_ne!(frames(7), frames(8));

    let programs = |seed| gen::programs_digest(&gen::programs(seed, 0, 40).expect("programs set"));
    assert_eq!(programs(7), programs(7));
    assert_ne!(programs(7), programs(8));

    let rpc = |seed| gen::rpc_digest(&gen::rpc(seed, 400, 2000.0));
    assert_eq!(rpc(7), rpc(7));
    assert_ne!(rpc(7), rpc(8));
}

#[test]
fn longer_sets_extend_shorter_ones() {
    let short = gen::programs(3, 0, 10).expect("programs set");
    let long = gen::programs(3, 0, 20).expect("programs set");
    assert_eq!(
        gen::programs_digest(&short),
        gen::programs_digest(&long[..10])
    );
    let short = gen::rpc(3, 50, 2000.0);
    let long = gen::rpc(3, 100, 2000.0);
    assert_eq!(gen::rpc_digest(&short), gen::rpc_digest(&long[..50]));
}

fn sim_cycles(metrics: &[Metric]) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == "sim_cycles_per_req")
        .expect("end-to-end metrics carry sim_cycles_per_req")
        .value
}

#[test]
fn same_seed_repeats_simulated_cost_and_error_rate() {
    for (workload, seconds) in [
        (Workload::Frames, 0.1),
        (Workload::Programs, 0.3),
        (Workload::RpcOpen, 0.3),
    ] {
        let config = RunConfig {
            workload,
            seed: 11,
            seconds,
            trace: false,
            spans_path: None,
        };
        let first = valid_run(&config);
        let second = valid_run(&config);
        let name = workload.name();
        assert!(first.correct(), "{name}: {:?}", first.tally);
        assert_eq!(first.tally, second.tally, "{name}: outcomes differ");
        assert_eq!(first.tally.error_rate(), 0.0, "{name}");
        assert_eq!(
            sim_cycles(&first.metrics),
            sim_cycles(&second.metrics),
            "{name}: simulated cost differs"
        );
        assert!(sim_cycles(&first.metrics) > 0.0, "{name}");
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in Workload::ALL {
        let config = RunConfig {
            workload,
            seed: 5,
            seconds: 0.3,
            trace: true,
            spans_path: None,
        };
        let outcome = valid_run(&config);
        let name = workload.name();
        assert!(outcome.correct(), "{name}: {:?}", outcome.tally);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{name}");
        if workload == Workload::Frames {
            let lanes = outcome
                .metrics
                .iter()
                .find(|m| m.name == "serve.lanes_per_pass")
                .expect("serve.lanes_per_pass")
                .value;
            assert_eq!(
                lanes,
                frames::tile_len() as f64,
                "frames: a pass was not one whole tile"
            );
            assert!(
                outcome
                    .notes
                    .iter()
                    .any(|n| n.contains("in-program tracing")),
                "frames: the note on the execute/lint split is missing"
            );
        }
    }
}
