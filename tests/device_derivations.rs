//! The VTEAM model is integrated once per device, not once per compile,
//! per crossbar or per served request.
//!
//! [`apim_device::energy::derivations`] counts integrations process-wide,
//! so the cases share a lock: a concurrent case's derivations would land
//! in the other's count.

use std::collections::HashMap;
use std::sync::Mutex;

use apim_compile::{compile, compile_batched, CompileOptions};
use apim_device::energy::derivations;
use apim_serve::{JobKind, JobOutput, Pool, PoolConfig, Request};
use apim_workloads::dags::sharpen_dag;

static COUNTING: Mutex<()> = Mutex::new(());

/// Integrations performed while `work` runs.
fn derived_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let _only = COUNTING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let before = derivations();
    let out = work();
    (derivations() - before, out)
}

#[test]
fn compiling_sharpen_and_a_hundred_runs_derive_the_device_once() {
    let (derived, (serial, batched)) = derived_during(|| {
        let options = CompileOptions::default();
        let dag = sharpen_dag();
        let serial = compile(&dag, &options).unwrap();
        let batched = compile_batched(&dag, &options, 64).unwrap();
        let taps: HashMap<String, u64> = dag
            .inputs()
            .iter()
            .zip([100, 3, 5, 7, 11])
            .map(|(name, tap)| (name.to_string(), tap))
            .collect();
        let lanes = vec![taps.clone(); 64];
        let runs: Vec<_> = (0..50)
            .map(|_| (serial.run(&taps).unwrap(), batched.run(&lanes).unwrap()))
            .collect();
        runs.into_iter().last().unwrap()
    });
    assert_eq!(
        derived, 1,
        "CompileOptions::default() derives; nothing after it does"
    );
    assert_eq!(serial.cycles, 3882);
    assert_eq!(batched.values, vec![serial.value; 64]);
}

#[test]
fn a_pool_serving_compile_jobs_derives_no_more_than_once_per_worker() {
    const WORKERS: usize = 2;
    let (derived, answers) = derived_during(|| {
        let pool = Pool::new(PoolConfig {
            workers: WORKERS,
            ..PoolConfig::default()
        })
        .unwrap();
        let handles: Vec<_> = (0..100)
            .map(|k| {
                let source = format!("width 16\nout a * {}", k + 2);
                pool.submit(Request::new(JobKind::Compile { source }))
                    .unwrap()
            })
            .collect();
        let answers: Vec<u64> = handles
            .into_iter()
            .map(|handle| match handle.wait().result {
                Ok(JobOutput::Compile { value, .. }) => value,
                other => panic!("compile job answered {other:?}"),
            })
            .collect();
        pool.shutdown();
        answers
    });
    // Within the once-per-worker bound: the one derivation is
    // `PoolConfig::default()`'s device; the pool start, its workers and
    // the 100 compiles and runs copy it.
    assert_eq!(derived, 1);
    // Input `a` is bound to 1.
    assert_eq!(answers, (2..102).collect::<Vec<u64>>());
}
