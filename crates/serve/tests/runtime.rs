//! Multi-thread integration tests of the serving runtime: admission
//! control under pressure, drain/shutdown completeness, panic isolation,
//! retry/backoff, deadlines and loadgen determinism.

use apim::App;
use apim_serve::{loadgen, FaultPlan, JobKind, Pool, PoolConfig, Request, ServeError, TenantId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A moderately expensive request (~ms of kernel work) for queue-pressure
/// tests.
fn run_request(app: App) -> Request {
    Request::new(JobKind::Run {
        app,
        dataset_bytes: 64 << 20,
    })
}

fn small_pool(workers: usize, queue_depth: usize) -> Pool {
    Pool::new(PoolConfig {
        workers,
        queue_depth,
        max_batch: 4,
        ..PoolConfig::default()
    })
    .expect("valid pool")
}

#[test]
fn queue_fills_to_overloaded_and_drain_loses_nothing() {
    let pool = Arc::new(small_pool(2, 4));
    let max_depth_seen = Arc::new(AtomicUsize::new(0));
    // Four producers race 25 submissions each against two slow workers.
    let mut accepted_handles = Vec::new();
    let mut rejected = 0usize;
    std::thread::scope(|scope| {
        let mut producers = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let max_depth_seen = Arc::clone(&max_depth_seen);
            producers.push(scope.spawn(move || {
                let mut handles = Vec::new();
                let mut rejections = 0usize;
                for _ in 0..25 {
                    max_depth_seen.fetch_max(pool.queue_depth(), Ordering::Relaxed);
                    match pool.submit(run_request(App::Fft)) {
                        Ok(handle) => handles.push(handle),
                        Err(e) => {
                            assert!(
                                matches!(e, ServeError::Overloaded { depth: 4 }),
                                "unexpected rejection {e:?}"
                            );
                            rejections += 1;
                        }
                    }
                }
                (handles, rejections)
            }));
        }
        for producer in producers {
            let (handles, rejections) = producer.join().unwrap();
            accepted_handles.extend(handles);
            rejected += rejections;
        }
    });
    assert!(rejected > 0, "4 producers vs depth-4 queue must overload");
    assert!(
        max_depth_seen.load(Ordering::Relaxed) <= 4,
        "queue depth stayed bounded"
    );
    pool.drain();
    // Every accepted request is answered, successfully, exactly once.
    let accepted = accepted_handles.len();
    for handle in accepted_handles {
        let response = handle.try_wait().expect("drained pool answered everything");
        assert!(response.result.is_ok(), "{:?}", response.result);
    }
    let snapshot = pool.metrics().snapshot();
    assert_eq!(snapshot.accepted, accepted as u64);
    assert_eq!(snapshot.completed, accepted as u64);
    assert_eq!(snapshot.rejected, rejected as u64);
    assert_eq!(snapshot.failed, 0);
    assert_eq!(snapshot.queue_depth, 0);
}

#[test]
fn shutdown_answers_the_entire_backlog() {
    let pool = small_pool(2, 64);
    let handles: Vec<_> = (0..32)
        .map(|_| pool.submit(run_request(App::QuasiRandom)).expect("room"))
        .collect();
    pool.shutdown();
    for handle in handles {
        let response = handle.try_wait().expect("shutdown completed the backlog");
        assert!(response.result.is_ok());
    }
}

#[test]
fn panicking_worker_neither_deadlocks_nor_loses_requests() {
    let pool = Pool::new(PoolConfig {
        workers: 3,
        queue_depth: 64,
        max_retries: 3,
        retry_backoff: Duration::from_micros(100),
        fault: FaultPlan::PanicEvery(3),
        ..PoolConfig::default()
    })
    .expect("valid pool");
    let handles: Vec<_> = (0..30)
        .map(|_| pool.submit(run_request(App::QuasiRandom)).expect("room"))
        .collect();
    let mut completed = 0u64;
    let mut panicked = 0u64;
    for handle in handles {
        match handle.wait().result {
            Ok(_) => completed += 1,
            Err(ServeError::WorkerPanicked) => panicked += 1,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert_eq!(completed + panicked, 30, "every request answered");
    assert!(completed > 0, "retries recover most injected panics");
    let snapshot = pool.metrics().snapshot();
    assert_eq!(snapshot.completed, completed);
    assert_eq!(snapshot.failed, panicked);
    assert!(snapshot.retries > 0, "panics triggered the retry path");
    pool.shutdown();
}

#[test]
fn injected_faults_are_retried_with_backoff() {
    let pool = Pool::new(PoolConfig {
        workers: 1,
        queue_depth: 16,
        max_retries: 4,
        retry_backoff: Duration::from_micros(50),
        fault: FaultPlan::FailEvery(2),
        ..PoolConfig::default()
    })
    .expect("valid pool");
    let handles: Vec<_> = (0..10)
        .map(|i| {
            pool.submit(Request::new(JobKind::Multiply { a: i, b: i + 1 }))
                .expect("room")
        })
        .collect();
    for handle in handles {
        let response = handle.wait();
        // Every 2nd attempt fails, so every request eventually succeeds
        // within one retry.
        assert!(response.result.is_ok(), "{:?}", response.result);
        assert!(response.attempts <= 2);
    }
    assert!(pool.metrics().snapshot().retries > 0);
    pool.shutdown();
}

#[test]
fn expired_deadline_is_a_structured_error() {
    let pool = small_pool(1, 16);
    // Stall the single worker, then submit a request that expires in the
    // queue behind it.
    let stall = pool.submit(run_request(App::Fft)).expect("room");
    let doomed = pool
        .submit(Request::new(JobKind::Multiply { a: 1, b: 2 }).deadline(Duration::from_nanos(1)))
        .expect("room");
    assert!(matches!(
        doomed.wait().result,
        Err(ServeError::DeadlineExceeded)
    ));
    assert!(stall.wait().result.is_ok());
    pool.shutdown();
}

#[test]
fn tenant_quota_rejects_the_greedy_tenant_only() {
    let pool = Pool::new(PoolConfig {
        workers: 1,
        queue_depth: 16,
        per_tenant_quota: Some(2),
        ..PoolConfig::default()
    })
    .expect("valid pool");
    // Stall the worker so submissions stay queued.
    let stall = pool.submit(run_request(App::Fft)).expect("room");
    let greedy = TenantId(1);
    let mut results = Vec::new();
    for _ in 0..4 {
        results.push(pool.submit(Request::new(JobKind::Multiply { a: 1, b: 2 }).tenant(greedy)));
    }
    let quota_rejections = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::QuotaExceeded { tenant }) if *tenant == greedy))
        .count();
    assert!(quota_rejections > 0, "tenant 1 exceeded its 2-slot quota");
    // A different tenant still gets in.
    let other = pool
        .submit(Request::new(JobKind::Multiply { a: 3, b: 4 }).tenant(TenantId(2)))
        .expect("other tenants unaffected");
    pool.drain();
    assert!(other.wait().result.is_ok());
    assert!(stall.wait().result.is_ok());
    pool.shutdown();
}

#[test]
fn batches_coalesce_same_key_requests() {
    let pool = Pool::new(PoolConfig {
        workers: 1,
        queue_depth: 64,
        max_batch: 8,
        ..PoolConfig::default()
    })
    .expect("valid pool");
    // Stall the worker, then enqueue 8 identical-key requests: they should
    // ride in far fewer than 8 batches.
    let stall = pool.submit(run_request(App::Fft)).expect("room");
    let handles: Vec<_> = (0..8)
        .map(|_| pool.submit(run_request(App::QuasiRandom)).expect("room"))
        .collect();
    for handle in handles {
        assert!(handle.wait().result.is_ok());
    }
    assert!(stall.wait().result.is_ok());
    let snapshot = pool.metrics().snapshot();
    assert!(
        snapshot.coalesced >= 2,
        "same-key requests shared a batch: {snapshot:?}"
    );
    assert!(
        snapshot.batches < 9,
        "8 same-key requests + 1 stall took {} batches",
        snapshot.batches
    );
    pool.shutdown();
}

#[test]
fn transcendental_compile_requests_serve_end_to_end() {
    // Request lines carrying sin/sqrt programs go through admission
    // parsing, worker-side compilation (CORDIC / restoring-isqrt
    // expansion) and gate-level execution — the full compile→verify→serve
    // path for the transcendental kernels. Unbound inputs default to
    // their declaration index + 1, well inside both domains.
    let pool = small_pool(2, 8);
    let lines = [
        "@1 compile width 10; in x; out sin(x)",
        "@2 compile width 12; in x; out sqrt(x) + 1",
        "@3 compile width 10; math lut 2; in x; out cos(x)",
    ];
    let handles: Vec<_> = lines
        .iter()
        .map(|line| {
            let request = Request::parse_line(line).expect("admission parse");
            pool.submit(request).expect("room")
        })
        .collect();
    pool.drain();
    for handle in handles {
        let response = handle.try_wait().expect("drained pool answered");
        let output = response.result.expect("compiled program served");
        let summary = output.summary();
        assert!(summary.contains("compiled"), "{summary}");
        assert!(summary.contains("cycles"), "{summary}");
    }
    pool.shutdown();
}

#[test]
fn zero_workers_is_a_structured_error() {
    let err = Pool::new(PoolConfig {
        workers: 0,
        ..PoolConfig::default()
    })
    .unwrap_err();
    assert!(err.to_string().contains("zero"), "{err}");
}

#[test]
fn loadgen_is_deterministic_across_seeds_and_worker_counts() {
    let run = |workers: usize| {
        loadgen::run(&loadgen::LoadgenConfig {
            requests: 40,
            seed: 11,
            pool: PoolConfig {
                workers,
                queue_depth: 64, // ≥ requests: nothing rejected
                ..PoolConfig::default()
            },
        })
        .expect("loadgen runs")
    };
    let a = run(2);
    let b = run(2);
    let c = run(4);
    assert_eq!(a.accepted, 40);
    assert_eq!(a.failed, 0);
    assert_eq!(a.checksum, b.checksum, "same seed, same workers");
    assert_eq!(
        a.checksum, c.checksum,
        "results do not depend on scheduling"
    );
    assert_eq!(a.completed, c.completed);

    let other_seed = loadgen::run(&loadgen::LoadgenConfig {
        requests: 40,
        seed: 12,
        pool: PoolConfig {
            workers: 2,
            queue_depth: 64,
            ..PoolConfig::default()
        },
    })
    .expect("loadgen runs");
    assert_ne!(a.checksum, other_seed.checksum, "seed changes the mix");
}

/// The acceptance-criteria perf gate: ≥ 4 workers achieve ≥ 2× the
/// throughput of 1 worker on the same seeded mix. Ignored by default
/// (timing-sensitive); CI runs it in release via the serve-smoke step.
#[test]
#[ignore = "timing-sensitive; run explicitly (CI serve-smoke, --release)"]
fn perf_4_workers_at_least_2x_1_worker() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping scaling gate: {cores} core(s) available, need >= 4");
        return;
    }
    let run = |workers: usize| {
        loadgen::run(&loadgen::LoadgenConfig {
            requests: 200,
            seed: 7,
            pool: PoolConfig {
                workers,
                queue_depth: 1024,
                ..PoolConfig::default()
            },
        })
        .expect("loadgen runs")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.completed, parallel.completed, "same accepted work");
    assert!(
        parallel.throughput_rps >= 2.0 * serial.throughput_rps,
        "wanted ≥2x: 1 worker {:.1} req/s, 4 workers {:.1} req/s",
        serial.throughput_rps,
        parallel.throughput_rps
    );
}

/// Varied sharpen pixel requests: small positive taps with the center
/// dominating, so the exact Q12 kernel reduces to `5c − (n+w+e+s)`.
fn sharpen_pixels(count: usize) -> Vec<Request> {
    (0..count as u64)
        .map(|i| {
            Request::new(JobKind::Pixel {
                app: App::Sharpen,
                taps: vec![100 + i, 3 + i, 5 + i, 7 + i, 11 + i],
            })
        })
        .collect()
}

/// The serial oracle, independent of the pool: each pixel compiled on its
/// own with `apim_compile::compile` and gate-executed in one serial pass,
/// its value checked against the pure-integer evaluator.
fn compiled_oracle(requests: &[Request]) -> Vec<apim_serve::JobOutput> {
    requests
        .iter()
        .map(|request| {
            let JobKind::Pixel { app, taps } = &request.kind else {
                panic!("the oracle answers pixels only: {request:?}")
            };
            let dag = match app {
                App::Sharpen => apim_workloads::dags::sharpen_dag(),
                App::Sobel => apim_workloads::dags::sobel_gradient_dag(),
                other => panic!("{other:?} has no pixel kernel"),
            };
            let inputs: std::collections::HashMap<String, u64> = dag
                .inputs()
                .iter()
                .zip(taps)
                .map(|(name, &tap)| (name.to_string(), tap))
                .collect();
            let options = apim_compile::CompileOptions::default();
            let report = apim_compile::compile(&dag, &options)
                .expect("pixel kernel compiles")
                .run(&inputs)
                .expect("pixel kernel runs");
            let expected = apim_compile::evaluate(&dag, &inputs).expect("taps bind every input");
            assert_eq!(report.value, expected, "gate level vs evaluator");
            apim_serve::JobOutput::Pixel {
                value: report.value,
                cycles: report.cycles,
                lanes: 1,
            }
        })
        .collect()
}

/// The lane-batched coalescer satellite gate: the same pixel workload run
/// through the pool (one `compile_batched` pass per `(app, mode)` group)
/// and the serial oracle (one compiled pass per pixel, outside the pool)
/// yields bit-identical values and digests, the pool actually
/// lane-batches, and the whole batch finishes faster than the oracle.
#[test]
fn lane_batched_pixels_match_serial_digests_and_cut_latency() {
    use apim_serve::{loadgen::output_digest, JobOutput};
    use std::time::Instant;

    let mut requests = sharpen_pixels(24);
    for i in 0..12u64 {
        requests.push(Request::new(JobKind::Pixel {
            app: App::Sobel,
            taps: vec![1 + i, 40 + i, 2 + i, 50 + i, 3 + i, 60 + i],
        }));
    }
    let pool = Pool::new(PoolConfig {
        workers: 1,
        max_batch: 64,
        ..PoolConfig::default()
    })
    .expect("valid pool");
    let started = Instant::now();
    let fast = pool.run_all(requests.clone()).expect("fast run_all");
    let fast_elapsed = started.elapsed();
    let started = Instant::now();
    let slow = compiled_oracle(&requests);
    let slow_elapsed = started.elapsed();

    assert_eq!(fast.len(), requests.len());
    for (index, (f, slow_out)) in fast.iter().zip(&slow).enumerate() {
        let fast_out = match &f.result {
            Ok(f) => f,
            other => panic!("pixel {index} failed: {other:?}"),
        };
        assert_eq!(
            output_digest(fast_out),
            output_digest(slow_out),
            "pixel {index} digests diverge"
        );
        match (fast_out, slow_out) {
            (
                JobOutput::Pixel {
                    value: fv,
                    lanes: fl,
                    ..
                },
                JobOutput::Pixel {
                    value: sv,
                    lanes: sl,
                    ..
                },
            ) => {
                assert_eq!(fv, sv, "pixel {index} values diverge");
                // The coalescer groups by (app, mode): 24 sharpen lanes,
                // then 12 sobel lanes; the oracle runs one lane at a time.
                assert_eq!(*fl, if index < 24 { 24 } else { 12 }, "pixel {index}");
                assert_eq!(*sl, 1, "pixel {index}");
            }
            other => panic!("pixel {index}: unexpected outputs {other:?}"),
        }
    }
    // Spot-check the oracle itself against the closed-form kernel.
    match &slow[0] {
        JobOutput::Pixel { value, .. } => {
            assert_eq!(*value, 5 * 100 - (3 + 5 + 7 + 11));
        }
        other => panic!("unexpected oracle output {other:?}"),
    }
    // One compiled pass per batch vs one per pixel: the pool must win
    // outright, 36 compile+verify cycles against 2.
    assert!(
        fast_elapsed < slow_elapsed,
        "lane batching did not cut latency: fast {fast_elapsed:?}, slow {slow_elapsed:?}"
    );
}

/// The submit path coalesces pixels too: a full queue popped as one batch
/// answers every pixel correctly (lane-batched when the pop catches the
/// whole group, serially otherwise — either way, identical values).
#[test]
fn submitted_pixel_batches_answer_every_lane() {
    use apim_serve::JobOutput;

    let pool = Pool::new(PoolConfig {
        workers: 1,
        queue_depth: 64,
        max_batch: 16,
        ..PoolConfig::default()
    })
    .expect("valid pool");
    let handles: Vec<_> = sharpen_pixels(16)
        .into_iter()
        .map(|request| pool.submit(request).expect("queue has room"))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let response = handle.wait();
        match response.result {
            Ok(JobOutput::Pixel { value, lanes, .. }) => {
                let i = i as u64;
                assert_eq!(value, 5 * (100 + i) - (3 + i + 5 + i + 7 + i + 11 + i));
                assert!((1..=16).contains(&lanes), "lanes {lanes}");
            }
            other => panic!("pixel {i} failed: {other:?}"),
        }
    }
    pool.shutdown();
}

/// Pixel kernels are exact in every mode: a relaxed pixel answers the
/// exact value, through the pool or the serial oracle.
#[test]
fn relaxed_pixels_answer_the_exact_value() {
    use apim::PrecisionMode;
    use apim_serve::JobOutput;

    let exact = sharpen_pixels(8);
    let relaxed: Vec<Request> = exact
        .iter()
        .map(|r| r.clone().mode(PrecisionMode::LastStage { relax_bits: 8 }))
        .collect();
    let pool = Pool::new(PoolConfig {
        workers: 1,
        ..PoolConfig::default()
    })
    .expect("valid pool");
    let requests: Vec<Request> = exact.iter().chain(&relaxed).cloned().collect();
    for oracle in [false, true] {
        let outputs = if oracle {
            compiled_oracle(&requests)
        } else {
            pool.run_all(requests.clone())
                .expect("run_all")
                .into_iter()
                .map(|r| r.result.expect("pixel answered"))
                .collect()
        };
        let values: Vec<u64> = outputs
            .iter()
            .map(|output| match output {
                JobOutput::Pixel { value, .. } => *value,
                other => panic!("pixel failed: {other:?}"),
            })
            .collect();
        let (exact_values, relaxed_values) = values.split_at(8);
        assert_eq!(exact_values, relaxed_values, "oracle: {oracle}");
        for (i, value) in exact_values.iter().enumerate() {
            let i = i as u64;
            assert_eq!(*value, 5 * (100 + i) - (3 + i + 5 + i + 7 + i + 11 + i));
        }
    }
}

/// A same-`(app, mode)` group wider than a word still lane-batches: 100
/// sharpen pixels through `run_all` run as two 50-lane passes, and every
/// value equals the pure-integer evaluator's.
#[test]
fn pixel_groups_wider_than_a_word_split_into_lane_passes() {
    use apim_serve::JobOutput;

    let pool = Pool::new(PoolConfig {
        workers: 1,
        ..PoolConfig::default()
    })
    .expect("valid pool");
    let requests = sharpen_pixels(100);
    let responses = pool.run_all(requests.clone()).expect("run_all");
    let dag = apim_workloads::dags::sharpen_dag();
    for (i, (request, response)) in requests.iter().zip(&responses).enumerate() {
        let JobKind::Pixel { taps, .. } = &request.kind else {
            unreachable!("sharpen_pixels builds pixel requests")
        };
        let inputs: std::collections::HashMap<String, u64> = dag
            .inputs()
            .iter()
            .zip(taps)
            .map(|(name, &tap)| (name.to_string(), tap))
            .collect();
        let expected = apim_compile::evaluate(&dag, &inputs).expect("taps bind every input");
        match &response.result {
            Ok(JobOutput::Pixel { value, lanes, .. }) => {
                assert_eq!(*value, expected, "pixel {i}");
                assert_eq!(*lanes, 50, "pixel {i}");
            }
            other => panic!("pixel {i} failed: {other:?}"),
        }
    }
}

/// A pixel unit honours its members' deadlines like any other job: 8
/// coalesced pixels whose deadline has already passed are answered
/// `DeadlineExceeded` without an attempt.
#[test]
fn expired_pixel_deadlines_skip_the_lane_pass() {
    let pool = small_pool(1, 16);
    let requests: Vec<Request> = sharpen_pixels(8)
        .into_iter()
        .map(|r| r.deadline(Duration::from_nanos(1)))
        .collect();
    for (i, response) in pool.run_all(requests).expect("run_all").iter().enumerate() {
        assert!(
            matches!(response.result, Err(ServeError::DeadlineExceeded)),
            "pixel {i}: {:?}",
            response.result
        );
        assert_eq!(response.attempts, 0, "pixel {i}");
    }
    let snapshot = pool.metrics().snapshot();
    assert_eq!(snapshot.failed, 8);
    assert_eq!(snapshot.completed, 0);
}

/// A lane-batched pass runs inside the same fault plan and panic isolation
/// as every other unit: an injected panic fails every pixel of the pass,
/// and the worker survives to answer the next batch.
#[test]
fn injected_panics_fail_the_whole_pixel_pass_and_the_pool_survives() {
    let pool = Pool::new(PoolConfig {
        workers: 1,
        max_retries: 0,
        fault: FaultPlan::PanicEvery(1),
        ..PoolConfig::default()
    })
    .expect("valid pool");
    for (i, response) in pool
        .run_all(sharpen_pixels(8))
        .expect("run_all")
        .iter()
        .enumerate()
    {
        assert!(
            matches!(response.result, Err(ServeError::WorkerPanicked)),
            "pixel {i}: {:?}",
            response.result
        );
        assert_eq!(response.attempts, 1, "pixel {i}");
    }
    // The queue worker survives its own injected panic too.
    let next = pool
        .submit(sharpen_pixels(1).remove(0))
        .expect("queue has room")
        .wait();
    assert!(matches!(next.result, Err(ServeError::WorkerPanicked)));
    let snapshot = pool.metrics().snapshot();
    assert_eq!(snapshot.failed, 9);
    assert_eq!(snapshot.retries, 0);
    pool.shutdown();
}

/// A pixel whose tap count does not fit its kernel fails alone; the
/// well-formed pixels of its `(app, mode)` still share one lane pass.
#[test]
fn malformed_pixel_fails_alone_and_the_rest_share_a_pass() {
    use apim_serve::JobOutput;

    let pool = small_pool(1, 16);
    let mut requests = sharpen_pixels(7);
    requests.insert(
        3,
        Request::new(JobKind::Pixel {
            app: App::Sharpen,
            taps: vec![1, 2, 3, 4],
        }),
    );
    let responses = pool.run_all(requests).expect("run_all");
    for (i, response) in responses.iter().enumerate() {
        if i == 3 {
            match &response.result {
                Err(ServeError::Failed { reason, .. }) => {
                    assert_eq!(reason, "pixel needs 5 taps, got 4");
                }
                other => panic!("malformed pixel answered {other:?}"),
            }
            continue;
        }
        let k = if i < 3 { i } else { i - 1 } as u64;
        match &response.result {
            Ok(JobOutput::Pixel { value, lanes, .. }) => {
                assert_eq!(*value, 5 * (100 + k) - (3 + k + 5 + k + 7 + k + 11 + k));
                assert_eq!(*lanes, 7, "pixel {i}");
            }
            other => panic!("pixel {i} failed: {other:?}"),
        }
    }
}
