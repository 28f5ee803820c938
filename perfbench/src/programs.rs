//! `programs`: distinct expression programs through the pool.
//!
//! Every request is a different seeded program sent as
//! `JobKind::Compile`, so each pays parse, compile, serial single-lane
//! execution and the hazard lint once, with nothing reused or
//! lane-batched. Values are checked against `apim_compile::evaluate` with
//! the pool's bindings (input `i` bound to `i + 1`).

use std::hint::black_box;

use apim_compile::{compile, lower, parse_program, place, schedule, CompileOptions};
use apim_serve::{JobKind, JobOutput, Pool, Request};
use apim_verify::verify_trace;

use crate::closed::{self, Answer};
use crate::gen::{self, ProgramJob};
use crate::speed::Placement;
use crate::trace::Tracer;
use crate::{
    end_to_end, finish_trace, sampling_note, serve_delta, stats, timed_setup, Device, Layers, Load,
    Outcome, Phase, RunConfig,
};

/// Requests in flight.
pub const WINDOW: usize = 8;
/// Programs per nominal second of measuring.
pub const PROGRAMS_PER_SECOND: f64 = 330.0;

/// Programs in a request set sized for `seconds` of measuring.
pub fn program_count(seconds: f64) -> usize {
    ((seconds * PROGRAMS_PER_SECOND).round() as usize).max(1)
}

/// The request set plus the pool serving it.
pub struct Fixture {
    /// Programs and reference values.
    pub jobs: Vec<ProgramJob>,
    /// One single-request group per program.
    pub groups: Vec<Vec<Request>>,
    /// The pool under test.
    pub pool: Pool,
    /// Where the pool's worker and the load thread run; dropped last, on
    /// the thread that built the fixture.
    pub placement: Placement,
}

/// Builds the request set and its references, then starts the pool (see
/// [`timed_setup`]); returns the fixture and the median pool start time, s.
///
/// # Errors
///
/// Generation or pool construction failures.
pub fn setup(seed: u64, count: usize) -> Result<(Fixture, f64), String> {
    let jobs = gen::programs(seed, 0, count)?;
    let groups = jobs
        .iter()
        .map(|j| {
            vec![Request::new(JobKind::Compile {
                source: j.source.clone(),
            })]
        })
        .collect();
    // The pool's worker inherits the serving CPU.
    let placement = Placement::pin();
    let (pool, setup_s) =
        timed_setup(|| Pool::new(closed::pool_config(WINDOW * 4)).map_err(|e| e.to_string()))?;
    Ok((
        Fixture {
            jobs,
            groups,
            pool,
            placement,
        },
        setup_s,
    ))
}

/// One measured pass over the request set.
#[derive(Debug, Clone, Default)]
pub struct ProgramsPhase {
    /// Outcomes, latencies, wall time, simulated cycles.
    pub phase: Phase,
    /// Latency the pool itself measured per request, µs.
    pub pool_latencies_us: Vec<f64>,
}

/// Drives the whole set once and checks every answer.
///
/// # Errors
///
/// Those of [`closed::drive`].
pub fn measure(fx: &Fixture, tracer: Option<&mut Tracer>) -> Result<ProgramsPhase, String> {
    let mut out = ProgramsPhase::default();
    let phase = &mut out.phase;
    let pool_latencies = &mut out.pool_latencies_us;
    let drive = closed::drive(
        &fx.pool,
        &fx.placement,
        &fx.groups,
        WINDOW,
        false,
        tracer,
        |group, _, answer| {
            phase.tally.attempted += 1;
            let (response, latency_us, done_s) = match answer {
                Answer::Rejected(_) => {
                    phase.tally.rejected += 1;
                    return;
                }
                Answer::Done {
                    response,
                    latency_us,
                    done_s,
                } => (response, latency_us, done_s),
            };
            phase.answered(latency_us, done_s);
            pool_latencies.push(response.latency.as_secs_f64() * 1e6);
            match response.result {
                Ok(JobOutput::Compile { value, cycles, .. }) => {
                    phase.sim_cycles += cycles as f64;
                    if value == fx.jobs[group].expect {
                        phase.tally.correct += 1;
                    } else {
                        phase.tally.wrong += 1;
                    }
                }
                Ok(_) => phase.tally.wrong += 1,
                Err(_) => phase.tally.failed += 1,
            }
        },
    )?;
    out.phase.wall_s = drive.wall_s;
    out.phase.speed = drive.speed;
    Ok(out)
}

/// Replays every program through the public calls the pool makes (parse,
/// compile, run), timing each. Probes re-invoke the sub-phases those calls
/// run internally — placement, scheduling and lowering inside `compile`,
/// recorded execution (`CompiledProgram::record`) and the hazard lint
/// (`verify_trace` on that trace) inside `run` — as child spans.
fn replay(jobs: &[ProgramJob], tracer: &mut Tracer) -> Result<Device, String> {
    let options = CompileOptions::default();
    let mut device = Device::default();
    for (index, job) in jobs.iter().enumerate() {
        let id = index as u64;
        let root = tracer.open("replay.request", None, id);
        let (_, program) = tracer.time("compile.parse", Some(root), id, || {
            parse_program(&job.source)
        });
        let program = program.map_err(|e| e.to_string())?;
        let (compile_span, compiled) = tracer.time("compile.compile", Some(root), id, || {
            compile(&program.dag, &options)
        });
        let compiled = compiled.map_err(|e| e.to_string())?;
        let inputs = gen::pool_bindings(compiled.dag());
        let (run_span, report) =
            tracer.time("compile.run", Some(root), id, || compiled.run(&inputs));
        tracer.close(root);
        let report = report.map_err(|e| e.to_string())?;

        let dag = compiled.dag();
        let (_, placement) = tracer.time("compile.place", Some(compile_span), id, || {
            place(dag, &options.config)
        });
        let placement = placement.map_err(|e| e.to_string())?;
        tracer.time("compile.schedule", Some(compile_span), id, || {
            black_box(schedule(dag, &placement, compiled.model()))
        });
        tracer.time("compile.lower", Some(compile_span), id, || {
            black_box(lower(dag))
        });
        let (_, recorded) = tracer.time("crossbar.execute", Some(run_span), id, || {
            compiled.record(&inputs)
        });
        let (ops, _, _) = recorded.map_err(|e| e.to_string())?;
        tracer.time("verify.hazard", Some(run_span), id, || {
            black_box(verify_trace(&ops, &[], None))
        });

        device.requests += 1;
        device.cycles += report.cycles;
        device.picojoules += report.energy.as_picojoules();
        device.primitives += report.trace_len as u64;
        device.wrong += u64::from(report.value != job.expect);
    }
    Ok(device)
}

/// Runs `programs`.
///
/// # Errors
///
/// Set-up failures.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    if !config.trace {
        let count = program_count(config.seconds);
        let (fx, setup_s) = setup(config.seed, count)?;
        let m = measure(&fx, None)?;
        fx.pool.shutdown();
        let notes = vec![
            format!(
                "programs: {count} distinct programs, closed loop of {WINDOW} requests, \
                 {} pool worker(s), 1 load thread",
                closed::WORKERS
            ),
            sampling_note(&m.phase, Load::Closed, gen::PROGRAM_SHAPES),
        ];
        return Ok(Outcome {
            tally: m.phase.tally,
            metrics: end_to_end(&m.phase, Load::Closed, gen::PROGRAM_SHAPES, setup_s),
            notes,
        });
    }

    let count = program_count(config.seconds / 3.0);
    let (fx, _) = setup(config.seed, count)?;
    let plain = measure(&fx, None)?;
    let before = fx.pool.metrics().snapshot();
    let mut tracer = Tracer::with_capacity(11 * count);
    let traced = measure(&fx, Some(&mut tracer))?;
    let after = fx.pool.metrics().snapshot();
    fx.pool.shutdown();
    let device = replay(&fx.jobs, &mut tracer)?;

    let mut tally = plain.phase.tally;
    tally.absorb(traced.phase.tally);
    tally.wrong += device.wrong;
    let times = tracer.self_times();
    let serve = serve_delta(&before, &after);
    let attributed_us: f64 = ["compile.parse", "compile.compile", "compile.run"]
        .iter()
        .filter_map(|n| times.get(n))
        .map(|t| t.total_ns as f64 / 1e3)
        .sum();

    let mut layers = Layers::default();
    for span in [
        "compile.parse",
        "compile.compile",
        "compile.place",
        "compile.schedule",
        "compile.lower",
        "compile.run",
        "crossbar.execute",
        "verify.hazard",
    ] {
        layers.set_self_us(&format!("{span}.self_us"), &times, span, device.requests);
    }
    layers.set_device(&device);
    // A batch runs its programs one after another: a request's own
    // service is its share of the batch service time.
    layers.set_serve(
        &serve,
        stats::median(&traced.pool_latencies_us),
        serve.service_sum_us / device.requests.max(1) as f64,
    );
    let clamped = layers.set_validity(
        attributed_us,
        serve.service_sum_us,
        &plain.phase,
        &traced.phase,
        &tally,
    );
    layers.set_tail(&plain.phase, gen::PROGRAM_SHAPES);
    layers.set_machine_speed(&plain.phase);

    let mut notes = vec![
        format!(
            "programs traced: {count} programs per phase (untraced, traced), replayed through \
             parse_program, compile and CompiledProgram::run"
        ),
        "place/schedule/lower are probes re-invoked on the compiled DAG and count as children \
         of compile.compile; crossbar.execute (CompiledProgram::record) and verify.hazard \
         (verify_trace on that trace, without allocation events or cycle expectation) are \
         probes counted as children of compile.run"
            .into(),
        "self_us figures are per request; unattributed share is the traced phase's pool batch \
         service time not covered by parse + compile + run"
            .into(),
    ];
    notes.extend(clamped);
    finish_trace(config, &tracer, &notes)?;
    Ok(Outcome {
        tally,
        metrics: layers.into_metrics(),
        notes,
    })
}
