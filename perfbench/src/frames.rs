//! `frames`: image in, verified pixels out.
//!
//! Seeded synthetic images are cut into per-pixel `JobKind::Pixel`
//! requests for sharpen and both Sobel gradients. Pixels go out in tiles of
//! the pool's default `max_batch`, each tile one kernel's contiguous
//! pixels, each tile position's three kernels in turn, under a closed loop
//! of [`WINDOW_TILES`] tiles; the coalescer pops every tile whole into one
//! lane-batched pass. Answers are checked per pixel against
//! `apim_compile::evaluate` and, reassembled, against the hand kernels'
//! output images.

use std::collections::BTreeMap;

use apim_compile::{compile_batched, CompileOptions};
use apim_serve::{JobKind, JobOutput, Pool, PoolConfig, Request};

use crate::closed::{self, Answer};
use crate::gen::{self, FrameSet, Kernel};
use crate::speed::Placement;
use crate::trace::Tracer;
use crate::{
    end_to_end, finish_trace, sampling_note, serve_delta, stats, timed_setup, Device, Layers, Load,
    Outcome, Phase, RunConfig,
};

/// Frame side, pixels.
pub const SIDE: usize = 16;
/// Tiles in flight: one per kernel. Tiles go out in the kernels' order,
/// so every tile waits behind exactly one tile of each other kernel and
/// every pixel's latency covers the same mix of passes; the single worker
/// still always has a whole tile queued behind the one it runs.
pub const WINDOW_TILES: usize = Kernel::ALL.len();
/// Frames per nominal second of measuring.
pub const FRAMES_PER_SECOND: f64 = 0.3;

/// Frames in a request set sized for `seconds` of measuring.
pub fn frame_count(seconds: f64) -> usize {
    ((seconds * FRAMES_PER_SECOND).round() as usize).max(1)
}

/// Pixels per tile: the pool's default coalescing limit.
pub fn tile_len() -> usize {
    PoolConfig::default().max_batch
}

/// Pixel requests in the pattern that repeats: one tile of each kernel.
fn period() -> usize {
    Kernel::ALL.len() * tile_len()
}

/// The request set plus the pool serving it.
pub struct Fixture {
    /// Frames, tiles and references.
    pub set: FrameSet,
    /// One request group per tile.
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
pub fn setup(seed: u64, frames: usize) -> Result<(Fixture, f64), String> {
    let set = gen::frames(seed, frames, SIDE, tile_len())?;
    let groups = set
        .tiles
        .iter()
        .map(|tile| {
            tile.taps
                .iter()
                .map(|taps| {
                    Request::new(JobKind::Pixel {
                        app: tile.kernel.app(),
                        taps: taps.clone(),
                    })
                })
                .collect()
        })
        .collect();
    // The pool's worker inherits the serving CPU.
    let placement = Placement::pin();
    let (pool, setup_s) = timed_setup(|| {
        Pool::new(closed::pool_config(WINDOW_TILES * tile_len() * 2)).map_err(|e| e.to_string())
    })?;
    Ok((
        Fixture {
            set,
            groups,
            pool,
            placement,
        },
        setup_s,
    ))
}

/// One measured pass over the request set.
#[derive(Debug, Clone, Default)]
pub struct FramesPhase {
    /// Outcomes, latencies, wall time, simulated cycles.
    pub phase: Phase,
    /// Latency the pool itself measured per request, µs.
    pub pool_latencies_us: Vec<f64>,
    /// Lane-batched passes that answered the pixels.
    pub passes: f64,
    /// Primer service time, µs.
    pub primer_us: f64,
}

/// Drives the whole set once and checks every answer.
///
/// # Errors
///
/// A failed primer job, or a pass with fewer lanes than a tile: the run is
/// invalid, not a simulated cost.
pub fn measure(fx: &Fixture, tracer: Option<&mut Tracer>) -> Result<FramesPhase, String> {
    let set = &fx.set;
    let pixels = SIDE * SIDE;
    let mut out = FramesPhase::default();
    let mut values: Vec<[Vec<u64>; 3]> = (0..set.frames.len())
        .map(|_| std::array::from_fn(|_| vec![0; pixels]))
        .collect();
    // Per lane count: (pixels answered, summed pass cycles).
    let mut by_lanes: BTreeMap<usize, (u64, u128)> = BTreeMap::new();
    let phase = &mut out.phase;
    let pool_latencies = &mut out.pool_latencies_us;
    let drive = closed::drive(
        &fx.pool,
        &fx.placement,
        &fx.groups,
        WINDOW_TILES,
        true,
        tracer,
        |group, member, answer| {
            let tile = &set.tiles[group];
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
                Ok(JobOutput::Pixel {
                    value,
                    cycles,
                    lanes,
                }) => {
                    let slot = by_lanes.entry(lanes.max(1)).or_default();
                    slot.0 += 1;
                    slot.1 += u128::from(cycles);
                    values[tile.frame][kernel_slot(tile.kernel)][tile.first_pixel + member] = value;
                    if value == tile.expect[member] {
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
    out.primer_us = drive.primer_us;
    // Batch makeup rests on timing: a tile is whole in the queue only if
    // the load thread queues it before the worker gets to it. A pass with
    // fewer lanes would change the simulated cost per pixel, so it makes
    // the run invalid rather than a different figure.
    if let Some((&lanes, &(count, _))) = by_lanes.iter().find(|(&l, _)| l != tile_len()) {
        return Err(format!(
            "invalid run: {count} pixel(s) answered by {lanes}-lane passes, not {}-lane ones \
             (a tile was popped before it was fully queued)",
            tile_len()
        ));
    }
    // A pixel is charged its pass's cycles divided by the pass's lanes.
    for (&lanes, &(count, cycles)) in &by_lanes {
        out.phase.sim_cycles += cycles as f64 / lanes as f64;
        out.passes += count as f64 / lanes as f64;
    }
    // Verified pixels out: the reassembled images must equal the hand
    // kernels' (counted only where every pixel already matched, so no
    // pixel counts twice).
    if out.phase.tally.errors() == 0 {
        for (frame, vals) in set.frames.iter().zip(&values) {
            let (sharpened, edges) = gen::assemble(SIDE, SIDE, vals);
            let bad = |got: &apim_workloads::Image, want: &apim_workloads::Image| {
                got.samples()
                    .iter()
                    .zip(want.samples())
                    .filter(|(a, b)| a != b)
                    .count() as u64
            };
            out.phase.tally.wrong += bad(&sharpened, &frame.sharpen) + bad(&edges, &frame.sobel);
        }
    }
    Ok(out)
}

fn kernel_slot(kernel: Kernel) -> usize {
    match kernel {
        Kernel::Sharpen => 0,
        Kernel::SobelX => 1,
        Kernel::SobelY => 2,
    }
}

/// Replays every tile through the compiler's public lane-batched calls,
/// as the pool issues them per pass, timing each call.
fn replay(set: &FrameSet, tracer: &mut Tracer) -> Result<Device, String> {
    let options = CompileOptions::default();
    let mut device = Device::default();
    let mut id = 0u64;
    for tile in &set.tiles {
        let dag = gen::kernel_dag(tile.kernel.app());
        let bindings: Vec<_> = tile.taps.iter().map(|t| gen::bind(&dag, t)).collect();
        let root = tracer.open("replay.pass", None, id);
        let (_, program) = tracer.time("compile.compile_batched", Some(root), id, || {
            compile_batched(&dag, &options, bindings.len())
        });
        let program = program.map_err(|e| e.to_string())?;
        let (_, report) = tracer.time("compile.run_batched", Some(root), id, || {
            program.run(&bindings)
        });
        tracer.close(root);
        let report = report.map_err(|e| e.to_string())?;
        device.requests += bindings.len() as u64;
        device.cycles += report.cycles;
        device.picojoules += report.energy.as_picojoules();
        device.primitives += report.trace_len as u64;
        device.wrong += report
            .values
            .iter()
            .zip(&tile.expect)
            .filter(|(a, b)| a != b)
            .count() as u64;
        id += bindings.len() as u64;
    }
    Ok(device)
}

/// Runs `frames`.
///
/// # Errors
///
/// Set-up failures.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    if !config.trace {
        let frames = frame_count(config.seconds);
        let (fx, setup_s) = setup(config.seed, frames)?;
        let m = measure(&fx, None)?;
        fx.pool.shutdown();
        let notes = vec![
            format!(
                "frames: {frames} frames of {SIDE}x{SIDE}, {} pixel requests in {}-pixel tiles, \
                 closed loop of {WINDOW_TILES} tiles, {} pool worker(s), 1 load thread",
                fx.set.requests(),
                tile_len(),
                closed::WORKERS
            ),
            sampling_note(&m.phase, Load::Closed, period()),
            format!(
                "{:.0} lane-batched passes, {:.3} lanes per pass",
                m.passes,
                m.phase.tally.correct as f64 / m.passes.max(1.0)
            ),
        ];
        return Ok(Outcome {
            tally: m.phase.tally,
            metrics: end_to_end(&m.phase, Load::Closed, period(), setup_s),
            notes,
        });
    }

    let frames = frame_count(config.seconds / 3.0);
    let (fx, _) = setup(config.seed, frames)?;
    let plain = measure(&fx, None)?;
    let before = fx.pool.metrics().snapshot();
    let mut tracer = Tracer::with_capacity(2 * fx.set.requests() + 3 * fx.groups.len());
    let traced = measure(&fx, Some(&mut tracer))?;
    let after = fx.pool.metrics().snapshot();
    fx.pool.shutdown();
    let device = replay(&fx.set, &mut tracer)?;

    let mut tally = plain.phase.tally;
    tally.absorb(traced.phase.tally);
    tally.wrong += device.wrong;
    let times = tracer.self_times();
    let serve = serve_delta(&before, &after).without_primer(traced.primer_us);
    let attributed_us: f64 = ["compile.compile_batched", "compile.run_batched"]
        .iter()
        .filter_map(|n| times.get(n))
        .map(|t| t.total_ns as f64 / 1e3)
        .sum();

    let mut layers = Layers::default();
    layers.set(
        "compile.compile_batched.count",
        times.get("compile.compile_batched").map_or(0, |t| t.count) as f64,
    );
    for span in ["compile.compile_batched", "compile.run_batched"] {
        layers.set_self_us(&format!("{span}.self_us"), &times, span, device.requests);
    }
    layers.set_device(&device);
    layers.set(
        "serve.lanes_per_pass",
        traced.phase.tally.correct as f64 / traced.passes.max(1.0),
    );
    // Every pixel of a pass is served for the whole pass.
    layers.set_serve(
        &serve,
        stats::median(&traced.pool_latencies_us),
        serve.service_sum_us / serve.batches.max(1) as f64,
    );
    let clamped = layers.set_validity(
        attributed_us,
        serve.service_sum_us,
        &plain.phase,
        &traced.phase,
        &tally,
    );
    layers.set_tail(&plain.phase, period());
    layers.set_machine_speed(&plain.phase);

    let mut notes = vec![
        format!(
            "frames traced: {frames} frames, {} pixel requests per phase (untraced, traced), \
             replayed through compile_batched + BatchCompiledProgram::run per tile",
            fx.set.requests()
        ),
        "crossbar.execute and verify.hazard act only inside BatchCompiledProgram::run here; \
         splitting execute from lint there needs in-program tracing, so both read 0 and \
         compile.run_batched.self_us carries them"
            .into(),
        "self_us figures are per pixel request; unattributed share is the traced phase's \
         pool batch service time not covered by the replayed layer calls"
            .into(),
        "compile.compile_batched.count is the replay's call count, one per tile, fixed by the \
         request set: a compile cache inside the pool would not change it and shows only as \
         lower serve.batch_service_p50_us and end-to-end latency"
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
