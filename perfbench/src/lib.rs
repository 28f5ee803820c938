//! The repository benchmark.
//!
//! Three seeded workloads drive the shipped public APIs from one load
//! thread:
//!
//! * `frames` — per-pixel sharpen and Sobel requests through
//!   [`apim_serve::Pool`], lane-batched by the pool's coalescer;
//! * `programs` — distinct expression programs as `JobKind::Compile`
//!   requests through the same pool;
//! * `rpc-open` — open-loop echo and multiply traffic through a one-node
//!   [`apim_cluster::LoopbackCluster`] on the pipelined client.
//!
//! Every run checks every output against a host reference computed during
//! set-up. The closed loops, which are CPU-bound, report their timings at
//! a reference machine speed sampled while they run (see [`speed`]). A
//! run with `trace` on measures the same request set untraced and traced,
//! then times the calls into each layer's public functions from this crate
//! (never from inside the program) to attribute per-layer cost.

pub mod closed;
pub mod frames;
pub mod gen;
pub mod programs;
pub mod rpc;
pub mod speed;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Per-pixel image kernels through the serving pool.
    Frames,
    /// Distinct compiled expression programs through the serving pool.
    Programs,
    /// Open-loop RPC traffic through a loopback cluster.
    RpcOpen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Frames, Workload::Programs, Workload::RpcOpen];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Frames => "frames",
            Workload::Programs => "programs",
            Workload::RpcOpen => "rpc-open",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated request set.
    pub seed: u64,
    /// Nominal measuring time; it sizes the request set, which is then run
    /// to completion.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans_path: Option<PathBuf>,
}

/// Request outcomes of one measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests the load thread tried to submit.
    pub attempted: u64,
    /// Requests answered with the correct output.
    pub correct: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests never answered (transport loss or timeout).
    pub lost: u64,
    /// Requests answered with an output that differs from the reference.
    pub wrong: u64,
}

impl Tally {
    /// Every request that did not end with the correct output.
    pub fn errors(&self) -> u64 {
        self.failed + self.rejected + self.lost + self.wrong
    }

    /// `errors / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.errors() as f64 / self.attempted.max(1) as f64
    }

    /// Adds another phase's outcomes.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.lost += other.lost;
        self.wrong += other.wrong;
    }
}

/// What one measured phase produced: outcomes, timings and simulated cost.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Request outcomes.
    pub tally: Tally,
    /// Per-request latency, µs, of every answered request.
    pub latencies_us: Vec<f64>,
    /// When each of those answers was observed, s since the phase began.
    pub done_s: Vec<f64>,
    /// Wall time the phase took, s.
    pub wall_s: f64,
    /// Simulated crossbar cycles charged to the answered requests.
    pub sim_cycles: f64,
    /// The machine's speed over the phase, times counted like `done_s`;
    /// empty on the open loop.
    pub speed: speed::SpeedLog,
}

impl Phase {
    /// Records one answered request.
    pub fn answered(&mut self, latency_us: f64, done_s: f64) {
        self.latencies_us.push(latency_us);
        self.done_s.push(done_s);
    }

    /// Correct answers per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        self.tally.correct as f64 / self.wall_s.max(1e-9)
    }

    /// Simulated cycles per correctly answered request.
    pub fn sim_cycles_per_req(&self) -> f64 {
        self.sim_cycles / self.tally.correct.max(1) as f64
    }
}

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Everything one invocation reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Request outcomes summed over every measured phase.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every request got the correct output.
    pub fn correct(&self) -> bool {
        self.tally.errors() == 0 && self.tally.attempted > 0
    }
}

/// The per-layer metrics a traced run reports, with their units, in
/// `BENCHMARK.json` order. Workloads a layer does not act on report 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("compile.compile_batched.count", "count"),
    ("compile.compile_batched.self_us", "us"),
    ("compile.run_batched.self_us", "us"),
    ("compile.parse.self_us", "us"),
    ("compile.compile.self_us", "us"),
    ("compile.place.self_us", "us"),
    ("compile.schedule.self_us", "us"),
    ("compile.lower.self_us", "us"),
    ("compile.run.self_us", "us"),
    ("crossbar.execute.self_us", "us"),
    ("verify.hazard.self_us", "us"),
    ("device.cycles_per_req", "cycles"),
    ("device.pj_per_req", "pJ"),
    ("device.nor_ops_per_req", "count"),
    ("serve.lanes_per_pass", "count"),
    ("serve.batches", "count"),
    ("serve.batch_service_p50_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.retries", "count"),
    ("cluster.rpc_p50_us", "us"),
    ("cluster.node_latency_p50_us", "us"),
    ("cluster.transport_p50_us", "us"),
    ("cluster.wire_encode_ns", "ns"),
    ("cluster.wire_decode_ns", "ns"),
    ("net.wait_p50_us", "us"),
    ("loadgen.send_lag_p99_us", "us"),
    ("loadgen.latency_p99_us", "us"),
    ("loadgen.max_segment_p99_us", "us"),
    ("loadgen.tail_segments", "count"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.error_rate", "ratio"),
    ("bench.machine_speed", "ratio"),
];

/// Per-layer values keyed by name; starts with every metric at 0.
#[derive(Debug, Clone)]
pub struct Layers(Vec<(&'static str, &'static str, f64)>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, u)| (n, u, 0.0)).collect())
    }
}

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// On a name missing from [`PER_LAYER`] — a bug in this crate.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        slot.2 = value;
    }

    /// Sets `metric` to the self time of the spans named `span`, µs per
    /// request.
    pub fn set_self_us(
        &mut self,
        metric: &str,
        times: &BTreeMap<&'static str, trace::SelfTime>,
        span: &str,
        requests: u64,
    ) {
        let self_us = times.get(span).map_or(0.0, |t| t.self_ns as f64 / 1e3);
        self.set(metric, self_us / requests.max(1) as f64);
    }

    /// Sets the simulated-device figures from replayed requests.
    pub fn set_device(&mut self, device: &Device) {
        let requests = device.requests.max(1) as f64;
        self.set("device.cycles_per_req", device.cycles as f64 / requests);
        self.set("device.pj_per_req", device.picojoules / requests);
        self.set(
            "device.nor_ops_per_req",
            device.primitives as f64 / requests,
        );
    }

    /// Sets the serving-layer figures of the traced phase. A request's
    /// queue wait is its pool-side latency minus its own service time.
    pub fn set_serve(&mut self, serve: &ServeDelta, pool_latency_p50_us: f64, own_service_us: f64) {
        self.set("serve.batches", serve.batches as f64);
        self.set("serve.batch_service_p50_us", serve.service_p50_us);
        self.set(
            "serve.queue_wait_p50_us",
            (pool_latency_p50_us - own_service_us).max(0.0),
        );
        self.set("serve.retries", serve.retries as f64);
    }

    /// Sets the figures that judge the run itself: the share of the
    /// serving side's time the timed layer calls do not cover, the traced
    /// phase's median latency over the untraced one's (minus 1), and the
    /// error rate over every phase.
    ///
    /// The share is clamped at 0. The calls are replayed by the benchmark
    /// after the serving phase, so the raw share goes negative when the
    /// replay ran slower than the pool did (the machine's speed moves over
    /// a run) or did work the pool skips (a pool-side cache, say); the
    /// returned note then states the raw figure.
    pub fn set_validity(
        &mut self,
        attributed_us: f64,
        served_us: f64,
        plain: &Phase,
        traced: &Phase,
        tally: &Tally,
    ) -> Option<String> {
        let unattributed = 1.0 - attributed_us / served_us.max(1e-9);
        self.set("bench.unattributed_share", unattributed.max(0.0));
        self.set(
            "bench.trace_overhead",
            stats::median(&traced.latencies_us) / stats::median(&plain.latencies_us).max(1e-9)
                - 1.0,
        );
        self.set("bench.error_rate", tally.error_rate());
        (unattributed < 0.0).then(|| {
            format!(
                "the replayed layer calls took {:.3} of the serving side's time (the replay \
                 ran slower than the pool, or did work the pool skips), so \
                 bench.unattributed_share reads 0 (raw {unattributed:.4})",
                attributed_us / served_us.max(1e-9)
            )
        })
    }

    /// Sets the tail beyond the end-to-end p95, from the untraced phase
    /// (see [`Segmented`]): the p99 over every answer, the largest segment
    /// p99, and the number of segments whose p99 exceeds twice the median
    /// segment p99. A tail in under 5 % of the requests, such as a stall
    /// of a few ms every second or two, leaves the p95 unchanged; these
    /// show it.
    pub fn set_tail(&mut self, plain: &Phase, period: usize) {
        let seg = segmented(plain, period);
        self.set("loadgen.latency_p99_us", seg.p99_us);
        self.set("loadgen.max_segment_p99_us", seg.max_segment_p99_us);
        self.set("loadgen.tail_segments", seg.tail_segments as f64);
    }

    /// Sets the machine's speed over the untraced phase (see [`speed`]);
    /// 0 where it was not sampled.
    pub fn set_machine_speed(&mut self, plain: &Phase) {
        let speed = if plain.speed.samples() == 0 {
            0.0
        } else {
            plain.speed.overall()
        };
        self.set("bench.machine_speed", speed);
    }

    /// The metrics, in [`PER_LAYER`] order.
    pub fn into_metrics(self) -> Vec<Metric> {
        self.0
            .into_iter()
            .map(|(name, unit, value)| Metric { name, value, unit })
            .collect()
    }
}

/// Set-ups of the system under test timed per run; `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 31;

/// Starts the system under test with `start` [`SETUP_REPEATS`] times, each
/// after the previous instance is shut down, and returns the last instance
/// with the median start time, s.
///
/// Only the system's own set-up is timed: a pool start, or a cluster spawn
/// with its client's connection and warm-up. Request generation and host
/// references are the benchmark's input preparation; they took tens to
/// hundreds of ms against the pool's ~1 ms, and on the 2-vCPU machine the
/// benchmark was tuned on their time followed the machine's load (the
/// median of 31 generations moved by a factor of 2 between runs minutes
/// apart, where the median pool start moved by 1 %). Timed together, work
/// moved into the system's set-up would be lost in that noise.
///
/// # Errors
///
/// The first failed start.
pub fn timed_setup<T>(mut start: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Shut the previous instance down outside the timing.
        drop(last.take());
        let started = Instant::now();
        let system = start()?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(system);
    }
    let system = last.expect("SETUP_REPEATS is nonzero");
    Ok((system, stats::median(&times)))
}

/// Fewest answers in a segment of a phase: enough for a median and a
/// segment rate that one slow request does not move.
pub const SEGMENT_SAMPLES: usize = 1000;

/// How a workload offers its load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// The next request waits for an answer: throughput is capacity.
    Closed,
    /// Requests go out on a schedule: throughput is the achieved rate, and
    /// a stall delays every request due during it.
    Open,
}

/// A phase's timings over consecutive segments of answers. Segments hold a
/// whole number of the workload's periods (the request pattern that
/// repeats, such as one tile of each kernel), at least [`SEGMENT_SAMPLES`]
/// answers each; the last one takes the remainder.
///
/// Timings are taken on the reference clock of [`speed::SpeedLog`], which
/// runs at the machine's speed: a segment's rate is its answers over the
/// reference time it spanned, and an answer's latency is the reference
/// time over its own lifetime. The closed loops are CPU-bound, and on the
/// shared machine the benchmark was tuned on their raw figures followed the
/// machine's speed, which moved by up to 1.6x for minutes at a time. The
/// open loop samples no speed (it is paced by its schedule and the event
/// loop's timers, and its raw figures held steady), so its clock is the
/// wall clock. Rate is the median over the segments, p50 the median over
/// every answer. Over six runs of each closed loop in a stretch where the
/// raw rate spread 0.13–0.15, scaling each segment by its median speed
/// left a spread of 0.05–0.09; the reference clock left 0.05 on rate,
/// 0.07 on p50 and 0.03–0.05 on p95.
///
/// The tail is the p95 over every answer of the phase. A stall of the
/// machine (tens of ms, several per run on that machine) delays every
/// request in flight or due during it, and a handful of stalls set a run's
/// p99: over ten seeds of `programs` the p99 read 25.6–43.4 ms, an
/// interquartile spread of 0.27 of its median, where the p95 spread 0.05
/// over thirteen runs (`frames` 0.08 over eleven, `rpc-open` 0.03 over
/// five). The p99 and the segments' p99s are kept for the traced run (see
/// [`Layers::set_tail`]), which shows a tail the p95 misses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segmented {
    /// Segments the phase was cut into.
    pub segments: usize,
    /// Answers per segment (the last may hold more).
    pub segment_len: usize,
    /// Answers in the phase.
    pub samples: usize,
    /// Median of the segments' answer rates at speed 1, per s.
    pub rps: f64,
    /// Median of the segments' answer rates as measured, per s.
    pub raw_rps: f64,
    /// Median latency over every answer at speed 1, µs.
    pub p50_us: f64,
    /// 95th-percentile latency over every answer at speed 1, µs.
    pub p95_us: f64,
    /// 99th-percentile latency over every answer at speed 1, µs.
    pub p99_us: f64,
    /// Largest of the segments' 99th-percentile latencies, µs.
    pub max_segment_p99_us: f64,
    /// Segments whose 99th-percentile latency exceeds twice the median of
    /// them.
    pub tail_segments: usize,
}

/// Cuts a phase into segments by answer time; see [`Segmented`].
pub fn segmented(phase: &Phase, period: usize) -> Segmented {
    let mut answers: Vec<(f64, f64)> = phase
        .done_s
        .iter()
        .copied()
        .zip(phase.latencies_us.iter().copied())
        .collect();
    answers.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = answers.len();
    let period = period.max(1);
    let segment_len = SEGMENT_SAMPLES.div_ceil(period) * period;
    let segments = (n / segment_len).max(1);
    let (mut rates, mut raw_rates, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut all = Vec::with_capacity(n);
    for s in 0..segments {
        let lo = s * segment_len;
        let hi = if s + 1 == segments {
            n
        } else {
            lo + segment_len
        };
        if hi <= lo {
            continue;
        }
        let begin = if lo == 0 { 0.0 } else { answers[lo - 1].0 };
        let end = answers[hi - 1].0;
        let answered = (hi - lo) as f64;
        raw_rates.push(answered / (end - begin).max(1e-9));
        rates.push(answered / phase.speed.reference_s(begin, end).max(1e-9));
        // Each answer's latency on the reference clock, over its own
        // lifetime.
        let mut lat: Vec<f64> = answers[lo..hi]
            .iter()
            .map(|&(done, us)| phase.speed.reference_s(done - us / 1e6, done) * 1e6)
            .collect();
        all.extend_from_slice(&lat);
        lat.sort_by(f64::total_cmp);
        p99s.push(stats::percentile(&lat, 0.99));
    }
    let segment_p99_us = stats::median(&p99s);
    all.sort_by(f64::total_cmp);
    Segmented {
        segments,
        segment_len,
        samples: n,
        rps: stats::median(&rates),
        raw_rps: stats::median(&raw_rates),
        p50_us: stats::percentile(&all, 0.50),
        p95_us: stats::percentile(&all, 0.95),
        p99_us: stats::percentile(&all, 0.99),
        max_segment_p99_us: p99s.iter().copied().fold(0.0, f64::max),
        tail_segments: p99s.iter().filter(|&&p| p > 2.0 * segment_p99_us).count(),
    }
}

/// States how the end-to-end timings of `phase` were sampled.
pub fn sampling_note(phase: &Phase, load: Load, period: usize) -> String {
    let seg = segmented(phase, period);
    let (throughput, speed) = match load {
        Load::Closed => (
            "the median of the segments' rates",
            format!(
                "; timings at machine speed 1: the speed sampled {} times read a median {:.3} \
                 over the run, and the segments' rates a median {:.1}/s as measured",
                phase.speed.samples(),
                phase.speed.overall(),
                seg.raw_rps
            ),
        ),
        Load::Open => (
            "the achieved rate over the whole phase",
            "; timings as measured".to_string(),
        ),
    };
    format!(
        "{} segment(s) of {} answers ({} answers in total): throughput is {throughput}, \
         latency p50 and p95 taken over all {} answers ({} beyond the p95){speed}",
        seg.segments,
        seg.segment_len,
        seg.samples,
        seg.samples,
        seg.samples / 20
    )
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(phase: &Phase, load: Load, period: usize, setup_s: f64) -> Vec<Metric> {
    let seg = segmented(phase, period);
    let throughput_rps = match load {
        Load::Closed => seg.rps,
        Load::Open => phase.throughput_rps(),
    };
    vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "throughput_rps",
            value: throughput_rps,
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_us",
            value: seg.p50_us,
            unit: "us",
        },
        Metric {
            name: "latency_p95_us",
            value: seg.p95_us,
            unit: "us",
        },
        Metric {
            name: "sim_cycles_per_req",
            value: phase.sim_cycles_per_req(),
            unit: "cycles",
        },
        Metric {
            name: "peak_rss_mb",
            value: stats::peak_rss_mb(),
            unit: "MB",
        },
    ]
}

/// Runs one invocation.
///
/// # Errors
///
/// Set-up failures and invalid runs (e.g. an open loop that fell behind
/// its offered rate); no result is reported for those.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    match config.workload {
        Workload::Frames => frames::run(config),
        Workload::Programs => programs::run(config),
        Workload::RpcOpen => rpc::run(config),
    }
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                stats::json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.tally.attempted,
        outcome.tally.errors(),
        metrics.join(", ")
    )
}

/// Simulated-device sums over replayed requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Device {
    /// Requests replayed.
    pub requests: u64,
    /// Simulated crossbar cycles.
    pub cycles: u64,
    /// Simulated energy, pJ.
    pub picojoules: f64,
    /// Recorded microprogram primitives.
    pub primitives: u64,
    /// Replayed values that differ from the reference.
    pub wrong: u64,
}

/// Pool-side counters accumulated between two metrics snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeDelta {
    /// Batches dispatched.
    pub batches: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Summed batch service time, µs.
    pub service_sum_us: f64,
    /// Median batch service time, µs: the upper edge of the pool
    /// histogram's power-of-two bucket holding it.
    pub service_p50_us: f64,
}

/// The pool-side counters accumulated from `before` to `after`.
pub fn serve_delta(
    before: &apim_serve::MetricsSnapshot,
    after: &apim_serve::MetricsSnapshot,
) -> ServeDelta {
    let buckets: Vec<u64> = after
        .batch_service_buckets
        .iter()
        .zip(&before.batch_service_buckets)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    ServeDelta {
        batches: after.batches.saturating_sub(before.batches),
        retries: after.retries.saturating_sub(before.retries),
        service_sum_us: after
            .batch_service_sum_us
            .saturating_sub(before.batch_service_sum_us) as f64,
        service_p50_us: apim_serve::metrics::quantile_from_buckets(&buckets, 0.5).unwrap_or(0)
            as f64,
    }
}

impl ServeDelta {
    /// The counters less one batch of `service_us`: a primer job that is
    /// not part of the measured requests.
    pub fn without_primer(self, service_us: f64) -> ServeDelta {
        ServeDelta {
            batches: self.batches.saturating_sub(1),
            service_sum_us: (self.service_sum_us - service_us).max(0.0),
            ..self
        }
    }
}

/// Writes the spans of a traced run.
///
/// # Errors
///
/// Write failures.
pub fn finish_trace(
    config: &RunConfig,
    tracer: &trace::Tracer,
    notes: &[String],
) -> Result<(), String> {
    if let Some(path) = &config.spans_path {
        tracer
            .write_jsonl(path, notes)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }
    Ok(())
}
