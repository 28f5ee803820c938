//! `rpc-open`: open-loop arrivals through a one-node loopback cluster.
//!
//! Requests (mostly `Echo`, a seeded share of `Multiply`) arrive as a
//! seeded Poisson process at a fixed rate well below capacity and are sent
//! on the pipelined client with
//! `ClusterClient::begin_submit`; latency is timed from each request's due
//! time to the moment the load thread observes its answer. This is the only
//! workload that crosses the cluster wire codec, the client mux and the
//! node's event loop.

use std::hint::black_box;
use std::time::{Duration, Instant};

use apim::{Apim, PrecisionMode};
use apim_cluster::wire::{decode_frame, encode_frame, Message, Reply, WireOutput};
use apim_cluster::{ClusterClient, ClusterConfig, ClusterError, LoopbackCluster, PendingSubmit};
use apim_serve::{JobKind, MetricsSnapshot, PoolConfig, TenantId};

use crate::gen::{self, RpcJob};
use crate::trace::Tracer;
use crate::{
    end_to_end, finish_trace, sampling_note, serve_delta, stats, timed_setup, Device, Layers, Load,
    Outcome, Phase, RunConfig,
};

/// Offered arrival rate, requests per second (mean of the Poisson
/// arrivals).
pub const RATE_PER_S: f64 = 2000.0;
/// A run whose achieved rate falls more than this share below the offered
/// rate is invalid: the generator or the system fell behind.
pub const RATE_SHORTFALL_BOUND: f64 = 0.05;
/// Multiplexed client connections: one, so the client adds a single I/O
/// thread to the load thread, the node's event loop and its pool worker.
pub const CONNECTIONS: usize = 1;
/// Node pool workers.
pub const WORKERS: usize = 1;
/// Sleep between completion polls while the load thread waits.
const POLL: Duration = Duration::from_micros(50);
/// A request unanswered this long counts as lost.
const LOST_AFTER: Duration = Duration::from_secs(5);

/// Requests in a set sized for `seconds` of arrivals.
pub fn request_count(seconds: f64) -> usize {
    ((seconds * RATE_PER_S).round() as usize).max(1)
}

/// The node's pool: shipped defaults with only workers and queue depth set.
pub fn pool_config() -> PoolConfig {
    PoolConfig {
        workers: WORKERS,
        queue_depth: 1024,
        ..PoolConfig::default()
    }
}

/// The request set plus the cluster serving it.
pub struct Fixture {
    /// Requests and expected replies.
    pub jobs: Vec<RpcJob>,
    /// Modelled crossbar cycles of each request (the node's simulator
    /// prices a multiply; the reply does not carry it), and its energy, pJ.
    pub cost: Vec<(u64, f64)>,
    // Field order is drop order: the client goes before its cluster.
    client: ClusterClient,
    cluster: LoopbackCluster,
}

/// Builds the request set and its references, then starts the cluster
/// with [`start_cluster`] (see [`timed_setup`]); returns the fixture and
/// the median start time, s.
///
/// # Errors
///
/// Spawn, connect or warm-up failures.
pub fn setup(seed: u64, count: usize) -> Result<(Fixture, f64), String> {
    let jobs = gen::rpc(seed, count, RATE_PER_S);
    let pool = pool_config();
    let apim = Apim::new(pool.apim.clone()).map_err(|e| e.to_string())?;
    let cost = jobs
        .iter()
        .map(|job| match job.request.kind {
            JobKind::Multiply { a, b } => {
                let report = apim.multiply(a, b, PrecisionMode::Exact);
                (report.cost.cycles.get(), report.cost.energy.as_picojoules())
            }
            _ => (0, 0.0),
        })
        .collect();
    let ((client, cluster), setup_s) = timed_setup(|| start_cluster(&pool))?;
    Ok((
        Fixture {
            jobs,
            cost,
            client,
            cluster,
        },
        setup_s,
    ))
}

/// Spawns the node, connects the client and opens every connection with
/// one echo each. Dropping the pair drops the client first.
///
/// # Errors
///
/// Spawn, connect or warm-up failures.
pub fn start_cluster(pool: &PoolConfig) -> Result<(ClusterClient, LoopbackCluster), String> {
    let cluster = LoopbackCluster::spawn(1, pool).map_err(|e| e.to_string())?;
    let mut client_config = cluster.client_config();
    client_config.conns_per_node = CONNECTIONS;
    // The shipped client's health-check period, not the harness's 20 ms.
    client_config.health_interval = ClusterConfig::default().health_interval;
    let client = ClusterClient::connect(client_config).map_err(|e| e.to_string())?;
    for warm in 0..CONNECTIONS as u64 {
        let request = apim_serve::Request::new(JobKind::Echo { payload: warm });
        client
            .begin_submit(&request)
            .and_then(|p| p.wait(Duration::from_secs(5)))
            .map_err(|e| format!("warm-up echo: {e}"))?;
    }
    Ok((client, cluster))
}

impl Fixture {
    fn shutdown(self) {
        let Fixture {
            client, cluster, ..
        } = self;
        drop(client);
        cluster.shutdown();
    }
}

/// One measured pass over the request set.
#[derive(Debug, Clone, Default)]
pub struct RpcPhase {
    /// Outcomes, latencies from due time, achieved-rate wall time,
    /// modelled cycles.
    pub phase: Phase,
    /// Send instant minus due instant, µs, per request.
    pub send_lag_us: Vec<f64>,
    /// Send to observed answer, µs, per answered request.
    pub rpc_us: Vec<f64>,
    /// Node-side latency from each reply, µs.
    pub node_us: Vec<f64>,
    /// Modelled energy of the answered requests, pJ.
    pub picojoules: f64,
    /// Every answered request's reply, for the codec replay (traced
    /// phases only, so untraced runs hold no per-reply copies).
    pub replies: Vec<(u64, Reply)>,
}

struct InFlight {
    index: usize,
    pending: PendingSubmit,
    due: Instant,
    sent: Instant,
    submit_end: Instant,
}

/// Sends the set on its schedule and checks every reply.
///
/// # Errors
///
/// An achieved rate below the offered rate by
/// more than [`RATE_SHORTFALL_BOUND`]: the run is invalid, not a latency.
pub fn measure(fx: &Fixture, mut tracer: Option<&mut Tracer>) -> Result<RpcPhase, String> {
    let mut out = RpcPhase::default();
    let start = Instant::now() + Duration::from_millis(1);
    let mut inflight: Vec<InFlight> = Vec::new();
    let mut last_done = start;
    let harvest = |inflight: &mut Vec<InFlight>,
                   out: &mut RpcPhase,
                   tracer: &mut Option<&mut Tracer>,
                   last_done: &mut Instant,
                   start: Instant| {
        let mut i = 0;
        while i < inflight.len() {
            let Some(outcome) = inflight[i].pending.try_complete() else {
                if inflight[i].sent.elapsed() > LOST_AFTER {
                    inflight.swap_remove(i);
                    out.phase.tally.lost += 1;
                } else {
                    i += 1;
                }
                continue;
            };
            let done = Instant::now();
            let f = inflight.swap_remove(i);
            *last_done = done;
            let reply = settle(fx, out, &f, start, done, outcome);
            if let Some(t) = tracer.as_deref_mut() {
                out.replies.extend(reply);
                let id = f.index as u64;
                let root = t.record("cluster.rpc", None, id, f.sent, done);
                t.record("cluster.begin_submit", Some(root), id, f.sent, f.submit_end);
            }
        }
    };
    for (index, job) in fx.jobs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(job.due_s);
        loop {
            harvest(&mut inflight, &mut out, &mut tracer, &mut last_done, start);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL));
        }
        let sent = Instant::now();
        out.phase.tally.attempted += 1;
        out.send_lag_us
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
        match fx.client.begin_submit(&job.request) {
            Ok(pending) => inflight.push(InFlight {
                index,
                pending,
                due,
                sent,
                submit_end: Instant::now(),
            }),
            Err(_) => out.phase.tally.lost += 1,
        }
    }
    while !inflight.is_empty() {
        harvest(&mut inflight, &mut out, &mut tracer, &mut last_done, start);
        std::thread::sleep(POLL);
    }
    out.phase.wall_s = last_done.saturating_duration_since(start).as_secs_f64();
    // The rate the seeded schedule offers, not the nominal one: a short set
    // of Poisson arrivals can run a little above or below the nominal rate.
    let offered = fx.jobs.len() as f64 / fx.jobs.last().map_or(0.0, |j| j.due_s).max(1e-9);
    let achieved = out.phase.throughput_rps();
    if fx.jobs.len() > 1 && achieved < offered * (1.0 - RATE_SHORTFALL_BOUND) {
        return Err(format!(
            "invalid run: achieved {achieved:.1} req/s against {offered:.1} offered \
             (send lag p99 {:.0} us); not reported as a latency",
            {
                let mut lag = out.send_lag_us.clone();
                lag.sort_by(f64::total_cmp);
                stats::percentile(&lag, 0.99)
            }
        ));
    }
    Ok(out)
}

/// Checks one outcome and records it; returns the reply as it crossed the
/// wire, for the codec replay.
fn settle(
    fx: &Fixture,
    out: &mut RpcPhase,
    f: &InFlight,
    start: Instant,
    done: Instant,
    outcome: Result<apim_cluster::ClusterResponse, ClusterError>,
) -> Option<(u64, Reply)> {
    let job = &fx.jobs[f.index];
    match outcome {
        Ok(response) => {
            out.phase.answered(
                done.saturating_duration_since(f.due).as_secs_f64() * 1e6,
                done.saturating_duration_since(start).as_secs_f64(),
            );
            out.rpc_us
                .push(done.saturating_duration_since(f.sent).as_secs_f64() * 1e6);
            out.node_us.push(response.node_latency_us as f64);
            let ok = response.output.summary == job.summary
                && job.digest.is_none_or(|d| d == response.output.digest);
            if ok {
                out.phase.tally.correct += 1;
                let (cycles, pj) = fx.cost[f.index];
                out.phase.sim_cycles += cycles as f64;
                out.picojoules += pj;
            } else {
                out.phase.tally.wrong += 1;
            }
            Some((
                f.index as u64,
                Reply {
                    tenant: TenantId::default(),
                    attempts: response.attempts,
                    latency_us: response.node_latency_us,
                    result: Ok(WireOutput {
                        digest: response.output.digest,
                        summary: response.output.summary,
                    }),
                },
            ))
        }
        Err(ClusterError::Rejected(_)) => {
            out.phase.tally.rejected += 1;
            None
        }
        Err(_) => {
            out.phase.tally.lost += 1;
            None
        }
    }
}

/// Encodes then decodes every submit and reply message of the traced
/// phase, each direction timed as one span over the whole batch; returns
/// `(encode_ns, decode_ns)` per request (submit plus reply).
fn replay_codec(
    fx: &Fixture,
    replies: &[(u64, Reply)],
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let messages: Vec<Message> = replies
        .iter()
        .flat_map(|(seq, reply)| {
            [
                Message::Submit {
                    seq: *seq,
                    request: fx.jobs[*seq as usize].request.clone(),
                },
                Message::Reply {
                    seq: *seq,
                    reply: reply.clone(),
                },
            ]
        })
        .collect();
    let (encode_span, frames) = tracer.time("cluster.wire_encode", None, 0, || {
        messages.iter().map(encode_frame).collect::<Vec<_>>()
    });
    let (decode_span, decoded) = tracer.time("cluster.wire_decode", None, 0, || {
        frames
            .iter()
            .map(|f| decode_frame(f).map(|(m, _)| m))
            .collect::<Result<Vec<_>, _>>()
    });
    let decoded = decoded.map_err(|e| e.to_string())?;
    if decoded != messages {
        return Err("wire codec round trip changed a message".into());
    }
    black_box(decoded);
    let per_req =
        |span: usize| tracer.spans()[span].duration_ns() as f64 / replies.len().max(1) as f64;
    Ok((per_req(encode_span), per_req(decode_span)))
}

fn pull(fx: &Fixture) -> Result<MetricsSnapshot, String> {
    fx.client
        .pull_metrics()
        .map(|fleet| fleet.merged)
        .map_err(|e| e.to_string())
}

/// Runs `rpc-open`.
///
/// # Errors
///
/// Set-up failures and invalid (behind-schedule) runs.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let describe = |count: usize| {
        format!(
            "rpc-open: {count} requests (1 in {} a multiply) open loop, Poisson arrivals at \
             {RATE_PER_S} req/s through a 1-node loopback cluster, {CONNECTIONS} pipelined connections, \
             {WORKERS} node pool worker(s), 1 load thread",
            gen::MULTIPLY_ONE_IN
        )
    };
    if !config.trace {
        let count = request_count(config.seconds);
        let (fx, setup_s) = setup(config.seed, count)?;
        let m = measure(&fx, None)?;
        fx.shutdown();
        let mut lag = m.send_lag_us.clone();
        lag.sort_by(f64::total_cmp);
        let notes = vec![
            describe(count),
            sampling_note(&m.phase, Load::Open, gen::MULTIPLY_ONE_IN as usize),
            format!(
                "latency is timed from each request's due time; send lag p99 {:.1} us",
                stats::percentile(&lag, 0.99)
            ),
            "sim_cycles_per_req prices each multiply with the node's simulator configuration \
             (replies carry no cycle count); echoes cost 0"
                .into(),
        ];
        return Ok(Outcome {
            tally: m.phase.tally,
            metrics: end_to_end(&m.phase, Load::Open, gen::MULTIPLY_ONE_IN as usize, setup_s),
            notes,
        });
    }

    let count = request_count(config.seconds / 3.0);
    let (fx, _) = setup(config.seed, count)?;
    let plain = measure(&fx, None)?;
    let before = pull(&fx)?;
    let mut tracer = Tracer::with_capacity(2 * count + 2);
    let traced = measure(&fx, Some(&mut tracer))?;
    let after = pull(&fx)?;
    let (encode_ns, decode_ns) = replay_codec(&fx, &traced.replies, &mut tracer)?;
    fx.shutdown();

    let mut tally = plain.phase.tally;
    tally.absorb(traced.phase.tally);
    let rpc_p50 = stats::median(&traced.rpc_us);
    let node_p50 = stats::median(&traced.node_us);
    let transport_p50 = rpc_p50 - node_p50;
    let codec_us = (encode_ns + decode_ns) / 1e3;
    let serve = serve_delta(&before, &after);
    let mut lag = traced.send_lag_us.clone();
    lag.sort_by(f64::total_cmp);

    let mut layers = Layers::default();
    layers.set_device(&Device {
        requests: traced.phase.tally.correct,
        cycles: traced.phase.sim_cycles as u64,
        picojoules: traced.picojoules,
        ..Device::default()
    });
    // A batch runs its requests one after another.
    layers.set_serve(
        &serve,
        node_p50,
        serve.service_sum_us / traced.node_us.len().max(1) as f64,
    );
    layers.set("cluster.rpc_p50_us", rpc_p50);
    layers.set("cluster.node_latency_p50_us", node_p50);
    layers.set("cluster.transport_p50_us", transport_p50);
    layers.set("cluster.wire_encode_ns", encode_ns);
    layers.set("cluster.wire_decode_ns", decode_ns);
    layers.set("net.wait_p50_us", transport_p50 - codec_us);
    layers.set("loadgen.send_lag_p99_us", stats::percentile(&lag, 0.99));
    let clamped = layers.set_validity(
        stats::mean(&traced.node_us) + codec_us,
        stats::mean(&traced.rpc_us),
        &plain.phase,
        &traced.phase,
        &tally,
    );
    layers.set_tail(&plain.phase, gen::MULTIPLY_ONE_IN as usize);
    layers.set_machine_speed(&plain.phase);

    let mut notes = vec![
        describe(count),
        "cluster.rpc is begin_submit to observed answer; node latency comes from each reply; \
         transport = rpc - node; wire codec times encode_frame/decode_frame on the same submit \
         and reply messages (ns per request, both messages); net.wait = transport - codec"
            .into(),
        "unattributed share is the part of mean rpc time not covered by node latency and \
         codec: event-loop and mux waits plus the load thread's 50 us completion polling"
            .into(),
        "device.nor_ops_per_req reads 0: a multiply's reply and cost model carry no \
         primitive count"
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
