//! The closed-loop load generator shared by `frames` and `programs`.
//!
//! Requests go out in groups (a `frames` tile, or one program); at most
//! `window` groups are in flight, and the next group is submitted as soon
//! as the oldest one is fully answered. Groups are submitted back to back
//! from one thread, so a group sits whole in the pool's queue before the
//! single worker reaches it.

use std::collections::VecDeque;
use std::time::Instant;

use apim_serve::{JobHandle, JobKind, Pool, PoolConfig, Request, Response, ServeError};

use crate::speed::{Placement, SpeedLog, Speedometer};
use crate::trace::Tracer;

/// Pool workers. With the load thread this stays within two cores, and a
/// single worker keeps batch makeup independent of thread timing.
pub const WORKERS: usize = 1;

/// The pool the in-process workloads measure: the shipped defaults
/// (coalescing policy, retries, lane batching) with only the worker count
/// and queue depth set.
pub fn pool_config(queue_depth: usize) -> PoolConfig {
    PoolConfig {
        workers: WORKERS,
        queue_depth,
        ..PoolConfig::default()
    }
}

/// Source of the primer: a job submitted ahead of the measured requests,
/// with a batch key no measured request shares. It keeps the idle worker
/// busy while the first window of groups is queued, so even the first
/// groups are popped whole. A chain of 24 constant MACs takes about as long
/// as one lane-batched pass (tens of ms): far longer than queueing a
/// window, and longer than a scheduler time slice, so a load thread that
/// the waking worker preempts gets the CPU back and queues the window before
/// the primer ends. (A one-multiply primer, a few ms, lost that race.)
fn primer_source() -> String {
    let mut lines = vec!["width 32".to_string(), "in a".into(), "in b".into()];
    let (mut older, mut newer) = ("a".to_string(), "b".to_string());
    for k in 0..24u32 {
        let name = format!("t{k}");
        lines.push(format!(
            "let {name} = mac({newer}*{}, {older}*{})",
            40_503 + 97 * k,
            52_517 + 89 * k
        ));
        older = std::mem::replace(&mut newer, name);
    }
    lines.push(format!("out {newer}"));
    lines.join("\n")
}

/// How a request ended.
#[derive(Debug)]
pub enum Answer {
    /// Refused at admission.
    Rejected(ServeError),
    /// Answered by the pool.
    Done {
        /// The pool's response.
        response: Response,
        /// Submit call to observed answer, µs.
        latency_us: f64,
        /// When the answer was observed, s since the drive began.
        done_s: f64,
    },
}

/// What a closed-loop drive measured besides the per-request answers.
#[derive(Debug, Clone)]
pub struct Drive {
    /// Wall time from the first measured submission to the last answer, s.
    pub wall_s: f64,
    /// Service time of a primed drive's primer job, µs (to subtract from
    /// pool totals).
    pub primer_us: f64,
    /// The machine's speed over the drive, times counted from its first
    /// submission.
    pub speed: SpeedLog,
}

struct Sent {
    handle: Result<JobHandle, ServeError>,
    sent: Instant,
    span: Option<usize>,
}

fn submit_primer(pool: &Pool, primed: bool) -> Result<Option<JobHandle>, String> {
    if !primed {
        return Ok(None);
    }
    pool.submit(Request::new(JobKind::Compile {
        source: primer_source(),
    }))
    .map(Some)
    .map_err(|e| format!("primer refused: {e}"))
}

fn primer_us(primer: Option<JobHandle>) -> Result<f64, String> {
    let Some(primer) = primer else {
        return Ok(0.0);
    };
    let primer = primer.wait();
    match primer.result {
        Ok(_) => Ok(primer.latency.as_secs_f64() * 1e6),
        Err(e) => Err(format!("primer failed: {e}")),
    }
}

/// Drives `groups` through `pool` with at most `window` groups in flight,
/// calling `settle(group, member, answer)` for every request in
/// submission order. A `primed` drive starts behind a primer job (needed
/// only where batch makeup matters). A [`Speedometer`] on the serving CPU
/// samples the machine's speed throughout, while the calling thread drives
/// the load from the load CPU (see [`Placement`]); it is back on the
/// serving CPU when the drive returns. With a tracer, each request gets a
/// `bench.request` span (submit to observed answer) with a `serve.submit`
/// child.
///
/// # Errors
///
/// A failed primer job.
pub fn drive(
    pool: &Pool,
    placement: &Placement,
    groups: &[Vec<Request>],
    window: usize,
    primed: bool,
    mut tracer: Option<&mut Tracer>,
    mut settle: impl FnMut(usize, usize, Answer),
) -> Result<Drive, String> {
    let primer = submit_primer(pool, primed)?;
    let started = Instant::now();
    let speedometer = Speedometer::start(started);
    placement.to_load();
    let mut inflight: VecDeque<(usize, Vec<Sent>)> = VecDeque::with_capacity(window + 1);
    let mut next_id = 0u64;
    let mut finish = |group: usize, sent: Vec<Sent>, tracer: &mut Option<&mut Tracer>| {
        for (member, s) in sent.into_iter().enumerate() {
            let answer = match s.handle {
                Err(e) => Answer::Rejected(e),
                Ok(handle) => {
                    let response = handle.wait();
                    let done = Instant::now();
                    let latency_us = done.duration_since(s.sent).as_secs_f64() * 1e6;
                    if let (Some(t), Some(span)) = (tracer.as_deref_mut(), s.span) {
                        t.close(span);
                    }
                    Answer::Done {
                        response,
                        latency_us,
                        done_s: done.duration_since(started).as_secs_f64(),
                    }
                }
            };
            settle(group, member, answer);
        }
    };
    for (index, group) in groups.iter().enumerate() {
        if inflight.len() == window {
            let (g, sent) = inflight.pop_front().expect("window is nonzero");
            finish(g, sent, &mut tracer);
        }
        let sent = group
            .iter()
            .map(|request| {
                let id = next_id;
                next_id += 1;
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.open("bench.request", None, id));
                let request = request.clone();
                let sent = Instant::now();
                let handle = pool.submit(request);
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("serve.submit", span, id, sent, Instant::now());
                }
                Sent { handle, sent, span }
            })
            .collect();
        inflight.push_back((index, sent));
    }
    while let Some((g, sent)) = inflight.pop_front() {
        finish(g, sent, &mut tracer);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let speed = speedometer.finish();
    placement.to_serving();
    Ok(Drive {
        wall_s,
        primer_us: primer_us(primer)?,
        speed,
    })
}
