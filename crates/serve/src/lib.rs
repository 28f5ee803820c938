//! # apim-serve — concurrent multi-tenant serving runtime
//!
//! The layers below this crate simulate *one* APIM device; this crate
//! turns the simulator into a service. A [`Pool`] owns a team of worker
//! threads, each holding its own sharded [`apim::Apim`] instance, fed by
//! a bounded intake queue:
//!
//! * **Admission control / backpressure** — the queue never grows past
//!   its configured depth; excess requests are rejected synchronously
//!   with [`ServeError::Overloaded`] (and greedy tenants individually
//!   with [`ServeError::QuotaExceeded`]), mirroring how the paper's
//!   controller refuses work that does not fit its 2048 block pairs.
//! * **Batching** — queued requests coalesce into batches keyed by
//!   `(app, precision mode)`, so one worker amortizes executor setup and
//!   deduplicates identical runs inside a batch. One-shot workloads are
//!   placed onto workers with the architecture layer's LPT
//!   [`Schedule`](apim_arch::scheduler::Schedule) — host threads are
//!   scheduled exactly like the device's block pairs. Same-kernel
//!   [`JobKind::Pixel`] requests go further: one lane-batched pass
//!   answers up to 64 of them, one pixel per bitline lane (DESIGN.md
//!   §16); a lone pixel runs the 1-lane program, which is the serial
//!   one. Each worker compiles a kernel once per `(app, lanes)` and
//!   keeps it; every pass is still linted.
//! * **Deadlines and retries** — each request may carry a deadline;
//!   failed attempts (simulator errors, injected faults, worker panics)
//!   retry with capped exponential backoff before surfacing a structured
//!   [`ServeError`].
//! * **Observability** — a lock-free [`Metrics`] registry (atomic
//!   counters, power-of-two-bucket latency histograms with p50/p95/p99,
//!   queue-depth and utilization gauges) with a text snapshot exporter.
//! * **Graceful drain/shutdown** — every accepted request is answered;
//!   [`Pool::shutdown`] finishes the backlog before joining workers.
//!
//! Plain `std` threads, no async runtime: the work units are
//! CPU-bound simulator calls measured in micro- to milliseconds, so a
//! thread per core with a bounded queue is both simpler and faster than
//! an executor — see DESIGN.md §8.
//!
//! ```
//! use apim_serve::{JobKind, Pool, PoolConfig, Request};
//!
//! # fn main() -> Result<(), apim::ApimError> {
//! let pool = Pool::new(PoolConfig { workers: 2, ..PoolConfig::default() })?;
//! let handle = pool
//!     .submit(Request::new(JobKind::Multiply { a: 1_000_003, b: 2_000_029 }))
//!     .expect("queue has room");
//! let response = handle.wait();
//! assert!(response.result.is_ok());
//! pool.shutdown();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod loadgen;
pub mod metrics;
mod pool;
mod queue;
mod request;

pub use metrics::{Metrics, MetricsSnapshot};
pub use pool::{FaultPlan, JobHandle, Pool, PoolConfig};
pub use request::{JobKind, JobOutput, Request, Response, ServeError, TenantId};

use apim::campaign::CampaignExecutor;
use apim::{ApimConfig, ApimError, App, PrecisionMode, RunReport};

impl CampaignExecutor for Pool {
    /// Runs a campaign's sweep on the pool's workers via the one-shot LPT
    /// path. Each `(app, size, mode)` job is executed on a simulator shard
    /// built from the *campaign's* configuration, and reports come back in
    /// job order — values and order are identical to the serial
    /// `Campaign::run`.
    fn run_campaign(
        &self,
        config: &ApimConfig,
        jobs: &[(App, u64, PrecisionMode)],
    ) -> Result<Vec<RunReport>, ApimError> {
        let requests = jobs
            .iter()
            .map(|&(app, dataset_bytes, mode)| {
                Request::new(JobKind::Run { app, dataset_bytes }).mode(mode)
            })
            .collect();
        let responses = self.run_all_with_config(config, requests)?;
        responses
            .into_iter()
            .map(|response| match response.result {
                Ok(JobOutput::Run(report)) => Ok(*report),
                Ok(_) => Err(ApimError::Runtime(
                    "run job answered with a non-run output".into(),
                )),
                Err(e) => Err(ApimError::Runtime(e.to_string())),
            })
            .collect()
    }
}
