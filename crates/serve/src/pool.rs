//! The worker pool: sharded simulator instances behind a bounded queue.
//!
//! Each worker thread owns its own [`Apim`] instance (the simulator is a
//! cheap value type, so sharding it removes all cross-worker contention on
//! the hot path) and its own cache of compiled pixel kernels; work arrives
//! as coalesced batches from the shared [`Intake`](crate::queue::Intake)
//! queue. A batch splits into units, each answered by one execution:
//! identical runs once, same-kernel pixels as one lane-batched pass, any
//! other job alone. Every unit takes the same envelope: execution attempts
//! that fail — simulator errors, injected faults, worker panics — are
//! retried with capped exponential backoff while each member's deadline
//! allows, then surfaced as a structured [`ServeError`].

use crate::metrics::Metrics;
use crate::queue::{Intake, Job};
use crate::request::{pixel_arity, JobKind, JobOutput, Request, Response, ServeError};
use apim::{Apim, ApimConfig, ApimError, App, PrecisionMode};
use apim_compile::{BatchCompiledProgram, CompileOptions};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deterministic fault injection for chaos-testing the retry and
/// panic-isolation paths. It counts unit attempts — one execution that
/// answers a whole unit of a batch (identical runs, one lane-batched pixel
/// pass, or a single job) — and the count is global across the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPlan {
    /// No injected faults.
    #[default]
    None,
    /// Every `n`-th unit attempt returns a synthetic failure.
    FailEvery(u64),
    /// Every `n`-th unit attempt panics inside the worker.
    PanicEvery(u64),
}

/// Configuration of a [`Pool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (each holds one simulator shard). Must be nonzero.
    pub workers: usize,
    /// Intake queue capacity: admission control rejects beyond this.
    pub queue_depth: usize,
    /// Largest batch a worker coalesces per pop.
    pub max_batch: usize,
    /// Retries after a failed execution attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Deadline applied to requests that carry none.
    pub default_deadline: Option<Duration>,
    /// Max queue slots one tenant may hold (`None` = no quota).
    pub per_tenant_quota: Option<usize>,
    /// Device configuration for every worker's simulator shard.
    pub apim: ApimConfig,
    /// Injected faults (testing).
    pub fault: FaultPlan,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            queue_depth: 256,
            max_batch: 8,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            default_deadline: None,
            per_tenant_quota: None,
            apim: ApimConfig::default(),
            fault: FaultPlan::None,
        }
    }
}

/// One-slot rendezvous delivering a [`Response`] to a [`JobHandle`].
#[derive(Debug, Default)]
pub struct ResponseSlot {
    value: Mutex<Option<Response>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn fill(&self, response: Response) {
        let mut value = self.value.lock().expect("slot lock");
        *value = Some(response);
        drop(value);
        self.ready.notify_all();
    }

    fn wait(&self) -> Response {
        let mut value = self.value.lock().expect("slot lock");
        loop {
            if let Some(response) = value.take() {
                return response;
            }
            value = self.ready.wait(value).expect("slot lock");
        }
    }

    fn try_take(&self) -> Option<Response> {
        self.value.lock().expect("slot lock").take()
    }
}

/// Receipt for an accepted request; redeem it with [`JobHandle::wait`].
#[derive(Debug)]
pub struct JobHandle {
    id: u64,
    slot: Arc<ResponseSlot>,
}

impl JobHandle {
    /// The pool-assigned request id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives. Every accepted request is
    /// answered, including across drain and shutdown.
    pub fn wait(self) -> Response {
        self.slot.wait()
    }

    /// Returns the response if it already arrived, consuming it.
    pub fn try_wait(&self) -> Option<Response> {
        self.slot.try_take()
    }
}

/// A concurrent serving pool over sharded APIM simulator instances.
///
/// ```
/// use apim_serve::{JobKind, Pool, PoolConfig, Request};
///
/// # fn main() -> Result<(), apim::ApimError> {
/// let pool = Pool::new(PoolConfig { workers: 2, ..PoolConfig::default() })?;
/// let handle = pool
///     .submit(Request::new(JobKind::Multiply { a: 7, b: 6 }))
///     .expect("queue has room");
/// let response = handle.wait();
/// assert!(response.result.is_ok());
/// pool.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    config: PoolConfig,
}

#[derive(Debug)]
struct Shared {
    intake: Intake,
    metrics: Arc<Metrics>,
    config: PoolConfig,
    next_id: AtomicU64,
    attempt_counter: AtomicU64,
}

impl Pool {
    /// Spawns the workers, each with its own simulator shard.
    ///
    /// # Errors
    ///
    /// Returns [`apim::ArchError::ZeroUnits`] for `workers == 0` and
    /// propagates invalid device configurations.
    pub fn new(config: PoolConfig) -> Result<Self, ApimError> {
        if config.workers == 0 {
            return Err(apim::ArchError::ZeroUnits.into());
        }
        // Validate the device configuration once, up front.
        Apim::new(config.apim.clone())?;
        let metrics = Arc::new(Metrics::default());
        let shared = Arc::new(Shared {
            intake: Intake::new(
                config.queue_depth,
                config.per_tenant_quota,
                Arc::clone(&metrics),
            ),
            metrics,
            config: config.clone(),
            next_id: AtomicU64::new(0),
            attempt_counter: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("apim-serve-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Pool {
            shared,
            workers,
            config,
        })
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Submits a request. Admission control answers synchronously: a full
    /// queue or exhausted tenant quota rejects immediately (backpressure),
    /// an accepted request returns a [`JobHandle`] that is always
    /// eventually answered.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`], [`ServeError::QuotaExceeded`] or
    /// [`ServeError::ShuttingDown`].
    pub fn submit(&self, request: Request) -> Result<JobHandle, ServeError> {
        let metrics = &self.shared.metrics;
        let slot = Arc::new(ResponseSlot::default());
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant = request.tenant;
        let job = Job {
            id,
            request,
            submitted: Instant::now(),
            slot: Arc::clone(&slot),
        };
        match self.shared.intake.push(job) {
            Ok(()) => {
                metrics.accepted.inc();
                metrics.tenant(tenant.0).accepted.inc();
                Ok(JobHandle { id, slot })
            }
            Err(e) => {
                metrics.rejected.inc();
                metrics.tenant(tenant.0).rejected.inc();
                Err(e)
            }
        }
    }

    /// Blocks until every accepted request has been answered. New
    /// submissions remain possible afterwards; call [`Pool::shutdown`] to
    /// also stop the workers.
    pub fn drain(&self) {
        self.shared.intake.drain();
    }

    /// Graceful shutdown: stop accepting, finish the entire backlog, join
    /// every worker. Consumes the pool.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.shared.intake.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Jobs currently queued (excludes in-flight work).
    pub fn queue_depth(&self) -> usize {
        self.shared.intake.depth()
    }

    /// Executes a fixed request set to completion, bypassing admission
    /// control, and returns responses in input order.
    ///
    /// This is the one-shot path (`apim-cli serve`, parallel campaigns):
    /// with the whole workload known up front the pool batches it by
    /// `(app, mode)`, costs each batch with the device's analytic model
    /// and places batches onto workers with the architecture layer's LPT
    /// [`Schedule`](apim_arch::scheduler::Schedule) — the same scheduler
    /// the simulated device uses for its block pairs.
    ///
    /// # Errors
    ///
    /// Propagates device configuration errors; per-request failures are
    /// reported inside each [`Response`].
    pub fn run_all(&self, requests: Vec<Request>) -> Result<Vec<Response>, ApimError> {
        self.run_all_with_config(&self.config.apim, requests)
    }

    /// [`Pool::run_all`] with an explicit device configuration (used by
    /// parallel campaigns, whose sweep carries its own config).
    ///
    /// # Errors
    ///
    /// Propagates device configuration errors.
    pub fn run_all_with_config(
        &self,
        device: &ApimConfig,
        requests: Vec<Request>,
    ) -> Result<Vec<Response>, ApimError> {
        let probe = Apim::new(device.clone())?;
        // Group request indices into batches keyed by (app, mode).
        type BatchKey = (Option<App>, PrecisionMode);
        let mut batches: Vec<(BatchKey, Vec<usize>)> = Vec::new();
        let mut by_key: HashMap<BatchKey, usize> = HashMap::new();
        for (index, request) in requests.iter().enumerate() {
            let key = request.batch_key();
            let slot = *by_key.entry(key).or_insert_with(|| {
                batches.push((key, Vec::new()));
                batches.len() - 1
            });
            batches[slot].1.push(index);
        }
        // Cost each batch with the analytic model and LPT-place the
        // batches onto the worker count.
        let cycles: Vec<apim::Cycles> = batches
            .iter()
            .map(|(_, members)| {
                let total: u64 = members
                    .iter()
                    .map(|&i| estimate_cycles(&probe, &requests[i]))
                    .sum();
                apim::Cycles::new(total.max(1))
            })
            .collect();
        let schedule = apim_arch::scheduler::Schedule::lpt(
            &cycles,
            u32::try_from(self.config.workers).unwrap_or(u32::MAX),
        )
        .map_err(ApimError::from)?;
        // Per-worker batch lists, executed on scoped threads with one
        // simulator shard each; results land at their original index.
        let mut per_worker: Vec<Vec<usize>> = vec![Vec::new(); self.config.workers];
        for placement in schedule.placements() {
            per_worker[placement.unit as usize].push(placement.job);
        }
        let mut slots: Vec<Option<Response>> = Vec::new();
        slots.resize_with(requests.len(), || None);
        let slots = Mutex::new(slots);
        let shared = &self.shared;
        let requests = &requests;
        let batches = &batches;
        std::thread::scope(|scope| -> Result<(), ApimError> {
            let mut joins = Vec::new();
            for batch_ids in per_worker.into_iter().filter(|w| !w.is_empty()) {
                let apim = Apim::new(device.clone())?;
                let slots = &slots;
                joins.push(scope.spawn(move || {
                    let mut kernels = KernelCache::new(&apim);
                    for batch_id in batch_ids {
                        let indices = &batches[batch_id].1;
                        // The one-shot path has no queue: each member is
                        // accepted, and its latency clock starts, as its
                        // batch begins.
                        let started = Instant::now();
                        let members: Vec<(u64, &Request, Instant)> = indices
                            .iter()
                            .map(|&i| (i as u64, &requests[i], started))
                            .collect();
                        for (_, request, _) in &members {
                            shared.metrics.accepted.inc();
                            shared.metrics.tenant(request.tenant.0).accepted.inc();
                        }
                        serve_batch(shared, &apim, &mut kernels, &members, |m, response| {
                            slots.lock().expect("result slots")[indices[m]] = Some(response);
                        });
                    }
                }));
            }
            for join in joins {
                let _ = join.join();
            }
            Ok(())
        })?;
        Ok(slots
            .into_inner()
            .expect("result slots")
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Modeled cycle cost of one request — the weight LPT balances on.
fn estimate_cycles(apim: &Apim, request: &Request) -> u64 {
    match &request.kind {
        JobKind::Run { app, dataset_bytes } => apim
            .executor()
            .run_profile_with_mode(&apim::profile_of(*app), *dataset_bytes, request.mode)
            .map(|cost| cost.cycles.get())
            .unwrap_or(1),
        JobKind::Multiply { .. } => u64::from(apim.config().operand_bits) * 16,
        JobKind::Mac { pairs } => pairs.len() as u64 * u64::from(apim.config().operand_bits) * 16,
        // One multiply-equivalent per tap; good enough for LPT balance.
        JobKind::Pixel { taps, .. } => {
            taps.len() as u64 * u64::from(apim.config().operand_bits) * 16
        }
        // One multiply-equivalent per statement: compiling for a real
        // estimate would cost more than the imbalance it prevents.
        JobKind::Compile { source } => {
            source.lines().count().max(1) as u64 * u64::from(apim.config().operand_bits) * 16
        }
        // Echo never reaches the simulator; its cost is the serving path.
        JobKind::Echo { .. } => 1,
    }
}

fn worker_loop(shared: &Shared) {
    // Pool::new validated the config; the early return is unreachable in
    // practice.
    let Ok(apim) = Apim::new(shared.config.apim.clone()) else {
        return;
    };
    let mut kernels = KernelCache::new(&apim);
    while let Some(batch) = shared.intake.pop_batch(shared.config.max_batch) {
        shared.metrics.workers_busy.inc();
        let members: Vec<(u64, &Request, Instant)> = batch
            .iter()
            .map(|job| (job.id, &job.request, job.submitted))
            .collect();
        serve_batch(shared, &apim, &mut kernels, &members, |m, response| {
            batch[m].slot.fill(response);
        });
        // Gauge drops before `done`: anyone woken by a completed drain must
        // see an idle pool in the snapshot.
        shared.metrics.workers_busy.dec();
        shared.intake.done(batch.len());
    }
}

/// Answers one coalesced batch — the per-batch body of both
/// [`worker_loop`] and [`Pool::run_all_with_config`]. Members are
/// `(id, request, latency clock start)`; the batch splits into [`units`],
/// each answered by [`serve_unit`].
///
/// Batch-shape metrics are published before any response is delivered,
/// so a snapshot taken by a client that has observed every response
/// accounts for every batch too. Each response's completed/failed
/// metrics are updated before `deliver(member, response)` hands it over:
/// a client that observes the response also observes its effect on the
/// registry.
fn serve_batch(
    shared: &Shared,
    apim: &Apim,
    kernels: &mut KernelCache,
    members: &[(u64, &Request, Instant)],
    mut deliver: impl FnMut(usize, Response),
) {
    let started = Instant::now();
    shared.metrics.batches.inc();
    if members.len() > 1 {
        shared.metrics.coalesced.add(members.len() as u64);
    }
    for unit in units(members) {
        serve_unit(shared, apim, kernels, members, unit, &mut deliver);
    }
    shared.metrics.batch_service.record(started.elapsed());
}

/// Splits a batch into units, each answered by one execution: the
/// same-`(app, dataset_bytes, mode)` runs (computed once — the setup
/// amortization batching exists for); the well-formed pixels of one
/// `(app, mode)`, in near-equal lane passes of at most 64 lanes (100
/// pixels run as two 50-lane passes); and every other job alone,
/// including a pixel whose tap count does not fit its kernel. Units hold
/// member indices.
fn units(members: &[(u64, &Request, Instant)]) -> Vec<Vec<usize>> {
    // Bitline lanes in one packed word — compile_batched's upper bound.
    const MAX_LANES: usize = 64;
    let mut units = Vec::new();
    // Shared units by key; pixels carry no dataset size.
    let mut groups: Vec<(_, Vec<usize>)> = Vec::new();
    // Tap counts by app: one kernel DAG build per batch, not per pixel.
    let mut arity = HashMap::new();
    for (index, &(_, request, _)) in members.iter().enumerate() {
        let key = match &request.kind {
            JobKind::Run { app, dataset_bytes } => (*app, Some(*dataset_bytes), request.mode),
            JobKind::Pixel { app, taps }
                if *arity.entry(*app).or_insert_with(|| pixel_arity(*app)) == Some(taps.len()) =>
            {
                (*app, None, request.mode)
            }
            _ => {
                units.push(vec![index]);
                continue;
            }
        };
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(index),
            None => groups.push((key, vec![index])),
        }
    }
    for ((_, dataset_bytes, _), group) in groups {
        if dataset_bytes.is_some() {
            units.push(group);
            continue;
        }
        let passes = group.len().div_ceil(MAX_LANES);
        units.extend(
            group
                .chunks(group.len().div_ceil(passes))
                .map(<[usize]>::to_vec),
        );
    }
    units
}

/// Answers every member of one unit: per-member deadline checks, then
/// execution attempts with capped-exponential-backoff retries, recording
/// latency, retry and outcome metrics. A member whose deadline passes
/// before an attempt leaves the unit with [`ServeError::DeadlineExceeded`];
/// the rest carry on.
fn serve_unit(
    shared: &Shared,
    apim: &Apim,
    kernels: &mut KernelCache,
    members: &[(u64, &Request, Instant)],
    mut live: Vec<usize>,
    deliver: &mut impl FnMut(usize, Response),
) {
    let mut respond = |m: usize, attempts: u32, result: Result<JobOutput, ServeError>| {
        let (id, request, submitted) = members[m];
        let latency = submitted.elapsed();
        shared.metrics.latency.record(latency);
        if result.is_ok() {
            shared.metrics.completed.inc();
            shared.metrics.tenant(request.tenant.0).completed.inc();
        } else {
            shared.metrics.failed.inc();
        }
        deliver(
            m,
            Response {
                id,
                tenant: request.tenant,
                attempts,
                latency,
                result,
            },
        );
    };
    let max_attempts = 1 + shared.config.max_retries;
    let mut attempts = 0;
    let mut last_error = ServeError::WorkerPanicked;
    while attempts < max_attempts {
        let now = Instant::now();
        live.retain(|&m| {
            let (_, request, submitted) = members[m];
            let deadline = request.deadline.or(shared.config.default_deadline);
            let expired = deadline.is_some_and(|d| now > submitted + d);
            if expired {
                respond(m, attempts, Err(ServeError::DeadlineExceeded));
            }
            !expired
        });
        if live.is_empty() {
            return;
        }
        attempts += 1;
        let requests: Vec<&Request> = live.iter().map(|&m| members[m].1).collect();
        match attempt(shared, apim, kernels, &requests) {
            Ok(outputs) => {
                for (&m, output) in live.iter().zip(outputs) {
                    respond(m, attempts, Ok(output));
                }
                return;
            }
            Err(error) => {
                last_error = error;
                if attempts < max_attempts {
                    shared.metrics.retries.inc();
                    let backoff = shared
                        .config
                        .retry_backoff
                        .saturating_mul(1 << (attempts - 1).min(16))
                        .min(shared.config.backoff_cap);
                    std::thread::sleep(backoff);
                }
            }
        }
    }
    let error = match last_error {
        ServeError::Failed { reason, .. } => ServeError::Failed { reason, attempts },
        other => other,
    };
    for m in live {
        respond(m, attempts, Err(error.clone()));
    }
}

/// One execution attempt of a unit, with injected faults and panic
/// isolation: one output per request, in order.
fn attempt(
    shared: &Shared,
    apim: &Apim,
    kernels: &mut KernelCache,
    unit: &[&Request],
) -> Result<Vec<JobOutput>, ServeError> {
    let attempt_number = shared.attempt_counter.fetch_add(1, Ordering::Relaxed) + 1;
    match shared.config.fault {
        FaultPlan::FailEvery(n) if n > 0 && attempt_number.is_multiple_of(n) => {
            return Err(fail("injected fault"));
        }
        _ => {}
    }
    let panic_here = matches!(shared.config.fault, FaultPlan::PanicEvery(n)
        if n > 0 && attempt_number.is_multiple_of(n));
    catch_unwind(AssertUnwindSafe(|| {
        if panic_here {
            panic!("injected panic");
        }
        let request = unit[0];
        let output = match &request.kind {
            JobKind::Run { app, dataset_bytes } => apim
                .run_with_mode(*app, *dataset_bytes, request.mode)
                .map(|report| JobOutput::Run(Box::new(report)))
                .map_err(fail)?,
            JobKind::Multiply { a, b } => JobOutput::Multiply(apim.multiply(*a, *b, request.mode)),
            JobKind::Mac { pairs } => {
                let (reports, batch) = apim.multiply_batch(pairs, request.mode);
                JobOutput::Mac { reports, batch }
            }
            JobKind::Compile { source } => run_compiled(source, &kernels.options)?,
            JobKind::Pixel { app, .. } => return run_pixels(kernels.get(*app, unit.len())?, unit),
            JobKind::Echo { payload } => JobOutput::Echo(*payload),
        };
        Ok(vec![output; unit.len()])
    }))
    .unwrap_or(Err(ServeError::WorkerPanicked))
}

/// A [`ServeError::Failed`] for `reason`; the envelope fills in attempts.
fn fail(reason: impl ToString) -> ServeError {
    ServeError::Failed {
        reason: reason.to_string(),
        attempts: 0,
    }
}

/// Compiles and gate-executes one expression program for the worker's
/// device. Unbound inputs default to their declaration index + 1 so open
/// programs still serve.
fn run_compiled(source: &str, options: &CompileOptions) -> Result<JobOutput, ServeError> {
    let program =
        apim_compile::parse_program(source).map_err(|e| fail(format!("invalid program: {e}")))?;
    let compiled = apim_compile::compile(&program.dag, options).map_err(fail)?;
    let inputs: HashMap<String, u64> = compiled
        .dag()
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, name)| (name.to_string(), i as u64 + 1))
        .collect();
    let report = compiled.run(&inputs).map_err(fail)?;
    Ok(JobOutput::Compile {
        value: report.value,
        cycles: report.cycles,
        micro_ops: report.trace_len,
    })
}

/// The compiled pixel-kernel DAG behind a [`JobKind::Pixel`] app — the one
/// owner of each kernel's taps.
pub(crate) fn kernel_dag(app: App) -> Option<apim_compile::Dag> {
    match app {
        App::Sharpen => Some(apim_workloads::dags::sharpen_dag()),
        App::Sobel => Some(apim_workloads::dags::sobel_gradient_dag()),
        _ => None,
    }
}

/// Binds one pixel's taps to the kernel DAG's inputs, declaration order.
fn bind_taps(dag: &apim_compile::Dag, taps: &[u64]) -> Result<HashMap<String, u64>, ServeError> {
    let inputs = dag.inputs();
    if taps.len() != inputs.len() {
        return Err(fail(format!(
            "pixel needs {} taps, got {}",
            inputs.len(),
            taps.len()
        )));
    }
    Ok(inputs
        .iter()
        .zip(taps)
        .map(|(name, &tap)| (name.to_string(), tap))
        .collect())
}

/// Answers a pixel unit with one pass of `program`, one pixel per
/// bitline lane: every pixel is charged the pass's cycles.
fn run_pixels(
    program: &BatchCompiledProgram,
    unit: &[&Request],
) -> Result<Vec<JobOutput>, ServeError> {
    let bindings = unit
        .iter()
        .filter_map(|request| match &request.kind {
            JobKind::Pixel { taps, .. } => Some(bind_taps(program.dag(), taps)),
            _ => None,
        })
        .collect::<Result<Vec<_>, _>>()?;
    let report = program.run(&bindings).map_err(fail)?;
    Ok(report
        .values
        .into_iter()
        .map(|value| JobOutput::Pixel {
            value,
            cycles: report.cycles,
            lanes: unit.len(),
        })
        .collect())
}

/// One worker's compile state: the [`CompileOptions`] for its simulator's
/// device, built once when the worker starts and used by every compile
/// and pixel job, and its pixel kernels, keyed by `(app, lanes)`. Each key
/// runs [`apim_compile::compile_batched`] once per worker, every pass after
/// that reuses the program (and still records and lints its own trace).
/// One lane is the serial program. Pixel kernels are exact in every mode,
/// so the key carries no mode. At most 2 pixel apps × 64 lane counts;
/// failed compiles are not cached. Each worker owns its cache, so it takes
/// no lock.
struct KernelCache {
    options: CompileOptions,
    programs: HashMap<(App, usize), BatchCompiledProgram>,
}

impl KernelCache {
    /// An empty cache compiling for `apim`'s device.
    fn new(apim: &Apim) -> Self {
        KernelCache {
            options: CompileOptions::new(apim.config().device.clone()),
            programs: HashMap::new(),
        }
    }

    /// The `lanes`-lane kernel of `app`, compiled on first use.
    fn get(&mut self, app: App, lanes: usize) -> Result<&BatchCompiledProgram, ServeError> {
        match self.programs.entry((app, lanes)) {
            Entry::Occupied(entry) => Ok(entry.into_mut()),
            Entry::Vacant(entry) => {
                let dag = kernel_dag(app)
                    .ok_or_else(|| fail(format!("`{}` has no pixel kernel", app.name())))?;
                let program =
                    apim_compile::compile_batched(&dag, &self.options, lanes).map_err(fail)?;
                Ok(entry.insert(program))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_cache_compiles_each_key_once() {
        let mut kernels = KernelCache::new(&Apim::default());
        let first: *const BatchCompiledProgram = kernels.get(App::Sharpen, 8).unwrap();
        let again: *const BatchCompiledProgram = kernels.get(App::Sharpen, 8).unwrap();
        assert!(std::ptr::eq(first, again), "second lookup recompiled");
        assert_eq!(kernels.programs.len(), 1);
    }

    #[test]
    fn kernel_cache_keys_on_lane_count_and_app() {
        let mut kernels = KernelCache::new(&Apim::default());
        assert_eq!(kernels.get(App::Sobel, 8).unwrap().lanes(), 8);
        assert_eq!(kernels.get(App::Sobel, 64).unwrap().lanes(), 64);
        assert!(kernels.get(App::Sharpen, 8).is_ok());
        assert_eq!(kernels.programs.len(), 3);
    }

    #[test]
    fn kernel_cache_retries_failed_keys() {
        let mut kernels = KernelCache::new(&Apim::default());
        // 65 lanes overflow a packed word; Fft has no pixel kernel.
        for _ in 0..2 {
            assert!(kernels.get(App::Sharpen, 65).is_err());
            assert_eq!(
                kernels.get(App::Fft, 8).unwrap_err(),
                fail("`FFT` has no pixel kernel")
            );
            assert!(kernels.programs.is_empty(), "a failure was cached");
        }
        assert!(kernels.get(App::Sharpen, 64).is_ok());
        assert_eq!(kernels.programs.len(), 1);
    }

    #[test]
    fn kernels_and_compiles_use_the_workers_device() {
        let device = apim::Device::new(apim::DeviceParams {
            decoder_pj: 0.05,
            senseamp_overhead_pj: 0.01,
            ..apim::DeviceParams::paper()
        })
        .unwrap();
        let apim = Apim::new(ApimConfig {
            device: device.clone(),
            ..ApimConfig::default()
        })
        .unwrap();
        let mut kernels = KernelCache::new(&apim);
        assert_eq!(kernels.options.config.device, device);
        let mut on_paper = KernelCache::new(&Apim::default());
        for lanes in [1, 8] {
            let program = kernels.get(App::Sharpen, lanes).unwrap();
            assert_eq!(program.model().energy_model(), device.energy());
            let inputs = vec![bind_taps(program.dag(), &[100, 3, 5, 7, 11]).unwrap(); lanes];
            let report = program.run(&inputs).unwrap();
            let paper = on_paper
                .get(App::Sharpen, lanes)
                .unwrap()
                .run(&inputs)
                .unwrap();
            // Same answer and cycles, charged at the worker's device.
            assert_eq!(report.values, paper.values);
            assert_eq!(report.cycles, paper.cycles);
            assert!(report.energy > paper.energy, "{lanes} lanes");
        }
        let JobOutput::Compile { value, .. } =
            run_compiled("width 16\nout a * 3", &kernels.options).unwrap()
        else {
            panic!("a compile job answers JobOutput::Compile");
        };
        assert_eq!(value, 3);
    }

    #[test]
    fn one_lane_kernels_are_the_serial_programs() {
        let mut kernels = KernelCache::new(&Apim::default());
        for (app, taps, serial_cycles) in [
            (App::Sharpen, vec![100, 3, 5, 7, 11], Some(3882)),
            (App::Sobel, vec![1, 40, 2, 50, 3, 60], None),
        ] {
            let dag = kernel_dag(app).unwrap();
            let inputs = bind_taps(&dag, &taps).unwrap();
            let serial = apim_compile::compile(&dag, &apim_compile::CompileOptions::default())
                .unwrap()
                .run(&inputs)
                .unwrap();
            let program = kernels.get(app, 1).unwrap();
            assert_eq!(program.lanes(), 1);
            let report = program.run(&[inputs]).unwrap();
            assert_eq!(report.values, [serial.value], "{app:?}");
            assert_eq!(report.cycles, serial.cycles, "{app:?}");
            if let Some(cycles) = serial_cycles {
                assert_eq!(report.cycles, cycles, "{app:?}");
            }
        }
    }
}
