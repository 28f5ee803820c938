//! Seeded open-loop load generator.
//!
//! Generates a deterministic request mix from a seed (same seed → same
//! requests, byte for byte), submits it open-loop — i.e. as fast as the
//! admission controller allows, without waiting for responses — and then
//! reports achieved throughput, tail latency and the pool's metrics
//! snapshot. Rejections are counted, not retried: an open-loop generator
//! measures what the pool admits under pressure.

use crate::metrics::MetricsSnapshot;
use crate::pool::{Pool, PoolConfig};
use crate::request::{JobKind, JobOutput, Request, TenantId};
use apim::{ApimError, App, PrecisionMode};
use apim_logic::error_analysis::SplitMix64;
use std::fmt;
use std::time::{Duration, Instant};

/// Configuration of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Requests to offer.
    pub requests: u64,
    /// PRNG seed for the request mix.
    pub seed: u64,
    /// Pool under test.
    pub pool: PoolConfig,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 200,
            seed: 7,
            pool: PoolConfig::default(),
        }
    }
}

/// Outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests offered to the pool.
    pub offered: u64,
    /// Requests admitted.
    pub accepted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Admitted requests that completed successfully.
    pub completed: u64,
    /// Admitted requests that failed.
    pub failed: u64,
    /// Wall-clock time from first submission to last response.
    pub elapsed: Duration,
    /// Completed requests per second of wall-clock time.
    pub throughput_rps: f64,
    /// Order-independent digest of every successful result — equal runs
    /// produce equal digests, regardless of scheduling.
    pub checksum: u64,
    /// Final metrics snapshot of the pool.
    pub snapshot: MetricsSnapshot,
}

impl fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "loadgen: {} offered, {} accepted, {} rejected, {} completed, {} failed",
            self.offered, self.accepted, self.rejected, self.completed, self.failed
        )?;
        writeln!(
            f,
            "elapsed {:.3} s, throughput {:.1} req/s, checksum {:#018x}",
            self.elapsed.as_secs_f64(),
            self.throughput_rps,
            self.checksum
        )?;
        let us = |v: Option<u64>| v.map_or_else(|| "n/a".into(), |v| format!("{v} us"));
        writeln!(
            f,
            "latency: p50 {} / p95 {} / p99 {}",
            us(self.snapshot.latency_p50_us),
            us(self.snapshot.latency_p95_us),
            us(self.snapshot.latency_p99_us),
        )?;
        writeln!(
            f,
            "rejected at admission: {} of {} offered",
            self.snapshot.rejected, self.offered
        )?;
        write!(f, "{}", self.snapshot)
    }
}

/// The deterministic request mix for a seed: ~70 % application runs (the
/// expensive class the batcher coalesces), ~25 % raw multiplies, ~5 % MAC
/// batches, spread over four tenants.
pub fn request_mix(seed: u64, count: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    let apps = App::all();
    let mut requests = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
    for _ in 0..count {
        let tenant = TenantId((rng.next_bits(2)) as u16);
        let mode = match rng.next_bits(8) % 3 {
            0 => PrecisionMode::Exact,
            1 => PrecisionMode::LastStage { relax_bits: 8 },
            _ => PrecisionMode::LastStage { relax_bits: 16 },
        };
        let kind = match rng.next_bits(8) % 20 {
            0..=13 => JobKind::Run {
                app: apps[(rng.next_bits(8) % 6) as usize],
                dataset_bytes: (32u64 << (rng.next_bits(8) % 3)) << 20,
            },
            14..=18 => JobKind::Multiply {
                a: rng.next_bits(32),
                b: rng.next_bits(32),
            },
            _ => JobKind::Mac {
                pairs: (0..16)
                    .map(|_| (rng.next_bits(32), rng.next_bits(32)))
                    .collect(),
            },
        };
        requests.push(Request::new(kind).tenant(tenant).mode(mode));
    }
    requests
}

/// Folds one successful output into a 64-bit digest of its exact result
/// bits. Two executions of the same request digest equal iff their results
/// are bit-identical, so the cluster tier uses this to assert that a
/// sharded run matches a single-pool run without shipping whole reports.
pub fn output_digest(output: &JobOutput) -> u64 {
    let fold = |x: u64| {
        // SplitMix64 finalizer as the per-item hash.
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    match output {
        JobOutput::Run(report) => {
            fold(report.comparison.speedup.to_bits()) ^ fold(report.quality.qol_percent.to_bits())
        }
        JobOutput::Multiply(r) => fold(r.product as u64) ^ fold((r.product >> 64) as u64),
        JobOutput::Mac { reports, .. } => reports
            .iter()
            .map(|r| fold(r.product as u64))
            .fold(0, |acc, h| acc ^ h),
        JobOutput::Compile { value, cycles, .. } => fold(*value) ^ fold(*cycles),
        // Value only: cycles and lanes depend on how many pixels shared
        // a pass, and the digest must not depend on batching.
        JobOutput::Pixel { value, .. } => fold(*value),
        JobOutput::Echo(payload) => fold(*payload),
    }
}

/// Runs the generator against a fresh pool built from the config.
///
/// # Errors
///
/// Propagates pool construction failures (invalid device config, zero
/// workers).
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, ApimError> {
    let pool = Pool::new(config.pool.clone())?;
    let requests = request_mix(config.seed, config.requests);
    let offered = requests.len() as u64;
    let started = Instant::now();
    let mut handles = Vec::with_capacity(requests.len());
    let mut rejected = 0u64;
    for request in requests {
        match pool.submit(request) {
            Ok(handle) => handles.push(handle),
            Err(_) => rejected += 1,
        }
    }
    let accepted = handles.len() as u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut checksum = 0u64;
    for handle in handles {
        let response = handle.wait();
        match &response.result {
            Ok(output) => {
                completed += 1;
                checksum ^= output_digest(output);
            }
            Err(_) => failed += 1,
        }
    }
    let elapsed = started.elapsed();
    // Drain before the snapshot so the gauges read as fully idle.
    pool.drain();
    let snapshot = pool.metrics().snapshot();
    pool.shutdown();
    Ok(LoadgenReport {
        offered,
        accepted,
        rejected,
        completed,
        failed,
        elapsed,
        throughput_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        checksum,
        snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_per_seed() {
        assert_eq!(request_mix(7, 50), request_mix(7, 50));
        assert_ne!(request_mix(7, 50), request_mix(8, 50));
    }

    #[test]
    fn report_prints_tail_latency_and_rejections() {
        let report = run(&LoadgenConfig {
            requests: 10,
            seed: 7,
            pool: PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
        })
        .expect("loadgen runs");
        let text = report.to_string();
        assert!(text.contains("latency: p50 "), "{text}");
        assert!(text.contains(" / p95 "), "{text}");
        assert!(text.contains(" / p99 "), "{text}");
        assert!(text.contains("rejected at admission: 0 of 10"), "{text}");
    }

    #[test]
    fn mix_covers_every_job_class_and_tenant() {
        let mix = request_mix(7, 200);
        assert!(mix.iter().any(|r| matches!(r.kind, JobKind::Run { .. })));
        assert!(mix
            .iter()
            .any(|r| matches!(r.kind, JobKind::Multiply { .. })));
        assert!(mix.iter().any(|r| matches!(r.kind, JobKind::Mac { .. })));
        for t in 0..4u16 {
            assert!(mix.iter().any(|r| r.tenant == TenantId(t)), "tenant {t}");
        }
    }
}
