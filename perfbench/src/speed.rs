//! The machine's speed, sampled while a closed loop runs.
//!
//! The benchmark runs on shared hosts whose speed moves with their
//! neighbours' load. On the 2-vCPU machine it was tuned on, one build's
//! `frames` throughput moved by up to 1.6x between runs minutes apart, and
//! the run's CPU time moved with its wall time: the slowdown is in the
//! cycles themselves, not in waiting for a CPU, so CPU time does not
//! steady it. Over ten runs the raw throughput spread up to 0.54 of its
//! median.
//!
//! A background thread therefore times a fixed reference computation every
//! [`PERIOD`] while a closed loop runs, on the same CPU as the pool's
//! worker (see [`Placement`]). The computation is this crate's own code and
//! calls nothing of the program, so no change to the program moves it. It
//! has three parts of about equal time: NOR over random bit rows of a
//! 256 KiB working set with a hash-map count per written row (like
//! crossbar execution), churn of `(block, row, col)` cells through a hash
//! set (like the hazard lint), and integer mixing in registers. A sample's
//! speed is [`REFERENCE_US`] over the time it took: 1 when the computation
//! takes its nominal time, 2 when the machine runs it twice as fast. The
//! samples make a clock that runs at the machine's speed ([`SpeedLog`]),
//! and the closed loops take their timings on it, which reports them at
//! speed 1 (see [`crate::segmented`]).
//!
//! The two CPUs of that machine did not run at one speed: a reference
//! timed on the other CPU than the worker's followed `frames`' rate over
//! 2.5 s stretches with a correlation of 0.4–0.6. Timed on the worker's
//! CPU, the blend followed it with correlations of 0.90–0.98 over four
//! runs of 40–60 s of `frames` and `programs`, and took the spread of their
//! rate over 2.5 s stretches from 0.05–0.17 down to 0.03–0.05. No one part
//! did as well on both workloads: the memory parts tracked `frames` and
//! overcorrected `programs` (whose rate moved by about half as much),
//! integer work alone barely moved while either workload did.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats;

/// Pause between two timed reference computations.
pub const PERIOD: Duration = Duration::from_millis(10);

/// Nominal time of one reference computation, µs: the machine's speed is 1
/// when it takes this long.
pub const REFERENCE_US: f64 = 500.0;

/// Bit rows of the reference's working set (256 KiB).
const ROWS: usize = 2048;
/// 64-bit words per row.
const WORDS: usize = 16;
/// Steps of each part of one reference computation.
const ROW_STEPS: u64 = 2000;
const CELL_STEPS: u64 = 160;
const MIX_STEPS: u64 = 65_000;

/// One step of a xorshift generator.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One reference computation over `rows` (`ROWS * WORDS` words). Takes
/// about [`REFERENCE_US`] on the machine it was tuned on.
fn reference_work(rows: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    // NOR of two random rows into a third, counted per written row.
    let mut writes: HashMap<u32, u64> = HashMap::with_capacity(512);
    for step in 0..ROW_STEPS {
        next(&mut x);
        let a = x as usize % ROWS;
        let b = (x >> 21) as usize % ROWS;
        let out = (x >> 42) as usize % ROWS;
        for w in 0..WORDS {
            rows[out * WORDS + w] = !(rows[a * WORDS + w] | rows[b * WORDS + w]);
        }
        let count = writes.entry(out as u32).or_insert(0);
        *count += step;
        acc = acc.wrapping_add(rows[out * WORDS] ^ *count);
    }
    // Eight cells at a time checked against, then armed in or disarmed
    // from, a set of `(block, row, col)` triples.
    let mut armed: HashSet<(usize, usize, usize)> = HashSet::new();
    for step in 0..CELL_STEPS {
        let r = next(&mut x) as usize;
        let cells: Vec<(usize, usize, usize)> = (0..8)
            .map(|j| (r % 4, (r >> 20) % 512, j + (r >> 8) % 64))
            .collect();
        acc += cells.iter().filter(|c| !armed.contains(c)).count() as u64;
        for cell in cells {
            if step % 3 == 0 {
                armed.remove(&cell);
            } else {
                armed.insert(cell);
            }
        }
    }
    // Integer mixing in registers.
    let mut mix = acc | 1;
    for _ in 0..MIX_STEPS {
        mix = mix.wrapping_add(next(&mut x).rotate_left(7) ^ mix.wrapping_mul(3));
    }
    acc ^ mix ^ armed.len() as u64
}

/// Reference timings of one run, as a clock that runs at the machine's
/// speed. Each sample sets the speed from its start until the next
/// sample's start (the first also before it). Empty where the machine's
/// speed was not sampled (the open loop, whose timings are reported as
/// measured); the clock then runs at speed 1.
#[derive(Debug, Clone, Default)]
pub struct SpeedLog {
    /// Sample starts, s since the run began, ascending.
    starts: Vec<f64>,
    /// The speed each sample read.
    speeds: Vec<f64>,
    /// Reference time from the first sample's start to each sample's
    /// start, s.
    elapsed: Vec<f64>,
}

impl SpeedLog {
    /// A log of `(start, duration)` samples, s since the run began and µs,
    /// in the order they were taken.
    pub fn new(samples: &[(f64, f64)]) -> SpeedLog {
        let starts: Vec<f64> = samples.iter().map(|&(t, _)| t).collect();
        let speeds: Vec<f64> = samples
            .iter()
            .map(|&(_, us)| REFERENCE_US / us.max(1e-3))
            .collect();
        let mut elapsed = Vec::with_capacity(samples.len());
        let mut total = 0.0;
        for k in 0..samples.len() {
            elapsed.push(total);
            if k + 1 < samples.len() {
                total += (starts[k + 1] - starts[k]) * speeds[k];
            }
        }
        SpeedLog {
            starts,
            speeds,
            elapsed,
        }
    }

    /// Reference time from the first sample's start to `t`, s.
    fn clock(&self, t: f64) -> f64 {
        let k = self.starts.partition_point(|&start| start <= t).max(1) - 1;
        self.elapsed[k] + (t - self.starts[k]) * self.speeds[k]
    }

    /// The reference time between `from_s` and `to_s`, s: the wall time
    /// between them at speed 1.
    pub fn reference_s(&self, from_s: f64, to_s: f64) -> f64 {
        if self.starts.is_empty() {
            return to_s - from_s;
        }
        self.clock(to_s) - self.clock(from_s)
    }

    /// The median speed sampled over the run; 1 when nothing was sampled.
    pub fn overall(&self) -> f64 {
        if self.speeds.is_empty() {
            return 1.0;
        }
        stats::median(&self.speeds)
    }

    /// Reference computations timed.
    pub fn samples(&self) -> usize {
        self.speeds.len()
    }
}

/// The thread that samples the machine's speed.
#[derive(Debug)]
pub struct Speedometer {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(f64, f64)>>,
}

impl Speedometer {
    /// Starts sampling; sample times count from `origin`.
    pub fn start(origin: Instant) -> Speedometer {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut rows = vec![0x5555_5555_5555_5555u64; ROWS * WORDS];
            let mut samples = Vec::new();
            loop {
                std::thread::sleep(PERIOD);
                if flag.load(Ordering::Relaxed) {
                    return samples;
                }
                let began = Instant::now();
                black_box(reference_work(black_box(&mut rows)));
                samples.push((
                    began.duration_since(origin).as_secs_f64(),
                    began.elapsed().as_secs_f64() * 1e6,
                ));
            }
        });
        Speedometer { stop, thread }
    }

    /// Stops sampling, waits for the thread to end and returns its log.
    pub fn finish(self) -> SpeedLog {
        self.stop.store(true, Ordering::Relaxed);
        SpeedLog::new(&self.thread.join().unwrap_or_default())
    }
}

/// Where a closed loop's threads run: the pool's worker and the
/// [`Speedometer`] share one CPU, so the speed is sampled on the core that
/// serves the requests (see the module notes), and the load thread has
/// another to itself. The speedometer takes about 5 % of the shared CPU.
///
/// Threads inherit their creator's CPUs, so the calling thread moves to
/// the serving CPU when the placement is made, before it starts the pool,
/// and to the load CPU while a drive runs. With fewer than two CPUs, or
/// where the kernel refuses, threads run where the scheduler puts them.
#[derive(Debug)]
pub struct Placement {
    /// The calling thread's CPUs before the placement, given back on drop;
    /// `None` when not placing.
    original: Option<Vec<u64>>,
    serving: usize,
    load: usize,
}

mod affinity {
    //! `sched_getaffinity`/`sched_setaffinity` on the calling thread.

    /// 64-bit words of the CPU masks passed to the kernel (4096 CPUs).
    const MASK_WORDS: usize = 64;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<Vec<u64>> {
        let mut mask = vec![0u64; MASK_WORDS];
        // SAFETY: `mask` holds `MASK_WORDS * 8` writable bytes, the size
        // passed; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's CPU mask; whether the kernel took it.
    pub fn set(mask: &[u64]) -> bool {
        // SAFETY: `mask` holds `mask.len() * 8` readable bytes, the size
        // passed; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, mask.len() * 8, mask.as_ptr()) == 0 }
    }

    /// The CPUs set in `mask`, ascending.
    pub fn cpus(mask: &[u64]) -> Vec<usize> {
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// The mask holding `cpu` alone.
    pub fn only(cpu: usize) -> Vec<u64> {
        let mut mask = vec![0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        mask
    }
}

impl Placement {
    /// Takes the first two CPUs the calling thread may use and moves it to
    /// the first, the serving CPU.
    pub fn pin() -> Placement {
        let original = affinity::get();
        let cpus = original.as_deref().map(affinity::cpus).unwrap_or_default();
        let placement = match cpus[..] {
            [serving, load, ..] => Placement {
                original,
                serving,
                load,
            },
            _ => Placement {
                original: None,
                serving: 0,
                load: 0,
            },
        };
        placement.to_serving();
        placement
    }

    /// Moves the calling thread to the serving CPU.
    pub fn to_serving(&self) {
        if self.original.is_some() {
            affinity::set(&affinity::only(self.serving));
        }
    }

    /// Moves the calling thread to the load CPU.
    pub fn to_load(&self) {
        if self.original.is_some() {
            affinity::set(&affinity::only(self.load));
        }
    }
}

impl Drop for Placement {
    /// Gives the calling thread back the CPUs it had.
    fn drop(&mut self) {
        if let Some(mask) = &self.original {
            affinity::set(mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_runs_at_the_sampled_speed() {
        // Speed 2 from 0 s, then 0.5 from 1 s on.
        let log = SpeedLog::new(&[(0.0, 250.0), (1.0, 1000.0), (2.0, 1000.0)]);
        assert_eq!(log.reference_s(0.0, 0.5), 1.0);
        assert_eq!(log.reference_s(0.5, 3.0), 1.0 + 1.0);
        // Before the first sample, the first sample's speed.
        assert_eq!(log.reference_s(-1.0, 0.0), 2.0);
        assert_eq!(log.overall(), 0.5);
        assert_eq!(SpeedLog::default().reference_s(1.0, 3.5), 2.5);
    }
}
