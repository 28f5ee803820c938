//! Command layer of the `apim-cli` binary.
//!
//! Parsing and execution are plain functions over strings so the whole
//! surface is unit-testable; `src/bin/main.rs` is a thin shell around
//! [`parse`] + [`execute`].
//!
//! ```text
//! apim-cli multiply 1000003 2000029 --relax 16
//! apim-cli run sobel 512 --relax 8
//! apim-cli tune fft
//! apim-cli sweep robert
//! apim-cli repro table1
//! ```

#![deny(missing_docs)]

use apim::prelude::*;
use apim::App;
use std::fmt;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// In-memory multiplication of two operands.
    Multiply {
        /// Multiplicand.
        a: u64,
        /// Multiplier.
        b: u64,
        /// Precision mode.
        mode: PrecisionMode,
    },
    /// One application over a resident dataset.
    Run {
        /// The application.
        app: App,
        /// Dataset size in MiB.
        size_mb: u64,
        /// Precision mode.
        mode: PrecisionMode,
    },
    /// The §4.1 adaptive QoS loop for one application.
    Tune {
        /// The application.
        app: App,
    },
    /// Dataset-size sweep (the Figure 5 view) for one application.
    Sweep {
        /// The application.
        app: App,
    },
    /// Regenerate a paper exhibit (`fig4|fig5|fig6|table1|headline|all`).
    Repro {
        /// The exhibit name.
        exhibit: String,
    },
    /// Gate-level device self-test.
    SelfTest {
        /// Number of random multiplications to verify.
        samples: u32,
    },
    /// Static hazard analysis of the gate-level microprograms.
    Verify {
        /// Kernel to lint; `None` sweeps them all.
        kernel: Option<apim_verify::Kernel>,
        /// Run the symbolic equivalence checker instead of the hazard
        /// passes (`--equiv`).
        equiv: bool,
        /// Equivalence target; `None` sweeps every hand kernel plus the
        /// compiled sharpen/Sobel DAGs.
        equiv_target: Option<apim_verify::EquivTarget>,
        /// Check only this width; `None` sweeps the defaults.
        width: Option<u32>,
        /// Show the concrete counterexample assignment on mismatch.
        counterexample: bool,
    },
    /// Compile an expression DAG to a verified MAGIC microprogram and run
    /// it at the gate level.
    Compile {
        /// Builtin kernel name (`sharpen`, `sobel`) or a program file in
        /// the `apim-compile` expression language.
        target: String,
        /// Input bindings from `--set name=value`.
        bindings: Vec<(String, u64)>,
        /// Compare the compiled cycle cost against the hand-written
        /// kernel's analytic baseline (builtins only).
        compare: bool,
        /// Lane-batched instances per microprogram pass (`--batch N`,
        /// 1..=64). `1` runs the serial program.
        batch: usize,
    },
    /// Compile one transcendental microkernel (sin/cos/√) to a verified
    /// in-crossbar microprogram and report its cost and oracle accuracy —
    /// or regenerate the FFT twiddle ROM in-crossbar (`--twiddles`).
    Math {
        /// The function; `None` only when `--twiddles` drives the ROM
        /// smoke instead.
        func: Option<apim_compile::MathFn>,
        /// Word width.
        width: u32,
        /// Evaluate via the LUT-interpolation mode instead of CORDIC.
        lut: bool,
        /// CORDIC iteration override (`None` = the width's default).
        iters: Option<u32>,
        /// LUT log₂ segment-count override (`None` = the width's default).
        segments: Option<u32>,
        /// Compile the twiddle ROM for this many FFT points and gate its
        /// MRE against the float ROM.
        twiddles: Option<usize>,
    },
    /// One-shot serving of a request file on the worker pool.
    Serve {
        /// Path to the request file (one request per line).
        path: String,
        /// Worker thread count (`None` = one per available core, capped).
        workers: Option<usize>,
        /// Admission-control queue depth.
        queue_depth: Option<usize>,
    },
    /// Seeded open-loop load generator against an in-process pool.
    Loadgen {
        /// Number of requests to offer.
        requests: usize,
        /// Worker thread count (`None` = one per available core, capped).
        workers: Option<usize>,
        /// Mix seed.
        seed: u64,
        /// Admission-control queue depth.
        queue_depth: Option<usize>,
    },
    /// A cluster node daemon: one serving pool behind a TCP listener.
    Node {
        /// Listen address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Worker thread count (`None` = one per available core, capped).
        workers: Option<usize>,
        /// Admission-control queue depth.
        queue_depth: Option<usize>,
        /// Serve for this many seconds then shut down (`None` = forever).
        for_secs: Option<u64>,
        /// Connection transport: the poll-based event loop (default) or
        /// the blocking thread-per-connection baseline.
        transport: apim_cluster::Transport,
    },
    /// Seeded load generator against running cluster nodes.
    ClusterLoadgen {
        /// Node addresses.
        nodes: Vec<String>,
        /// Number of requests to offer.
        requests: usize,
        /// Mix seed.
        seed: u64,
        /// Closed-loop submitter threads.
        concurrency: usize,
    },
    /// In-process robustness gate: spawn a loopback fleet, kill a node
    /// mid-run, fail unless every request is still answered.
    ClusterSmoke {
        /// Loopback nodes to spawn.
        nodes: usize,
        /// Number of requests to offer.
        requests: usize,
        /// Worker threads per node.
        workers: Option<usize>,
        /// Mix seed.
        seed: u64,
    },
    /// Seeded stuck-at fault-injection campaign over the kernel suite,
    /// with or without the in-crossbar SEC-DED layer.
    Faults {
        /// Stuck-at fault density over the storage region (fraction of
        /// cells, `0.0..=1.0`).
        density: f64,
        /// Which ECC settings to sweep.
        ecc: EccMode,
        /// Seed for operands and the fault field.
        seed: u64,
        /// Trials per word-oriented kernel.
        trials: usize,
        /// Run the endurance demo instead: wear-leveling allocation plus
        /// row remapping with re-verification (`--wear-demo`).
        wear_demo: bool,
    },
    /// Print usage.
    Help,
}

/// Which ECC settings a `faults` campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccMode {
    /// SEC-DED decode on every storage read.
    On,
    /// Raw reads; faults land in the kernels unprotected.
    Off,
    /// Both, back to back, for a protected-vs-raw comparison.
    Both,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
apim-cli — the APIM (DAC'17) processing-in-memory simulator

USAGE:
  apim-cli multiply <a> <b> [--relax M | --mask F]
  apim-cli run <app> <size-mb> [--relax M | --mask F]
  apim-cli tune <app>
  apim-cli sweep <app>
  apim-cli repro <fig4|fig5|fig5sim|fig6|table1|headline|ablation|all>
  apim-cli selftest [samples]
  apim-cli verify [--all | gates|adder|csa|wallace|multiplier|mac] [--width N]
  apim-cli verify --equiv [adder|subtractor|wallace|multiplier|mac|divider]
                          [--width N] [--counterexample]
  apim-cli compile <sharpen|sobel|file> [--set name=val ...] [--compare]
                   [--batch N]
  apim-cli math --fn <sin|cos|sqrt> [--mode cordic|lut] [--width N]
                [--iters K | --segments S]
  apim-cli math --twiddles <N>
  apim-cli serve <file> [--workers N] [--queue-depth N]
  apim-cli loadgen [--requests N] [--workers N] [--seed S] [--queue-depth N]
  apim-cli node [--addr H:P] [--workers N] [--queue-depth N] [--for-secs S]
                [--transport event-loop|blocking]
  apim-cli cluster-loadgen --nodes a:p,b:p[,...] [--requests N] [--seed S]
                           [--concurrency C]
  apim-cli cluster-smoke [--nodes N] [--requests N] [--workers N] [--seed S]
  apim-cli faults [--density D] [--ecc on|off|both] [--seed S] [--trials N]
  apim-cli faults --wear-demo
  apim-cli help

APPS: sobel | robert | fft | dwt | sharpen | quasir

REQUEST FILE: one request per line, `#` comments; each line is
  [@<tenant>] run <app> <size-mb> [--relax M | --mask F]
  [@<tenant>] multiply <a> <b>   [--relax M | --mask F]
  [@<tenant>] mac <a1> <b1> ...  [--relax M | --mask F]
  [@<tenant>] pixel <sharpen|sobel> <taps...> [--relax M | --mask F]
  [@<tenant>] compile <width N; let ...; out expr> (`;` = newline)

PROGRAM FILE (`compile`): line-oriented, `#` comments:
  width <N>                      word width, 4..=64 — must come first
  mode exact | mask <F> | relax <M>   precision of later * / mac()
  in <name>                      declare a run-time input
  let <name> = <expr>            bind an expression
  out <expr>                     designate the output
  expr: + - * << >> ( ) mac(a*b, ...), ints take 0x/0b/_";

fn parse_app(name: &str) -> Result<App, ParseError> {
    match name.to_ascii_lowercase().as_str() {
        "sobel" => Ok(App::Sobel),
        "robert" => Ok(App::Robert),
        "fft" => Ok(App::Fft),
        "dwt" | "dwthaar1d" => Ok(App::DwtHaar1d),
        "sharpen" => Ok(App::Sharpen),
        "quasir" | "quasirandom" => Ok(App::QuasiRandom),
        other => Err(ParseError(format!(
            "unknown app `{other}` (expected sobel|robert|fft|dwt|sharpen|quasir)"
        ))),
    }
}

fn parse_mode(rest: &[String]) -> Result<PrecisionMode, ParseError> {
    match rest {
        [] => Ok(PrecisionMode::Exact),
        [flag, value] if flag == "--relax" => {
            let m: u8 = value
                .parse()
                .map_err(|_| ParseError(format!("invalid relax bits `{value}`")))?;
            Ok(PrecisionMode::LastStage { relax_bits: m })
        }
        [flag, value] if flag == "--mask" => {
            let f: u8 = value
                .parse()
                .map_err(|_| ParseError(format!("invalid mask bits `{value}`")))?;
            Ok(PrecisionMode::FirstStage { masked_bits: f })
        }
        other => Err(ParseError(format!("unexpected arguments: {other:?}"))),
    }
}

fn parse_u64(value: &str, what: &str) -> Result<u64, ParseError> {
    value
        .parse()
        .map_err(|_| ParseError(format!("invalid {what} `{value}`")))
}

/// Walks `--flag value` pairs shared by `serve` and `loadgen`.
/// `extra` handles command-specific flags; it returns `false` for flags it
/// does not recognise.
fn parse_pool_flags(
    flags: &[String],
    mut extra: impl FnMut(&str, &str) -> Result<bool, ParseError>,
) -> Result<(Option<usize>, Option<usize>), ParseError> {
    let mut workers = None;
    let mut queue_depth = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workers" => workers = Some(parse_u64(value, "worker count")? as usize),
            "--queue-depth" => {
                queue_depth = Some(parse_u64(value, "queue depth")? as usize);
            }
            other if extra(other, value)? => {}
            other => return Err(ParseError(format!("unknown flag `{other}`"))),
        }
    }
    Ok((workers, queue_depth))
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] with a user-facing message for anything the
/// grammar above rejects.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    match args {
        [] => Ok(Command::Help),
        [cmd, rest @ ..] => match cmd.as_str() {
            "help" | "--help" | "-h" => Ok(Command::Help),
            "multiply" => match rest {
                [a, b, mode @ ..] => Ok(Command::Multiply {
                    a: parse_u64(a, "multiplicand")?,
                    b: parse_u64(b, "multiplier")?,
                    mode: parse_mode(mode)?,
                }),
                _ => Err(ParseError("multiply needs two operands".into())),
            },
            "run" => match rest {
                [app, size, mode @ ..] => Ok(Command::Run {
                    app: parse_app(app)?,
                    size_mb: parse_u64(size, "dataset size")?,
                    mode: parse_mode(mode)?,
                }),
                _ => Err(ParseError("run needs an app and a size in MiB".into())),
            },
            "tune" => match rest {
                [app] => Ok(Command::Tune {
                    app: parse_app(app)?,
                }),
                _ => Err(ParseError("tune needs exactly one app".into())),
            },
            "sweep" => match rest {
                [app] => Ok(Command::Sweep {
                    app: parse_app(app)?,
                }),
                _ => Err(ParseError("sweep needs exactly one app".into())),
            },
            "selftest" => match rest {
                [] => Ok(Command::SelfTest { samples: 16 }),
                [n] => Ok(Command::SelfTest {
                    samples: parse_u64(n, "sample count")?.min(10_000) as u32,
                }),
                _ => Err(ParseError("selftest takes at most a sample count".into())),
            },
            "verify" => {
                let mut equiv = false;
                let mut width = None;
                let mut counterexample = false;
                let mut name: Option<&str> = None;
                let mut it = rest.iter();
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--all" => {}
                        "--equiv" => equiv = true,
                        "--counterexample" => counterexample = true,
                        "--width" => {
                            let w = it
                                .next()
                                .ok_or_else(|| ParseError("--width needs a bit count".into()))?;
                            let w = parse_u64(w, "width")?;
                            if !(4..=64).contains(&w) {
                                return Err(ParseError(format!(
                                    "width {w} outside supported range 4..=64"
                                )));
                            }
                            width = Some(w as u32);
                        }
                        bare if !bare.starts_with("--") && name.is_none() => name = Some(bare),
                        bare if !bare.starts_with("--") => {
                            return Err(ParseError("verify takes at most one kernel".into()))
                        }
                        other => return Err(ParseError(format!("unknown verify flag `{other}`"))),
                    }
                }
                if counterexample && !equiv {
                    return Err(ParseError("--counterexample requires --equiv".into()));
                }
                let (kernel, equiv_target) = match (equiv, name) {
                    (_, None) => (None, None),
                    (true, Some(n)) => match apim_verify::EquivTarget::from_name(n) {
                        Some(t) => (None, Some(t)),
                        None => {
                            return Err(ParseError(format!(
                                "unknown equiv target `{n}` (expected \
                                 adder|subtractor|wallace|multiplier|mac|divider)"
                            )))
                        }
                    },
                    (false, Some(n)) => match apim_verify::Kernel::from_name(n) {
                        Some(k) => (Some(k), None),
                        None => {
                            return Err(ParseError(format!(
                                "unknown kernel `{n}` (expected \
                                 gates|adder|csa|wallace|multiplier|mac)"
                            )))
                        }
                    },
                };
                Ok(Command::Verify {
                    kernel,
                    equiv,
                    equiv_target,
                    width,
                    counterexample,
                })
            }
            "compile" => match rest {
                [target, flags @ ..] if !target.starts_with("--") => {
                    let mut bindings = Vec::new();
                    let mut compare = false;
                    let mut batch = 1usize;
                    let mut it = flags.iter();
                    while let Some(flag) = it.next() {
                        match flag.as_str() {
                            "--compare" => compare = true,
                            "--set" => {
                                let kv = it.next().ok_or_else(|| {
                                    ParseError("--set needs a name=value pair".into())
                                })?;
                                let (name, value) = kv.split_once('=').ok_or_else(|| {
                                    ParseError(format!("--set expects name=value, got `{kv}`"))
                                })?;
                                bindings.push((name.to_string(), parse_u64(value, "input value")?));
                            }
                            "--batch" => {
                                let value = it.next().ok_or_else(|| {
                                    ParseError("--batch needs a lane count".into())
                                })?;
                                batch = parse_u64(value, "lane count")? as usize;
                                if !(1..=64).contains(&batch) {
                                    return Err(ParseError(format!(
                                        "--batch expects 1..=64 lanes, got {batch}"
                                    )));
                                }
                            }
                            other => return Err(ParseError(format!("unknown flag `{other}`"))),
                        }
                    }
                    Ok(Command::Compile {
                        target: target.clone(),
                        bindings,
                        compare,
                        batch,
                    })
                }
                _ => Err(ParseError(
                    "compile needs a builtin kernel (sharpen|sobel) or a program file".into(),
                )),
            },
            "math" => {
                let mut func = None;
                let mut width = 16u32;
                let mut lut = false;
                let mut iters = None;
                let mut segments = None;
                let mut twiddles = None;
                let mut it = rest.iter();
                while let Some(flag) = it.next() {
                    let value = it
                        .next()
                        .ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
                    match flag.as_str() {
                        "--fn" => {
                            func = Some(match value.as_str() {
                                "sin" => apim_compile::MathFn::Sin,
                                "cos" => apim_compile::MathFn::Cos,
                                "sqrt" => apim_compile::MathFn::Sqrt,
                                other => {
                                    return Err(ParseError(format!(
                                        "unknown function `{other}` (expected sin|cos|sqrt)"
                                    )))
                                }
                            });
                        }
                        "--mode" => {
                            lut = match value.as_str() {
                                "cordic" => false,
                                "lut" => true,
                                other => {
                                    return Err(ParseError(format!(
                                        "unknown math mode `{other}` (expected cordic|lut)"
                                    )))
                                }
                            };
                        }
                        "--width" => {
                            let w = parse_u64(value, "width")?;
                            if !(4..=64).contains(&w) {
                                return Err(ParseError(format!(
                                    "width {w} outside supported range 4..=64"
                                )));
                            }
                            width = w as u32;
                        }
                        "--iters" => iters = Some(parse_u64(value, "iteration count")? as u32),
                        "--segments" => {
                            segments = Some(parse_u64(value, "segment count")? as u32);
                        }
                        "--twiddles" => {
                            let n = parse_u64(value, "FFT length")? as usize;
                            if !n.is_power_of_two() || n < 2 {
                                return Err(ParseError(format!(
                                    "--twiddles needs a power-of-two FFT length, got {n}"
                                )));
                            }
                            twiddles = Some(n);
                        }
                        other => return Err(ParseError(format!("unknown math flag `{other}`"))),
                    }
                }
                if func.is_none() && twiddles.is_none() {
                    return Err(ParseError("math needs --fn or --twiddles".into()));
                }
                if func.is_some() && twiddles.is_some() {
                    return Err(ParseError("--fn and --twiddles are exclusive".into()));
                }
                if lut && iters.is_some() {
                    return Err(ParseError("--iters applies to cordic mode only".into()));
                }
                if !lut && segments.is_some() {
                    return Err(ParseError(
                        "--segments applies to lut mode only (add --mode lut)".into(),
                    ));
                }
                Ok(Command::Math {
                    func,
                    width,
                    lut,
                    iters,
                    segments,
                    twiddles,
                })
            }
            "serve" => match rest {
                [path, flags @ ..] if !path.starts_with("--") => {
                    let (workers, queue_depth) = parse_pool_flags(flags, |_, _| Ok(false))?;
                    Ok(Command::Serve {
                        path: path.clone(),
                        workers,
                        queue_depth,
                    })
                }
                _ => Err(ParseError("serve needs a request file".into())),
            },
            "loadgen" => {
                let mut requests = 200usize;
                let mut seed = 7u64;
                let (workers, queue_depth) = parse_pool_flags(rest, |flag, value| {
                    match flag {
                        "--requests" => {
                            requests = parse_u64(value, "request count")? as usize;
                        }
                        "--seed" => seed = parse_u64(value, "seed")?,
                        _ => return Ok(false),
                    }
                    Ok(true)
                })?;
                Ok(Command::Loadgen {
                    requests,
                    workers,
                    seed,
                    queue_depth,
                })
            }
            "node" => {
                let mut addr = "127.0.0.1:7751".to_string();
                let mut for_secs = None;
                let mut transport = apim_cluster::Transport::EventLoop;
                let (workers, queue_depth) = parse_pool_flags(rest, |flag, value| {
                    match flag {
                        "--addr" => addr = value.to_string(),
                        "--for-secs" => for_secs = Some(parse_u64(value, "duration")?),
                        "--transport" => {
                            transport = match value {
                                "event-loop" => apim_cluster::Transport::EventLoop,
                                "blocking" => apim_cluster::Transport::Blocking,
                                other => {
                                    return Err(ParseError(format!(
                                    "unknown transport `{other}` (expected event-loop or blocking)"
                                )))
                                }
                            }
                        }
                        _ => return Ok(false),
                    }
                    Ok(true)
                })?;
                Ok(Command::Node {
                    addr,
                    workers,
                    queue_depth,
                    for_secs,
                    transport,
                })
            }
            "cluster-loadgen" => {
                let mut nodes = Vec::new();
                let mut requests = 200usize;
                let mut seed = 7u64;
                let mut concurrency = 8usize;
                let mut it = rest.iter();
                while let Some(flag) = it.next() {
                    let value = it
                        .next()
                        .ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
                    match flag.as_str() {
                        "--nodes" => {
                            nodes = value
                                .split(',')
                                .filter(|s| !s.is_empty())
                                .map(String::from)
                                .collect();
                        }
                        "--requests" => {
                            requests = parse_u64(value, "request count")? as usize;
                        }
                        "--seed" => seed = parse_u64(value, "seed")?,
                        "--concurrency" => {
                            concurrency = parse_u64(value, "concurrency")?.max(1) as usize;
                        }
                        other => return Err(ParseError(format!("unknown flag `{other}`"))),
                    }
                }
                if nodes.is_empty() {
                    return Err(ParseError(
                        "cluster-loadgen needs --nodes a:port[,b:port...]".into(),
                    ));
                }
                Ok(Command::ClusterLoadgen {
                    nodes,
                    requests,
                    seed,
                    concurrency,
                })
            }
            "cluster-smoke" => {
                let mut nodes = 2usize;
                let mut requests = 200usize;
                let mut seed = 7u64;
                let mut workers = None;
                let mut it = rest.iter();
                while let Some(flag) = it.next() {
                    let value = it
                        .next()
                        .ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
                    match flag.as_str() {
                        "--nodes" => nodes = parse_u64(value, "node count")?.max(1) as usize,
                        "--requests" => {
                            requests = parse_u64(value, "request count")? as usize;
                        }
                        "--seed" => seed = parse_u64(value, "seed")?,
                        "--workers" => {
                            workers = Some(parse_u64(value, "worker count")? as usize);
                        }
                        other => return Err(ParseError(format!("unknown flag `{other}`"))),
                    }
                }
                Ok(Command::ClusterSmoke {
                    nodes,
                    requests,
                    workers,
                    seed,
                })
            }
            "faults" => {
                let mut density = 1e-4f64;
                let mut ecc = EccMode::On;
                let mut seed = 7u64;
                let mut trials = 4usize;
                let mut wear_demo = false;
                let mut it = rest.iter();
                while let Some(flag) = it.next() {
                    if flag == "--wear-demo" {
                        wear_demo = true;
                        continue;
                    }
                    let value = it
                        .next()
                        .ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
                    match flag.as_str() {
                        "--density" => {
                            let d: f64 = value.parse().map_err(|_| {
                                ParseError(format!("invalid fault density `{value}`"))
                            })?;
                            if !(0.0..=1.0).contains(&d) {
                                return Err(ParseError(format!(
                                    "fault density {d} outside 0.0..=1.0"
                                )));
                            }
                            density = d;
                        }
                        "--ecc" => {
                            ecc = match value.as_str() {
                                "on" => EccMode::On,
                                "off" => EccMode::Off,
                                "both" => EccMode::Both,
                                other => {
                                    return Err(ParseError(format!(
                                        "invalid ecc mode `{other}` (expected on|off|both)"
                                    )))
                                }
                            };
                        }
                        "--seed" => seed = parse_u64(value, "seed")?,
                        "--trials" => {
                            trials = parse_u64(value, "trial count")?.clamp(1, 64) as usize;
                        }
                        other => return Err(ParseError(format!("unknown flag `{other}`"))),
                    }
                }
                Ok(Command::Faults {
                    density,
                    ecc,
                    seed,
                    trials,
                    wear_demo,
                })
            }
            "repro" => match rest {
                [exhibit] => Ok(Command::Repro {
                    exhibit: exhibit.clone(),
                }),
                [] => Ok(Command::Repro {
                    exhibit: "all".into(),
                }),
                _ => Err(ParseError("repro takes at most one exhibit".into())),
            },
            other => Err(ParseError(format!("unknown command `{other}`"))),
        },
    }
}

/// Resolves, compiles and gate-executes a `compile` target, rendering the
/// pipeline summary (placement, schedule, verified run, optional hand
/// baseline comparison).
fn run_compile(
    target: &str,
    bindings: &[(String, u64)],
    compare: bool,
    batch: usize,
) -> Result<String, apim::ApimError> {
    use apim_workloads::dags;
    use std::fmt::Write as _;

    let fail = |e: apim_compile::CompileError| apim::ApimError::Runtime(e.to_string());
    // Builtins carry the hand-written kernel's analytic per-pixel cost for
    // --compare; file programs have no hand twin.
    type HandCost = fn(&apim_logic::CostModel) -> u64;
    let (dag, hand): (apim_compile::Dag, Option<HandCost>) = match target {
        "sharpen" => (dags::sharpen_dag(), Some(dags::sharpen_hand_cycles)),
        "sobel" => (
            dags::sobel_gradient_dag(),
            Some(dags::sobel_gradient_hand_cycles),
        ),
        path => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                apim::ApimError::Runtime(format!("cannot read program file `{path}`: {e}"))
            })?;
            let program = apim_compile::parse_program(&text)
                .map_err(|e| apim::ApimError::Runtime(format!("{path}:{e}")))?;
            (program.dag, None)
        }
    };

    let options = apim_compile::CompileOptions::default();
    if batch > 1 {
        return run_compile_batched(target, &dag, bindings, compare, batch, hand, &options);
    }
    let program = apim_compile::compile(&dag, &options).map_err(fail)?;
    let names: Vec<String> = program
        .dag()
        .inputs()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut inputs: std::collections::HashMap<String, u64> = names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), (i as u64 + 1) << 4))
        .collect();
    for (name, value) in bindings {
        if !inputs.contains_key(name) {
            return Err(apim::ApimError::Runtime(format!(
                "--set {name}: program has no input `{name}` (inputs: {})",
                names.join(", ")
            )));
        }
        inputs.insert(name.clone(), *value);
    }

    let placement = program.placement();
    let schedule = program.schedule();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "program   : {target} ({}-bit, {} nodes, {} inputs)",
        program.dag().width(),
        program.dag().len(),
        names.len()
    );
    let _ = writeln!(
        out,
        "placement : {} staging + {} region rows/block pair, {} value(s) spilled to data blocks",
        apim_compile::plan::STAGING_ROWS,
        placement.region_rows,
        placement.spilled
    );
    let _ = writeln!(
        out,
        "schedule  : {} block pair(s), makespan {} vs {} serial cycles",
        schedule.units, schedule.makespan, schedule.serial_cycles
    );
    let shown: Vec<String> = names.iter().map(|n| format!("{n}={}", inputs[n])).collect();
    let _ = writeln!(out, "inputs    : {}", shown.join(" "));

    let report = program.run(&inputs).map_err(fail)?;
    let _ = writeln!(out, "value     : {} (0x{:x})", report.value, report.value);
    let _ = writeln!(
        out,
        "reference : {} ({})",
        report.reference,
        if report.value == report.reference {
            "bit-exact"
        } else {
            "MISMATCH"
        }
    );
    let _ = writeln!(
        out,
        "cycles    : {} measured / {} predicted ({})",
        report.cycles,
        report.expected_cycles,
        if report.cycles == report.expected_cycles {
            "exact"
        } else {
            "DRIFT"
        }
    );
    let _ = writeln!(out, "energy    : {}", report.energy);
    let _ = writeln!(
        out,
        "verify    : {} micro-ops, all 5 hazard passes clean ({} warning(s))",
        report.trace_len,
        report.lint.warning_count()
    );
    if compare {
        match hand {
            Some(hand_cycles) => {
                let hand = hand_cycles(program.model());
                let gap = 100.0 * (report.cycles as f64 - hand as f64) / hand as f64;
                let _ = writeln!(
                    out,
                    "compare   : hand-written kernel {hand} cycles, compiled {} ({gap:+.1}% gap)",
                    report.cycles
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "compare   : no hand-written baseline for file programs"
                );
            }
        }
    }
    out.pop();
    Ok(out)
}

/// The `compile --batch N` path: the same DAG lane-batched so one
/// microprogram pass runs `batch` instances. Lane 0 gets exactly the
/// serial bindings (`--set` / defaults); lane `j` offsets every input by
/// `j` so the lanes carry distinct data.
fn run_compile_batched(
    target: &str,
    dag: &apim_compile::Dag,
    bindings: &[(String, u64)],
    compare: bool,
    batch: usize,
    hand: Option<fn(&apim_logic::CostModel) -> u64>,
    options: &apim_compile::CompileOptions,
) -> Result<String, apim::ApimError> {
    use std::fmt::Write as _;

    let fail = |e: apim_compile::CompileError| apim::ApimError::Runtime(e.to_string());
    let program = apim_compile::compile_batched(dag, options, batch).map_err(fail)?;
    let names: Vec<String> = program
        .dag()
        .inputs()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut lane0: std::collections::HashMap<String, u64> = names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), (i as u64 + 1) << 4))
        .collect();
    for (name, value) in bindings {
        if !lane0.contains_key(name) {
            return Err(apim::ApimError::Runtime(format!(
                "--set {name}: program has no input `{name}` (inputs: {})",
                names.join(", ")
            )));
        }
        lane0.insert(name.clone(), *value);
    }
    let inputs: Vec<std::collections::HashMap<String, u64>> = (0..batch as u64)
        .map(|j| {
            lane0
                .iter()
                .map(|(k, v)| (k.clone(), v.wrapping_add(j)))
                .collect()
        })
        .collect();

    let placement = program.placement();
    let schedule = program.schedule();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "program   : {target} ({}-bit, {} nodes, {} inputs) x{batch} lanes",
        program.dag().width(),
        program.dag().len(),
        names.len()
    );
    let _ = writeln!(
        out,
        "placement : {} staging + {} region rows/block pair, {} value(s) spilled to data blocks",
        apim_compile::plan::STAGING_ROWS,
        placement.region_rows,
        placement.spilled
    );
    let _ = writeln!(
        out,
        "schedule  : {} block pair(s), makespan {} vs {} serial cycles",
        schedule.units, schedule.makespan, schedule.serial_cycles
    );
    let shown: Vec<String> = names.iter().map(|n| format!("{n}={}", lane0[n])).collect();
    let _ = writeln!(
        out,
        "inputs    : lane 0: {} (lane j adds j to every input)",
        shown.join(" ")
    );

    let report = program.run(&inputs).map_err(fail)?;
    let exact = report.values == report.references;
    let _ = writeln!(
        out,
        "batch     : {batch} lane(s), {}",
        if exact {
            "all bit-exact vs per-lane references"
        } else {
            "LANE MISMATCH vs references"
        }
    );
    let _ = writeln!(
        out,
        "value     : lane 0 = {} (0x{:x})",
        report.values[0], report.values[0]
    );
    let _ = writeln!(
        out,
        "cycles    : {} measured / {} predicted ({}) for the whole batch",
        report.cycles,
        report.expected_cycles,
        if report.cycles == report.expected_cycles {
            "exact"
        } else {
            "DRIFT"
        }
    );
    let _ = writeln!(out, "energy    : {}", report.energy);
    let _ = writeln!(
        out,
        "verify    : {} micro-ops, all 5 hazard passes clean ({} warning(s))",
        report.trace_len,
        report.lint.warning_count()
    );
    if compare {
        match hand {
            Some(hand_cycles) => {
                let hand = hand_cycles(program.model());
                let speedup = batch as f64 * hand as f64 / report.cycles as f64;
                let _ = writeln!(
                    out,
                    "compare   : hand-written kernel {hand} cycles/instance serial; \
                     batched {} for {batch} -> {speedup:.1}x per instance",
                    report.cycles
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "compare   : no hand-written baseline for file programs"
                );
            }
        }
    }
    out.pop();
    Ok(out)
}

/// The `math` command: compile one transcendental microkernel, gate-run
/// it once at a representative domain point, and score the kernel against
/// the `f64` oracle — or, with `--twiddles`, regenerate the FFT twiddle
/// ROM fully in-crossbar and gate its MRE against the float ROM.
fn run_math(
    func: Option<apim_compile::MathFn>,
    width: u32,
    lut: bool,
    iters: Option<u32>,
    segments: Option<u32>,
    twiddles: Option<usize>,
) -> Result<String, apim::ApimError> {
    use apim_math::reference as oracle;
    use std::fmt::Write as _;

    let fail = |e: apim_compile::CompileError| apim::ApimError::Runtime(e.to_string());
    let mut out = String::new();

    if let Some(n) = twiddles {
        // The ROM smoke: every entry computed by the compiled 20-bit
        // CORDIC programs, scored against the host float ROM.
        let tw = apim_workloads::mathdags::compiled_twiddles(
            n,
            &apim_compile::CompileOptions::default(),
        )
        .map_err(fail)?;
        let one = f64::from(1i32 << apim_workloads::fft::TW_SHIFT);
        let mut got = Vec::with_capacity(n);
        let mut want = Vec::with_capacity(n);
        for (k, t) in tw.iter().enumerate() {
            let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            got.push(i64::from(t.re));
            got.push(i64::from(t.im));
            want.push((angle.cos() * one).round() as i64);
            want.push((angle.sin() * one).round() as i64);
        }
        let mre = apim_workloads::quality::mean_relative_error(&want, &got);
        let max_abs = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (g - w).abs())
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "twiddles  : {n}-point FFT, {} entries from the compiled {}-bit CORDIC (Q{})",
            tw.len(),
            apim_workloads::mathdags::TWIDDLE_WIDTH,
            apim_workloads::fft::TW_SHIFT
        );
        let _ = writeln!(out, "max abs   : {max_abs} LSB vs the float ROM");
        let _ = write!(out, "mre       : {mre:.4} (gate < 0.1000)");
        if mre >= 0.10 {
            return Err(apim::ApimError::Runtime(format!(
                "compiled twiddle ROM exceeds the MRE gate\n{out}"
            )));
        }
        return Ok(out);
    }

    let func = func.expect("parse guarantees --fn when --twiddles is absent");
    let default = apim_math::default_spec(func, width);
    let mode = if lut {
        let cap = apim_math::max_log2_segments(func, width, default.frac);
        apim_compile::MathMode::Lut {
            log2_segments: segments.unwrap_or_else(|| cap.min(3)),
        }
    } else {
        match iters {
            Some(k) => apim_compile::MathMode::Cordic { iters: k },
            None => default.mode,
        }
    };
    let spec = apim_compile::MathSpec { mode, ..default };
    apim_math::validate(width, &spec)
        .map_err(|e| apim::ApimError::Runtime(format!("invalid math spec: {e}")))?;

    let mut dag = apim_compile::Dag::new(width).map_err(fail)?;
    let x = dag.input("x").map_err(fail)?;
    let m = dag.math(x, spec).map_err(fail)?;
    dag.set_root(m).map_err(fail)?;
    let program =
        apim_compile::compile(&dag, &apim_compile::CompileOptions::default()).map_err(fail)?;

    // One gate-level run at the domain's three-quarter point (π/4 for
    // trig) — nonzero, representative, deterministic.
    let sample = oracle::domain_samples(func, width, spec.frac, 5)[3];
    let inputs: std::collections::HashMap<String, u64> = [("x".to_string(), sample)].into();
    let report = program.run(&inputs).map_err(fail)?;
    let x_f = oracle::input_to_f64(func, width, spec.frac, sample);
    let got_f = oracle::output_to_f64(width, spec.frac, report.value);
    let ideal_f = oracle::truth(func, x_f);

    let _ = writeln!(
        out,
        "kernel    : {func} ({width}-bit Q{}, {})",
        spec.frac, spec.mode
    );
    let _ = writeln!(
        out,
        "sample    : {func}({x_f:.4}) = {ideal_f:.4} ideal, {got_f:.4} compiled"
    );
    let _ = writeln!(
        out,
        "cycles    : {} measured / {} predicted ({})",
        report.cycles,
        report.expected_cycles,
        if report.cycles == report.expected_cycles {
            "exact"
        } else {
            "DRIFT"
        }
    );
    let _ = writeln!(out, "energy    : {}", report.energy);
    let _ = writeln!(
        out,
        "verify    : {} micro-ops, all 5 hazard passes clean ({} warning(s))",
        report.trace_len,
        report.lint.warning_count()
    );
    // The symbolic prover replays the whole recorded trace; keep it to the
    // widths where compiled CORDIC traces stay small.
    if width <= 12 {
        let eq = program.verify_equiv(&inputs).map_err(fail)?;
        if !eq.equivalent {
            return Err(apim::ApimError::Runtime(format!(
                "equivalence check FAILED for the compiled {func} kernel\n{}",
                eq.lint
            )));
        }
        let _ = writeln!(
            out,
            "equiv     : proved over the recorded assignment ({})",
            eq.mode
        );
    } else {
        let _ = writeln!(out, "equiv     : skipped (width > 12)");
    }
    let stats = oracle::measure(width, &spec, 129)
        .map_err(|e| apim::ApimError::Runtime(format!("oracle sweep: {e}")))?;
    let _ = write!(
        out,
        "oracle    : max abs {:.3e}, max rel {:.4}, mean rel {:.4} (129 samples)",
        stats.max_abs, stats.max_rel, stats.mean_rel
    );
    Ok(out)
}

/// Builds a pool configuration from optional CLI overrides.
fn pool_config(workers: Option<usize>, queue_depth: Option<usize>) -> apim_serve::PoolConfig {
    let mut config = apim_serve::PoolConfig::default();
    if let Some(workers) = workers {
        config.workers = workers;
    }
    if let Some(depth) = queue_depth {
        config.queue_depth = depth;
    }
    config
}

/// The `verify --equiv` sweep: hand kernels through their recording
/// harnesses, plus — in the full sweep — the compiled sharpen/Sobel DAGs
/// checked through [`apim_compile::CompiledProgram::verify_equiv`] with
/// deterministic input bindings.
fn run_verify_equiv(
    target: Option<apim_verify::EquivTarget>,
    widths: &[u32],
    counterexample: bool,
) -> Result<String, apim::ApimError> {
    use std::collections::HashMap;
    use std::fmt::Write as _;

    struct Row {
        name: &'static str,
        width: u32,
        detail: String,
        report: apim_verify::EquivReport,
    }
    let fail = |e: apim_compile::CompileError| apim::ApimError::Runtime(e.to_string());

    let targets: Vec<apim_verify::EquivTarget> = match target {
        Some(t) => vec![t],
        None => apim_verify::EquivTarget::ALL.to_vec(),
    };
    let mut rows = Vec::new();
    for t in &targets {
        for &w in widths {
            for run in apim_verify::verify_equiv_kernel(*t, w)? {
                rows.push(Row {
                    name: run.target.name(),
                    width: w,
                    detail: run.detail,
                    report: run.report,
                });
            }
        }
    }
    if target.is_none() {
        for &w in widths {
            for (name, dag) in [
                (
                    "sharpen-dag",
                    apim_workloads::dags::sharpen_dag_at(w).map_err(fail)?,
                ),
                (
                    "sobel-dag",
                    apim_workloads::dags::sobel_gradient_dag_at(w).map_err(fail)?,
                ),
            ] {
                let program = apim_compile::compile(&dag, &apim_compile::CompileOptions::default())
                    .map_err(fail)?;
                let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                let names = program.dag().inputs().to_vec();
                let inputs: HashMap<String, u64> = names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.to_string(), (3 * i as u64 + 7) & mask))
                    .collect();
                let report = program.verify_equiv(&inputs).map_err(fail)?;
                rows.push(Row {
                    name,
                    width: w,
                    detail: format!("{} inputs (compiled)", names.len()),
                    report,
                });
            }
        }
        // The transcendental microkernels join the full sweep at a fixed
        // width 8: wide enough to exercise the CORDIC/restoring-isqrt
        // expansions, small enough that replaying their multi-thousand-op
        // traces stays cheap.
        for (name, func, input) in [
            (
                "sin-dag",
                apim_compile::MathFn::Sin,
                apim_math::consts::half_pi_q(5) / 3,
            ),
            (
                "cos-dag",
                apim_compile::MathFn::Cos,
                apim_math::consts::half_pi_q(5) / 5,
            ),
            ("sqrt-dag", apim_compile::MathFn::Sqrt, 100),
        ] {
            let w = 8u32;
            let spec = apim_math::default_spec(func, w);
            let mut dag = apim_compile::Dag::new(w).map_err(fail)?;
            let x = dag.input("x").map_err(fail)?;
            let m = dag.math(x, spec).map_err(fail)?;
            dag.set_root(m).map_err(fail)?;
            let program = apim_compile::compile(&dag, &apim_compile::CompileOptions::default())
                .map_err(fail)?;
            let inputs: HashMap<String, u64> =
                [("x".to_string(), apim_math::to_pattern(input, w))].into();
            let report = program.verify_equiv(&inputs).map_err(fail)?;
            rows.push(Row {
                name,
                width: w,
                detail: format!("{} (compiled)", spec.mode),
                report,
            });
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:<22} {:>5} {:>7} {:<18} verdict",
        "kernel", "width", "detail", "bits", "nodes", "mode"
    );
    let mut failures = 0usize;
    for row in &rows {
        let verdict = if row.report.equivalent {
            "equivalent".to_string()
        } else {
            failures += 1;
            match (&row.report.counterexample, counterexample) {
                (Some(cx), true) => format!("MISMATCH {cx}"),
                (Some(_), false) => "MISMATCH (re-run with --counterexample)".to_string(),
                (None, _) => format!("FAILED ({})", row.report.lint),
            }
        };
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:<22} {:>5} {:>7} {:<18} {}",
            row.name,
            row.width,
            row.detail,
            row.report.input_bits,
            row.report.nodes,
            row.report.mode.to_string(),
            verdict
        );
    }
    if failures > 0 {
        return Err(apim::ArchError::VerificationFailed {
            errors: failures,
            detail: out,
        }
        .into());
    }
    let _ = write!(out, "{} checks, all equivalent", rows.len());
    Ok(out)
}

/// The `faults` command: either a fault-injection campaign over the
/// kernel suite (gated — ECC-on runs must be bit-exact) or the endurance
/// demo (gated — rotation must at least halve hottest-cell wear and the
/// remapped adder must re-verify end to end).
fn run_faults(
    density: f64,
    ecc: EccMode,
    seed: u64,
    trials: usize,
    wear_demo: bool,
) -> Result<String, apim::ApimError> {
    use std::fmt::Write as _;

    let mut out = String::new();
    if wear_demo {
        let wear = apim_reliability::run_wear_demo(36)?;
        let _ = writeln!(out, "wear-leveling: {wear}");
        let remap = apim_reliability::remap_adder_demo(16)?;
        let moved: Vec<String> = remap
            .remapped
            .iter()
            .map(|(worn, spare)| format!("{worn}->{spare}"))
            .collect();
        let _ = writeln!(
            out,
            "row remap    : retired {} worn row(s) [{}]",
            remap.remapped.len(),
            moved.join(", ")
        );
        let _ = write!(
            out,
            "re-certify   : {} hazard error(s), equivalence {}",
            remap.verify_errors,
            if remap.equiv_ok { "proved" } else { "FAILED" }
        );
        if wear.reduction() < 2.0 {
            return Err(apim::ApimError::Runtime(format!(
                "wear-leveling gate: expected >= 2.0x hottest-cell reduction, got {:.1}x",
                wear.reduction()
            )));
        }
        if remap.verify_errors > 0 || !remap.equiv_ok {
            return Err(apim::ApimError::Runtime(format!(
                "remapped adder failed re-certification\n{out}"
            )));
        }
        return Ok(out);
    }

    let modes: &[bool] = match ecc {
        EccMode::On => &[true],
        EccMode::Off => &[false],
        EccMode::Both => &[true, false],
    };
    for &ecc_on in modes {
        let report = apim_reliability::run_campaign(&apim_reliability::CampaignConfig {
            seed,
            density,
            ecc: ecc_on,
            trials,
            ..apim_reliability::CampaignConfig::default()
        })?;
        let _ = write!(out, "{report}");
        // A protected run that still diverges is a broken ECC layer, not a
        // data point — fail loudly. Unprotected divergence is the point of
        // the comparison and is only reported.
        if ecc_on && !report.all_bit_exact() {
            return Err(apim::ApimError::Runtime(format!(
                "ECC-on campaign diverged from the fault-free digests\n{report}"
            )));
        }
    }
    out.pop();
    Ok(out)
}

/// Executes a command, returning the text to print.
///
/// # Errors
///
/// Propagates simulator errors (invalid modes, oversized datasets) as
/// [`apim::ApimError`].
pub fn execute(command: &Command) -> Result<String, apim::ApimError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    match command {
        Command::Help => out.push_str(USAGE),
        Command::Multiply { a, b, mode } => {
            let apim = Apim::default();
            mode.validate(apim.config().operand_bits)
                .map_err(|e| apim::ArchError::InvalidConfig(e.to_string()))?;
            let r = apim.multiply(*a, *b, *mode);
            let exact = u128::from(*a) * u128::from(*b);
            let _ = writeln!(out, "product   : {}", r.product);
            let _ = writeln!(out, "exact     : {exact}");
            let _ = writeln!(
                out,
                "rel error : {:.3e}",
                if exact == 0 {
                    0.0
                } else {
                    r.product.abs_diff(exact) as f64 / exact as f64
                }
            );
            let _ = writeln!(out, "cycles    : {}", r.cost.cycles.get());
            let _ = writeln!(out, "energy    : {}", r.cost.energy);
            let _ = write!(out, "EDP       : {}", r.edp);
        }
        Command::Run { app, size_mb, mode } => {
            let apim = Apim::default();
            let report = apim.run_with_mode(*app, size_mb << 20, *mode)?;
            let _ = write!(out, "{report}");
        }
        Command::Tune { app } => {
            let apim = Apim::default();
            let outcome = apim.tune(*app);
            let report = apim.run_with_mode(*app, 1 << 30, outcome.mode)?;
            let _ = writeln!(
                out,
                "{}: settled on {} after {} trials",
                app.name(),
                outcome.mode,
                outcome.trials
            );
            let _ = write!(out, "at 1 GiB: {}", report.comparison);
        }
        Command::Sweep { app } => {
            let apim = Apim::default();
            let _ = writeln!(
                out,
                "{}: dataset sweep (energy x / speedup vs GPU)",
                app.name()
            );
            for mb in [32u64, 64, 128, 256, 512, 1024] {
                let r = apim.run_with_mode(*app, mb << 20, PrecisionMode::Exact)?;
                let _ = writeln!(
                    out,
                    "{mb:>6} MiB: {:>6.1}x / {:>5.2}x",
                    r.comparison.energy_improvement, r.comparison.speedup
                );
            }
            out.pop();
        }
        Command::SelfTest { samples } => {
            let apim = Apim::default();
            let report = apim.self_test(*samples, 0xA11C)?;
            let _ = writeln!(
                out,
                "self-test: {}/{} multiplications bit-exact vs reference",
                report.samples - report.mismatches,
                report.samples
            );
            let _ = writeln!(
                out,
                "hottest cell absorbed {} writes",
                report.max_cell_writes
            );
            for h in &report.hotspots {
                let _ = writeln!(
                    out,
                    "  hotspot: block {} row {:>2} col {:>3} — {} writes",
                    h.block, h.row, h.col, h.writes
                );
            }
            let _ = write!(
                out,
                "verdict: {}",
                if report.passed() { "PASS" } else { "FAIL" }
            );
        }
        Command::Verify {
            kernel,
            equiv,
            equiv_target,
            width,
            counterexample,
        } => {
            let widths: Vec<u32> = match width {
                Some(w) => vec![*w],
                None => apim_verify::DEFAULT_WIDTHS.to_vec(),
            };
            if *equiv {
                let _ = write!(
                    out,
                    "{}",
                    run_verify_equiv(*equiv_target, &widths, *counterexample)?
                );
            } else {
                let runs = match kernel {
                    Some(kernel) => widths
                        .iter()
                        .map(|&w| apim_verify::verify_kernel(*kernel, w))
                        .collect::<Result<Vec<_>, _>>()?,
                    None => apim_verify::verify_all(&widths)?,
                };
                let errors: usize = runs.iter().map(|r| r.report.error_count()).sum();
                if errors > 0 {
                    return Err(apim::ArchError::VerificationFailed {
                        errors,
                        detail: apim_verify::render(&runs),
                    }
                    .into());
                }
                let _ = write!(out, "{}", apim_verify::render(&runs));
            }
        }
        Command::Compile {
            target,
            bindings,
            compare,
            batch,
        } => {
            out = run_compile(target, bindings, *compare, *batch)?;
        }
        Command::Math {
            func,
            width,
            lut,
            iters,
            segments,
            twiddles,
        } => {
            out = run_math(*func, *width, *lut, *iters, *segments, *twiddles)?;
        }
        Command::Serve {
            path,
            workers,
            queue_depth,
        } => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                apim::ApimError::Runtime(format!("cannot read request file `{path}`: {e}"))
            })?;
            let mut requests = Vec::new();
            for (number, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                requests.push(apim_serve::Request::parse_line(line).map_err(|e| {
                    apim::ApimError::Runtime(format!("{path}:{}: {e}", number + 1))
                })?);
            }
            let pool = apim_serve::Pool::new(pool_config(*workers, *queue_depth))?;
            let responses = pool.run_all(requests)?;
            for response in &responses {
                let verdict = match &response.result {
                    Ok(output) => output.summary(),
                    Err(e) => format!("error: {e}"),
                };
                let _ = writeln!(
                    out,
                    "#{:<4} @{:<3} {:>8.1?}  {verdict}",
                    response.id, response.tenant.0, response.latency
                );
            }
            let _ = write!(out, "{}", pool.metrics().snapshot());
        }
        Command::Loadgen {
            requests,
            workers,
            seed,
            queue_depth,
        } => {
            let report = apim_serve::loadgen::run(&apim_serve::loadgen::LoadgenConfig {
                requests: *requests as u64,
                seed: *seed,
                pool: pool_config(*workers, *queue_depth),
            })?;
            let _ = write!(out, "{report}");
        }
        Command::Node {
            addr,
            workers,
            queue_depth,
            for_secs,
            transport,
        } => {
            let node = apim_cluster::Node::spawn(apim_cluster::NodeConfig {
                addr: addr.clone(),
                pool: pool_config(*workers, *queue_depth),
                transport: *transport,
                ..apim_cluster::NodeConfig::default()
            })
            .map_err(|e| apim::ApimError::Runtime(format!("cannot start node: {e}")))?;
            // The daemon announces its address up front (port 0 resolves
            // to a real port) so scripts can capture it before blocking.
            println!("apim-node listening on {}", node.addr());
            match for_secs {
                Some(secs) => std::thread::sleep(std::time::Duration::from_secs(*secs)),
                None => loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                },
            }
            let snapshot = node.metrics().snapshot();
            node.shutdown();
            let _ = write!(out, "{snapshot}");
        }
        Command::ClusterLoadgen {
            nodes,
            requests,
            seed,
            concurrency,
        } => {
            let report = apim_cluster::loadgen::run(&apim_cluster::loadgen::ClusterLoadgenConfig {
                requests: *requests as u64,
                seed: *seed,
                concurrency: *concurrency,
                cluster: apim_cluster::ClusterConfig::new(nodes.clone()),
            })
            .map_err(|e| apim::ApimError::Runtime(format!("cluster-loadgen: {e}")))?;
            let _ = write!(out, "{report}");
            // Rejections are backpressure doing its job; lost requests mean
            // no node could answer — that is an infrastructure failure.
            if report.lost > 0 {
                return Err(apim::ApimError::Runtime(format!(
                    "cluster-loadgen: {} of {} requests lost\n{report}",
                    report.lost, report.offered
                )));
            }
        }
        Command::ClusterSmoke {
            nodes,
            requests,
            workers,
            seed,
        } => {
            let report = apim_cluster::loadgen::smoke(&apim_cluster::loadgen::SmokeConfig {
                nodes: *nodes,
                requests: *requests as u64,
                seed: *seed,
                workers: workers.unwrap_or(2),
                kill_after: None,
            })
            .map_err(|e| apim::ApimError::Runtime(format!("cluster-smoke: {e}")))?;
            let _ = write!(out, "{report}");
            if !report.passed() {
                return Err(apim::ApimError::Runtime(format!(
                    "cluster-smoke FAILED: {} of {} requests lost or rejected",
                    report.loadgen.lost + report.loadgen.rejected,
                    report.loadgen.offered
                )));
            }
        }
        Command::Faults {
            density,
            ecc,
            seed,
            trials,
            wear_demo,
        } => {
            out = run_faults(*density, *ecc, *seed, *trials, *wear_demo)?;
        }
        Command::Repro { exhibit } => {
            use apim_bench as b;
            let all = exhibit == "all";
            if all || exhibit == "fig4" {
                let _ = writeln!(out, "{}", b::fig4::render(&b::fig4::generate()));
            }
            if all || exhibit == "fig5" {
                let _ = writeln!(out, "{}", b::fig5::render(&b::fig5::generate()));
            }
            if all || exhibit == "fig5sim" {
                let _ = writeln!(out, "{}", b::fig5_sim::render(&b::fig5_sim::generate()));
            }
            if all || exhibit == "fig6" {
                let _ = writeln!(out, "{}", b::fig6::render(&b::fig6::generate()));
            }
            if all || exhibit == "table1" {
                let _ = writeln!(out, "{}", b::table1::render(&b::table1::generate()));
            }
            if all || exhibit == "headline" {
                let _ = writeln!(out, "{}", b::headline::render(&b::headline::generate()));
            }
            if all || exhibit == "ablation" {
                let _ = writeln!(out, "{}", b::ablation::render(&b::ablation::generate()));
            }
            if out.is_empty() {
                out = format!("unknown exhibit `{exhibit}`\n\n{USAGE}");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_multiply_with_modes() {
        assert_eq!(
            parse(&args("multiply 3 5")).unwrap(),
            Command::Multiply {
                a: 3,
                b: 5,
                mode: PrecisionMode::Exact
            }
        );
        assert_eq!(
            parse(&args("multiply 3 5 --relax 16")).unwrap(),
            Command::Multiply {
                a: 3,
                b: 5,
                mode: PrecisionMode::LastStage { relax_bits: 16 }
            }
        );
        assert_eq!(
            parse(&args("multiply 3 5 --mask 4")).unwrap(),
            Command::Multiply {
                a: 3,
                b: 5,
                mode: PrecisionMode::FirstStage { masked_bits: 4 }
            }
        );
    }

    #[test]
    fn parses_all_app_aliases() {
        for (name, app) in [
            ("sobel", App::Sobel),
            ("ROBERT", App::Robert),
            ("fft", App::Fft),
            ("dwt", App::DwtHaar1d),
            ("dwthaar1d", App::DwtHaar1d),
            ("sharpen", App::Sharpen),
            ("quasir", App::QuasiRandom),
        ] {
            assert_eq!(
                parse(&args(&format!("tune {name}"))).unwrap(),
                Command::Tune { app },
                "{name}"
            );
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&args("multiply 3")).is_err());
        assert!(parse(&args("multiply x y")).is_err());
        assert!(parse(&args("run nosuchapp 64")).is_err());
        assert!(parse(&args("run sobel sixtyfour")).is_err());
        assert!(parse(&args("multiply 1 2 --frob 3")).is_err());
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("tune")).is_err());
    }

    #[test]
    fn empty_and_help_yield_usage() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
        let text = execute(&Command::Help).unwrap();
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn multiply_executes_and_reports() {
        let out = execute(&Command::Multiply {
            a: 1000,
            b: 2000,
            mode: PrecisionMode::Exact,
        })
        .unwrap();
        assert!(out.contains("product   : 2000000"));
        assert!(out.contains("cycles"));
    }

    #[test]
    fn run_reports_comparison() {
        let out = execute(&Command::Run {
            app: App::Robert,
            size_mb: 256,
            mode: PrecisionMode::Exact,
        })
        .unwrap();
        assert!(out.contains("Robert"));
        assert!(out.contains("speedup"));
    }

    #[test]
    fn oversized_run_errors_cleanly() {
        let err = execute(&Command::Run {
            app: App::Fft,
            size_mb: 1 << 20,
            mode: PrecisionMode::Exact,
        })
        .unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn invalid_mode_reported_not_panicking() {
        let err = execute(&Command::Multiply {
            a: 1,
            b: 2,
            mode: PrecisionMode::LastStage { relax_bits: 65 },
        })
        .unwrap_err();
        assert!(err.to_string().contains("invalid"));
    }

    #[test]
    fn sweep_lists_all_sizes() {
        let out = execute(&Command::Sweep {
            app: App::DwtHaar1d,
        })
        .unwrap();
        for mb in ["32", "64", "128", "256", "512", "1024"] {
            assert!(out.contains(mb), "{mb} missing");
        }
    }

    #[test]
    fn selftest_parses_and_passes() {
        assert_eq!(
            parse(&args("selftest")).unwrap(),
            Command::SelfTest { samples: 16 }
        );
        assert_eq!(
            parse(&args("selftest 4")).unwrap(),
            Command::SelfTest { samples: 4 }
        );
        assert!(parse(&args("selftest four")).is_err());
        let out = execute(&Command::SelfTest { samples: 4 }).unwrap();
        assert!(out.contains("PASS"), "{out}");
    }

    /// The pre-`--equiv` hazard sweep with everything defaulted.
    fn hazard_verify(kernel: Option<apim_verify::Kernel>) -> Command {
        Command::Verify {
            kernel,
            equiv: false,
            equiv_target: None,
            width: None,
            counterexample: false,
        }
    }

    #[test]
    fn verify_parses_and_sweeps_clean() {
        assert_eq!(parse(&args("verify")).unwrap(), hazard_verify(None));
        assert_eq!(parse(&args("verify --all")).unwrap(), hazard_verify(None));
        assert_eq!(
            parse(&args("verify adder")).unwrap(),
            hazard_verify(Some(apim_verify::Kernel::SerialAdder))
        );
        assert!(parse(&args("verify nosuchkernel")).is_err());
        assert!(parse(&args("verify adder csa")).is_err());
        let out = execute(&hazard_verify(Some(apim_verify::Kernel::CsaGroup))).unwrap();
        assert!(out.contains("clean"), "{out}");
        assert_eq!(out.matches("csa").count(), 3, "one row per width: {out}");
    }

    #[test]
    fn verify_equiv_parses_flags() {
        assert_eq!(
            parse(&args("verify --equiv")).unwrap(),
            Command::Verify {
                kernel: None,
                equiv: true,
                equiv_target: None,
                width: None,
                counterexample: false,
            }
        );
        assert_eq!(
            parse(&args("verify --equiv divider --width 8 --counterexample")).unwrap(),
            Command::Verify {
                kernel: None,
                equiv: true,
                equiv_target: Some(apim_verify::EquivTarget::Divider),
                width: Some(8),
                counterexample: true,
            }
        );
        assert_eq!(
            parse(&args("verify adder --width 16")).unwrap(),
            Command::Verify {
                kernel: Some(apim_verify::Kernel::SerialAdder),
                equiv: false,
                equiv_target: None,
                width: Some(16),
                counterexample: false,
            }
        );
        assert!(parse(&args("verify --equiv csa")).is_err(), "no equiv spec");
        assert!(parse(&args("verify --equiv --width 2")).is_err());
        assert!(parse(&args("verify --equiv --width")).is_err());
        assert!(
            parse(&args("verify --counterexample")).is_err(),
            "requires --equiv"
        );
        assert!(parse(&args("verify --frobnicate")).is_err());
    }

    #[test]
    fn verify_equiv_executes_one_target() {
        let out = execute(&Command::Verify {
            kernel: None,
            equiv: true,
            equiv_target: Some(apim_verify::EquivTarget::SerialAdder),
            width: Some(8),
            counterexample: false,
        })
        .unwrap();
        assert!(out.contains("equivalent"), "{out}");
        assert!(out.contains("exhaustive(65536)"), "{out}");
    }

    #[test]
    fn serve_parses_path_and_pool_flags() {
        assert_eq!(
            parse(&args("serve reqs.txt")).unwrap(),
            Command::Serve {
                path: "reqs.txt".into(),
                workers: None,
                queue_depth: None,
            }
        );
        assert_eq!(
            parse(&args("serve reqs.txt --workers 4 --queue-depth 32")).unwrap(),
            Command::Serve {
                path: "reqs.txt".into(),
                workers: Some(4),
                queue_depth: Some(32),
            }
        );
        assert!(parse(&args("serve")).is_err(), "file is mandatory");
        assert!(
            parse(&args("serve --workers 4")).is_err(),
            "flag is no file"
        );
        assert!(parse(&args("serve reqs.txt --workers")).is_err());
        assert!(parse(&args("serve reqs.txt --seed 7")).is_err());
    }

    #[test]
    fn loadgen_parses_defaults_and_overrides() {
        assert_eq!(
            parse(&args("loadgen")).unwrap(),
            Command::Loadgen {
                requests: 200,
                workers: None,
                seed: 7,
                queue_depth: None,
            }
        );
        assert_eq!(
            parse(&args(
                "loadgen --requests 50 --workers 2 --seed 99 --queue-depth 64"
            ))
            .unwrap(),
            Command::Loadgen {
                requests: 50,
                workers: Some(2),
                seed: 99,
                queue_depth: Some(64),
            }
        );
        assert!(parse(&args("loadgen --requests")).is_err());
        assert!(parse(&args("loadgen --frob 3")).is_err());
        assert!(parse(&args("loadgen --seed banana")).is_err());
    }

    #[test]
    fn serve_executes_a_request_file() {
        let dir = std::env::temp_dir().join("apim-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("requests.txt");
        std::fs::write(
            &path,
            "# smoke requests\n\
             multiply 1000 2000\n\
             @1 run quasir 32 --relax 8\n\
             \n\
             mac 3 4 5 6\n\
             @2 compile width 16; in a; out a * 5 + 2\n",
        )
        .unwrap();
        let out = execute(&Command::Serve {
            path: path.to_string_lossy().into_owned(),
            workers: Some(2),
            queue_depth: Some(16),
        })
        .unwrap();
        assert!(out.contains("product 2000000"), "{out}");
        assert!(out.contains("mac x2"), "{out}");
        // Single input `a` defaults to 1: 1·5 + 2 = 7.
        assert!(out.contains("value 7 in"), "{out}");
        assert!(out.contains("apim_serve_completed_total 4"), "{out}");
        assert!(out.contains("apim_serve_failed_total 0"), "{out}");

        let err = execute(&Command::Serve {
            path: dir.join("missing.txt").to_string_lossy().into_owned(),
            workers: None,
            queue_depth: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
    }

    #[test]
    fn loadgen_executes_and_reports_throughput() {
        let out = execute(&Command::Loadgen {
            requests: 20,
            workers: Some(2),
            seed: 7,
            queue_depth: Some(64),
        })
        .unwrap();
        assert!(out.contains("20 offered"), "{out}");
        assert!(out.contains("req/s"), "{out}");
        assert!(out.contains("apim_serve_completed_total"), "{out}");
        // Tail latency and admission accounting are part of the report.
        assert!(out.contains("latency: p50 "), "{out}");
        assert!(out.contains(" / p95 "), "{out}");
        assert!(out.contains(" / p99 "), "{out}");
        assert!(out.contains("rejected at admission: 0 of 20"), "{out}");
    }

    #[test]
    fn node_parses_defaults_and_overrides() {
        assert_eq!(
            parse(&args("node")).unwrap(),
            Command::Node {
                addr: "127.0.0.1:7751".into(),
                workers: None,
                queue_depth: None,
                for_secs: None,
                transport: apim_cluster::Transport::EventLoop,
            }
        );
        assert_eq!(
            parse(&args(
                "node --addr 0.0.0.0:9000 --workers 4 --queue-depth 32 --for-secs 2 \
                 --transport blocking"
            ))
            .unwrap(),
            Command::Node {
                addr: "0.0.0.0:9000".into(),
                workers: Some(4),
                queue_depth: Some(32),
                for_secs: Some(2),
                transport: apim_cluster::Transport::Blocking,
            }
        );
        assert_eq!(
            parse(&args("node --transport event-loop")).unwrap(),
            Command::Node {
                addr: "127.0.0.1:7751".into(),
                workers: None,
                queue_depth: None,
                for_secs: None,
                transport: apim_cluster::Transport::EventLoop,
            }
        );
        assert!(parse(&args("node --addr")).is_err());
        assert!(parse(&args("node --frob 3")).is_err());
        assert!(parse(&args("node --transport carrier-pigeon")).is_err());
    }

    #[test]
    fn cluster_loadgen_parses_node_list() {
        assert_eq!(
            parse(&args(
                "cluster-loadgen --nodes a:1,b:2 --requests 50 --seed 3"
            ))
            .unwrap(),
            Command::ClusterLoadgen {
                nodes: vec!["a:1".into(), "b:2".into()],
                requests: 50,
                seed: 3,
                concurrency: 8,
            }
        );
        assert!(
            parse(&args("cluster-loadgen --requests 50")).is_err(),
            "--nodes is mandatory"
        );
        assert!(parse(&args("cluster-loadgen --nodes a:1 --workers 2")).is_err());
    }

    #[test]
    fn cluster_smoke_parses_and_passes_the_gate() {
        assert_eq!(
            parse(&args("cluster-smoke")).unwrap(),
            Command::ClusterSmoke {
                nodes: 2,
                requests: 200,
                workers: None,
                seed: 7,
            }
        );
        assert!(parse(&args("cluster-smoke --queue-depth 4")).is_err());
        let out = execute(&Command::ClusterSmoke {
            nodes: 2,
            requests: 60,
            workers: Some(2),
            seed: 7,
        })
        .unwrap();
        assert!(out.contains("zero requests lost — PASS"), "{out}");
        assert!(out.contains("apim_cluster_latency_p99_us"), "{out}");
    }

    #[test]
    fn cluster_loadgen_executes_against_live_nodes() {
        let pool = apim_serve::PoolConfig {
            workers: 2,
            queue_depth: 64,
            ..apim_serve::PoolConfig::default()
        };
        let cluster = apim_cluster::LoopbackCluster::spawn(2, &pool).unwrap();
        let out = execute(&Command::ClusterLoadgen {
            nodes: cluster.addrs().to_vec(),
            requests: 30,
            seed: 7,
            concurrency: 4,
        })
        .unwrap();
        assert!(out.contains("30 offered, 30 succeeded"), "{out}");
        assert!(out.contains("apim_cluster_nodes 2"), "{out}");
        assert!(out.contains("checksum"), "{out}");
        cluster.shutdown();
    }

    #[test]
    fn faults_parses_defaults_and_overrides() {
        assert_eq!(
            parse(&args("faults")).unwrap(),
            Command::Faults {
                density: 1e-4,
                ecc: EccMode::On,
                seed: 7,
                trials: 4,
                wear_demo: false,
            }
        );
        assert_eq!(
            parse(&args(
                "faults --density 0.02 --ecc both --seed 11 --trials 2"
            ))
            .unwrap(),
            Command::Faults {
                density: 0.02,
                ecc: EccMode::Both,
                seed: 11,
                trials: 2,
                wear_demo: false,
            }
        );
        assert_eq!(
            parse(&args("faults --wear-demo")).unwrap(),
            Command::Faults {
                density: 1e-4,
                ecc: EccMode::On,
                seed: 7,
                trials: 4,
                wear_demo: true,
            }
        );
        assert!(parse(&args("faults --density")).is_err());
        assert!(
            parse(&args("faults --density 1.5")).is_err(),
            "out of range"
        );
        assert!(parse(&args("faults --density banana")).is_err());
        assert!(parse(&args("faults --ecc maybe")).is_err());
        assert!(parse(&args("faults --frob 3")).is_err());
    }

    #[test]
    fn math_parses_kernel_and_twiddle_forms() {
        assert_eq!(
            parse(&args("math --fn sin --width 10 --iters 7")).unwrap(),
            Command::Math {
                func: Some(apim_compile::MathFn::Sin),
                width: 10,
                lut: false,
                iters: Some(7),
                segments: None,
                twiddles: None,
            }
        );
        assert_eq!(
            parse(&args("math --fn sqrt --mode lut --segments 2")).unwrap(),
            Command::Math {
                func: Some(apim_compile::MathFn::Sqrt),
                width: 16,
                lut: true,
                iters: None,
                segments: Some(2),
                twiddles: None,
            }
        );
        assert_eq!(
            parse(&args("math --twiddles 8")).unwrap(),
            Command::Math {
                func: None,
                width: 16,
                lut: false,
                iters: None,
                segments: None,
                twiddles: Some(8),
            }
        );
    }

    #[test]
    fn math_rejects_malformed_requests() {
        assert!(parse(&args("math")).is_err(), "needs --fn or --twiddles");
        assert!(parse(&args("math --fn tan")).is_err());
        assert!(parse(&args("math --fn sin --width 3")).is_err());
        assert!(parse(&args("math --fn sin --width")).is_err());
        assert!(
            parse(&args("math --fn sin --segments 2")).is_err(),
            "--segments needs --mode lut"
        );
        assert!(
            parse(&args("math --fn sin --mode lut --iters 3")).is_err(),
            "--iters is cordic-only"
        );
        assert!(
            parse(&args("math --fn sin --twiddles 8")).is_err(),
            "exclusive forms"
        );
        assert!(
            parse(&args("math --twiddles 12")).is_err(),
            "power of two required"
        );
        assert!(parse(&args("math --frob 3")).is_err());
    }

    #[test]
    fn math_reports_cost_accuracy_and_proof() {
        let out = execute(&parse(&args("math --fn sin --width 10")).unwrap()).unwrap();
        assert!(
            out.contains("kernel    : sin (10-bit Q7, cordic 7)"),
            "{out}"
        );
        assert!(out.contains("cycles"), "{out}");
        assert!(out.contains("energy"), "{out}");
        assert!(out.contains("all 5 hazard passes clean"), "{out}");
        assert!(out.contains("equiv     : proved"), "{out}");
        assert!(out.contains("mean rel"), "{out}");
    }

    #[test]
    fn math_lut_mode_skips_the_prover_above_width_12() {
        let out = execute(&parse(&args("math --fn sqrt --mode lut --width 16")).unwrap()).unwrap();
        assert!(out.contains("lut"), "{out}");
        assert!(out.contains("equiv     : skipped (width > 12)"), "{out}");
    }

    #[test]
    fn math_twiddle_smoke_passes_its_gate() {
        let out = execute(&parse(&args("math --twiddles 4")).unwrap()).unwrap();
        assert!(out.contains("twiddles  : 4-point FFT"), "{out}");
        assert!(out.contains("mre"), "{out}");
    }

    #[test]
    fn faults_campaign_is_bit_exact_with_ecc_on() {
        let out = execute(&Command::Faults {
            density: 1e-4,
            ecc: EccMode::On,
            seed: 7,
            trials: 2,
            wear_demo: false,
        })
        .unwrap();
        assert!(out.contains("ecc on"), "{out}");
        for kernel in ["adder", "multiplier", "sharpen"] {
            assert!(out.contains(kernel), "{kernel} missing: {out}");
        }
        assert!(out.contains("bit-exact"), "{out}");
        assert!(!out.contains("DIVERGED"), "{out}");
        assert!(out.contains("ecc") && out.contains("cycles"), "{out}");
    }

    #[test]
    fn faults_both_sweeps_protected_and_raw() {
        let out = execute(&Command::Faults {
            density: 1e-4,
            ecc: EccMode::Both,
            seed: 7,
            trials: 2,
            wear_demo: false,
        })
        .unwrap();
        assert!(out.contains("ecc on"), "{out}");
        assert!(out.contains("ecc off"), "{out}");
    }

    #[test]
    fn faults_raw_sweep_reports_degradation_without_failing() {
        // At 2% density the unprotected sweep must visibly degrade, and
        // that is a *measurement*, not a command failure.
        let out = execute(&Command::Faults {
            density: 0.02,
            ecc: EccMode::Off,
            seed: 7,
            trials: 2,
            wear_demo: false,
        })
        .unwrap();
        assert!(out.contains("DIVERGED"), "{out}");
        assert!(out.contains("rel_err"), "{out}");
    }

    #[test]
    fn faults_wear_demo_passes_both_gates() {
        let out = execute(&Command::Faults {
            density: 1e-4,
            ecc: EccMode::On,
            seed: 7,
            trials: 4,
            wear_demo: true,
        })
        .unwrap();
        assert!(out.contains("x reduction"), "{out}");
        assert!(out.contains("retired"), "{out}");
        assert!(out.contains("0 hazard error(s)"), "{out}");
        assert!(out.contains("equivalence proved"), "{out}");
    }

    #[test]
    fn selftest_surfaces_wear_hotspots() {
        let out = execute(&Command::SelfTest { samples: 4 }).unwrap();
        assert_eq!(out.matches("hotspot:").count(), 3, "{out}");
        assert!(out.contains("writes"), "{out}");
    }

    #[test]
    fn repro_unknown_exhibit_prints_usage() {
        let out = execute(&Command::Repro {
            exhibit: "fig99".into(),
        })
        .unwrap();
        assert!(out.contains("unknown exhibit"));
    }

    #[test]
    fn repro_fig6_renders() {
        let out = execute(&Command::Repro {
            exhibit: "fig6".into(),
        })
        .unwrap();
        assert!(out.contains("Figure 6"));
    }

    #[test]
    fn repro_ablation_renders() {
        let out = execute(&Command::Repro {
            exhibit: "ablation".into(),
        })
        .unwrap();
        assert!(out.contains("Ablation 1"));
    }

    #[test]
    fn compile_parses_targets_and_flags() {
        assert_eq!(
            parse(&args("compile sharpen")).unwrap(),
            Command::Compile {
                target: "sharpen".into(),
                bindings: vec![],
                compare: false,
                batch: 1,
            }
        );
        assert_eq!(
            parse(&args("compile sobel --compare --set l0=4096 --set r0=8192")).unwrap(),
            Command::Compile {
                target: "sobel".into(),
                bindings: vec![("l0".into(), 4096), ("r0".into(), 8192)],
                compare: true,
                batch: 1,
            }
        );
        assert!(parse(&args("compile")).is_err(), "target is mandatory");
        assert!(
            parse(&args("compile --compare")).is_err(),
            "flag is no target"
        );
        assert!(parse(&args("compile sharpen --set")).is_err());
        assert!(parse(&args("compile sharpen --set c")).is_err(), "needs =");
        assert!(parse(&args("compile sharpen --set c=abc")).is_err());
        assert!(parse(&args("compile sharpen --frob")).is_err());
    }

    #[test]
    fn compile_parses_batch_lane_counts() {
        assert_eq!(
            parse(&args("compile sharpen --batch 64")).unwrap(),
            Command::Compile {
                target: "sharpen".into(),
                bindings: vec![],
                compare: false,
                batch: 64,
            }
        );
        assert_eq!(
            parse(&args("compile sobel --batch 1 --compare")).unwrap(),
            Command::Compile {
                target: "sobel".into(),
                bindings: vec![],
                compare: true,
                batch: 1,
            }
        );
        assert!(parse(&args("compile sharpen --batch")).is_err(), "needs N");
        assert!(parse(&args("compile sharpen --batch 0")).is_err());
        assert!(parse(&args("compile sharpen --batch 65")).is_err());
        assert!(parse(&args("compile sharpen --batch many")).is_err());
    }

    #[test]
    fn compile_batch_runs_all_lanes_bit_exact() {
        let out = execute(&Command::Compile {
            target: "sharpen".into(),
            bindings: vec![("c".into(), 5 << 12)],
            compare: true,
            batch: 8,
        })
        .unwrap();
        assert!(out.contains("x8 lanes"), "{out}");
        assert!(
            out.contains("8 lane(s), all bit-exact vs per-lane references"),
            "{out}"
        );
        assert!(out.contains("(exact) for the whole batch"), "{out}");
        assert!(out.contains("hazard passes clean"), "{out}");
        assert!(out.contains("x per instance"), "{out}");
    }

    #[test]
    fn compile_builtin_reports_compare_gap() {
        let out = execute(&Command::Compile {
            target: "sharpen".into(),
            bindings: vec![("c".into(), 5 << 12)],
            compare: true,
            batch: 1,
        })
        .unwrap();
        assert!(out.contains("bit-exact"), "{out}");
        assert!(out.contains("(exact)"), "{out}");
        assert!(out.contains("hazard passes clean"), "{out}");
        assert!(out.contains("c=20480"), "{out}");
        assert!(out.contains("% gap"), "{out}");
    }

    #[test]
    fn compile_rejects_unknown_input_binding() {
        let err = execute(&Command::Compile {
            target: "sobel".into(),
            bindings: vec![("nosuch".into(), 1)],
            compare: false,
            batch: 1,
        })
        .unwrap_err();
        assert!(err.to_string().contains("no input `nosuch`"), "{err}");
    }

    #[test]
    fn compile_runs_a_program_file_round_trip() {
        let dir = std::env::temp_dir().join("apim-cli-compile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dot2.apim");
        let text = "# two-tap dot product\n\
                    width 16\n\
                    in a\n\
                    in b\n\
                    let p = a * 3 + b * 5\n\
                    out (p << 2) >> 1\n";
        std::fs::write(&path, text).unwrap();

        // The program file parses to the same DAG the library parser builds,
        // and the compiled result matches the reference evaluator.
        let direct = apim_compile::parse_program(text).unwrap();
        let rendered = apim_compile::render_program(&direct);
        assert_eq!(
            apim_compile::parse_program(&rendered).unwrap().dag,
            direct.dag
        );

        let out = execute(&Command::Compile {
            target: path.to_string_lossy().into_owned(),
            bindings: vec![("a".into(), 100), ("b".into(), 7)],
            compare: false,
            batch: 1,
        })
        .unwrap();
        // (100·3 + 7·5) << 2 >> 1 = 335·2 = 670
        assert!(out.contains("value     : 670"), "{out}");
        assert!(out.contains("bit-exact"), "{out}");

        let compared = execute(&Command::Compile {
            target: path.to_string_lossy().into_owned(),
            bindings: vec![],
            compare: true,
            batch: 1,
        })
        .unwrap();
        assert!(compared.contains("no hand-written baseline"), "{compared}");
    }

    #[test]
    fn compile_surfaces_parse_errors_with_position() {
        let dir = std::env::temp_dir().join("apim-cli-compile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.apim");
        std::fs::write(&path, "width 16\nout 1 +\n").unwrap();
        let err = execute(&Command::Compile {
            target: path.to_string_lossy().into_owned(),
            bindings: vec![],
            compare: false,
            batch: 1,
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("broken.apim:2:"), "{msg}");

        let missing = execute(&Command::Compile {
            target: dir.join("nope.apim").to_string_lossy().into_owned(),
            bindings: vec![],
            compare: false,
            batch: 1,
        })
        .unwrap_err();
        assert!(missing.to_string().contains("cannot read"), "{missing}");
    }
}
