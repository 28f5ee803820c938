//! Request, response and error vocabulary of the serving runtime.

use apim::{ApimCost, App, MulReport, PrecisionMode, RunReport};
use std::fmt;
use std::time::Duration;

/// Identifies which tenant submitted a request. Used for the striped
/// per-tenant metrics and the optional per-tenant admission quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TenantId(pub u16);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// What a request asks the device to do.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// A whole application over a resident dataset (the expensive class).
    Run {
        /// The application.
        app: App,
        /// Dataset size in bytes.
        dataset_bytes: u64,
    },
    /// One raw in-memory multiplication.
    Multiply {
        /// Multiplicand.
        a: u64,
        /// Multiplier.
        b: u64,
    },
    /// A batch of independent multiply-accumulate pairs costed as one
    /// parallel dispatch.
    Mac {
        /// The operand pairs.
        pairs: Vec<(u64, u64)>,
    },
    /// A pre-compiled expression program: compiled to a MAGIC microprogram
    /// and gate-executed by `apim-compile`. Precision comes from the
    /// program's own `mode` directives, not the request mode.
    Compile {
        /// Program text in the `apim-compile` expression language.
        source: String,
    },
    /// One pixel of a built-in image kernel (sharpen or one Sobel
    /// gradient), gate-executed through `apim-compile`. Taps are the
    /// kernel DAG's inputs in declaration order (sharpen: `c n w e s`;
    /// Sobel: `l0 r0 l1 r1 l2 r2`). Pixel kernels are exact in every
    /// mode: their DAGs fix exact products, so the request's `mode` only
    /// sets the batch key and never changes the answer. The pool answers
    /// the same-`(app, mode)` pixels of a popped batch with one
    /// microprogram pass of a `compile_batched` kernel it compiled once,
    /// one pixel per bitline lane (at most 64 per pass); a lone pixel runs
    /// the 1-lane program, which is the serial one. A pixel whose tap count
    /// does not fit its kernel fails alone.
    Pixel {
        /// The kernel ([`App::Sharpen`] or [`App::Sobel`]).
        app: App,
        /// Tap values, in the kernel DAG's input order.
        taps: Vec<u64>,
    },
    /// A transport-cost probe: answered by the pool without touching the
    /// simulator. Soak benchmarks use it to measure the serving path
    /// itself rather than crossbar work.
    Echo {
        /// Opaque value echoed back (and folded into the digest, so a
        /// dropped or crossed reply is detectable).
        payload: u64,
    },
}

impl JobKind {
    /// The application this job runs ([`JobKind::Run`] and
    /// [`JobKind::Pixel`] — the latter so `batch_key` coalesces pixels of
    /// the same kernel into one lane-batched pass).
    pub fn app(&self) -> Option<App> {
        match self {
            JobKind::Run { app, .. } | JobKind::Pixel { app, .. } => Some(*app),
            _ => None,
        }
    }
}

/// Tap count of a [`JobKind::Pixel`]-servable kernel (its DAG's inputs),
/// `None` for apps without a pixel-level compiled DAG.
pub(crate) fn pixel_arity(app: App) -> Option<usize> {
    crate::pool::kernel_dag(app).map(|dag| dag.inputs().len())
}

/// One unit of work submitted to the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// The work.
    pub kind: JobKind,
    /// Precision mode to execute under.
    pub mode: PrecisionMode,
    /// Relative deadline from submission; expired requests are answered
    /// with [`ServeError::DeadlineExceeded`] instead of executing.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A request with the default tenant, exact mode and no deadline.
    pub fn new(kind: JobKind) -> Self {
        Request {
            tenant: TenantId::default(),
            kind,
            mode: PrecisionMode::Exact,
            deadline: None,
        }
    }

    /// Sets the tenant.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets the precision mode.
    pub fn mode(mut self, mode: PrecisionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets a relative deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The batch-coalescing key: requests with the same `(app, mode)`
    /// share a batch (raw multiply/MAC jobs coalesce per mode).
    pub fn batch_key(&self) -> (Option<App>, PrecisionMode) {
        (self.kind.app(), self.mode)
    }

    /// Parses one line of a request file.
    ///
    /// Grammar (blank lines and `#` comments are skipped by callers):
    ///
    /// ```text
    /// [@<tenant>] run <app> <size-mb> [--relax M | --mask F]
    /// [@<tenant>] multiply <a> <b>    [--relax M | --mask F]
    /// [@<tenant>] mac <a1> <b1> [<a2> <b2> ...] [--relax M | --mask F]
    /// [@<tenant>] pixel <sharpen|sobel> <taps...> [--relax M | --mask F]
    /// [@<tenant>] compile <program, `;` standing in for newlines>
    /// ```
    ///
    /// A `compile` request carries a whole expression program on one line;
    /// since a request file is line-oriented, `;` separates the program's
    /// statements. The program is parsed (not compiled) at admission, so
    /// syntax errors are rejected here with their line:column position.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for anything outside the grammar.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let mut tokens: Vec<&str> = line.split_whitespace().collect();
        let mut tenant = TenantId::default();
        if let Some(first) = tokens.first() {
            if let Some(id) = first.strip_prefix('@') {
                tenant = TenantId(
                    id.parse()
                        .map_err(|_| format!("invalid tenant id `{id}`"))?,
                );
                tokens.remove(0);
            }
        }
        if tokens.first() == Some(&"compile") {
            let body = line.trim_start();
            let body = match body.strip_prefix('@') {
                Some(rest) => rest
                    .split_once(char::is_whitespace)
                    .map(|(_, b)| b.trim_start())
                    .unwrap_or(""),
                None => body,
            };
            let source = body
                .strip_prefix("compile")
                .map(|s| s.trim_start())
                .unwrap_or("");
            if source.is_empty() {
                return Err("compile needs a program".into());
            }
            let source = source.replace(';', "\n");
            apim_compile::parse_program(&source).map_err(|e| format!("invalid program: {e}"))?;
            return Ok(Request::new(JobKind::Compile { source }).tenant(tenant));
        }
        let mode = match tokens.as_slice() {
            [.., flag, value] if *flag == "--relax" => {
                let relax_bits = value
                    .parse()
                    .map_err(|_| format!("invalid relax bits `{value}`"))?;
                tokens.truncate(tokens.len() - 2);
                PrecisionMode::LastStage { relax_bits }
            }
            [.., flag, value] if *flag == "--mask" => {
                let masked_bits = value
                    .parse()
                    .map_err(|_| format!("invalid mask bits `{value}`"))?;
                tokens.truncate(tokens.len() - 2);
                PrecisionMode::FirstStage { masked_bits }
            }
            _ => PrecisionMode::Exact,
        };
        let parse_u64 = |value: &str, what: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("invalid {what} `{value}`"))
        };
        let kind = match tokens.as_slice() {
            ["run", app, size] => JobKind::Run {
                app: parse_app(app)?,
                dataset_bytes: parse_u64(size, "dataset size")? << 20,
            },
            ["multiply", a, b] => JobKind::Multiply {
                a: parse_u64(a, "multiplicand")?,
                b: parse_u64(b, "multiplier")?,
            },
            ["echo", payload] => JobKind::Echo {
                payload: parse_u64(payload, "echo payload")?,
            },
            ["pixel", app, taps @ ..] => {
                let app = parse_app(app)?;
                let arity = pixel_arity(app)
                    .ok_or_else(|| format!("`{}` has no pixel kernel", app.name()))?;
                if taps.len() != arity {
                    return Err(format!(
                        "pixel {} needs {arity} taps, got {}",
                        app.name(),
                        taps.len()
                    ));
                }
                let taps = taps
                    .iter()
                    .map(|t| parse_u64(t, "pixel tap"))
                    .collect::<Result<Vec<_>, _>>()?;
                JobKind::Pixel { app, taps }
            }
            ["mac", operands @ ..] if !operands.is_empty() && operands.len() % 2 == 0 => {
                let mut pairs = Vec::with_capacity(operands.len() / 2);
                for pair in operands.chunks_exact(2) {
                    pairs.push((
                        parse_u64(pair[0], "mac operand")?,
                        parse_u64(pair[1], "mac operand")?,
                    ));
                }
                JobKind::Mac { pairs }
            }
            _ => {
                return Err(format!(
                    "cannot parse request `{line}` (expected run|multiply|mac|pixel|compile|echo)"
                ))
            }
        };
        Ok(Request::new(kind).tenant(tenant).mode(mode))
    }
}

fn parse_app(name: &str) -> Result<App, String> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "dwt" => return Ok(App::DwtHaar1d),
        "quasir" => return Ok(App::QuasiRandom),
        _ => {}
    }
    App::all()
        .into_iter()
        .find(|app| app.name().eq_ignore_ascii_case(&lower))
        .ok_or_else(|| format!("unknown app `{name}`"))
}

/// The successful payload of a [`Response`].
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Result of a [`JobKind::Run`].
    Run(Box<RunReport>),
    /// Result of a [`JobKind::Multiply`].
    Multiply(MulReport),
    /// Result of a [`JobKind::Mac`]: per-pair reports plus the parallel
    /// batch cost.
    Mac {
        /// Per-pair multiply reports.
        reports: Vec<MulReport>,
        /// Cost of the whole dispatch on the configured block pairs.
        batch: ApimCost,
    },
    /// Result of a [`JobKind::Compile`]: the gate-executed program value
    /// and its verified microprogram size/cost.
    Compile {
        /// Value the microprogram left in the result row.
        value: u64,
        /// Measured crossbar cycles.
        cycles: u64,
        /// Micro-ops in the verified trace.
        micro_ops: usize,
    },
    /// Result of a [`JobKind::Pixel`]: the kernel value for this pixel
    /// plus how it was computed.
    Pixel {
        /// Value the kernel microprogram left for this pixel's lane.
        value: u64,
        /// Crossbar cycles charged to the pass that computed it (shared by
        /// every pixel of a lane-batched pass).
        cycles: u64,
        /// Lanes in the pass that answered this pixel: the pixels in that
        /// pass, `1` when it ran alone.
        lanes: usize,
    },
    /// Result of a [`JobKind::Echo`]: the payload, unchanged.
    Echo(u64),
}

impl JobOutput {
    /// A short one-line rendering (for the CLI's one-shot serve mode).
    pub fn summary(&self) -> String {
        match self {
            JobOutput::Run(report) => report.to_string(),
            JobOutput::Multiply(r) => format!("product {}", r.product),
            JobOutput::Mac { reports, batch } => {
                format!("mac x{} in {} cycles", reports.len(), batch.cycles.get())
            }
            JobOutput::Compile {
                value,
                cycles,
                micro_ops,
            } => {
                format!("compiled {micro_ops} micro-ops, value {value} in {cycles} cycles")
            }
            JobOutput::Pixel {
                value,
                cycles,
                lanes,
            } => {
                format!("pixel {value} in {cycles} cycles (x{lanes} lanes)")
            }
            JobOutput::Echo(payload) => format!("echo {payload}"),
        }
    }
}

/// Structured failure modes of the serving runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control rejected the request: the queue is at its
    /// configured depth.
    Overloaded {
        /// Queue depth at rejection time.
        depth: usize,
    },
    /// Admission control rejected the request: the tenant already holds
    /// its full quota of queue slots.
    QuotaExceeded {
        /// The offending tenant.
        tenant: TenantId,
    },
    /// The pool is draining and no longer accepts work.
    ShuttingDown,
    /// The request's deadline expired before an attempt could finish.
    DeadlineExceeded,
    /// Execution kept failing after the configured retries.
    Failed {
        /// Rendered underlying error.
        reason: String,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// The executing worker panicked on every attempt.
    WorkerPanicked,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "overloaded: queue at configured depth {depth}")
            }
            ServeError::QuotaExceeded { tenant } => {
                write!(f, "overloaded: {tenant} exceeded its queue quota")
            }
            ServeError::ShuttingDown => write!(f, "pool is shutting down"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Failed { reason, attempts } => {
                write!(f, "failed after {attempts} attempt(s): {reason}")
            }
            ServeError::WorkerPanicked => write!(f, "worker panicked executing the request"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The answer to one accepted request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Pool-assigned request id (submission order).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Execution attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// End-to-end latency, submission → response.
    pub latency: Duration,
    /// The outcome.
    pub result: Result<JobOutput, ServeError>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_line_roundtrips_the_grammar() {
        let r = Request::parse_line("@3 run sobel 256 --relax 8").unwrap();
        assert_eq!(r.tenant, TenantId(3));
        assert_eq!(
            r.kind,
            JobKind::Run {
                app: App::Sobel,
                dataset_bytes: 256 << 20
            }
        );
        assert_eq!(r.mode, PrecisionMode::LastStage { relax_bits: 8 });

        let r = Request::parse_line("multiply 12 34").unwrap();
        assert_eq!(r.kind, JobKind::Multiply { a: 12, b: 34 });
        assert_eq!(r.mode, PrecisionMode::Exact);
        assert_eq!(r.tenant, TenantId(0));

        let r = Request::parse_line("@5 echo 987654321").unwrap();
        assert_eq!(r.tenant, TenantId(5));
        assert_eq!(r.kind, JobKind::Echo { payload: 987654321 });
        assert_eq!(r.mode, PrecisionMode::Exact);

        let r = Request::parse_line("@7 pixel sharpen 10 20 30 40 50 --relax 4").unwrap();
        assert_eq!(r.tenant, TenantId(7));
        assert_eq!(
            r.kind,
            JobKind::Pixel {
                app: App::Sharpen,
                taps: vec![10, 20, 30, 40, 50]
            }
        );
        assert_eq!(r.mode, PrecisionMode::LastStage { relax_bits: 4 });

        let r = Request::parse_line("pixel sobel 1 2 3 4 5 6").unwrap();
        assert_eq!(
            r.kind,
            JobKind::Pixel {
                app: App::Sobel,
                taps: vec![1, 2, 3, 4, 5, 6]
            }
        );

        let r = Request::parse_line("mac 1 2 3 4 --mask 4").unwrap();
        assert_eq!(
            r.kind,
            JobKind::Mac {
                pairs: vec![(1, 2), (3, 4)]
            }
        );
        assert_eq!(r.mode, PrecisionMode::FirstStage { masked_bits: 4 });
    }

    #[test]
    fn parse_line_accepts_all_app_aliases() {
        for name in [
            "sobel",
            "Robert",
            "FFT",
            "dwt",
            "DwtHaar1D",
            "sharpen",
            "quasir",
        ] {
            assert!(
                Request::parse_line(&format!("run {name} 64")).is_ok(),
                "{name}"
            );
        }
    }

    #[test]
    fn parse_line_accepts_compile_programs() {
        let r = Request::parse_line("@2 compile width 16; in a; out a * 3 + 1").unwrap();
        assert_eq!(r.tenant, TenantId(2));
        match &r.kind {
            JobKind::Compile { source } => {
                assert!(source.contains('\n'), "`;` becomes newline: {source}");
            }
            other => panic!("expected compile, got {other:?}"),
        }

        let r = Request::parse_line("compile width 8; out 2 * 3").unwrap();
        assert_eq!(r.tenant, TenantId(0));

        assert!(Request::parse_line("compile").is_err(), "program mandatory");
        let err = Request::parse_line("compile width 16; out 1 +").unwrap_err();
        assert!(
            err.contains("invalid program: 2:"),
            "position survives: {err}"
        );
    }

    #[test]
    fn parse_line_rejects_malformed_requests() {
        for bad in [
            "run sobel",
            "run nosuchapp 64",
            "multiply 1",
            "mac 1 2 3",
            "mac",
            "@x multiply 1 2",
            "frobnicate 1 2",
            "multiply 1 2 --frob 3",
            "pixel sharpen 1 2 3 4",
            "pixel sobel 1 2 3 4 5 6 7",
            "pixel fft 1 2 3 4 5",
            "pixel sharpen 1 2 3 4 x",
        ] {
            assert!(Request::parse_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn batch_key_groups_by_app_and_mode() {
        let a = Request::parse_line("run fft 64 --relax 8").unwrap();
        let b = Request::parse_line("run fft 256 --relax 8").unwrap();
        let c = Request::parse_line("run fft 64 --relax 16").unwrap();
        let d = Request::parse_line("multiply 1 2 --relax 8").unwrap();
        assert_eq!(a.batch_key(), b.batch_key(), "size does not split batches");
        assert_ne!(a.batch_key(), c.batch_key(), "mode does");
        assert_ne!(a.batch_key(), d.batch_key(), "app does");

        let p = Request::parse_line("pixel sharpen 1 2 3 4 5").unwrap();
        let q = Request::parse_line("pixel sharpen 9 8 7 6 5").unwrap();
        let s = Request::parse_line("pixel sobel 1 2 3 4 5 6").unwrap();
        assert_eq!(p.batch_key(), q.batch_key(), "taps do not split batches");
        assert_ne!(p.batch_key(), s.batch_key(), "kernel does");
    }

    #[test]
    fn errors_render_user_facing_text() {
        assert!(ServeError::Overloaded { depth: 4 }
            .to_string()
            .contains("depth 4"));
        assert!(ServeError::QuotaExceeded {
            tenant: TenantId(2)
        }
        .to_string()
        .contains("tenant2"));
        assert!(ServeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
    }
}
