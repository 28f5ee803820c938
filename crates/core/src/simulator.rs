//! The high-level APIM simulator facade.

use apim_arch::{
    AdaptiveController, ApimConfig, ApimCost, ArchError, Comparison, Executor, TuneOutcome,
};
use apim_baselines::{CostReport, GpuModel, GpuParams};
use apim_crossbar::{CrossbarError, HotSpot};
use apim_logic::error_analysis::SplitMix64;
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::{functional, CostModel, PrecisionMode};
use apim_workloads::{run_app, App, QualityReport, RunConfig};

use apim_device::EnergyDelayProduct;

use std::error::Error;
use std::fmt;

/// Top-level error type of the facade.
#[derive(Debug, Clone, PartialEq)]
pub enum ApimError {
    /// An architecture-layer error (configuration, capacity).
    Arch(ArchError),
    /// A crossbar-layer error (gate-level simulation).
    Crossbar(CrossbarError),
    /// An execution runtime (e.g. the `apim-serve` pool) reported a
    /// failure it could not recover by retrying.
    Runtime(String),
}

impl fmt::Display for ApimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApimError::Arch(e) => write!(f, "{e}"),
            ApimError::Crossbar(e) => write!(f, "{e}"),
            ApimError::Runtime(msg) => write!(f, "runtime failure: {msg}"),
        }
    }
}

impl Error for ApimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ApimError::Arch(e) => Some(e),
            ApimError::Crossbar(e) => Some(e),
            ApimError::Runtime(_) => None,
        }
    }
}

impl From<ArchError> for ApimError {
    fn from(e: ArchError) -> Self {
        ApimError::Arch(e)
    }
}

impl From<CrossbarError> for ApimError {
    fn from(e: CrossbarError) -> Self {
        ApimError::Crossbar(e)
    }
}

/// Verdict of a gate-level self-test ([`Apim::self_test`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTestReport {
    /// Multiplications executed.
    pub samples: u32,
    /// Results that disagreed with the functional reference (0 = healthy).
    pub mismatches: u32,
    /// Wear absorbed by the hottest cell during the test.
    pub max_cell_writes: u64,
    /// The most-written cells, hottest first, so endurance pressure can be
    /// localised to concrete wordlines rather than just flagged.
    pub hotspots: Vec<HotSpot>,
}

impl SelfTestReport {
    /// Whether the device passed (no mismatches).
    pub fn passed(&self) -> bool {
        self.mismatches == 0
    }
}

/// Result of one multiplication on APIM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulReport {
    /// The (possibly approximate) product, bit-exact in-memory semantics.
    pub product: u128,
    /// Modeled cost of the multiplication.
    pub cost: apim_logic::OpCost,
    /// Energy-delay product.
    pub edp: EnergyDelayProduct,
}

/// Result of one application run compared against the GPU baseline.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The application.
    pub app: App,
    /// Dataset size, bytes.
    pub dataset_bytes: u64,
    /// Precision mode used.
    pub mode: PrecisionMode,
    /// APIM cost.
    pub apim: ApimCost,
    /// GPU baseline cost.
    pub gpu: CostReport,
    /// APIM-vs-GPU ratios (the paper's "improvement ×" numbers).
    pub comparison: Comparison,
    /// Output quality vs the golden (exact) run.
    pub quality: QualityReport,
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>7} MB [{}]: {} | QoL {:.2}%",
            self.app.name(),
            self.dataset_bytes >> 20,
            self.mode,
            self.comparison,
            self.quality.qol_percent
        )
    }
}

/// The APIM system simulator: device + executor + baseline in one handle.
///
/// See the [crate docs](crate) for a quickstart.
#[derive(Debug, Clone)]
pub struct Apim {
    executor: Executor,
    gpu: GpuModel,
}

impl Apim {
    /// Builds a simulator for the given device configuration with the
    /// calibrated GPU baseline.
    ///
    /// # Errors
    ///
    /// Returns [`ApimError::Arch`] for invalid configurations.
    pub fn new(config: ApimConfig) -> Result<Self, ApimError> {
        Ok(Apim {
            executor: Executor::new(config)?,
            gpu: GpuModel::new(GpuParams::r9_390()),
        })
    }

    /// Replaces the GPU baseline parameters.
    pub fn with_gpu(mut self, gpu: GpuModel) -> Self {
        self.gpu = gpu;
        self
    }

    /// The device configuration.
    pub fn config(&self) -> &ApimConfig {
        self.executor.config()
    }

    /// The cost executor.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The GPU baseline model.
    pub fn gpu(&self) -> &GpuModel {
        &self.gpu
    }

    /// The analytic cost model.
    pub fn cost_model(&self) -> &CostModel {
        self.executor.cost_model()
    }

    /// Multiplies two values with bit-exact APIM semantics under `mode`,
    /// reporting the modeled cost of the in-memory execution.
    ///
    /// Operand width comes from the configuration (32 bits by default).
    pub fn multiply(&self, a: u64, b: u64, mode: PrecisionMode) -> MulReport {
        let n = self.config().operand_bits;
        let product = functional::multiply(a, b, n, mode);
        let cost = self.cost_model().multiply(n, b, mode);
        MulReport {
            product,
            cost,
            edp: self.cost_model().edp(cost),
        }
    }

    /// Runs an application over a resident dataset under the configured
    /// precision mode; costs come from the analytic executor, quality from
    /// an actual (sampled) kernel execution with bit-exact approximate
    /// arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`ApimError::Arch`] if the dataset exceeds device capacity.
    pub fn run(&self, app: App, dataset_bytes: u64) -> Result<RunReport, ApimError> {
        self.run_with_mode(app, dataset_bytes, self.config().mode)
    }

    /// [`Apim::run`] with an explicit precision mode.
    ///
    /// # Errors
    ///
    /// Returns [`ApimError::Arch`] if the dataset exceeds device capacity.
    pub fn run_with_mode(
        &self,
        app: App,
        dataset_bytes: u64,
        mode: PrecisionMode,
    ) -> Result<RunReport, ApimError> {
        let profile = crate::profile_of(app);
        let apim = self
            .executor
            .run_profile_with_mode(&profile, dataset_bytes, mode)?;
        let gpu = self.gpu.run(&profile, dataset_bytes);
        let comparison = Comparison::against(&apim, gpu.time, gpu.energy);
        let quality = run_app(
            app,
            &RunConfig {
                mode,
                ..RunConfig::default()
            },
        )
        .quality;
        Ok(RunReport {
            app,
            dataset_bytes,
            mode,
            apim,
            gpu,
            comparison,
            quality,
        })
    }

    /// Multiplies a batch of independent pairs, returning the per-pair
    /// reports plus the batch's parallel cost (pairs schedule across the
    /// configured processing-block pairs; energy sums, latency is the
    /// parallel makespan).
    pub fn multiply_batch(
        &self,
        pairs: &[(u64, u64)],
        mode: PrecisionMode,
    ) -> (Vec<MulReport>, ApimCost) {
        let reports: Vec<MulReport> = pairs
            .iter()
            .map(|&(a, b)| self.multiply(a, b, mode))
            .collect();
        let n = self.config().operand_bits;
        let mut trace = apim_arch::Trace::new();
        for &(_, b) in pairs {
            trace.push(apim_arch::Op::Mul {
                bits: n,
                multiplier_ones: Some(
                    functional::partial_product_shifts(b, mode.masked_multiplier_bits()).len()
                        as u32,
                ),
                mode,
            });
        }
        let cost = self.executor.run_trace(&trace);
        (reports, cost)
    }

    /// Runs a gate-level self-test: `samples` random multiplications are
    /// executed on a simulated crossbar (16-bit operands, the configured
    /// device parameters) across precision modes and checked bit-for-bit
    /// against the functional reference. A healthy device reports zero
    /// mismatches; injected faults (or corrupted device parameters) show up
    /// here — the production health check for a PIM DIMM.
    ///
    /// # Errors
    ///
    /// Propagates crossbar construction/execution failures (which are
    /// themselves a self-test verdict: e.g. a stuck-at-0 output cell
    /// surfaces as `UninitializedOutput`).
    pub fn self_test(&self, samples: u32, seed: u64) -> Result<SelfTestReport, ApimError> {
        let mut mul = CrossbarMultiplier::new(16, &self.config().device)?;
        let mut rng = SplitMix64::new(seed);
        let mut mismatches = 0;
        for i in 0..samples {
            let a = rng.next_bits(16);
            let b = rng.next_bits(16);
            let mode = match i % 3 {
                0 => PrecisionMode::Exact,
                1 => PrecisionMode::LastStage {
                    relax_bits: (rng.next_bits(5) as u8).min(31),
                },
                _ => PrecisionMode::FirstStage {
                    masked_bits: (rng.next_bits(4) as u8).min(15),
                },
            };
            let run = mul.multiply(a, b, mode)?;
            if run.product != functional::multiply(a, b, 16, mode) {
                mismatches += 1;
            }
        }
        Ok(SelfTestReport {
            samples,
            mismatches,
            max_cell_writes: mul.crossbar().max_cell_writes(),
            hotspots: mul.crossbar().hotspots(3),
        })
    }

    /// Runs the paper's adaptive QoS loop (§4.1) for an application:
    /// starting at 32 relax bits and stepping accuracy up by 4 bits until
    /// the application's acceptance criterion holds on a sampled run.
    pub fn tune(&self, app: App) -> TuneOutcome {
        AdaptiveController::paper().tune(|mode| {
            run_app(
                app,
                &RunConfig {
                    mode,
                    ..RunConfig::default()
                },
            )
            .quality
            .acceptable
        })
    }
}

impl Default for Apim {
    fn default() -> Self {
        Apim::new(ApimConfig::default()).expect("default config is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apim() -> Apim {
        Apim::default()
    }

    #[test]
    fn multiply_exact_matches_native() {
        let r = apim().multiply(123_456_789, 987_654_321, PrecisionMode::Exact);
        assert_eq!(r.product, 123_456_789u128 * 987_654_321);
        assert!(r.cost.cycles.get() > 0);
        assert!(r.edp.as_joule_seconds() > 0.0);
    }

    #[test]
    fn multiply_relaxed_bounds_error() {
        let r = apim().multiply(
            3_000_000_000,
            2_500_000_000,
            PrecisionMode::LastStage { relax_bits: 16 },
        );
        let exact = 3_000_000_000u128 * 2_500_000_000;
        assert!(r.product.abs_diff(exact) < 1 << 16);
    }

    #[test]
    fn run_reports_are_complete() {
        let report = apim().run(App::Robert, 128 << 20).unwrap();
        assert_eq!(report.app, App::Robert);
        assert!(report.apim.time.as_secs() > 0.0);
        assert!(report.gpu.time.as_secs() > 0.0);
        assert!(report.quality.acceptable, "exact mode is lossless");
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn oversized_dataset_errors() {
        let err = apim().run(App::Fft, 1 << 40).unwrap_err();
        assert!(matches!(
            err,
            ApimError::Arch(ArchError::DatasetTooLarge { .. })
        ));
    }

    #[test]
    fn tuning_finds_nontrivial_relaxation() {
        for app in [App::Sobel, App::DwtHaar1d] {
            let outcome = apim().tune(app);
            assert!(
                outcome.mode.relaxed_product_bits() >= 4,
                "{app}: every app tolerates some relaxation, got {:?}",
                outcome
            );
        }
    }

    #[test]
    fn batch_multiply_parallelizes() {
        let apim = apim();
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (1000 + i, 2000 + i)).collect();
        let (reports, cost) = apim.multiply_batch(&pairs, PrecisionMode::Exact);
        assert_eq!(reports.len(), 100);
        for (r, &(a, b)) in reports.iter().zip(&pairs) {
            assert_eq!(r.product, u128::from(a) * u128::from(b));
        }
        // 100 independent multiplies over 2048 units: latency is bounded by
        // the slowest single multiply, while energy sums.
        let max_single = reports.iter().map(|r| r.cost.cycles).max().unwrap();
        assert_eq!(cost.cycles, max_single);
        let sum_energy: f64 = reports.iter().map(|r| r.cost.energy.as_joules()).sum();
        assert!((cost.energy.as_joules() - sum_energy).abs() < 1e-9 * sum_energy);
    }

    #[test]
    fn self_test_passes_on_a_healthy_device() {
        let report = apim().self_test(12, 0xBEEF).unwrap();
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.samples, 12);
        assert!(report.max_cell_writes > 0);
        // The top hotspot is by definition the hottest cell.
        assert_eq!(report.hotspots.len(), 3);
        assert_eq!(report.hotspots[0].writes, report.max_cell_writes);
        assert!(report.hotspots[0].writes >= report.hotspots[2].writes);
    }

    #[test]
    fn error_type_converts() {
        let arch_err: ApimError = ArchError::InvalidConfig("x".into()).into();
        assert!(arch_err.to_string().contains("x"));
        let xbar_err: ApimError = CrossbarError::InputsSpanBlocks.into();
        assert!(xbar_err.source().is_some());
    }
}
