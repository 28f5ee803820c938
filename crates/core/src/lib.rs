//! # APIM — Approximate Processing In-Memory
//!
//! A full reproduction of *"Ultra-Efficient Processing In-Memory for Data
//! Intensive Applications"* (Imani, Gupta, Rosing — DAC 2017): a
//! configurable approximate processing-in-memory architecture that executes
//! addition and multiplication inside an RRAM crossbar using MAGIC NOR,
//! with runtime-tunable accuracy.
//!
//! This crate is the high-level facade; the layers underneath are usable
//! on their own:
//!
//! | crate | contents |
//! |---|---|
//! | [`apim_device`] | VTEAM memristor model, timing/energy constants |
//! | [`apim_crossbar`] | bit-accurate blocked-crossbar simulator |
//! | [`apim_logic`] | in-memory adders/multiplier + analytic cost model |
//! | [`apim_arch`] | executor, parallel scheduling, adaptive QoS |
//! | [`apim_baselines`] | GPU / \[24\] / \[25\] comparison models |
//! | [`apim_workloads`] | the six evaluation kernels + quality metrics |
//!
//! # Quickstart
//!
//! ```
//! use apim::{Apim, App};
//! use apim::PrecisionMode;
//!
//! # fn main() -> Result<(), apim::ApimError> {
//! // An APIM device in the paper's configuration.
//! let apim = Apim::new(apim::ApimConfig::default())?;
//!
//! // One approximate 32x32-bit multiplication, bit-exact semantics:
//! let report = apim.multiply(1_000_003, 2_000_029,
//!                            PrecisionMode::LastStage { relax_bits: 8 });
//! assert_eq!(report.product >> 8, (1_000_003u128 * 2_000_029) >> 8);
//!
//! // A whole application over a resident 256 MB dataset, compared to the
//! // GPU baseline:
//! let run = apim.run(App::Sobel, 256 << 20)?;
//! assert!(run.comparison.speedup > 1.0, "APIM wins beyond ~200 MB");
//! assert!(run.quality.acceptable);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod simulator;

pub mod campaign;
pub mod tracing;

pub use simulator::{Apim, ApimError, MulReport, RunReport, SelfTestReport};

pub use apim_arch::{
    AdaptiveController, ApimConfig, ApimConfigBuilder, ApimCost, ArchError, Comparison, Executor,
    PrecisionMode, TuneOutcome,
};
pub use apim_baselines::{AppProfile, CostReport, GpuModel, GpuParams};
pub use apim_crossbar::HotSpot;
pub use apim_device::{Cycles, Device, DeviceParams, EnergyDelayProduct, Joules, Seconds};
pub use apim_workloads::{App, QualityReport, RunConfig};

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::campaign::{Campaign, CampaignExecutor};
    pub use crate::{
        AdaptiveController, Apim, ApimConfig, App, AppProfile, Comparison, GpuModel, PrecisionMode,
        RunReport,
    };
}

/// Maps an application to its compute/traffic profile.
pub fn profile_of(app: App) -> AppProfile {
    match app {
        App::Sobel => AppProfile::sobel(),
        App::Robert => AppProfile::robert(),
        App::Fft => AppProfile::fft(),
        App::DwtHaar1d => AppProfile::dwt_haar1d(),
        App::Sharpen => AppProfile::sharpen(),
        App::QuasiRandom => AppProfile::quasi_random(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_all_apps() {
        for app in App::all() {
            assert_eq!(profile_of(app).name, app.name());
        }
    }
}
