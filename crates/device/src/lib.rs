//! Device-level models for the APIM simulator.
//!
//! This crate is the foundation of the APIM (DAC'17) reproduction. It
//! provides:
//!
//! * strongly-typed physical quantities ([`Cycles`], [`Seconds`], [`Joules`],
//!   [`EnergyDelayProduct`]) used by every layer above,
//! * the published device parameters of the paper's experimental setup
//!   ([`DeviceParams`]: VTEAM memristor with `RON = 10 kΩ`,
//!   `ROFF = 10 MΩ`, a 1.1 ns MAGIC NOR cycle, 0.3 ns reads and a 0.6 ns
//!   sense-amplifier majority evaluation),
//! * a numerical integration of the VTEAM memristor model
//!   ([`vteam::VteamModel`]) used to derive switching times and per-operation
//!   energies from first principles, and
//! * the derived per-operation [`energy::EnergyModel`] and
//!   [`timing::TimingModel`], bundled with their parameters as a [`Device`]
//!   — built once, then handed to the crossbar simulator and the analytic
//!   cost model, and
//! * the sense-amplifier read-margin analysis ([`sense::SenseAnalysis`])
//!   quantifying why the paper's 10 kΩ/10 MΩ device reads (and computes
//!   MAJ) reliably.
//!
//! # Example
//!
//! ```
//! use apim_device::{Device, DeviceParams};
//!
//! // Validates the parameters and integrates the VTEAM model, once.
//! let device = Device::new(DeviceParams::default()).expect("valid");
//! let (timing, energy) = (device.timing(), device.energy());
//!
//! // One MAGIC NOR over a 32-cell row costs one 1.1 ns cycle.
//! let t = timing.cycle_time() * 1.0;
//! assert!((t.as_nanos() - 1.1).abs() < 1e-9);
//! // and a deterministic, strictly positive amount of energy.
//! assert!(energy.nor_op(32).as_joules() > 0.0);
//! ```

#![deny(missing_docs)]

mod device;
mod params;
mod units;

pub mod energy;
pub mod sense;
pub mod timing;
pub mod vteam;

pub use device::Device;
pub use energy::EnergyModel;
pub use params::DeviceParams;
pub use timing::TimingModel;
pub use units::{Cycles, EnergyDelayProduct, Joules, Seconds};
