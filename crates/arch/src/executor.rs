//! The cost executor: traces and application profiles → time/energy.

use apim_baselines::AppProfile;
use apim_logic::{CostModel, OpCost, PrecisionMode};

use crate::config::{ApimConfig, ArchError};
use crate::isa::{Op, Trace};
use crate::memmap::{MemoryMap, TileGeometry};
use crate::report::ApimCost;
use crate::scheduler::{makespan_uniform, Schedule};

use apim_device::{Cycles, Joules};

/// Costs APIM executions with the analytic model (which is itself
/// validated cycle-exactly against the gate-level simulator — see
/// `apim-logic`).
#[derive(Debug, Clone)]
pub struct Executor {
    config: ApimConfig,
    cost: CostModel,
    memmap: MemoryMap,
}

impl Executor {
    /// Builds an executor for a device configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] if the configuration is
    /// invalid, and [`ArchError::VerificationFailed`] if
    /// [`ApimConfig::verify_microprograms`] is set and the static hazard
    /// analysis finds errors in the gate-level kernels at the configured
    /// operand width.
    pub fn new(config: ApimConfig) -> Result<Self, ArchError> {
        config.validate()?;
        if config.verify_microprograms {
            Self::verify_microprograms(config.operand_bits)?;
        }
        let cost = CostModel::new(&config.device);
        let memmap = MemoryMap::new(config.capacity_bytes, TileGeometry::paper())?;
        Ok(Executor {
            config,
            cost,
            memmap,
        })
    }

    /// Runs the static microprogram verifier over every shipped kernel at
    /// `operand_bits`, mapping error-severity findings into
    /// [`ArchError::VerificationFailed`].
    fn verify_microprograms(operand_bits: u32) -> Result<(), ArchError> {
        let runs = apim_verify::verify_all(&[operand_bits])
            .map_err(|e| ArchError::InvalidConfig(e.to_string()))?;
        let errors: usize = runs.iter().map(|r| r.report.error_count()).sum();
        if errors == 0 {
            return Ok(());
        }
        Err(ArchError::VerificationFailed {
            errors,
            detail: apim_verify::render(&runs),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &ApimConfig {
        &self.config
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The device's address map.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.memmap
    }

    fn op_cost(&self, op: &Op) -> OpCost {
        match *op {
            Op::Mul {
                bits,
                multiplier_ones,
                mode,
            } => match multiplier_ones {
                Some(ones) => self.cost.multiply_with_ones(bits, ones, mode),
                None => self.cost.multiply_expected(bits, mode),
            },
            Op::Add { bits } => self.cost.serial_add(bits),
            Op::SumReduce { operands, bits } => self.cost.sum_reduce(operands, bits, 0),
            Op::Mac { group, bits, mode } => {
                self.cost.mac_group(group, bits, (bits / 2).max(1), mode)
            }
            Op::Divide { bits } => {
                // Energy mirrors the cycle structure: n trial subtractions
                // (serial adds over 2n bits) plus commit copies.
                let trial = self.cost.serial_add(2 * bits);
                apim_logic::OpCost {
                    cycles: CostModel::divide_cycles(bits, bits / 2),
                    energy: trial.energy * f64::from(bits),
                }
            }
            Op::Sub { bits } => self.cost.serial_sub(bits),
            Op::MulTrunc {
                bits,
                multiplier_ones,
                mode,
            } => match multiplier_ones {
                Some(ones) => self.cost.multiply_trunc_with_ones(bits, ones, mode),
                None => self.cost.multiply_trunc_expected(bits, mode),
            },
            Op::Shift { bits, amount } => self.cost.shift_copy(bits, amount),
        }
    }

    /// Costs an explicit trace: independent ops are placed on the
    /// configured parallel units with an LPT greedy schedule (the real
    /// assignment the controller would make, not just the load-balance
    /// lower bound); energy is the sum over all ops.
    pub fn run_trace(&self, trace: &Trace) -> ApimCost {
        let costs: Vec<OpCost> = trace.ops().iter().map(|op| self.op_cost(op)).collect();
        let cycles_list: Vec<Cycles> = costs.iter().map(|c| c.cycles).collect();
        let span = Schedule::lpt(&cycles_list, self.config.parallel_units)
            .expect("config validated: parallel_units > 0")
            .makespan();
        let energy: Joules = costs.iter().map(|c| c.energy).sum();
        ApimCost {
            cycles: span,
            time: self.cost.timing().cycles_to_time(span),
            energy,
        }
    }

    /// The explicit LPT placement of a trace — for visualizing controller
    /// occupancy or verifying the makespan charged by
    /// [`Executor::run_trace`].
    pub fn schedule_trace(&self, trace: &Trace) -> Schedule {
        let cycles: Vec<Cycles> = trace
            .ops()
            .iter()
            .map(|op| self.op_cost(op).cycles)
            .collect();
        Schedule::lpt(&cycles, self.config.parallel_units)
            .expect("config validated: parallel_units > 0")
    }

    /// Costs a whole application over a resident dataset using its compute
    /// profile — the GB-scale path behind Figure 5 and Table 1.
    ///
    /// Multiplications use the random-data average density (§3.3); the
    /// device's configured [`PrecisionMode`] applies.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::DatasetTooLarge`] if the dataset exceeds the
    /// device capacity (APIM computes in place).
    pub fn run_profile(
        &self,
        profile: &AppProfile,
        dataset_bytes: u64,
    ) -> Result<ApimCost, ArchError> {
        self.run_profile_with_mode(profile, dataset_bytes, self.config.mode)
    }

    /// [`Executor::run_profile`] with an explicit precision mode (used by
    /// the Table 1 sweep without rebuilding executors).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::DatasetTooLarge`] if the dataset exceeds the
    /// device capacity.
    pub fn run_profile_with_mode(
        &self,
        profile: &AppProfile,
        dataset_bytes: u64,
        mode: PrecisionMode,
    ) -> Result<ApimCost, ArchError> {
        if dataset_bytes > self.config.capacity_bytes {
            return Err(ArchError::DatasetTooLarge {
                dataset_bytes,
                capacity_bytes: self.config.capacity_bytes,
            });
        }
        let bits = self.config.operand_bits;
        let muls = profile.mul_ops(dataset_bytes).round() as u64;
        let adds = profile.add_ops(dataset_bytes).round() as u64;
        // Only the tiles actually holding the dataset can compute on it.
        let units = self
            .memmap
            .effective_parallel_units(dataset_bytes, self.config.parallel_units);

        // Kernels execute C `int` (truncated) products, and APIM fuses each
        // output's `mac_group` products into one Wallace tree + one final
        // stage (§3.2). Accumulation adds ride inside the tree; one intra-
        // group add per product is therefore absorbed, and the remainder
        // run on the serial adder.
        let group = u64::from(profile.mac_group.max(1));
        let outputs = muls / group;
        let avg_ones = (bits - mode.masked_multiplier_bits().min(bits)) / 2;
        let group_cost = self
            .cost
            .mac_group(profile.mac_group.max(1), bits, avg_ones.max(1), mode);
        let absorbed_adds = muls.saturating_sub(outputs);
        let loose_adds = adds.saturating_sub(absorbed_adds);
        // Standalone additions use the same configurable final-stage adder
        // (§3.4 applies to any addition): exact mode degenerates to the
        // 12N + 1 serial adder.
        let add_cost = self
            .cost
            .final_add_width(bits, mode.relaxed_product_bits().min(bits));

        let mul_span = makespan_uniform(group_cost.cycles, outputs, units)?;
        let add_span = makespan_uniform(add_cost.cycles, loose_adds, units)?;
        let span = mul_span + add_span;
        let energy = group_cost.energy * outputs as f64 + add_cost.energy * loose_adds as f64;
        Ok(ApimCost {
            cycles: span,
            time: self.cost.timing().cycles_to_time(span),
            energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apim_logic::PrecisionMode;

    fn exec() -> Executor {
        Executor::new(ApimConfig::default()).unwrap()
    }

    fn exec_with_mode(mode: PrecisionMode) -> Executor {
        Executor::new(ApimConfig {
            mode,
            ..ApimConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn empty_trace_is_free() {
        let cost = exec().run_trace(&Trace::new());
        assert_eq!(cost.cycles, Cycles::ZERO);
        assert_eq!(cost.energy.as_joules(), 0.0);
    }

    #[test]
    fn trace_energy_adds_up_cycles_parallelize() {
        let e = exec();
        let mut one = Trace::new();
        one.push(Op::Add { bits: 32 });
        let single = e.run_trace(&one);

        let mut many = Trace::new();
        many.push_many(Op::Add { bits: 32 }, 1000);
        let bulk = e.run_trace(&many);
        assert!(
            (bulk.energy.as_joules() - 1000.0 * single.energy.as_joules()).abs()
                < 1e-9 * bulk.energy.as_joules()
        );
        // 1000 jobs over 7680 units: bounded by one job's latency.
        assert_eq!(bulk.cycles, single.cycles);
    }

    #[test]
    fn profile_scales_linearly_with_dataset() {
        let e = exec();
        let p = AppProfile::sobel();
        let small = e.run_profile(&p, 32 << 20).unwrap();
        let large = e.run_profile(&p, 256 << 20).unwrap();
        let t_ratio = large.time / small.time;
        assert!((t_ratio - 8.0).abs() < 0.2, "time ratio {t_ratio}");
        let e_ratio = large.energy / small.energy;
        assert!((e_ratio - 8.0).abs() < 0.2, "energy ratio {e_ratio}");
    }

    #[test]
    fn verification_mode_accepts_the_shipped_kernels() {
        let e = Executor::new(ApimConfig {
            verify_microprograms: true,
            operand_bits: 8,
            ..ApimConfig::default()
        })
        .unwrap();
        assert!(e.config().verify_microprograms);
    }

    #[test]
    fn dataset_must_fit() {
        let e = exec();
        let err = e.run_profile(&AppProfile::fft(), 64 << 30).unwrap_err();
        assert!(matches!(err, ArchError::DatasetTooLarge { .. }));
    }

    #[test]
    fn approximation_cuts_cost() {
        let p = AppProfile::fft();
        let exact = exec_with_mode(PrecisionMode::Exact)
            .run_profile(&p, 128 << 20)
            .unwrap();
        let approx = exec_with_mode(PrecisionMode::LastStage { relax_bits: 32 })
            .run_profile(&p, 128 << 20)
            .unwrap();
        assert!(approx.time.as_secs() < exact.time.as_secs());
        assert!(approx.energy.as_joules() < exact.energy.as_joules());
        assert!(approx.edp().as_joule_seconds() < exact.edp().as_joule_seconds());
    }

    #[test]
    fn more_units_speed_up_but_do_not_save_energy() {
        let p = AppProfile::sharpen();
        let small = Executor::new(ApimConfig {
            parallel_units: 1024,
            ..ApimConfig::default()
        })
        .unwrap()
        .run_profile(&p, 64 << 20)
        .unwrap();
        let big = Executor::new(ApimConfig {
            parallel_units: 8192,
            ..ApimConfig::default()
        })
        .unwrap()
        .run_profile(&p, 64 << 20)
        .unwrap();
        assert!(big.time.as_secs() < small.time.as_secs());
        assert!((big.energy.as_joules() - small.energy.as_joules()).abs() < 1e-12);
    }

    #[test]
    fn explicit_ones_cheaper_when_sparse() {
        let e = exec();
        let mut sparse = Trace::new();
        sparse.push(Op::Mul {
            bits: 32,
            multiplier_ones: Some(2),
            mode: PrecisionMode::Exact,
        });
        let mut dense = Trace::new();
        dense.push(Op::Mul {
            bits: 32,
            multiplier_ones: Some(32),
            mode: PrecisionMode::Exact,
        });
        assert!(e.run_trace(&sparse).cycles < e.run_trace(&dense).cycles);
    }

    #[test]
    fn sum_reduce_op_costed() {
        let e = exec();
        let mut t = Trace::new();
        t.push(Op::SumReduce {
            operands: 9,
            bits: 16,
        });
        let c = e.run_trace(&t);
        assert!(c.cycles.get() > 0);
    }

    #[test]
    fn mac_and_divide_ops_costed() {
        let e = exec();
        let mut t = Trace::new();
        t.push(Op::Mac {
            group: 12,
            bits: 32,
            mode: PrecisionMode::Exact,
        });
        let mac = e.run_trace(&t);
        let mut t = Trace::new();
        t.push(Op::Divide { bits: 32 });
        let div = e.run_trace(&t);
        assert!(mac.cycles.get() > 0);
        // Division dwarfs a fused MAC — the extension's design lesson.
        assert!(div.cycles.get() > 2 * mac.cycles.get());
    }
}
