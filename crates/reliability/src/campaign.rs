//! Deterministic fault-injection campaigns over the kernel suite.
//!
//! A campaign models the APIM storage/compute split: operands live in an
//! ECC-protected **storage** crossbar whose cells degrade (seeded stuck-at
//! faults from a [`FaultPlan`]), while kernels execute on a separate,
//! healthy **compute** fabric — faults corrupt *data at rest*, and the
//! question is whether the reliability layer stops that corruption from
//! reaching results.
//!
//! Per trial the runner stores fresh operands, encodes the SEC-DED check
//! rows in-crossbar, injects the plan's faults into the coded group, reads
//! the operands back — through [`EccGroup::decode`] when ECC is on, through
//! the raw (faulty) overlay when it is off — and runs the kernel on what it
//! read. Results are folded into an order-sensitive digest and compared
//! against a fault-free golden run of the same kernel:
//!
//! * **ECC on**: at single-error densities the digests must match bit for
//!   bit, and the report prices the protection (encode+decode cycles and
//!   energy from the storage fabric's own accounting).
//! * **ECC off**: corrupted operands flow straight into the kernels; the
//!   report quantifies the damage (relative error, PSNR for images)
//!   instead of hiding it.

use std::fmt;

use apim_compile::{compile, CompileOptions, CompiledProgram};
use apim_crossbar::{BlockedCrossbar, CrossbarConfig, CrossbarError, Result, RowAllocator, Stats};
use apim_device::{Device, Joules};
use apim_logic::adder_serial::{add_words, SerialScratch};
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::{spec, PrecisionMode};
use apim_workloads::dags::{sharpen_dag, sharpen_via_dag};
use apim_workloads::image::{synthetic_image, Image};
use apim_workloads::quality::{image_quality_sized, mean_relative_error, psnr_u8};

use crate::ecc::{EccGroup, DATA_ROWS};
use crate::faults::FaultPlan;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Seed for operand generation and the fault plan.
    pub seed: u64,
    /// Stuck-at fault density over the storage region.
    pub density: f64,
    /// Whether reads go through SEC-DED decode.
    pub ecc: bool,
    /// Trials per word-oriented kernel (adder, multiplier).
    pub trials: usize,
    /// Side length of the synthetic image for the sharpen DAG.
    pub image_dim: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 7,
            density: 1e-4,
            ecc: true,
            trials: 4,
            image_dim: 8,
        }
    }
}

/// Outcome of one kernel's sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutcome {
    /// Kernel name (`adder`, `multiplier`, `sharpen`).
    pub kernel: &'static str,
    /// Stuck-at faults injected into this kernel's storage groups.
    pub faults_injected: usize,
    /// Columns the decoder corrected (0 when ECC is off).
    pub corrected: usize,
    /// Columns the decoder flagged uncorrectable (0 when ECC is off).
    pub uncorrectable: usize,
    /// Order-sensitive FNV-1a digest of every result this kernel produced.
    pub digest: u64,
    /// Digest of the fault-free golden run.
    pub golden_digest: u64,
    /// Mean relative error of results against golden.
    pub mean_rel_err: f64,
    /// PSNR against the golden image (sharpen only).
    pub psnr_db: Option<f64>,
    /// Cycles the storage fabric charged for encode/decode.
    pub ecc_cycles: u64,
    /// Energy the storage fabric charged for encode/decode.
    pub ecc_energy: Joules,
}

impl KernelOutcome {
    /// Whether the kernel's results matched the fault-free run exactly.
    pub fn bit_exact(&self) -> bool {
        self.digest == self.golden_digest
    }
}

/// Full campaign verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The configuration swept.
    pub config: CampaignConfig,
    /// One outcome per kernel.
    pub kernels: Vec<KernelOutcome>,
}

impl CampaignReport {
    /// Whether every kernel reproduced its fault-free digest.
    pub fn all_bit_exact(&self) -> bool {
        self.kernels.iter().all(KernelOutcome::bit_exact)
    }

    /// Total faults injected across all kernels.
    pub fn faults_injected(&self) -> usize {
        self.kernels.iter().map(|k| k.faults_injected).sum()
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault campaign: seed {}, density {:.1e}, ecc {}",
            self.config.seed,
            self.config.density,
            if self.config.ecc { "on" } else { "off" }
        )?;
        for k in &self.kernels {
            write!(
                f,
                "  {:<10} faults {:>4}  corrected {:>3}  uncorrectable {:>2}  {}  rel_err {:.4}",
                k.kernel,
                k.faults_injected,
                k.corrected,
                k.uncorrectable,
                if k.bit_exact() {
                    "bit-exact"
                } else {
                    "DIVERGED "
                },
                k.mean_rel_err,
            )?;
            if let Some(psnr) = k.psnr_db {
                write!(f, "  psnr {psnr:.1} dB")?;
            }
            if k.ecc_cycles > 0 {
                write!(f, "  ecc {} cycles / {}", k.ecc_cycles, k.ecc_energy)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Order-sensitive FNV-1a fold.
fn fnv1a(digest: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// SplitMix64 operand stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one degraded-storage round-trip observed.
struct StorageReadback {
    words: Vec<u64>,
    faults: usize,
    corrected: usize,
    uncorrectable: usize,
    stats: Stats,
}

/// Stores up to [`DATA_ROWS`] words of `width` bits in a fresh ECC group,
/// encodes (when `ecc`), injects `plan`'s faults into the storage rows,
/// and reads the words back — decoded when `ecc`, raw otherwise.
///
/// Every call uses a fresh storage crossbar: trials are independent
/// storage regions, not survivors of each other's faults. With ECC off no
/// check rows exist, so the fault surface shrinks to the data rows and the
/// storage fabric charges zero compute cycles — the overhead comparison
/// between the two modes is exactly encode + decode.
fn store_and_read(
    words: &[u64],
    width: usize,
    plan: &FaultPlan,
    ecc: bool,
) -> Result<StorageReadback> {
    debug_assert!(words.len() <= DATA_ROWS && width <= 64);
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let blk = xbar.block(0)?;
    let mut alloc = RowAllocator::new(xbar.rows());
    let group = EccGroup::alloc(blk, &mut alloc)?;
    for (j, &w) in words.iter().enumerate() {
        xbar.preload_u64(blk, group.data[j], 0, width, w)?;
    }
    let (mut corrected, mut uncorrectable) = (0, 0);
    let mut out = Vec::with_capacity(words.len());
    let injected;
    if ecc {
        group.encode(&mut xbar, 0..width, &mut alloc)?;
        injected = plan.inject_rows(&mut xbar, 0, &group.rows())?;
        let dst: [usize; DATA_ROWS] = alloc.alloc_many(DATA_ROWS)?.try_into().expect("eight rows");
        let report = group.decode(&mut xbar, &dst, 0..width, &mut alloc)?;
        corrected = report.corrected.len();
        uncorrectable = report.uncorrectable.len();
        for &row in dst.iter().take(words.len()) {
            out.push(xbar.peek_u64(blk, row, 0, width)?);
        }
    } else {
        injected = plan.inject_rows(&mut xbar, 0, &group.data)?;
        for &row in group.data.iter().take(words.len()) {
            out.push(xbar.peek_u64(blk, row, 0, width)?);
        }
    }
    Ok(StorageReadback {
        words: out,
        faults: injected.len(),
        corrected,
        uncorrectable,
        stats: *xbar.stats(),
    })
}

/// Runs the full campaign: adder, multiplier and the compiled sharpen DAG.
///
/// # Errors
///
/// Propagates crossbar and compile errors; the campaign itself never fails
/// on digest mismatches — it *reports* them, and callers gate.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignReport> {
    let kernels = vec![
        run_adder(config)?,
        run_multiplier(config)?,
        run_sharpen(config)?,
    ];
    Ok(CampaignReport {
        config: *config,
        kernels,
    })
}

/// Per-trial seeds decorrelate the fault fields of independent storage
/// regions while staying a pure function of the campaign seed.
fn trial_plan(config: &CampaignConfig, kernel: u64, trial: usize) -> FaultPlan {
    FaultPlan::new(
        config
            .seed
            .wrapping_add(kernel.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((trial as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)),
        config.density,
    )
}

fn run_adder(config: &CampaignConfig) -> Result<KernelOutcome> {
    const WIDTH: usize = 32;
    let mut gen = Gen(config.seed);
    let mut outcome = blank_outcome("adder");
    let mut golden_results = Vec::new();
    let mut results = Vec::new();
    for trial in 0..config.trials {
        let words: Vec<u64> = (0..DATA_ROWS)
            .map(|_| gen.next() & spec::mask(WIDTH))
            .collect();
        let readback = store_and_read(&words, WIDTH, &trial_plan(config, 1, trial), config.ecc)?;
        absorb(&mut outcome, &readback);
        for pair in 0..DATA_ROWS / 2 {
            golden_results.push(compute_sum(words[2 * pair], words[2 * pair + 1], WIDTH)? as i64);
            results.push(compute_sum(
                readback.words[2 * pair],
                readback.words[2 * pair + 1],
                WIDTH,
            )? as i64);
        }
    }
    finish_numeric(&mut outcome, &golden_results, &results);
    Ok(outcome)
}

/// One in-crossbar 32-bit addition on a healthy compute fabric.
fn compute_sum(x: u64, y: u64, width: usize) -> Result<u64> {
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let blk = xbar.block(1)?;
    let mut alloc = RowAllocator::new(xbar.rows());
    let rows = alloc.alloc_many(3)?;
    let scratch = SerialScratch::alloc(&mut alloc)?;
    xbar.preload_u64(blk, rows[0], 0, width, x)?;
    xbar.preload_u64(blk, rows[1], 0, width, y)?;
    add_words(
        &mut xbar,
        blk,
        rows[0],
        rows[1],
        rows[2],
        0..width,
        &scratch,
    )?;
    xbar.peek_u64(blk, rows[2], 0, width)
}

fn run_multiplier(config: &CampaignConfig) -> Result<KernelOutcome> {
    const WIDTH: usize = 16;
    let mut gen = Gen(config.seed ^ 0x6D1F);
    let mut outcome = blank_outcome("multiplier");
    let mut golden_results = Vec::new();
    let mut results = Vec::new();
    let device = Device::default();
    for trial in 0..config.trials {
        let words: Vec<u64> = (0..DATA_ROWS)
            .map(|_| gen.next() & spec::mask(WIDTH))
            .collect();
        let readback = store_and_read(&words, WIDTH, &trial_plan(config, 2, trial), config.ecc)?;
        absorb(&mut outcome, &readback);
        for pair in 0..DATA_ROWS / 2 {
            let mut mul = CrossbarMultiplier::new(WIDTH as u32, &device)?;
            let golden = mul
                .multiply(words[2 * pair], words[2 * pair + 1], PrecisionMode::Exact)?
                .product;
            let mut mul = CrossbarMultiplier::new(WIDTH as u32, &device)?;
            let got = mul
                .multiply(
                    readback.words[2 * pair],
                    readback.words[2 * pair + 1],
                    PrecisionMode::Exact,
                )?
                .product;
            golden_results.push(golden as i64);
            results.push(got as i64);
        }
    }
    finish_numeric(&mut outcome, &golden_results, &results);
    Ok(outcome)
}

fn run_sharpen(config: &CampaignConfig) -> Result<KernelOutcome> {
    let dim = config.image_dim.max(4);
    let image = synthetic_image(dim, dim, config.seed);
    let bytes = image.to_u8();
    let mut outcome = blank_outcome("sharpen");

    // Bit-plane storage: within each chunk of ≤ 64 bytes, data row `r` of
    // the ECC group holds bit `r` of every byte, one byte per bitline — so
    // each column is one pixel plus its SEC-DED check bits.
    let mut recovered = Vec::with_capacity(bytes.len());
    for (chunk_idx, chunk) in bytes.chunks(64).enumerate() {
        let mut planes = [0u64; DATA_ROWS];
        for (j, &byte) in chunk.iter().enumerate() {
            for (r, plane) in planes.iter_mut().enumerate() {
                *plane |= u64::from(byte >> r & 1) << j;
            }
        }
        let readback = store_and_read(
            &planes,
            chunk.len(),
            &trial_plan(config, 3, chunk_idx),
            config.ecc,
        )?;
        absorb(&mut outcome, &readback);
        for j in 0..chunk.len() {
            let mut byte = 0u8;
            for (r, &plane) in readback.words.iter().enumerate() {
                byte |= ((plane >> j & 1) as u8) << r;
            }
            recovered.push(byte);
        }
    }

    let program = compile(&sharpen_dag(), &CompileOptions::default())
        .map_err(|e| CrossbarError::InvalidConfig(format!("sharpen DAG failed: {e}")))?;
    let golden_out = sharpen(&program, &Image::from_u8(dim, dim, &bytes))?;
    let trial_out = sharpen(&program, &Image::from_u8(dim, dim, &recovered))?;
    let mut golden_digest = FNV_OFFSET;
    let mut digest = FNV_OFFSET;
    for &b in &golden_out {
        fnv1a(&mut golden_digest, u64::from(b));
    }
    for &b in &trial_out {
        fnv1a(&mut digest, u64::from(b));
    }
    outcome.golden_digest = golden_digest;
    outcome.digest = digest;
    let quality = image_quality_sized(&golden_out, &trial_out, dim);
    outcome.mean_rel_err = quality.mean_rel_err;
    outcome.psnr_db = Some(psnr_u8(&golden_out, &trial_out));
    Ok(outcome)
}

fn sharpen(program: &CompiledProgram, image: &Image) -> Result<Vec<u8>> {
    sharpen_via_dag(program, image)
        .map(|out| out.to_u8())
        .map_err(|e| CrossbarError::InvalidConfig(format!("sharpen DAG failed: {e}")))
}

fn blank_outcome(kernel: &'static str) -> KernelOutcome {
    KernelOutcome {
        kernel,
        faults_injected: 0,
        corrected: 0,
        uncorrectable: 0,
        digest: FNV_OFFSET,
        golden_digest: FNV_OFFSET,
        mean_rel_err: 0.0,
        psnr_db: None,
        ecc_cycles: 0,
        ecc_energy: Joules::default(),
    }
}

fn absorb(outcome: &mut KernelOutcome, readback: &StorageReadback) {
    outcome.faults_injected += readback.faults;
    outcome.corrected += readback.corrected;
    outcome.uncorrectable += readback.uncorrectable;
    outcome.ecc_cycles += readback.stats.cycles.get();
    outcome.ecc_energy += readback.stats.energy;
}

fn finish_numeric(outcome: &mut KernelOutcome, golden: &[i64], got: &[i64]) {
    for &v in golden {
        fnv1a(&mut outcome.golden_digest, v as u64);
    }
    for &v in got {
        fnv1a(&mut outcome.digest, v as u64);
    }
    outcome.mean_rel_err = mean_relative_error(golden, got);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic() {
        let config = CampaignConfig {
            trials: 2,
            image_dim: 6,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&config).unwrap();
        let b = run_campaign(&config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ecc_on_is_bit_exact_at_target_density() {
        let config = CampaignConfig {
            seed: 7,
            density: 1e-4,
            ecc: true,
            trials: 3,
            image_dim: 6,
        };
        let report = run_campaign(&config).unwrap();
        assert!(report.all_bit_exact(), "{report}");
        // The protection is priced, not free.
        for k in &report.kernels {
            assert!(
                k.ecc_cycles > 0,
                "{}: ECC overhead must be reported",
                k.kernel
            );
            assert!(k.ecc_energy > Joules::default());
        }
    }

    #[test]
    fn ecc_off_degrades_at_high_density_but_is_bounded() {
        let on = run_campaign(&CampaignConfig {
            seed: 11,
            density: 0.02,
            ecc: false,
            trials: 3,
            image_dim: 6,
        })
        .unwrap();
        // At 2% density some of the 13×width coded cells flip with
        // overwhelming probability; the digests must record the damage.
        assert!(!on.all_bit_exact(), "2% faults should corrupt something");
        assert!(on.faults_injected() > 0);
        // Degradation is measured and finite — the campaign quantifies the
        // loss instead of crashing.
        for k in &on.kernels {
            assert!(k.mean_rel_err.is_finite(), "{}: unbounded error", k.kernel);
            assert_eq!(k.ecc_cycles, 0, "ECC off must charge no decode cycles");
        }
    }

    #[test]
    fn zero_density_matches_golden_even_without_ecc() {
        let report = run_campaign(&CampaignConfig {
            seed: 3,
            density: 0.0,
            ecc: false,
            trials: 2,
            image_dim: 5,
        })
        .unwrap();
        assert!(report.all_bit_exact());
        assert_eq!(report.faults_injected(), 0);
        for k in &report.kernels {
            assert_eq!(k.mean_rel_err, 0.0);
        }
    }

    #[test]
    fn report_renders_every_kernel() {
        let report = run_campaign(&CampaignConfig {
            trials: 1,
            image_dim: 5,
            ..CampaignConfig::default()
        })
        .unwrap();
        let text = report.to_string();
        for name in ["adder", "multiplier", "sharpen"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("bit-exact"));
    }
}
