//! Device health tooling: gate-level self-test, read-margin analysis,
//! fault detection and endurance reporting — the operational side of
//! owning a PIM memory module.
//!
//! ```text
//! cargo run --example device_health --release
//! ```

use apim::prelude::*;
use apim::{ApimError, Device, DeviceParams};
use apim_crossbar::Fault;
use apim_device::sense::SenseAnalysis;
use apim_logic::multiplier::CrossbarMultiplier;

fn main() -> Result<(), ApimError> {
    let apim = Apim::new(ApimConfig::default())?;

    // --- Sense-amplifier margins (why the device can be read at all) ---
    let sense = SenseAnalysis::new(&DeviceParams::default());
    let margins = sense.margins();
    println!("read margins of the 10 kOhm / 10 MOhm device:");
    println!("  single-bit margin : {:.2} %", 100.0 * margins.single_bit);
    println!("  MAJ margin        : {:.2} %", 100.0 * margins.majority);
    println!(
        "  BER @5% noise     : single {:.1e}, MAJ {:.1e}",
        sense.single_bit_error_rate(0.05),
        sense.majority_error_rate(0.05)
    );

    // --- Gate-level self-test on a healthy device ---
    let report = apim.self_test(24, 0xC0FFEE)?;
    println!(
        "\nself-test: {}/{} multiplications correct -> {}",
        report.samples - report.mismatches,
        report.samples,
        if report.passed() { "PASS" } else { "FAIL" }
    );

    // --- Fault detection in action ---
    let mut mul = CrossbarMultiplier::new(16, &Device::default())?;
    let pp_block = mul.crossbar().block(2)?;
    mul.crossbar_mut()
        .inject_fault(pp_block, 0, 7, Some(Fault::StuckAtOne))?;
    let clean = 0xBEEFu128 * 0x1234;
    let faulty = mul.multiply(0xBEEF, 0x1234, PrecisionMode::Exact)?.product;
    println!(
        "\nstuck-at-1 in the partial-product array corrupts silently:\n  {} vs expected {} (delta {})",
        faulty,
        clean,
        faulty.abs_diff(clean)
    );
    let not_row = mul.crossbar().rows() - 1;
    let p0 = mul.crossbar().block(1)?;
    mul.crossbar_mut().inject_fault(pp_block, 0, 7, None)?;
    mul.crossbar_mut()
        .inject_fault(p0, not_row, 0, Some(Fault::StuckAtZero))?;
    let verdict = mul.multiply(0xBEEF, 0x1234, PrecisionMode::Exact);
    println!(
        "stuck-at-0 on a MAGIC output cell is *detected* by the init discipline:\n  {}",
        verdict.err().map(|e| e.to_string()).unwrap_or_default()
    );

    // --- Endurance: fixed vs wear-leveled scratch rows ---
    let mut fixed = CrossbarMultiplier::new(16, &Device::default())?;
    let mut leveled = CrossbarMultiplier::new_with_wear_leveling(16, &Device::default(), 4)?;
    for i in 0..32u64 {
        fixed.multiply(40_000 + i, 51_111, PrecisionMode::Exact)?;
        leveled.multiply(40_000 + i, 51_111, PrecisionMode::Exact)?;
    }
    println!("\nendurance after 32 multiplications (hottest cell writes):");
    println!(
        "  fixed layout     : {}",
        fixed.crossbar().max_cell_writes()
    );
    println!(
        "  4-slot leveling  : {}",
        leveled.crossbar().max_cell_writes()
    );
    println!(
        "\nwear report (leveled device):\n{}",
        leveled.crossbar().wear_report()
    );
    Ok(())
}
