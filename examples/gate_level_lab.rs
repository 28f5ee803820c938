//! A tour of the gate-level layer: MAGIC NOR on simulated cells, the
//! 12N+1 serial adder, the 13-cycle carry-save stage, a full multiplier
//! run, and a stuck-at fault corrupting a product.
//!
//! ```text
//! cargo run --example gate_level_lab --release
//! ```

use apim::{Device, PrecisionMode};
use apim_crossbar::{BlockedCrossbar, CrossbarConfig, CrossbarError, Fault, RowRef};
use apim_logic::multiplier::CrossbarMultiplier;

fn main() -> Result<(), CrossbarError> {
    // --- Raw MAGIC on a blocked crossbar -------------------------------
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let data = xbar.block(0)?;
    let proc = xbar.block(1)?;
    xbar.preload_word(
        data,
        0,
        0,
        &[true, false, true, true, false, false, true, false],
    )?;
    // One column-parallel NOT through the interconnect, shifted 3 bitlines:
    xbar.init_rows(proc, &[0], 3..11)?;
    xbar.nor_rows_shifted(&[RowRef::new(data, 0)], RowRef::new(proc, 0), 0..8, 3)?;
    println!("MAGIC NOT of one byte, shifted +3 across the interconnect:");
    println!("  {}", xbar.stats());

    // --- A full multiplication, watched at cycle granularity -----------
    let mut mul = CrossbarMultiplier::new(16, &Device::default())?;
    let run = mul.multiply(0xBEEF, 0x1234, PrecisionMode::Exact)?;
    println!("\n16x16 exact multiply on the crossbar:");
    println!(
        "  product = {:#x} (native {:#x})",
        run.product,
        0xBEEFu64 * 0x1234
    );
    println!("  {}", run.stats);

    let run = mul.multiply(0xBEEF, 0x1234, PrecisionMode::LastStage { relax_bits: 12 })?;
    println!("\nsame multiply with 12 relaxed product bits:");
    println!("  product = {:#x}", run.product);
    println!("  {}", run.stats);

    // --- Fault injection ------------------------------------------------
    // Stick a cell in the partial-product block at logic 1 and watch the
    // product corrupt (the failure-injection extension of this repo).
    let clean = mul.multiply(200, 170, PrecisionMode::Exact)?.product;
    let pp_block = mul.crossbar().block(2)?;
    mul.crossbar_mut()
        .inject_fault(pp_block, 0, 5, Some(Fault::StuckAtOne))?;
    let faulty = mul.multiply(200, 170, PrecisionMode::Exact)?.product;
    println!("\nstuck-at-1 fault in the partial-product array:");
    println!("  clean product  = {clean}");
    println!(
        "  faulty product = {faulty}  (delta {})",
        faulty.abs_diff(clean)
    );

    println!(
        "\nendurance: hottest cell absorbed {} writes so far",
        mul.crossbar().max_cell_writes()
    );
    Ok(())
}
