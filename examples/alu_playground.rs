//! The full in-memory ALU on simulated cells: add, subtract, compare,
//! multiply, divide and lane-batched additions — with the cycle bill for each,
//! so the cost hierarchy the paper designs around is visible at a glance.
//!
//! ```text
//! cargo run --example alu_playground --release
//! ```

use apim::{Device, PrecisionMode};
use apim_crossbar::{BlockedCrossbar, CrossbarConfig, CrossbarError, RowAllocator};
use apim_logic::adder_serial::SerialScratch;
use apim_logic::divider::divide;
use apim_logic::lanes::{add_lanes, preload_lanes, read_lanes};
use apim_logic::mac::CrossbarMac;
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::subtractor::{greater_equal, subtract};

fn main() -> Result<(), CrossbarError> {
    let device = Device::default();
    println!("the APIM ALU, gate level (8/16-bit operands)\n");
    println!("{:<34} {:>14} {:>10}", "operation", "result", "cycles");

    // Addition rides inside subtract/multiply; show subtraction first.
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let blk = xbar.block(1)?;
    let before = xbar.stats().cycles;
    let diff = subtract(&mut xbar, blk, 200, 58, 8)?;
    println!(
        "{:<34} {:>14} {:>10}",
        "subtract  200 - 58 (8b)",
        diff,
        (xbar.stats().cycles - before).get()
    );

    let mut alloc = RowAllocator::new(xbar.rows());
    let rows = alloc.alloc_many(4)?;
    let scratch = SerialScratch::alloc(&mut alloc)?;
    let bits = |v: u64| (0..8).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>();
    xbar.preload_word(blk, rows[0], 0, &bits(123))?;
    xbar.preload_word(blk, rows[1], 0, &bits(45))?;
    let before = xbar.stats().cycles;
    let ge = greater_equal(
        &mut xbar,
        blk,
        rows[0],
        rows[1],
        rows[2],
        rows[3],
        0..8,
        &scratch,
    )?;
    println!(
        "{:<34} {:>14} {:>10}",
        "compare   123 >= 45",
        ge,
        (xbar.stats().cycles - before).get()
    );

    let mut mul = CrossbarMultiplier::new(16, &device)?;
    let run = mul.multiply(0xBEEF, 0x1234, PrecisionMode::Exact)?;
    println!(
        "{:<34} {:>14} {:>10}",
        "multiply  0xBEEF * 0x1234 (16b)",
        run.product,
        run.stats.cycles.get()
    );
    let run = mul.multiply(0xBEEF, 0x1234, PrecisionMode::LastStage { relax_bits: 16 })?;
    println!(
        "{:<34} {:>14} {:>10}",
        "multiply  (16 relax bits)",
        run.product,
        run.stats.cycles.get()
    );

    let mut mac = CrossbarMac::new(8, 4, &device)?;
    let run = mac.mac(
        &[(12, 34), (56, 78), (90, 12), (34, 56)],
        PrecisionMode::Exact,
    )?;
    println!(
        "{:<34} {:>14} {:>10}",
        "fused MAC (4 terms, mod 256)",
        run.value,
        run.stats.cycles.get()
    );

    // Eight independent 8-bit additions interleaved across the bitlines:
    // one ripple's cycles for all of them.
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let blk = xbar.block(1)?;
    preload_lanes(&mut xbar, blk, 0, 0, 8, 8, &[1, 3, 5, 7, 9, 11, 13, 15])?;
    preload_lanes(&mut xbar, blk, 1, 0, 8, 8, &[2, 4, 6, 8, 10, 12, 14, 16])?;
    let mut alloc = RowAllocator::new(xbar.rows());
    alloc.alloc_many(3)?;
    let scratch = SerialScratch::alloc(&mut alloc)?;
    let before = xbar.stats().cycles;
    add_lanes(&mut xbar, blk, 0, 1, 2, 0..8, 8, &scratch)?;
    println!(
        "{:<34} {:>14?} {:>10}",
        "lane add (8 lanes)",
        read_lanes(&xbar, blk, 2, 0, 8, 8)?.iter().sum::<u64>(),
        (xbar.stats().cycles - before).get()
    );

    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default())?;
    let blk = xbar.block(1)?;
    let run = divide(&mut xbar, blk, 200, 7, 8)?;
    println!(
        "{:<34} {:>14} {:>10}",
        "divide    200 / 7 (8b)",
        format!("{} r{}", run.quotient, run.remainder),
        run.cycles.get()
    );

    println!(
        "\nThe hierarchy the paper designs around: compares and subtracts cost one\n\
         ripple; multiplies cost a tree plus one ripple (and relax bits cut that);\n\
         fused MACs amortize the ripple across terms; lane batches amortize it\n\
         across instances; division pays a ripple *per quotient bit* — which is\n\
         why the evaluation kernels avoid it."
    );
    Ok(())
}
