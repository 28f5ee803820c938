//! Negative-path lint tests: one deliberately hazardous microprogram per
//! pass, seeded through *real kernel code* rather than hand-built traces —
//! each the exact bug class the compiler's post-condition check must stop.

use apim_crossbar::{BlockedCrossbar, CrossbarConfig, RowAllocator, RowRef};
use apim_device::Device;
use apim_logic::adder_serial::{add_words, SerialScratch};
use apim_logic::CostModel;
use apim_verify::{verify_trace, Pass, Severity};

fn relaxed_crossbar() -> BlockedCrossbar {
    BlockedCrossbar::new(CrossbarConfig {
        strict_init: false, // the runtime executes the hazard; the lint must still catch it
        ..CrossbarConfig::default()
    })
    .unwrap()
}

fn to_bits(v: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (v >> i) & 1 == 1).collect()
}

/// Pass 1 — stale init. A two-stage copy pipeline that arms its staging row
/// once and then keeps NOR-ing into it, the classic "hoisted the init out of
/// the loop" bug.
#[test]
fn copy_loop_with_hoisted_init_fires_init_discipline() {
    let mut xbar = relaxed_crossbar();
    let blk = xbar.block(0).unwrap();
    xbar.start_recording();
    xbar.preload_word(blk, 0, 0, &to_bits(0b1010, 4)).unwrap();
    xbar.preload_word(blk, 1, 0, &to_bits(0b0110, 4)).unwrap();
    xbar.init_rows(blk, &[2], 0..4).unwrap();
    for src in [0usize, 1] {
        // Only the first iteration finds row 2 armed.
        xbar.nor_rows_shifted(&[RowRef::new(blk, src)], RowRef::new(blk, 2), 0..4, 0)
            .unwrap();
    }
    let trace = xbar.stop_recording();
    let report = verify_trace(&trace, &[], None);
    let findings: Vec<_> = report
        .findings()
        .iter()
        .filter(|f| f.pass == Pass::InitDiscipline)
        .collect();
    assert_eq!(findings.len(), 1, "{report}");
    assert_eq!(findings[0].severity, Severity::Error);
    assert_eq!(findings[0].op_index, Some(4), "the second loop iteration");
}

/// Pass 2 — aliased NOR, row form. An in-place "accumulate" that names the
/// accumulator row as both input and output of one evaluation.
#[test]
fn in_place_accumulator_row_fires_aliasing() {
    let mut xbar = relaxed_crossbar();
    let blk = xbar.block(1).unwrap();
    xbar.start_recording();
    xbar.preload_word(blk, 0, 0, &to_bits(0b0011, 4)).unwrap();
    xbar.init_rows(blk, &[3], 0..4).unwrap();
    let result = xbar.nor_rows_shifted(
        &[RowRef::new(blk, 0), RowRef::new(blk, 3)],
        RowRef::new(blk, 3),
        0..4,
        0,
    );
    // Recording captures the request whether or not the runtime refuses it.
    let _ = result;
    let trace = xbar.stop_recording();
    let report = verify_trace(&trace, &[], None);
    let findings: Vec<_> = report
        .findings()
        .iter()
        .filter(|f| f.pass == Pass::Aliasing)
        .collect();
    assert_eq!(findings.len(), 1, "{report}");
    assert!(findings[0].message.contains("also the output row"));
}

/// Pass 3 — out-of-window shift, underflow side. A cross-block copy whose
/// negative shift pushes the column window below bitline zero.
#[test]
fn negative_shift_below_column_zero_fires_shift_bounds() {
    let mut xbar = relaxed_crossbar();
    let a = xbar.block(0).unwrap();
    let b = xbar.block(1).unwrap();
    xbar.start_recording();
    xbar.preload_word(a, 0, 0, &to_bits(0b1111, 4)).unwrap();
    xbar.init_rows(b, &[0], 0..4).unwrap();
    let result = xbar.nor_rows_shifted(&[RowRef::new(a, 0)], RowRef::new(b, 0), 0..4, -2);
    assert!(result.is_err(), "runtime rejects the underflow");
    let trace = xbar.stop_recording();
    let report = verify_trace(&trace, &[], None);
    let findings: Vec<_> = report
        .findings()
        .iter()
        .filter(|f| f.pass == Pass::ShiftBounds)
        .collect();
    assert_eq!(findings.len(), 1, "{report}");
    assert!(findings[0].message.contains("outside the array"));
}

/// Pass 4 — leaked scratch rows. A real serial addition whose epilogue
/// forgets `SerialScratch::release`: every scratch row is still live at
/// kernel exit and each leak is reported.
#[test]
fn forgotten_scratch_release_fires_lifetime_leaks() {
    let n = 8usize;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
    let blk = xbar.block(1).unwrap();
    let mut alloc = RowAllocator::with_tracing(xbar.rows());
    let rows = alloc.alloc_many(3).unwrap();
    xbar.start_recording();
    xbar.preload_word(blk, rows[0], 0, &to_bits(0x5A, n))
        .unwrap();
    xbar.preload_word(blk, rows[1], 0, &to_bits(0xC3, n))
        .unwrap();
    let scratch = SerialScratch::alloc(&mut alloc).unwrap();
    let scratch_rows = scratch.netlist.len() + 2; // netlist + carry + zero
    add_words(&mut xbar, blk, rows[0], rows[1], rows[2], 0..n, &scratch).unwrap();
    let trace = xbar.stop_recording();
    // Operands are returned; the scratch release is "forgotten".
    alloc.free_many(rows).unwrap();
    let events = alloc.take_events();
    let report = verify_trace(&trace, &events, None);
    assert_eq!(report.error_count(), 0, "{report}");
    let leaks: Vec<_> = report
        .findings()
        .iter()
        .filter(|f| f.pass == Pass::ScratchLifetime)
        .collect();
    assert_eq!(
        leaks.len(),
        scratch_rows,
        "one leak per scratch row: {report}"
    );
    assert!(leaks.iter().all(|f| f.severity == Severity::Warning));
    assert!(leaks[0].message.contains("leak"));
}

/// Pass 5 — miscounted cycles. A correct serial addition checked against an
/// off-by-one analytic expectation: the accounting pass must flag the
/// divergence rather than trust either side.
#[test]
fn off_by_one_cost_expectation_fires_cycle_accounting() {
    let n = 8usize;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
    let blk = xbar.block(1).unwrap();
    let mut alloc = RowAllocator::with_tracing(xbar.rows());
    let rows = alloc.alloc_many(3).unwrap();
    xbar.start_recording();
    xbar.preload_word(blk, rows[0], 0, &to_bits(0x11, n))
        .unwrap();
    xbar.preload_word(blk, rows[1], 0, &to_bits(0x2F, n))
        .unwrap();
    let scratch = SerialScratch::alloc(&mut alloc).unwrap();
    add_words(&mut xbar, blk, rows[0], rows[1], rows[2], 0..n, &scratch).unwrap();
    let trace = xbar.stop_recording();
    scratch.release(&mut alloc).unwrap();
    alloc.free_many(rows).unwrap();
    let events = alloc.take_events();

    let model = CostModel::new(&Device::default());
    let correct = model.serial_add(n as u32).cycles.get();
    assert!(
        verify_trace(&trace, &events, Some(correct)).is_clean(),
        "the kernel itself is clean"
    );
    let report = verify_trace(&trace, &events, Some(correct - 1));
    let findings: Vec<_> = report
        .findings()
        .iter()
        .filter(|f| f.pass == Pass::CycleAccounting)
        .collect();
    assert_eq!(findings.len(), 1, "{report}");
    assert!(findings[0].message.contains(&format!("{correct} cycles")));
}
