//! Recorded microprograms of compiled DAGs, pinned op for op.
//!
//! Each case records one gate-level execution of a compiled program and
//! pins its read-back values, charged cycles and energy, trace length and
//! an FNV-1a digest over every recorded op's `Debug` rendering. The pins
//! cover the serial program (one lane, including the value-steered forms:
//! the sense-amp multiplier read, the Shr sign write-back and the relaxed
//! §3.4 MAJ final add) and the lane-batched program at 8 and 64 lanes; a
//! `Sub` chain runs serially and at 8 lanes.
//! Any change to the emitted primitives, their order or their operands
//! moves a digest.

use std::collections::HashMap;

use apim_compile::{compile, compile_batched, CompileOptions, Dag};
use apim_logic::PrecisionMode;
use apim_workloads::dags::{sharpen_dag, sobel_gradient_dag};

/// What one recorded execution is pinned by.
#[derive(Debug, Clone, PartialEq)]
struct Pin {
    /// [`fnv1a`] over the read-back values, lane by lane.
    values: u64,
    cycles: u64,
    energy_j: f64,
    trace_len: usize,
    digest: u64,
}

/// FNV-1a (64-bit) over the `Debug` rendering of each item, one newline
/// after each.
fn fnv1a<T: std::fmt::Debug>(items: &[T]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for item in items {
        for byte in format!("{item:?}\n").bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Per-lane tap bindings: 8-bit pixel values varied by lane and tap, so
/// no two lanes agree.
fn bindings(dag: &Dag, lanes: usize) -> Vec<HashMap<String, u64>> {
    (0..lanes as u64)
        .map(|lane| {
            dag.inputs()
                .iter()
                .zip(0u64..)
                .map(|(name, tap)| (name.to_string(), (lane * 37 + tap * 11 + 5) % 256))
                .collect()
        })
        .collect()
}

fn serial_pin(dag: &Dag, inputs: &HashMap<String, u64>) -> Pin {
    let program = compile(dag, &CompileOptions::default()).unwrap();
    let report = program.run(inputs).unwrap();
    assert!(report.lint.is_clean(), "{}", report.lint);
    assert_eq!(report.value, report.reference);
    let (trace, _, reference) = program.record(inputs).unwrap();
    assert_eq!(reference, report.reference);
    assert_eq!(trace.ops.len(), report.trace_len);
    Pin {
        values: fnv1a(&[report.value]),
        cycles: report.cycles,
        energy_j: report.energy.as_joules(),
        trace_len: report.trace_len,
        digest: fnv1a(&trace.ops),
    }
}

fn batched_pin(dag: &Dag, lanes: usize) -> Pin {
    let program = compile_batched(dag, &CompileOptions::default(), lanes).unwrap();
    let inputs = bindings(dag, lanes);
    let report = program.run(&inputs).unwrap();
    assert!(report.lint.is_clean(), "{}", report.lint);
    assert_eq!(report.values, report.references);
    let trace = program.record(&inputs).unwrap();
    assert_eq!(trace.ops.len(), report.trace_len);
    Pin {
        values: fnv1a(&report.values),
        cycles: report.cycles,
        energy_j: report.energy.as_joules(),
        trace_len: report.trace_len,
        digest: fnv1a(&trace.ops),
    }
}

/// One serial DAG through every value-steered form: an input×input
/// multiply (sense-amp multiplier read), an arithmetic right shift (sign
/// read and write-back) and a `LastStage { relax_bits: 4 }` MAC (MAJ
/// carry reads in the final add).
fn steered_dag() -> Dag {
    let mut dag = Dag::new(16).unwrap();
    let x = dag.input("x").unwrap();
    let y = dag.input("y").unwrap();
    let z = dag.input("z").unwrap();
    let m = dag.mul(x, y, PrecisionMode::Exact).unwrap();
    let r = dag.shr(m, 3).unwrap();
    let c = dag.constant(5);
    let d = dag.constant(0x2B);
    let mac = dag
        .mac(
            vec![(r, c), (z, d)],
            PrecisionMode::LastStage { relax_bits: 4 },
        )
        .unwrap();
    dag.set_root(mac).unwrap();
    dag
}

/// A difference chain, `(x − y) − z`: the only pinned DAG that emits
/// `Sub` nodes.
fn difference_dag() -> Dag {
    let mut dag = Dag::new(16).unwrap();
    let x = dag.input("x").unwrap();
    let y = dag.input("y").unwrap();
    let z = dag.input("z").unwrap();
    let d = dag.sub(x, y).unwrap();
    let r = dag.sub(d, z).unwrap();
    dag.set_root(r).unwrap();
    dag
}

fn steered_inputs() -> HashMap<String, u64> {
    [("x", 51234), ("y", 47111), ("z", 1234)]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

#[test]
fn serial_programs_match_their_pins() {
    let cases = [
        (
            "sharpen",
            sharpen_dag(),
            bindings(&sharpen_dag(), 1).remove(0),
            Pin {
                values: 0x9ea7_2b29_74eb_78a1,
                cycles: 3882,
                energy_j: 1.379_289_481_439_544_4e-10,
                trace_len: 8095,
                digest: 0x7419_e79c_0368_0a7d,
            },
        ),
        (
            "sobel",
            sobel_gradient_dag(),
            bindings(&sobel_gradient_dag(), 1).remove(0),
            Pin {
                values: 0xab27_a1dc_15f9_8170,
                cycles: 8744,
                energy_j: 4.841_397_151_127_611e-10,
                trace_len: 18069,
                digest: 0x85e8_ad41_12b6_8514,
            },
        ),
        (
            "steered",
            steered_dag(),
            steered_inputs(),
            Pin {
                values: 0xedc5_c6f4_3ac2_0c6f,
                cycles: 463,
                energy_j: 3.941_139_220_520_623_5e-11,
                trace_len: 1087,
                digest: 0xecad_be1f_56f4_8b8e,
            },
        ),
        (
            "difference",
            difference_dag(),
            bindings(&difference_dag(), 1).remove(0),
            Pin {
                values: 0x4b15_ce2b_fa44_28a9,
                cycles: 388,
                energy_j: 1.183_299_871_372_123_2e-11,
                trace_len: 781,
                digest: 0xd99c_ed26_018a_2b9d,
            },
        ),
    ];
    for (name, dag, inputs, pin) in cases {
        assert_eq!(serial_pin(&dag, &inputs), pin, "{name}, serial");
    }
}

#[test]
fn lane_batched_programs_match_their_pins() {
    let cases = [
        (
            "sharpen",
            sharpen_dag(),
            8,
            Pin {
                values: 0x2621_2c35_faec_c111,
                cycles: 3883,
                energy_j: 5.338_589_890_226_456e-10,
                trace_len: 8418,
                digest: 0xfd51_35f6_b230_93e4,
            },
        ),
        (
            "sharpen",
            sharpen_dag(),
            64,
            Pin {
                values: 0x7ad9_c4c2_1b08_bd96,
                cycles: 3883,
                energy_j: 3.681_611_912_180_563_6e-9,
                trace_len: 8418,
                digest: 0x4e6c_8f50_24fd_eabe,
            },
        ),
        (
            "sobel",
            sobel_gradient_dag(),
            8,
            Pin {
                values: 0xa5cc_dc73_8dab_1bb9,
                cycles: 8744,
                energy_j: 2.605_050_120_900_81e-9,
                trace_len: 18441,
                digest: 0x69cc_a4b0_cfd7_1155,
            },
        ),
        (
            "sobel",
            sobel_gradient_dag(),
            64,
            Pin {
                values: 0x93c8_5e35_4bc6_8446,
                cycles: 8744,
                energy_j: 1.955_079_096_720_117_7e-8,
                trace_len: 18441,
                digest: 0xd1d0_f7a8_4b7b_ab92,
            },
        ),
        (
            "difference",
            difference_dag(),
            8,
            Pin {
                values: 0x9107_7dbc_9bf5_feaf,
                cycles: 388,
                energy_j: 4.044_398_970_976_852e-11,
                trace_len: 826,
                digest: 0x5b4a_29d5_d6e5_a783,
            },
        ),
    ];
    for (name, dag, lanes, pin) in cases {
        assert_eq!(batched_pin(&dag, lanes), pin, "{name}, {lanes} lanes");
    }
}

/// A one-lane batch is the serial program: same cycles (the sign fill of
/// sharpen's final Shr is the sense-amp read plus write-back, 2 + k
/// cycles), same recorded trace.
#[test]
fn one_lane_batch_is_the_serial_program() {
    let dag = sharpen_dag();
    let inputs = bindings(&dag, 1);
    let serial = compile(&dag, &CompileOptions::default()).unwrap();
    let batched = compile_batched(&dag, &CompileOptions::default(), 1).unwrap();
    let serial_report = serial.run(&inputs[0]).unwrap();
    let batched_report = batched.run(&inputs).unwrap();
    assert_eq!(batched_report.cycles, serial_report.cycles);
    assert_eq!(batched_report.values, [serial_report.value]);
    assert_eq!(
        batched.record(&inputs).unwrap().ops,
        serial.record(&inputs[0]).unwrap().0.ops
    );
}
