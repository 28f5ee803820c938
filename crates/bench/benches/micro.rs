//! Microbenchmarks of the simulator itself: gate-level crossbar throughput
//! and the functional/analytic fast paths.

use apim_device::Device;
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::{functional, CostModel, PrecisionMode};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_gate_level(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_level");
    let device = Device::default();
    for n in [8u32, 16, 32] {
        let mut mul = CrossbarMultiplier::new(n, &device).expect("valid width");
        let a = (1u64 << (n - 1)) | 0x35;
        let b = (1u64 << (n - 1)) | 0x5B;
        group.bench_function(format!("multiply_{n}x{n}_exact"), |bench| {
            bench.iter(|| {
                mul.multiply(black_box(a), black_box(b), PrecisionMode::Exact)
                    .expect("valid operands")
            });
        });
    }
    let mut mul = CrossbarMultiplier::new(32, &device).expect("valid width");
    group.bench_function("multiply_32x32_relax16", |bench| {
        bench.iter(|| {
            mul.multiply(
                black_box(0xDEAD_BEEF),
                black_box(0x1234_5678),
                PrecisionMode::LastStage { relax_bits: 16 },
            )
            .expect("valid operands")
        });
    });
    group.finish();
}

fn bench_functional(c: &mut Criterion) {
    let mut group = c.benchmark_group("functional");
    group.bench_function("multiply_32x32_exact", |b| {
        b.iter(|| {
            functional::multiply(
                black_box(0xDEAD_BEEF),
                black_box(0x1234_5678),
                32,
                PrecisionMode::Exact,
            )
        });
    });
    group.bench_function("multiply_32x32_relax16", |b| {
        b.iter(|| {
            functional::multiply(
                black_box(0xDEAD_BEEF),
                black_box(0x1234_5678),
                32,
                PrecisionMode::LastStage { relax_bits: 16 },
            )
        });
    });
    group.bench_function("multiply_trunc_32", |b| {
        b.iter(|| {
            functional::multiply_trunc(
                black_box(0xDEAD_BEEF),
                black_box(0x1234_5678),
                32,
                PrecisionMode::LastStage { relax_bits: 16 },
            )
        });
    });
    group.finish();
}

fn bench_cost_model(c: &mut Criterion) {
    let model = CostModel::new(&Device::default());
    let mut group = c.benchmark_group("cost_model");
    group.bench_function("multiply_expected", |b| {
        b.iter(|| model.multiply_expected(black_box(32), PrecisionMode::Exact));
    });
    group.bench_function("mac_group_12", |b| {
        b.iter(|| {
            model.mac_group(
                black_box(12),
                32,
                16,
                PrecisionMode::LastStage { relax_bits: 16 },
            )
        });
    });
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    use apim_logic::mac::CrossbarMac;
    use apim_logic::vector::VectorUnit;
    let device = Device::default();
    let mut group = c.benchmark_group("engines");
    let mut mac = CrossbarMac::new(8, 4, &device).expect("mac");
    group.bench_function("mac_4x8bit", |b| {
        b.iter(|| {
            mac.mac(
                black_box(&[(250, 101), (37, 201), (99, 77), (11, 254)]),
                PrecisionMode::Exact,
            )
            .expect("valid terms")
        });
    });
    let mut vu = VectorUnit::new(16, 8, &device).expect("vector unit");
    group.bench_function("vector_add_8x16bit", |b| {
        b.iter(|| {
            vu.add(black_box(&[
                (1, 2),
                (300, 4),
                (5000, 600),
                (7, 65000),
                (9, 10),
                (11, 12),
                (13, 14),
                (15, 16),
            ]))
            .expect("within lanes")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gate_level,
    bench_functional,
    bench_cost_model,
    bench_engines
);
criterion_main!(benches);
