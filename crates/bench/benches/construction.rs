//! Criterion: construction heuristics (the Table II "Initial Length
//! from MF" column's producer).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tsp_construction::{multiple_fragment, nearest_neighbor, space_filling};
use tsp_tsplib::{generate, Style};

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    for &n in &[500usize, 2000] {
        let inst = generate("bench-con", n, Style::Uniform, 1);
        group.bench_with_input(BenchmarkId::new("multiple_fragment", n), &n, |b, _| {
            b.iter(|| multiple_fragment(&inst))
        });
        group.bench_with_input(BenchmarkId::new("nearest_neighbor", n), &n, |b, _| {
            b.iter(|| nearest_neighbor(&inst, 0))
        });
        group.bench_with_input(BenchmarkId::new("space_filling", n), &n, |b, _| {
            b.iter(|| space_filling(&inst))
        });
    }
    // Past 3000 cities MF scans k-NN candidate edges, then its linker
    // joins the hundreds of fragments they leave; NN queries the k-NN
    // grid instead of scanning every city.
    let inst = generate("bench-con", 20_000, Style::Clustered { clusters: 200 }, 1);
    group.bench_function("multiple_fragment/20000-clustered", |b| {
        b.iter(|| multiple_fragment(&inst))
    });
    group.bench_function("nearest_neighbor/20000-clustered", |b| {
        b.iter(|| nearest_neighbor(&inst, 0))
    });
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_construction
}
criterion_main!(benches);
