//! Criterion: local maintenance vs. the global k-means strawman — the
//! compute side of the §1 motivation — plus the observed-statistics
//! period simulation (the distributed data-gathering path of §3.1).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use recluster_baselines::{recluster_kmeans, KMeansConfig};
use recluster_core::simulate_period;
use recluster_overlay::{RoutingMode, SimNetwork};
use recluster_sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/kmeans_recluster");
    group.sample_size(10);
    let cfg = ExperimentConfig::small(6);
    let tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, &cfg);
    group.bench_with_input(BenchmarkId::from_parameter("small-40p"), &tb, |b, tb| {
        b.iter_batched(
            || tb.system.clone(),
            |mut sys| {
                let mut net = SimNetwork::new();
                recluster_kmeans(
                    &mut sys,
                    KMeansConfig {
                        k: 4,
                        max_iters: 50,
                        seed: 6,
                    },
                    &mut net,
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_simulate_period(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracker/simulate_period");
    group.sample_size(10);
    let cfg = ExperimentConfig::small(7);
    let tb = build_system(Scenario::SameCategory, InitialConfig::RandomM, &cfg);
    group.bench_with_input(BenchmarkId::from_parameter("small-40p"), &tb, |b, tb| {
        b.iter(|| {
            let mut net = SimNetwork::new();
            simulate_period(&tb.system, &mut net, RoutingMode::Flood).0
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kmeans, bench_simulate_period);
criterion_main!(benches);
