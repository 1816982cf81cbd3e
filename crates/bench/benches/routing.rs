//! Cluster-directed routing vs. flooding: wall-clock cost of a full
//! observation period under each mode, plus the *deterministic*
//! message-volume metrics (messages and forwards per query) that the CI
//! bench-trend gate holds to exact levels — they depend only on the
//! seeded testbed, never on the machine.
//!
//! The testbeds start from the paper's initial configuration (i)
//! (singleton clusters): the state every protocol run begins from, and
//! the one where flooding hurts most — one forward per peer per query.

use criterion::{BenchmarkId, Criterion};
use recluster_core::simulate_period;
use recluster_overlay::{RoutingMode, SimNetwork, SummaryMode};
use recluster_sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};

const MODES: [(&str, RoutingMode); 2] = [
    ("flood", RoutingMode::Flood),
    ("routed", RoutingMode::Routed(SummaryMode::Exact)),
];

fn testbeds() -> Vec<(&'static str, recluster_sim::TestBed)> {
    vec![
        (
            "small-40p",
            build_system(
                Scenario::SameCategory,
                InitialConfig::Singletons,
                &ExperimentConfig::small(3),
            ),
        ),
        (
            "paper-200p",
            build_system(
                Scenario::SameCategory,
                InitialConfig::Singletons,
                &ExperimentConfig::paper(3),
            ),
        ),
    ]
}

fn bench_simulate_period_modes(
    c: &mut Criterion,
    testbeds: &[(&'static str, recluster_sim::TestBed)],
) {
    let mut group = c.benchmark_group("routing/simulate_period");
    group.sample_size(10);
    for (label, tb) in testbeds {
        for (mode_label, mode) in MODES {
            group.bench_with_input(BenchmarkId::new(mode_label, label), tb, |b, tb| {
                b.iter(|| {
                    let mut net = SimNetwork::new();
                    simulate_period(&tb.system, &mut net, mode)
                })
            });
        }
    }
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    let testbeds = testbeds();
    bench_simulate_period_modes(&mut criterion, &testbeds);
    // Message-volume metrics: seeded and machine-independent, so the
    // trend gate can treat any drift as a real regression.
    for (label, tb) in &testbeds {
        for (mode_label, mode) in MODES {
            let mut net = SimNetwork::new();
            let (_, report, _) = simulate_period(&tb.system, &mut net, mode);
            let per_query = net.total_messages() as f64 / report.query_events.max(1) as f64;
            criterion::record_value(
                &format!("routing/messages_per_query/{mode_label}-{label}"),
                "msgs",
                per_query,
            );
            criterion::record_value(
                &format!("routing/forwards_per_query/{mode_label}-{label}"),
                "msgs",
                report.forwards_per_query(),
            );
        }
    }
}
