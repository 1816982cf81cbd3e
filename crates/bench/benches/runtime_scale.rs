//! Message-runtime scale bench: deterministic protocol-traffic metrics.
//!
//! Drives the typed-message runtime ([`RuntimeEngine`]) on the paper
//! testbed from singletons to equilibrium and records wall-clock-free
//! metrics into the bench-trend gate — fabric frames per round, the
//! representative deny rate, and rounds-to-converge — once under the
//! ideal schedule (bit-identical to the sync engine, so these numbers
//! double as a protocol-traffic baseline), once under a delayed, lossy
//! schedule (delay 0..3 ticks, 5% loss), and once under that same
//! schedule with a timed bisection plus a crash window layered on top
//! (the partition-tolerant paths: cut/crash attribution and post-heal
//! repair traffic). The counts are seeded and machine-independent: any
//! drift means the scheduler, the state machines or the protocol itself
//! changed behaviour, gated exactly. Wall-clock seconds are recorded
//! for the artifact's timing history only (never added to the committed
//! baseline).

use recluster_core::{
    CrashWindow, FaultSchedule, NetConfig, Partition, PartitionKind, ProtocolConfig, RuntimeEngine,
    SelfishStrategy,
};
use recluster_overlay::SimNetwork;
use recluster_sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};
use recluster_types::PeerId;

fn run_schedule(label: &str, net: NetConfig, faults: FaultSchedule) {
    let mut tb = build_system(
        Scenario::SameCategory,
        InitialConfig::Singletons,
        &ExperimentConfig::paper(77),
    );
    let mut ledger = SimNetwork::new();
    let cfg = ProtocolConfig::builder().memoize(false).build();
    let mut engine = RuntimeEngine::new(SelfishStrategy, cfg, net).with_faults(faults);
    let outcome = engine.run(&mut tb.system, &mut ledger);
    let stats = engine.net_stats();
    let rounds = outcome.rounds.len();
    let decisions = engine.granted_total() + engine.denied_total();
    let deny_rate = if decisions == 0 {
        0.0
    } else {
        engine.denied_total() as f64 / decisions as f64
    };
    println!(
        "{label}: {} rounds, {} frames ({} dropped, {} cut, {} crashed, {} stale), \
         {} granted / {} denied",
        rounds,
        stats.sent,
        stats.dropped,
        stats.cut,
        stats.crashed,
        stats.stale,
        engine.granted_total(),
        engine.denied_total(),
    );
    criterion::record_value(&format!("runtime/{label}/rounds"), "rounds", rounds as f64);
    criterion::record_value(
        &format!("runtime/{label}/messages_per_round"),
        "msgs",
        stats.sent as f64 / rounds as f64,
    );
    criterion::record_value(&format!("runtime/{label}/deny_rate"), "rate", deny_rate);
    criterion::record_value(
        &format!("runtime/{label}/moves"),
        "moves",
        engine.evidence().records().len() as f64,
    );
}

fn main() {
    let start = std::time::Instant::now();
    run_schedule("ideal", NetConfig::ideal(), FaultSchedule::none());
    run_schedule(
        "delayed",
        NetConfig::degraded(77, 0, 3, 0.05),
        FaultSchedule::none(),
    );
    // The delayed schedule plus a mid-run bisection and a crash window:
    // the fault window forces repair traffic after the heal, so the
    // cut/crashed attribution and the post-heal rounds are both gated.
    run_schedule(
        "faulted",
        NetConfig::degraded(77, 0, 3, 0.05),
        FaultSchedule {
            partitions: vec![Partition {
                kind: PartitionKind::Bisect { pivot: 100 },
                start: 4,
                heal: 60,
            }],
            crashes: vec![CrashWindow {
                peer: PeerId(7),
                down: 10,
                up: 50,
            }],
        },
    );
    criterion::record_value(
        "runtime/run_seconds",
        "seconds",
        start.elapsed().as_secs_f64(),
    );
}
