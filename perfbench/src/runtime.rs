//! `runtime_200p`: the typed-message runtime on the paper's 200-peer
//! testbed — the delay × drop sweep, the partition/heal sweep and the
//! observed-statistics liar audit, all sequential.

use recluster_core::{
    scost_normalized, DelayDist, NetConfig, ProtocolConfig, ProtocolEngine, RuntimeEngine,
    SelfishStrategy,
};
use recluster_overlay::SimNetwork;
use recluster_sim::netsim::{
    run_net_sweep, run_observed_liar_audit, run_partition_heal, NetSweepRow, ObservedAuditRow,
    PartitionHealRow,
};
use recluster_sim::scenario::{build_system, ExperimentConfig, InitialConfig, Scenario};
use recluster_sim::Parallelism;
use recluster_types::{derive_seed, ClusterId, PeerId};

use crate::measure::{median, quantile, ratio, repeat_for, timed, Checks, Outcome};
use crate::probe::SetupProbe;

/// Round budget of every cell. The runtime demo's paper-scale budget of
/// 60 is too tight for the slowest cell (delay 0..6, 15% drops), which
/// needs 65 rounds at seed 10 and 75 at seed 23.
const MAX_ROUNDS: usize = 120;
/// The net sweep's delay shapes and drop rates, crossed in this order.
const DELAYS: [(u64, u64); 3] = [(0, 0), (0, 2), (0, 6)];
const DROP_PCTS: [u64; 3] = [0, 5, 15];
/// `build_system` calls one pass makes: 9 sweep cells, the heal sweep's
/// ideal reference plus its 4 cells, and 4 audit cells.
const BUILDS_PER_PASS: usize = 18;

/// The outputs of one pass over the three sweeps.
struct Pass {
    sweep: Vec<NetSweepRow>,
    heal: Vec<PartitionHealRow>,
    audit: Vec<ObservedAuditRow>,
}

impl Pass {
    fn run(cfg: &ExperimentConfig, seed: u64) -> Pass {
        let p = Parallelism::Sequential;
        Pass {
            sweep: run_net_sweep(cfg, MAX_ROUNDS, seed, p),
            heal: run_partition_heal(cfg, MAX_ROUNDS, seed, p),
            audit: run_observed_liar_audit(cfg, MAX_ROUNDS, seed, p),
        }
    }

    /// Every cell rendered with `{:?}`, whose `f64` output round-trips,
    /// so equal renderings mean equal bits.
    fn cells(&self) -> Vec<String> {
        let sweep = self.sweep.iter().map(|r| format!("{r:?}"));
        let heal = self.heal.iter().map(|r| format!("{r:?}"));
        let audit = self.audit.iter().map(|r| format!("{r:?}"));
        sweep.chain(heal).chain(audit).collect()
    }

    fn scosts(&self) -> Vec<f64> {
        let sweep = self.sweep.iter().map(|r| r.scost);
        let heal = self.heal.iter().map(|r| r.scost);
        sweep
            .chain(heal)
            .chain(self.audit.iter().map(|r| r.scost))
            .collect()
    }

    fn rounds(&self) -> Vec<Option<usize>> {
        let sweep = self.sweep.iter().map(|r| r.rounds);
        sweep.chain(self.heal.iter().map(|r| r.rounds)).collect()
    }
}

/// The net sweep rebuilt from `build_system`, `RuntimeEngine::run_round`
/// and `scost_normalized`, every call timed.
#[derive(Default)]
struct Replay {
    rows: Vec<NetSweepRow>,
    /// Final cluster of every slot, per cell.
    membership: Vec<Vec<Option<ClusterId>>>,
    build_s: f64,
    round_s: Vec<f64>,
    /// `scost_normalized` after each cell.
    flush_s: f64,
    rounds: u64,
    sent: u64,
    dropped: u64,
    stale: u64,
    granted: u64,
    denied: u64,
}

impl Replay {
    fn round_total_s(&self) -> f64 {
        self.round_s.iter().sum()
    }
}

/// One traced pass: the sweep replayed call by call, the heal and audit
/// sweeps timed whole, and the pass's own wall clock.
struct Traced {
    replay: Replay,
    pass: Pass,
    heal_audit_s: f64,
    wall_s: f64,
}

impl Traced {
    fn layer_sum_s(&self) -> f64 {
        self.replay.build_s + self.replay.round_total_s() + self.replay.flush_s + self.heal_audit_s
    }
}

fn protocol() -> ProtocolConfig {
    ProtocolConfig::builder()
        .max_rounds(MAX_ROUNDS)
        .memoize(false)
        .build()
}

fn start(cfg: &ExperimentConfig) -> recluster_sim::scenario::TestBed {
    build_system(Scenario::SameCategory, InitialConfig::RandomM, cfg)
}

fn replay_sweep(cfg: &ExperimentConfig, seed: u64) -> Replay {
    let mut replay = Replay::default();
    let cells = DELAYS
        .iter()
        .flat_map(|&delay| DROP_PCTS.iter().map(move |&pct| (delay, pct)));
    for (i, ((min, max), pct)) in cells.enumerate() {
        let net_config = NetConfig {
            seed: derive_seed(seed, i as u64),
            delay: if min == max {
                DelayDist::Fixed(min)
            } else {
                DelayDist::Uniform { min, max }
            },
            drop_rate: pct as f64 / 100.0,
            phase_ticks: max + 2,
        };
        let (mut tb, t) = timed(|| start(cfg));
        replay.build_s += t;
        let mut ledger = SimNetwork::new();
        let mut engine = RuntimeEngine::new(SelfishStrategy, protocol(), net_config);
        let mut rounds = None;
        for round in 0..MAX_ROUNDS {
            let (outcome, t) = timed(|| engine.run_round(&mut tb.system, &mut ledger, round));
            replay.round_s.push(t);
            replay.rounds += 1;
            if outcome.requests.is_empty() {
                // The terminal request-free round is not counted, as in
                // `RunOutcome::rounds_to_converge`.
                rounds = Some(round);
                break;
            }
        }
        let (scost, t) = timed(|| scost_normalized(&tb.system));
        replay.flush_s += t;
        let stats = engine.net_stats();
        replay.sent += stats.sent;
        replay.dropped += stats.dropped;
        replay.stale += stats.stale;
        replay.granted += engine.granted_total();
        replay.denied += engine.denied_total();
        replay.rows.push(NetSweepRow {
            setting: format!("delay={min}..{max} drop={pct}%"),
            rounds,
            scost,
            moves: engine.evidence().records().len(),
            granted: engine.granted_total(),
            denied: engine.denied_total(),
            dropped: stats.dropped,
            stale: stats.stale,
        });
        replay.membership.push(membership(&tb.system));
    }
    replay
}

fn membership(system: &recluster_core::System) -> Vec<Option<ClusterId>> {
    let overlay = system.overlay();
    (0..overlay.n_slots())
        .map(|s| overlay.cluster_of(PeerId::from_index(s)))
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfg = ExperimentConfig::paper(seed);
    let mut setup_s = Vec::new();
    let mut run_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut probe = SetupProbe::default();
    repeat_for(seconds, || {
        // Each testbed is dropped, untimed, before the next is built, so
        // that the pass's peak RSS stays that of one cell.
        setup_s.push((0..BUILDS_PER_PASS).map(|_| timed(|| start(&cfg)).1).sum());
        let (pass, t) = timed(|| Pass::run(&cfg, seed));
        run_s.push(t);
        passes.push(pass);
        if trace {
            probe.measure(&cfg, &start(&cfg));
            let wall = std::time::Instant::now();
            let replay = replay_sweep(&cfg, seed);
            let ((heal, audit), heal_audit_s) = timed(|| {
                let p = Parallelism::Sequential;
                (
                    run_partition_heal(&cfg, MAX_ROUNDS, seed, p),
                    run_observed_liar_audit(&cfg, MAX_ROUNDS, seed, p),
                )
            });
            let pass = Pass {
                sweep: replay.rows.clone(),
                heal,
                audit,
            };
            traced.push(Traced {
                replay,
                pass,
                heal_audit_s,
                wall_s: wall.elapsed().as_secs_f64(),
            });
        }
    });
    // The untraced run replays the sweep once, untimed, for the frame
    // counts `run_net_sweep` does not report and for the checks.
    let untimed;
    let replay = match traced.first() {
        Some(t) => &t.replay,
        None => {
            untimed = replay_sweep(&cfg, seed);
            &untimed
        }
    };

    let mut out = Outcome::default();
    check(&mut out.checks, &cfg, &passes, &traced, replay);

    let first = &passes[0];
    let scosts = first.scosts();
    let rounds: Vec<f64> = first.rounds().iter().flatten().map(|&r| r as f64).collect();
    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("run_s", median(&run_s), "s");
    out.e2e(
        "scost",
        scosts.iter().sum::<f64>() / scosts.len() as f64,
        "cost",
    );
    out.extra(
        "rounds",
        ratio(rounds.iter().sum(), rounds.len() as f64),
        "rounds",
    );
    out.extra(
        "frames_per_round",
        ratio(replay.sent as f64, replay.rounds as f64),
        "frames",
    );
    out.note(format!(
        "runtime_200p slowest cell: {} of {MAX_ROUNDS} rounds",
        first.rounds().iter().flatten().max().copied().unwrap_or(0)
    ));
    for row in &first.heal {
        out.note(format!(
            "runtime_200p partition-heal {}: gap {:+.4} (scost {} vs ideal {}; reported, not gated)",
            row.setting, row.gap, row.scost, row.ideal
        ));
    }
    out.note(format!(
        "runtime_200p seed={seed}: {} repetitions, run_s samples {run_s:?}",
        run_s.len()
    ));

    if trace {
        let med = |f: fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let rounds: Vec<f64> = traced
            .iter()
            .flat_map(|t| t.replay.round_s.iter().copied())
            .collect();
        out.layer("scenario.build_s", med(|t| t.replay.build_s), "s");
        probe.report(&mut out);
        out.layer("costcache.flush_s", med(|t| t.replay.flush_s), "s");
        out.layer(
            "runtime.round_total_s",
            med(|t| t.replay.round_total_s()),
            "s",
        );
        out.layer("runtime.round_s.median", median(&rounds), "s");
        out.layer("runtime.round_s.p97_5", quantile(&rounds, 0.975), "s");
        out.layer("runtime.rounds", replay.rounds as f64, "count");
        out.layer("runtime.frames_sent", replay.sent as f64, "count");
        out.layer("runtime.frames_dropped", replay.dropped as f64, "count");
        out.layer("runtime.frames_stale", replay.stale as f64, "count");
        out.layer("runtime.granted", replay.granted as f64, "count");
        out.layer("runtime.denied", replay.denied as f64, "count");
        out.layer("netsim.heal_audit_s", med(|t| t.heal_audit_s), "s");
        let walls: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();
        let sums: Vec<f64> = traced.iter().map(Traced::layer_sum_s).collect();
        out.trace_summary(&walls, &sums, median(&run_s));
    }
    out
}

/// Checks every cell of every pass: bit-identical to the first pass;
/// every sweep and heal cell converged within its budget; the audit
/// cells at precision = recall = 1 (so no honest peer is flagged); the
/// replayed sweep bit-identical to `run_net_sweep`; and the ideal sweep
/// cell bit-identical to the sync `ProtocolEngine` on the same start.
fn check(
    checks: &mut Checks,
    cfg: &ExperimentConfig,
    passes: &[Pass],
    traced: &[Traced],
    replay: &Replay,
) {
    let reference = passes[0].cells();
    let ideal_problem = ideal_cell_problem(cfg, &passes[0].sweep[0], &replay.membership[0]);
    let runs = passes
        .iter()
        .enumerate()
        .map(|(i, p)| ("sweeps", i, p))
        .chain(
            traced
                .iter()
                .enumerate()
                .map(|(i, t)| ("traced", i, &t.pass)),
        );
    for (source, rep, pass) in runs {
        let cells = pass.cells();
        let rounds = pass.rounds();
        for (c, cell) in cells.iter().enumerate() {
            let mut problems = Vec::new();
            if reference.get(c) != Some(cell) {
                problems.push(format!("differs from the first pass: {cell}"));
            }
            if let Some(None) = rounds.get(c) {
                problems.push(format!("did not converge within {MAX_ROUNDS} rounds"));
            }
            if let Some(row) = c
                .checked_sub(pass.sweep.len() + pass.heal.len())
                .map(|a| &pass.audit[a])
            {
                if row.precision != 1.0 || row.recall != 1.0 {
                    problems.push(format!(
                        "audit precision {} recall {}, want 1 and 1",
                        row.precision, row.recall
                    ));
                }
            }
            if c < replay.rows.len() && format!("{:?}", replay.rows[c]) != reference[c] {
                problems.push(format!("replayed cell differs: {:?}", replay.rows[c]));
            }
            if c == 0 {
                problems.extend(ideal_problem.clone());
            }
            checks.op(|| format!("{source} #{rep} cell {c}"), problems);
        }
        if cells.len() != reference.len() {
            checks.op(
                || format!("{source} #{rep}"),
                vec![format!("{} cells, want {}", cells.len(), reference.len())],
            );
        }
    }
}

/// The sync engine on the ideal cell's start must reach the same
/// configuration, cost bits, round count and moves as the runtime.
fn ideal_cell_problem(
    cfg: &ExperimentConfig,
    row: &NetSweepRow,
    runtime_membership: &[Option<ClusterId>],
) -> Option<String> {
    let mut tb = start(cfg);
    let outcome = ProtocolEngine::new(SelfishStrategy, protocol())
        .run(&mut tb.system, &mut SimNetwork::new());
    let scost = scost_normalized(&tb.system);
    let rounds = outcome.converged.then(|| outcome.rounds_to_converge());
    let same = scost.to_bits() == row.scost.to_bits()
        && rounds == row.rounds
        && outcome.total_moves() == row.moves
        && membership(&tb.system) == runtime_membership;
    (!same).then(|| {
        format!(
            "ProtocolEngine on the ideal cell's start: scost {scost} rounds {rounds:?} moves {}, runtime: {row:?}",
            outcome.total_moves()
        )
    })
}
