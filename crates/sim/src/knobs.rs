//! Environment-knob parsing shared by the sim binaries.
//!
//! Every reader here distinguishes *unset* (silent default) from *set
//! but malformed*: a malformed value gets a stderr warning naming the
//! knob and the rejected value before the default applies, so a typo'd
//! override can never masquerade as a deliberate choice.
//!
//! [`Knobs::from_env`] is the single entry point the binaries use: it
//! reads every `RECLUSTER_*` runtime knob once into a typed struct, so
//! a new knob lands in exactly one place (here) instead of scattered
//! `std::env::var` calls.

use recluster_core::{
    CrashWindow, DecisionSource, DelayDist, FaultSchedule, LiarConfig, LiarMode, NetConfig,
    Partition, PartitionKind,
};
use recluster_overlay::RoutingMode;
use recluster_types::PeerId;

/// A partition spec parsed from `RECLUSTER_NET_PARTITION`, before the
/// peer count is known. [`Knobs::fault_schedule`] resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionSpec {
    /// `start..heal` — bisect the peer set at half its size.
    BisectHalf,
    /// `bisect:<pivot>@start..heal` — bisect at an explicit pivot.
    Bisect(u32),
    /// `isolate:<peer>@start..heal` — cut one peer off.
    Isolate(u32),
}

/// Reads `name` as a timed partition: `start..heal` (bisect at half
/// the peer set), `bisect:<pivot>@start..heal`, or
/// `isolate:<peer>@start..heal`. Same warning discipline as
/// [`env_u64`].
pub fn env_partition(name: &str) -> Option<(PartitionSpec, u64, u64)> {
    let raw = std::env::var(name).ok()?;
    let parse_window = |s: &str| -> Option<(u64, u64)> {
        let (lo, hi) = s.split_once("..")?;
        match (lo.trim().parse(), hi.trim().parse()) {
            (Ok(lo), Ok(hi)) if lo < hi => Some((lo, hi)),
            _ => None,
        }
    };
    let parsed = match raw.split_once('@') {
        None => parse_window(&raw).map(|(start, heal)| (PartitionSpec::BisectHalf, start, heal)),
        Some((kind, window)) => {
            let spec = match kind.trim().split_once(':') {
                Some(("bisect", pivot)) => pivot.trim().parse().ok().map(PartitionSpec::Bisect),
                Some(("isolate", peer)) => peer.trim().parse().ok().map(PartitionSpec::Isolate),
                _ => None,
            };
            match (spec, parse_window(window)) {
                (Some(spec), Some((start, heal))) => Some((spec, start, heal)),
                _ => None,
            }
        }
    };
    if parsed.is_none() {
        eprintln!("unknown {name}={raw:?}, ignoring");
    }
    parsed
}

/// Reads `name` as a comma-separated crash list: each entry is
/// `peer@down..up` (the peer is down for ticks `[down, up)`). One
/// malformed entry rejects the whole list, with the usual warning.
pub fn env_crashes(name: &str) -> Vec<CrashWindow> {
    let Ok(raw) = std::env::var(name) else {
        return Vec::new();
    };
    let parse_one = |s: &str| -> Option<CrashWindow> {
        let (peer, window) = s.split_once('@')?;
        let (lo, hi) = window.split_once("..")?;
        match (peer.trim().parse(), lo.trim().parse(), hi.trim().parse()) {
            (Ok(peer), Ok(down), Ok(up)) if down < up => Some(CrashWindow {
                peer: PeerId(peer),
                down,
                up,
            }),
            _ => None,
        }
    };
    match raw.split(',').map(parse_one).collect() {
        Some(windows) => windows,
        None => {
            eprintln!("unknown {name}={raw:?}, ignoring");
            Vec::new()
        }
    }
}

/// Reads `name` as a `u64`. Unset → `None` silently; set but
/// unparsable → a stderr warning, then `None` (the caller's default
/// applies).
pub fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("unknown {name}={raw:?}, ignoring");
            None
        }
    }
}

/// Reads `name` as a boolean flag: `1`/`true` or `0`/`false` (case
/// ignored). Same warning discipline as [`env_u64`].
pub fn env_flag(name: &str) -> Option<bool> {
    let raw = std::env::var(name).ok()?;
    match raw.to_ascii_lowercase().as_str() {
        "1" | "true" => Some(true),
        "0" | "false" => Some(false),
        _ => {
            eprintln!("unknown {name}={raw:?}, ignoring");
            None
        }
    }
}

/// Reads `name` as a routing mode: `flood`, `routed`/`exact`, or
/// `lossy:<k>`. Same warning discipline as [`env_u64`].
pub fn env_routing(name: &str) -> Option<RoutingMode> {
    let raw = std::env::var(name).ok()?;
    let mode = RoutingMode::parse(&raw);
    if mode.is_none() {
        eprintln!("unknown {name}={raw:?}, ignoring");
    }
    mode
}

/// Reads `name` as an `f64` constrained to `[0, max]`. Same warning
/// discipline as [`env_u64`].
pub fn env_fraction(name: &str, max: f64) -> Option<f64> {
    let raw = std::env::var(name).ok()?;
    match raw.parse::<f64>() {
        Ok(v) if (0.0..=max).contains(&v) => Some(v),
        _ => {
            eprintln!("unknown {name}={raw:?}, ignoring");
            None
        }
    }
}

/// Reads `name` as a tick range: either a single `u64` (`"3"` →
/// `(3, 3)`) or `min..max` (`"0..5"` → `(0, 5)`). Same warning
/// discipline as [`env_u64`].
pub fn env_tick_range(name: &str) -> Option<(u64, u64)> {
    let raw = std::env::var(name).ok()?;
    let parsed = match raw.split_once("..") {
        Some((lo, hi)) => match (lo.trim().parse(), hi.trim().parse()) {
            (Ok(lo), Ok(hi)) if lo <= hi => Some((lo, hi)),
            _ => None,
        },
        None => raw.trim().parse().ok().map(|v: u64| (v, v)),
    };
    if parsed.is_none() {
        eprintln!("unknown {name}={raw:?}, ignoring");
    }
    parsed
}

/// Reads the decision source (`RECLUSTER_DECISIONS`): `oracle`
/// (default), `observed` (decay 0 — each repair acts on exactly the
/// latest period's observations), or `observed:<decay>` for an
/// exponential fold with the given weight in `[0, 1)`. Unset → `None`
/// silently; malformed → a stderr warning, then `None`.
pub fn decisions_from_env() -> Option<DecisionSource> {
    let raw = std::env::var("RECLUSTER_DECISIONS").ok()?;
    match DecisionSource::parse(&raw) {
        Some(d) => Some(d),
        None => {
            eprintln!("unknown RECLUSTER_DECISIONS={raw:?}, using oracle");
            None
        }
    }
}

/// Every `RECLUSTER_*` runtime knob, read once. `None`/`false` means
/// "unset, use the binary's default" — the per-knob parse warnings have
/// already been printed by the time `from_env` returns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Knobs {
    /// `RECLUSTER_SEED` — experiment seed.
    pub seed: Option<u64>,
    /// `RECLUSTER_SMALL` — `1`/`true`: miniature config.
    pub small: bool,
    /// `RECLUSTER_ROUTING` — `flood`, `exact` or `lossy:<k>`.
    pub routing: Option<RoutingMode>,
    /// `RECLUSTER_DECISIONS` — `oracle`, `observed`, `observed:<decay>`.
    pub decisions: Option<DecisionSource>,
    /// `RECLUSTER_TRAFFIC_QUERIES` — base query occurrences per slice.
    pub traffic_queries: Option<u64>,
    /// `RECLUSTER_TRAFFIC_SLICES` — number of traffic slices.
    pub traffic_slices: Option<u64>,
    /// `RECLUSTER_NET_DELAY` — extra per-message delay in ticks:
    /// `"3"` fixed, `"0..5"` uniform.
    pub net_delay: Option<(u64, u64)>,
    /// `RECLUSTER_NET_DROP` — per-message drop probability in `[0, 1)`.
    pub net_drop: Option<f64>,
    /// `RECLUSTER_NET_SEED` — seed of the simulated fabric's RNG.
    pub net_seed: Option<u64>,
    /// `RECLUSTER_NET_LIARS` — fraction of peers inflating claimed
    /// gains, in `[0, 1]`.
    pub net_liars: Option<f64>,
    /// `RECLUSTER_NET_PARTITION` — a timed partition: `start..heal`,
    /// `bisect:<pivot>@start..heal`, or `isolate:<peer>@start..heal`.
    pub net_partition: Option<(PartitionSpec, u64, u64)>,
    /// `RECLUSTER_NET_CRASH` — crash/restart windows, comma-separated
    /// `peer@down..up` entries.
    pub net_crash: Vec<CrashWindow>,
    /// `RECLUSTER_THREADS` — sweep worker count (`1` sequential,
    /// unset/`0` all cores).
    pub threads: Option<u64>,
}

impl Knobs {
    /// Reads every knob from the environment, warning on stderr about
    /// each malformed value as it goes.
    pub fn from_env() -> Self {
        Knobs {
            seed: env_u64("RECLUSTER_SEED"),
            small: env_flag("RECLUSTER_SMALL").unwrap_or(false),
            routing: env_routing("RECLUSTER_ROUTING"),
            decisions: decisions_from_env(),
            traffic_queries: env_u64("RECLUSTER_TRAFFIC_QUERIES"),
            traffic_slices: env_u64("RECLUSTER_TRAFFIC_SLICES"),
            net_delay: env_tick_range("RECLUSTER_NET_DELAY"),
            // drop_rate 1.0 would sever every link; the fabric rejects it.
            net_drop: env_fraction("RECLUSTER_NET_DROP", 0.999),
            net_seed: env_u64("RECLUSTER_NET_SEED"),
            net_liars: env_fraction("RECLUSTER_NET_LIARS", 1.0),
            net_partition: env_partition("RECLUSTER_NET_PARTITION"),
            net_crash: env_crashes("RECLUSTER_NET_CRASH"),
            threads: env_u64("RECLUSTER_THREADS"),
        }
    }

    /// The sweep parallelism the `RECLUSTER_THREADS` knob describes:
    /// `1` forces the sequential runner, any larger value pins that
    /// worker count, unset or `0` uses every core. Sweeps are
    /// byte-identical under all three, so this only trades wall clock.
    pub fn parallelism(&self) -> crate::runner::Parallelism {
        match self.threads {
            Some(1) => crate::runner::Parallelism::Sequential,
            Some(0) | None => crate::runner::Parallelism::Auto,
            Some(n) => crate::runner::Parallelism::Threads(n as usize),
        }
    }

    /// The network schedule the `RECLUSTER_NET_*` knobs describe —
    /// [`NetConfig::ideal`] when none of them is set.
    pub fn net_config(&self) -> NetConfig {
        let mut cfg = NetConfig::ideal();
        if let Some(seed) = self.net_seed {
            cfg.seed = seed;
        }
        if let Some((min, max)) = self.net_delay {
            cfg.delay = if min == max {
                DelayDist::Fixed(min)
            } else {
                DelayDist::Uniform { min, max }
            };
            cfg.phase_ticks = max + 2;
        }
        if let Some(drop_rate) = self.net_drop {
            cfg.drop_rate = drop_rate;
        }
        cfg
    }

    /// The fault schedule the `RECLUSTER_NET_PARTITION` and
    /// `RECLUSTER_NET_CRASH` knobs describe — empty when neither is
    /// set. `n_peers` resolves the bare `start..heal` form's "bisect at
    /// half" pivot; the explicit forms ignore it.
    pub fn fault_schedule(&self, n_peers: usize) -> FaultSchedule {
        let mut faults = FaultSchedule::none();
        if let Some((spec, start, heal)) = self.net_partition {
            let kind = match spec {
                PartitionSpec::BisectHalf => PartitionKind::Bisect {
                    pivot: (n_peers / 2) as u32,
                },
                PartitionSpec::Bisect(pivot) => PartitionKind::Bisect { pivot },
                PartitionSpec::Isolate(peer) => PartitionKind::Isolate { peer: PeerId(peer) },
            };
            faults.partitions.push(Partition { kind, start, heal });
        }
        faults.crashes = self.net_crash.clone();
        faults
    }

    /// The liar population the `RECLUSTER_NET_LIARS` knob describes
    /// (inflation ×10, selection hashed from the fabric seed) — honest
    /// when unset.
    pub fn liar_config(&self) -> LiarConfig {
        match self.net_liars {
            Some(fraction) => LiarConfig {
                fraction,
                boost: 10.0,
                seed: self.net_seed.unwrap_or(0),
                mode: LiarMode::Consistent,
            },
            None => LiarConfig::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns a distinct variable name, so the suite stays safe
    // under the parallel test runner.

    #[test]
    fn env_u64_parses_and_rejects() {
        std::env::set_var("RECLUSTER_KNOBTEST_GOOD", "42");
        assert_eq!(env_u64("RECLUSTER_KNOBTEST_GOOD"), Some(42));
        std::env::set_var("RECLUSTER_KNOBTEST_BAD", "not-a-number");
        assert_eq!(env_u64("RECLUSTER_KNOBTEST_BAD"), None);
        assert_eq!(env_u64("RECLUSTER_KNOBTEST_UNSET"), None);
    }

    #[test]
    fn env_flag_parses_and_rejects() {
        std::env::set_var("RECLUSTER_KNOBTEST_FLAG_ON", "TRUE");
        assert_eq!(env_flag("RECLUSTER_KNOBTEST_FLAG_ON"), Some(true));
        std::env::set_var("RECLUSTER_KNOBTEST_FLAG_OFF", "0");
        assert_eq!(env_flag("RECLUSTER_KNOBTEST_FLAG_OFF"), Some(false));
        std::env::set_var("RECLUSTER_KNOBTEST_FLAG_BAD", "yes please");
        assert_eq!(env_flag("RECLUSTER_KNOBTEST_FLAG_BAD"), None);
        assert_eq!(env_flag("RECLUSTER_KNOBTEST_FLAG_UNSET"), None);
    }

    #[test]
    fn env_routing_parses_and_rejects() {
        std::env::set_var("RECLUSTER_KNOBTEST_ROUTING_LOSSY", "lossy:2");
        assert_eq!(
            env_routing("RECLUSTER_KNOBTEST_ROUTING_LOSSY"),
            Some(RoutingMode::Routed(recluster_overlay::SummaryMode::TopK(2)))
        );
        std::env::set_var("RECLUSTER_KNOBTEST_ROUTING_BAD", "carrier-pigeon");
        assert_eq!(env_routing("RECLUSTER_KNOBTEST_ROUTING_BAD"), None);
        assert_eq!(env_routing("RECLUSTER_KNOBTEST_ROUTING_UNSET"), None);
    }

    #[test]
    fn env_fraction_enforces_range() {
        std::env::set_var("RECLUSTER_KNOBTEST_FRAC", "0.25");
        assert_eq!(env_fraction("RECLUSTER_KNOBTEST_FRAC", 1.0), Some(0.25));
        std::env::set_var("RECLUSTER_KNOBTEST_FRAC_BIG", "1.5");
        assert_eq!(env_fraction("RECLUSTER_KNOBTEST_FRAC_BIG", 1.0), None);
        std::env::set_var("RECLUSTER_KNOBTEST_FRAC_NEG", "-0.1");
        assert_eq!(env_fraction("RECLUSTER_KNOBTEST_FRAC_NEG", 1.0), None);
    }

    #[test]
    fn env_tick_range_accepts_fixed_and_span() {
        std::env::set_var("RECLUSTER_KNOBTEST_TICKS_ONE", "3");
        assert_eq!(env_tick_range("RECLUSTER_KNOBTEST_TICKS_ONE"), Some((3, 3)));
        std::env::set_var("RECLUSTER_KNOBTEST_TICKS_SPAN", "0..5");
        assert_eq!(
            env_tick_range("RECLUSTER_KNOBTEST_TICKS_SPAN"),
            Some((0, 5))
        );
        std::env::set_var("RECLUSTER_KNOBTEST_TICKS_INV", "5..0");
        assert_eq!(env_tick_range("RECLUSTER_KNOBTEST_TICKS_INV"), None);
        std::env::set_var("RECLUSTER_KNOBTEST_TICKS_BAD", "fast");
        assert_eq!(env_tick_range("RECLUSTER_KNOBTEST_TICKS_BAD"), None);
    }

    #[test]
    fn decisions_knob_round_trips() {
        for (raw, want) in [
            ("oracle", DecisionSource::Oracle),
            ("observed", DecisionSource::Observed { decay: 0.0 }),
            ("observed:0.5", DecisionSource::Observed { decay: 0.5 }),
        ] {
            assert_eq!(DecisionSource::parse(raw), Some(want));
        }
        assert_eq!(DecisionSource::parse("observed:1.5"), None);
        assert_eq!(DecisionSource::parse("psychic"), None);
    }

    #[test]
    fn default_knobs_describe_the_ideal_network() {
        let knobs = Knobs::default();
        assert_eq!(knobs.net_config(), NetConfig::ideal());
        assert_eq!(knobs.liar_config(), LiarConfig::none());
        assert!(knobs.fault_schedule(40).is_empty());
    }

    #[test]
    fn env_partition_accepts_all_three_forms() {
        std::env::set_var("RECLUSTER_KNOBTEST_PART_BARE", "5..40");
        assert_eq!(
            env_partition("RECLUSTER_KNOBTEST_PART_BARE"),
            Some((PartitionSpec::BisectHalf, 5, 40))
        );
        std::env::set_var("RECLUSTER_KNOBTEST_PART_BISECT", "bisect:7@5..40");
        assert_eq!(
            env_partition("RECLUSTER_KNOBTEST_PART_BISECT"),
            Some((PartitionSpec::Bisect(7), 5, 40))
        );
        std::env::set_var("RECLUSTER_KNOBTEST_PART_ISO", "isolate:3@5..40");
        assert_eq!(
            env_partition("RECLUSTER_KNOBTEST_PART_ISO"),
            Some((PartitionSpec::Isolate(3), 5, 40))
        );
        // Empty and inverted windows, and unknown kinds, are rejected.
        std::env::set_var("RECLUSTER_KNOBTEST_PART_EMPTY", "5..5");
        assert_eq!(env_partition("RECLUSTER_KNOBTEST_PART_EMPTY"), None);
        std::env::set_var("RECLUSTER_KNOBTEST_PART_KIND", "split:7@5..40");
        assert_eq!(env_partition("RECLUSTER_KNOBTEST_PART_KIND"), None);
        assert_eq!(env_partition("RECLUSTER_KNOBTEST_PART_UNSET"), None);
    }

    #[test]
    fn env_crashes_parses_a_list_and_rejects_whole_on_one_bad_entry() {
        std::env::set_var("RECLUSTER_KNOBTEST_CRASH_LIST", "3@5..40, 9@10..20");
        assert_eq!(
            env_crashes("RECLUSTER_KNOBTEST_CRASH_LIST"),
            vec![
                CrashWindow {
                    peer: PeerId(3),
                    down: 5,
                    up: 40
                },
                CrashWindow {
                    peer: PeerId(9),
                    down: 10,
                    up: 20
                },
            ]
        );
        std::env::set_var("RECLUSTER_KNOBTEST_CRASH_BAD", "3@5..40,oops");
        assert_eq!(env_crashes("RECLUSTER_KNOBTEST_CRASH_BAD"), Vec::new());
        assert_eq!(env_crashes("RECLUSTER_KNOBTEST_CRASH_UNSET"), Vec::new());
    }

    #[test]
    fn fault_knobs_shape_the_schedule() {
        let knobs = Knobs {
            net_partition: Some((PartitionSpec::BisectHalf, 5, 40)),
            net_crash: vec![CrashWindow {
                peer: PeerId(3),
                down: 10,
                up: 20,
            }],
            ..Knobs::default()
        };
        let faults = knobs.fault_schedule(40);
        assert_eq!(
            faults.partitions,
            vec![Partition {
                kind: PartitionKind::Bisect { pivot: 20 },
                start: 5,
                heal: 40
            }]
        );
        assert_eq!(faults.crashes, knobs.net_crash);
        let isolate = Knobs {
            net_partition: Some((PartitionSpec::Isolate(3), 5, 40)),
            ..Knobs::default()
        };
        assert_eq!(
            isolate.fault_schedule(40).partitions[0].kind,
            PartitionKind::Isolate { peer: PeerId(3) }
        );
    }

    #[test]
    fn net_knobs_shape_the_config() {
        let knobs = Knobs {
            net_delay: Some((0, 5)),
            net_drop: Some(0.1),
            net_seed: Some(7),
            net_liars: Some(0.25),
            ..Knobs::default()
        };
        let cfg = knobs.net_config();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.delay, DelayDist::Uniform { min: 0, max: 5 });
        assert_eq!(cfg.drop_rate, 0.1);
        assert_eq!(cfg.phase_ticks, 7);
        let liars = knobs.liar_config();
        assert_eq!(liars.fraction, 0.25);
        assert_eq!(liars.seed, 7);
        let fixed = Knobs {
            net_delay: Some((4, 4)),
            ..Knobs::default()
        };
        assert_eq!(fixed.net_config().delay, DelayDist::Fixed(4));
    }
}
