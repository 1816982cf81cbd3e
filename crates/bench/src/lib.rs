//! Shared helpers for the experiment binaries and Criterion benches of
//! the `recluster` reproduction.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (§4):
//!
//! | binary      | artifact  | content |
//! |-------------|-----------|---------|
//! | `table1`    | Table 1   | rounds / #clusters / SCost / WCost per scenario × init × strategy |
//! | `fig1`      | Figure 1  | per-round social & workload cost, scenario 1 |
//! | `fig2`      | Figure 2  | social cost vs. fraction of updated peers / workload |
//! | `fig3`      | Figure 3  | social cost vs. fraction of updated peers / data |
//! | `fig4`      | Figure 4  | individual cost vs. workload change for α ∈ {0,1,2} |
//! | `baselines` | (ours)    | local protocol vs. k-means / random / none |
//!
//! The Criterion benches under `benches/` measure the protocol's compute
//! costs and ablate design choices (θ shape, ε, hybrid λ, lock rule).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use recluster_sim::fig23::{run_figure, standard_fractions, UpdateMode};
use recluster_sim::knobs::{env_flag, env_routing, env_u64, Knobs};
use recluster_sim::report::render_table;
use recluster_sim::scenario::ExperimentConfig;
use recluster_sim::{Parallelism, RoutingMode};

/// Seed used by all experiment binaries unless overridden by the
/// `RECLUSTER_SEED` environment variable.
pub const DEFAULT_SEED: u64 = 2008;

/// Reads the sweep parallelism (`RECLUSTER_THREADS`): `1` forces the
/// sequential runner, any larger value pins that worker count, unset
/// (or `0`) uses every available core. Parallel and sequential sweeps
/// produce byte-identical reports (asserted in
/// `recluster-sim/tests/determinism.rs`), so this only trades wall
/// clock, never results. A malformed value is reported on stderr and
/// treated as unset.
pub fn parallelism_from_env() -> Parallelism {
    Knobs {
        threads: env_u64("RECLUSTER_THREADS"),
        ..Knobs::default()
    }
    .parallelism()
}

/// Reads the query-routing mode (`RECLUSTER_ROUTING`): `flood`
/// (default), `routed`/`exact` for cluster-directed routing with exact
/// summaries, or `lossy:<k>` for top-`k` lossy summaries. Exact routing
/// returns bit-identical results to flooding (property-tested in
/// `recluster-core/tests/prop_routing.rs`) with far fewer messages;
/// lossy routing additionally reports its false-negative rate. A
/// malformed value is reported on stderr and flooding applies.
pub fn routing_from_env() -> RoutingMode {
    env_routing("RECLUSTER_ROUTING").unwrap_or(RoutingMode::Flood)
}

/// Reads the experiment seed (`RECLUSTER_SEED`, default
/// [`DEFAULT_SEED`]). A malformed value is reported on stderr and the
/// default applies.
pub fn seed_from_env() -> u64 {
    env_u64("RECLUSTER_SEED").unwrap_or(DEFAULT_SEED)
}

/// Whether to run the miniature testbed instead of the paper-scale one
/// (`RECLUSTER_SMALL=1`); keeps CI and demo runs fast. A malformed value
/// is reported on stderr and the paper scale applies.
pub fn small_from_env() -> bool {
    env_flag("RECLUSTER_SMALL").unwrap_or(false)
}

/// Prints the standard experiment banner.
pub fn banner(name: &str, paper_ref: &str, seed: u64, small: bool) {
    println!("=== {name} — reproduces {paper_ref} ===");
    println!(
        "seed={seed} scale={} workers={} (set RECLUSTER_SEED / RECLUSTER_SMALL=1 / \
         RECLUSTER_THREADS=n to vary)",
        if small {
            "small (40 peers, 4 categories)"
        } else {
            "paper (200 peers, 10 categories)"
        },
        parallelism_from_env().workers(),
    );
    println!();
}

/// Prints the two panels of Figure 2 or 3: for each `(mode, label)`
/// panel, one row per updated fraction with the social cost after the
/// update and, for the selfish and the altruistic repair, the social
/// cost after repair and the number of moves.
pub fn fig23(figure: &str, cfg: &ExperimentConfig, panels: [(UpdateMode, &str); 2]) {
    let fractions = standard_fractions();
    for (mode, label) in panels {
        println!("--- {figure} ({label}) ---");
        let series = run_figure(cfg, mode, &fractions, 300);
        let headers = [
            "fraction",
            "scost-after-update",
            "selfish(after)",
            "selfish moves",
            "altruistic(after)",
            "altruistic moves",
        ];
        let rows: Vec<Vec<String>> = fractions
            .iter()
            .enumerate()
            .map(|(i, f)| {
                vec![
                    format!("{f:.1}"),
                    format!("{:.3}", series[0].points[i].scost_before),
                    format!("{:.3}", series[0].points[i].scost_after),
                    series[0].points[i].moves.to_string(),
                    format!("{:.3}", series[1].points[i].scost_after),
                    series[1].points[i].moves.to_string(),
                ]
            })
            .collect();
        println!("{}", render_table(&headers, &rows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_stable() {
        assert_eq!(DEFAULT_SEED, 2008);
    }

    #[test]
    fn env_seed_parsing_has_a_fallback() {
        let seed = seed_from_env();
        assert!(seed > 0);
    }

    #[test]
    fn routing_defaults_to_flood() {
        // The suite never sets RECLUSTER_ROUTING; the default must keep
        // the paper's evaluation assumption.
        if std::env::var("RECLUSTER_ROUTING").is_err() {
            assert_eq!(routing_from_env(), RoutingMode::Flood);
        }
    }
}
