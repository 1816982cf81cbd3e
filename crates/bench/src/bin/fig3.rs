//! Reproduces **Figure 3**: "Social Cost for different percentages of
//! updated (left) peers and (right) data" (§4.2) — content updates
//! against the converged scenario-1 overlay.

use recluster_bench::{banner, fig23, seed_from_env, small_from_env};
use recluster_sim::fig23::UpdateMode;
use recluster_sim::scenario::ExperimentConfig;

fn main() {
    let seed = seed_from_env();
    let small = small_from_env();
    banner("Figure 3", "Koloniari & Pitoura 2008, Fig. 3", seed, small);
    let cfg = if small {
        ExperimentConfig::small(seed)
    } else {
        ExperimentConfig::paper(seed)
    };
    fig23(
        "Fig. 3",
        &cfg,
        [
            (UpdateMode::DataPeers, "left: % of updated peers"),
            (UpdateMode::DataBlend, "right: % of updated data"),
        ],
    );

    println!("Paper reference: the roles swap relative to Fig. 2 — altruistic providers");
    println!("whose content changed no longer serve their own cluster and relocate to the");
    println!("cluster demanding the new category, while selfish peers have no motive to");
    println!("move (their own workload did not change).");
}
