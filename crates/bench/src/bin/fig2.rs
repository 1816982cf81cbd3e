//! Reproduces **Figure 2**: "Social Cost for different percentages of
//! updated (left) peers and (right) query workload" (§4.2) — workload
//! updates against the converged scenario-1 overlay, cluster count held
//! fixed, ε = 0.001.

use recluster_bench::{banner, fig23, seed_from_env, small_from_env};
use recluster_sim::fig23::UpdateMode;
use recluster_sim::scenario::ExperimentConfig;

fn main() {
    let seed = seed_from_env();
    let small = small_from_env();
    banner("Figure 2", "Koloniari & Pitoura 2008, Fig. 2", seed, small);
    let cfg = if small {
        ExperimentConfig::small(seed)
    } else {
        ExperimentConfig::paper(seed)
    };
    fig23(
        "Fig. 2",
        &cfg,
        [
            (UpdateMode::WorkloadPeers, "left: % of updated peers"),
            (UpdateMode::WorkloadBlend, "right: % of updated workload"),
        ],
    );

    println!("Paper reference: selfish repairs the cost once more than ~50% of the");
    println!("workload has changed; altruistic providers move only when the demand from");
    println!("c_cur overtakes what they already serve at home (large fractions). Neither");
    println!("recovers the original cost exactly — joined clusters grew.");
}
