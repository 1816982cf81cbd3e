//! Best responses and Nash equilibria (§2.3).
//!
//! "A (pure) Nash equilibrium is a set of strategies S such that […] no
//! peer has an incentive to change the set of clusters it currently
//! belongs to." The paper proves by a two-peer example that an
//! equilibrium does not always exist; that example is reproduced in this
//! module's tests.

use recluster_types::{ClusterId, PeerId};

use crate::cost::{pcost, pcost_current};
use crate::view::SystemRead;

/// Float slack used when comparing costs, so ulp-level noise never counts
/// as an "improvement".
pub const COST_EPS: f64 = 1e-9;

/// A peer's best response: the cheapest cluster and the gain over its
/// current cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestResponse {
    /// The cost-minimizing cluster (the peer's current one if no strict
    /// improvement exists).
    pub cluster: ClusterId,
    /// `pcost(p, current) − pcost(p, best)`; zero when staying is
    /// optimal.
    pub gain: f64,
}

/// Computes the best response of `peer` over all `Cmax` clusters
/// (including empty ones unless `allow_empty` is false — §4.2 fixes the
/// cluster count and forbids moves to empty clusters).
///
/// Ties are broken toward the current cluster first, then the lowest
/// cluster id, so the result is deterministic.
///
/// Cost: O(non-empty clusters), not O(`Cmax`). Every empty cluster has
/// the same cost for a given peer (size 0, no recall mass), so only the
/// *first* empty slot can ever win a strict-improvement scan over
/// ascending ids — it is evaluated at exactly its id position and the
/// rest are skipped, which selects the same cluster a full scan would.
///
/// # Panics
/// Panics if the peer is unassigned.
pub fn best_response<S: SystemRead + ?Sized>(
    system: &S,
    peer: PeerId,
    allow_empty: bool,
) -> BestResponse {
    best_response_traced(system, peer, allow_empty, &mut Vec::new())
}

/// [`best_response`] with the scan's take chain recorded into `chain`
/// (see [`best_response_with_chain`]).
pub(crate) fn best_response_traced<S: SystemRead + ?Sized>(
    system: &S,
    peer: PeerId,
    allow_empty: bool,
    chain: &mut Vec<ClusterId>,
) -> BestResponse {
    let current = system
        .overlay()
        .cluster_of(peer)
        .unwrap_or_else(|| panic!("{peer} is unassigned"));
    best_response_with_chain(
        system,
        current,
        pcost_current(system, peer),
        allow_empty,
        |cid| pcost(system, peer, cid),
        chain,
    )
}

/// The selfish candidate scan behind [`best_response`], over any cost
/// source: the oracle passes [`pcost`], the observed strategy its
/// estimated cost. `current` is the peer's cluster and `current_cost`
/// its cost there; `cost_of(cid)` is the cost of joining `cid`.
///
/// The scan additionally records its **take chain** into `chain`
/// (cleared first): the successive clusters that strictly improved the
/// running best, in scan order, ending with the returned cluster (empty
/// when staying is optimal). The chain is what cross-round proposal
/// memoization needs — a memoized scan replays identically as long as
/// no cluster *in the chain* changed and no changed cluster newly
/// undercuts the final best, because a cluster outside the chain was
/// rejected against a running best that is at most the current cost at
/// every scan position.
pub fn best_response_with_chain<S: SystemRead + ?Sized>(
    system: &S,
    current: ClusterId,
    current_cost: f64,
    allow_empty: bool,
    cost_of: impl Fn(ClusterId) -> f64,
    chain: &mut Vec<ClusterId>,
) -> BestResponse {
    chain.clear();
    let mut best = BestResponse {
        cluster: current,
        gain: 0.0,
    };
    let mut best_cost = current_cost;
    let mut consider = |cid: ClusterId, best: &mut BestResponse, best_cost: &mut f64| {
        if cid == current {
            return;
        }
        let cost = cost_of(cid);
        if cost < *best_cost - COST_EPS {
            *best_cost = cost;
            *best = BestResponse {
                cluster: cid,
                gain: current_cost - cost,
            };
            chain.push(cid);
        }
    };
    let mut pending_empty = if allow_empty {
        system.overlay().first_empty_cluster()
    } else {
        None
    };
    for &cid in system.overlay().non_empty_ids() {
        if let Some(empty) = pending_empty {
            if empty < cid {
                consider(empty, &mut best, &mut best_cost);
                pending_empty = None;
            }
        }
        consider(cid, &mut best, &mut best_cost);
    }
    if let Some(empty) = pending_empty {
        consider(empty, &mut best, &mut best_cost);
    }
    best
}

/// Whether the current configuration is a (pure) Nash equilibrium: no
/// peer can strictly lower its cost by relocating.
pub fn is_nash_equilibrium<S: SystemRead + ?Sized>(system: &S, allow_empty: bool) -> bool {
    system
        .overlay()
        .peers()
        .all(|p| best_response(system, p, allow_empty).gain <= COST_EPS)
}

/// Best response in the *general* §2.1 game where strategies are cluster
/// sets: enumerates all subsets of the non-empty clusters (plus one
/// empty slot) up to `max_set_size` and returns the cheapest, with its
/// cost. Exponential in `max_set_size` — intended for analysis on small
/// systems, not for the protocol hot path.
pub fn best_response_set<S: SystemRead + ?Sized>(
    system: &S,
    peer: PeerId,
    max_set_size: usize,
) -> (Vec<ClusterId>, f64) {
    let mut candidates: Vec<ClusterId> = system.overlay().non_empty_ids().to_vec();
    if let Some(empty) = system.overlay().first_empty_cluster() {
        candidates.push(empty);
    }
    best_response_set_over(system, peer, &candidates, max_set_size)
}

/// [`best_response_set`] over an explicit candidate list. The candidate
/// clusters of the §2.1 game (non-empty ids plus the first empty slot)
/// are identical for every peer, so callers sweeping *many* peers
/// against one fixed configuration — the ablation drivers — compute the
/// list once (a plain borrow of the overlay's maintained non-empty ids)
/// instead of re-deriving it per peer.
pub fn best_response_set_over<S: SystemRead + ?Sized>(
    system: &S,
    peer: PeerId,
    candidates: &[ClusterId],
    max_set_size: usize,
) -> (Vec<ClusterId>, f64) {
    let mut best_set = Vec::new();
    let mut best_cost = crate::cost::pcost_set(system, peer, &[]);
    // Subset enumeration by bitmask over the candidate list.
    let n = candidates.len().min(20); // cap the mask width defensively
    for mask in 1u32..(1 << n) {
        if (mask.count_ones() as usize) > max_set_size {
            continue;
        }
        let set: Vec<ClusterId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| candidates[i])
            .collect();
        let cost = crate::cost::pcost_set(system, peer, &set);
        if cost < best_cost - COST_EPS {
            best_cost = cost;
            best_set = set;
        }
    }
    (best_set, best_cost)
}

/// The largest best-response gain over all peers (zero at equilibrium) —
/// a convergence diagnostic.
pub fn max_gain<S: SystemRead + ?Sized>(system: &S, allow_empty: bool) -> f64 {
    system
        .overlay()
        .peers()
        .map(|p| best_response(system, p, allow_empty).gain)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::{ContentStore, Overlay, Theta};
    use recluster_types::{Document, Query, Sym, Workload};

    use crate::system::{GameConfig, System};

    /// The §2.3 counter-example: Q(p1) = {q1} answered only by p2,
    /// Q(p2) = {q2} answered only by p2, linear θ, α > 0.
    fn paper_counter_example(alpha: f64) -> System {
        let ov = Overlay::singletons(2);
        let mut store = ContentStore::new(2);
        store.add(PeerId(1), Document::new(vec![Sym(1), Sym(2)]));
        let mut w1 = Workload::new();
        w1.add(Query::keyword(Sym(1)), 1);
        let mut w2 = Workload::new();
        w2.add(Query::keyword(Sym(2)), 1);
        System::new(
            ov,
            store,
            vec![w1, w2],
            GameConfig {
                alpha,
                theta: Theta::Linear,
            },
        )
    }

    #[test]
    fn no_configuration_of_the_paper_example_is_an_equilibrium() {
        // Configuration A: p1 ∈ c1, p2 ∈ c2 (as built): p1 wants to move.
        let sys = paper_counter_example(1.0);
        assert!(!is_nash_equilibrium(&sys, true));
        let br = best_response(&sys, PeerId(0), true);
        assert_eq!(br.cluster, ClusterId(1));
        assert!((br.gain - 0.5).abs() < 1e-12);

        // Configuration B: both in the same cluster: p2 wants to flee to
        // an empty cluster.
        let mut sys = paper_counter_example(1.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        assert!(!is_nash_equilibrium(&sys, true));
        let br = best_response(&sys, PeerId(1), true);
        assert!(sys.overlay().cluster(br.cluster).is_empty());
        assert!((br.gain - 0.5).abs() < 1e-12);

        // Configuration C: swapped singletons (symmetric to A).
        let mut sys = paper_counter_example(1.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        sys.move_peer(PeerId(1), ClusterId(0));
        assert!(!is_nash_equilibrium(&sys, true));
    }

    #[test]
    fn counter_example_cycles_for_small_positive_alpha() {
        // The paper states the example has no equilibrium "for any value
        // of α > 0", but its own arithmetic (pcost(p1,c2) = α ≤ α/2 + 1)
        // requires α < 2 for a *strict* improvement; at α ≥ 2 the
        // split configuration is stable. We reproduce the claim on its
        // actual domain.
        for &alpha in &[0.1, 0.5, 1.0, 1.9] {
            let sys = paper_counter_example(alpha);
            assert!(
                !is_nash_equilibrium(&sys, true),
                "alpha={alpha} should not be an equilibrium"
            );
        }
    }

    #[test]
    fn counter_example_stabilizes_for_large_alpha() {
        // α ≥ 2: membership dominates; the singleton split is stable.
        let sys = paper_counter_example(3.0);
        assert!(is_nash_equilibrium(&sys, true));
    }

    #[test]
    fn alpha_zero_makes_joint_cluster_an_equilibrium() {
        // With α = 0 membership is free: both peers together is stable.
        let mut sys = paper_counter_example(0.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        assert!(is_nash_equilibrium(&sys, true));
    }

    #[test]
    fn forbidding_empty_targets_can_stabilize() {
        // In configuration B, p2's only improving move is to an empty
        // cluster; with empty targets forbidden the state is stable.
        let mut sys = paper_counter_example(1.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        assert!(!is_nash_equilibrium(&sys, true));
        assert!(is_nash_equilibrium(&sys, false));
    }

    #[test]
    fn best_response_prefers_staying_on_ties() {
        // Symmetric system: two peers, no data, no queries.
        let ov = Overlay::singletons(2);
        let store = ContentStore::new(2);
        let sys = System::new(
            ov,
            store,
            vec![Workload::new(), Workload::new()],
            GameConfig::default(),
        );
        let br = best_response(&sys, PeerId(0), true);
        assert_eq!(br.cluster, ClusterId(0));
        assert_eq!(br.gain, 0.0);
    }

    #[test]
    fn max_gain_is_zero_at_equilibrium() {
        let mut sys = paper_counter_example(0.0);
        sys.move_peer(PeerId(0), ClusterId(1));
        assert_eq!(max_gain(&sys, true), 0.0);
    }

    #[test]
    fn set_best_response_dominates_single_cluster() {
        // The §2.1 general game can only do better than single
        // membership: its optimum is ≤ the single-cluster optimum.
        let sys = paper_counter_example(0.2);
        for p in [PeerId(0), PeerId(1)] {
            let single = best_response(&sys, p, true);
            let single_cost = pcost(&sys, p, single.cluster);
            let (_, set_cost) = best_response_set(&sys, p, 2);
            assert!(set_cost <= single_cost + 1e-12);
        }
    }

    #[test]
    fn set_best_response_joins_everything_when_membership_is_cheap() {
        // α = 0: membership is free, so the optimal set reaches every
        // result; for p1 that means including p2's cluster.
        let sys = paper_counter_example(0.0);
        let (set, cost) = best_response_set(&sys, PeerId(0), 2);
        assert!(set.contains(&ClusterId(1)), "must cover p2's data: {set:?}");
        assert!(cost.abs() < 1e-12);
    }

    #[test]
    fn set_best_response_stays_single_when_membership_dominates() {
        // Large α: every extra cluster costs more than the recall it
        // recovers, so the best set has at most one cluster.
        let sys = paper_counter_example(3.0);
        let (set, _) = best_response_set(&sys, PeerId(1), 2);
        assert!(
            set.len() <= 1,
            "α=3 should not buy extra memberships: {set:?}"
        );
    }

    #[test]
    fn max_gain_matches_best_peer() {
        let sys = paper_counter_example(1.0);
        let g0 = best_response(&sys, PeerId(0), true).gain;
        let g1 = best_response(&sys, PeerId(1), true).gain;
        assert!((max_gain(&sys, true) - g0.max(g1)).abs() < 1e-12);
    }
}
