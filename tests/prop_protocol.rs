//! Property-based tests of the reformulation protocol: the anti-cycle
//! lock rule, grant determinism, and round/run invariants.

use proptest::prelude::*;
use recluster_core::protocol::grant_requests;
use recluster_core::{
    EmptyTargetPolicy, ProtocolConfig, ProtocolEngine, RelocationRequest, SelfishStrategy,
};
use recluster_core::{GameConfig, System};
use recluster_overlay::{ContentStore, Overlay, SimNetwork, Theta};
use recluster_types::{ClusterId, Document, PeerId, Query, Sym, Workload};

fn arb_requests() -> impl Strategy<Value = Vec<RelocationRequest>> {
    proptest::collection::vec(
        (0u32..6, 0u32..6, 0u32..16, 0.0f64..2.0).prop_filter_map(
            "src != dst",
            |(src, dst, peer, gain)| {
                (src != dst).then_some(RelocationRequest {
                    src: ClusterId(src),
                    dst: ClusterId(dst),
                    peer: PeerId(peer),
                    gain,
                })
            },
        ),
        0..12,
    )
}

/// Runs a raw request list through the production phase-2 kernel both
/// protocol drivers call, returning the granted requests in grant order.
fn grant(requests: &[RelocationRequest]) -> Vec<RelocationRequest> {
    let mut sorted = requests.to_vec();
    RelocationRequest::sort_requests(&mut sorted);
    grant_requests(&sorted, true)
        .filter_map(|(req, verdict)| verdict.is_ok().then_some(req))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No two granted requests violate the lock rule: once ci→cj is
    /// granted, nothing later joins ci or leaves cj.
    #[test]
    fn grants_respect_the_lock_rule(requests in arb_requests()) {
        let granted = grant(&requests);
        for (i, a) in granted.iter().enumerate() {
            for b in granted.iter().skip(i + 1) {
                prop_assert_ne!(b.dst, a.src, "later join into leave-locked cluster");
                prop_assert_ne!(b.src, a.dst, "later leave from join-locked cluster");
            }
        }
    }

    /// In particular no swap (a→b, b→a) and no 2-cycle is ever granted.
    #[test]
    fn no_move_cycles_granted(requests in arb_requests()) {
        let granted = grant(&requests);
        for a in &granted {
            for b in &granted {
                if a.src != b.src {
                    prop_assert!(!(a.src == b.dst && a.dst == b.src), "swap granted");
                }
            }
        }
    }

    /// Grant decisions are independent of request arrival order — the
    /// property that lets every representative decide alone (§3.2).
    #[test]
    fn grants_are_order_independent(requests in arb_requests(), seed in 0u64..1000) {
        let baseline = grant(&requests);
        let mut shuffled = requests.clone();
        // Deterministic shuffle.
        let mut state = seed.wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        prop_assert_eq!(baseline, grant(&shuffled));
    }

    /// The highest-gain request is always granted.
    #[test]
    fn top_request_always_granted(requests in arb_requests()) {
        prop_assume!(!requests.is_empty());
        let granted = grant(&requests);
        let mut sorted = requests.clone();
        RelocationRequest::sort_requests(&mut sorted);
        prop_assert_eq!(granted.first(), sorted.first());
    }
}

/// A deterministic random system for round-level invariants.
fn toy_system(seed: u64, n_peers: usize) -> System {
    use rand::Rng;
    let mut rng = recluster_types::seeded_rng(seed);
    let mut overlay = Overlay::unassigned(n_peers);
    for i in 0..n_peers {
        let c = rng.gen_range(0..n_peers) as u32;
        overlay.assign(PeerId::from_index(i), ClusterId(c));
    }
    let mut store = ContentStore::new(n_peers);
    let mut workloads = Vec::new();
    for i in 0..n_peers {
        for _ in 0..rng.gen_range(0..3) {
            let attrs: Vec<Sym> = (0..rng.gen_range(1..3))
                .map(|_| Sym(rng.gen_range(0..8)))
                .collect();
            store.add(PeerId::from_index(i), Document::new(attrs));
        }
        let mut w = Workload::new();
        for _ in 0..rng.gen_range(0..3) {
            w.add(
                Query::keyword(Sym(rng.gen_range(0..8))),
                rng.gen_range(1..4),
            );
        }
        workloads.push(w);
    }
    System::new(
        overlay,
        store,
        workloads,
        GameConfig {
            alpha: 1.0,
            theta: Theta::Linear,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round invariants across random systems: at most one request per
    /// source cluster, granted ⊆ requests, granted moves applied, and
    /// the overlay stays structurally sound.
    #[test]
    fn round_invariants(seed in 0u64..500, n in 3usize..8) {
        let mut sys = toy_system(seed, n);
        let mut engine = ProtocolEngine::new(SelfishStrategy, ProtocolConfig::default());
        let mut net = SimNetwork::new();
        for round in 0..5 {
            let outcome = engine.run_round(&mut sys, &mut net, round);
            let mut srcs: Vec<ClusterId> = outcome.requests.iter().map(|r| r.src).collect();
            srcs.sort();
            let len_before = srcs.len();
            srcs.dedup();
            prop_assert_eq!(srcs.len(), len_before, "duplicate src in one round");
            for g in &outcome.granted {
                prop_assert!(outcome.requests.contains(g));
                prop_assert_eq!(sys.overlay().cluster_of(g.peer), Some(g.dst));
            }
            sys.overlay().check_invariants().map_err(|e| {
                TestCaseError::fail(format!("invariant violated: {e}"))
            })?;
            if outcome.requests.is_empty() {
                break;
            }
        }
    }

    /// A full run with empty targets disabled never increases the number
    /// of non-empty clusters.
    #[test]
    fn never_policy_never_grows_cluster_count(seed in 0u64..200) {
        let mut sys = toy_system(seed, 6);
        let before = sys.overlay().non_empty_clusters();
        let cfg = ProtocolConfig::builder()
            .empty_targets(EmptyTargetPolicy::Never)
            .max_rounds(20)
            .build();
        let mut engine = ProtocolEngine::new(SelfishStrategy, cfg);
        let mut net = SimNetwork::new();
        let _ = engine.run(&mut sys, &mut net);
        prop_assert!(sys.overlay().non_empty_clusters() <= before);
    }

    /// Convergence means an exact ε-equilibrium: afterwards no peer has
    /// a gain above ε (with the same target policy).
    #[test]
    fn converged_runs_are_epsilon_stable(seed in 0u64..200) {
        let mut sys = toy_system(seed, 6);
        let cfg = ProtocolConfig::builder().max_rounds(60).build();
        let mut engine = ProtocolEngine::new(SelfishStrategy, cfg);
        let mut net = SimNetwork::new();
        let outcome = engine.run(&mut sys, &mut net);
        if outcome.converged {
            for p in sys.overlay().peers() {
                let br = recluster_core::best_response(&sys, p, true);
                prop_assert!(br.gain <= cfg.epsilon + 1e-9, "{p} kept gain {}", br.gain);
            }
        }
    }
}
