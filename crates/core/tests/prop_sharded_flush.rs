//! Equivalence suite for peer-range sharding: after *any* random
//! interleaving of membership changes, churn events, content updates
//! and workload updates,
//!
//! 1. a sharded [`CostCache`](recluster_core::CostCache) flush (and the
//!    sharded wholesale rebuild) produces the same recall / wcost /
//!    away columns as the sequential flush, **bit for bit**, under
//!    pinned 1-, 2- and 8-thread pools, and
//! 2. the sharded per-period tracker walk produces the same
//!    observations, routing report, forward histogram and network
//!    ledger as the sequential walk, bit for bit, under the same pools,
//!    and
//! 3. the traffic-only walk ([`simulate_period_traffic`]), which reads
//!    result counts from the recall index instead of walking members,
//!    charges the same per-kind ledger and reports the same routing
//!    report and histogram as the observing walk, after every op, in
//!    every routing mode, sharded or not, and
//! 4. a selfish [`ProtocolEngine`] round whose phase 1 is fanned over
//!    peer ranges forwards the same requests, grants the same moves and
//!    reaches the same costs and memo counts as the sequential round,
//!    bit for bit, under pinned 1-, 2- and 8-thread pools — on systems
//!    small enough that range boundaries fall inside clusters.
//!
//! This is the contract that lets the million-peer churn path fan its
//! two remaining single-threaded hot loops across cores without the
//! worker count ever reaching the output bytes — the same guarantee
//! the CI determinism matrix pins end-to-end.

mod common;

use common::{apply, arb_ops, arb_seed_syms, fixture};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use recluster_core::shard::set_shard_min_override;
use recluster_core::{
    simulate_period, simulate_period_traffic, MemoMisses, ProtocolConfig, ProtocolEngine,
    RelocationRequest, RoundOutcome, SelfishStrategy, System,
};
use recluster_overlay::{MsgKind, RoutingMode, SimNetwork, SummaryMode};
use recluster_types::PeerId;

/// The query-traffic ledger: `(messages, bytes)` of `QueryForward` and
/// of `ResultReturn`, then the totals over every kind.
fn query_ledger(net: &SimNetwork) -> [(u64, u64); 3] {
    [
        (
            net.messages(MsgKind::QueryForward),
            net.bytes(MsgKind::QueryForward),
        ),
        (
            net.messages(MsgKind::ResultReturn),
            net.bytes(MsgKind::ResultReturn),
        ),
        (net.total_messages(), net.total_bytes()),
    ]
}

/// Flushes the cost cache (whatever sharding the current overrides
/// select) and snapshots all three recall columns as bits.
fn flush_columns(sys: &System) -> Vec<(u64, u64, u64)> {
    let cache = sys.cost_cache();
    (0..sys.overlay().n_slots())
        .map(|slot| {
            let p = PeerId::from_index(slot);
            (
                cache.recall_loss_of(p).to_bits(),
                cache.wrecall_of(p).to_bits(),
                cache.away_of(p).to_bits(),
            )
        })
        .collect()
}

/// A request as `(src, dst, peer, gain bits)`.
type RequestBits = (u32, u32, u32, u64);

/// Bit-comparable form of a round: requests, grants, scost and wcost
/// bits, the recomputed and memoized proposal counts, the memo misses.
type RoundBits = (
    Vec<RequestBits>,
    Vec<RequestBits>,
    (u64, u64),
    (usize, usize),
    MemoMisses,
);

fn round_bits(r: &RoundOutcome) -> RoundBits {
    let reqs = |list: &[RelocationRequest]| {
        list.iter()
            .map(|q| (q.src.0, q.dst.0, q.peer.0, q.gain.to_bits()))
            .collect()
    };
    (
        reqs(&r.requests),
        reqs(&r.granted),
        (r.scost.to_bits(), r.wcost.to_bits()),
        (r.proposals_recomputed, r.proposals_memoized),
        r.memo_misses,
    )
}

/// Runs three selfish protocol rounds on a clone of `sys` with a fresh
/// engine (so rounds 1 and 2 exercise the memo) and returns their bits.
fn three_rounds(sys: &System) -> Vec<RoundBits> {
    let mut sys = sys.clone();
    let mut net = SimNetwork::new();
    let mut engine = ProtocolEngine::new(SelfishStrategy, ProtocolConfig::default());
    (0..3)
        .map(|round| round_bits(&engine.run_round(&mut sys, &mut net, round)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded flush, sharded rebuild and the sharded period walk are
    /// byte-identical to their sequential forms under every pinned
    /// worker count.
    #[test]
    fn sharded_flush_and_period_equal_sequential(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        ops in arb_ops(30),
    ) {
        let mode = RoutingMode::Routed(SummaryMode::Exact);

        // Accumulate a dirty cost cache, then clone it so every
        // configuration flushes the *same* pending state.
        let mut dirty = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        for op in ops {
            apply(&mut dirty, &mut net, op);
        }

        // Reference: forced-sequential flush + period walk.
        set_shard_min_override(Some(usize::MAX));
        let seq = dirty.clone();
        let seq_cols = flush_columns(&seq);
        let mut seq_net = SimNetwork::new();
        let (seq_obs, seq_rep, seq_hist) =
            simulate_period(&seq, &mut seq_net, mode);

        // The sharded wholesale rebuild agrees with the sequential
        // flush too (rebuild is the flush's oracle).
        let mut rebuilt = seq.clone();
        set_shard_min_override(Some(1));
        rebuilt.rebuild_cost_cache();
        let rebuilt_cols = flush_columns(&rebuilt);
        prop_assert_eq!(&seq_cols, &rebuilt_cols, "sharded rebuild vs sequential flush");

        // Sharding forced on, under pinned 1/2/8-thread pools.
        for threads in [1usize, 2, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("shim pool build never fails");
            let sys = dirty.clone();
            let mut par_net = SimNetwork::new();
            let (par_cols, par_obs, par_rep, par_hist) = pool.install(|| {
                let cols = flush_columns(&sys);
                let (obs, rep, hist) = simulate_period(&sys, &mut par_net, mode);
                (cols, obs, rep, hist)
            });
            prop_assert_eq!(&seq_cols, &par_cols, "flush columns, {} threads", threads);
            prop_assert_eq!(&seq_obs, &par_obs, "observations, {} threads", threads);
            prop_assert_eq!(seq_rep, par_rep, "report, {} threads", threads);
            prop_assert_eq!(&seq_hist, &par_hist, "histogram, {} threads", threads);
            prop_assert_eq!(seq_net.total_messages(), par_net.total_messages());
            prop_assert_eq!(seq_net.total_bytes(), par_net.total_bytes());
        }
        set_shard_min_override(None);
    }

    /// The traffic-only walk equals the observing walk's report,
    /// histogram and per-kind ledger after every op of the shared
    /// mutation universe, under flood, exact and lossy routing, with
    /// sharding forced off and on under pinned 1/2/8-thread pools.
    #[test]
    fn traffic_walk_equals_observing_walk(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        ops in arb_ops(30),
    ) {
        let modes = [
            RoutingMode::Flood,
            RoutingMode::Routed(SummaryMode::Exact),
            RoutingMode::Routed(SummaryMode::TopK(1)),
        ];
        let mut sys = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        for op in ops {
            apply(&mut sys, &mut net, op);
            for mode in modes {
                set_shard_min_override(Some(usize::MAX));
                let mut full_net = SimNetwork::new();
                let (_, full_rep, full_hist) =
                    simulate_period(&sys, &mut full_net, mode);
                for shard_min in [usize::MAX, 1] {
                    set_shard_min_override(Some(shard_min));
                    for threads in [1usize, 2, 8] {
                        let pool = ThreadPoolBuilder::new()
                            .num_threads(threads)
                            .build()
                            .expect("shim pool build never fails");
                        let mut traffic_net = SimNetwork::new();
                        let (rep, hist) =
                            pool.install(|| simulate_period_traffic(&sys, &mut traffic_net, mode));
                        prop_assert_eq!(
                            full_rep, rep,
                            "report, {:?}, shard_min {}, {} threads", mode, shard_min, threads
                        );
                        prop_assert_eq!(
                            &full_hist, &hist,
                            "histogram, {:?}, shard_min {}, {} threads", mode, shard_min, threads
                        );
                        prop_assert_eq!(
                            query_ledger(&full_net),
                            query_ledger(&traffic_net),
                            "ledger, {:?}, shard_min {}, {} threads", mode, shard_min, threads
                        );
                    }
                }
            }
        }
        set_shard_min_override(None);
    }

    /// Phase 1 fanned over peer ranges equals the sequential phase 1:
    /// after every op, three selfish rounds on a clone agree bit for
    /// bit with sharding forced off and forced on under pinned 1/2/8-
    /// thread pools.
    #[test]
    fn ranged_phase1_equals_sequential(
        docs in arb_seed_syms(),
        queries in arb_seed_syms(),
        ops in arb_ops(30),
    ) {
        let mut sys = fixture(&docs, &queries);
        let mut net = SimNetwork::new();
        for op in ops {
            apply(&mut sys, &mut net, op);
            set_shard_min_override(Some(usize::MAX));
            let seq = three_rounds(&sys);
            set_shard_min_override(Some(1));
            for threads in [1usize, 2, 8] {
                let pool = ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("shim pool build never fails");
                let par = pool.install(|| three_rounds(&sys));
                prop_assert_eq!(&seq, &par, "protocol rounds, {} threads", threads);
            }
        }
        set_shard_min_override(None);
    }
}
