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
//! 3. both period walks, which read result counts from the recall
//!    index instead of walking members, equal a member-walk reference
//!    written here ([`member_walk`]: a route plan plus
//!    `route_to_clusters` per distinct query, with per-bucket served
//!    credit) after every op, in every routing mode, sharded or not:
//!    [`simulate_period_traffic`] and [`simulate_period`] charge its
//!    per-kind ledger and report its routing report and histogram, and
//!    [`simulate_period`] records its per-peer observations,
//!    contribution estimates and served totals, bit for bit, and
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

use std::collections::BTreeMap;

use common::{apply, arb_ops, arb_seed_syms, fixture};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use recluster_core::shard::set_shard_min_override;
use recluster_core::tracker::QueryObservation;
use recluster_core::{
    simulate_period, simulate_period_traffic, ForwardHistogram, MemoMisses, ObservedStats,
    ProtocolConfig, ProtocolEngine, RelocationRequest, RoundOutcome, RoutingReport,
    SelfishStrategy, System,
};
use recluster_overlay::{
    route_to_clusters, MsgKind, RoutePlan, RoutingMode, SimNetwork, SummaryMode,
};
use recluster_types::{ClusterId, PeerId, Query};

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

/// What the member-walk reference computes for one period.
struct MemberWalk {
    net: SimNetwork,
    report: RoutingReport,
    histogram: ForwardHistogram,
    /// Per slot: the observation records a live peer should carry
    /// (empty for a departed slot).
    records: Vec<Vec<QueryObservation>>,
    served: Vec<BTreeMap<ClusterId, f64>>,
    served_total: Vec<f64>,
}

impl MemberWalk {
    /// Eq. 6 over the reference's served credit.
    fn contribution(&self, slot: usize, cid: ClusterId) -> f64 {
        let total = self.served_total[slot];
        if total == 0.0 {
            0.0
        } else {
            self.served[slot].get(&cid).copied().unwrap_or(0.0) / total
        }
    }
}

/// A query's results per answering cluster, ascending, and their total.
type Answers = (Vec<(ClusterId, u64)>, u64);

/// The observing period walk written out member by member: per
/// distinct query (in index order) with live demand, route it to the
/// plan's targets with `route_to_clusters`, charge the single
/// evaluation's ledger once per occurrence, and credit each answering
/// peer `demand × count` per requesting cluster — minus the answerer's
/// own occurrences in its home cluster, since results a peer finds in
/// its own store are not sent. Demand comes from a walk over every live
/// peer's workload and missed results from a second member walk over
/// the clusters a lossy plan skipped, so nothing here reads the recall
/// index's mass cells or the cost cache's holder lists.
fn member_walk(sys: &System, mode: RoutingMode) -> MemberWalk {
    let overlay = sys.overlay();
    let store = sys.store();
    let workloads = sys.workloads();
    let n_slots = overlay.n_slots();
    let non_empty: Vec<ClusterId> = overlay
        .cluster_ids()
        .filter(|&c| !overlay.cluster(c).is_empty())
        .collect();
    let plan = match mode {
        RoutingMode::Flood => None,
        RoutingMode::Routed(precision) => Some(RoutePlan::build(sys.summaries(), precision)),
    };
    let mut walk = MemberWalk {
        net: SimNetwork::new(),
        report: RoutingReport {
            mode,
            query_events: 0,
            forwards: 0,
            flood_forwards: 0,
            returned_results: 0,
            missed_results: 0,
        },
        histogram: ForwardHistogram::new(),
        records: vec![Vec::new(); n_slots],
        served: vec![BTreeMap::new(); n_slots],
        served_total: vec![0.0; n_slots],
    };
    let mut seen: BTreeMap<&Query, Answers> = BTreeMap::new();
    for query in sys.index().queries() {
        let mut buckets: BTreeMap<ClusterId, u64> = BTreeMap::new();
        for peer in overlay.peers() {
            let count = workloads[peer.index()].count(query);
            if count > 0 {
                let home = overlay.cluster_of(peer).expect("live peers are assigned");
                *buckets.entry(home).or_insert(0) += count;
            }
        }
        let demand: u64 = buckets.values().sum();
        if demand == 0 {
            continue;
        }
        let targets = plan
            .as_ref()
            .map_or_else(|| non_empty.clone(), |plan| plan.route(query));
        let mut ledger = SimNetwork::new();
        let results = route_to_clusters(overlay, store, query, &targets, &mut ledger);
        let skipped: Vec<ClusterId> = non_empty
            .iter()
            .copied()
            .filter(|c| !targets.contains(c))
            .collect();
        let missed: u64 =
            route_to_clusters(overlay, store, query, &skipped, &mut SimNetwork::new())
                .iter()
                .map(|r| r.count)
                .sum();
        let forwards = ledger.messages(MsgKind::QueryForward);
        let mut per_cluster: BTreeMap<ClusterId, u64> = BTreeMap::new();
        for r in &results {
            *per_cluster.entry(r.cluster).or_insert(0) += r.count;
        }
        let total: u64 = per_cluster.values().sum();

        walk.net.merge_scaled(&ledger, demand);
        walk.report.query_events += demand;
        walk.report.flood_forwards += non_empty.len() as u64 * demand;
        walk.report.forwards += forwards * demand;
        walk.report.returned_results += total * demand;
        walk.report.missed_results += missed * demand;
        walk.histogram.record(forwards as usize, demand);

        for r in &results {
            for (&cid, &bucket) in &buckets {
                let mut credit = bucket;
                if overlay.cluster_of(r.peer) == Some(cid) {
                    credit -= workloads[r.peer.index()].count(query);
                }
                if credit > 0 {
                    let credit = credit as f64 * r.count as f64;
                    *walk.served[r.peer.index()].entry(cid).or_insert(0.0) += credit;
                    walk.served_total[r.peer.index()] += credit;
                }
            }
        }
        seen.insert(query, (per_cluster.into_iter().collect(), total));
    }
    for peer in overlay.peers() {
        let workload = &workloads[peer.index()];
        for (query, _) in workload.iter() {
            let (per_cluster, total) = seen[query].clone();
            walk.records[peer.index()].push(QueryObservation {
                query: query.clone(),
                weight: workload.frequency(query),
                per_cluster,
                total,
                own: store.result_count(query, peer),
            });
        }
    }
    walk
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

    /// Both public walks equal the member-walk reference after every op
    /// of the shared mutation universe, under flood, exact and lossy
    /// routing, with sharding forced off and on under pinned 1/2/8-
    /// thread pools: the per-kind ledger, report and histogram of
    /// either walk, and the observing walk's per-peer records,
    /// contribution estimates and served totals, all bit for bit.
    #[test]
    fn period_walks_equal_member_walk_reference(
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
                let reference = member_walk(&sys, mode);
                let ref_ledger = query_ledger(&reference.net);
                for shard_min in [usize::MAX, 1] {
                    set_shard_min_override(Some(shard_min));
                    for threads in [1usize, 2, 8] {
                        let pool = ThreadPoolBuilder::new()
                            .num_threads(threads)
                            .build()
                            .expect("shim pool build never fails");
                        let at = format!("{mode:?}, shard_min {shard_min}, {threads} threads");
                        let mut traffic_net = SimNetwork::new();
                        let (rep, hist) =
                            pool.install(|| simulate_period_traffic(&sys, &mut traffic_net, mode));
                        prop_assert_eq!(reference.report, rep, "traffic report, {}", at);
                        prop_assert_eq!(&reference.histogram, &hist, "traffic histogram, {}", at);
                        prop_assert_eq!(
                            ref_ledger, query_ledger(&traffic_net), "traffic ledger, {}", at
                        );

                        let mut full_net = SimNetwork::new();
                        let (obs, rep, hist) =
                            pool.install(|| simulate_period(&sys, &mut full_net, mode));
                        prop_assert_eq!(reference.report, rep, "report, {}", at);
                        prop_assert_eq!(&reference.histogram, &hist, "histogram, {}", at);
                        prop_assert_eq!(ref_ledger, query_ledger(&full_net), "ledger, {}", at);
                        let mut stats = ObservedStats::new(0.0);
                        stats.absorb(&obs);
                        for slot in 0..sys.overlay().n_slots() {
                            let peer = PeerId::from_index(slot);
                            prop_assert_eq!(
                                &reference.records[slot][..], obs.of(peer), "{} records, {}", peer, at
                            );
                            prop_assert_eq!(
                                reference.served_total[slot].to_bits(),
                                stats.served_total(peer).to_bits(),
                                "{} served total, {}", peer, at
                            );
                            for c in 0..sys.overlay().cmax() {
                                let cid = ClusterId::from_index(c);
                                prop_assert_eq!(
                                    reference.contribution(slot, cid).to_bits(),
                                    obs.estimated_contribution(peer, cid).to_bits(),
                                    "{} contribution to {}, {}", peer, cid, at
                                );
                            }
                        }
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
