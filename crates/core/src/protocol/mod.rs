//! The cluster reformulation protocol (§3.2).
//!
//! The protocol runs in rounds of two phases. Phase 1: every peer
//! evaluates its gain (per its relocation strategy) and reports it to its
//! cluster representative; each representative forwards the single
//! highest-gain request — `(cid_src, cid_dst, gain)` — to all other
//! representatives, or a bare heartbeat when nobody in the cluster wants
//! to move. Phase 2: every representative sorts all requests by
//! descending gain and serves them under the anti-cycle **lock rule**:
//! granting `ci → cj` locks `ci` against joins and `cj` against leaves
//! for the rest of the round. Because every representative processes the
//! identical, deterministically ordered list, they reach the same grant
//! decisions without extra coordination. The protocol stops when no
//! relocation request clears the gain threshold `ε`.
//!
//! The decision rules live once, in this module's pure kernels:
//! `select_request` is the representative's phase-1 pick,
//! [`grant_requests`] the phase-2 lock-rule scan, and `apply_policy`
//! the empty-target and `ε` filter. Two drivers only move the inputs and
//! verdicts of those kernels around:
//!
//! * [`ProtocolEngine`] — the optimized shared-state driver: one
//!   [`crate::view::SystemView`] snapshot per round, sharded
//!   phase 1, cross-round proposal memoization. Exactly equivalent to
//!   running the message runtime below over a zero-delay, zero-loss
//!   schedule (the `prop_runtime` suite holds that bit for bit), which
//!   is why every large-scale experiment uses it.
//! * [`runtime`] — the typed-message runtime: per-peer
//!   [`PeerStateMachine`]s exchanging serialized [`Message`]s through a
//!   deterministic simulated network ([`SimNet`]), the API that admits
//!   delayed, reordered, dropped and dishonest messages.

mod engine;
mod locks;
mod memo;
pub mod runtime;

pub use engine::{ProtocolEngine, RoundOutcome, RunOutcome};
pub use locks::LockSet;
pub use memo::{MemoMisses, MissReason, ProposalMemo};
pub use runtime::{
    DelayDist, DenyReason, EvidenceLog, FaultReport, LiarConfig, Message, NetConfig, NetStats,
    PeerStateMachine, RuntimeEngine, SimNet,
};

use recluster_types::{ClusterId, PeerId};

use crate::cost::pcost_current;
use crate::strategy::Proposal;
use crate::view::SystemView;

/// One relocation request as exchanged between representatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocationRequest {
    /// The cluster the peer wants to leave.
    pub src: ClusterId,
    /// The cluster the peer wants to join.
    pub dst: ClusterId,
    /// The relocating peer.
    pub peer: PeerId,
    /// The strategy's gain value.
    pub gain: f64,
}

impl RelocationRequest {
    /// Deterministic phase-2 ordering: gain descending, ties broken by
    /// `(src, dst, peer)` so all representatives sort identically.
    pub fn sort_requests(requests: &mut [RelocationRequest]) {
        requests.sort_by(|a, b| {
            b.gain
                .partial_cmp(&a.gain)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
                .then(a.peer.cmp(&b.peer))
        });
    }
}

/// The representative's phase-1 pick (§3.2): the highest-gain
/// candidate, where a gain must beat the running best by more than
/// `f64::EPSILON` and gains within that window go to the lower peer id.
/// `candidates` arrive in ascending peer order; each request travels with
/// a payload the caller needs back (the runtime's gain commitment).
pub(crate) fn select_request<T>(
    candidates: impl IntoIterator<Item = (RelocationRequest, T)>,
) -> Option<(RelocationRequest, T)> {
    let mut best: Option<(RelocationRequest, T)> = None;
    for candidate in candidates {
        let (c, _) = &candidate;
        let replace = best.as_ref().is_none_or(|(b, _)| {
            c.gain > b.gain + f64::EPSILON
                || ((c.gain - b.gain).abs() <= f64::EPSILON && c.peer < b.peer)
        });
        if replace {
            best = Some(candidate);
        }
    }
    best
}

/// The phase-2 grant scan (§3.2) over a list already sorted by
/// [`RelocationRequest::sort_requests`]: one verdict per request, in list
/// order. A request naming its own cluster as destination is denied as
/// [`DenyReason::SelfMove`]; every other request is granted unless the
/// anti-cycle lock rule blocks it ([`DenyReason::Locked`]). With
/// `use_locks = false` every other request is granted.
pub fn grant_requests(
    sorted: &[RelocationRequest],
    use_locks: bool,
) -> impl Iterator<Item = (RelocationRequest, Result<(), DenyReason>)> + '_ {
    let mut locks = LockSet::new();
    sorted.iter().map(move |&req| {
        let verdict = if req.src == req.dst {
            Err(DenyReason::SelfMove)
        } else if !use_locks || locks.admissible(req.src, req.dst) {
            locks.grant(req.src, req.dst);
            Ok(())
        } else {
            Err(DenyReason::Locked)
        };
        (req, verdict)
    })
}

/// Whether (and when) empty clusters are admissible relocation targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EmptyTargetPolicy {
    /// Never — §4.2: "We maintain the number of clusters fixed and the
    /// only change we allow is the relocation of peers to different
    /// non-empty clusters."
    Never,
    /// Always — the cost-minimizing view of §2.1 where all `Cmax`
    /// clusters are candidate strategies.
    Always,
    /// §3.2's new-cluster rule: a peer that (a) has no improving move to
    /// any existing non-empty cluster and (b) has seen its cost rise by
    /// at least the given amount above the best cost it ever held during
    /// this protocol run "decides to leave its cluster and move to one of
    /// the empty clusters in the system, automatically becoming the
    /// representative of this cluster" — note the move is *not* required
    /// to be cost-improving: it is a pioneering escape whose payoff comes
    /// from like-minded peers joining in later rounds. The reported gain
    /// is the frustration magnitude (current − best-seen cost).
    OnCostIncrease(f64),
}

/// Protocol parameters. Construct via [`ProtocolConfig::builder`] (or
/// start from [`Default`] and assign fields); the struct is
/// `#[non_exhaustive]` so future knobs extend it without breaking
/// callers.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// Gain threshold `ε`: a peer issues a request only if its gain
    /// exceeds this (the paper's §4.2 uses `ε = 0.001`).
    pub epsilon: f64,
    /// Round budget; a run that exhausts it without a request-free round
    /// is reported as non-converged (the paper's third scenario).
    pub max_rounds: usize,
    /// Empty-cluster target policy.
    pub empty_targets: EmptyTargetPolicy,
    /// Whether phase 2 enforces the anti-cycle lock rule. Disabling it
    /// (ablation) grants every request, which admits the move cycles the
    /// rule exists to prevent.
    pub use_locks: bool,
    /// Whether to memoize proposals across rounds for strategies that
    /// declare [`memoizable`](crate::strategy::RelocationStrategy::memoizable).
    /// Bit-identical either way; `false` gives the A/B run that
    /// recomputes every proposal.
    pub memoize_proposals: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            epsilon: 1e-3,
            max_rounds: 300,
            empty_targets: EmptyTargetPolicy::Always,
            use_locks: true,
            memoize_proposals: true,
        }
    }
}

impl ProtocolConfig {
    /// Starts a builder over the paper defaults.
    pub fn builder() -> ProtocolConfigBuilder {
        ProtocolConfigBuilder {
            config: ProtocolConfig::default(),
        }
    }
}

/// Fluent constructor for [`ProtocolConfig`] — the supported way to
/// customize the `#[non_exhaustive]` config outside this crate:
///
/// ```
/// use recluster_core::ProtocolConfig;
/// let cfg = ProtocolConfig::builder()
///     .max_rounds(60)
///     .memoize(false)
///     .build();
/// assert_eq!(cfg.max_rounds, 60);
/// assert!(!cfg.memoize_proposals);
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolConfigBuilder {
    config: ProtocolConfig,
}

impl ProtocolConfigBuilder {
    /// Sets the gain threshold `ε` (default `1e-3`).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Sets the round budget (default 300).
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.config.max_rounds = max_rounds;
        self
    }

    /// Sets the empty-cluster target policy (default
    /// [`EmptyTargetPolicy::Always`]).
    pub fn empty_targets(mut self, policy: EmptyTargetPolicy) -> Self {
        self.config.empty_targets = policy;
        self
    }

    /// Enables or disables the phase-2 anti-cycle lock rule (default on).
    pub fn use_locks(mut self, on: bool) -> Self {
        self.config.use_locks = on;
        self
    }

    /// Enables or disables cross-round proposal memoization (default on).
    pub fn memoize(mut self, on: bool) -> Self {
        self.config.memoize_proposals = on;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ProtocolConfig {
        self.config
    }
}

/// The `allow_empty` flag the configured policy hands to the strategy's
/// `propose` (the `OnCostIncrease` escape reaches empty clusters through
/// its own rule, not through the strategy).
pub(crate) fn base_allow_empty(config: &ProtocolConfig) -> bool {
    matches!(config.empty_targets, EmptyTargetPolicy::Always)
}

/// Applies the empty-target policy and the `ε` threshold to a raw
/// strategy proposal — the cheap, per-round part of a peer's phase-1
/// request, deliberately *outside* the proposal memo (the §3.2 escape
/// depends on `min_costs`, which moves every round). Shared verbatim by
/// [`ProtocolEngine`] and the message [`runtime`], so the two drivers
/// cannot drift on policy arithmetic.
pub(crate) fn apply_policy(
    config: &ProtocolConfig,
    min_costs: &[f64],
    view: &SystemView<'_>,
    peer: PeerId,
    raw: Option<Proposal>,
) -> Option<Proposal> {
    let proposal = match config.empty_targets {
        EmptyTargetPolicy::Never | EmptyTargetPolicy::Always => raw,
        EmptyTargetPolicy::OnCostIncrease(threshold) => match raw {
            Some(p) => Some(p),
            None => {
                // §3.2's pioneering escape: no existing cluster helps,
                // and the peer's cost has risen significantly above the
                // best it held this run. The escape need not improve
                // its cost — the payoff comes from like-minded peers
                // following.
                let best = min_costs
                    .get(peer.index())
                    .copied()
                    .unwrap_or(f64::INFINITY);
                let now = pcost_current(view, peer);
                if now - best >= threshold {
                    view.overlay().first_empty_cluster().map(|to| Proposal {
                        to,
                        gain: now - best,
                    })
                } else {
                    None
                }
            }
        },
    }?;
    (proposal.gain > config.epsilon).then_some(proposal)
}

/// Folds the current individual costs into `min_costs`; peers listed in
/// `reset` take the current cost outright (fresh start after a move).
/// Departed peers get `INFINITY`. Shared by both protocol drivers.
/// O(slots + reset): the minimum is folded over every slot first, then
/// only the reset slots are overwritten.
pub(crate) fn fold_min_costs(view: &SystemView<'_>, min_costs: &mut Vec<f64>, reset: &[PeerId]) {
    let now = |p: PeerId| {
        if view.overlay().cluster_of(p).is_some() {
            pcost_current(view, p)
        } else {
            f64::INFINITY
        }
    };
    min_costs.resize(view.overlay().n_slots(), f64::INFINITY);
    for (i, slot) in min_costs.iter_mut().enumerate() {
        *slot = slot.min(now(PeerId::from_index(i)));
    }
    for &p in reset {
        min_costs[p.index()] = now(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_orders_by_gain_then_ids() {
        let mut reqs = vec![
            RelocationRequest {
                src: ClusterId(2),
                dst: ClusterId(0),
                peer: PeerId(5),
                gain: 0.5,
            },
            RelocationRequest {
                src: ClusterId(1),
                dst: ClusterId(0),
                peer: PeerId(4),
                gain: 0.9,
            },
            RelocationRequest {
                src: ClusterId(0),
                dst: ClusterId(2),
                peer: PeerId(1),
                gain: 0.5,
            },
        ];
        RelocationRequest::sort_requests(&mut reqs);
        assert_eq!(reqs[0].gain, 0.9);
        assert_eq!(reqs[1].src, ClusterId(0), "ties broken by src ascending");
        assert_eq!(reqs[2].src, ClusterId(2));
    }

    #[test]
    fn sort_is_deterministic_under_permutation() {
        let base = vec![
            RelocationRequest {
                src: ClusterId(0),
                dst: ClusterId(1),
                peer: PeerId(0),
                gain: 0.3,
            },
            RelocationRequest {
                src: ClusterId(1),
                dst: ClusterId(2),
                peer: PeerId(1),
                gain: 0.3,
            },
            RelocationRequest {
                src: ClusterId(2),
                dst: ClusterId(0),
                peer: PeerId(2),
                gain: 0.7,
            },
        ];
        let mut a = base.clone();
        let mut b = vec![base[2], base[0], base[1]];
        RelocationRequest::sort_requests(&mut a);
        RelocationRequest::sort_requests(&mut b);
        assert_eq!(a, b);
    }

    fn req(src: u32, dst: u32, peer: u32, gain: f64) -> RelocationRequest {
        RelocationRequest {
            src: ClusterId(src),
            dst: ClusterId(dst),
            peer: PeerId(peer),
            gain,
        }
    }

    /// A gain-sorted list where the top grant c0 → c1 locks c0 against
    /// joins and c1 against leaves, with a self-move in between.
    fn contested() -> Vec<RelocationRequest> {
        vec![
            req(0, 1, 0, 0.9),
            req(2, 2, 1, 0.8),
            req(1, 2, 2, 0.7),
            req(3, 0, 3, 0.6),
            req(3, 4, 4, 0.5),
        ]
    }

    fn verdicts(sorted: &[RelocationRequest], use_locks: bool) -> Vec<Result<(), DenyReason>> {
        grant_requests(sorted, use_locks).map(|(_, v)| v).collect()
    }

    #[test]
    fn grant_scan_denies_self_moves_and_locked_requests() {
        use DenyReason::{Locked, SelfMove};
        assert_eq!(
            verdicts(&contested(), true),
            vec![Ok(()), Err(SelfMove), Err(Locked), Err(Locked), Ok(())]
        );
    }

    #[test]
    fn grant_scan_without_locks_grants_all_but_self_moves() {
        assert_eq!(
            verdicts(&contested(), false),
            vec![Ok(()), Err(DenyReason::SelfMove), Ok(()), Ok(()), Ok(())]
        );
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = ProtocolConfig::default();
        assert_eq!(cfg.epsilon, 1e-3);
        assert_eq!(cfg.empty_targets, EmptyTargetPolicy::Always);
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let cfg = ProtocolConfig::builder()
            .epsilon(0.05)
            .max_rounds(17)
            .empty_targets(EmptyTargetPolicy::Never)
            .use_locks(false)
            .memoize(false)
            .build();
        assert_eq!(cfg.epsilon, 0.05);
        assert_eq!(cfg.max_rounds, 17);
        assert_eq!(cfg.empty_targets, EmptyTargetPolicy::Never);
        assert!(!cfg.use_locks);
        assert!(!cfg.memoize_proposals);
    }

    #[test]
    fn builder_defaults_equal_default() {
        assert_eq!(ProtocolConfig::builder().build(), ProtocolConfig::default());
    }
}
