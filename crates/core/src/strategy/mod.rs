//! Relocation strategies (§3.1).
//!
//! A strategy answers one question per period: *should this peer move,
//! where to, and how large is the gain?* The paper defines two behavioral
//! patterns — [`SelfishStrategy`] (move to the cluster minimizing the
//! peer's own `pcost`; gain is `pgain`) and [`AltruisticStrategy`] (move
//! to the cluster whose recall the peer improves the most; gain is
//! `clgain` derived from the `contribution` measure, Eq. 6) — and
//! sketches a hybrid as future work, implemented here as
//! [`HybridStrategy`].

mod altruistic;
mod hybrid;
mod observed;
mod selfish;

pub use altruistic::AltruisticStrategy;
pub use hybrid::HybridStrategy;
pub use observed::{DecisionSource, ObservedObjective, ObservedStrategy};
pub use selfish::SelfishStrategy;

use altruistic::altruistic_choice;
use hybrid::hybrid_choice;
use selfish::selfish_proposal;

use recluster_types::{ClusterId, PeerId};

use crate::system::System;
use crate::view::{SystemRead, SystemView};

/// A relocation proposal: the destination and the strategy's gain value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proposal {
    /// The cluster the peer wants to move to.
    pub to: ClusterId,
    /// The strategy-specific gain (compared against the protocol's
    /// threshold `ε` and used to rank requests in phase 2).
    pub gain: f64,
}

/// What a strategy knows about the cluster dependencies of one
/// [`propose`](RelocationStrategy::propose) outcome, reported through
/// [`RelocationStrategy::propose_traced`] for the memo gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainInfo {
    /// The strategy did not trace its scan: the memoized outcome can
    /// only be trusted while *no* candidate cluster changed (the
    /// coarse, pre-trace gate).
    Unknown,
    /// The ascending-scan take chain of
    /// [`best_response_with_chain`](crate::equilibrium::best_response_with_chain):
    /// the clusters that successively improved the running best, in
    /// scan order (empty when staying was optimal). A memoized outcome
    /// stays valid under changes to clusters **outside** the chain as
    /// long as none of them newly undercuts the peer's current cost —
    /// the fine per-(peer, cluster) gate.
    Known(Box<[ClusterId]>),
}

/// A peer-relocation strategy.
///
/// `Sync` is a supertrait because [`propose`] is a pure read evaluated
/// against a [`SystemView`] — the engine's phase 1 shares one strategy
/// reference across the rayon shim's workers. A strategy whose
/// `propose` is *not* a pure function of `(view, peer, allow_empty)`
/// (e.g. one drawing from an internal RNG stream) must return `false`
/// from [`sharded_phase1`] so the engine keeps its call order
/// sequential and deterministic.
///
/// [`propose`]: RelocationStrategy::propose
/// [`sharded_phase1`]: RelocationStrategy::sharded_phase1
pub trait RelocationStrategy: Sync {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Called once per protocol round before any [`propose`] call —
    /// strategies precompute round-level state here (e.g. the altruistic
    /// contribution matrix).
    ///
    /// [`propose`]: RelocationStrategy::propose
    fn prepare(&mut self, _system: &System) {}

    /// Proposes a relocation for `peer`, or `None` if the peer has no
    /// (positive-gain) move. `allow_empty` controls whether empty
    /// clusters are admissible destinations (§4.2 forbids them to keep
    /// the cluster count fixed; §3.2's new-cluster rule requires them).
    ///
    /// Takes a [`SystemView`] — a `Sync` snapshot with a pre-flushed
    /// cost cache — so the engine can fan proposal computation across
    /// threads with no interior mutability in the read path.
    fn propose(&self, view: &SystemView<'_>, peer: PeerId, allow_empty: bool) -> Option<Proposal>;

    /// [`propose`](RelocationStrategy::propose) plus the cluster-
    /// dependency trace of the outcome, consumed by the proposal memo's
    /// per-(peer, cluster) validity gate. The default delegates to
    /// `propose` and reports [`ChainInfo::Unknown`], which makes the
    /// memo fall back to its coarse any-candidate-changed gate — exactly
    /// the pre-trace behaviour. Strategies whose scan is
    /// [`best_response_with_chain`](crate::equilibrium::best_response_with_chain)
    /// override this to hand the real chain over.
    fn propose_traced(
        &self,
        view: &SystemView<'_>,
        peer: PeerId,
        allow_empty: bool,
    ) -> (Option<Proposal>, ChainInfo) {
        (self.propose(view, peer, allow_empty), ChainInfo::Unknown)
    }

    /// Whether [`propose`](RelocationStrategy::propose) is a pure
    /// function of its arguments, making it safe to shard peers across
    /// threads (results are merged in peer order either way, so sharding
    /// never changes the bytes — only whether calls may interleave).
    fn sharded_phase1(&self) -> bool {
        true
    }

    /// Whether this strategy's proposals depend *only* on the inputs the
    /// [`Epochs`](crate::view::Epochs) journal and the cost cache's mark
    /// counters track — the peer's own workload/terms, the candidate
    /// clusters' sizes and recall masses, `|P|`, result totals and the
    /// game parameters. When true, the engine memoizes proposals across
    /// rounds ([`ProposalMemo`](crate::protocol::ProposalMemo)): a peer
    /// whose stamps are unchanged re-emits its previous proposal without
    /// recomputation. Strategies with round-level state of their own
    /// (contribution matrices, RNG streams) must leave this `false`.
    fn memoizable(&self) -> bool {
        false
    }
}

/// "The increase in the membership cost of c_new p will cause if it
/// joins it" (§3.1.2): the membership-cost delta the *mover* takes on,
/// `α · (θ(n_dst + 1) − θ(n_src)) / |P|` — what it will pay in the
/// destination minus what it pays at home. Used as the penalty inside
/// the altruistic `clgain`.
///
/// The paper's wording is ambiguous; of the candidate readings this one
/// is the only well-behaved penalty: the cluster-total increase
/// (`((n+1)θ(n+1) − nθ(n))/|P|` ≈ `2n/|P|` for linear `θ`) dwarfs any
/// contribution difference and freezes the strategy, while a
/// size-independent marginal lets contribution gradients snowball every
/// peer into one giant cluster. The mover's own delta is tiny between
/// similar-sized clusters (preserving the Fig. 2/3 tipping behaviour)
/// yet grows linearly when joining a much larger cluster (blocking the
/// snowball).
pub fn membership_increase<S: SystemRead + ?Sized>(
    system: &S,
    peer: PeerId,
    cid: ClusterId,
) -> f64 {
    let n_dst = system.overlay().size(cid);
    let n_src = system
        .overlay()
        .cluster_of(peer)
        .map_or(0, |c| system.overlay().size(c));
    let cfg = system.config();
    let n_peers = system.n_peers().max(1) as f64;
    cfg.alpha * (cfg.theta.cost(n_dst + 1) - cfg.theta.cost(n_src)) / n_peers
}

#[cfg(test)]
mod tests {
    use super::*;
    use recluster_overlay::{ContentStore, Overlay, Theta};
    use recluster_types::Workload;

    use crate::system::GameConfig;

    #[test]
    fn membership_increase_is_the_movers_delta() {
        // p3 (singleton c3) joining c0 (2 members): (θ(3) − θ(1))/4.
        let mut ov = Overlay::singletons(4);
        ov.move_peer(PeerId(1), ClusterId(0)); // c0 has 2 members
        let sys = System::new(
            ov,
            ContentStore::new(4),
            vec![Workload::new(); 4],
            GameConfig {
                alpha: 1.0,
                theta: Theta::Linear,
            },
        );
        let inc = membership_increase(&sys, PeerId(3), ClusterId(0));
        assert!((inc - 0.5).abs() < 1e-12);
        // Moving between singletons: θ(2) − θ(1) = 1 → 0.25.
        let lateral = membership_increase(&sys, PeerId(3), ClusterId(2));
        assert!((lateral - 0.25).abs() < 1e-12);
        // Moving to an empty cluster from a pair is a membership *gain*.
        let escape = membership_increase(&sys, PeerId(0), ClusterId(1));
        assert!((escape - (1.0 - 2.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn membership_increase_grows_with_destination_size() {
        let mut ov = Overlay::singletons(6);
        for i in 1..4 {
            ov.move_peer(PeerId(i), ClusterId(0)); // c0 has 4 members
        }
        let sys = System::new(
            ov,
            ContentStore::new(6),
            vec![Workload::new(); 6],
            GameConfig::default(),
        );
        let big = membership_increase(&sys, PeerId(5), ClusterId(0));
        let small = membership_increase(&sys, PeerId(5), ClusterId(4));
        assert!(big > small, "joining the bigger cluster must cost more");
    }

    #[test]
    fn membership_increase_scales_with_alpha() {
        let ov = Overlay::singletons(2);
        let mk = |alpha| {
            System::new(
                ov.clone(),
                ContentStore::new(2),
                vec![Workload::new(); 2],
                GameConfig {
                    alpha,
                    theta: Theta::Linear,
                },
            )
        };
        let base = membership_increase(&mk(1.0), PeerId(0), ClusterId(1));
        let doubled = membership_increase(&mk(2.0), PeerId(0), ClusterId(1));
        assert!((doubled - 2.0 * base).abs() < 1e-12);
    }
}
