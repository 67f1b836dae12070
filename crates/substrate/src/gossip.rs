//! Epidemic membership dissemination.
//!
//! The paper models membership as a single authoritative routing snapshot
//! per query, rebuilt stop-the-world on every change — workable for the
//! "dozens to hundreds of relatively stable machines" of Section I, but
//! not for sustained churn at a thousand participants.  This module adds
//! the Dynamo-family alternative: every node keeps its own *local* view of
//! the membership and learns about changes through **rumors** exchanged in
//! periodic fanout-`k` gossip rounds over the simulated network, with real
//! message and byte accounting.
//!
//! ## Rumor lifecycle
//!
//! A [`Rumor`] asserts that `subject` is in [`PeerState`] at a given
//! **incarnation**.  Incarnations are per-origin version numbers: a node
//! bumps its own incarnation each time it (re)joins, which is what lets a
//! rejoined node *refute* stale failure rumors still circulating about its
//! previous life.  Conflicts resolve by a total order:
//!
//! 1. higher incarnation wins outright;
//! 2. at equal incarnation, `Failed > Left > Alive` (a crash report about
//!    incarnation `i` beats the birth announcement of incarnation `i`, and
//!    only incarnation `i + 1` can overturn it).
//!
//! An accepted rumor becomes **hot**: the receiver retransmits it for a
//! bounded number of rounds (`⌈log₂ n⌉ + 2`) to [`FANOUT`] peers
//! chosen uniformly from the nodes it currently believes alive, then stops
//! — classic rumor mongering, which spreads an update to all `n` nodes in
//! `O(log n)` expected rounds while keeping per-round traffic bounded.
//!
//! Rumor mongering alone can strand a cluster: a rumor's retransmit
//! budgets may all expire before it reaches every member, and the
//! knowledge that a node failed can vanish outright if its detector
//! departs before spreading the report.  Two SWIM-style backstops close
//! those gaps: each round every live node *probes* one believed-alive
//! peer (learning the terminal record of a peer that is in truth gone),
//! and [`Gossip::run_until_converged`] falls back to a **full-state
//! sync round** whenever the hot path goes quiet while views still
//! disagree.
//!
//! ## Cost
//!
//! A round costs O(live nodes + messages), not O(live × universe), and the
//! cluster's state is the truth plus Σ lag plus the alive lists, not views
//! × universe.  The ground truth, an `(incarnation, state)` record per id,
//! is one snapshot shared by every live view.  A view stores only its
//! *lag* — the `(id, record)` pairs where it believes otherwise, sorted by
//! id — next to the ascending list of the ids it believes alive.  An
//! injected change builds the new truth once and pins each view's old
//! record of the changed id into its lag; [`MemberView::apply`] drops a
//! lag entry once it matches the truth.  So a view that has heard
//! everything stores no record, `state_of` searches a short lag,
//! convergence and staleness read the lags alone, and a view's records as
//! rumors (a full-state push, a derived membership) are the truth and the
//! lag walked side by side in one pass.  The *i*-th peer of a node is the
//! *i*-th id of its alive list stepping over the node's own (no peer
//! vector is built per round).  A round appends its rumor batches, each
//! once, to one arena the [`Gossip`] keeps, and a message carries its
//! batch's offset and length, so a fan-out allocates nothing.  A send
//! costs a push onto the simulator's event heap: the simulator counts the
//! run's bytes and messages and keeps no per-link table, which at a
//! thousand nodes would grow towards 10⁶ links.
//!
//! The fan-out's targets are drawn by index from the peer list *as it
//! stood before the round's probe*.  The probe may evict its target from
//! the list, and indexing the shortened list would pick other peers: a
//! different, equally valid protocol, but every simulated membership
//! figure (rounds, rumor bytes, dropped messages) is pinned to this one by
//! `tests/gossip_fingerprint.rs`.  Only the rare evicting probe copies the
//! list, into one buffer the round reuses.
//!
//! ## Derived membership
//!
//! Nothing here is authoritative.  A node's [`MemberView`] *is* its
//! membership, and it derives a `RoutingSnapshot` from its alive list on
//! demand — two nodes may hold different views at the same instant, and
//! a query planned against one node's snapshot may reference peers that
//! are already gone.  That staleness is deliberate: the engine's existing
//! Restart/Incremental recovery absorbs it (see
//! `QueryExecutor::execute_with_stale_snapshot`), so membership agreement
//! is needed only *eventually*, not per-query.

use crate::allocation::AllocationScheme;
use crate::membership::MembershipChange;
use crate::replication::ReplicationPolicy;
use crate::routing::{RoutingSnapshot, RoutingTable};
use orchestra_common::rng::{self, StdRng};
use orchestra_common::{NodeId, OrchestraError, Result};
use orchestra_simnet::{ClusterProfile, SimTime, Simulator};
use std::sync::Arc;

/// Wire size of one serialized rumor: 2 bytes subject id, 8 bytes
/// incarnation, 1 byte state tag.
pub const RUMOR_WIRE_BYTES: usize = 11;

/// Fixed per-message overhead: sender id, rumor count, protocol/round
/// header — the envelope around the rumor batch.
pub const GOSSIP_HEADER_BYTES: usize = 16;

/// Peers each node pushes its hot rumors to per round.
pub const FANOUT: usize = 2;

/// Virtual time between gossip rounds, in milliseconds.
pub const ROUND_MS: u64 = 200;

/// The state a rumor asserts about its subject.
///
/// The declaration order *is* the same-incarnation precedence: at equal
/// incarnation a `Failed` report beats `Left`, which beats `Alive`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PeerState {
    /// The subject is a live participant.
    Alive,
    /// The subject departed gracefully.
    Left,
    /// The subject was detected as crashed.
    Failed,
}

/// One membership assertion circulating through the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rumor {
    /// The node the rumor is about.
    pub subject: NodeId,
    /// The subject's per-origin incarnation number the assertion refers
    /// to.  Bumped by the subject itself on every (re)join.
    pub incarnation: u64,
    /// The asserted state.
    pub state: PeerState,
}

impl Rumor {
    /// Does this rumor carry newer information than `(incarnation,
    /// state)`?  Higher incarnation wins; ties break by state precedence.
    pub fn supersedes(&self, incarnation: u64, state: PeerState) -> bool {
        self.incarnation > incarnation || (self.incarnation == incarnation && self.state > state)
    }
}

/// A view's record of one node: the latest accepted `(incarnation,
/// state)`, `None` for a node never heard about.
type Record = Option<(u64, PeerState)>;

/// Is `record` an `Alive` one?
fn is_alive(record: Record) -> bool {
    matches!(record, Some((_, PeerState::Alive)))
}

/// One node's local, versioned view of the membership.
///
/// Holds the most recent `(incarnation, state)` record accepted for every
/// node it has ever heard about, the set of still-hot rumors it is
/// mongering, and the ordered log of accepted changes
/// ([`MemberView::history`]).
///
/// The records are a snapshot of the ground truth, shared by every view
/// of a [`Gossip`], plus the view's *lag*: the ids where what the view
/// believes differs from that snapshot.  A view that has heard everything
/// lags nowhere and stores no record of its own.
#[derive(Clone, Debug)]
pub struct MemberView {
    /// The ground truth this view is based on, indexed by node id; an id
    /// past the end has no record.
    truth: Arc<[Record]>,
    /// `(subject, record)` for every id whose record differs from
    /// `truth`'s, ascending by subject — kept by [`MemberView::apply`] and
    /// [`MemberView::rebase`], the only writers of either.
    lag: Vec<(NodeId, Record)>,
    /// The ids whose record says `Alive`, ascending — kept current by
    /// [`MemberView::apply`], the only call that changes a record.
    alive: Vec<NodeId>,
    /// Rumors this node is still retransmitting, with remaining rounds.
    hot: Vec<(Rumor, u32)>,
    history: Vec<MembershipChange>,
    version: u64,
}

impl MemberView {
    /// A view that already knows `alive` members at incarnation 1 — the
    /// bootstrap state of a node that joined a settled cluster.
    pub fn seeded(alive: impl IntoIterator<Item = NodeId>) -> MemberView {
        let mut alive: Vec<NodeId> = alive.into_iter().collect();
        alive.sort_unstable();
        alive.dedup();
        let mut truth = vec![None; alive.last().map_or(0, |n| n.index() + 1)];
        for n in &alive {
            truth[n.index()] = Some((1, PeerState::Alive));
        }
        MemberView::based_on(truth.into(), Vec::new())
    }

    /// A fresh view holding `truth`'s records except where `lag` (sorted
    /// by subject, each entry differing from `truth`) says otherwise.
    fn based_on(truth: Arc<[Record]>, lag: Vec<(NodeId, Record)>) -> MemberView {
        let mut view = MemberView {
            truth,
            lag,
            alive: Vec::new(),
            hot: Vec::new(),
            history: Vec::new(),
            version: 0,
        };
        view.alive = view
            .rumors()
            .filter(|r| r.state == PeerState::Alive)
            .map(|r| r.subject)
            .collect();
        view
    }

    /// A view based on `truth` that has heard of nobody: every id the
    /// truth holds a record of lags as unheard.
    fn unaware(truth: Arc<[Record]>) -> MemberView {
        let unheard = (0..truth.len())
            .filter(|id| truth[*id].is_some())
            .map(|id| (NodeId(id as u16), None))
            .collect();
        MemberView::based_on(truth, unheard)
    }

    /// Re-base the view onto `truth`, which differs from the current
    /// snapshot at `changed` only.  What the view believes does not
    /// change: its old record of `changed` is pinned into the lag, unless
    /// it already matches the new truth.
    fn rebase(&mut self, truth: &Arc<[Record]>, changed: NodeId) {
        let now = truth.get(changed.index()).copied().flatten();
        match self.lag.binary_search_by_key(&changed, |(n, _)| *n) {
            Ok(at) if self.lag[at].1 == now => {
                self.lag.remove(at);
            }
            Ok(_) => {}
            Err(at) => {
                let held = self.truth_of(changed);
                if held != now {
                    self.lag.insert(at, (changed, held));
                }
            }
        }
        self.truth = Arc::clone(truth);
    }

    /// Merge a rumor into the view.  Returns `true` if it carried news
    /// (and is now hot for `budget` more rounds); stale and duplicate
    /// rumors are ignored.
    pub fn apply(&mut self, rumor: Rumor, budget: u32) -> bool {
        let subject = rumor.subject;
        let lagged = self.lag.binary_search_by_key(&subject, |(n, _)| *n);
        let held = match lagged {
            Ok(at) => self.lag[at].1,
            Err(_) => self.truth_of(subject),
        };
        if let Some((inc, state)) = held {
            if !rumor.supersedes(inc, state) {
                return false;
            }
        }
        let record = Some((rumor.incarnation, rumor.state));
        match lagged {
            // Caught up with the truth: the view stores nothing for it.
            Ok(at) if record == self.truth_of(subject) => {
                self.lag.remove(at);
            }
            Ok(at) => self.lag[at].1 = record,
            // `held` was the truth's record and `record` supersedes it,
            // so the two differ.
            Err(at) => self.lag.insert(at, (subject, record)),
        }
        if is_alive(held) != is_alive(record) {
            // `alive` mirrors the records: the subject is listed iff it
            // was alive, so the search says which way it crosses.
            match self.alive.binary_search(&subject) {
                Ok(at) => {
                    self.alive.remove(at);
                }
                Err(at) => self.alive.insert(at, subject),
            }
        }
        // A newer assertion refutes any older hot rumor about the subject.
        self.hot.retain(|(r, _)| r.subject != subject);
        if budget > 0 {
            self.hot.push((rumor, budget));
        }
        self.history.push(match rumor.state {
            PeerState::Alive => MembershipChange::Joined(subject),
            PeerState::Left => MembershipChange::Left(subject),
            PeerState::Failed => MembershipChange::Failed(subject),
        });
        self.version += 1;
        true
    }

    /// Append the rumors to push this round to `arena`.  Each hot
    /// rumor's budget drops by one; exhausted rumors go cold (their
    /// records stay, they just stop being retransmitted).
    fn take_hot(&mut self, arena: &mut Vec<Rumor>) {
        arena.extend(self.hot.iter().map(|(r, _)| *r));
        for entry in &mut self.hot {
            entry.1 -= 1;
        }
        self.hot.retain(|(_, b)| *b > 0);
    }

    /// Every record as a rumor, ascending by subject: the truth and the
    /// lag walked side by side — the payload of a full-state anti-entropy
    /// push ([`Gossip::run_sync_round`]).
    fn rumors(&self) -> impl Iterator<Item = Rumor> + '_ {
        let end = self
            .truth
            .len()
            .max(self.lag.last().map_or(0, |(n, _)| n.index() + 1));
        let mut lag = self.lag.iter().peekable();
        (0..end).filter_map(move |id| {
            let record = match lag.next_if(|(n, _)| n.index() == id) {
                Some((_, held)) => *held,
                None => self.truth.get(id).copied().flatten(),
            };
            let (incarnation, state) = record?;
            Some(Rumor {
                subject: NodeId(id as u16),
                incarnation,
                state,
            })
        })
    }

    /// Monotone counter bumped on every accepted rumor: two views with
    /// equal versions that started from the same seed are identical.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The latest accepted record about `node`, if any.
    pub fn state_of(&self, node: NodeId) -> Option<(u64, PeerState)> {
        match self.lag.binary_search_by_key(&node, |(n, _)| *n) {
            Ok(at) => self.lag[at].1,
            Err(_) => self.truth_of(node),
        }
    }

    /// The truth's record of `node`.
    fn truth_of(&self, node: NodeId) -> Record {
        self.truth.get(node.index()).copied().flatten()
    }

    /// All nodes this view believes alive, sorted by id.
    pub fn alive_nodes(&self) -> &[NodeId] {
        &self.alive
    }

    /// Does this view believe alive exactly the ids its truth says are?
    /// Only the lag can differ.
    fn alive_matches_truth(&self) -> bool {
        self.lag
            .iter()
            .all(|(node, held)| is_alive(*held) == is_alive(self.truth_of(*node)))
    }

    /// How many of this view's records lag its truth: ids the truth holds
    /// a record of that the view has not heard or that supersedes the
    /// view's.  Only the lag can.
    fn staleness(&self) -> usize {
        self.lag
            .iter()
            .filter(|(node, held)| {
                let Some((incarnation, state)) = self.truth_of(*node) else {
                    return false;
                };
                let truth = Rumor {
                    subject: *node,
                    incarnation,
                    state,
                };
                held.is_none_or(|(vi, vs)| truth.supersedes(vi, vs))
            })
            .count()
    }

    /// The changes this view accepted, oldest first: one per rumor that
    /// changed one of its records.
    pub fn history(&self) -> &[MembershipChange] {
        &self.history
    }

    /// Derive a routing snapshot a query initiator would plan against:
    /// the routing table of the nodes this view believes alive, built
    /// straight from its alive list.  An empty view is an error.
    pub fn snapshot(
        &self,
        scheme: AllocationScheme,
        policy: ReplicationPolicy,
    ) -> Result<RoutingSnapshot> {
        let alive = self.alive_nodes();
        if alive.is_empty() {
            return Err(OrchestraError::Substrate(
                "cannot build a routing table with no live nodes".into(),
            ));
        }
        Ok(RoutingSnapshot::new(RoutingTable::build_with_policy(
            alive, scheme, policy,
        )))
    }
}

/// Configuration of the gossip protocol.
#[derive(Clone, Copy, Debug)]
pub struct GossipConfig {
    /// Seed for peer selection (all gossip randomness flows from here).
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig { seed: 0x60551b }
    }
}

/// A gossiping cluster: the ground truth of who is actually up, every
/// live node's [`MemberView`], and the simulated network the rumors
/// travel over.
///
/// Drives the whole-cluster simulation; per-node state stays strictly
/// view-local, so the convergence and staleness it measures are honest.
pub struct Gossip {
    cfg: GossipConfig,
    push_budget: u32,
    /// A message carries its rumor batch as `(offset, len)` in `arena`.
    sim: Simulator<(usize, usize)>,
    /// The rumors of the current round: each fan-out's batch once, back
    /// to back.  Cleared when a round starts; its capacity is kept.
    arena: Vec<Rumor>,
    /// `Some` iff the node currently participates in gossip.
    views: Vec<Option<MemberView>>,
    /// Ground truth: the latest incarnation and state of every node that
    /// was ever a member (`None` = never joined).  Every live view is
    /// based on this very snapshot.
    truth: Arc<[Record]>,
    rounds_run: u64,
    messages_sent: u64,
}

impl Gossip {
    /// A settled cluster of nodes `0..initial` out of a universe of
    /// `universe` possible participants, gossiping over `profile`.
    ///
    /// Panics if `initial` is zero or exceeds `universe`.
    pub fn new(
        initial: usize,
        universe: usize,
        cfg: GossipConfig,
        profile: ClusterProfile,
    ) -> Gossip {
        assert!(
            initial > 0 && initial <= universe,
            "need 0 < initial <= universe"
        );
        assert!(universe <= u16::MAX as usize, "node ids are u16");
        let push_budget = (universe.max(2) as f64).log2().ceil() as u32 + 2;
        let truth: Arc<[Record]> = (0..universe)
            .map(|id| (id < initial).then_some((1, PeerState::Alive)))
            .collect();
        let settled = MemberView::based_on(Arc::clone(&truth), Vec::new());
        let mut views = vec![None; universe];
        views[..initial].fill(Some(settled));
        Gossip {
            cfg,
            push_budget,
            sim: Simulator::new(universe, profile),
            arena: Vec::new(),
            views,
            truth,
            rounds_run: 0,
            messages_sent: 0,
        }
    }

    /// Inject a membership event into the ground truth and seed the
    /// corresponding rumor at its origin:
    ///
    /// * `Joined(x)` — `x` bumps its incarnation, copies the view of its
    ///   bootstrap contact (the lowest-id live node), and both start
    ///   mongering the `Alive` rumor.
    /// * `Left(x)` — `x` announces its departure to its contact and goes
    ///   dark (messages to it now drop).
    /// * `Failed(x)` — `x` crashes silently; its failure-detector
    ///   neighbour (next live node by id) originates the `Failed` rumor.
    pub fn inject(&mut self, change: MembershipChange) -> Result<()> {
        let now = self.sim.now();
        match change {
            MembershipChange::Joined(x) => {
                if self.views[x.index()].is_some() {
                    return Err(OrchestraError::Substrate(format!(
                        "node {x} is already gossiping"
                    )));
                }
                let inc = self.truth[x.index()].map_or(1, |(i, _)| i + 1);
                self.set_truth(x, (inc, PeerState::Alive));
                self.sim.revive_node(x);
                let rumor = Rumor {
                    subject: x,
                    incarnation: inc,
                    state: PeerState::Alive,
                };
                // A contact is live, so it has a view to copy; without
                // one the joiner has heard of nobody.
                let mut view = self
                    .contact(x)
                    .and_then(|c| self.views[c.index()].clone())
                    .unwrap_or_else(|| MemberView::unaware(Arc::clone(&self.truth)));
                view.apply(rumor, self.push_budget);
                self.views[x.index()] = Some(view);
                if let Some(c) = self.contact(x) {
                    self.apply_at(c, rumor);
                }
            }
            MembershipChange::Left(x) => {
                let Some((inc, _)) = self.truth[x.index()] else {
                    return Err(OrchestraError::Substrate(format!(
                        "node {x} was never a member"
                    )));
                };
                self.views[x.index()] = None;
                self.set_truth(x, (inc, PeerState::Left));
                self.sim.fail_node(x, now);
                let rumor = Rumor {
                    subject: x,
                    incarnation: inc,
                    state: PeerState::Left,
                };
                if let Some(c) = self.contact(x) {
                    self.apply_at(c, rumor);
                }
            }
            MembershipChange::Failed(x) => {
                let Some((inc, _)) = self.truth[x.index()] else {
                    return Err(OrchestraError::Substrate(format!(
                        "node {x} was never a member"
                    )));
                };
                self.views[x.index()] = None;
                self.set_truth(x, (inc, PeerState::Failed));
                self.sim.fail_node(x, now);
                let rumor = Rumor {
                    subject: x,
                    incarnation: inc,
                    state: PeerState::Failed,
                };
                if let Some(detector) = self.detector_of(x) {
                    self.apply_at(detector, rumor);
                }
            }
        }
        Ok(())
    }

    /// Make `record` the ground truth's record of `x`: build the new
    /// snapshot once and re-base every live view onto it.
    fn set_truth(&mut self, x: NodeId, record: (u64, PeerState)) {
        let truth: Arc<[Record]> = self
            .truth
            .iter()
            .enumerate()
            .map(|(id, held)| if id == x.index() { Some(record) } else { *held })
            .collect();
        for view in self.views.iter_mut().flatten() {
            view.rebase(&truth, x);
        }
        self.truth = truth;
    }

    /// Run one gossip round: every live node probes one believed-alive
    /// peer (an accurate failure detector — a ping to a peer that has
    /// in truth departed returns no ack, and the prober learns its
    /// terminal record), then pushes its hot rumors to [`FANOUT`] peers
    /// drawn from the nodes *it* believes alive, and finally all
    /// resulting deliveries are merged.  Messages to departed nodes drop
    /// in the simulator (and are counted there).
    pub fn run_round(&mut self) {
        self.round(false);
    }

    /// One full-state anti-entropy round: every live node pushes its
    /// *entire* record set, not just its hot rumors, to [`FANOUT`] peers.
    /// Rumor mongering's per-record budgets can die out before a rumor
    /// reaches every member, freezing stale views; epidemic layers
    /// therefore back the hot path with periodic full sync (SWIM's
    /// anti-entropy), and [`Gossip::run_until_converged`] falls back to
    /// this whenever the hot path goes quiet while views still disagree.
    pub fn run_sync_round(&mut self) {
        self.round(true);
    }

    fn round(&mut self, full_sync: bool) {
        let start = SimTime::from_millis(self.rounds_run * ROUND_MS);
        self.sim.advance_to(start);
        self.arena.clear();
        // Peer selection draws from a stream derived per round, so the
        // choices are independent of how callers interleave inject() with
        // run_round() — determinism depends only on the event sequence.
        let mut rng = self.round_rng();
        let mut chosen: Vec<NodeId> = Vec::with_capacity(FANOUT);
        let mut before_probe: Vec<NodeId> = Vec::new();
        for id in 0..self.views.len() {
            let node = NodeId(id as u16);
            let Some(view) = self.views[id].as_mut() else {
                continue;
            };
            // The peers are the believed-alive ids other than `node`, in
            // id order: the `i`-th peer is the `i`-th alive id, stepping
            // over the node's own.
            let own = view.alive.binary_search(&node).ok();
            let peer_count = view.alive.len() - usize::from(own.is_some());
            if peer_count == 0 {
                continue;
            }
            let peer =
                |alive: &[NodeId], i: usize| alive[i + usize::from(own.is_some_and(|o| i >= o))];
            // The probe: without it, knowledge of a failure can vanish
            // entirely (the one-shot detector departs before its rumor
            // spreads) and no view could ever re-learn it.  Ping/ack
            // bytes are noise next to rumor payloads and are not part
            // of the byte accounting.
            let probe = peer(&view.alive, rng.random_range(0..peer_count));
            // The fan-out below draws from the peers as they stood before
            // the probe, so the rare probe that evicts its target keeps a
            // copy of that list.
            let mut evicted = false;
            if let Some((incarnation, state)) = self.truth[probe.index()] {
                if state != PeerState::Alive {
                    before_probe.clone_from(&view.alive);
                    evicted = true;
                    view.apply(
                        Rumor {
                            subject: probe,
                            incarnation,
                            state,
                        },
                        self.push_budget,
                    );
                }
            }
            let offset = self.arena.len();
            if full_sync {
                self.arena.extend(view.rumors());
            } else if view.hot.is_empty() {
                // Most views have nothing hot most rounds.
                continue;
            } else {
                view.take_hot(&mut self.arena);
            }
            let len = self.arena.len() - offset;
            if len == 0 {
                continue;
            }
            let bytes = GOSSIP_HEADER_BYTES + RUMOR_WIRE_BYTES * len;
            let peers = if evicted { &before_probe } else { &view.alive };
            let k = FANOUT.min(peer_count);
            chosen.clear();
            while chosen.len() < k {
                let cand = peer(peers, rng.random_range(0..peer_count));
                if !chosen.contains(&cand) {
                    chosen.push(cand);
                }
            }
            for dst in &chosen {
                if self
                    .sim
                    .send(node, *dst, bytes, start, (offset, len))
                    .is_some()
                {
                    self.messages_sent += 1;
                }
            }
        }
        while let Some(d) = self.sim.next() {
            if let Some(view) = self.views[d.to.index()].as_mut() {
                let (offset, len) = d.payload;
                for rumor in &self.arena[offset..offset + len] {
                    view.apply(*rumor, self.push_budget);
                }
            }
        }
        self.rounds_run += 1;
    }

    /// Run rounds until every live view agrees with the ground truth,
    /// returning how many rounds it took.  Errors if `max_rounds` pass
    /// without convergence.
    ///
    /// Rumor mongering carries almost every run; if a round puts no
    /// message on the wire while views still disagree (the hot path died
    /// out before full coverage), the next round is a full-state sync
    /// ([`Gossip::run_sync_round`]) so convergence can never freeze.
    pub fn run_until_converged(&mut self, max_rounds: u64) -> Result<u64> {
        let start = self.rounds_run;
        let mut sync_next = false;
        while self.rounds_run - start <= max_rounds {
            if self.converged() {
                return Ok(self.rounds_run - start);
            }
            if self.rounds_run - start == max_rounds {
                break;
            }
            let sent_before = self.messages_sent;
            if sync_next {
                self.run_sync_round();
            } else {
                self.run_round();
            }
            sync_next = self.messages_sent == sent_before;
        }
        Err(OrchestraError::Substrate(format!(
            "gossip failed to converge within {max_rounds} rounds"
        )))
    }

    /// Do all live views agree with the ground truth about who is alive?
    /// Every live view is based on the truth, so only their lags are read.
    pub fn converged(&self) -> bool {
        self.views.iter().flatten().all(|view| {
            debug_assert!(Arc::ptr_eq(&view.truth, &self.truth));
            view.alive_matches_truth()
        })
    }

    /// How many of `viewer`'s records lag the ground truth — the
    /// staleness a query planned at `viewer` right now would embed.
    pub fn staleness_of(&self, viewer: NodeId) -> usize {
        self.views[viewer.index()]
            .as_ref()
            .map_or(0, MemberView::staleness)
    }

    /// The local view of `node`, if it is participating.
    pub fn view(&self, node: NodeId) -> Option<&MemberView> {
        self.views[node.index()].as_ref()
    }

    /// Ground truth: the nodes actually alive right now, sorted by id.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.truth
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, Some((_, PeerState::Alive))))
            .map(|(i, _)| NodeId(i as u16))
            .collect()
    }

    /// Gossip rounds executed so far.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Gossip messages actually placed on the wire.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total rumor bytes transferred (from the simulator's exact
    /// accounting).
    pub fn total_bytes(&self) -> u64 {
        self.sim.total_bytes()
    }

    /// Messages dropped because a participant had already departed.
    pub fn dropped_messages(&self) -> u64 {
        self.sim.dropped_messages()
    }

    /// The retransmit budget given to freshly accepted rumors.
    pub fn push_budget(&self) -> u32 {
        self.push_budget
    }

    /// The lowest-id live node other than `x` — bootstrap contact and
    /// departure witness.
    fn contact(&self, x: NodeId) -> Option<NodeId> {
        self.live_nodes().into_iter().find(|n| *n != x)
    }

    /// The failure detector for `x`: the next live node by id (wrapping),
    /// a deterministic stand-in for the ping neighbour of Section V-C.
    fn detector_of(&self, x: NodeId) -> Option<NodeId> {
        // In `usize`: `x + step` passes `u16::MAX` in a universe above
        // 32,768 ids.
        let n = self.views.len();
        (1..n)
            .map(|step| (x.index() + step) % n)
            .find(|cand| self.views[*cand].is_some())
            .map(|cand| NodeId(cand as u16))
    }

    fn apply_at(&mut self, node: NodeId, rumor: Rumor) {
        if let Some(view) = self.views[node.index()].as_mut() {
            view.apply(rumor, self.push_budget);
        }
    }

    fn round_rng(&self) -> StdRng {
        rng::seeded_stream(
            self.cfg.seed ^ self.rounds_run.wrapping_mul(0x9e3779b97f4a7c15),
            "gossip-round",
        )
    }
}

#[cfg(test)]
mod lag_equivalence;

#[cfg(test)]
mod tests {
    use super::lag_equivalence::{assert_lag_is_minimal, changed_truth};
    use super::*;

    fn cluster(n: usize) -> Gossip {
        Gossip::new(
            n,
            n + 8,
            GossipConfig::default(),
            ClusterProfile::wan_metro(),
        )
    }

    #[test]
    fn settled_cluster_starts_converged() {
        let g = cluster(8);
        assert!(g.converged());
        assert_eq!(g.live_nodes().len(), 8);
        assert_eq!(g.total_bytes(), 0);
    }

    #[test]
    fn rumor_precedence_orders_states_and_incarnations() {
        let alive2 = Rumor {
            subject: NodeId(1),
            incarnation: 2,
            state: PeerState::Alive,
        };
        assert!(
            alive2.supersedes(1, PeerState::Failed),
            "higher incarnation wins"
        );
        assert!(
            !alive2.supersedes(2, PeerState::Failed),
            "equal incarnation: Failed beats Alive"
        );
        assert!(!alive2.supersedes(3, PeerState::Alive));
        let failed2 = Rumor {
            subject: NodeId(1),
            incarnation: 2,
            state: PeerState::Failed,
        };
        assert!(failed2.supersedes(2, PeerState::Left));
        assert!(failed2.supersedes(2, PeerState::Alive));
    }

    #[test]
    fn join_rumor_reaches_every_view() {
        let mut g = cluster(16);
        g.inject(MembershipChange::Joined(NodeId(20))).unwrap();
        assert!(!g.converged());
        let rounds = g.run_until_converged(64).unwrap();
        assert!(rounds > 0);
        for n in g.live_nodes() {
            assert!(
                is_alive(g.view(n).unwrap().state_of(NodeId(20))),
                "{n} missed the join"
            );
        }
        assert!(g.total_bytes() > 0);
        assert!(g.messages_sent() > 0);
    }

    #[test]
    fn failure_rumor_evicts_the_crashed_node_everywhere() {
        let mut g = cluster(16);
        g.inject(MembershipChange::Failed(NodeId(3))).unwrap();
        g.run_until_converged(64).unwrap();
        for n in g.live_nodes() {
            assert!(!is_alive(g.view(n).unwrap().state_of(NodeId(3))));
        }
        // The crashed node itself no longer participates.
        assert!(g.view(NodeId(3)).is_none());
    }

    #[test]
    fn rejoin_with_higher_incarnation_refutes_stale_failure_rumor() {
        let mut g = cluster(16);
        // Node 5 crashes; the failure rumor starts circulating...
        g.inject(MembershipChange::Failed(NodeId(5))).unwrap();
        g.run_round();
        // ...but node 5 rejoins (incarnation 2) before it has converged.
        g.inject(MembershipChange::Joined(NodeId(5))).unwrap();
        g.run_until_converged(64).unwrap();
        // The stale Failed(inc 1) rumor must not evict the rejoined node.
        for n in g.live_nodes() {
            let (inc, state) = g.view(n).unwrap().state_of(NodeId(5)).unwrap();
            assert_eq!(
                (inc, state),
                (2, PeerState::Alive),
                "view at {n} kept a stale record"
            );
        }
        assert!(g.live_nodes().contains(&NodeId(5)));
    }

    #[test]
    fn stale_failure_rumor_arriving_after_rejoin_is_discarded() {
        // Direct view-level check of the satellite requirement: a Failed
        // rumor about incarnation 1 reaching a view that already accepted
        // Alive at incarnation 2 is a no-op — whether the view holds the
        // rejoin in its lag or its truth has caught up with it.
        let stale = Rumor {
            subject: NodeId(1),
            incarnation: 1,
            state: PeerState::Failed,
        };
        let mut view = MemberView::seeded([NodeId(0), NodeId(1)]);
        assert!(view.apply(
            Rumor {
                subject: NodeId(1),
                incarnation: 2,
                state: PeerState::Alive,
            },
            3,
        ));
        assert_eq!(view.lag, [(NodeId(1), Some((2, PeerState::Alive)))]);
        let version = view.version();
        assert!(!view.apply(stale, 3));
        assert_eq!(view.version(), version);
        assert!(is_alive(view.state_of(NodeId(1))));

        let truth = changed_truth(&view.truth, NodeId(1), Some((2, PeerState::Alive)));
        view.rebase(&truth, NodeId(1));
        assert!(view.lag.is_empty());
        assert!(!view.apply(stale, 3));
        assert_eq!(view.version(), version);
        assert!(is_alive(view.state_of(NodeId(1))));
        assert_eq!(view.staleness(), 0);
    }

    #[test]
    fn graceful_leave_disseminates() {
        let mut g = cluster(8);
        g.inject(MembershipChange::Left(NodeId(2))).unwrap();
        g.run_until_converged(64).unwrap();
        for n in g.live_nodes() {
            assert_eq!(
                g.view(n).unwrap().state_of(NodeId(2)),
                Some((1, PeerState::Left))
            );
        }
    }

    #[test]
    fn convergence_is_logarithmic_at_fanout_two() {
        for n in [32usize, 128] {
            let mut g = Gossip::new(
                n,
                n + 8,
                GossipConfig::default(),
                ClusterProfile::wan_metro(),
            );
            g.inject(MembershipChange::Joined(NodeId(n as u16)))
                .unwrap();
            let bound = 3 * (n as f64).log2().ceil() as u64 + 4;
            let rounds = g.run_until_converged(bound).unwrap();
            assert!(rounds <= bound, "n={n}: {rounds} rounds > bound {bound}");
        }
    }

    #[test]
    fn staleness_decays_to_zero_as_rumors_spread() {
        let mut g = cluster(32);
        g.inject(MembershipChange::Failed(NodeId(9))).unwrap();
        let viewer = NodeId(31);
        let before = g.staleness_of(viewer);
        assert_eq!(before, 1, "viewer has not heard about the crash yet");
        g.run_until_converged(64).unwrap();
        assert_eq!(g.staleness_of(viewer), 0);
    }

    #[test]
    fn derived_membership_and_snapshot_follow_the_view() {
        let mut g = cluster(8);
        g.inject(MembershipChange::Failed(NodeId(1))).unwrap();
        g.run_until_converged(64).unwrap();
        let view = g.view(NodeId(0)).unwrap();
        assert_eq!(view.alive_nodes().len(), 7);
        assert_eq!(view.state_of(NodeId(1)).unwrap().1, PeerState::Failed);
        assert!(!view.history().is_empty());
        let snap = view
            .snapshot(
                AllocationScheme::Balanced,
                ReplicationPolicy::FixedFactor(3),
            )
            .unwrap();
        assert!(!snap.contains_node(NodeId(1)));
        assert_eq!(snap.node_count(), 7);
        // Built from the alive list, it is the table those nodes build,
        // and an empty view errs.
        let policy = ReplicationPolicy::PercentageOfNodes(0.5);
        let direct = view.snapshot(AllocationScheme::Balanced, policy).unwrap();
        let alive = view.alive_nodes();
        let expected = RoutingTable::build_with_policy(alive, AllocationScheme::Balanced, policy);
        assert_eq!(*direct, expected);
        let empty = MemberView::seeded([]);
        let err = empty.snapshot(AllocationScheme::Balanced, policy);
        assert!(err.unwrap_err().to_string().contains("no live nodes"));
    }

    #[test]
    fn gossip_is_deterministic() {
        let run = || {
            let mut g = cluster(24);
            g.inject(MembershipChange::Failed(NodeId(7))).unwrap();
            g.inject(MembershipChange::Joined(NodeId(30))).unwrap();
            let rounds = g.run_until_converged(64).unwrap();
            (rounds, g.total_bytes(), g.messages_sent())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lost_failure_knowledge_is_rediscovered_by_probing() {
        let mut g = cluster(8);
        // Node 3 crashes; its detector (node 4, the next live id) is the
        // only view holding the Failed(3) rumor...
        g.inject(MembershipChange::Failed(NodeId(3))).unwrap();
        // ...and then the detector crashes before a single round runs, so
        // knowledge of 3's death exists in no surviving view.
        g.inject(MembershipChange::Failed(NodeId(4))).unwrap();
        for n in g.live_nodes() {
            assert!(
                is_alive(g.view(n).unwrap().state_of(NodeId(3))),
                "{n} should not yet know about 3's crash"
            );
        }
        // The per-round probe must rediscover the failure and converge.
        g.run_until_converged(64).unwrap();
        for n in g.live_nodes() {
            let view = g.view(n).unwrap();
            assert!(!is_alive(view.state_of(NodeId(3))));
            assert!(!is_alive(view.state_of(NodeId(4))));
        }
    }

    #[test]
    fn sync_round_ships_full_state_when_rumors_die_out() {
        let mut g = cluster(8);
        g.inject(MembershipChange::Joined(NodeId(9))).unwrap();
        // Exhaust every hot rumor without requiring convergence.
        for _ in 0..32 {
            g.run_round();
        }
        if !g.converged() {
            let before = g.messages_sent();
            g.run_sync_round();
            assert!(g.messages_sent() > before, "sync round must push state");
        }
        g.run_until_converged(64).unwrap();
        assert!(g.converged());
    }

    /// `alive_nodes()` as the records define it: the ids whose latest
    /// accepted state is `Alive`.
    fn alive_by_records(view: &MemberView, universe: u16) -> Vec<NodeId> {
        (0..universe)
            .map(NodeId)
            .filter(|n| matches!(view.state_of(*n), Some((_, PeerState::Alive))))
            .collect()
    }

    #[test]
    fn alive_list_tracks_the_records_through_random_rumors() {
        const UNIVERSE: u16 = 40;
        let mut r = rng::seeded(0xa11e);
        let mut view = MemberView::seeded((0..12).map(NodeId));
        let mut accepted = 0;
        let random_state = |r: &mut StdRng| {
            [PeerState::Alive, PeerState::Left, PeerState::Failed][r.random_range(0..3usize)]
        };
        for step in 0..2_000 {
            let rumor = Rumor {
                subject: NodeId(r.random_range(0..UNIVERSE)),
                incarnation: r.random_range(1..6u64),
                state: random_state(&mut r),
            };
            accepted += u64::from(view.apply(rumor, r.random_range(0..3u32)));
            if step % 5 == 0 {
                // Move the truth under the view: what it believes stays.
                let changed = NodeId(r.random_range(0..UNIVERSE));
                let record = Some((r.random_range(1..6u64), random_state(&mut r)));
                let before = (
                    view.rumors().collect::<Vec<_>>(),
                    view.alive_nodes().to_vec(),
                );
                view.rebase(&changed_truth(&view.truth, changed, record), changed);
                assert_eq!(
                    (
                        view.rumors().collect::<Vec<_>>(),
                        view.alive_nodes().to_vec()
                    ),
                    before
                );
            }
            assert_lag_is_minimal(&view);
            assert_eq!(view.alive_nodes(), alive_by_records(&view, UNIVERSE));
        }
        assert_eq!(view.version(), accepted);
        assert!(accepted > 100, "only {accepted} rumors carried news");
        let all = view.rumors().collect::<Vec<_>>();
        assert!(all.windows(2).all(|w| w[0].subject < w[1].subject));
        for rumor in &all {
            assert_eq!(
                view.state_of(rumor.subject),
                Some((rumor.incarnation, rumor.state))
            );
        }
        assert_eq!(
            all.len(),
            (0..UNIVERSE)
                .filter(|n| view.state_of(NodeId(*n)).is_some())
                .count()
        );
        assert_eq!(view.state_of(NodeId(UNIVERSE)), None);
        assert!(!is_alive(view.state_of(NodeId(u16::MAX))));
    }

    #[test]
    fn seeded_accepts_unsorted_and_duplicate_ids() {
        let view = MemberView::seeded([7, 2, 9, 2, 0, 7].map(NodeId));
        assert_eq!(view.alive_nodes(), [0, 2, 7, 9].map(NodeId));
        assert_eq!(view.rumors().collect::<Vec<_>>().len(), 4);
        assert_eq!(view.state_of(NodeId(2)), Some((1, PeerState::Alive)));
        assert_eq!(view.state_of(NodeId(1)), None);
        assert_eq!(view.state_of(NodeId(10)), None);
        assert!(MemberView::seeded([]).alive_nodes().is_empty());
        // A seeded view is its own truth: it lags nowhere.
        assert_eq!(view.truth.len(), 10);
        assert!(view.lag.is_empty());
        assert_eq!(view.staleness(), 0);
        assert!(view.alive_matches_truth());
    }

    #[test]
    fn converged_means_every_view_matches_the_truth_id_by_id() {
        let by_id = |g: &Gossip| {
            let truth = g.live_nodes();
            g.live_nodes().iter().all(|viewer| {
                (0..g.views.len() as u16).all(|u| {
                    is_alive(g.view(*viewer).unwrap().state_of(NodeId(u)))
                        == truth.contains(&NodeId(u))
                })
            })
        };
        let mut g = cluster(24);
        let mut rounds_disagreeing = 0;
        for change in [
            MembershipChange::Failed(NodeId(7)),
            MembershipChange::Joined(NodeId(30)),
            MembershipChange::Left(NodeId(12)),
            MembershipChange::Joined(NodeId(7)),
        ] {
            g.inject(change).unwrap();
            for _ in 0..40 {
                assert_eq!(g.converged(), by_id(&g));
                rounds_disagreeing += u32::from(!g.converged());
                g.run_round();
            }
            assert!(g.converged());
        }
        assert!(rounds_disagreeing > 8);
    }

    #[test]
    fn detector_lookup_does_not_overflow_in_a_large_universe() {
        let mut g = Gossip::new(
            1,
            60_000,
            GossipConfig::default(),
            ClusterProfile::wan_metro(),
        );
        g.inject(MembershipChange::Joined(NodeId(50_000))).unwrap();
        g.inject(MembershipChange::Joined(NodeId(20_000))).unwrap();
        g.inject(MembershipChange::Left(NodeId(0))).unwrap();
        // The detector of 50,000 is found by wrapping past id 65,535.
        g.inject(MembershipChange::Failed(NodeId(50_000))).unwrap();
        g.run_until_converged(64).unwrap();
        let view = g.view(NodeId(20_000)).unwrap();
        assert!(!is_alive(view.state_of(NodeId(50_000))));
    }

    #[test]
    fn thousand_node_cluster_converges_within_log_bound() {
        let mut g = Gossip::new(
            1000,
            1001,
            GossipConfig::default(),
            ClusterProfile::wan_metro(),
        );
        g.inject(MembershipChange::Joined(NodeId(1000))).unwrap();
        let bound = 3 * (1000f64).log2().ceil() as u64 + 4;
        let rounds = g.run_until_converged(bound).unwrap();
        assert!(rounds <= bound, "{rounds} > {bound}");
        assert!(g.total_bytes() > 0);
    }
}
