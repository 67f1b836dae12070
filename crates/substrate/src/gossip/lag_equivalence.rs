//! A view stored as its lag behind the truth; the dense table it replaced
//! is the reference.
//!
//! [`DenseView`] is `MemberView` as it was: one `(incarnation, state)`
//! record per node id, grown when a rumor names an id past its end.  Over
//! universes of 8–64 ids, random streams of rumors (some naming ids past
//! the end of the snapshot a view is based on, some carrying the truth's
//! own record), re-bases onto a truth changed at one id, and hot-rumor
//! takes, a lagging view must read like the dense one after every step:
//! the record of every id, the alive list, the version, every record as a
//! rumor, the hot rumors and the history, and — against the current
//! truth — staleness and whether it believes alive what the truth does.
//!
//! `cargo test` runs 20 random cases in a debug build; a release build
//! runs all 300.

use super::*;
use orchestra_common::rng::{seeded, StdRng};

/// `MemberView` as a dense table by node id.
struct DenseView {
    records: Vec<Record>,
    alive: Vec<NodeId>,
    hot: Vec<(Rumor, u32)>,
    history: Vec<MembershipChange>,
    version: u64,
}

impl DenseView {
    fn seeded(alive: impl IntoIterator<Item = NodeId>) -> DenseView {
        let mut alive: Vec<NodeId> = alive.into_iter().collect();
        alive.sort_unstable();
        alive.dedup();
        let mut records = vec![None; alive.last().map_or(0, |n| n.index() + 1)];
        for n in &alive {
            records[n.index()] = Some((1, PeerState::Alive));
        }
        DenseView {
            records,
            alive,
            hot: Vec::new(),
            history: Vec::new(),
            version: 0,
        }
    }

    fn apply(&mut self, rumor: Rumor, budget: u32) -> bool {
        let slot = rumor.subject.index();
        if slot >= self.records.len() {
            self.records.resize(slot + 1, None);
        }
        let was_alive = match self.records[slot] {
            Some((inc, state)) if !rumor.supersedes(inc, state) => return false,
            record => matches!(record, Some((_, PeerState::Alive))),
        };
        self.records[slot] = Some((rumor.incarnation, rumor.state));
        if was_alive != (rumor.state == PeerState::Alive) {
            match self.alive.binary_search(&rumor.subject) {
                Ok(at) => {
                    self.alive.remove(at);
                }
                Err(at) => self.alive.insert(at, rumor.subject),
            }
        }
        self.hot.retain(|(r, _)| r.subject != rumor.subject);
        if budget > 0 {
            self.hot.push((rumor, budget));
        }
        self.history.push(match rumor.state {
            PeerState::Alive => MembershipChange::Joined(rumor.subject),
            PeerState::Left => MembershipChange::Left(rumor.subject),
            PeerState::Failed => MembershipChange::Failed(rumor.subject),
        });
        self.version += 1;
        true
    }

    fn take_hot(&mut self) -> Vec<Rumor> {
        let out = self.hot.iter().map(|(r, _)| *r).collect();
        for entry in &mut self.hot {
            entry.1 -= 1;
        }
        self.hot.retain(|(_, b)| *b > 0);
        out
    }

    fn all_rumors(&self) -> Vec<Rumor> {
        self.records
            .iter()
            .enumerate()
            .filter_map(|(id, record)| {
                let (incarnation, state) = (*record)?;
                Some(Rumor {
                    subject: NodeId(id as u16),
                    incarnation,
                    state,
                })
            })
            .collect()
    }

    fn state_of(&self, node: NodeId) -> Record {
        self.records.get(node.index()).copied().flatten()
    }

    /// `Gossip::staleness_of` as it read the dense table: the ids `truth`
    /// holds a record of that the view has not heard or that supersedes
    /// the view's.
    fn staleness(&self, truth: &[Record]) -> usize {
        truth
            .iter()
            .enumerate()
            .filter(|(u, t)| {
                let Some((inc, state)) = t else { return false };
                let truth = Rumor {
                    subject: NodeId(*u as u16),
                    incarnation: *inc,
                    state: *state,
                };
                match self.state_of(truth.subject) {
                    Some((vi, vs)) => truth.supersedes(vi, vs),
                    None => true,
                }
            })
            .count()
    }
}

/// The lag is ascending by subject and holds only records that differ
/// from the truth's.
pub(super) fn assert_lag_is_minimal(view: &MemberView) {
    assert!(
        view.lag.windows(2).all(|w| w[0].0 < w[1].0),
        "lag not ascending: {:?}",
        view.lag
    );
    for (node, held) in &view.lag {
        assert_ne!(
            *held,
            view.truth_of(*node),
            "{node} lags with the truth's record"
        );
    }
}

/// `truth` with `changed`'s record replaced by `record`, grown to reach
/// it.
pub(super) fn changed_truth(truth: &[Record], changed: NodeId, record: Record) -> Arc<[Record]> {
    let mut next = truth.to_vec();
    if changed.index() >= next.len() {
        next.resize(changed.index() + 1, None);
    }
    next[changed.index()] = record;
    next.into()
}

fn random_state(rng: &mut StdRng) -> PeerState {
    [PeerState::Alive, PeerState::Left, PeerState::Failed][rng.random_range(0..3usize)]
}

fn assert_same(case: usize, step: usize, lagging: &MemberView, dense: &DenseView, universe: u16) {
    let at = format!("case {case}, step {step}");
    assert_lag_is_minimal(lagging);
    for id in 0..=universe {
        let node = NodeId(id);
        assert_eq!(lagging.state_of(node), dense.state_of(node), "{at}: {node}");
    }
    assert_eq!(lagging.alive_nodes(), dense.alive, "{at}: alive");
    assert_eq!(lagging.version(), dense.version, "{at}: version");
    assert_eq!(
        lagging.rumors().collect::<Vec<_>>(),
        dense.all_rumors(),
        "{at}: records"
    );
    assert_eq!(lagging.hot, dense.hot, "{at}: hot");
    assert_eq!(lagging.history, dense.history, "{at}: history");
    let truth = &lagging.truth;
    assert_eq!(
        lagging.staleness(),
        dense.staleness(truth),
        "{at}: staleness"
    );
    let truth_alive: Vec<NodeId> = (0..truth.len())
        .filter(|id| is_alive(truth[*id]))
        .map(|id| NodeId(id as u16))
        .collect();
    assert_eq!(
        lagging.alive_matches_truth(),
        dense.alive == truth_alive,
        "{at}: agreement with the truth"
    );
}

#[test]
fn a_lagging_view_reads_what_the_dense_view_read() {
    let cases = if cfg!(debug_assertions) { 20 } else { 300 };
    let mut rng = seeded(0x01a9_0f7e);
    let (mut pinned, mut caught_up, mut past_end) = (0, 0, 0);
    for case in 0..cases {
        let universe = rng.random_range(8..=64u16);
        // Seeds in the lower half, so rumors name ids past the end of the
        // snapshot the view starts from.
        let seeds: Vec<NodeId> = (0..rng.random_range(0..=universe / 2))
            .map(|_| NodeId(rng.random_range(0..universe / 2)))
            .collect();
        let (mut lagging, mut dense) = if rng.random_bool(0.25) {
            // A joiner without a contact: based on a truth it has heard
            // nothing of.
            let truth: Arc<[Record]> = (0..universe / 2)
                .map(|_| {
                    rng.random_bool(0.7)
                        .then(|| (rng.random_range(1..4u64), random_state(&mut rng)))
                })
                .collect();
            (MemberView::unaware(truth), DenseView::seeded([]))
        } else {
            (
                MemberView::seeded(seeds.iter().copied()),
                DenseView::seeded(seeds),
            )
        };
        assert_same(case, 0, &lagging, &dense, universe);
        for step in 1..=200 {
            match rng.random_range(0..10u32) {
                0..=5 => {
                    let subject = NodeId(rng.random_range(0..universe));
                    past_end += usize::from(subject.index() >= lagging.truth.len());
                    let rumor = match lagging.truth_of(subject) {
                        // The truth's own record, as gossip carries it.
                        Some((incarnation, state)) if rng.random_bool(0.5) => Rumor {
                            subject,
                            incarnation,
                            state,
                        },
                        _ => Rumor {
                            subject,
                            incarnation: rng.random_range(1..6u64),
                            state: random_state(&mut rng),
                        },
                    };
                    let lagged = lagging.lag.len();
                    let budget = rng.random_range(0..3u32);
                    let news = lagging.apply(rumor, budget);
                    assert_eq!(news, dense.apply(rumor, budget), "case {case}, step {step}");
                    caught_up += usize::from(lagging.lag.len() < lagged);
                }
                6..=8 => {
                    let changed = NodeId(rng.random_range(0..universe));
                    let record = rng.random_bool(0.9).then(|| {
                        let base = lagging.truth_of(changed).map_or(1, |(inc, _)| inc);
                        (base + rng.random_range(0..2u64), random_state(&mut rng))
                    });
                    let truth = changed_truth(&lagging.truth, changed, record);
                    let lagged = lagging.lag.len();
                    lagging.rebase(&truth, changed);
                    pinned += usize::from(lagging.lag.len() > lagged);
                }
                _ => {
                    let mut arena = vec![Rumor {
                        subject: NodeId(0),
                        incarnation: 0,
                        state: PeerState::Alive,
                    }];
                    lagging.take_hot(&mut arena);
                    assert_eq!(arena[1..], dense.take_hot(), "case {case}, step {step}");
                }
            }
            assert_same(case, step, &lagging, &dense, universe);
        }
    }
    assert!(
        pinned > cases && caught_up > cases && past_end > cases,
        "too few re-bases pinned a record ({pinned}), rumors caught up with \
         the truth ({caught_up}) or named ids past its end ({past_end})"
    );
}
