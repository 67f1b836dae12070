//! Deterministic sustained-churn event streams.
//!
//! The paper's evaluation holds the membership fixed per experiment; the
//! gossip layer ([`orchestra_substrate::gossip`]) removes that
//! assumption, and this module generates the load for it: per-epoch
//! batches of join/leave/failure events whose *counts* follow a Poisson
//! process (drawn via `sample_exp` inter-arrival sums, one draw per
//! event), the standard model for independent node arrivals and
//! departures.  The same `(spec, universe, initial)` always yields the
//! same stream, so churn benchmarks stay byte-reproducible.
//!
//! Arrivals prefer to *rejoin* a previously departed node (exercising the
//! incarnation-refutation path) and otherwise admit a fresh participant;
//! departures pick a uniformly random live node and crash it with the
//! configured probability (otherwise it leaves gracefully).  Protected
//! nodes — typically the query initiator and its workload anchors — are
//! never departed, and the live population never drops below `min_live`.

use orchestra_common::{rng, NodeId, OrchestraError, Result};
use orchestra_substrate::MembershipChange;

/// Shape of a sustained-churn run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Number of epochs (event batches) to generate.
    pub epochs: usize,
    /// Mean node arrivals per epoch (Poisson rate).
    pub arrivals_per_epoch: f64,
    /// Mean node departures per epoch (Poisson rate).
    pub departures_per_epoch: f64,
    /// Probability that a departure is a crash rather than a graceful
    /// leave.
    pub crash_fraction: f64,
    /// Floor on the live population; departures are suppressed below it.
    pub min_live: usize,
    /// Seed for every random draw of the stream.
    pub seed: u64,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            epochs: 8,
            arrivals_per_epoch: 2.0,
            departures_per_epoch: 2.0,
            crash_fraction: 0.5,
            min_live: 4,
            seed: 0xc4u64,
        }
    }
}

/// A generated churn stream: one batch of membership events per epoch.
#[derive(Clone, Debug)]
pub struct ChurnStream {
    events: Vec<Vec<MembershipChange>>,
}

impl ChurnStream {
    /// Number of epochs.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the stream empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events of epoch `i`, in application order.
    pub fn epoch(&self, i: usize) -> &[MembershipChange] {
        &self.events[i]
    }
}

/// Draw a Poisson(`mean`) count: the number of unit-mean exponential
/// inter-arrival times that fit into an interval of length `mean`.
fn poisson_count(r: &mut rng::StdRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let mut elapsed = 0.0;
    let mut count = 0;
    loop {
        elapsed += r.sample_exp(1.0);
        if elapsed > mean {
            return count;
        }
        count += 1;
    }
}

/// Generate a churn stream over a universe of node ids `0..universe`, of
/// which `0..initial` start live.  Nodes in `protected` never depart.
pub fn churn_stream(
    universe: usize,
    initial: usize,
    protected: &[NodeId],
    spec: &ChurnSpec,
) -> Result<ChurnStream> {
    if initial == 0 || initial > universe {
        return Err(OrchestraError::Execution(format!(
            "churn stream needs 0 < initial ({initial}) <= universe ({universe})"
        )));
    }
    if !(0.0..=1.0).contains(&spec.crash_fraction) {
        return Err(OrchestraError::Execution(format!(
            "crash_fraction must be a probability, got {}",
            spec.crash_fraction
        )));
    }
    let mut alive: Vec<NodeId> = (0..initial as u16).map(NodeId).collect();
    let mut departed: Vec<NodeId> = Vec::new();
    let mut next_fresh = initial as u16;
    let mut events = Vec::with_capacity(spec.epochs);

    for epoch in 0..spec.epochs {
        let mut r = rng::seeded_stream(spec.seed, &format!("churn-epoch-{epoch}"));
        let arrivals = poisson_count(&mut r, spec.arrivals_per_epoch);
        let departures = poisson_count(&mut r, spec.departures_per_epoch);
        let mut batch = Vec::new();

        for _ in 0..arrivals {
            // Prefer rejoining a departed node (a replacement process on
            // the same identity, exercising incarnation refutation) half
            // the time; otherwise admit a brand-new participant.
            let rejoin =
                !departed.is_empty() && ((next_fresh as usize) >= universe || r.random_bool(0.5));
            let node = if rejoin {
                departed.remove(r.random_range(0..departed.len()))
            } else if (next_fresh as usize) < universe {
                let n = NodeId(next_fresh);
                next_fresh += 1;
                n
            } else {
                continue; // universe exhausted and nobody to rejoin
            };
            alive.push(node);
            alive.sort_unstable();
            batch.push(MembershipChange::Joined(node));
        }

        for _ in 0..departures {
            if alive.len() <= spec.min_live {
                break;
            }
            let eligible: Vec<usize> = (0..alive.len())
                .filter(|i| !protected.contains(&alive[*i]))
                .collect();
            if eligible.is_empty() {
                break;
            }
            let victim = alive.remove(eligible[r.random_range(0..eligible.len())]);
            departed.push(victim);
            batch.push(if r.random_bool(spec.crash_fraction) {
                MembershipChange::Failed(victim)
            } else {
                MembershipChange::Left(victim)
            });
        }

        events.push(batch);
    }
    Ok(ChurnStream { events })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> ChurnSpec {
        ChurnSpec {
            epochs: 12,
            arrivals_per_epoch: 3.0,
            departures_per_epoch: 3.0,
            crash_fraction: 0.5,
            min_live: 4,
            seed,
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let a = churn_stream(64, 16, &[NodeId(0)], &spec(7)).unwrap();
        let b = churn_stream(64, 16, &[NodeId(0)], &spec(7)).unwrap();
        assert_eq!(a.len(), 12);
        for i in 0..a.len() {
            assert_eq!(a.epoch(i), b.epoch(i), "epoch {i}");
        }
        let c = churn_stream(64, 16, &[NodeId(0)], &spec(8)).unwrap();
        assert!(
            (0..12).any(|i| a.epoch(i) != c.epoch(i)),
            "seed must matter"
        );
    }

    #[test]
    fn protected_nodes_never_depart_and_population_keeps_its_floor() {
        let protected = [NodeId(0), NodeId(1)];
        let s = churn_stream(32, 8, &protected, &spec(3)).unwrap();
        let mut live = 8usize;
        assert!(s.events.iter().map(Vec::len).sum::<usize>() > 0);
        for i in 0..s.len() {
            for ev in s.epoch(i) {
                match ev {
                    MembershipChange::Joined(_) => live += 1,
                    MembershipChange::Left(n) | MembershipChange::Failed(n) => {
                        assert!(!protected.contains(n), "protected node {n} departed");
                        live -= 1;
                    }
                }
                assert!(live >= 4, "population fell below the floor at epoch {i}");
            }
        }
    }

    #[test]
    fn rejoins_and_both_departure_kinds_occur() {
        let s = churn_stream(24, 12, &[], &spec(11)).unwrap();
        let mut seen_departed: Vec<NodeId> = Vec::new();
        let mut rejoined = false;
        let mut crashed = false;
        let mut left = false;
        for i in 0..s.len() {
            for ev in s.epoch(i) {
                match ev {
                    MembershipChange::Joined(n) => rejoined |= seen_departed.contains(n),
                    MembershipChange::Left(n) => {
                        left = true;
                        seen_departed.push(*n);
                    }
                    MembershipChange::Failed(n) => {
                        crashed = true;
                        seen_departed.push(*n);
                    }
                }
            }
        }
        assert!(rejoined, "a sustained stream should rejoin departed nodes");
        assert!(crashed && left, "both departure kinds should occur");
    }

    #[test]
    fn poisson_counts_have_the_right_mean() {
        let mut r = rng::seeded(42);
        let n = 2000;
        let total: usize = (0..n).map(|_| poisson_count(&mut r, 3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.2, "empirical mean {mean} far from 3");
    }

    #[test]
    fn degenerate_specs_are_rejected_or_empty() {
        assert!(churn_stream(8, 0, &[], &spec(1)).is_err());
        assert!(churn_stream(8, 9, &[], &spec(1)).is_err());
        let bad = ChurnSpec {
            crash_fraction: 1.5,
            ..spec(1)
        };
        assert!(churn_stream(8, 4, &[], &bad).is_err());
        let none = ChurnSpec {
            arrivals_per_epoch: 0.0,
            departures_per_epoch: 0.0,
            ..spec(1)
        };
        let s = churn_stream(8, 4, &[], &none).unwrap();
        assert_eq!(s.events.iter().map(Vec::len).sum::<usize>(), 0);
    }
}
