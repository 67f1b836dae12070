//! The data-path equivalence suite.
//!
//! The fingerprints below were recorded against the row-at-a-time seed
//! implementation (`cargo run --release -p orchestra-bench --example
//! record_equiv` at the commit before the columnar refactor).  Every
//! run — Copy, Concatenate, Q1, Q3 and Q6, failure-free and with a
//! mid-query failure under both recovery strategies — must keep its
//! answer rows, per-link traffic (and therefore every batch's wire
//! size), simulated running time and recovery counters byte-identical.
//! The seed engine no longer exists in the tree, so these lines are the
//! reference: a diverging field means a change to the data path altered
//! an observable of the simulation, not just its CPU cost, and the
//! failing line names the exact run.

use orchestra_bench::equiv::{equivalence_workloads, fingerprint_lines};

/// One line per (workload, scenario), in catalogue order.
const SEED_FINGERPRINTS: [&str; 15] = [
    "stbenchmark-copy none answer=dba63b4d916ba1dc links=2df0983cc2faf346 time_us=3577 bytes=20253 msgs=15 purged=0 retx=0 phases=1",
    "stbenchmark-copy Restart answer=dba63b4d916ba1dc links=112d6715a8f2ed58 time_us=7785 bytes=37380 msgs=25 purged=0 retx=0 phases=2",
    "stbenchmark-copy Incremental answer=dba63b4d916ba1dc links=39652c5ade80e24d time_us=6560 bytes=24042 msgs=23 purged=30 retx=0 phases=2",
    "stbenchmark-concatenate none answer=83e77ce9be776703 links=4f6238be83e3a261 time_us=3670 bytes=31497 msgs=15 purged=0 retx=0 phases=1",
    "stbenchmark-concatenate Restart answer=83e77ce9be776703 links=d82bc311bf68e5e1 time_us=8003 bytes=58212 msgs=25 purged=0 retx=0 phases=2",
    "stbenchmark-concatenate Incremental answer=83e77ce9be776703 links=60db24e50ab5eaf1 time_us=6698 bytes=35670 msgs=23 purged=30 retx=0 phases=2",
    "tpch-q1 none answer=a4cb6e2b9f53f168 links=963a0aecd1b92e7d time_us=3535 bytes=9549 msgs=15 purged=0 retx=0 phases=1",
    "tpch-q1 Restart answer=a4cb6e2b9f53f168 links=faf242c9372e592c time_us=7762 bytes=16828 msgs=25 purged=0 retx=0 phases=2",
    "tpch-q1 Incremental answer=a4cb6e2b9f53f168 links=3df989cc515aa8ff time_us=6624 bytes=15270 msgs=23 purged=10 retx=0 phases=2",
    "tpch-q3 none answer=aa3b966af1083e5e links=ff8db8169921f89d time_us=4934 bytes=19362 msgs=112 purged=0 retx=0 phases=1",
    "tpch-q3 Restart answer=aa3b966af1083e5e links=dcdd5ef3aa08507b time_us=10599 bytes=32304 msgs=132 purged=0 retx=0 phases=2",
    "tpch-q3 Incremental answer=aa3b966af1083e5e links=f79626ab6d39a985 time_us=8598 bytes=28129 msgs=122 purged=17 retx=13 phases=2",
    "tpch-q6 none answer=cf2a014bb61c4d89 links=98634cd090f17c44 time_us=3374 bytes=7035 msgs=15 purged=0 retx=0 phases=1",
    "tpch-q6 Restart answer=cf2a014bb61c4d89 links=ab94aa77bf09d2df time_us=7447 bytes=12732 msgs=25 purged=0 retx=0 phases=2",
    "tpch-q6 Incremental answer=cf2a014bb61c4d89 links=49a3b7aa4e6a313a time_us=6425 bytes=11974 msgs=23 purged=4 retx=0 phases=2",
];

#[test]
fn columnar_path_reproduces_seed_row_path_figures_exactly() {
    let mut produced = Vec::new();
    for workload in equivalence_workloads() {
        produced.extend(fingerprint_lines(workload.as_ref()).unwrap());
    }
    assert_eq!(produced.len(), SEED_FINGERPRINTS.len());
    for (got, want) in produced.iter().zip(SEED_FINGERPRINTS.iter()) {
        assert_eq!(
            got, want,
            "simulated figures diverged from the recorded row-path seed"
        );
    }
}
