//! A send costs a push onto the event heap, pinned by counting
//! allocations.
//!
//! The simulator counts the run's bytes and messages and keeps no
//! per-link or per-node traffic state, so once its event heap has grown
//! to the run's peak, sending a message — over a link never used before
//! included — and popping one allocate nothing.  This binary installs a
//! counting allocator (its own, so no other test pays for it) to check
//! that at the scale of a thousand-node gossip round's fan-out.

use orchestra_common::NodeId;
use orchestra_simnet::{ClusterProfile, SimTime, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting the calling thread's allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc`, as the host benchmark's
/// `harness.allocs_per_op` does).  Per thread, because the tests of one
/// binary run side by side.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is shutting down may still free and
    // allocate after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `work` and return its result with the number of allocation calls
/// this thread made meanwhile.
fn counting<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = work();
    (out, ALLOCS.with(Cell::get) - before)
}

const NODES: usize = 300;
const SENDS: usize = 10_000;
const BYTES: usize = 38;

fn node(i: usize) -> NodeId {
    NodeId((i % NODES) as u16)
}

#[test]
fn a_send_over_a_fresh_link_allocates_nothing() {
    let mut sim: Simulator<u32> = Simulator::new(NODES, ClusterProfile::wan_metro());
    // Warm-up: every message in flight at once, over the links (i, i + 1),
    // grows the event heap past anything the measured phase holds; then
    // drain it.
    let ((), warm_up) = counting(|| {
        for i in 0..SENDS {
            sim.send(node(i), node(i + 1), BYTES, SimTime::ZERO, i as u32);
        }
        while sim.next().is_some() {}
    });
    assert!(warm_up > 0, "the heap grew, and the counter saw it");

    // Every measured send uses an ordered pair never used before: source
    // i mod 300 to the node 2..=35 ids above it.  A pop follows every
    // second send, so the heap peaks near SENDS / 2.
    let start = sim.now();
    let (delivered, allocs) = counting(|| {
        let mut delivered = 0;
        for i in 0..SENDS {
            let (src, dst) = (node(i), node(i + 2 + i / NODES));
            sim.send(src, dst, BYTES, start, i as u32)
                .expect("no node has failed");
            if i % 2 == 1 {
                delivered += usize::from(sim.next().is_some());
            }
        }
        while sim.next().is_some() {
            delivered += 1;
        }
        delivered
    });
    assert_eq!(delivered, SENDS);
    assert_eq!(allocs, 0, "{SENDS} sends over fresh links allocated");
    assert_eq!(sim.total_messages(), 2 * SENDS as u64);
    assert_eq!(sim.total_bytes(), (2 * SENDS * BYTES) as u64);
}
