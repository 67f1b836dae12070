//! Measurement plumbing shared by the four workloads: the counting
//! allocator, the per-call timer that doubles as the span recorder, and
//! the small statistics the report needs.
//!
//! Everything here observes the product from outside: a timed call wraps
//! one public function of a product crate, and with tracing on the same
//! wrapper also records a span.  Nothing inside the product is touched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `System`, with every allocation counted.  Always installed, so both
/// sides of a before/after comparison pay the same two relaxed adds.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, bytes requested)` since process start.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One recorded interval.  `parent` indexes the span list; the spans of
/// one operation share `op`, and probe spans carry no `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: Option<usize>,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of the root span of one operation.
pub const OP_SPAN: &str = "harness.op";
/// Name of the root span of one round of probes.
pub const PROBES_SPAN: &str = "harness.probes";
/// Name of a stretch inside an operation that is not part of its time:
/// input generation and reference runs that have to sit mid-operation.
pub const UNTIMED_SPAN: &str = "harness.untimed";

/// What one finished operation cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCost {
    /// Sum of the operation's timed product calls.
    pub call_ns: u64,
    /// Wall time of the operation minus its untimed stretches.
    pub region_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Times product calls and, when `tracing`, records them as spans.
pub struct Tracer {
    tracing: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    /// Open root span (an operation or a probe round), if any.
    root: Option<usize>,
    ops_begun: usize,
    in_op: bool,
    region_start_ns: u64,
    untimed_ns: u64,
    cost: OpCost,
}

impl Tracer {
    pub fn new(tracing: bool) -> Tracer {
        Tracer {
            tracing,
            origin: Instant::now(),
            spans: Vec::new(),
            root: None,
            ops_begun: 0,
            in_op: false,
            region_start_ns: 0,
            untimed_ns: 0,
            cost: OpCost::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open_root(&mut self, name: &'static str, op: Option<usize>) {
        if self.tracing {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: None,
                op,
                alloc_bytes: 0,
            });
            self.root = Some(self.spans.len() - 1);
        }
    }

    fn close_root(&mut self) {
        if let Some(root) = self.root.take() {
            let end_ns = self.now_ns();
            let children: u64 = self.spans[root + 1..].iter().map(|s| s.alloc_bytes).sum();
            let span = &mut self.spans[root];
            span.end_ns = end_ns;
            span.alloc_bytes = children;
        }
    }

    /// Start the timed region of the next operation.
    pub fn begin_op(&mut self) {
        self.cost = OpCost::default();
        self.untimed_ns = 0;
        self.in_op = true;
        self.open_root(OP_SPAN, Some(self.ops_begun));
        self.ops_begun += 1;
        self.region_start_ns = self.now_ns();
    }

    /// Close the operation's timed region — also after a panic, when the
    /// cost covers whatever ran before it.
    pub fn end_op(&mut self) -> OpCost {
        let end = self.now_ns();
        self.close_root();
        self.in_op = false;
        self.cost.region_ns = (end - self.region_start_ns).saturating_sub(self.untimed_ns);
        self.cost
    }

    /// Start a round of probes: direct calls the operations never make
    /// themselves.  Only meaningful while tracing.
    pub fn begin_probes(&mut self) {
        self.open_root(PROBES_SPAN, None);
    }

    pub fn end_probes(&mut self) {
        self.close_root();
    }

    /// Run `f` as the span `name`.  A `timed` span is part of the
    /// operation in progress: its time and allocations count toward the
    /// operation's cost.
    fn record<R>(&mut self, name: &'static str, timed: bool, f: impl FnOnce() -> R) -> (R, u64) {
        let (calls_before, bytes_before) = alloc_counters();
        let start = Instant::now();
        let result = f();
        let nanos = start.elapsed().as_nanos() as u64;
        let (calls_after, bytes_after) = alloc_counters();
        let alloc_bytes = if timed { bytes_after - bytes_before } else { 0 };
        if timed && self.in_op {
            self.cost.call_ns += nanos;
            self.cost.allocs += calls_after - calls_before;
            self.cost.alloc_bytes += alloc_bytes;
        }
        if self.tracing {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: end_ns - nanos,
                end_ns,
                parent: self.root,
                op: self.root.and_then(|r| self.spans[r].op),
                alloc_bytes,
            });
        }
        (result, nanos)
    }

    /// Time one call into a product crate's public function, returning
    /// its result and how long it took in nanoseconds.
    pub fn call_timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        self.record(name, true, f)
    }

    /// [`Tracer::call_timed`] for callers that only want the result.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.call_timed(name, f).0
    }

    /// Run work that must sit inside an operation but is not part of it.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (result, nanos) = self.record(UNTIMED_SPAN, false, f);
        self.untimed_ns += nanos;
        result
    }

    /// Durations of every recorded span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64)
            .collect()
    }

    /// Write the span list as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let optional = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"alloc_bytes\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                optional(s.parent),
                optional(s.op),
                s.alloc_bytes
            )?;
        }
        Ok(())
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty sample, which is how a metric whose spans
/// a workload never produces reads.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `total / count`, 0 when nothing was counted.
pub fn per(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
