//! Hierarchical wall-clock span profiler.
//!
//! The [`event`](crate::event) layer records *simulated*-time events: what
//! the benchmark under study did. This module answers the complementary
//! question — where does *real* wall-clock time go inside the LoadGen and
//! harness themselves — with RAII span timers ([`SpanGuard`], usually via
//! the [`profile_span!`](crate::profile_span) macro) feeding a global,
//! thread-safe span tree.
//!
//! The profiler is a process-wide singleton so hot paths do not need a
//! handle threaded through every call: when profiling is disabled (the
//! default), entering a span costs one relaxed atomic load and a branch.
//! When enabled, each span enter/exit takes a short critical section on the
//! tree.
//!
//! Two exporters ship with the report:
//!
//! * [`SpanReport::table`] — a self-time-sorted text table with inclusive
//!   and exclusive totals and call counts;
//! * [`SpanReport::collapsed`] — `;`-joined collapsed stacks weighted by
//!   exclusive nanoseconds, the input format of Brendan Gregg's
//!   `flamegraph.pl`.
//!
//! ```
//! use mlperf_trace::profile;
//!
//! profile::reset();
//! profile::set_enabled(true);
//! {
//!     mlperf_trace::profile_span!("outer");
//!     mlperf_trace::profile_span!("inner");
//! }
//! profile::set_enabled(false);
//! let report = profile::report();
//! assert!(report.collapsed().contains("outer;inner"));
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::sync::lock;

/// Index of the synthetic root node in the span tree.
const ROOT: usize = 0;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn tree() -> &'static Mutex<SpanTree> {
    static TREE: OnceLock<Mutex<SpanTree>> = OnceLock::new();
    TREE.get_or_init(|| Mutex::new(SpanTree::new()))
}

thread_local! {
    /// Per-thread stack of open span node indices.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    inclusive_ns: u64,
}

#[derive(Debug)]
struct SpanTree {
    nodes: Vec<Node>,
}

impl SpanTree {
    fn new() -> Self {
        Self {
            nodes: vec![Node {
                name: "",
                children: Vec::new(),
                calls: 0,
                inclusive_ns: 0,
            }],
        }
    }

    /// Finds or creates the child of `parent` named `name`.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&idx) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name,
            children: Vec::new(),
            calls: 0,
            inclusive_ns: 0,
        });
        self.nodes[parent].children.push(idx);
        idx
    }
}

/// Turns profiling on or off. Spans entered while disabled record nothing.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span profiling is currently on.
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discards all recorded spans (the tree, not the enabled flag).
///
/// Call between profiled sections; spans still open across a `reset` are
/// dropped silently rather than corrupting the fresh tree.
pub fn reset() {
    *lock(tree()) = SpanTree::new();
    STACK.with(|stack| stack.borrow_mut().clear());
}

/// Snapshots the current span tree into a [`SpanReport`].
pub fn report() -> SpanReport {
    let tree = lock(tree());
    let mut rows = Vec::new();
    // Depth-first walk keeps parents before children, so the table reads
    // top-down and collapsed stacks can reuse the path accumulator.
    fn walk(tree: &SpanTree, node: usize, path: &mut Vec<&'static str>, rows: &mut Vec<SpanRow>) {
        for &child in &tree.nodes[node].children {
            let n = &tree.nodes[child];
            path.push(n.name);
            let child_ns: u64 = tree.nodes[child]
                .children
                .iter()
                .map(|&c| tree.nodes[c].inclusive_ns)
                .sum();
            rows.push(SpanRow {
                path: path.clone(),
                calls: n.calls,
                inclusive_ns: n.inclusive_ns,
                exclusive_ns: n.inclusive_ns.saturating_sub(child_ns),
            });
            walk(tree, child, path, rows);
            path.pop();
        }
    }
    let mut path = Vec::new();
    walk(&tree, ROOT, &mut path, &mut rows);
    SpanReport { rows }
}

/// An RAII timer for one span occurrence.
///
/// Created by [`SpanGuard::enter`] (or the [`profile_span!`](crate::profile_span)
/// macro); records the elapsed wall-clock time into the global span tree
/// when dropped. `name` must be a string literal (or other `'static` str)
/// so hot paths never allocate.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(usize, Instant)>,
}

impl SpanGuard {
    /// Opens a span named `name` under the calling thread's current span.
    ///
    /// When profiling is disabled this is one atomic load and returns an
    /// inert guard.
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        if !enabled() {
            return Self { active: None };
        }
        let idx = {
            let mut tree = lock(tree());
            let parent = STACK.with(|stack| stack.borrow().last().copied().unwrap_or(ROOT));
            tree.child(parent, name)
        };
        STACK.with(|stack| stack.borrow_mut().push(idx));
        Self {
            active: Some((idx, Instant::now())),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((idx, start)) = self.active.take() else {
            return;
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&idx) {
                stack.pop();
            }
        });
        let mut tree = lock(tree());
        // A reset between enter and drop invalidates the index; skip.
        if let Some(node) = tree.nodes.get_mut(idx) {
            node.calls += 1;
            node.inclusive_ns += elapsed;
        }
    }
}

/// Opens a profiling span for the rest of the enclosing scope.
///
/// ```
/// fn hot_path() {
///     mlperf_trace::profile_span!("hot_path");
///     // ... timed work ...
/// }
/// ```
#[macro_export]
macro_rules! profile_span {
    ($name:expr) => {
        let _mlperf_profile_span_guard = $crate::profile::SpanGuard::enter($name);
    };
}

/// One aggregated span of the tree: a unique call path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Span names from the tree root down to this span.
    pub(crate) path: Vec<&'static str>,
    /// Number of completed occurrences.
    pub calls: u64,
    /// Total wall-clock time inside this span, children included.
    pub inclusive_ns: u64,
    /// Inclusive time minus the children's inclusive time.
    pub(crate) exclusive_ns: u64,
}

impl SpanRow {
    /// Nesting depth (1 for top-level spans).
    pub(crate) fn depth(&self) -> usize {
        self.path.len()
    }
}

/// A snapshot of the profiler's span tree with its exporters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReport {
    rows: Vec<SpanRow>,
}

impl SpanReport {
    /// Sum of the top-level spans' inclusive time: the profiled wall time.
    pub fn root_inclusive_ns(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.depth() == 1)
            .map(|r| r.inclusive_ns)
            .sum()
    }

    /// Looks up a span by its full `;`-joined path.
    pub fn find(&self, path: &str) -> Option<&SpanRow> {
        self.rows.iter().find(|r| r.path.join(";") == path)
    }

    /// Renders the tree as a text table sorted by exclusive (self) time.
    ///
    /// The tree structure is preserved in the `span` column via the full
    /// path; sorting by self time puts the actual hot spots on top.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<&SpanRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| {
            b.exclusive_ns
                .cmp(&a.exclusive_ns)
                .then(a.path.cmp(&b.path))
        });
        let total = self.root_inclusive_ns().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<52} {:>10} {:>14} {:>14} {:>6}",
            "span", "calls", "inclusive_ms", "self_ms", "self%"
        );
        for row in rows {
            let _ = writeln!(
                out,
                "{:<52} {:>10} {:>14.3} {:>14.3} {:>5.1}%",
                row.path.join(";"),
                row.calls,
                row.inclusive_ns as f64 / 1e6,
                row.exclusive_ns as f64 / 1e6,
                row.exclusive_ns as f64 * 100.0 / total as f64,
            );
        }
        out
    }

    /// Renders collapsed stacks — one `a;b;c <weight>` line per span with
    /// nonzero self time, weighted in exclusive nanoseconds — ready for
    /// `flamegraph.pl` or speedscope.
    pub fn collapsed(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for row in &self.rows {
            if row.exclusive_ns > 0 {
                let _ = writeln!(out, "{} {}", row.path.join(";"), row.exclusive_ns);
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod test_lock {
    //! The profiler is process-global; tests that drive it serialize on
    //! this lock so `cargo test`'s threaded runner cannot interleave them.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        crate::sync::lock(&LOCK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = test_lock::hold();
        reset();
        set_enabled(false);
        {
            profile_span!("ghost");
        }
        assert!(report().rows.is_empty());
    }

    #[test]
    fn tree_structure_and_counts() {
        let _serial = test_lock::hold();
        reset();
        set_enabled(true);
        for _ in 0..3 {
            profile_span!("parent");
            {
                profile_span!("child");
            }
            {
                profile_span!("child");
            }
        }
        set_enabled(false);
        let report = report();
        let parent = report.find("parent").expect("parent span");
        let child = report.find("parent;child").expect("child span");
        assert_eq!(parent.calls, 3);
        assert_eq!(child.calls, 6);
        assert!(parent.inclusive_ns >= child.inclusive_ns);
        assert_eq!(
            parent.exclusive_ns,
            parent.inclusive_ns - child.inclusive_ns
        );
        assert_eq!(report.root_inclusive_ns(), parent.inclusive_ns);
    }

    #[test]
    fn root_inclusive_tracks_wall_clock() {
        let _serial = test_lock::hold();
        reset();
        set_enabled(true);
        let wall = Instant::now();
        {
            profile_span!("busy");
            let spin = Instant::now();
            while spin.elapsed().as_millis() < 20 {
                std::hint::black_box(0u64);
            }
        }
        let wall_ns = wall.elapsed().as_nanos() as u64;
        set_enabled(false);
        let root_ns = report().root_inclusive_ns();
        let diff = wall_ns.abs_diff(root_ns);
        assert!(
            diff * 10 <= wall_ns,
            "root {root_ns} ns vs wall {wall_ns} ns differ by more than 10%"
        );
    }

    #[test]
    fn exporters_render_paths() {
        let _serial = test_lock::hold();
        reset();
        set_enabled(true);
        {
            profile_span!("a");
            {
                profile_span!("b");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        set_enabled(false);
        let report = report();
        let table = report.table();
        assert!(table.contains("a;b"), "{table}");
        assert!(table.contains("self_ms"), "{table}");
        let collapsed = report.collapsed();
        assert!(collapsed.lines().count() >= 1, "{collapsed}");
        for line in collapsed.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("weighted line");
            assert!(!stack.is_empty());
            weight.parse::<u64>().expect("numeric weight");
        }
    }

    #[test]
    fn threads_merge_into_one_tree() {
        let _serial = test_lock::hold();
        reset();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    profile_span!("worker");
                    std::hint::black_box(0u64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let report = report();
        let worker = report.find("worker").expect("merged span");
        assert_eq!(worker.calls, 4);
    }
}
