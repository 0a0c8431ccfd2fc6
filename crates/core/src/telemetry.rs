//! Structured solver telemetry: search events, sinks, and JSON reports.
//!
//! The branch-and-bound emits a [`SearchEvent`] stream (branch, propagate,
//! prune, backtrack, leaf — each tagged with its work-unit id, the
//! branch depth, and a monotonic timestamp) into an optional
//! [`TelemetrySink`] configured through
//! [`SolverConfig::telemetry`](crate::SolverConfig::telemetry). Sinks run on
//! the search's worker threads, so they must be `Send + Sync`. Built-in
//! sinks:
//!
//! * [`MemoryJournal`] — a bounded in-memory journal for post-mortem
//!   analysis of the parallel search;
//! * [`FileJournal`] — a streaming newline-delimited-JSON (NDJSON) writer
//!   with per-worker shard buffers (no global lock on the hot path), read
//!   back by the `recopack trace` exporters.
//!
//! A sink is for the opt-in trace only. Aggregate counters live in
//! [`SolverStats`] regardless of whether a sink is installed, and a
//! running solve's live counters are read from its
//! [`SolveHandle`](crate::SolveHandle), which every search feeds without
//! a sink. [`SolveReport`] packages the stats (plus wall time, outcome
//! and the journal's dropped count) into the versioned JSON document
//! emitted by the CLI's `--stats-json` and by the service's
//! `GET /jobs/{id}`.
//!
//! # Event ordering and timestamps
//!
//! In sequential mode the event stream is exactly the depth-first trace of
//! the search. In parallel mode events from different work units
//! interleave nondeterministically, but every event carries its
//! [`SearchEvent::subtree`] id, so a per-unit depth-first trace can be
//! recovered by a stable partition on that id. [`SearchEvent::t_ns`] is
//! captured per worker from the search's shared [`std::time::Instant`]
//! epoch, so timestamps of different unit streams are mergeable onto one
//! timeline; optimization solvers (BMP/SPP/Pareto) run one search per
//! decision, and each search restarts the epoch at zero.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::config::SolverStats;

/// Version of the JSON documents produced by [`SolveReport::to_json`] and
/// [`SolverStats`] serialization.
///
/// Bump this whenever a field is renamed, removed, or changes meaning;
/// adding fields is backward compatible and does not require a bump.
///
/// History: **1** — initial schema; **2** — events carry `t_ns`, stats
/// carry a `timings` object, reports carry `events` totals and
/// `journal_dropped`; **3** — reports drop `events`: its totals repeated
/// `stats` (nodes, leaves, per-rule conflicts), and the trace still
/// carries every event.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 3;

/// The propagation rule (or check) that refuted a subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneRule {
    /// C2: a comparability clique (chain) exceeds the container.
    C2,
    /// C3: a pair overlapped in every dimension.
    C3,
    /// C1 (partial): an induced 4-cycle pattern was completed.
    C4,
    /// D1/D2 orientation implications clashed.
    Orientation,
}

impl PruneRule {
    /// Every rule, in [`PruneRule::index`] order.
    pub const ALL: [PruneRule; 4] = [
        PruneRule::C2,
        PruneRule::C3,
        PruneRule::C4,
        PruneRule::Orientation,
    ];

    /// Stable snake_case name used in telemetry JSON.
    pub const fn name(self) -> &'static str {
        match self {
            PruneRule::C2 => "c2",
            PruneRule::C3 => "c3",
            PruneRule::C4 => "c4",
            PruneRule::Orientation => "orientation",
        }
    }

    /// Dense index into per-rule arrays ([`SolverStats::prune_ns`]);
    /// inverse of indexing [`PruneRule::ALL`].
    pub const fn index(self) -> usize {
        match self {
            PruneRule::C2 => 0,
            PruneRule::C3 => 1,
            PruneRule::C4 => 2,
            PruneRule::Orientation => 3,
        }
    }
}

impl std::fmt::Display for PruneRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened at one point of the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A branching decision fixed `(dim, pair)` to component (`true`) or
    /// comparability (`false`).
    Branch {
        /// Dense dimension index (`0` = x, `1` = y, `2` = time).
        dim: usize,
        /// Pair index in the instance's [`PairIndex`](recopack_graph::PairIndex).
        pair: usize,
        /// `true` for the component ("overlap") choice.
        component: bool,
    },
    /// A propagation cascade completed, fixing `fixes` further slots.
    Propagate {
        /// Edge states fixed by the cascade (excluding the branched slot).
        fixes: u64,
    },
    /// A propagation rule refuted the current subtree.
    Prune {
        /// The rule that fired.
        rule: PruneRule,
    },
    /// The search undid the most recent branching decision.
    Backtrack,
    /// A fully assigned leaf was realized and verified (`accepted`) or
    /// rejected by realization/verification.
    Leaf {
        /// Whether the leaf produced a valid placement.
        accepted: bool,
    },
}

impl EventKind {
    /// Stable snake_case name of the event type used in telemetry JSON.
    pub const fn name(&self) -> &'static str {
        match self {
            EventKind::Branch { .. } => "branch",
            EventKind::Propagate { .. } => "propagate",
            EventKind::Prune { .. } => "prune",
            EventKind::Backtrack => "backtrack",
            EventKind::Leaf { .. } => "leaf",
        }
    }
}

/// One entry of the search event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchEvent {
    /// Work-unit id: `0` for the sequential search and the parallel root
    /// unit, then one fresh id per stolen unit, in offer order.
    pub subtree: usize,
    /// Branching depth at which the event occurred.
    pub depth: u32,
    /// Monotonic nanoseconds since the search started, captured per worker
    /// from one shared epoch — subtree streams merge onto a single
    /// timeline. The clock is read only when a sink is installed, so a
    /// disabled [`Telemetry`] costs zero clock reads.
    pub t_ns: u64,
    /// The event itself.
    pub kind: EventKind,
}

impl SearchEvent {
    /// Serializes the event as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write_event(&mut out, self);
        out
    }
}

fn write_event(out: &mut String, e: &SearchEvent) -> std::fmt::Result {
    use std::fmt::Write as _;
    write!(
        out,
        "{{\"subtree\":{},\"depth\":{},\"t_ns\":{},\"event\":\"{}\"",
        e.subtree,
        e.depth,
        e.t_ns,
        e.kind.name()
    )?;
    match e.kind {
        EventKind::Branch {
            dim,
            pair,
            component,
        } => write!(
            out,
            ",\"dim\":{dim},\"pair\":{pair},\"component\":{component}"
        )?,
        EventKind::Propagate { fixes } => write!(out, ",\"fixes\":{fixes}")?,
        EventKind::Prune { rule } => write!(out, ",\"rule\":\"{}\"", rule.name())?,
        EventKind::Backtrack => {}
        EventKind::Leaf { accepted } => write!(out, ",\"accepted\":{accepted}")?,
    }
    out.push('}');
    Ok(())
}

/// A consumer of the solver's event stream.
///
/// Implementations must be cheap and non-blocking: `record` is called from
/// the search hot path (once per branch/prune/backtrack, once per completed
/// propagation cascade) on every worker thread.
pub trait TelemetrySink: Send + Sync {
    /// Called for every search event.
    fn record(&self, event: &SearchEvent);

    /// Called once per completed search. The merged statistics go to the
    /// caller and to the solve's [`SolveHandle`](crate::SolveHandle), not
    /// to sinks.
    fn search_finished(&self) {}
}

/// The telemetry handle stored in
/// [`SolverConfig`](crate::SolverConfig): either disabled (the default,
/// zero-cost) or an [`Arc`] to a shared [`TelemetrySink`].
///
/// Equality compares sink *identity* (same `Arc`), which keeps
/// [`SolverConfig`](crate::SolverConfig) `Eq` without requiring sinks to be
/// comparable.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl Telemetry {
    /// The disabled handle (no events are recorded).
    pub const fn none() -> Self {
        Self { sink: None }
    }

    /// A handle delivering events to `sink`.
    pub fn to(sink: Arc<dyn TelemetrySink>) -> Self {
        Self { sink: Some(sink) }
    }

    /// Whether a sink is installed; events are delivered only when `true`.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Delivers one event to the sink, if any.
    pub(crate) fn emit(&self, event: SearchEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// Signals the end of a search to the sink, if any.
    pub(crate) fn finish(&self) {
        if let Some(sink) = &self.sink {
            sink.search_finished();
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.sink {
            Some(_) => f.write_str("Telemetry(enabled)"),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        match (&self.sink, &other.sink) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Telemetry {}

/// A bounded in-memory event journal for post-mortem analysis.
///
/// Records up to `capacity` events and counts the overflow, so a runaway
/// search cannot exhaust memory through its own diagnostics. Thread-safe:
/// all workers of a parallel search append to the same journal (see the
/// module docs on event ordering).
pub struct MemoryJournal {
    capacity: usize,
    events: Mutex<Vec<SearchEvent>>,
    dropped: AtomicU64,
    finished: AtomicU64,
}

impl MemoryJournal {
    /// A journal retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            finished: AtomicU64::new(0),
        }
    }

    /// A copy of the recorded events, in arrival order.
    pub fn events(&self) -> Vec<SearchEvent> {
        self.events.lock().expect("no poisoned locks").clone()
    }

    /// Events discarded after the journal filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Completed searches observed (one per `Search::run`; optimization
    /// solvers like BMP/SPP run one search per decision).
    pub fn searches_finished(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Serializes the journal as a JSON object with an `events` array.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let events = self.events();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema_version\":{TELEMETRY_SCHEMA_VERSION},\"capacity\":{},\"dropped\":{},\"events\":[",
            self.capacity,
            self.dropped()
        );
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write_event(&mut out, e);
        }
        out.push_str("]}");
        out
    }
}

impl TelemetrySink for MemoryJournal {
    fn record(&self, event: &SearchEvent) {
        let mut events = self.events.lock().expect("no poisoned locks");
        if events.len() < self.capacity {
            events.push(*event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn search_finished(&self) {
        self.finished.fetch_add(1, Ordering::Relaxed);
    }
}

/// How many shard buffers a [`FileJournal`] spreads worker threads over.
/// A power of two comfortably above any sane `--threads` value.
const FILE_JOURNAL_SHARDS: usize = 16;

/// Bytes a shard buffer accumulates before it is flushed to the file.
const FILE_JOURNAL_FLUSH_BYTES: usize = 64 * 1024;

/// One shard of a [`FileJournal`]: pending NDJSON bytes plus the number of
/// complete lines they hold (so IO failures can count what was lost).
#[derive(Default)]
struct JournalShard {
    buf: String,
    pending: u64,
}

/// The shared file half of a [`FileJournal`], with a sticky first error.
struct JournalFile {
    file: std::fs::File,
    error: Option<std::io::Error>,
}

/// A streaming NDJSON sink: events are serialized into per-worker shard
/// buffers (selected by thread id, so the hot path never touches a global
/// lock) and flushed to a file in buffer-sized chunks.
///
/// Per-unit order is preserved: a work unit is searched by one worker
/// thread, that thread always lands in the same shard, and a shard is
/// flushed under its own lock — so lines of one unit appear in the file
/// in emission order, merely interleaved with other units' chunks.
///
/// The journal is bounded like [`MemoryJournal`]: an optional event
/// capacity plus fixed-size shard buffers. Events beyond the capacity, and
/// events lost to write errors, increment an explicit [`dropped`] counter —
/// a truncated trace is detectable, never silent. The first IO error is
/// sticky and re-surfaced by [`flush`].
///
/// [`dropped`]: FileJournal::dropped
/// [`flush`]: FileJournal::flush
pub struct FileJournal {
    shards: Vec<Mutex<JournalShard>>,
    file: Mutex<JournalFile>,
    flush_bytes: usize,
    capacity: u64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl FileJournal {
    /// Creates (truncating) `path` with no event capacity limit.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Self::with_capacity(path, u64::MAX)
    }

    /// Creates (truncating) `path`, recording at most `capacity` events.
    pub fn with_capacity(path: &std::path::Path, capacity: u64) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self {
            shards: (0..FILE_JOURNAL_SHARDS)
                .map(|_| Mutex::new(JournalShard::default()))
                .collect(),
            file: Mutex::new(JournalFile { file, error: None }),
            flush_bytes: FILE_JOURNAL_FLUSH_BYTES,
            capacity,
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Events discarded — past the capacity or lost to write errors.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events accepted into the journal so far.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed).min(self.capacity)
    }

    /// The shard the calling thread writes to.
    fn shard(&self) -> &Mutex<JournalShard> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::hash::DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        &self.shards[hasher.finish() as usize % self.shards.len()]
    }

    /// Writes a shard's pending bytes to the file. Must be called with the
    /// shard lock held, so flushes of one shard stay in emission order.
    fn write_out(&self, shard: &mut JournalShard) {
        if shard.buf.is_empty() {
            return;
        }
        let mut file = self.file.lock().expect("no poisoned locks");
        match file.file.write_all(shard.buf.as_bytes()) {
            Ok(()) => {}
            Err(e) => {
                self.dropped.fetch_add(shard.pending, Ordering::Relaxed);
                if file.error.is_none() {
                    file.error = Some(e);
                }
            }
        }
        shard.buf.clear();
        shard.pending = 0;
    }

    /// Flushes every shard buffer and the file, returning the first IO
    /// error encountered over the journal's whole lifetime.
    pub fn flush(&self) -> std::io::Result<()> {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("no poisoned locks");
            self.write_out(&mut shard);
        }
        let mut file = self.file.lock().expect("no poisoned locks");
        if let Some(e) = file.error.take() {
            return Err(e);
        }
        file.file.flush()
    }
}

impl TelemetrySink for FileJournal {
    fn record(&self, event: &SearchEvent) {
        if self.recorded.fetch_add(1, Ordering::Relaxed) >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut shard = self.shard().lock().expect("no poisoned locks");
        let _ = write_event(&mut shard.buf, event);
        shard.buf.push('\n');
        shard.pending += 1;
        if shard.buf.len() >= self.flush_bytes {
            self.write_out(&mut shard);
        }
    }

    fn search_finished(&self) {
        // Flush buffered lines but keep any sticky error for `flush`.
        for shard in &self.shards {
            let mut shard = shard.lock().expect("no poisoned locks");
            self.write_out(&mut shard);
        }
    }
}

impl Drop for FileJournal {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Escapes `s` into `out` as a JSON string literal (with quotes).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes [`SolverStats`] as a JSON object (one element of the telemetry
/// schema; see `SolveReport::to_json` for the enclosing document).
pub fn stats_to_json(stats: &SolverStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"nodes\":{},\"leaves\":{},\"leaf_rejections\":{},\"propagated_fixes\":{},\"arc_fixations\":{},\"propagation_events\":{},\"budget_checks\":{}",
        stats.nodes,
        stats.leaves,
        stats.leaf_rejections,
        stats.propagated_fixes,
        stats.arc_fixations,
        stats.propagation_events,
        stats.budget_checks,
    );
    let _ = write!(
        out,
        ",\"conflicts\":{{\"c2\":{},\"c3\":{},\"c4\":{},\"orientation\":{}}}",
        stats.c2_conflicts, stats.c3_conflicts, stats.c4_conflicts, stats.orientation_conflicts,
    );
    out.push_str(",\"depth_histogram\":[");
    for (i, count) in stats.depth_histogram.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{count}");
    }
    let _ = write!(
        out,
        "],\"refuted_by_bounds\":{},\"refuting_bound\":",
        stats.refuted_by_bounds
    );
    match stats.refuting_bound {
        Some(kind) => push_json_str(&mut out, kind.name()),
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"solved_by_heuristic\":{}",
        stats.solved_by_heuristic
    );
    let _ = write!(
        out,
        ",\"timings\":{{\"propagate_ns\":{},\"bounds_ns\":{},\"realize_ns\":{},\"prune_ns\":{{",
        stats.propagate_ns, stats.bounds_ns, stats.realize_ns,
    );
    for rule in PruneRule::ALL {
        if rule.index() > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", rule.name(), stats.prune_ns[rule.index()]);
    }
    out.push_str("}}}");
    out
}

/// A complete per-solve telemetry report: the document written by the CLI's
/// `--stats-json <path>` and embedded in the service's job status.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The subcommand or problem family that ran (`solve`, `bmp`, ...).
    pub command: String,
    /// Instance identification (file path or generator name).
    pub instance: String,
    /// Human-stable outcome: `feasible`, `infeasible`, `node limit`,
    /// `time limit`, or an optimization summary.
    pub outcome: String,
    /// Worker threads requested.
    pub threads: usize,
    /// Exact decision problems solved (1 for `solve`, the binary-search
    /// count for `bmp`/`spp`, the sweep total for `pareto`).
    pub decisions: u32,
    /// Wall-clock time of the whole command, in milliseconds.
    pub wall_ms: f64,
    /// Aggregated counters over all decisions and threads.
    pub stats: SolverStats,
    /// Events dropped by the trace journal (capacity overflow or write
    /// errors), when a journal was installed; `null` in JSON otherwise.
    pub journal_dropped: Option<u64>,
    /// Search throughput in explored nodes per second of wall-clock time,
    /// when the producer measured it; `null` in JSON otherwise.
    pub nodes_per_sec: Option<f64>,
    /// Propagation-queue throughput in processed events per second of
    /// wall-clock time, when the producer measured it; `null` in JSON
    /// otherwise.
    pub propagation_events_per_sec: Option<f64>,
}

/// Throughput of `count` events over `wall_ms` milliseconds, in events per
/// second — `None` when no wall-clock time elapsed (a rate computed from a
/// zero denominator would be infinite, which JSON cannot represent).
///
/// This is *the* rate computation behind every `*_per_sec` field of
/// [`SolveReport`], shared by the CLI, the bench runner, and the job
/// server so the zero-guard and units cannot drift apart.
pub fn per_second(count: u64, wall_ms: f64) -> Option<f64> {
    (wall_ms > 0.0).then(|| count as f64 / (wall_ms / 1000.0))
}

impl SolveReport {
    /// Serializes the report as a versioned JSON document.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"schema_version\":{TELEMETRY_SCHEMA_VERSION}");
        out.push_str(",\"command\":");
        push_json_str(&mut out, &self.command);
        out.push_str(",\"instance\":");
        push_json_str(&mut out, &self.instance);
        out.push_str(",\"outcome\":");
        push_json_str(&mut out, &self.outcome);
        let _ = write!(
            out,
            ",\"threads\":{},\"decisions\":{},\"wall_ms\":{:.3},\"stats\":{}",
            self.threads,
            self.decisions,
            self.wall_ms,
            stats_to_json(&self.stats)
        );
        out.push_str(",\"journal_dropped\":");
        match self.journal_dropped {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"nodes_per_sec\":");
        match self.nodes_per_sec {
            Some(rate) => {
                let _ = write!(out, "{rate:.1}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"propagation_events_per_sec\":");
        match self.propagation_events_per_sec {
            Some(rate) => {
                let _ = write!(out, "{rate:.1}");
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_bounds::BoundKind;

    #[test]
    fn telemetry_handle_equality_is_identity() {
        let a: Arc<dyn TelemetrySink> = Arc::new(MemoryJournal::new(4));
        let b: Arc<dyn TelemetrySink> = Arc::new(MemoryJournal::new(4));
        assert_eq!(Telemetry::none(), Telemetry::none());
        assert_eq!(Telemetry::to(a.clone()), Telemetry::to(a.clone()));
        assert_ne!(Telemetry::to(a.clone()), Telemetry::to(b));
        assert_ne!(Telemetry::to(a), Telemetry::none());
        assert!(!Telemetry::none().is_enabled());
        assert_eq!(format!("{:?}", Telemetry::none()), "Telemetry(disabled)");
    }

    #[test]
    fn journal_bounds_its_capacity() {
        let journal = MemoryJournal::new(2);
        for depth in 0..5 {
            journal.record(&SearchEvent {
                subtree: 0,
                depth,
                t_ns: 0,
                kind: EventKind::Backtrack,
            });
        }
        assert_eq!(journal.events().len(), 2);
        assert_eq!(journal.dropped(), 3);
        let json = journal.to_json();
        assert!(json.contains("\"dropped\":3"), "{json}");
        assert!(json.contains("\"event\":\"backtrack\""), "{json}");
    }

    #[test]
    fn events_serialize_their_payload() {
        let branch = SearchEvent {
            subtree: 3,
            depth: 7,
            t_ns: 1500,
            kind: EventKind::Branch {
                dim: 2,
                pair: 9,
                component: true,
            },
        };
        assert_eq!(
            branch.to_json(),
            "{\"subtree\":3,\"depth\":7,\"t_ns\":1500,\"event\":\"branch\",\"dim\":2,\"pair\":9,\"component\":true}"
        );
        let prune = SearchEvent {
            subtree: 0,
            depth: 1,
            t_ns: 0,
            kind: EventKind::Prune {
                rule: PruneRule::C4,
            },
        };
        assert!(prune.to_json().contains("\"rule\":\"c4\""));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn stats_json_covers_every_counter() {
        let stats = SolverStats {
            nodes: 5,
            leaves: 1,
            c2_conflicts: 2,
            depth_histogram: vec![1, 2, 2],
            refuting_bound: Some(BoundKind::Dff),
            refuted_by_bounds: true,
            ..SolverStats::default()
        };
        let json = stats_to_json(&stats);
        assert!(json.contains("\"nodes\":5"), "{json}");
        assert!(json.contains("\"c2\":2"), "{json}");
        assert!(json.contains("\"depth_histogram\":[1,2,2]"), "{json}");
        assert!(json.contains("\"refuting_bound\":\"dff\""), "{json}");
        assert!(json.contains("\"timings\":{\"propagate_ns\":0"), "{json}");
    }

    #[test]
    fn search_streams_events_into_the_journal() {
        use crate::{Opp, SolveOutcome, SolverConfig};
        use recopack_model::{Chip, Instance, Task};

        let journal = Arc::new(MemoryJournal::new(100_000));
        let config = SolverConfig {
            use_bounds: false,
            use_heuristics: false,
            telemetry: Telemetry::to(journal.clone()),
            ..SolverConfig::default()
        };
        // Search-heavy infeasible: five 2x2x2 tasks, one 4x4 time slot.
        let mut builder = Instance::builder().chip(Chip::square(4)).horizon(2);
        for i in 0..5 {
            builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
        }
        let instance = builder.build().expect("valid").with_transitive_closure();
        let (outcome, stats) = Opp::new(&instance).with_config(config).solve_with_stats();
        assert!(matches!(outcome, SolveOutcome::Infeasible(_)));
        assert_eq!(journal.searches_finished(), 1);
        assert_eq!(journal.dropped(), 0);

        let events = journal.events();
        let count = |name: &str| events.iter().filter(|e| e.kind.name() == name).count() as u64;
        assert!(stats.nodes > 0, "the instance must actually search");
        // Every conflict surfaces as a prune event, every successful
        // cascade as a propagate event, and every cascade except the
        // root seeding one follows a branch.
        assert_eq!(count("prune"), stats.conflicts());
        assert_eq!(count("branch") + 1, count("prune") + count("propagate"));
        assert_eq!(count("leaf"), stats.leaves);
        assert!(count("backtrack") > 0);
        // Sequential search: every event sits in subtree 0.
        assert!(events.iter().all(|e| e.subtree == 0));
    }

    #[test]
    fn report_is_versioned() {
        let report = SolveReport {
            command: "solve".into(),
            instance: "x.rpk".into(),
            outcome: "feasible".into(),
            threads: 2,
            decisions: 1,
            wall_ms: 1.25,
            stats: SolverStats::default(),
            journal_dropped: None,
            nodes_per_sec: None,
            propagation_events_per_sec: None,
        };
        let json = report.to_json();
        assert!(
            json.starts_with(&format!("{{\"schema_version\":{TELEMETRY_SCHEMA_VERSION}")),
            "{json}"
        );
        assert!(json.contains("\"wall_ms\":1.250"), "{json}");
        assert!(json.contains("\"stats\":{"), "{json}");
        assert!(!json.contains("\"events\""), "{json}");
        assert!(json.contains("\"journal_dropped\":null"), "{json}");
        assert!(json.contains("\"nodes_per_sec\":null"), "{json}");
        assert!(
            json.contains("\"propagation_events_per_sec\":null"),
            "{json}"
        );
    }

    #[test]
    fn report_roundtrips_through_the_shared_parser() {
        let report = SolveReport {
            command: "bmp".into(),
            instance: "suite \"de\"".into(),
            outcome: "optimal chip 12x12".into(),
            threads: 4,
            decisions: 7,
            wall_ms: 98.5,
            stats: SolverStats {
                nodes: 321,
                leaves: 2,
                c2_conflicts: 11,
                depth_histogram: vec![1, 4, 9],
                propagate_ns: 1_000,
                bounds_ns: 2_000,
                realize_ns: 3_000,
                prune_ns: [10, 20, 30, 40],
                ..SolverStats::default()
            },
            journal_dropped: Some(3),
            nodes_per_sec: Some(4_250.0),
            propagation_events_per_sec: Some(19_301.5),
        };
        let json = recopack_json::Json::parse(&report.to_json()).expect("report JSON parses");
        assert_eq!(
            json.get("schema_version").and_then(|v| v.as_u64()),
            Some(u64::from(TELEMETRY_SCHEMA_VERSION))
        );
        assert_eq!(json.get("command").and_then(|v| v.as_str()), Some("bmp"));
        assert_eq!(
            json.get("instance").and_then(|v| v.as_str()),
            Some("suite \"de\"")
        );
        assert_eq!(json.get("threads").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(json.get("decisions").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(json.get("wall_ms").and_then(|v| v.as_f64()), Some(98.5));
        let stats = json.get("stats").expect("stats object");
        assert_eq!(stats.get("nodes").and_then(|v| v.as_u64()), Some(321));
        let timings = stats.get("timings").expect("timings object");
        assert_eq!(
            timings.get("propagate_ns").and_then(|v| v.as_u64()),
            Some(1_000)
        );
        assert_eq!(
            timings.get("bounds_ns").and_then(|v| v.as_u64()),
            Some(2_000)
        );
        assert_eq!(
            timings.get("realize_ns").and_then(|v| v.as_u64()),
            Some(3_000)
        );
        let prune_ns = timings.get("prune_ns").expect("prune_ns object");
        for (rule, want) in PruneRule::ALL.into_iter().zip([10, 20, 30, 40]) {
            assert_eq!(
                prune_ns.get(rule.name()).and_then(|v| v.as_u64()),
                Some(want)
            );
        }
        assert_eq!(json.get("events"), None);
        assert_eq!(
            json.get("journal_dropped").and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            json.get("nodes_per_sec").and_then(|v| v.as_f64()),
            Some(4_250.0)
        );
        assert_eq!(
            json.get("propagation_events_per_sec")
                .and_then(|v| v.as_f64()),
            Some(19_301.5)
        );
    }

    #[test]
    fn file_journal_streams_valid_ndjson_in_subtree_order() {
        use crate::{Opp, SolveOutcome, SolverConfig};
        use recopack_model::{Chip, Instance, Task};

        let dir = std::env::temp_dir().join(format!("recopack-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.ndjson");

        let journal = Arc::new(FileJournal::create(&path).expect("journal opens"));
        let memory = Arc::new(MemoryJournal::new(1_000_000));
        let mut builder = Instance::builder().chip(Chip::square(4)).horizon(2);
        for i in 0..5 {
            builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
        }
        let instance = builder.build().expect("valid").with_transitive_closure();
        // The sequential search is deterministic: one run into each sink
        // records the same events, up to their timestamps.
        for sink in [journal.clone() as Arc<dyn TelemetrySink>, memory.clone()] {
            let config = SolverConfig {
                use_bounds: false,
                use_heuristics: false,
                telemetry: Telemetry::to(sink),
                ..SolverConfig::default()
            };
            let (outcome, _) = Opp::new(&instance).with_config(config).solve_with_stats();
            assert!(matches!(outcome, SolveOutcome::Infeasible(_)));
        }
        journal.flush().expect("flush succeeds");
        assert_eq!(journal.dropped(), 0);

        let text = std::fs::read_to_string(&path).expect("trace file readable");
        let lines: Vec<&str> = text.lines().collect();
        let expected = memory.events();
        assert_eq!(lines.len() as u64, journal.recorded());
        assert_eq!(lines.len(), expected.len());
        // Single-threaded search: one worker, one shard — the file order
        // must match the in-memory journal exactly, and every line must be
        // a standalone JSON object whose timestamps never go backwards.
        let mut last_t_ns = 0;
        for (line, event) in lines.iter().zip(&expected) {
            let parsed = recopack_json::Json::parse(line).expect("line parses");
            let t_ns = parsed.get("t_ns").and_then(|v| v.as_u64()).expect("t_ns");
            assert!(t_ns >= last_t_ns, "{line}");
            last_t_ns = t_ns;
            assert_eq!(*line, SearchEvent { t_ns, ..*event }.to_json());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_journal_respects_its_capacity() {
        let dir = std::env::temp_dir().join(format!("recopack-trace-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.ndjson");
        let journal = FileJournal::with_capacity(&path, 2).expect("journal opens");
        for depth in 0..5 {
            journal.record(&SearchEvent {
                subtree: 0,
                depth,
                t_ns: 0,
                kind: EventKind::Backtrack,
            });
        }
        journal.flush().expect("flush succeeds");
        assert_eq!(journal.recorded(), 2);
        assert_eq!(journal.dropped(), 3);
        let text = std::fs::read_to_string(&path).expect("trace file readable");
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
