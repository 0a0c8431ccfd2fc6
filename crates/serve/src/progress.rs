//! Per-job observability: live progress snapshots behind
//! `GET /jobs/{id}/progress` and the opt-in search event stream behind
//! `GET /jobs/{id}/events`.
//!
//! Every job owns a [`JobProgress`]: the [`SolveHandle`] of the solver
//! run it subscribes to (members of a dedup group share one handle, each
//! with its own lifecycle timing). The search publishes its counters to
//! that handle whether or not anyone reads them, so progress costs a job
//! no telemetry sink. Jobs submitted with `"trace": true` additionally
//! carry an [`EventStream`], a broadcast fan-out of raw [`SearchEvent`]s
//! to any number of HTTP subscribers, each with a bounded buffer and an
//! explicit dropped counter — the serve-side sibling of the CLI's
//! `FileJournal`. It is a traced job's only sink; untraced jobs run with
//! none and never serialize an event.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use recopack_core::{per_second, PruneRule, SearchEvent, SolveHandle, TelemetrySink};

/// Milestones of one job's lifecycle, relative to its submission instant.
#[derive(Default)]
struct Timing {
    started: Option<Instant>,
    finished: Option<Instant>,
}

/// One job's live progress: the shared solve handle plus this job's own
/// queue/solve timing. Cheap to clone out of the job table (`Arc`).
pub(crate) struct JobProgress {
    /// The handle of the solver run this job subscribes to; one per dedup
    /// group, shared by every member.
    handle: SolveHandle,
    submitted: Instant,
    timing: Mutex<Timing>,
}

impl JobProgress {
    pub(crate) fn new(handle: SolveHandle) -> Self {
        Self {
            handle,
            submitted: Instant::now(),
            timing: Mutex::new(Timing::default()),
        }
    }

    /// The shared solve handle, for joiners attaching to this job's run.
    pub(crate) fn handle(&self) -> &SolveHandle {
        &self.handle
    }

    /// Marks the solve as started; the first caller wins, so a worker
    /// re-marking a member that joined an already-running group is a
    /// no-op.
    pub(crate) fn mark_started(&self) {
        let mut timing = self.timing.lock().expect("timing lock");
        if timing.started.is_none() {
            timing.started = Some(Instant::now());
        }
    }

    /// Marks the job terminal. Jobs that never ran (cancelled while
    /// queued, cache hits) get a zero-length solve phase.
    pub(crate) fn mark_finished(&self) {
        let mut timing = self.timing.lock().expect("timing lock");
        let now = Instant::now();
        if timing.started.is_none() {
            timing.started = Some(now);
        }
        if timing.finished.is_none() {
            timing.finished = Some(now);
        }
    }

    /// The `(queue_wait, solve)` phase split in seconds. Open phases are
    /// measured up to now: a queued job accrues queue-wait, a running job
    /// accrues solve time.
    pub(crate) fn split(&self) -> (f64, f64) {
        let timing = self.timing.lock().expect("timing lock");
        match (timing.started, timing.finished) {
            (None, _) => (self.submitted.elapsed().as_secs_f64(), 0.0),
            (Some(started), None) => (
                started
                    .saturating_duration_since(self.submitted)
                    .as_secs_f64(),
                started.elapsed().as_secs_f64(),
            ),
            (Some(started), Some(finished)) => (
                started
                    .saturating_duration_since(self.submitted)
                    .as_secs_f64(),
                finished.saturating_duration_since(started).as_secs_f64(),
            ),
        }
    }

    /// Seconds since submission (up to the terminal instant once one is
    /// recorded).
    fn elapsed(&self) -> f64 {
        let timing = self.timing.lock().expect("timing lock");
        match timing.finished {
            Some(finished) => finished
                .saturating_duration_since(self.submitted)
                .as_secs_f64(),
            None => self.submitted.elapsed().as_secs_f64(),
        }
    }

    /// The `GET /jobs/{id}/progress` snapshot document.
    pub(crate) fn to_json(
        &self,
        id: u64,
        status: &str,
        request_id: &str,
        trace: Option<&EventStream>,
    ) -> String {
        use std::fmt::Write as _;
        let progress = self.handle.progress();
        let (queue_wait, solve) = self.split();
        let solve_ms = solve * 1000.0;
        let mut out =
            format!("{{\"id\":{id},\"status\":\"{status}\",\"request_id\":\"{request_id}\"");
        let _ = write!(
            out,
            ",\"elapsed_ms\":{:.3},\"queue_wait_ms\":{:.3},\"solve_ms\":{:.3}",
            self.elapsed() * 1000.0,
            queue_wait * 1000.0,
            solve_ms
        );
        let null_or = |value: Option<String>| value.unwrap_or_else(|| "null".to_string());
        let conflicts: Vec<String> = PruneRule::ALL
            .iter()
            .map(|rule| format!("\"{}\":{}", rule.name(), progress.conflicts[rule.index()]))
            .collect();
        let profile: Vec<String> = progress
            .depth_profile()
            .iter()
            .map(u64::to_string)
            .collect();
        let _ = write!(
            out,
            ",\"nodes\":{},\"nodes_per_sec\":{},\"leaves\":{},\"conflicts\":{{{}}},\
             \"searches_finished\":{},\"max_depth\":{},\"depth_profile\":[{}]",
            progress.nodes,
            null_or(per_second(progress.nodes, solve_ms).map(|rate| format!("{rate:.1}"))),
            progress.leaves,
            conflicts.join(","),
            progress.searches_finished,
            null_or(progress.max_depth.map(|depth| depth.to_string())),
            profile.join(","),
        );
        match trace {
            Some(stream) => {
                let _ = write!(
                    out,
                    ",\"trace\":{{\"subscribers\":{},\"dropped\":{}}}",
                    stream.subscriber_count(),
                    stream.dropped()
                );
            }
            None => out.push_str(",\"trace\":null"),
        }
        out.push('}');
        out
    }
}

/// Unread lines a `/jobs/{id}/events` subscriber may buffer before the
/// broadcaster starts dropping (and counting) events for it. Bounds the
/// memory a slow or stalled consumer can pin per subscription.
const SUBSCRIBER_BUFFER_LINES: usize = 8192;

/// A broadcast fan-out of one solver run's search events to its HTTP
/// stream subscribers. Installed, as the only sink, for jobs submitted
/// with `"trace": true`.
#[derive(Default)]
pub(crate) struct EventStream {
    subscribers: Mutex<Vec<Arc<Subscriber>>>,
    dropped: AtomicU64,
    closed: AtomicBool,
}

impl EventStream {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Attaches a new subscriber; it receives events recorded from now
    /// on.
    pub(crate) fn subscribe(&self) -> Arc<Subscriber> {
        let subscriber = Arc::new(Subscriber::default());
        self.subscribers
            .lock()
            .expect("subscribers lock")
            .push(subscriber.clone());
        subscriber
    }

    /// Detaches `subscriber`; the broadcaster stops buffering for it.
    pub(crate) fn unsubscribe(&self, subscriber: &Arc<Subscriber>) {
        let mut subscribers = self.subscribers.lock().expect("subscribers lock");
        subscribers.retain(|s| !Arc::ptr_eq(s, subscriber));
    }

    /// Stops accepting events and wakes every waiting subscriber, so
    /// stream loops notice the terminal state promptly.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        let subscribers = self.subscribers.lock().expect("subscribers lock");
        for subscriber in subscribers.iter() {
            let _lines = subscriber.lines.lock().expect("lines lock");
            subscriber.available.notify_all();
        }
    }

    /// Events dropped across all subscribers (bounded buffers overflowed).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Currently attached subscribers.
    pub(crate) fn subscriber_count(&self) -> usize {
        self.subscribers.lock().expect("subscribers lock").len()
    }
}

impl TelemetrySink for EventStream {
    fn record(&self, event: &SearchEvent) {
        if self.closed.load(Ordering::Relaxed) {
            return;
        }
        let subscribers = self.subscribers.lock().expect("subscribers lock");
        if subscribers.is_empty() {
            // Traced but nobody watching yet: skip the serialization.
            return;
        }
        let line = event.to_json();
        for subscriber in subscribers.iter() {
            let mut lines = subscriber.lines.lock().expect("lines lock");
            if lines.len() >= SUBSCRIBER_BUFFER_LINES {
                subscriber.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped.fetch_add(1, Ordering::Relaxed);
            } else {
                lines.push_back(line.clone());
                subscriber.available.notify_one();
            }
        }
    }
}

/// One `/jobs/{id}/events` consumer: a bounded line buffer drained by the
/// connection thread serving the chunked response.
#[derive(Default)]
pub(crate) struct Subscriber {
    lines: Mutex<VecDeque<String>>,
    available: Condvar,
    dropped: AtomicU64,
}

impl Subscriber {
    /// Takes every buffered line, waiting up to `wait` for the first one
    /// to arrive when the buffer is empty.
    pub(crate) fn drain(&self, wait: Duration) -> Vec<String> {
        let mut lines = self.lines.lock().expect("lines lock");
        if lines.is_empty() && !wait.is_zero() {
            let (guard, _timeout) = self
                .available
                .wait_timeout(lines, wait)
                .expect("lines lock");
            lines = guard;
        }
        lines.drain(..).collect()
    }

    /// Events this subscriber lost to its buffer bound.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_core::EventKind;

    fn event(depth: u32) -> SearchEvent {
        SearchEvent {
            subtree: 0,
            depth,
            t_ns: 0,
            kind: EventKind::Backtrack,
        }
    }

    #[test]
    fn progress_snapshot_reports_phases_and_the_handle_counters() {
        use recopack_core::{Opp, SolverConfig};
        use recopack_json::Json;
        use recopack_model::{Chip, Instance, Task};

        let progress = JobProgress::new(SolveHandle::new());
        let queued = progress.to_json(7, "queued", "req-9", None);
        let doc = Json::parse(&queued).expect("snapshot parses");
        assert_eq!(doc.get("id").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("queued"));
        assert_eq!(
            doc.get("request_id").and_then(|v| v.as_str()),
            Some("req-9")
        );
        assert_eq!(doc.get("nodes").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(doc.get("nodes_per_sec"), Some(&Json::Null));
        assert_eq!(doc.get("max_depth"), Some(&Json::Null));
        assert_eq!(doc.get("trace"), Some(&Json::Null));

        // Five 2x2x2 modules on a 4x4 chip with horizon 2: with bounds
        // and heuristics off, a 209-node exhaustive proof.
        progress.mark_started();
        let instance = Instance::builder()
            .chip(Chip::square(4))
            .horizon(2)
            .tasks((0..5).map(|i| Task::new(format!("t{i}"), 2, 2, 2)))
            .build()
            .expect("valid")
            .with_transitive_closure();
        let config = SolverConfig {
            use_bounds: false,
            use_heuristics: false,
            handle: progress.handle().clone(),
            ..SolverConfig::default()
        };
        let (_, stats) = Opp::new(&instance).with_config(config).solve_with_stats();
        std::thread::sleep(Duration::from_millis(2));
        progress.mark_finished();
        let (queue_wait, solve) = progress.split();
        assert!(queue_wait >= 0.0);
        assert!(solve > 0.0, "solve phase must have accrued");
        let done = progress.to_json(7, "done", "req-9", None);
        let doc = Json::parse(&done).expect("snapshot parses");
        let field = |name: &str| doc.get(name).and_then(|v| v.as_u64());
        assert_eq!(field("nodes"), Some(stats.nodes));
        assert_eq!(field("leaves"), Some(stats.leaves));
        assert_eq!(field("searches_finished"), Some(1));
        assert_eq!(field("max_depth"), stats.max_depth().map(|d| d as u64));
        let c3 = doc.get("conflicts").and_then(|c| c.get("c3"));
        assert_eq!(c3.and_then(|v| v.as_u64()), Some(stats.c3_conflicts));
        assert!(doc.get("nodes_per_sec").and_then(|v| v.as_f64()) > Some(0.0));
        let profile = doc.get("depth_profile").and_then(|v| v.as_array());
        let profile: Vec<u64> = profile
            .into_iter()
            .flatten()
            .filter_map(|v| v.as_u64())
            .collect();
        assert_eq!(
            profile, stats.depth_histogram,
            "a shallow tree fits the slots"
        );
    }

    #[test]
    fn event_stream_buffers_per_subscriber_and_counts_drops() {
        let stream = EventStream::new();
        // No subscribers: recording is a no-op.
        stream.record(&event(1));
        let subscriber = stream.subscribe();
        assert_eq!(stream.subscriber_count(), 1);
        stream.record(&event(2));
        stream.record(&event(3));
        let lines = subscriber.drain(Duration::ZERO);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"depth\":2"), "{}", lines[0]);

        // Overflow the bounded buffer: the excess is counted, not kept.
        for depth in 0..(SUBSCRIBER_BUFFER_LINES + 5) {
            stream.record(&event(depth as u32));
        }
        assert_eq!(subscriber.dropped(), 5);
        assert_eq!(stream.dropped(), 5);
        assert_eq!(
            subscriber.drain(Duration::ZERO).len(),
            SUBSCRIBER_BUFFER_LINES
        );

        // A closed stream stops recording entirely.
        stream.close();
        stream.record(&event(9));
        assert!(subscriber.drain(Duration::ZERO).is_empty());
        stream.unsubscribe(&subscriber);
        assert_eq!(stream.subscriber_count(), 0);
    }

    #[test]
    fn dropped_counts_isolate_a_slow_subscriber_from_a_draining_one() {
        let stream = EventStream::new();
        let slow = stream.subscribe();
        let fast = stream.subscribe();
        // Two full buffers of events; the fast subscriber drains halfway
        // through, the slow one never does.
        let total = 2 * SUBSCRIBER_BUFFER_LINES;
        let mut fast_received = 0;
        for depth in 0..total {
            stream.record(&event(depth as u32));
            if depth == SUBSCRIBER_BUFFER_LINES - 1 {
                fast_received += fast.drain(Duration::ZERO).len();
            }
        }
        fast_received += fast.drain(Duration::ZERO).len();
        assert_eq!(fast_received, total, "a draining subscriber loses nothing");
        assert_eq!(fast.dropped(), 0);
        // The slow subscriber kept the first buffer-full and dropped the
        // exact remainder.
        assert_eq!(slow.drain(Duration::ZERO).len(), SUBSCRIBER_BUFFER_LINES);
        assert_eq!(slow.dropped(), (total - SUBSCRIBER_BUFFER_LINES) as u64);
        // The stream-wide counter aggregates only real losses, so it
        // matches the slow subscriber alone.
        assert_eq!(stream.dropped(), slow.dropped());
    }

    #[test]
    fn drain_wakes_on_arrival_instead_of_sleeping_out_the_wait() {
        let stream = Arc::new(EventStream::new());
        let subscriber = stream.subscribe();
        let writer = {
            let stream = stream.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                stream.record(&event(4));
            })
        };
        let started = Instant::now();
        let lines = subscriber.drain(Duration::from_secs(10));
        writer.join().expect("writer thread");
        assert_eq!(lines.len(), 1);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "drain must wake on notify, not sleep the full wait"
        );
    }
}
