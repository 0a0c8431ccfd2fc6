//! The live `--progress` reporter: a sampler thread that periodically reads
//! the solve's [`SolveHandle`] and rewrites one stderr status line, e.g.
//!
//! ```text
//! nodes 1.2M (410.0k/s) · depth 14/31 · prunes c2:62% c3:20% · elapsed 12.4s
//! ```
//!
//! The line is rewritten in place (`\r` + clear-to-end), so it only makes
//! sense on a terminal; the CLI auto-disables it when stderr is not a TTY
//! unless an explicit interval forces it. On finish the final totals (the
//! solve's exact node count and average rate) are printed and terminated
//! with a newline, leaving the scrollback clean.

use std::io::Write as _;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use recopack_core::{PruneRule, SolveHandle, SolveProgress};

/// Formats a count with a metric suffix (`1234` → `1.2k`).
fn human(n: u64) -> String {
    match n {
        0..=9_999 => format!("{n}"),
        10_000..=999_999 => format!("{:.1}k", n as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}M", n as f64 / 1e6),
        _ => format!("{:.2}G", n as f64 / 1e9),
    }
}

/// Renders one status line from a snapshot.
fn status_line(progress: &SolveProgress, rate: f64, total_slots: u64, elapsed: Duration) -> String {
    use std::fmt::Write as _;
    let mut line = format!("nodes {} ({}/s)", human(progress.nodes), human(rate as u64));
    let levels = progress.max_depth.map_or(0, |depth| depth + 1);
    let _ = write!(line, " · depth {levels}/{total_slots}");
    let prunes: u64 = progress.conflicts.iter().sum();
    if prunes > 0 {
        line.push_str(" · prunes");
        let mut rules: Vec<(PruneRule, u64)> = PruneRule::ALL
            .into_iter()
            .map(|r| (r, progress.conflicts[r.index()]))
            .filter(|(_, n)| *n > 0)
            .collect();
        rules.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        for (rule, n) in rules.into_iter().take(2) {
            let _ = write!(
                line,
                " {}:{:.0}%",
                rule.name(),
                n as f64 * 100.0 / prunes as f64
            );
        }
    }
    let _ = write!(line, " · elapsed {:.1}s", elapsed.as_secs_f64());
    line
}

/// A running progress reporter; dropping (or calling [`finish`]) stops the
/// sampler thread and prints the final line.
///
/// [`finish`]: Reporter::finish
pub(crate) struct Reporter {
    /// Dropped to stop the sampler: the disconnect wakes it at once, so
    /// stopping never waits out a redraw interval.
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Reporter {
    /// Starts the sampler over `handle`, redrawing every `interval`.
    /// `total_slots` is the depth budget shown as `depth <max>/<total>`
    /// (three dimensions times the number of task pairs).
    pub(crate) fn start(handle: SolveHandle, interval: Duration, total_slots: u64) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("recopack-progress".to_string())
            .spawn(move || {
                let started = Instant::now();
                let mut last = (Instant::now(), 0u64);
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    let progress = handle.progress();
                    let dt = last.0.elapsed().as_secs_f64();
                    let rate = (progress.nodes - last.1) as f64 / dt.max(1e-9);
                    last = (Instant::now(), progress.nodes);
                    let line = status_line(&progress, rate, total_slots, started.elapsed());
                    let mut err = std::io::stderr().lock();
                    let _ = write!(err, "\r\x1b[K{line}");
                    let _ = err.flush();
                }
                // Final totals, average rate, then release the line.
                let progress = handle.progress();
                let elapsed = started.elapsed();
                let rate = progress.nodes as f64 / elapsed.as_secs_f64().max(1e-9);
                let line = status_line(&progress, rate, total_slots, elapsed);
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "\r\x1b[K{line}");
                let _ = err.flush();
            })
            .expect("progress thread spawns");
        Self {
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Stops the sampler and prints the final line.
    pub(crate) fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_suffixes() {
        assert_eq!(human(950), "950");
        assert_eq!(human(12_345), "12.3k");
        assert_eq!(human(1_234_567), "1.2M");
        assert_eq!(human(7_000_000_000), "7.00G");
    }

    #[test]
    fn status_line_shows_the_dominant_rules() {
        let progress = SolveProgress {
            nodes: 1_200_000,
            conflicts: [620, 200, 10, 0],
            max_depth: Some(13),
            ..SolveProgress::default()
        };
        let line = status_line(&progress, 410_000.0, 31, Duration::from_millis(12_400));
        assert!(line.contains("nodes 1.2M"), "{line}");
        assert!(line.contains("(410.0k/s)"), "{line}");
        assert!(line.contains("depth 14/31"), "{line}");
        assert!(line.contains("c2:75%"), "{line}");
        assert!(line.contains("c3:24%"), "{line}");
        assert!(!line.contains("c4:"), "only the top two rules are shown");
        assert!(line.contains("elapsed 12.4s"), "{line}");
    }

    #[test]
    fn reporter_stops_cleanly() {
        let reporter = Reporter::start(SolveHandle::new(), Duration::from_millis(5), 10);
        std::thread::sleep(Duration::from_millis(20));
        reporter.finish();
    }
}
