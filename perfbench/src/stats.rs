//! Order statistics over timing samples, shared by every workload.

use crate::gen::Rng;

/// The percentiles a tail figure may be read at, lowest first.
const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 99.0, 99.9];

/// The fewest samples that must lie beyond a percentile before it is
/// reported: with fewer, one outlier decides the value.
const MIN_BEYOND: usize = 10;

/// Order statistics of one set of samples: quartiles, and the highest
/// ladder percentile with at least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarizes `samples` (any order; NaN is not a sample).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Nearest-rank index of percentile `p`: the smallest sample with at
    /// least `p` percent of the samples at or below it.
    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n) - 1
    }

    /// How many samples lie strictly beyond percentile `p`'s rank.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - 1 - self.rank(p)
    }

    /// The value at percentile `p`; 0 for no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(p)]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// First and third quartiles.
    pub fn quartiles(&self) -> (f64, f64) {
        (self.percentile(25.0), self.percentile(75.0))
    }

    /// The highest ladder percentile with at least [`MIN_BEYOND`] samples
    /// beyond it, or `None` when not even the median has.
    pub fn tail_percentile(&self) -> Option<f64> {
        LADDER
            .into_iter()
            .rev()
            .find(|&p| self.beyond(p) >= MIN_BEYOND)
    }

    /// The value at `wanted` when the samples support it, otherwise at
    /// [`tail_percentile`](Self::tail_percentile) (or the maximum when the
    /// samples support no ladder entry); with the percentile used.
    pub fn tail_at_most(&self, wanted: f64) -> (f64, f64) {
        let p = if self.beyond(wanted) >= MIN_BEYOND {
            wanted
        } else {
            self.tail_percentile().unwrap_or(100.0)
        };
        (p, self.percentile(p))
    }
}

/// Median of a slice of values; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    Summary::new(values.to_vec()).median()
}

/// Most samples a [`Reservoir`] keeps: enough for a p99 with ten samples
/// beyond it, few enough that the benchmark's own memory stays flat however
/// fast the program runs.
const RESERVOIR: usize = 1 << 13;

/// A uniform random sample of at most [`RESERVOIR`] values from a stream
/// of any length (Vitter's algorithm R), so memory, and with it the peak
/// resident set the benchmark reports, does not grow with the number of
/// answers.
#[derive(Debug)]
pub struct Reservoir {
    samples: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    /// An empty reservoir drawing its replacements from `rng`.
    pub fn new(rng: Rng) -> Self {
        Self {
            samples: Vec::new(),
            seen: 0,
            rng,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(value);
        } else {
            let slot = self.rng.range(0, self.seen - 1) as usize;
            if slot < RESERVOIR {
                self.samples[slot] = value;
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl std::fmt::Display for Figures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} answers; medians over {} window groups: quartiles {:.4} {:.4} ms, \
             p{} {:.4} ms, {:.1}/s",
            self.answers,
            self.groups,
            self.quartiles.0,
            self.quartiles.1,
            self.tail_percentile,
            self.tail,
            self.rate
        )
    }
}

/// Equal windows a measured phase is cut into.
const WINDOWS: usize = 10;

/// Fewest answers a window group may hold: enough that its p90 has 100
/// samples beyond it.
const MIN_GROUP: u64 = 1000;

/// Latency samples of a measured phase, filed by when they completed into
/// [`WINDOWS`] equal windows. Each figure is the median over groups of
/// windows of that figure within one group, so a disturbance from another
/// process that lasts less than half the phase does not move it.
#[derive(Debug)]
pub struct Windowed {
    width_s: f64,
    windows: Vec<Reservoir>,
}

/// The end-to-end figures of a [`Windowed`] phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Figures {
    /// Median latency.
    pub p50: f64,
    /// First and third latency quartiles.
    pub quartiles: (f64, f64),
    /// Latency at `tail_percentile`.
    pub tail: f64,
    /// The percentile `tail` was read at: the one asked for, or in windows
    /// too small for it, the highest their samples support.
    pub tail_percentile: f64,
    /// Answers per second.
    pub rate: f64,
    /// Window groups the medians were taken over.
    pub groups: usize,
    /// Answers in all windows.
    pub answers: u64,
}

impl Windowed {
    /// Windows over a phase of `seconds`; later samples join the last one.
    pub fn new(seconds: f64, seed: u64) -> Self {
        Self {
            width_s: seconds / WINDOWS as f64,
            windows: (0..WINDOWS as u64)
                .map(|w| Reservoir::new(Rng::new(seed, u64::MAX - w)))
                .collect(),
        }
    }

    /// Files a sample completed `at_s` seconds into the phase.
    pub fn push(&mut self, at_s: f64, value: f64) {
        let window = ((at_s / self.width_s) as usize).min(WINDOWS - 1);
        self.windows[window].push(value);
    }

    /// The median over window groups of p50, of the latency at
    /// `wanted_tail` (see [`Summary::tail_at_most`]), and of the answer
    /// rate. Adjacent windows are merged into groups of at least
    /// [`MIN_GROUP`] answers, down to one group for the whole phase; a
    /// window that is merged never filled its reservoir, so the merge is
    /// exact.
    pub fn figures(&self, wanted_tail: f64) -> Figures {
        let answers: u64 = self.windows.iter().map(Reservoir::seen).sum();
        let groups = (answers / MIN_GROUP).clamp(1, WINDOWS as u64) as usize;
        let mut summaries = Vec::with_capacity(groups);
        let mut rates = Vec::with_capacity(groups);
        for g in 0..groups {
            let members = &self.windows[g * WINDOWS / groups..(g + 1) * WINDOWS / groups];
            let samples: Vec<f64> = members
                .iter()
                .flat_map(|w| w.samples.iter().copied())
                .collect();
            summaries.push(Summary::new(samples));
            let seen: u64 = members.iter().map(Reservoir::seen).sum();
            rates.push(seen as f64 / (self.width_s * members.len() as f64));
        }
        let tails: Vec<(f64, f64)> = summaries
            .iter()
            .map(|s| s.tail_at_most(wanted_tail))
            .collect();
        let over_groups =
            |f: &dyn Fn(&Summary) -> f64| median(&summaries.iter().map(f).collect::<Vec<_>>());
        Figures {
            p50: over_groups(&Summary::median),
            quartiles: (
                over_groups(&|s| s.quartiles().0),
                over_groups(&|s| s.quartiles().1),
            ),
            tail: median(&tails.iter().map(|t| t.1).collect::<Vec<_>>()),
            tail_percentile: tails.iter().map(|t| t.0).fold(f64::INFINITY, f64::min),
            rate: median(&rates),
            groups,
            answers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Summary {
        Summary::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 99 samples: p90 has 9 beyond it, p75 has 24.
        let s = ramp(99);
        assert_eq!(s.beyond(90.0), 9);
        assert_eq!(s.tail_percentile(), Some(75.0));
        // 100 samples: p90 has exactly 10 beyond, p99 only 1.
        let s = ramp(100);
        assert_eq!(s.beyond(90.0), 10);
        assert_eq!(s.beyond(99.0), 1);
        assert_eq!(s.tail_percentile(), Some(90.0));
        assert_eq!(s.percentile(90.0), 90.0);
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let s = ramp(1000);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.tail_percentile(), Some(99.0));
        assert_eq!(s.percentile(99.0), 990.0);
        // 1009 samples: p99 still has 10 beyond, p99.9 has 1.
        let s = ramp(1009);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.beyond(99.9), 1);
        assert_eq!(s.tail_percentile(), Some(99.0));
        assert_eq!(s.percentile(99.0), 999.0);
    }

    #[test]
    fn quartiles_and_median_by_nearest_rank() {
        let s = ramp(100);
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quartiles(), (25.0, 75.0));
        assert_eq!(ramp(1).median(), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_falls_back_when_the_wanted_percentile_is_unsupported() {
        assert_eq!(ramp(1000).tail_at_most(99.0), (99.0, 990.0));
        assert_eq!(ramp(100).tail_at_most(99.0), (90.0, 90.0));
        assert_eq!(ramp(5).tail_at_most(99.0), (100.0, 5.0));
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_uniform_sample() {
        let mut small = Reservoir::new(Rng::new(1, 0));
        for i in 0..1000 {
            small.push(f64::from(i));
        }
        assert_eq!(small.seen(), 1000);
        assert_eq!(Summary::new(small.samples).median(), 499.0);

        let mut big = Reservoir::new(Rng::new(1, 0));
        let n = 8 * RESERVOIR as u64;
        for i in 0..n {
            big.push(i as f64);
        }
        assert_eq!(big.seen(), n);
        assert_eq!(big.samples.len(), RESERVOIR);
        let relative = Summary::new(big.samples).median() / (n as f64 / 2.0);
        assert!((0.95..1.05).contains(&relative), "{relative}");
    }

    #[test]
    fn windowed_figures_ignore_a_disturbed_minority_of_windows() {
        let mut phase = Windowed::new(10.0, 1);
        for ms in 0..10_000 {
            let at_s = f64::from(ms) / 1000.0;
            // One second in ten runs five times slower.
            let latency = if (3.0..4.0).contains(&at_s) { 5.0 } else { 1.0 };
            phase.push(at_s, latency);
        }
        phase.push(10.5, 1.0);
        let figures = phase.figures(90.0);
        assert_eq!((figures.p50, figures.tail), (1.0, 1.0));
        assert_eq!(figures.tail_percentile, 90.0);
        assert_eq!(figures.rate, 1000.0);
        assert_eq!((figures.groups, figures.answers), (10, 10_001));
    }

    #[test]
    fn sparse_windows_merge_into_groups_of_enough_answers() {
        let mut phase = Windowed::new(10.0, 1);
        for i in 0..2500 {
            phase.push(f64::from(i) / 250.0, f64::from(i % 100));
        }
        let figures = phase.figures(90.0);
        assert_eq!(figures.groups, 2);
        assert_eq!(figures.rate, 250.0);
        assert_eq!(figures.tail_percentile, 90.0);
        let mut few = Windowed::new(10.0, 1);
        for i in 0..20 {
            few.push(f64::from(i) / 2.0, f64::from(i));
        }
        let figures = few.figures(90.0);
        assert_eq!((figures.groups, figures.p50), (1, 9.0));
        assert_eq!(figures.tail_percentile, 50.0);
    }

    #[test]
    fn empty_samples_read_zero() {
        let s = Summary::new(Vec::new());
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.beyond(50.0), 0);
        assert_eq!(s.tail_percentile(), None);
    }
}
