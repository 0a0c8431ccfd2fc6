//! Always-on worker activity beacons and the sampling profiler.
//!
//! Every search worker publishes a packed *activity
//! beacon*: a single `AtomicU64` encoding its current phase, the prune rule
//! it last applied, its clamped depth, and a wrapping activity epoch. The
//! worker updates the beacon with one relaxed store at points the search
//! already touches (node expansion, propagation, conflicts, backtracks,
//! checkpoints) — no clock reads, no allocation, no branches that depend on
//! whether anyone is watching. Node counts are therefore bit-identical with
//! and without an attached sampler; the node ledger in
//! `tests/search_regressions.rs` asserts this under a live sampler.
//!
//! A detached [`Sampler`] thread reads all live beacons at a configurable
//! rate (default [`DEFAULT_HZ`] = 97 Hz, prime to dodge lockstep with
//! millisecond-periodic work) and accumulates:
//!
//! * folded-stack profiles (`worker:N;phase;rule;depth-bucket count` lines,
//!   consumable by the `recopack trace --folded` / flamegraph pipeline),
//! * per-phase occupancy counts, and
//! * stall detection: a beacon whose word is unchanged across
//!   [`STALL_THRESHOLD`] consecutive samples while not idle is flagged
//!   stuck/starved.
//!
//! Beacons register in a process-global registry so a sampler observes every
//! live worker in the process — the `recopack serve` worker pool under real
//! traffic as well as a single CLI solve.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default sampling rate in Hz. Prime, so the sampler does not phase-lock
/// with millisecond-periodic solver activity.
pub const DEFAULT_HZ: u64 = 97;

/// Highest accepted sampling rate in Hz.
pub const MAX_HZ: u64 = 1000;

/// Consecutive unchanged samples after which a non-idle worker is flagged
/// stalled. At the default 97 Hz this is roughly a third of a second.
pub const STALL_THRESHOLD: u32 = 32;

const PHASE_BITS: u32 = 3;
const RULE_BITS: u32 = 3;
const DEPTH_BITS: u32 = 8;
const RULE_SHIFT: u32 = PHASE_BITS;
const DEPTH_SHIFT: u32 = PHASE_BITS + RULE_BITS;
const EPOCH_SHIFT: u32 = PHASE_BITS + RULE_BITS + DEPTH_BITS;

/// Mask for the wrapping activity epoch (the top `64 - 14 = 50` bits).
pub const EPOCH_MASK: u64 = (1 << (64 - EPOCH_SHIFT)) - 1;

/// What a worker is doing right now, as published through its beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// Waiting for a work unit (parallel search) or not yet started.
    Idle = 0,
    /// Expanding a node: choosing the branching pair and children.
    Expand = 1,
    /// Running the propagation cascade after a decision.
    Propagate = 2,
    /// Computing lower bounds before or during search.
    Bounds = 3,
    /// Realizing a candidate leaf into coordinates.
    Realize = 4,
    /// Rolling back trail entries after an exhausted subtree.
    Backtrack = 5,
}

impl Phase {
    /// Every phase, in encoding order. A closed set: metrics label values
    /// and folded-stack frames are drawn from exactly these names.
    pub const ALL: [Phase; 6] = [
        Phase::Idle,
        Phase::Expand,
        Phase::Propagate,
        Phase::Bounds,
        Phase::Realize,
        Phase::Backtrack,
    ];

    /// Stable lowercase name used in folded stacks and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Expand => "expand",
            Phase::Propagate => "propagate",
            Phase::Bounds => "bounds",
            Phase::Realize => "realize",
            Phase::Backtrack => "backtrack",
        }
    }

    fn from_bits(bits: u64) -> Phase {
        match bits & 0b111 {
            1 => Phase::Expand,
            2 => Phase::Propagate,
            3 => Phase::Bounds,
            4 => Phase::Realize,
            5 => Phase::Backtrack,
            _ => Phase::Idle,
        }
    }
}

/// Prune rules a beacon can attribute samples to. `0` means "no rule".
///
/// Kept in sync with the search module's `Conflict::prune_rule` names.
pub const RULE_NAMES: [&str; 6] = ["", "c2", "c3", "c4", "orientation", "stopped"];

/// Clamps a rule code to the encodable range.
fn clamp_rule(rule: u8) -> u64 {
    u64::from(rule.min((RULE_NAMES.len() - 1) as u8))
}

/// Packs the phase/rule/depth state bits (low 14 bits, epoch zero).
///
/// Depth is clamped to 255. Combine with an epoch via [`compose`], or use
/// [`pack`] to do both at once.
#[inline]
pub fn state_bits(phase: Phase, rule: u8, depth: u32) -> u64 {
    (phase as u64) | (clamp_rule(rule) << RULE_SHIFT) | (u64::from(depth.min(255)) << DEPTH_SHIFT)
}

/// Combines state bits from [`state_bits`] with a wrapping epoch.
#[inline]
pub fn compose(bits: u64, epoch: u64) -> u64 {
    bits | ((epoch & EPOCH_MASK) << EPOCH_SHIFT)
}

/// Packs a full beacon word.
#[inline]
pub fn pack(phase: Phase, rule: u8, depth: u32, epoch: u64) -> u64 {
    compose(state_bits(phase, rule, depth), epoch)
}

/// A decoded beacon word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeaconReading {
    /// Current phase.
    pub phase: Phase,
    /// Active prune-rule code (index into [`RULE_NAMES`], 0 = none).
    pub rule: u8,
    /// Depth at the last update, clamped to 255.
    pub depth: u32,
    /// Wrapping activity epoch; changes on every beacon store.
    pub epoch: u64,
}

impl BeaconReading {
    /// Name of the active rule, or `""` when none.
    pub fn rule_name(&self) -> &'static str {
        RULE_NAMES[usize::from(self.rule) % RULE_NAMES.len()]
    }
}

/// Decodes a beacon word produced by [`pack`].
#[inline]
pub fn unpack(word: u64) -> BeaconReading {
    BeaconReading {
        phase: Phase::from_bits(word),
        rule: ((word >> RULE_SHIFT) & 0b111) as u8,
        depth: ((word >> DEPTH_SHIFT) & 0xff) as u32,
        epoch: word >> EPOCH_SHIFT,
    }
}

/// One worker's published activity word.
///
/// Writers call [`publish`](Self::publish) (a single relaxed store); readers
/// call [`load`](Self::load). The beacon carries no other state.
#[derive(Debug, Default)]
pub struct ActivityBeacon {
    word: AtomicU64,
}

impl ActivityBeacon {
    /// Publishes a packed word. Relaxed: beacons are statistical, not a
    /// synchronization edge.
    #[inline]
    pub fn publish(&self, word: u64) {
        self.word.store(word, Ordering::Relaxed);
    }

    /// Reads the current packed word.
    #[inline]
    pub fn load(&self) -> u64 {
        self.word.load(Ordering::Relaxed)
    }
}

/// The process-global beacon registry: a slot per live worker.
///
/// Slots hold weak references; a slot whose worker has exited is reused by
/// the next registration, so the registry stays bounded by the peak number
/// of concurrent workers.
#[derive(Debug, Default)]
pub struct BeaconRegistry {
    slots: Mutex<Vec<Weak<ActivityBeacon>>>,
}

impl BeaconRegistry {
    /// Registers a new beacon and returns the owning handle. The slot is
    /// released when the last `Arc` drops.
    pub fn register(&self) -> Arc<ActivityBeacon> {
        let beacon = Arc::new(ActivityBeacon::default());
        let mut slots = self.slots.lock().expect("beacon registry poisoned");
        if let Some(slot) = slots.iter_mut().find(|w| w.strong_count() == 0) {
            *slot = Arc::downgrade(&beacon);
        } else {
            slots.push(Arc::downgrade(&beacon));
        }
        beacon
    }

    /// Snapshots every live beacon as `(slot, word)` pairs. Slot indices are
    /// stable for a worker's lifetime, so samplers can track per-slot epochs.
    pub fn snapshot(&self, out: &mut Vec<(usize, u64)>) {
        out.clear();
        let slots = self.slots.lock().expect("beacon registry poisoned");
        for (slot, weak) in slots.iter().enumerate() {
            if let Some(beacon) = weak.upgrade() {
                out.push((slot, beacon.load()));
            }
        }
    }
}

/// The process-global registry all workers register into.
pub fn global_registry() -> &'static BeaconRegistry {
    static GLOBAL: OnceLock<BeaconRegistry> = OnceLock::new();
    GLOBAL.get_or_init(BeaconRegistry::default)
}

/// Buckets a clamped depth into a coarse, stable folded-stack frame.
pub fn depth_bucket(depth: u32) -> &'static str {
    match depth {
        0..=3 => "d0-3",
        4..=7 => "d4-7",
        8..=15 => "d8-15",
        16..=31 => "d16-31",
        32..=63 => "d32-63",
        64..=127 => "d64-127",
        _ => "d128+",
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct SlotTrack {
    last_word: u64,
    seen: bool,
    stale: u32,
    stalled: bool,
}

/// Accumulates beacon snapshots into a [`Profile`].
///
/// Deterministic and thread-free: feed it `(slot, word)` snapshots via
/// [`observe`](Self::observe) — the [`Sampler`] drives one from a timer
/// thread, tests can drive one by hand.
#[derive(Debug)]
pub struct ProfileBuilder {
    hz: u64,
    stall_threshold: u32,
    samples: u64,
    worker_samples: u64,
    phase_counts: [u64; Phase::ALL.len()],
    stacks: BTreeMap<String, u64>,
    tracks: Vec<SlotTrack>,
    stall_events: u64,
}

impl ProfileBuilder {
    /// A builder annotating its output with the given sampling rate.
    pub fn new(hz: u64) -> Self {
        Self {
            hz,
            stall_threshold: STALL_THRESHOLD,
            samples: 0,
            worker_samples: 0,
            phase_counts: [0; Phase::ALL.len()],
            stacks: BTreeMap::new(),
            tracks: Vec::new(),
            stall_events: 0,
        }
    }

    /// Overrides the stall threshold (consecutive unchanged non-idle
    /// samples before a worker is flagged).
    pub fn with_stall_threshold(mut self, threshold: u32) -> Self {
        self.stall_threshold = threshold.max(1);
        self
    }

    /// Folds one snapshot (as produced by [`BeaconRegistry::snapshot`]) into
    /// the profile.
    pub fn observe(&mut self, snapshot: &[(usize, u64)]) {
        self.samples += 1;
        for &(slot, word) in snapshot {
            let reading = unpack(word);
            self.worker_samples += 1;
            self.phase_counts[reading.phase as usize] += 1;
            let mut stack = format!("worker:{slot};{}", reading.phase.name());
            let rule = reading.rule_name();
            if !rule.is_empty() {
                stack.push(';');
                stack.push_str(rule);
            }
            stack.push(';');
            stack.push_str(depth_bucket(reading.depth));
            *self.stacks.entry(stack).or_insert(0) += 1;

            if slot >= self.tracks.len() {
                self.tracks.resize(slot + 1, SlotTrack::default());
            }
            let track = &mut self.tracks[slot];
            if track.seen && track.last_word == word && reading.phase != Phase::Idle {
                track.stale += 1;
                if track.stale >= self.stall_threshold && !track.stalled {
                    track.stalled = true;
                    self.stall_events += 1;
                }
            } else {
                track.stale = 0;
                track.stalled = false;
            }
            track.last_word = word;
            track.seen = true;
        }
    }

    /// Finishes accumulation.
    pub fn finish(self) -> Profile {
        let stalled_workers = self
            .tracks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.stalled)
            .map(|(slot, _)| slot)
            .collect();
        Profile {
            hz: self.hz,
            samples: self.samples,
            worker_samples: self.worker_samples,
            phase_counts: self.phase_counts,
            stacks: self.stacks,
            stalled_workers,
            stall_events: self.stall_events,
        }
    }
}

/// A finished sampling profile.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Sampling rate the profile was captured at.
    pub hz: u64,
    /// Number of sampler ticks taken.
    pub samples: u64,
    /// Number of per-worker observations (ticks × live workers).
    pub worker_samples: u64,
    /// Observations per phase, indexed by `Phase as usize`.
    pub phase_counts: [u64; Phase::ALL.len()],
    /// Folded stack → sample count.
    pub stacks: BTreeMap<String, u64>,
    /// Slots flagged stalled when sampling stopped.
    pub stalled_workers: Vec<usize>,
    /// Times any worker crossed the stall threshold.
    pub stall_events: u64,
}

impl Profile {
    /// Occupancy fraction (0..=1) for one phase; 0 when nothing was sampled.
    pub fn occupancy(&self, phase: Phase) -> f64 {
        if self.worker_samples == 0 {
            return 0.0;
        }
        self.phase_counts[phase as usize] as f64 / self.worker_samples as f64
    }

    /// Renders folded stacks (`frame;frame;frame count` per line), the
    /// format `recopack trace --folded` emits and flamegraph tooling eats.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.stacks {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// The `k` heaviest stacks, by sample count descending (ties broken by
    /// stack name for determinism).
    pub fn top(&self, k: usize) -> Vec<(&str, u64)> {
        let mut rows: Vec<(&str, u64)> = self
            .stacks
            .iter()
            .map(|(stack, &count)| (stack.as_str(), count))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows.truncate(k);
        rows
    }

    /// Renders the JSON summary used by `?format=json` and the CLI.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"hz\":{},", self.hz));
        out.push_str(&format!("\"samples\":{},", self.samples));
        out.push_str(&format!("\"worker_samples\":{},", self.worker_samples));
        out.push_str("\"phase_occupancy\":{");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{:.4}",
                phase.name(),
                self.occupancy(*phase)
            ));
        }
        out.push_str("},");
        out.push_str(&format!(
            "\"stalled_workers\":[{}],",
            self.stalled_workers
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!("\"stall_events\":{},", self.stall_events));
        out.push_str("\"stacks\":[");
        for (i, (stack, count)) in self.top(usize::MAX).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"stack\":\"{stack}\",\"samples\":{count}}}"));
        }
        out.push_str("]}");
        out
    }
}

/// A detached sampler thread reading the global registry.
///
/// Start with [`Sampler::start`], stop (and collect the [`Profile`]) with
/// [`Sampler::stop`]. Dropping without stopping detaches the thread, which
/// then exits on its next tick.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Profile>>,
}

impl Sampler {
    /// Spawns the sampler at `hz` (clamped to `1..=`[`MAX_HZ`]).
    pub fn start(hz: u64) -> Sampler {
        let hz = hz.clamp(1, MAX_HZ);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("recopack-sampler".to_string())
            .spawn(move || {
                let interval = Duration::from_nanos(1_000_000_000 / hz);
                let mut builder = ProfileBuilder::new(hz);
                let mut snapshot = Vec::new();
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    global_registry().snapshot(&mut snapshot);
                    builder.observe(&snapshot);
                }
                builder.finish()
            })
            .expect("spawn sampler thread");
        Sampler {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops sampling and returns the accumulated profile.
    pub fn stop(mut self) -> Profile {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self.thread.take().expect("sampler already stopped");
        thread.join().expect("sampler thread panicked")
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_unpack_round_trips_all_phases_and_rules() {
        for phase in Phase::ALL {
            for rule in 0..RULE_NAMES.len() as u8 {
                let word = pack(phase, rule, 17, 42);
                let reading = unpack(word);
                assert_eq!(reading.phase, phase);
                assert_eq!(reading.rule, rule);
                assert_eq!(reading.depth, 17);
                assert_eq!(reading.epoch, 42);
            }
        }
    }

    #[test]
    fn depth_clamps_to_255() {
        let reading = unpack(pack(Phase::Expand, 0, 100_000, 1));
        assert_eq!(reading.depth, 255);
    }

    #[test]
    fn epoch_wraps_at_fifty_bits() {
        let reading = unpack(pack(Phase::Expand, 0, 0, EPOCH_MASK + 5));
        assert_eq!(reading.epoch, 4);
    }

    #[test]
    fn registry_reuses_dead_slots() {
        let registry = BeaconRegistry::default();
        let first = registry.register();
        first.publish(pack(Phase::Expand, 0, 1, 1));
        drop(first);
        let second = registry.register();
        second.publish(pack(Phase::Propagate, 0, 2, 1));
        let mut snapshot = Vec::new();
        registry.snapshot(&mut snapshot);
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].0, 0, "dead slot 0 should be reused");
        assert_eq!(unpack(snapshot[0].1).phase, Phase::Propagate);
    }

    #[test]
    fn builder_accumulates_folded_stacks_and_occupancy() {
        let mut builder = ProfileBuilder::new(DEFAULT_HZ);
        builder.observe(&[
            (0, pack(Phase::Expand, 0, 5, 1)),
            (1, pack(Phase::Propagate, 2, 9, 1)),
        ]);
        builder.observe(&[(0, pack(Phase::Expand, 0, 6, 2))]);
        let profile = builder.finish();
        assert_eq!(profile.samples, 2);
        assert_eq!(profile.worker_samples, 3);
        let folded = profile.to_folded();
        assert!(folded.contains("worker:0;expand;d4-7 2"), "{folded}");
        assert!(folded.contains("worker:1;propagate;c3;d8-15 1"), "{folded}");
        assert!((profile.occupancy(Phase::Expand) - 2.0 / 3.0).abs() < 1e-9);
        assert!(profile.stalled_workers.is_empty());
    }

    #[test]
    fn unchanged_nonidle_worker_is_flagged_stalled() {
        let mut builder = ProfileBuilder::new(DEFAULT_HZ).with_stall_threshold(3);
        let frozen = pack(Phase::Propagate, 0, 4, 77);
        for _ in 0..5 {
            builder.observe(&[(2, frozen)]);
        }
        let profile = builder.finish();
        assert_eq!(profile.stalled_workers, vec![2]);
        assert_eq!(profile.stall_events, 1);
    }

    #[test]
    fn idle_workers_are_never_stalled() {
        let mut builder = ProfileBuilder::new(DEFAULT_HZ).with_stall_threshold(2);
        let idle = pack(Phase::Idle, 0, 0, 3);
        for _ in 0..10 {
            builder.observe(&[(0, idle)]);
        }
        let profile = builder.finish();
        assert!(profile.stalled_workers.is_empty());
        assert_eq!(profile.stall_events, 0);
    }

    #[test]
    fn progressing_worker_resets_stall_tracking() {
        let mut builder = ProfileBuilder::new(DEFAULT_HZ).with_stall_threshold(3);
        for epoch in 0..20 {
            builder.observe(&[(0, pack(Phase::Expand, 0, 4, epoch))]);
        }
        let profile = builder.finish();
        assert!(profile.stalled_workers.is_empty());
        assert_eq!(profile.stall_events, 0);
    }

    #[test]
    fn json_summary_lists_phases_and_stacks() {
        let mut builder = ProfileBuilder::new(50);
        builder.observe(&[(0, pack(Phase::Realize, 0, 30, 1))]);
        let json = builder.finish().to_json();
        assert!(json.contains("\"hz\":50"), "{json}");
        assert!(json.contains("\"realize\":1.0000"), "{json}");
        assert!(
            json.contains("{\"stack\":\"worker:0;realize;d16-31\",\"samples\":1}"),
            "{json}"
        );
    }

    #[test]
    fn sampler_thread_starts_and_stops() {
        let beacon = global_registry().register();
        beacon.publish(pack(Phase::Expand, 0, 3, 1));
        let sampler = Sampler::start(500);
        std::thread::sleep(Duration::from_millis(30));
        let profile = sampler.stop();
        assert!(profile.samples > 0);
        // Other tests in the process may have live beacons too; ours must
        // be among the observations.
        assert!(profile.worker_samples >= profile.samples);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn beacon_word_round_trips(
            phase_idx in 0usize..6,
            rule in 0u8..6,
            depth in 0u32..256,
            epoch in 0u64..(1u64 << 50),
        ) {
            let phase = Phase::ALL[phase_idx];
            let reading = unpack(pack(phase, rule, depth, epoch));
            prop_assert_eq!(reading.phase, phase);
            prop_assert_eq!(reading.rule, rule);
            prop_assert_eq!(reading.depth, depth);
            prop_assert_eq!(reading.epoch, epoch);
        }
    }
}
