//! Deterministic fault injection and panic attribution.
//!
//! The executors in [`crate::parallel`] fence every unit (and the in-place
//! `jobs ≤ 1` batch as a whole) with [`std::panic::catch_unwind`], so a
//! phase (or checker, or scheduler) panic fails *that unit's request*
//! instead of the process. This module supplies the two halves of that
//! robustness story:
//!
//! 1. **Attribution** — a thread-local *active-site* marker the pipeline
//!    updates at every `(unit, group)` boundary (and around each checker
//!    replay). When a fence catches an unwind, the marker plus the
//!    panic payload become a structured [`InternalFault`] naming the unit,
//!    the phase-group and the panic message — the raw material of the
//!    driver's `CompileError::Internal`.
//!
//! 2. **Injection** — a seeded [`FaultPlan`] threaded through
//!    [`RunControls`] into the pipeline and scheduler. A plan is a list of
//!    [`FaultKind`]s, each with a *shot budget* (an atomic countdown, so a
//!    one-shot fault fires exactly once across any number of worker
//!    threads and then disarms — the shape a degradation retry needs to
//!    observe recovery). Plans are **zero-cost when absent**: the hot loop
//!    pays one `Option` test per unit × group.
//!
//! The grammar of injectable faults ([`FaultKind`]):
//!
//! * `PanicOnUnit { unit }` — panic when the pipeline reaches the Nth unit
//!   of the batch (global batch index, group 0);
//! * `PanicInGroup { unit, group }` — panic when fused group `group`
//!   starts on unit `unit`;
//! * `ShardExhaustion { unit }` — panic when a worker claims batch unit
//!   `unit` (the in-place `jobs ≤ 1` batch claims only unit 0), with a
//!   symbol-shard-exhaustion-shaped message (the historical abort this
//!   simulates);
//! * `CorruptArtifact { unit }` — no executor behaviour at all; a compile
//!   session polls [`FaultPlan::take_artifact_corruption`] and flips the
//!   fingerprint of the Nth cached artifact, forcing a recompile that must
//!   still converge to byte-identical output.
//!
//! Service-level faults (the multi-tenant compile service's chaos grammar):
//!
//! * `SlowUnitStall { unit, millis }` — sleep `millis` when the pipeline
//!   reaches the Nth unit (group 0). Output-neutral; exists to push a
//!   request past its deadline and exercise deadline-granularity checks;
//! * `PanicStorm` — panic on *every* unit entry while shots last. Models a
//!   misbehaving tenant whose compiles keep failing through the sequential
//!   downgrade and service-level retries;
//! * `StoreCorruption { entries }` — no executor behaviour; the shared
//!   artifact store polls [`FaultPlan::take_store_corruption`] and flips
//!   the checksums of the first `entries` entries (key order), which the
//!   next reader must detect, quarantine, and recompile around.
//!
//! Determinism: a plan's observable behaviour is a pure function of the
//! plan and the batch — which unit indexes exist — never
//! of thread scheduling. The only cross-thread state is the shot budget,
//! and a budget only decides *how many* of the deterministic fire sites
//! trigger; for the common budgets (1 shot, unlimited) the fired set is
//! schedule-independent because every site is reached exactly once per
//! compile.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A caught pipeline panic, attributed to its compilation site. Produced by
/// the isolation fences in [`crate::parallel`]; consumed by the driver, which
/// converts it into its structured `CompileError::Internal`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InternalFault {
    /// The unit being compiled when the panic unwound, when attributable
    /// (a panic in per-unit setup — import, fork, scheduler — reports the
    /// fenced unit, or the batch's first unit at `jobs ≤ 1`).
    pub unit: Option<String>,
    /// Where in the pipeline: `"group N"`, `"checker (group N)"`, or
    /// `"scheduler"` for pre-pipeline setup.
    pub phase: String,
    /// The panic message (`&str`/`String` payloads; other payload types
    /// render as a placeholder).
    pub message: String,
}

impl std::fmt::Display for InternalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "internal compiler fault in {} at {}: {}",
            self.unit.as_deref().unwrap_or("<batch>"),
            self.phase,
            self.message
        )
    }
}

/// Renders a caught panic payload. `panic!("...")` produces `&'static str`
/// or `String`; anything else (custom `panic_any`) gets a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The phase label for an active site (see [`InternalFault::phase`]).
pub fn phase_label(group: usize, checker: bool) -> String {
    if checker {
        format!("checker (group {group})")
    } else {
        format!("group {group}")
    }
}

// ---- active-site marker -------------------------------------------------

#[derive(Clone, Copy)]
struct ActiveSite {
    unit: u32,
    group: u32,
    checker: bool,
    live: bool,
}

const NO_SITE: ActiveSite = ActiveSite {
    unit: 0,
    group: 0,
    checker: false,
    live: false,
};

thread_local! {
    static ACTIVE_SITE: Cell<ActiveSite> = const { Cell::new(NO_SITE) };
}

/// Marks the `(unit, group)` the current thread is about to compile (or
/// check, with `checker`). Called by the pipeline at every unit × group
/// boundary — one `Cell` store per *traversal*, which is noise next to the
/// walk itself.
#[inline]
pub fn mark_active_site(unit: usize, group: usize, checker: bool) {
    ACTIVE_SITE.with(|s| {
        s.set(ActiveSite {
            unit: unit as u32,
            group: group as u32,
            checker,
            live: true,
        })
    });
}

/// Clears the current thread's active-site marker (end of a batch, or entry
/// to a fresh unit so a stale site from a previous unit on the same
/// worker thread can never misattribute a setup panic).
#[inline]
pub fn clear_active_site() {
    ACTIVE_SITE.with(|s| s.set(NO_SITE));
}

/// The `(unit index, group index, in-checker)` the current thread last
/// marked, if any. Read by the isolation fences after catching an unwind.
pub fn active_site() -> Option<(usize, usize, bool)> {
    ACTIVE_SITE.with(|s| {
        let site = s.get();
        site.live
            .then_some((site.unit as usize, site.group as usize, site.checker))
    })
}

// ---- fault plans --------------------------------------------------------

/// One injectable fault site (see the module docs for the grammar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic when the pipeline reaches batch unit `unit` (at group 0).
    PanicOnUnit {
        /// Global batch index of the target unit.
        unit: usize,
    },
    /// Panic when fused group `group` starts on batch unit `unit`.
    PanicInGroup {
        /// Global batch index of the target unit.
        unit: usize,
        /// Plan group index.
        group: usize,
    },
    /// Panic when batch unit `unit` is claimed, simulating the historical
    /// symbol-shard-exhaustion abort.
    ShardExhaustion {
        /// Global batch index of the target unit.
        unit: usize,
    },
    /// Corrupt the fingerprint of the Nth cached artifact (session-level;
    /// executors ignore this kind entirely).
    CorruptArtifact {
        /// Index of the target unit in the session's unit-name order.
        unit: usize,
    },
    /// Stall (sleep) when the pipeline reaches batch unit `unit` at group
    /// 0. Output-neutral; exists to blow wall-clock deadlines on demand.
    SlowUnitStall {
        /// Global batch index of the target unit.
        unit: usize,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Panic on every unit × group entry while shots last — a tenant whose
    /// compiles keep failing (give it [`UNLIMITED_SHOTS`] for a permanent
    /// storm, or a finite budget for one that blows over).
    PanicStorm,
    /// Corrupt the checksums of the first `entries` shared-store entries
    /// (store-level; executors ignore this kind entirely).
    StoreCorruption {
        /// How many entries (in deterministic key order) to corrupt.
        entries: usize,
    },
}

/// Shot budget meaning "fires every time it is reached".
pub const UNLIMITED_SHOTS: u32 = u32::MAX;

struct Fault {
    kind: FaultKind,
    /// Remaining fires; [`UNLIMITED_SHOTS`] never decrements.
    shots: AtomicU32,
}

impl Fault {
    /// Consumes one shot if any remain. Lock-free; unlimited budgets skip
    /// the CAS loop entirely.
    fn try_fire(&self) -> bool {
        let mut cur = self.shots.load(Ordering::Relaxed);
        loop {
            if cur == UNLIMITED_SHOTS {
                return true;
            }
            if cur == 0 {
                return false;
            }
            match self.shots.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A deterministic, seeded set of faults to inject into one or more
/// compiles. Shared across worker threads behind an [`Arc`]; the only
/// mutable state is each fault's atomic shot budget.
///
/// # Examples
///
/// ```
/// use miniphase::faults::{FaultKind, FaultPlan};
/// let plan = FaultPlan::new(42).with_fault(FaultKind::PanicOnUnit { unit: 0 }, 1);
/// assert!(plan.is_armed());
/// let caught = std::panic::catch_unwind(|| plan.fire_unit_entry(0, 0));
/// assert!(caught.is_err(), "the planted fault fires");
/// plan.fire_unit_entry(0, 0); // one-shot budget spent: no panic
/// assert!(!plan.is_armed());
/// ```
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
    /// Count of shots actually consumed (any kind, any site). See
    /// [`FaultPlan::fired`].
    fired: AtomicU32,
}

impl FaultPlan {
    /// An empty plan carrying only its seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
            fired: AtomicU32::new(0),
        }
    }

    /// Records a consumed shot. Every fire site funnels through this so
    /// harnesses can assert "the plan actually did something" without
    /// re-deriving it from downstream counters.
    fn record_fire(&self, f: &Fault) -> bool {
        let hit = f.try_fire();
        if hit {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Adds a fault with the given shot budget ([`UNLIMITED_SHOTS`] for a
    /// persistent fault).
    pub fn with_fault(mut self, kind: FaultKind, shots: u32) -> FaultPlan {
        self.faults.push(Fault {
            kind,
            shots: AtomicU32::new(shots),
        });
        self
    }

    /// Derives one pseudo-random fault for a batch of `units` units and
    /// `groups` plan groups — the proptest harness's generator. Pure
    /// function of `(seed, units, groups)` (SplitMix64), so a failing case
    /// replays exactly.
    pub fn seeded(seed: u64, units: usize, groups: usize) -> Arc<FaultPlan> {
        let units = units.max(1);
        let groups = groups.max(1);
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let unit = (next() % units as u64) as usize;
        let shots = if next() % 2 == 0 { 1 } else { UNLIMITED_SHOTS };
        let kind = match next() % 4 {
            0 => FaultKind::PanicOnUnit { unit },
            1 => FaultKind::PanicInGroup {
                unit,
                group: (next() % groups as u64) as usize,
            },
            2 => FaultKind::ShardExhaustion { unit },
            _ => FaultKind::CorruptArtifact { unit },
        };
        Arc::new(FaultPlan::new(seed).with_fault(kind, shots))
    }

    /// The seed the plan was built with (labels injected-panic messages so
    /// escaped logs are reproducible).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True while any fault still has shots left.
    pub fn is_armed(&self) -> bool {
        self.faults
            .iter()
            .any(|f| f.shots.load(Ordering::Relaxed) > 0)
    }

    /// True once at least one shot has been consumed at any fire site.
    /// The canonical "did the injected fault actually exercise anything"
    /// assertion for soaks, load generators and chaos smokes.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed) > 0
    }

    /// How many shots have been consumed so far (all faults, all sites).
    pub fn fired_count(&self) -> u32 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Total shots left across all faults, saturating (a single
    /// [`UNLIMITED_SHOTS`] budget pins the sum at `u32::MAX`).
    pub fn shots_remaining(&self) -> u32 {
        self.faults.iter().fold(0u32, |acc, f| {
            acc.saturating_add(f.shots.load(Ordering::Relaxed))
        })
    }

    /// The planned faults and their remaining shots (diagnostics/tests).
    pub fn remaining(&self) -> Vec<(FaultKind, u32)> {
        self.faults
            .iter()
            .map(|f| (f.kind, f.shots.load(Ordering::Relaxed)))
            .collect()
    }

    /// Pipeline hook: called as group `group` reaches batch unit `unit`.
    /// Stalls first if a matching [`FaultKind::SlowUnitStall`] fires, then
    /// panics if a matching armed panic fault fires.
    #[inline]
    pub fn fire_unit_entry(&self, unit: usize, group: usize) {
        for f in &self.faults {
            if let FaultKind::SlowUnitStall { unit: u, millis } = f.kind {
                if u == unit && group == 0 && self.record_fire(f) {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
            }
        }
        for f in &self.faults {
            let hit = match f.kind {
                FaultKind::PanicOnUnit { unit: u } => u == unit && group == 0,
                FaultKind::PanicInGroup { unit: u, group: g } => u == unit && g == group,
                FaultKind::PanicStorm => true,
                _ => false,
            };
            if hit && self.record_fire(f) {
                panic!(
                    "injected fault (seed {}): panic at unit {unit}, group {group}",
                    self.seed
                );
            }
        }
    }

    /// Scheduler hook: called when batch unit `unit` is claimed, before it
    /// compiles. Panics if an armed [`FaultKind::ShardExhaustion`] targets
    /// the unit.
    #[inline]
    pub fn fire_unit_claim(&self, unit: usize) {
        for f in &self.faults {
            if let FaultKind::ShardExhaustion { unit: u } = f.kind {
                if u == unit && self.record_fire(f) {
                    panic!(
                        "injected fault (seed {}): symbol shard exhaustion in unit {unit}",
                        self.seed
                    );
                }
            }
        }
    }

    /// Session hook: consumes one armed [`FaultKind::CorruptArtifact`]
    /// shot, returning the target unit index. Never panics.
    pub fn take_artifact_corruption(&self) -> Option<usize> {
        for f in &self.faults {
            if let FaultKind::CorruptArtifact { unit } = f.kind {
                if self.record_fire(f) {
                    return Some(unit);
                }
            }
        }
        None
    }

    /// Shared-store hook: consumes one armed [`FaultKind::StoreCorruption`]
    /// shot, returning how many entries to corrupt. Never panics.
    pub fn take_store_corruption(&self) -> Option<usize> {
        for f in &self.faults {
            if let FaultKind::StoreCorruption { entries } = f.kind {
                if self.record_fire(f) {
                    return Some(entries);
                }
            }
        }
        None
    }
}

/// Robustness controls threaded into an executor run: an optional fault
/// plan and an optional wall-clock deadline (checked at group boundaries —
/// see `Pipeline::deadline`). `RunControls::default()` is the plain,
/// zero-overhead configuration every pre-existing entry point uses.
#[derive(Clone, Default)]
pub struct RunControls {
    /// Faults to inject, shared across worker threads.
    pub faults: Option<Arc<FaultPlan>>,
    /// Absolute deadline; a group boundary past it aborts the compile with
    /// a `"budget"`-phase diagnostic instead of starting the next group.
    pub deadline: Option<Instant>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_fires_exactly_once() {
        let plan = FaultPlan::new(7).with_fault(FaultKind::PanicOnUnit { unit: 2 }, 1);
        // Wrong unit / wrong group: nothing fires.
        plan.fire_unit_entry(1, 0);
        plan.fire_unit_entry(2, 1);
        assert!(plan.is_armed());
        let caught = std::panic::catch_unwind(|| plan.fire_unit_entry(2, 0));
        let msg = panic_message(&*caught.expect_err("fault fires"));
        assert!(msg.contains("seed 7"), "message names the seed: {msg}");
        assert!(!plan.is_armed(), "one shot spent");
        plan.fire_unit_entry(2, 0); // disarmed: no panic
    }

    #[test]
    fn unlimited_fault_keeps_firing() {
        let plan =
            FaultPlan::new(1).with_fault(FaultKind::ShardExhaustion { unit: 0 }, UNLIMITED_SHOTS);
        for _ in 0..3 {
            assert!(std::panic::catch_unwind(|| plan.fire_unit_claim(0)).is_err());
        }
        assert!(plan.is_armed());
    }

    #[test]
    fn corruption_is_polled_not_panicked() {
        let plan = FaultPlan::new(3).with_fault(FaultKind::CorruptArtifact { unit: 4 }, 1);
        plan.fire_unit_entry(4, 0); // executors ignore corruption faults
        assert_eq!(plan.take_artifact_corruption(), Some(4));
        assert_eq!(plan.take_artifact_corruption(), None, "budget spent");
    }

    #[test]
    fn fired_accessor_tracks_consumed_shots() {
        let plan = FaultPlan::new(11)
            .with_fault(FaultKind::PanicOnUnit { unit: 0 }, 1)
            .with_fault(FaultKind::CorruptArtifact { unit: 1 }, 2);
        assert!(!plan.fired());
        assert_eq!(plan.shots_remaining(), 3);
        assert!(std::panic::catch_unwind(|| plan.fire_unit_entry(0, 0)).is_err());
        assert!(plan.fired());
        assert_eq!(plan.fired_count(), 1);
        assert_eq!(plan.shots_remaining(), 2);
        assert_eq!(plan.take_artifact_corruption(), Some(1));
        assert_eq!(plan.fired_count(), 2);
    }

    #[test]
    fn panic_storm_fires_on_any_unit_until_spent() {
        let plan = FaultPlan::new(5).with_fault(FaultKind::PanicStorm, 2);
        assert!(std::panic::catch_unwind(|| plan.fire_unit_entry(3, 1)).is_err());
        assert!(std::panic::catch_unwind(|| plan.fire_unit_entry(0, 0)).is_err());
        plan.fire_unit_entry(7, 2); // budget spent: the storm blows over
        assert_eq!(plan.fired_count(), 2);
    }

    #[test]
    fn stall_fires_without_panicking_and_store_corruption_is_polled() {
        let plan = FaultPlan::new(9)
            .with_fault(FaultKind::SlowUnitStall { unit: 0, millis: 1 }, 1)
            .with_fault(FaultKind::StoreCorruption { entries: 3 }, 1);
        plan.fire_unit_entry(0, 0); // stalls 1 ms, no panic
        assert_eq!(plan.fired_count(), 1);
        assert_eq!(plan.take_store_corruption(), Some(3));
        assert_eq!(plan.take_store_corruption(), None, "budget spent");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(99, 6, 4);
        let b = FaultPlan::seeded(99, 6, 4);
        assert_eq!(a.remaining(), b.remaining());
        if let Some((FaultKind::PanicOnUnit { unit }, _)) = a.remaining().first().copied() {
            assert!(unit < 6);
        }
    }

    #[test]
    fn active_site_round_trips() {
        clear_active_site();
        assert_eq!(active_site(), None);
        mark_active_site(3, 1, false);
        assert_eq!(active_site(), Some((3, 1, false)));
        mark_active_site(3, 1, true);
        assert_eq!(active_site(), Some((3, 1, true)));
        clear_active_site();
        assert_eq!(active_site(), None);
    }
}
