//! Unit-level parallel compilation.
//!
//! The paper's fusion argument makes each compilation unit's traversal
//! self-contained — no phase looks at another unit's tree mid-walk — which
//! makes units embarrassingly parallel. This module compiles a unit batch
//! across [`std::thread::scope`] workers while keeping the run
//! **byte-identical** to the sequential pipeline (a property test pins
//! `jobs ∈ {2,4,8}` against `jobs = 1` over generated corpora, with the
//! dynamic checker both off *and on*).
//!
//! # Scheduling — one job per unit, claimed by an atomic index
//!
//! The unit is the unit of isolation. [`run_units_isolated`] gives every
//! unit its own job — a private [`Ctx`] (`Rc` tree arena, intern caches,
//! scratch stacks, phase instances) over its own disjoint node-id, heap and
//! symbol-id ranges, all derived from the **unit index** — and worker
//! threads claim units through a single atomic counter. That is cheap work
//! stealing: a worker that finishes a small unit claims the next one, so a
//! corpus with skewed unit sizes does not serialize behind one worker.
//! Which *thread* runs a unit leaves no trace in its outcome, and outcomes
//! are re-sequenced by unit index at the fan-in, so deltas, counters,
//! diagnostics and checker findings merge identically however the race
//! for units played out.
//!
//! Two entry points share that core:
//!
//! * [`run_units_isolated`] returns the per-unit outcomes and leaves the
//!   origin context untouched. The incremental compile session caches them
//!   and splices the deltas itself.
//! * [`run_units_parallel`] runs a batch on a context. At `jobs ≥ 2` it
//!   calls the core and folds the outcomes into `ctx` in unit order. At
//!   `jobs ≤ 1` it runs the sequential [`Pipeline`] in place on `ctx`,
//!   with no fork and no import copy.
//!
//! # Threading design — what is shared, what is replicated
//!
//! Trees are `Rc`-based since the traversal hot-path overhaul, so the hard
//! ownership rule is: **trees never cross threads**. Each unit compiles
//! end-to-end (every phase group) on whichever thread claimed it:
//!
//! * **Replicated per unit** — the whole mutable heart of [`Ctx`]: the
//!   `Rc` tree arena, the literal-intern caches, the executor's reused
//!   scratch stacks, and the phase instances themselves (built per unit via
//!   the caller's factory). At `jobs ≥ 2` the unit's tree is deep-copied
//!   into the job's arena through [`mini_ir::Ctx::import_tree`] before any
//!   phase runs; the original is only *read* during the copy, never cloned
//!   or dropped off-thread. At `jobs = 1` no thread boundary is crossed, so
//!   the job takes the tree by `Rc` clone and the lowered unit shares every
//!   subtree no phase rewrote with its input: trees are immutable, and each
//!   unit's traversal reads and rewrites only its own tree.
//! * **Shared, thread-safe** — the global [`mini_ir::Name`] interner (a
//!   mutex over leaked `'static` strings) and the read-only
//!   [`PhasePlan`] / [`FusionOptions`].
//! * **Shared via copy-on-write fork + deterministic merge** — the symbol
//!   table. Each unit forks the origin table in **O(1)**
//!   ([`mini_ir::SymbolTable::fork_for_worker`]): the fork aliases the
//!   `Arc`-shared frozen base arena, allocates *new* symbols in a
//!   unit-private id shard (globally unique from birth, so unit trees need
//!   no id rewriting at merge time; a symbol-heavy unit that outgrows its
//!   shard chains interleaved overflow shards instead of aborting), and
//!   routes mutations of pre-fork symbols to a private overlay. The batch
//!   entry point adopts the deltas in unit order (see
//!   [`mini_ir::SymbolTable::adopt`] for the field-wise merge rules).
//!
//! # The per-unit dynamic checker and its failure-ordering rule
//!
//! With `check` on, each unit runs the between-group tree checker
//! ([`crate::check_unit`]) against its **own private context** — checker
//! reads resolve in the fork exactly as they would in the shared
//! sequential table, because symbol infos are derived per period on read
//! (see [`mini_ir::SymbolTable::info_at`]) and per-unit mutations only
//! touch symbols the unit owns. Findings are
//! recorded per (group, unit) and re-sequenced at the fan-in
//! **group-major, then unit order**: the merged failure list is
//! byte-identical (content *and* order) to the sequential pipeline's, so
//! the *first failing unit in unit order wins* regardless of which worker
//! thread happened to hit a failure first on the wall clock. `check` no
//! longer forces `jobs = 1` anywhere.
//!
//! # Determinism
//!
//! Output equality with the sequential pipeline holds because everything a
//! phase can observe is per-unit deterministic: fresh-name counters are
//! scoped per unit in *both* executors ([`mini_ir::Ctx::swap_fresh_scope`]),
//! symbol lookups resolve in the forked table exactly as they would in the
//! shared one (generated units only mutate symbols they own), and node
//! ids/addresses — which *do* differ across `jobs` values — are never
//! consulted by phases or printed output. [`ExecStats`] merge in unit
//! order at group boundaries, giving identical `ExecStats` to the
//! sequential run. The merged [`mini_ir::AllocStats`] are summed per unit
//! and deliberately cover the **transform pipeline only** — each unit's
//! floor is snapshotted *after* its import copy (if any), mirroring the
//! sequential measurement — so they stay comparable to `jobs = 1`; they still run
//! slightly higher because each unit's private intern cache re-allocates
//! literals another unit (or the frontend) already interned.
//!
//! Diagnostics merge in unit order too (sequential emission interleaves
//! groups, so the *order* can differ from `jobs = 1`; the set cannot).
//! Instrumented simulator runs install per-unit sinks through
//! [`WorkerInstrumentation`] and get the per-unit results back in unit
//! order.

use crate::checker::{CheckFailure, Finding};
use crate::executor::{info_periods, ExecStats, Pipeline};
use crate::faults::{self, InternalFault, RunControls};
use crate::fused::FusionOptions;
use crate::mini::MiniPhase;
use crate::plan::PhasePlan;
use crate::unit::CompilationUnit;
use mini_ir::{Ctx, ShardGrowth, TreeRef};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Spacing between unit node-id ranges: no unit can allocate this many
/// nodes, so ranges never collide (ids are `u64`; even hundreds of units
/// use < 2⁴⁸ of the space).
const ID_STRIDE: u64 = 1 << 40;

/// Spacing between unit modelled-heap ranges (addresses only feed the
/// per-unit cache simulator, which never sees another unit's range).
const HEAP_STRIDE: u64 = 1 << 36;

/// Symbol-id headroom a batch leaves above the origin table for sequential
/// allocation *after* it (the base region cannot grow past the first
/// adopted unit shard).
const SYM_BASE_HEADROOM: u32 = 1 << 20;

/// Symbol-id capacity of each unit's primary shard and of every overflow
/// shard it chains: two orders of magnitude above any realistic per-unit
/// count, while keeping per-batch id-space consumption low enough for
/// thousands of batches on one long-lived `Ctx`.
const SYM_SHARD_CAPACITY: u32 = 1 << 16;

/// Per-unit instrumentation hooks: `install` runs on the claiming thread
/// after the unit's tree is imported (so simulators see the transform
/// pipeline only, as in sequential measured runs), `finish` runs after the
/// unit's last group. `Data` is shipped back to the caller in unit order —
/// the deterministic fan-in for GC-/cache-simulator counters. The
/// in-place `jobs ≤ 1` batch installs once, as unit 0, around the whole
/// batch.
pub trait WorkerInstrumentation: Sync {
    /// Thread-local state (simulator handles); never crosses threads.
    type State;
    /// Per-unit results returned to the calling thread.
    type Data: Send;
    /// Installs sinks into the unit's context; runs on the claiming thread.
    fn install(&self, unit: usize, ctx: &mut Ctx) -> Self::State;
    /// Uninstalls sinks and extracts the unit's results.
    fn finish(&self, unit: usize, state: Self::State, ctx: &mut Ctx) -> Self::Data;
}

/// The no-op instrumentation used by plain (untimed, unsimulated) runs.
pub struct NoInstrumentation;

impl WorkerInstrumentation for NoInstrumentation {
    type State = ();
    type Data = ();
    fn install(&self, _unit: usize, _ctx: &mut Ctx) {}
    fn finish(&self, _unit: usize, _state: (), _ctx: &mut Ctx) {}
}

/// The result of a batch run ([`run_units_parallel`]).
pub struct ParallelRun<D> {
    /// The lowered units, in input order. When [`ParallelRun::faults`] is
    /// non-empty, the panicked units are **missing** from this vector
    /// (at `jobs ≤ 1`, the whole batch is) — callers must inspect `faults`
    /// before trusting the batch.
    pub units: Vec<CompilationUnit>,
    /// Executor counters, merged in unit order at group boundaries;
    /// identical to the sequential run's [`Pipeline::stats`].
    pub stats: ExecStats,
    /// Dynamic-checker findings (empty unless `check` was on), re-sequenced
    /// group-major then unit order — byte-identical in content and order to
    /// the sequential pipeline's [`Pipeline::failures`].
    pub failures: Vec<CheckFailure>,
    /// Static-analysis findings (empty unless analysis phases were in the
    /// plan), re-sequenced group-major then unit order like `failures` —
    /// byte-identical in content and order to the sequential pipeline's
    /// [`Pipeline::findings`].
    pub findings: Vec<Finding>,
    /// Worker threads actually used after clamping (at least 1, at most
    /// one per unit). Callers surfacing parallelism in stats or figures
    /// must report this, never the requested value — a silent downgrade is
    /// a lie in the measurement.
    pub effective_jobs: usize,
    /// Instrumentation results in unit order: one per unit at `jobs ≥ 2`,
    /// one for the whole batch at `jobs ≤ 1`. Panicked units contribute no
    /// entry.
    pub worker_data: Vec<D>,
    /// Panics caught at the isolation fence, in unit order, each
    /// attributed to a unit and phase via the thread-local active-site
    /// marker (see [`crate::faults`]).
    pub faults: Vec<InternalFault>,
}

/// A loan of one unit's tree to the thread that compiles it.
///
/// `&TreeRef` is not `Send` (trees hold `Rc` children), but a worker
/// thread (`jobs ≥ 2`) only *reads* borrowed nodes — field access and
/// `child_at` traversal inside [`mini_ir::Ctx::import_tree`] — and never
/// clones or drops any reachable `Rc` handle, so no reference count is
/// touched off the owning thread. The calling thread keeps the originals
/// alive (and unmutated — trees are immutable) until the scope joins. Only
/// at `jobs = 1`, where the units run on the calling thread that owns the
/// trees, does the job clone the root handle instead of copying the tree.
struct UnitLoan<'a> {
    name: &'a str,
    tree: &'a TreeRef,
}

// SAFETY: see the type docs — loaned trees are read-only on a worker thread
// and outlive it; refcounted handles are neither cloned nor dropped
// off-thread (the `jobs = 1` clone happens on the owning thread).
unsafe impl Send for UnitLoan<'_> {}

/// A unit's outcome travelling back to the calling thread.
///
/// Wrapped because `TreeRef` is `Rc`. At `jobs ≥ 2` every handle reachable
/// from the lowered unit lives in the unit's own arena (imported root,
/// nodes the unit's pipeline built, literals it interned), and the claiming
/// thread is done with the unit before the wrapper is opened, with the
/// scope join providing the happens-before edge. After the join the calling
/// thread is the sole owner. At `jobs = 1` the unit never leaves the
/// calling thread.
struct UnitHandoff<D>(Result<IsolatedUnitRun<D>, InternalFault>);

// SAFETY: see the type docs — whole-arena ownership transfer synchronized
// by `thread::scope` join; no handle is shared with any live thread. Every
// field besides the unit is `Send` on its own (checked below), and so is
// the instrumentation data `D`.
unsafe impl<D: Send> Send for UnitHandoff<D> {}

fn assert_send<T: Send>() {}
const _: fn() = assert_send::<(
    ExecStats,
    CheckFailure,
    Finding,
    mini_ir::SymbolDelta,
    mini_ir::AllocStats,
    mini_ir::Diagnostic,
    InternalFault,
)>;

/// Everything one unit needs to compile: a loan of its tree, an O(1)
/// symbol-table fork, and the unit's disjoint allocator floors. Built on
/// the calling thread, claimed (via the atomic index) by exactly one
/// worker.
struct UnitJob<'a> {
    loan: UnitLoan<'a>,
    table: mini_ir::SymbolTable,
    sym_slot: (u32, u32),
    id_floor: u64,
    heap_floor: u64,
}

/// Builds the structured fault for a panic caught at an isolation fence:
/// the thread-local active-site marker pins the unit and phase the
/// executor was in when the payload flew; a panic *outside* any marked
/// site (scheduling, import, fork plumbing) is attributed to the fenced
/// batch's first unit at the `"scheduler"` phase.
fn fault_from_panic(
    payload: Box<dyn std::any::Any + Send>,
    unit_base: usize,
    unit_names: &[String],
) -> InternalFault {
    let message = faults::panic_message(payload.as_ref());
    let (unit, phase) = match faults::active_site() {
        Some((u, g, checker)) => (
            u.checked_sub(unit_base)
                .and_then(|local| unit_names.get(local))
                .cloned(),
            faults::phase_label(g, checker),
        ),
        None => (unit_names.first().cloned(), "scheduler".to_string()),
    };
    faults::clear_active_site();
    InternalFault {
        unit,
        phase,
        message,
    }
}

/// Compiles unit `index` end-to-end on the current thread, inside a
/// `catch_unwind` fence — a panic anywhere in the unit (phase hook,
/// checker, injected fault) becomes an attributed fault instead of
/// unwinding into the scheduler, so sibling units complete and the fan-in
/// stays deterministic. Entirely determined by the job (floors, fork,
/// loan) — the identity of the claiming thread leaves no trace. With
/// `share_tree` (only on the thread that owns the loaned tree) the job
/// takes the tree by `Rc` clone instead of importing a copy.
#[allow(clippy::too_many_arguments)]
fn compile_unit_job<F, I>(
    index: usize,
    job: UnitJob<'_>,
    share_tree: bool,
    ir_options: mini_ir::IrOptions,
    make_phases: &F,
    plan: &PhasePlan,
    opts: FusionOptions,
    check: bool,
    instr: &I,
    controls: &RunControls,
) -> Result<IsolatedUnitRun<I::Data>, InternalFault>
where
    F: Fn() -> Vec<Box<dyn MiniPhase>> + Sync,
    I: WorkerInstrumentation,
{
    let name = job.loan.name.to_string();
    faults::clear_active_site();
    catch_unwind(AssertUnwindSafe(|| {
        let UnitJob {
            loan,
            table,
            sym_slot,
            id_floor,
            heap_floor,
        } = job;
        if let Some(fault_plan) = &controls.faults {
            fault_plan.fire_unit_claim(index);
        }
        let mut wctx = Ctx::worker(table, ir_options, id_floor, heap_floor);
        let tree = if share_tree {
            TreeRef::clone(loan.tree)
        } else {
            wctx.import_tree(loan.tree)
        };
        let unit = CompilationUnit::new(loan.name, tree);
        // Floor AFTER the import copy: the merged AllocStats cover the
        // transform pipeline only, like sequential measured runs (see the
        // module docs).
        let alloc_floor = wctx.stats;
        let state = instr.install(index, &mut wctx);
        let mut pipeline = Pipeline::new(make_phases(), plan, opts);
        pipeline.check = check;
        pipeline.faults = controls.faults.clone();
        pipeline.unit_index_base = index;
        pipeline.deadline = controls.deadline;
        let (mut out, grid) = pipeline.run_units_recorded(&mut wctx, vec![unit]);
        let data = instr.finish(index, state, &mut wctx);
        let alloc = mini_ir::AllocStats {
            nodes: wctx.stats.nodes - alloc_floor.nodes,
            bytes: wctx.stats.bytes - alloc_floor.bytes,
        };
        let errors = std::mem::take(&mut wctx.errors);
        IsolatedUnitRun {
            unit: out.pop().expect("one unit in, one unit out"),
            // `run_units_recorded` fills member_transforms per grid row,
            // so row[0] is the complete per-group counter set.
            stats_by_group: grid.iter().map(|row| row[0]).collect(),
            failures_by_group: pipeline.take_failures_by_group(),
            findings_by_group: pipeline.take_findings_by_group(),
            // Drops the unit's intern cache and scratch before the
            // hand-off; the rest of the arena rides out in `unit`.
            delta: wctx.into_symbol_delta(),
            sym_slot,
            alloc,
            errors,
            data,
        }
    }))
    .map_err(|payload| fault_from_panic(payload, index, std::slice::from_ref(&name)))
}

/// Runs the pipeline over `units` and merges trees, counters, diagnostics,
/// checker findings and symbol-table changes into `ctx` deterministically
/// (unit order at group boundaries). `jobs` is clamped to `1..=units`.
///
/// * At `jobs ≤ 1` this *is* the sequential [`Pipeline::run_units`], run
///   in place on `ctx` inside one `catch_unwind` fence.
/// * At `jobs ≥ 2` it runs [`run_units_isolated`] — one fork, arena and
///   phase list per unit, claimed by `jobs` worker threads — on floors
///   just above `ctx`'s allocators, then adopts every unit's delta in unit
///   order.
///
/// With `check` on, each unit replays the dynamic tree checker against its
/// private context; the merged failure list is byte-identical to a
/// sequential checked run (see the module docs for the ordering rule).
///
/// Panics are caught at the isolation fence, attributed to a unit and
/// phase, and returned in [`ParallelRun::faults`] while sibling units
/// complete and merge; the panicked units, their worker data and their
/// symbol deltas are simply absent. `controls` threads the optional
/// [`crate::faults::FaultPlan`] and the wall-clock deadline into every
/// [`Pipeline`] — both are zero-cost when unset.
///
/// `make_phases` builds one phase list per unit (phase instances hold
/// traversal state and are not shared); every list must match `plan`.
///
/// # Panics
///
/// Panics if the symbol-id space above `ctx`'s table has no room for one
/// shard per unit.
#[allow(clippy::too_many_arguments)]
pub fn run_units_parallel<F, I>(
    ctx: &mut Ctx,
    make_phases: &F,
    plan: &PhasePlan,
    opts: FusionOptions,
    units: Vec<CompilationUnit>,
    jobs: usize,
    check: bool,
    instr: &I,
    controls: &RunControls,
) -> ParallelRun<I::Data>
where
    F: Fn() -> Vec<Box<dyn MiniPhase>> + Sync,
    I: WorkerInstrumentation,
{
    if jobs.min(units.len()) <= 1 {
        let unit_names: Vec<String> = units.iter().map(|u| u.name.clone()).collect();
        let mut pipeline = Pipeline::new(make_phases(), plan, opts);
        pipeline.check = check;
        pipeline.faults = controls.faults.clone();
        pipeline.unit_index_base = 0;
        pipeline.deadline = controls.deadline;
        faults::clear_active_site();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(fault_plan) = &controls.faults {
                fault_plan.fire_unit_claim(0);
            }
            let state = instr.install(0, ctx);
            let units = pipeline.run_units(ctx, units);
            let data = instr.finish(0, state, ctx);
            (units, data)
        }));
        return match result {
            Ok((units, data)) => ParallelRun {
                units,
                stats: pipeline.stats,
                failures: std::mem::take(&mut pipeline.failures),
                findings: std::mem::take(&mut pipeline.findings),
                effective_jobs: 1,
                worker_data: vec![data],
                faults: Vec::new(),
            },
            Err(payload) => ParallelRun {
                units: Vec::new(),
                stats: ExecStats::default(),
                failures: Vec::new(),
                findings: Vec::new(),
                effective_jobs: 1,
                worker_data: Vec::new(),
                faults: vec![fault_from_panic(payload, 0, &unit_names)],
            },
        };
    }

    let (id_floor, heap_floor) = ctx.alloc_watermarks();
    let layout = IsolatedLayout {
        sym_floor: ctx
            .symbols
            .id_ceiling()
            .saturating_add(SYM_BASE_HEADROOM)
            .min(u32::MAX - 1),
        id_floor,
        heap_floor,
    };
    let batch = run_units_isolated(
        ctx,
        make_phases,
        plan,
        opts,
        &units,
        jobs,
        check,
        instr,
        layout,
        controls,
    );
    // The originals were only loaned; every unit came back in its own arena.
    drop(units);

    // Deterministic fan-in in unit order. A panicked unit contributes
    // nothing beyond its attributed fault.
    let mut runs = Vec::with_capacity(batch.runs.len());
    let mut unit_faults = Vec::new();
    for run in batch.runs {
        match run {
            Ok(r) => runs.push(r),
            Err(fault) => unit_faults.push(fault),
        }
    }
    let groups = runs
        .iter()
        .map(|r| r.stats_by_group.len())
        .max()
        .unwrap_or(0);
    let mut stats = ExecStats::default();
    for gi in 0..groups {
        for s in runs.iter().filter_map(|r| r.stats_by_group.get(gi)) {
            stats.merge(*s);
        }
    }
    let failures = group_major(
        runs.iter_mut()
            .map(|r| std::mem::take(&mut r.failures_by_group)),
    );
    let findings = group_major(
        runs.iter_mut()
            .map(|r| std::mem::take(&mut r.findings_by_group)),
    );
    let mut out_units = Vec::with_capacity(runs.len());
    let mut worker_data = Vec::with_capacity(runs.len());
    for r in runs {
        out_units.push(r.unit);
        ctx.stats.nodes += r.alloc.nodes;
        ctx.stats.bytes += r.alloc.bytes;
        ctx.errors.extend(r.errors);
        ctx.symbols.adopt(&r.delta);
        worker_data.push(r.data);
    }
    // The merged table now holds what every unit wrote at its periods;
    // the backend reads it at the final period, like after a sequential run.
    let (info_plan, periods) = info_periods(&make_phases(), plan);
    ctx.symbols.set_info_plan(info_plan);
    ctx.symbols.set_period(periods.last().copied().unwrap_or(0));
    // Ranges stay consumed even when a unit panicked mid-allocation: the
    // next batch must not reuse a range a dead fork may have touched.
    ctx.advance_watermarks(batch.end.id_floor, batch.end.heap_floor);
    ParallelRun {
        units: out_units,
        stats,
        failures,
        findings,
        effective_jobs: batch.effective_jobs,
        worker_data,
        faults: unit_faults,
    }
}

/// Flattens per-unit, per-group lists group-major, then unit order.
fn group_major<T>(per_unit: impl Iterator<Item = Vec<Vec<T>>>) -> Vec<T> {
    let mut groups: Vec<Vec<T>> = Vec::new();
    for by_group in per_unit {
        for (gi, items) in by_group.into_iter().enumerate() {
            if groups.len() <= gi {
                groups.resize_with(gi + 1, Vec::new);
            }
            groups[gi].extend(items);
        }
    }
    groups.into_iter().flatten().collect()
}

/// Allocator floors for one [`run_units_isolated`] batch. A caller that
/// runs *many* batches on one long-lived origin context (a compile
/// session) starts each batch at the previous batch's
/// [`IsolatedBatch::end`], so ranges stay disjoint across batches, not
/// just within one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IsolatedLayout {
    /// First symbol id available to this batch's forks. Must clear the
    /// origin table's [`mini_ir::SymbolTable::id_ceiling`] **and** the used
    /// range of every delta a previous batch produced that is still live
    /// (spliced into rebuilt tables).
    pub sym_floor: u32,
    /// First node id for this batch; each unit gets its own range above it.
    pub id_floor: u64,
    /// First modelled heap address; ranged per unit like `id_floor`.
    pub heap_floor: u64,
}

/// One unit's end-to-end pipeline outcome from [`run_units_isolated`]:
/// everything a compile session needs to cache the unit — the lowered tree,
/// per-group counters and checker findings, and the symbol-table delta to
/// splice when assembling a full program around cached neighbours.
pub struct IsolatedUnitRun<D = ()> {
    /// The lowered unit. At `jobs ≥ 2` its tree lives in the unit's own
    /// arena, and after the batch returns the calling thread is its sole
    /// owner. At `jobs = 1` it shares every subtree no phase rewrote with
    /// the input tree.
    pub unit: CompilationUnit,
    /// Traversal counters per phase group, in group order.
    pub stats_by_group: Vec<ExecStats>,
    /// Checker findings per phase group (all empty unless `check` was on).
    pub failures_by_group: Vec<Vec<CheckFailure>>,
    /// Static-analysis findings per phase group (all empty unless analysis
    /// phases were in the plan).
    pub findings_by_group: Vec<Vec<Finding>>,
    /// New symbols + mutations of pre-fork symbols this unit's pipeline
    /// made. **Not** adopted anywhere by [`run_units_isolated`] — the
    /// origin context stays byte-for-byte untouched.
    pub delta: mini_ir::SymbolDelta,
    /// The unit's primary symbol shard as `(first id, capacity)`. A delta
    /// whose [`mini_ir::SymbolDelta::max_id_end`] lies past the shard's
    /// end chained overflow shards, interleaved with its siblings'.
    pub sym_slot: (u32, u32),
    /// Nodes and bytes the unit's transform pipeline allocated: the
    /// import copy a `jobs ≥ 2` batch makes is excluded, so the figure is
    /// the same at every `jobs`.
    pub alloc: mini_ir::AllocStats,
    /// Diagnostics the unit's pipeline reported.
    pub errors: Vec<mini_ir::Diagnostic>,
    /// What the instrumentation's `finish` returned for this unit.
    pub data: D,
}

/// The outcome of one [`run_units_isolated`] batch.
pub struct IsolatedBatch<D = ()> {
    /// One outcome per input unit, in input order: the unit's run, or the
    /// fault its isolation fence caught.
    pub runs: Vec<Result<IsolatedUnitRun<D>, InternalFault>>,
    /// Worker threads used: `jobs` clamped to `1..=units` (1 for an empty
    /// batch).
    pub effective_jobs: usize,
    /// The floors a following batch on the same origin starts from: past
    /// every unit's primary shard and node/heap range (a faulted unit's
    /// ranges stay consumed) and past every overflow shard a clean unit
    /// chained.
    pub end: IsolatedLayout,
}

/// Compiles every unit **in full isolation** — one fork, one private arena,
/// one phase-list instance and one pipeline per unit — and returns the
/// per-unit outcomes **without adopting anything** into `ctx`. This is the
/// one fork mechanism: the incremental compile session caches each
/// outcome keyed by content hashes and splices deltas itself (the shared
/// frontend context must stay pristine, or phase mutations would leak into
/// the symbol state the *typer* sees on later edits), and
/// [`run_units_parallel`] folds the outcomes into its context at
/// `jobs ≥ 2`.
///
/// `jobs` worker threads (clamped to `1..=units`) claim units through an
/// atomic index; with one, the units run on the calling thread and take
/// their input trees by `Rc` clone instead of a deep copy. Because every
/// per-unit input (fork floors, loan) is derived from the unit index, the
/// outcomes are byte-identical across `jobs` values; only the sharing of
/// unrewritten subtrees with the input differs.
///
/// Each unit runs inside a `catch_unwind` fence: a unit whose pipeline
/// panics yields `Err(fault)` in its slot — attributed to the unit and
/// phase — while every sibling unit's `Ok` outcome is intact and
/// cacheable. `controls` threads fault injection and the compile deadline
/// into each unit's pipeline.
///
/// # Panics
///
/// Panics if the layout's symbol floor is below the origin table's id
/// ceiling or leaves no room for one shard per unit, or if scheduler
/// infrastructure fails (pipeline construction runs inside the fence).
#[allow(clippy::too_many_arguments)]
pub fn run_units_isolated<F, I>(
    ctx: &Ctx,
    make_phases: &F,
    plan: &PhasePlan,
    opts: FusionOptions,
    units: &[CompilationUnit],
    jobs: usize,
    check: bool,
    instr: &I,
    layout: IsolatedLayout,
    controls: &RunControls,
) -> IsolatedBatch<I::Data>
where
    F: Fn() -> Vec<Box<dyn MiniPhase>> + Sync,
    I: WorkerInstrumentation,
{
    let n = units.len();
    let jobs = jobs.clamp(1, n.max(1));
    if n == 0 {
        return IsolatedBatch {
            runs: Vec::new(),
            effective_jobs: jobs,
            end: layout,
        };
    }
    // Symbol-id layout: `n` primary shards from the floor, then an overflow
    // region where unit `i`'s chained shards live at
    // `overflow_base + (k·n + i)·cap` — disjoint from every primary and
    // from every other unit's chain by construction. The capacity is
    // capped so primaries plus one full overflow round always fit in the
    // remaining u32 space; symbol-heavy units keep chaining beyond that
    // until the id domain truly runs out (which panics with a clear
    // message in the allocator, not a shard-overflow abort).
    let n_u32 = n as u32;
    let room = (u32::MAX - layout.sym_floor) / (n_u32 * 2);
    assert!(
        room > 0,
        "symbol id space exhausted: no room for one shard per unit above the batch floor"
    );
    let cap = SYM_SHARD_CAPACITY.min(room);
    let overflow_base = layout.sym_floor + n_u32 * cap;
    let job_slots: Vec<Mutex<Option<UnitJob<'_>>>> = units
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let start = layout.sym_floor + i as u32 * cap;
            let table = ctx.symbols.fork_for_worker(
                start,
                cap,
                ShardGrowth {
                    next_start: overflow_base.saturating_add(i as u32 * cap),
                    step: n_u32 * cap,
                    capacity: cap,
                },
            );
            Mutex::new(Some(UnitJob {
                loan: UnitLoan {
                    name: &u.name,
                    tree: &u.tree,
                },
                table,
                sym_slot: (start, cap),
                id_floor: layout.id_floor + i as u64 * ID_STRIDE,
                heap_floor: layout.heap_floor + i as u64 * HEAP_STRIDE,
            }))
        })
        .collect();
    let outcome_slots: Vec<Mutex<Option<UnitHandoff<I::Data>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next_unit = AtomicUsize::new(0);
    let ir_options = ctx.options;
    let claim_loop = || loop {
        let i = next_unit.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let job = job_slots[i]
            .lock()
            .expect("unit job mutex")
            .take()
            .expect("the atomic index hands each unit to exactly one worker");
        let run = compile_unit_job(
            i,
            job,
            jobs == 1,
            ir_options,
            make_phases,
            plan,
            opts,
            check,
            instr,
            controls,
        );
        *outcome_slots[i].lock().expect("unit outcome mutex") = Some(UnitHandoff(run));
    };
    if jobs == 1 {
        claim_loop();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs).map(|_| scope.spawn(claim_loop)).collect();
            for h in handles {
                // Unit panics are caught inside `compile_unit_job`; a join
                // error means the claim loop itself broke.
                h.join().expect("unit scheduler panicked");
            }
        });
    }

    let runs: Vec<Result<IsolatedUnitRun<I::Data>, InternalFault>> = outcome_slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("unit outcome mutex")
                .expect("every unit index below the count was compiled")
                .0
        })
        .collect();
    let sym_end = runs
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.delta.max_id_end())
        .fold(overflow_base, u32::max);
    IsolatedBatch {
        runs,
        effective_jobs: jobs,
        end: IsolatedLayout {
            sym_floor: sym_end,
            id_floor: layout.id_floor + n as u64 * ID_STRIDE,
            heap_floor: layout.heap_floor + n as u64 * HEAP_STRIDE,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mini::PhaseInfo;
    use crate::plan::{build_plan, PlanOptions};
    use mini_ir::{NodeKind, NodeKindSet, TreeKind, TreeRef};

    /// Increments literals (same fixture as the executor tests).
    struct Inc(&'static str);
    impl PhaseInfo for Inc {
        fn name(&self) -> &str {
            self.0
        }
    }
    impl MiniPhase for Inc {
        fn transforms(&self) -> NodeKindSet {
            NodeKindSet::of(NodeKind::Literal)
        }
        fn transform_literal(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
            if let TreeKind::Literal { value } = tree.kind() {
                if let Some(i) = value.as_int() {
                    return ctx.lit_int(i + 1);
                }
            }
            tree.clone()
        }
    }

    fn make_units(ctx: &mut Ctx, n: usize) -> Vec<CompilationUnit> {
        (0..n)
            .map(|u| {
                let lits: Vec<TreeRef> = (0..10).map(|i| ctx.lit_int(u as i64 * 100 + i)).collect();
                let e = ctx.lit_unit();
                let tree = ctx.block(lits, e);
                CompilationUnit::new(format!("u{u}"), tree)
            })
            .collect()
    }

    fn phases() -> Vec<Box<dyn MiniPhase>> {
        vec![Box::new(Inc("inc1")), Box::new(Inc("inc2"))]
    }

    #[test]
    fn parallel_matches_sequential_on_synthetic_units() {
        let run = |jobs: usize| -> (Vec<String>, ExecStats) {
            let mut ctx = Ctx::new();
            let units = make_units(&mut ctx, 7);
            let ps = phases();
            let plan = build_plan(&ps, &PlanOptions::default()).unwrap();
            let run = run_units_parallel(
                &mut ctx,
                &phases,
                &plan,
                FusionOptions::default(),
                units,
                jobs,
                false,
                &NoInstrumentation,
                &RunControls::default(),
            );
            let printed = run
                .units
                .iter()
                .map(|u| mini_ir::printer::print_tree(&u.tree, &ctx.symbols))
                .collect();
            (printed, run.stats)
        };
        let (seq, seq_stats) = run(1);
        for jobs in [2, 3, 8] {
            let (par, par_stats) = run(jobs);
            assert_eq!(seq, par, "printed trees diverged at jobs={jobs}");
            assert_eq!(seq_stats, par_stats, "stats diverged at jobs={jobs}");
        }
    }

    #[test]
    fn repeated_runs_on_one_ctx_do_not_exhaust_id_space() {
        // Regression: shard strides were once carved as `remaining / jobs`,
        // shrinking the free u32 symbol-id space geometrically — a
        // long-lived Ctx (REPL/watch-server style) panicked after ~6
        // parallel runs. Fixed strides consume space linearly instead.
        let mut ctx = Ctx::new();
        let ps = phases();
        let plan = build_plan(&ps, &PlanOptions::default()).unwrap();
        let mut first: Option<ExecStats> = None;
        for _run in 0..24 {
            let units = make_units(&mut ctx, 5);
            let run = run_units_parallel(
                &mut ctx,
                &phases,
                &plan,
                FusionOptions::default(),
                units,
                4,
                false,
                &NoInstrumentation,
                &RunControls::default(),
            );
            assert_eq!(run.units.len(), 5);
            match &first {
                None => first = Some(run.stats),
                Some(f) => assert_eq!(f, &run.stats, "runs stay deterministic"),
            }
        }
        // The base region kept room to allocate sequentially afterwards
        // (headroom below the first adopted shard).
        let root = ctx.symbols.builtins().root_pkg;
        let sym = ctx.symbols.new_term(
            root,
            mini_ir::Name::intern("post_parallel"),
            mini_ir::Flags::EMPTY,
            mini_ir::Type::Int,
        );
        assert!(sym.exists());
    }

    #[test]
    fn more_workers_than_units_degrades_gracefully() {
        let mut ctx = Ctx::new();
        let units = make_units(&mut ctx, 2);
        let ps = phases();
        let plan = build_plan(&ps, &PlanOptions::default()).unwrap();
        let run = run_units_parallel(
            &mut ctx,
            &phases,
            &plan,
            FusionOptions::default(),
            units,
            16,
            false,
            &NoInstrumentation,
            &RunControls::default(),
        );
        assert_eq!(run.units.len(), 2);
        assert_eq!(run.effective_jobs, 2, "clamped to one worker per unit");
        assert_eq!(run.worker_data.len(), 2, "one entry per unit");
    }

    #[test]
    fn zero_jobs_clamp_to_sequential() {
        // `CompilerOptions { jobs: 0, .. }` built by struct literal
        // bypasses the driver's `with_jobs` clamp; the executor must clamp
        // at the use site rather than feed 0 into the shard math.
        let mut ctx = Ctx::new();
        let units = make_units(&mut ctx, 3);
        let ps = phases();
        let plan = build_plan(&ps, &PlanOptions::default()).unwrap();
        let run = run_units_parallel(
            &mut ctx,
            &phases,
            &plan,
            FusionOptions::default(),
            units,
            0,
            false,
            &NoInstrumentation,
            &RunControls::default(),
        );
        assert_eq!(run.units.len(), 3);
        assert_eq!(run.effective_jobs, 1, "jobs=0 runs sequentially");
    }

    /// Mints `SYM_SHARD_CAPACITY / 8 + 1` fresh symbols for every literal
    /// of an odd-numbered unit (`make_units` numbers literals `u·100 + i`):
    /// ten literals overflow the unit's primary shard.
    struct SymHungry;
    impl PhaseInfo for SymHungry {
        fn name(&self) -> &str {
            "symHungry"
        }
    }
    impl MiniPhase for SymHungry {
        fn transforms(&self) -> NodeKindSet {
            NodeKindSet::of(NodeKind::Literal)
        }
        fn transform_literal(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
            let TreeKind::Literal { value } = tree.kind() else {
                return tree.clone();
            };
            if value.as_int().is_some_and(|v| (v / 100) % 2 == 1) {
                let root = ctx.symbols.builtins().root_pkg;
                for _ in 0..=SYM_SHARD_CAPACITY / 8 {
                    let name = ctx.fresh_name("hungry");
                    ctx.symbols
                        .new_term(root, name, mini_ir::Flags::EMPTY, mini_ir::Type::Int);
                }
            }
            tree.clone()
        }
    }

    fn hungry() -> Vec<Box<dyn MiniPhase>> {
        vec![Box::new(SymHungry)]
    }

    #[test]
    fn shard_overflow_chains_and_stays_deterministic() {
        // Regression for the hard `worker symbol shard overflow` abort: a
        // unit allocating more symbols than its shard capacity must chain
        // overflow shards and still merge byte-identically to sequential.
        let run = |jobs: usize| -> (Vec<String>, ExecStats, usize, bool) {
            let mut ctx = Ctx::new();
            let units = make_units(&mut ctx, 5);
            let overflow_base =
                ctx.symbols.id_ceiling() + SYM_BASE_HEADROOM + 5 * SYM_SHARD_CAPACITY;
            let ps = hungry();
            let plan = build_plan(&ps, &PlanOptions::default()).unwrap();
            let run = run_units_parallel(
                &mut ctx,
                &hungry,
                &plan,
                FusionOptions::default(),
                units,
                jobs,
                false,
                &NoInstrumentation,
                &RunControls::default(),
            );
            let printed: Vec<String> = run
                .units
                .iter()
                .map(|u| mini_ir::printer::print_tree(&u.tree, &ctx.symbols))
                .collect();
            // Every created symbol resolves through the merged table, and
            // `ids()` stays strictly ascending.
            let ids: Vec<u32> = ctx.symbols.ids().map(|s| s.index()).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascending");
            for id in ctx.symbols.ids() {
                let _ = ctx.symbols.sym(id);
            }
            let chained = ids.last().is_some_and(|&id| id >= overflow_base);
            (printed, run.stats, ctx.symbols.len(), chained)
        };
        let (seq, seq_stats, seq_len, _) = run(1);
        for jobs in [2, 3] {
            let (par, par_stats, par_len, chained) = run(jobs);
            assert!(
                chained,
                "a hungry unit chained an overflow shard at jobs={jobs}"
            );
            assert_eq!(seq, par, "trees diverged at jobs={jobs}");
            assert_eq!(seq_stats, par_stats, "stats diverged at jobs={jobs}");
            assert_eq!(seq_len, par_len, "symbol counts diverged at jobs={jobs}");
        }
    }

    #[test]
    fn isolated_batch_reports_slots_and_end_floors() {
        // The end floors clear every primary shard, every overflow shard a
        // unit chained, and every node/heap range, whatever `jobs` is.
        let mut ctx = Ctx::new();
        let units = make_units(&mut ctx, 3);
        let ps = hungry();
        let plan = build_plan(&ps, &PlanOptions::default()).unwrap();
        let layout = IsolatedLayout {
            sym_floor: ctx.symbols.id_ceiling() + 7,
            id_floor: 1 << 44,
            heap_floor: 1 << 44,
        };
        let ends: Vec<IsolatedLayout> = [1, 2]
            .into_iter()
            .map(|jobs| {
                let batch = run_units_isolated(
                    &ctx,
                    &hungry,
                    &plan,
                    FusionOptions::default(),
                    &units,
                    jobs,
                    false,
                    &NoInstrumentation,
                    layout,
                    &RunControls::default(),
                );
                assert_eq!(batch.effective_jobs, jobs);
                let mut max_end = 0;
                for (i, run) in batch.runs.iter().enumerate() {
                    let run = run.as_ref().expect("no unit faults");
                    let cap = SYM_SHARD_CAPACITY;
                    assert_eq!(run.sym_slot, (layout.sym_floor + i as u32 * cap, cap));
                    let end = run.delta.max_id_end();
                    let overflowed = end > run.sym_slot.0 + cap;
                    assert_eq!(overflowed, i == 1, "only the hungry unit 1 chains");
                    max_end = max_end.max(end);
                }
                assert!(max_end > layout.sym_floor + 3 * SYM_SHARD_CAPACITY);
                assert_eq!(batch.end.sym_floor, max_end);
                batch.end
            })
            .collect();
        assert_eq!(ends[0], ends[1], "the end floors do not depend on jobs");
        assert_eq!(ends[0].id_floor, layout.id_floor + 3 * ID_STRIDE);
        assert_eq!(ends[0].heap_floor, layout.heap_floor + 3 * HEAP_STRIDE);
    }

    /// Mints one root-package term per even literal it sees, so unit deltas
    /// carry new symbols.
    struct Mint;
    impl PhaseInfo for Mint {
        fn name(&self) -> &str {
            "mint"
        }
    }
    impl MiniPhase for Mint {
        fn transforms(&self) -> NodeKindSet {
            NodeKindSet::of(NodeKind::Literal)
        }
        fn transform_literal(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
            if let TreeKind::Literal { value } = tree.kind() {
                if value.as_int().is_some_and(|v| v % 2 == 0) {
                    let root = ctx.symbols.builtins().root_pkg;
                    let name = ctx.fresh_name("minted");
                    ctx.symbols
                        .new_term(root, name, mini_ir::Flags::EMPTY, mini_ir::Type::Int);
                }
            }
            tree.clone()
        }
    }

    #[test]
    fn jobs_one_shares_unrewritten_subtrees_and_matches_jobs_two() {
        // At jobs = 1 the units run on the calling thread, which owns the
        // input trees, so a job takes its tree by `Rc` clone: the block's
        // unit-literal result, which no phase rewrites, comes back as the
        // very input node. At jobs = 2 every tree crosses to a worker and
        // is copied. Everything else a batch reports is equal.
        let mk = || -> Vec<Box<dyn MiniPhase>> {
            vec![Box::new(Inc("inc1")), Box::new(Mint), Box::new(Inc("inc2"))]
        };
        let mut ctx = Ctx::new();
        let units = make_units(&mut ctx, 4);
        let ps = mk();
        let plan = build_plan(&ps, &PlanOptions::default()).unwrap();
        let layout = IsolatedLayout {
            sym_floor: ctx.symbols.id_ceiling() + 7,
            id_floor: 1 << 44,
            heap_floor: 1 << 44,
        };
        let block_expr = |t: &TreeRef| match t.kind() {
            TreeKind::Block { expr, .. } => expr.clone(),
            other => panic!("expected a block, got {:?}", other.node_kind()),
        };
        let observe = |jobs: usize| {
            let batch = run_units_isolated(
                &ctx,
                &mk,
                &plan,
                FusionOptions::default(),
                &units,
                jobs,
                false,
                &NoInstrumentation,
                layout,
                &RunControls::default(),
            );
            let mut seen = Vec::new();
            for (input, run) in units.iter().zip(&batch.runs) {
                let run = run.as_ref().expect("no unit faults");
                let shared = TreeRef::ptr_eq(&block_expr(&input.tree), &block_expr(&run.unit.tree));
                assert_eq!(shared, jobs == 1, "sharing at jobs={jobs}");
                let new_syms: Vec<String> = (run.sym_slot.0..run.delta.max_id_end())
                    .map(|id| {
                        format!(
                            "{:?}",
                            run.delta.new_symbol(mini_ir::SymbolId::from_index(id))
                        )
                    })
                    .collect();
                assert!(!new_syms.is_empty(), "every unit mints symbols");
                let dirty: Vec<String> = run
                    .delta
                    .dirty_entries()
                    .map(|(id, d)| format!("{} {d:?}", id.index()))
                    .collect();
                seen.push(format!(
                    "{}\n{:?}\n{new_syms:?}\n{dirty:?}\n{:?}",
                    mini_ir::printer::print_tree(&run.unit.tree, &ctx.symbols),
                    run.stats_by_group,
                    run.alloc
                ));
            }
            (seen, batch.end)
        };
        assert_eq!(observe(1), observe(2));
    }

    /// A phase whose postcondition rejects negative literals — used to
    /// plant deterministic checker failures in chosen units.
    struct NoNegatives;
    impl PhaseInfo for NoNegatives {
        fn name(&self) -> &str {
            "noNegatives"
        }
    }
    impl MiniPhase for NoNegatives {
        fn transforms(&self) -> NodeKindSet {
            NodeKindSet::EMPTY
        }
        fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
            if let TreeKind::Literal { value } = t.kind() {
                if value.as_int().is_some_and(|i| i < 0) {
                    return Err("negative literal survived".into());
                }
            }
            Ok(())
        }
    }

    #[test]
    fn checker_failures_merge_in_unit_order() {
        // Units 2 and 5 carry planted violations. Whichever worker thread
        // trips first on the wall clock, the merged failure list must be
        // byte-identical to the sequential one — so the *first* failure
        // always names the first failing unit in unit order (u2).
        let mk = || -> Vec<Box<dyn MiniPhase>> { vec![Box::new(NoNegatives)] };
        let run = |jobs: usize| -> Vec<String> {
            let mut ctx = Ctx::new();
            let units: Vec<CompilationUnit> = (0..7)
                .map(|u| {
                    let v = if u == 2 || u == 5 {
                        -(u as i64)
                    } else {
                        u as i64
                    };
                    let lit = ctx.lit_int(v);
                    let e = ctx.lit_unit();
                    let tree = ctx.block(vec![lit], e);
                    CompilationUnit::new(format!("u{u}"), tree)
                })
                .collect();
            let ps = mk();
            let plan = build_plan(&ps, &PlanOptions::default()).unwrap();
            let run = run_units_parallel(
                &mut ctx,
                &mk,
                &plan,
                FusionOptions::default(),
                units,
                jobs,
                true,
                &NoInstrumentation,
                &RunControls::default(),
            );
            run.failures.iter().map(|f| f.to_string()).collect()
        };
        let seq = run(1);
        assert!(!seq.is_empty(), "planted violations are found");
        assert!(seq[0].contains("u2"), "first failure is unit-order first");
        for jobs in [2, 3, 8] {
            assert_eq!(seq, run(jobs), "failure lists diverged at jobs={jobs}");
        }
    }
}
