//! Unit-level parallel compilation.
//!
//! The paper's fusion argument makes each compilation unit's traversal
//! self-contained — no phase looks at another unit's tree mid-walk — which
//! makes units embarrassingly parallel. This module schedules a unit batch
//! across [`std::thread::scope`] workers while keeping the run
//! **byte-identical** to the sequential pipeline (a property test pins
//! `jobs ∈ {2,4,8}` against `jobs = 1` over generated corpora, with the
//! dynamic checker both off *and on*).
//!
//! # Scheduling — interleaved chunks, claimed by an atomic index
//!
//! The batch is carved into `jobs × chunks_per_worker` contiguous **unit
//! chunks** (more chunks than workers), and worker threads claim chunks
//! through a single atomic counter — cheap work stealing. A corpus with
//! skewed unit sizes no longer serializes behind the worker that drew the
//! one giant contiguous chunk: whoever finishes early claims the next
//! chunk. Which *thread* runs a chunk is irrelevant to the output, because
//! every chunk is hermetic — it gets its own [`Ctx`] (private `Rc` tree
//! arena, intern caches, scratch stacks, phase instances) over its own
//! disjoint node-id/heap/symbol-id ranges, all derived from the **chunk
//! index**, never from the claiming thread. Results are re-sequenced by
//! chunk index (= unit order) at the fan-in, so deltas, counters,
//! diagnostics and checker findings merge identically no matter how the
//! race for chunks played out.
//!
//! # Threading design — what is shared, what is replicated
//!
//! Trees are `Rc`-based since the traversal hot-path overhaul, so the hard
//! ownership rule is: **trees never cross threads**. Each chunk compiles
//! end-to-end (every phase group, phase-major over its units) on whichever
//! thread claimed it:
//!
//! * **Replicated per chunk** — the whole mutable heart of [`Ctx`]: the
//!   `Rc` tree arena (each unit's tree is deep-copied into the chunk's
//!   arena through [`mini_ir::Ctx::import_tree`] before any phase runs; the
//!   originals are only *read* during the copy, never cloned or dropped
//!   off-thread), the literal-intern caches, the executor's reused scratch
//!   stacks, and the phase instances themselves (built per chunk via the
//!   caller's factory).
//! * **Shared, thread-safe** — the global [`mini_ir::Name`] interner (a
//!   mutex over leaked `'static` strings) and the read-only
//!   [`PhasePlan`] / [`FusionOptions`].
//! * **Shared via copy-on-write fork + deterministic merge** — the symbol
//!   table. Each chunk forks the origin table in **O(1)**
//!   ([`mini_ir::SymbolTable::fork_for_worker`]): the fork aliases the
//!   `Arc`-shared frozen base arena, allocates *new* symbols in a
//!   chunk-private id shard (globally unique from birth, so chunk trees
//!   need no id rewriting at merge time; a symbol-heavy chunk that
//!   outgrows its shard chains interleaved overflow shards instead of
//!   aborting), and routes mutations of pre-fork symbols to a private
//!   overlay. After the join, shards and overlays merge back in chunk
//!   order — which is unit order, because chunks are contiguous unit
//!   ranges (see [`mini_ir::SymbolTable::adopt`] for the field-wise merge
//!   rules).
//!
//! # The per-chunk dynamic checker and its failure-ordering rule
//!
//! With `check` on, each chunk runs the between-group tree checker
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
//! consulted by phases or printed output. [`ExecStats`] and
//! [`mini_ir::AllocStats`] merge in unit order at group boundaries, giving
//! identical `ExecStats` to the sequential run. The merged `AllocStats`
//! deliberately cover the **transform pipeline only** — the per-chunk
//! floor is snapshotted *after* the import copies, mirroring the
//! sequential measurement — so they stay comparable to `jobs = 1`; they
//! still run slightly higher because each chunk's private intern cache
//! re-allocates literals another chunk (or the frontend) already interned.
//!
//! Diagnostics merge in unit order too (sequential emission interleaves
//! groups, so the *order* can differ from `jobs = 1`; the set cannot).
//! Instrumented simulator runs install per-chunk sinks through
//! [`WorkerInstrumentation`] and fan the per-chunk results back in chunk
//! order.

use crate::checker::{CheckFailure, Finding};
use crate::executor::{info_periods, ExecStats, Pipeline};
use crate::faults::{self, InternalFault, RunControls};
use crate::fused::FusionOptions;
use crate::mini::MiniPhase;
use crate::plan::PhasePlan;
use crate::unit::CompilationUnit;
use mini_ir::{Ctx, ShardGrowth, Tree};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Spacing between chunk node-id ranges: no chunk can allocate this many
/// nodes, so ranges never collide (ids are `u64`; even hundreds of chunks
/// use < 2⁴⁸ of the space). Public so compile sessions can advance their
/// own node-id cursor by whole strides across compiles.
pub const UNIT_ID_STRIDE: u64 = 1 << 40;
const ID_STRIDE: u64 = UNIT_ID_STRIDE;

/// Spacing between chunk modelled-heap ranges (addresses only feed the
/// per-chunk cache simulator, which never sees another chunk's range).
/// Public for the same cursor-keeping reason as [`UNIT_ID_STRIDE`].
pub const UNIT_HEAP_STRIDE: u64 = 1 << 36;
const HEAP_STRIDE: u64 = UNIT_HEAP_STRIDE;

/// Symbol-id headroom left above the base region for sequential allocation
/// *after* a parallel run (the base region cannot grow past the first
/// adopted worker shard).
const SYM_BASE_HEADROOM: u32 = 1 << 20;

/// Scheduling and id-space tunables of the parallel executor. The defaults
/// suit production runs; tests shrink them to force the rare paths
/// (overflow-shard chaining) on small corpora.
#[derive(Clone, Copy, Debug)]
pub struct ParallelTuning {
    /// Unit chunks carved per worker thread. More chunks let the atomic
    /// claim index balance skewed unit sizes (a worker that finishes early
    /// steals the next chunk); `1` reproduces the old one-contiguous-chunk-
    /// per-worker schedule. Chunk count is always capped at the unit count.
    pub chunks_per_worker: usize,
    /// Symbol-id capacity of each chunk's primary shard and of every
    /// chained overflow shard. Exceeding it no longer panics — the fork
    /// chains overflow shards with globally unique interleaved ids — so
    /// this only trades id-space consumption against chain length.
    pub sym_shard_capacity: u32,
}

impl Default for ParallelTuning {
    fn default() -> ParallelTuning {
        ParallelTuning {
            chunks_per_worker: 4,
            // 65k fresh symbols per chunk before the first overflow shard:
            // two orders of magnitude above any realistic per-chunk count,
            // while keeping per-run id-space consumption low enough for
            // thousands of parallel runs on one long-lived `Ctx`.
            sym_shard_capacity: 1 << 16,
        }
    }
}

/// Per-chunk instrumentation hooks for parallel runs: `install` runs on the
/// claiming thread after the chunk's unit trees are imported (so simulators
/// see the transform pipeline only, as in sequential measured runs),
/// `finish` runs after the chunk's last group. `Data` is shipped back to
/// the caller in chunk (= unit) order — the deterministic fan-in for
/// GC-/cache-simulator counters.
pub trait WorkerInstrumentation: Sync {
    /// Thread-local state (simulator handles); never crosses threads.
    type State;
    /// Per-chunk results returned to the calling thread.
    type Data: Send;
    /// Installs sinks into the chunk's context; runs on the claiming thread.
    fn install(&self, worker: usize, ctx: &mut Ctx) -> Self::State;
    /// Uninstalls sinks and extracts the chunk's results.
    fn finish(&self, worker: usize, state: Self::State, ctx: &mut Ctx) -> Self::Data;
}

/// The no-op instrumentation used by plain (untimed, unsimulated) runs.
pub struct NoInstrumentation;

impl WorkerInstrumentation for NoInstrumentation {
    type State = ();
    type Data = ();
    fn install(&self, _worker: usize, _ctx: &mut Ctx) {}
    fn finish(&self, _worker: usize, _state: (), _ctx: &mut Ctx) {}
}

/// The result of a parallel batch run.
pub struct ParallelRun<D> {
    /// The lowered units, in input order. When [`ParallelRun::faults`] is
    /// non-empty, the panicked chunks' units are **missing** from this
    /// vector — callers must inspect `faults` before trusting the batch.
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
    /// Per-chunk instrumentation results, in chunk (= unit) order.
    /// Panicked chunks contribute no entry.
    pub worker_data: Vec<D>,
    /// Panics caught at the chunk isolation fence, in chunk (= unit)
    /// order, each attributed to a unit and phase via the thread-local
    /// active-site marker (see [`crate::faults`]). Always empty through
    /// [`run_units_parallel`] / [`run_units_parallel_tuned`], which
    /// re-panic on the first fault to preserve their fail-fast contract;
    /// only [`run_units_parallel_controlled`] returns them.
    pub faults: Vec<InternalFault>,
}

/// A loan of one unit's tree to a worker thread.
///
/// `&Tree` is not `Send` (trees hold `Rc` children), but the worker only
/// *reads* borrowed nodes — field access and `child_at` traversal inside
/// [`mini_ir::Ctx::import_tree`] — and never clones or drops any reachable
/// `Rc` handle, so no reference count is touched off the owning thread. The
/// calling thread keeps the originals alive (and unmutated — trees are
/// immutable) until the scope joins.
struct UnitLoan<'a> {
    name: &'a str,
    tree: &'a Tree,
}

// SAFETY: see the type docs — loaned trees are read-only on the worker and
// outlive it; refcounted handles are neither cloned nor dropped off-thread.
unsafe impl Send for UnitLoan<'_> {}

/// A chunk's finished units travelling back to the calling thread.
///
/// Wrapped because `TreeRef` is `Rc`: every handle reachable from these
/// units lives in the chunk's own arena (imported roots, chunk-built
/// nodes, chunk-interned literals), and the claiming thread is done with
/// the chunk before the wrapper is opened, with the scope join providing
/// the happens-before edge. After the join the calling thread is the sole
/// owner.
struct UnitsHandoff(Vec<CompilationUnit>);

// SAFETY: see the type docs — whole-arena ownership transfer synchronized
// by `thread::scope` join; no handle is shared with any live thread.
unsafe impl Send for UnitsHandoff {}

/// Everything one chunk needs to compile: loans of its unit trees, an O(1)
/// symbol-table fork, and the chunk's disjoint allocator floors. Built on
/// the calling thread, claimed (via the atomic index) by exactly one
/// worker.
struct ChunkJob<'a> {
    loans: Vec<UnitLoan<'a>>,
    table: mini_ir::SymbolTable,
    id_floor: u64,
    heap_floor: u64,
    /// Batch index of the chunk's first unit — fault targeting and panic
    /// attribution speak batch-wide unit indexes, not chunk-local ones.
    unit_base: usize,
}

struct ChunkOutcome<D> {
    units: UnitsHandoff,
    /// `grid[group][chunk-local unit]` traversal counters.
    grid: Vec<Vec<ExecStats>>,
    /// `failures[group]` checker findings, unit order within the chunk.
    /// Empty unless `check` was on.
    failures: Vec<Vec<CheckFailure>>,
    /// `findings[group]` static-analysis findings, unit order within the
    /// chunk. Empty unless analysis phases were in the plan.
    findings: Vec<Vec<Finding>>,
    /// `None` when the chunk panicked (its fork died with the unwind).
    delta: Option<mini_ir::SymbolDelta>,
    alloc: mini_ir::AllocStats,
    errors: Vec<mini_ir::Diagnostic>,
    /// `None` when the chunk panicked.
    data: Option<D>,
    /// The caught panic, attributed to a unit and phase. `Some` means every
    /// other field is empty/zero — the chunk contributed nothing.
    fault: Option<InternalFault>,
}

/// Builds the structured fault for a panic caught at a chunk fence: the
/// thread-local active-site marker pins the unit and phase the executor was
/// in when the payload flew; a panic *outside* any marked site (scheduling,
/// import, fork plumbing) is attributed to the chunk's first unit at the
/// `"scheduler"` phase.
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

/// Compiles one claimed chunk end-to-end on the current thread, inside a
/// `catch_unwind` fence — a panic anywhere in the chunk (phase hook,
/// checker, injected fault) is converted into `ChunkOutcome::fault` instead
/// of unwinding into the scheduler, so sibling chunks complete and the
/// fan-in stays deterministic. Entirely determined by the chunk's job
/// (floors, fork, loans) — the identity of the claiming thread leaves no
/// trace in the outcome.
#[allow(clippy::too_many_arguments)]
fn compile_chunk<F, I>(
    chunk: usize,
    job: ChunkJob<'_>,
    ir_options: mini_ir::IrOptions,
    make_phases: &F,
    plan: &PhasePlan,
    opts: FusionOptions,
    check: bool,
    instr: &I,
    controls: &RunControls,
) -> ChunkOutcome<I::Data>
where
    F: Fn() -> Vec<Box<dyn MiniPhase>> + Sync,
    I: WorkerInstrumentation,
{
    let unit_names: Vec<String> = job.loans.iter().map(|l| l.name.to_string()).collect();
    let unit_base = job.unit_base;
    faults::clear_active_site();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let ChunkJob {
            loans,
            table,
            id_floor,
            heap_floor,
            unit_base,
        } = job;
        if let Some(fault_plan) = &controls.faults {
            fault_plan.fire_chunk_claim(chunk);
        }
        let mut wctx = Ctx::worker(table, ir_options, id_floor, heap_floor);
        let local: Vec<CompilationUnit> = loans
            .iter()
            .map(|l| CompilationUnit::new(l.name, wctx.import_tree(l.tree)))
            .collect();
        drop(loans);
        // Floor AFTER the import copies: the merged AllocStats cover the
        // transform pipeline only, like sequential measured runs (see the
        // module docs).
        let alloc_floor = wctx.stats;
        let state = instr.install(chunk, &mut wctx);
        let mut pipeline = Pipeline::new(make_phases(), plan, opts);
        pipeline.check = check;
        pipeline.faults = controls.faults.clone();
        pipeline.unit_index_base = unit_base;
        pipeline.deadline = controls.deadline;
        let (out, grid) = pipeline.run_units_recorded(&mut wctx, local);
        let failures = pipeline.take_failures_by_group();
        let findings = pipeline.take_findings_by_group();
        let data = instr.finish(chunk, state, &mut wctx);
        let alloc = mini_ir::AllocStats {
            nodes: wctx.stats.nodes - alloc_floor.nodes,
            bytes: wctx.stats.bytes - alloc_floor.bytes,
        };
        let errors = std::mem::take(&mut wctx.errors);
        // Drop the chunk's intern cache and scratch before the hand-off;
        // the remaining arena rides out in `units`.
        let delta = wctx.into_symbol_delta();
        ChunkOutcome {
            units: UnitsHandoff(out),
            grid,
            failures,
            findings,
            delta: Some(delta),
            alloc,
            errors,
            data: Some(data),
            fault: None,
        }
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => ChunkOutcome {
            units: UnitsHandoff(Vec::new()),
            grid: Vec::new(),
            failures: Vec::new(),
            findings: Vec::new(),
            delta: None,
            alloc: mini_ir::AllocStats::default(),
            errors: Vec::new(),
            data: None,
            fault: Some(fault_from_panic(payload, unit_base, &unit_names)),
        },
    }
}

/// Runs the pipeline over `units` on `jobs` worker threads — interleaved
/// unit chunks claimed through an atomic index, phase-major within each
/// chunk — and merges trees, counters, diagnostics, checker findings and
/// symbol-table changes back deterministically (unit order at group
/// boundaries). With `jobs <= 1` — after clamping `0` up and the unit
/// count down — this *is* the sequential [`Pipeline::run_units`], run
/// in-place on `ctx`. With `check` on, each chunk replays the dynamic tree
/// checker against its private context; the merged failure list is
/// byte-identical to a sequential checked run (see the module docs for the
/// ordering rule).
///
/// `make_phases` builds one phase list per chunk (phase instances hold
/// traversal state and are not shared); every list must match `plan`.
///
/// # Panics
///
/// Panics if a worker chunk panics (the chunk fence catches the original
/// unwind, lets sibling chunks finish, then this wrapper re-panics with
/// the attributed fault — use [`run_units_parallel_controlled`] to receive
/// the fault as data instead) or if `make_phases` disagrees with `plan`.
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
) -> ParallelRun<I::Data>
where
    F: Fn() -> Vec<Box<dyn MiniPhase>> + Sync,
    I: WorkerInstrumentation,
{
    run_units_parallel_tuned(
        ctx,
        make_phases,
        plan,
        opts,
        units,
        jobs,
        check,
        instr,
        ParallelTuning::default(),
    )
}

/// [`run_units_parallel`] with explicit [`ParallelTuning`] — exposed so
/// tests and benchmarks can shrink chunk sizes and shard capacities to
/// exercise the scheduler's rare paths on small corpora. Fail-fast like
/// [`run_units_parallel`]: a caught worker panic is re-raised here.
#[allow(clippy::too_many_arguments)]
pub fn run_units_parallel_tuned<F, I>(
    ctx: &mut Ctx,
    make_phases: &F,
    plan: &PhasePlan,
    opts: FusionOptions,
    units: Vec<CompilationUnit>,
    jobs: usize,
    check: bool,
    instr: &I,
    tuning: ParallelTuning,
) -> ParallelRun<I::Data>
where
    F: Fn() -> Vec<Box<dyn MiniPhase>> + Sync,
    I: WorkerInstrumentation,
{
    let run = run_units_parallel_controlled(
        ctx,
        make_phases,
        plan,
        opts,
        units,
        jobs,
        check,
        instr,
        tuning,
        &RunControls::default(),
    );
    if let Some(fault) = run.faults.first() {
        panic!("{fault}");
    }
    run
}

/// [`run_units_parallel_tuned`] plus [`RunControls`] — the fault-tolerant
/// entry point. Worker panics are caught at the chunk fence, attributed to
/// a unit and phase, and returned in [`ParallelRun::faults`] (chunk = unit
/// order) while sibling chunks complete and merge deterministically; the
/// panicked chunks' units, worker data and symbol deltas are simply absent.
/// `controls` also threads the optional [`crate::faults::FaultPlan`]
/// injection plan and the wall-clock deadline down into every chunk's
/// [`Pipeline`] — both are zero-cost when unset.
#[allow(clippy::too_many_arguments)]
pub fn run_units_parallel_controlled<F, I>(
    ctx: &mut Ctx,
    make_phases: &F,
    plan: &PhasePlan,
    opts: FusionOptions,
    units: Vec<CompilationUnit>,
    jobs: usize,
    check: bool,
    instr: &I,
    tuning: ParallelTuning,
    controls: &RunControls,
) -> ParallelRun<I::Data>
where
    F: Fn() -> Vec<Box<dyn MiniPhase>> + Sync,
    I: WorkerInstrumentation,
{
    let n = units.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        let unit_names: Vec<String> = units.iter().map(|u| u.name.clone()).collect();
        let mut pipeline = Pipeline::new(make_phases(), plan, opts);
        pipeline.check = check;
        pipeline.faults = controls.faults.clone();
        pipeline.unit_index_base = 0;
        pipeline.deadline = controls.deadline;
        faults::clear_active_site();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(fault_plan) = &controls.faults {
                fault_plan.fire_chunk_claim(0);
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
    let chunk_count = (jobs * tuning.chunks_per_worker.max(1)).clamp(jobs, n);
    // Symbol-id layout: `chunk_count` primary shards above the headroom
    // floor, then an overflow region where chunk `c`'s chained shards live
    // at `overflow_base + (k·chunk_count + c)·stride` — disjoint from every
    // primary and from every other chunk's chain by construction. The
    // stride is capped so primaries plus one full overflow round always
    // fit in the remaining u32 space; symbol-heavy chunks keep chaining
    // beyond that until the id domain truly runs out (which panics with a
    // clear message in the allocator, not a shard-overflow abort).
    let sym_floor = ctx
        .symbols
        .id_ceiling()
        .saturating_add(SYM_BASE_HEADROOM)
        .min(u32::MAX - 1);
    let chunks_u32 = chunk_count as u32;
    // A clear diagnostic (not a wrapped-arithmetic assert deep in the fork
    // guards) when the u32 id domain genuinely has no room left for even
    // 1-symbol shards plus one overflow round.
    assert!(
        (u32::MAX - sym_floor) / (chunks_u32 * 2) > 0,
        "symbol id space exhausted: too many parallel runs on one long-lived Ctx"
    );
    let sym_stride = tuning
        .sym_shard_capacity
        .max(1)
        .min((u32::MAX - sym_floor) / (chunks_u32 * 2));
    let overflow_base = sym_floor + chunks_u32 * sym_stride;
    // Contiguous, balanced chunks: chunk `c` owns units
    // [c*n/chunks, (c+1)*n/chunks) — so chunk order IS unit order.
    let bounds: Vec<(usize, usize)> = (0..chunk_count)
        .map(|c| (c * n / chunk_count, (c + 1) * n / chunk_count))
        .collect();

    let jobs_slots: Vec<Mutex<Option<ChunkJob<'_>>>> = bounds
        .iter()
        .enumerate()
        .map(|(c, &(lo, hi))| {
            let loans: Vec<UnitLoan<'_>> = units[lo..hi]
                .iter()
                .map(|u| UnitLoan {
                    name: &u.name,
                    tree: &u.tree,
                })
                .collect();
            let table = ctx.symbols.fork_for_worker(
                sym_floor + c as u32 * sym_stride,
                sym_stride,
                ShardGrowth {
                    next_start: overflow_base.saturating_add(c as u32 * sym_stride),
                    step: chunks_u32 * sym_stride,
                    capacity: sym_stride,
                },
            );
            Mutex::new(Some(ChunkJob {
                loans,
                table,
                id_floor: id_floor + c as u64 * ID_STRIDE,
                heap_floor: heap_floor + c as u64 * HEAP_STRIDE,
                unit_base: lo,
            }))
        })
        .collect();
    let outcome_slots: Vec<Mutex<Option<ChunkOutcome<I::Data>>>> =
        (0..chunk_count).map(|_| Mutex::new(None)).collect();
    let next_chunk = AtomicUsize::new(0);
    let ir_options = ctx.options;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| loop {
                    let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if c >= chunk_count {
                        break;
                    }
                    let job = jobs_slots[c]
                        .lock()
                        .expect("chunk job mutex")
                        .take()
                        .expect("atomic index hands each chunk to exactly one worker");
                    let outcome = compile_chunk(
                        c,
                        job,
                        ir_options,
                        make_phases,
                        plan,
                        opts,
                        check,
                        instr,
                        controls,
                    );
                    *outcome_slots[c].lock().expect("chunk outcome mutex") = Some(outcome);
                })
            })
            .collect();
        for h in handles {
            // Chunk panics are caught inside `compile_chunk`; a join error
            // here means the scheduler loop itself broke (poisoned mutex).
            h.join().expect("parallel compilation scheduler panicked");
        }
    });
    // The originals were only loaned; the chunks returned fresh arenas.
    drop(jobs_slots);
    drop(units);

    let outcomes: Vec<ChunkOutcome<I::Data>> = outcome_slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("chunk outcome mutex")
                .expect("every chunk index below the cap was compiled")
        })
        .collect();

    // Deterministic fan-in, chunk order = unit order throughout. Panicked
    // chunks have empty grids/failures and contribute nothing beyond their
    // attributed fault.
    let groups = outcomes.iter().map(|o| o.grid.len()).max().unwrap_or(0);
    let mut stats = ExecStats::default();
    for gi in 0..groups {
        for o in &outcomes {
            for s in o.grid.get(gi).map_or(&[][..], |row| row.as_slice()) {
                stats.merge(*s);
            }
        }
    }
    let mut failure_groups: Vec<Vec<CheckFailure>> = Vec::new();
    let mut finding_groups: Vec<Vec<Finding>> = Vec::new();
    let mut out_units = Vec::with_capacity(n);
    let mut worker_data = Vec::with_capacity(chunk_count);
    let mut chunk_faults = Vec::new();
    for o in outcomes {
        if let Some(fault) = o.fault {
            chunk_faults.push(fault);
            continue;
        }
        for (gi, fs) in o.failures.into_iter().enumerate() {
            if failure_groups.len() <= gi {
                failure_groups.resize_with(gi + 1, Vec::new);
            }
            failure_groups[gi].extend(fs);
        }
        for (gi, fs) in o.findings.into_iter().enumerate() {
            if finding_groups.len() <= gi {
                finding_groups.resize_with(gi + 1, Vec::new);
            }
            finding_groups[gi].extend(fs);
        }
        out_units.extend(o.units.0);
        ctx.stats.nodes += o.alloc.nodes;
        ctx.stats.bytes += o.alloc.bytes;
        ctx.errors.extend(o.errors);
        if let Some(delta) = o.delta {
            ctx.symbols.adopt(&delta);
        }
        if let Some(data) = o.data {
            worker_data.push(data);
        }
    }
    // The merged table now holds what every chunk wrote at its periods;
    // the backend reads it at the final period, like after a sequential run.
    let (info_plan, periods) = info_periods(&make_phases(), plan);
    ctx.symbols.set_info_plan(info_plan);
    ctx.symbols.set_period(periods.last().copied().unwrap_or(0));
    // Ranges stay consumed even when a chunk panicked mid-allocation: the
    // next batch must not reuse a range a dead fork may have touched.
    ctx.advance_watermarks(
        id_floor + chunk_count as u64 * ID_STRIDE,
        heap_floor + chunk_count as u64 * HEAP_STRIDE,
    );
    ParallelRun {
        units: out_units,
        stats,
        failures: failure_groups.into_iter().flatten().collect(),
        findings: finding_groups.into_iter().flatten().collect(),
        effective_jobs: jobs,
        worker_data,
        faults: chunk_faults,
    }
}

/// Allocator floors for one [`run_units_isolated`] batch — the caller (a
/// compile session) owns the cursors so ranges stay disjoint across *many*
/// batches on one long-lived frontend context, not just within one batch.
#[derive(Clone, Copy, Debug)]
pub struct IsolatedLayout {
    /// First symbol id available to this batch's forks. Must clear the
    /// origin table's [`mini_ir::SymbolTable::id_ceiling`] **and** the used
    /// range of every delta a previous batch produced that is still live
    /// (spliced into rebuilt tables).
    pub sym_floor: u32,
    /// Primary-shard (and overflow-shard) symbol capacity per unit.
    pub sym_shard_capacity: u32,
    /// First node id for this batch; unit `i` allocates from
    /// `id_floor + i × UNIT_ID_STRIDE`.
    pub id_floor: u64,
    /// First modelled heap address; strided like `id_floor`.
    pub heap_floor: u64,
}

/// One unit's end-to-end pipeline outcome from [`run_units_isolated`]:
/// everything a compile session needs to cache the unit — the lowered tree,
/// per-group counters and checker findings, and the symbol-table delta to
/// splice when assembling a full program around cached neighbours.
pub struct IsolatedUnitRun {
    /// The lowered unit (tree lives in the unit's own arena; after the
    /// batch returns the calling thread is its sole owner).
    pub unit: CompilationUnit,
    /// Traversal counters per phase group, in group order.
    pub stats_by_group: Vec<ExecStats>,
    /// Checker findings per phase group (all empty unless `check` was on).
    pub failures_by_group: Vec<Vec<CheckFailure>>,
    /// Static-analysis findings per phase group (all empty unless analysis
    /// phases were in the plan).
    pub findings_by_group: Vec<Vec<Finding>>,
    /// New symbols + mutations of pre-fork symbols this unit's pipeline
    /// made. **Not** adopted anywhere by this call — the origin context
    /// stays byte-for-byte untouched.
    pub delta: mini_ir::SymbolDelta,
    /// Diagnostics the unit's pipeline reported.
    pub errors: Vec<mini_ir::Diagnostic>,
}

/// Compiles every unit **in full isolation** — one fork, one private arena,
/// one phase-list instance and one pipeline per *unit* (a chunk of exactly
/// one) — and returns the per-unit outcomes **without adopting anything**
/// into `ctx`. This is the executor of the incremental compile session: the
/// session caches each outcome keyed by content hashes and splices deltas
/// itself when assembling a program, so the shared frontend context must
/// stay pristine (phase mutations would otherwise leak into the symbol
/// state the *typer* sees on later edits).
///
/// `jobs` worker threads claim units through an atomic index exactly like
/// [`run_units_parallel`]; with `jobs <= 1` the same per-unit chunks run on
/// the calling thread. Because every per-unit input (fork floors, loans) is
/// derived from the unit index, the outcome vector is byte-identical across
/// `jobs` values.
///
/// Each per-unit chunk runs inside the same `catch_unwind` fence as the
/// batch executor: a unit whose pipeline panics yields `Err(fault)` in its
/// slot — attributed to the unit and phase — while every sibling unit's
/// `Ok` outcome is intact and cacheable. `controls` threads fault
/// injection and the compile deadline into each unit's pipeline.
///
/// # Panics
///
/// Panics if `make_phases` disagrees with `plan` in a way the per-unit
/// fence cannot catch (pipeline construction runs inside it, so in
/// practice only scheduler-infrastructure failures propagate), or if the
/// layout's symbol floor is below the origin table's id ceiling.
#[allow(clippy::too_many_arguments)]
pub fn run_units_isolated<F>(
    ctx: &Ctx,
    make_phases: &F,
    plan: &PhasePlan,
    opts: FusionOptions,
    units: &[CompilationUnit],
    jobs: usize,
    check: bool,
    layout: IsolatedLayout,
    controls: &RunControls,
) -> Vec<Result<IsolatedUnitRun, InternalFault>>
where
    F: Fn() -> Vec<Box<dyn MiniPhase>> + Sync,
{
    let n = units.len();
    if n == 0 {
        return Vec::new();
    }
    let n_u32 = n as u32;
    let cap = layout
        .sym_shard_capacity
        .max(1)
        .min((u32::MAX - layout.sym_floor) / (n_u32 * 2).max(1));
    assert!(cap > 0, "symbol id space exhausted below the session floor");
    let overflow_base = layout.sym_floor + n_u32 * cap;
    let mut jobs_slots: Vec<Mutex<Option<ChunkJob<'_>>>> = Vec::with_capacity(n);
    for (i, u) in units.iter().enumerate() {
        let table = ctx.symbols.fork_for_worker(
            layout.sym_floor + i as u32 * cap,
            cap,
            ShardGrowth {
                next_start: overflow_base.saturating_add(i as u32 * cap),
                step: n_u32 * cap,
                capacity: cap,
            },
        );
        jobs_slots.push(Mutex::new(Some(ChunkJob {
            loans: vec![UnitLoan {
                name: &u.name,
                tree: &u.tree,
            }],
            table,
            id_floor: layout.id_floor + i as u64 * ID_STRIDE,
            heap_floor: layout.heap_floor + i as u64 * HEAP_STRIDE,
            unit_base: i,
        })));
    }
    let ir_options = ctx.options;
    let take_job = |i: usize| {
        jobs_slots[i]
            .lock()
            .expect("unit job mutex")
            .take()
            .expect("each unit is compiled exactly once")
    };

    let mut outcomes: Vec<ChunkOutcome<()>> = Vec::with_capacity(n);
    if jobs <= 1 {
        for i in 0..n {
            let job = take_job(i);
            outcomes.push(compile_chunk(
                i,
                job,
                ir_options,
                make_phases,
                plan,
                opts,
                check,
                &NoInstrumentation,
                controls,
            ));
        }
    } else {
        let outcome_slots: Vec<Mutex<Option<ChunkOutcome<()>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next_unit = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs.min(n))
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next_unit.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = take_job(i);
                        let outcome = compile_chunk(
                            i,
                            job,
                            ir_options,
                            make_phases,
                            plan,
                            opts,
                            check,
                            &NoInstrumentation,
                            controls,
                        );
                        *outcome_slots[i].lock().expect("unit outcome mutex") = Some(outcome);
                    })
                })
                .collect();
            for h in handles {
                // Unit panics are caught inside `compile_chunk`; a join
                // error means the claim loop itself broke.
                h.join().expect("isolated unit scheduler panicked");
            }
        });
        outcomes.extend(outcome_slots.into_iter().map(|m| {
            m.into_inner()
                .expect("unit outcome mutex")
                .expect("every unit index below the count was compiled")
        }));
    }

    outcomes
        .into_iter()
        .map(|o| {
            let ChunkOutcome {
                units,
                grid,
                failures,
                findings,
                delta,
                errors,
                fault,
                ..
            } = o;
            if let Some(fault) = fault {
                return Err(fault);
            }
            let mut units = units.0;
            assert_eq!(units.len(), 1, "isolated chunks hold exactly one unit");
            Ok(IsolatedUnitRun {
                unit: units.pop().expect("length checked above"),
                // `run_units_recorded` fills member_transforms per grid row,
                // so row[0] is the complete per-group counter set.
                stats_by_group: grid.iter().map(|row| row[0]).collect(),
                failures_by_group: failures,
                findings_by_group: findings,
                delta: delta.expect("non-faulted chunks carry a delta"),
                errors,
            })
        })
        .collect()
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
        );
        assert_eq!(run.units.len(), 2);
        assert_eq!(run.effective_jobs, 2, "clamped to one worker per unit");
        assert_eq!(run.worker_data.len(), 2, "one chunk per unit");
    }

    #[test]
    fn zero_jobs_clamp_to_sequential() {
        // `CompilerOptions { jobs: 0, .. }` built by struct literal
        // bypasses the driver's `with_jobs` clamp; the executor must clamp
        // at the use site rather than feed 0 into the chunk math.
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
        );
        assert_eq!(run.units.len(), 3);
        assert_eq!(run.effective_jobs, 1, "jobs=0 runs sequentially");
    }

    /// Allocates a fresh symbol for every literal it sees — a symbol-heavy
    /// phase that overflows deliberately tiny shards.
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
            let root = ctx.symbols.builtins().root_pkg;
            let name = ctx.fresh_name("hungry");
            ctx.symbols
                .new_term(root, name, mini_ir::Flags::EMPTY, mini_ir::Type::Int);
            tree.clone()
        }
    }

    #[test]
    fn shard_overflow_chains_and_stays_deterministic() {
        // Regression for the hard `worker symbol shard overflow` abort: a
        // chunk allocating more symbols than its stride must chain
        // overflow shards and still merge byte-identically to sequential.
        let hungry = || -> Vec<Box<dyn MiniPhase>> { vec![Box::new(SymHungry)] };
        let tiny = ParallelTuning {
            chunks_per_worker: 1,
            sym_shard_capacity: 2, // 10 literals per unit ⇒ 5 overflow shards per chunk
        };
        let run = |jobs: usize| -> (Vec<String>, ExecStats, usize) {
            let mut ctx = Ctx::new();
            let units = make_units(&mut ctx, 6);
            let ps = hungry();
            let plan = build_plan(&ps, &PlanOptions::default()).unwrap();
            let run = run_units_parallel_tuned(
                &mut ctx,
                &hungry,
                &plan,
                FusionOptions::default(),
                units,
                jobs,
                false,
                &NoInstrumentation,
                tiny,
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
            (printed, run.stats, ctx.symbols.len())
        };
        let (seq, seq_stats, seq_len) = run(1);
        for jobs in [2, 3] {
            let (par, par_stats, par_len) = run(jobs);
            assert_eq!(seq, par, "trees diverged at jobs={jobs}");
            assert_eq!(seq_stats, par_stats, "stats diverged at jobs={jobs}");
            assert_eq!(seq_len, par_len, "symbol counts diverged at jobs={jobs}");
        }
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
