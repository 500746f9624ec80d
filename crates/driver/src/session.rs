//! Incremental compile sessions: content-addressed unit caching with
//! dependency-aware invalidation.
//!
//! [`compile_sources`](crate::compile_sources) is one-shot: every call
//! re-lexes, re-types and re-transforms every unit from scratch. A
//! [`CompileSession`] is the persistent-service shape of the same pipeline:
//! [`CompileSession::update`] / [`CompileSession::remove`] stage edits, and
//! [`CompileSession::compile`] recompiles **only the invalidated units**,
//! splicing cached pipeline outputs for the rest and returning a
//! [`Compiled`] extended with [`Compiled::reused_units`] /
//! [`Compiled::recompiled_units`].
//!
//! # Design note
//!
//! The session is built on four invariants, each carried by a different
//! layer:
//!
//! 1. **A pristine frontend context.** The session owns one long-lived
//!    [`Ctx`] that only the namer/typer ever mutates. The transform
//!    pipeline runs on **copy-on-write forks** of it
//!    ([`miniphase::run_units_isolated`], one fork per unit) and *nothing
//!    is adopted back*: phase mutations (getter synthesis, lambda
//!    lifting) must never leak into the symbol state a later edit's typing
//!    observes, or an incremental re-type would see post-pipeline types
//!    where a batch compile sees frontend types.
//!
//! 2. **Stable symbol identity across edits.** Re-typing an edited unit
//!    goes through the typer's redefinition mode
//!    ([`mini_front::compile_source_reusing`]): top-level definitions and
//!    class members that persist across the edit keep their [`SymbolId`]s
//!    and are updated in place. Identity is what keeps *other* units'
//!    cached post-pipeline trees valid — their `Ident`/`Select` nodes
//!    resolve by id. Definitions that disappear are retracted from the
//!    package scope here.
//!
//! 3. **Content-addressed unit artifacts.** Each compiled unit caches its
//!    post-pipeline tree, per-group [`ExecStats`] and checker findings,
//!    its sorted lint findings, its symbol-table delta and its relocatable
//!    bytecode ([`mini_backend::UnitCode`]), keyed by `(source hash,
//!    dep-interface hashes, plan fingerprint, options fingerprint)`. The
//!    *dep-interface hash*
//!    ([`mini_ir::fingerprint::export_interface_hash`]) covers a
//!    dependency's exported surface only — names, flags, rendered types,
//!    parents, member signatures — so **body-only edits do not cascade**:
//!    the edited unit recompiles alone, its dependents' keys still match.
//!    Signature edits change the dep hash and invalidate exactly the
//!    (transitive) dependents, discovered by the typer's recorded dep set.
//!
//!    The unit code is compiled by the first `compile()` that splices the
//!    artifact, against that compile's assembled table (artifacts imported
//!    from the shared store get theirs the same way), and reused by every
//!    later one: a warm `compile()` only links. It is valid under the same
//!    key as the tree. The artifact also keeps what the last link
//!    relocated from that code ([`mini_backend::RelocatedUnit`]), and the
//!    next link places those functions again unless the unit's imports
//!    resolve to other ids or its function ids moved, so a body edit
//!    relocates the edited unit only ([`CacheStats::units_relocated`]).
//!    [`mini_backend::compile_unit`] reads the unit's own
//!    tree and symbols and, of its dependencies, only class parents and
//!    member owners, which the dep-interface hash covers; every cross-unit
//!    reference (callee, class, field, method selector) stays symbolic
//!    until [`mini_backend::link`] resolves it over the whole program, so
//!    a dependency's body edit that adds classes, functions or fields
//!    shifts ids only at link (`tests/unit_codegen.rs` and the program
//!    dump in `tests/incremental_equivalence.rs` pin this).
//!
//! 4. **Delta splicing instead of table mutation.** `compile()` assembles
//!    the program table as a copy-on-write view of the pristine frontend
//!    table ([`mini_ir::SymbolTable::splice_view`]) and adopts every live
//!    unit's cached delta **by reference**, in unit order, then reads it at
//!    the pipeline's final period. The view aliases the frontend's base
//!    arena: a delta's writes to pre-existing symbols land in the view's
//!    private overlay, and the delta's shards are shared with the cached
//!    artifact (and the shared store) rather than copied. So a splice costs
//!    O(live units + changed symbols), not O(symbol table), and the info
//!    memos codegen fills on base and shard symbols survive into the next
//!    compile. A unit's delta mutates only the symbols the unit owns (plus
//!    the builtin region and the root package's append-only decls; debug
//!    builds assert this at cache time): the info transformers —
//!    `ElimRepeated`, `ElimByName`, `Erasure` — never rewrite the table,
//!    their view of every symbol is derived on read
//!    ([`mini_ir::SymbolTable::info_at`]). A mutation of *another* unit's
//!    symbol would go stale — and poison the rebuild — the moment its
//!    owner is re-typed.
//!
//!    [`Compiled::ctx`] is that view, so it aliases the session's frontend
//!    base. A caller that keeps a `Compiled` alive across an edit makes
//!    the frontend's next write copy the base arena once (`Arc::make_mut`)
//!    — no more than the whole-table copy a clone-based splice pays on
//!    every compile — and the kept program stays valid and unchanged
//!    (`tests/splice_aliasing.rs` pins both this and the no-copy splice).
//!
//! Determinism: a session compile after any edit series is byte-identical
//! — printed trees, the linked program, VM output, checker findings,
//! merged `ExecStats` — to a from-scratch
//! [`compile_sources`](crate::compile_sources) over the same sources in
//! unit-name order, across fused/mega, `jobs`, pruning and checker
//! configurations (`tests/incremental_equivalence.rs` pins this).
//! Two deliberate, output-invisible divergences: symbol/node *ids* differ
//! (printing and codegen never consume raw ids), and the root package's
//! `decls` order differs (nothing consumes it — see
//! [`mini_ir::SymbolTable::adopt`]).
//!
//! Units compile in **unit-name order** (the `BTreeMap` order), so a
//! from-scratch comparison must sort its sources by name. Dependencies must
//! point to units earlier in name order — the same constraint a batch
//! compile imposes, since the typer processes units in sequence.
//!
//! # Robustness: isolation boundaries, budgets, degradation
//!
//! The session is the unit of fault containment for the planned
//! compile-service daemon: a misbehaving unit must cost one request, never
//! the process. Four mechanisms carry that:
//!
//! * **Isolation boundaries.** Every per-unit pipeline fork runs inside a
//!   `catch_unwind` fence ([`miniphase::run_units_isolated`]); a panic in a
//!   phase hook, the checker or the scheduler becomes a structured
//!   [`CompileError::Internal`]`{ unit, phase, message }` — attributed via
//!   the thread-local active-site marker ([`miniphase::faults`]) — while
//!   **sibling units complete, cache their artifacts, and re-sequence
//!   deterministically**. The panic poisons this session only, never a
//!   sibling session or the process.
//!
//! * **Degradation policy.** After a worker panic the session retries
//!   *only the faulted units*, once, sequentially (`jobs = 1`), inside the
//!   same compile — the sibling artifacts cached in the first pass are
//!   reused, which [`CacheStats::worker_panics`] /
//!   [`CacheStats::sequential_retries`] surface and
//!   [`Compiled::retried_sequential`] records (mirroring the
//!   `effective_jobs` downgrade surfacing). A unit that panics *again* on
//!   the sequential retry fails the compile with the first faulted unit in
//!   unit order and poisons the session; the next compile rebuilds from
//!   scratch.
//!
//! * **Budget semantics** ([`crate::Budgets`]). The wall-clock deadline is
//!   checked at group boundaries of the phase-major loop and surfaces as
//!   [`CompileError::Budget`]; tree depth/size guards latch one `"budget"`
//!   diagnostic at `Ctx::mk`; the artifact-cache byte budget evicts
//!   least-recently-*recompiled* artifacts (oldest compile stamp first,
//!   name as tiebreak) after each successful compile — eviction costs a
//!   recompile later, never correctness. Exhaustion of the symbol-id space
//!   ([`SESSION_SYM_HIGH_WATER`]) retires the whole id space with a logged
//!   full rebuild, counted in [`CacheStats::sym_space_retirements`].
//!
//! * **Deterministic fault injection** ([`miniphase::FaultPlan`], armed
//!   via [`CompileSession::inject_faults`]). A seeded plan fires panics at
//!   chosen `(unit, group)` sites or unit claims, or corrupts a chosen
//!   cached artifact's fingerprint (detected as an ordinary key mismatch —
//!   the unit silently recompiles, counted in
//!   [`CacheStats::corrupted_artifacts`]). `tests/fault_recovery.rs` pins
//!   that no fault escapes as a panic and that the next clean compile is
//!   byte-identical to from-scratch.

use crate::store::{ArtifactKey, SharedArtifactStore, StoreLookup};
use crate::{
    diagnostics_error, phase_factory, standard_plan, CompileError, Compiled, CompilerOptions,
    StageTimes,
};
use mini_backend::{compile_unit, link, RelocatedUnit, UnitCode};
use mini_ir::fingerprint::{binding_fingerprint, export_interface_hash, source_fingerprint, Fnv64};
use mini_ir::{Ctx, SymbolDelta, SymbolId, SymbolTable, TreeRef};
use miniphase::{
    sort_findings, CheckFailure, CompilationUnit, ExecStats, FaultPlan, Finding, IsolatedLayout,
    IsolatedUnitRun, NoInstrumentation, RunControls,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The floors of a fresh frontend's first pipeline batch. Symbol ids start
/// at 2²⁰: the pristine frontend table allocates contiguously from the
/// bottom, and a frontend that ever reached this many symbols would make
/// the fork guard panic loudly rather than corrupt ids. Node ids and heap
/// addresses start at 2⁴⁴, far above anything the frontend context will
/// ever allocate itself.
const FIRST_FLOORS: IsolatedLayout = IsolatedLayout {
    sym_floor: 1 << 20,
    id_floor: 1 << 44,
    heap_floor: 1 << 44,
};

/// Symbol-id high-water mark: when the shard cursor passes this, the next
/// `compile()` retires the whole id space by rebuilding the frontend (one
/// expensive full recompile) instead of risking `u32` wrap-around — wrapped
/// shard ids would silently collide with live cached deltas. Leaves
/// generous headroom for the largest single batch below the `u32` ceiling.
const SESSION_SYM_HIGH_WATER: u32 = u32::MAX - (1 << 28);

/// Cumulative cache bookkeeping for one [`CompileSession`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `compile()` calls that ran to completion.
    pub compiles: u64,
    /// Compiles that rebuilt everything (first compile, options change, or
    /// recovery after a failed compile poisoned the frontend).
    pub full_rebuilds: u64,
    /// Unit compilations served from cache across all compiles.
    pub units_reused: u64,
    /// Unit compilations that ran the frontend + pipeline.
    pub units_recompiled: u64,
    /// Units whose code a link relocated instead of reusing the relocated
    /// functions cached with the unit's artifact: every recompiled unit,
    /// plus every reused unit whose resolved imports or function ids
    /// changed.
    pub units_relocated: u64,
    /// Units invalidated because their own source changed.
    pub invalidated_by_source: u64,
    /// Units invalidated because a dependency's exported interface changed
    /// (or a dependency disappeared) — the cascade a body-only edit never
    /// triggers.
    pub invalidated_by_deps: u64,
    /// Per-unit pipeline panics caught at the isolation fence (one per
    /// faulted unit per compile).
    pub worker_panics: u64,
    /// Compiles that retried their faulted units sequentially at
    /// `jobs = 1` after a worker panic (the degradation policy; at most
    /// one retry per compile).
    pub sequential_retries: u64,
    /// Cached artifacts evicted by the [`crate::Budgets::cache_bytes`]
    /// budget (least-recently-recompiled first).
    pub evicted_units: u64,
    /// Approximate bytes reclaimed by those evictions.
    pub evicted_bytes: u64,
    /// Full frontend rebuilds forced by the symbol-id high-water mark
    /// (id-space retirement, previously folded silently into the poisoned
    /// path).
    pub sym_space_retirements: u64,
    /// Cached artifacts whose fingerprint was found corrupted (today only
    /// via injected faults); each recompiles like an ordinary source
    /// invalidation.
    pub corrupted_artifacts: u64,
    /// Invalidated units served from the shared cross-session store
    /// instead of the pipeline (see [`crate::store::SharedArtifactStore`]).
    pub shared_hits: u64,
    /// Artifacts this session published to the shared store.
    pub shared_publishes: u64,
    /// Shared-store entries this session detected as corrupt and
    /// quarantined (each also recompiles locally).
    pub shared_quarantined: u64,
}

/// Modelled memory accounting for one session (see
/// [`CompileSession::memory_footprint`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Cached post-pipeline trees (node-count model, as the cache budget).
    pub artifact_bytes: u64,
    /// Retained source text.
    pub source_bytes: u64,
    /// Frontend symbol-table population.
    pub symbol_count: u64,
    /// Modelled bytes for those symbols.
    pub symbol_bytes: u64,
    /// Sum of the components — the per-tenant accounting figure.
    pub total_bytes: u64,
}

/// One unit's cached pipeline artifact plus the key that validates it.
struct UnitArtifact {
    /// Source hash the artifact was compiled from.
    source_hash: u64,
    /// Dependency units and their exported-interface hashes at compile
    /// time. Valid only while every dep still exists with that hash.
    deps: BTreeMap<String, u64>,
    /// Options + plan fingerprint the artifact was compiled under.
    config_fp: u64,
    /// The post-pipeline tree.
    tree: TreeRef,
    /// Per-group traversal counters.
    stats_by_group: Vec<ExecStats>,
    /// Per-group checker findings (empty unless `check`).
    failures_by_group: Vec<Vec<CheckFailure>>,
    /// Static-analysis findings (empty unless `lint`), each stamped with
    /// this unit's name, in canonical order ([`sort_findings`]). Cached so
    /// warm edits replay lint results without re-traversing — per-unit
    /// scoping of every rule is what makes this sound — and sorted once
    /// here, so a compile concatenates them in unit order (the sort key
    /// leads with the unit name).
    findings: Vec<Finding>,
    /// Symbol-table delta (this unit's own symbols, builtins,
    /// root-package appends).
    delta: SymbolDelta,
    /// The unit's relocatable bytecode, built by the first compile that
    /// links this artifact and reused by every later one (module
    /// invariant 3).
    code: Option<Arc<UnitCode>>,
    /// What the last link relocated from `code`: the unit's functions with
    /// program-wide operands, the resolved imports and the function-id
    /// bases they were relocated against. The next link places them again
    /// while its freshly resolved imports and bases are equal. Kept here,
    /// so it is only ever offered with the code it was made from, and
    /// dropped with the artifact.
    relocated: Option<RelocatedUnit>,
    /// Compile sequence number the artifact was (re)built in — the age key
    /// of the byte-budget eviction. Assigned at creation only: every live
    /// unit is spliced each compile, so last-*use* stamps would be
    /// uniform; least-recently-**recompiled** is the meaningful order.
    stamp: u64,
    /// Modelled size of the cached artifact (tree nodes × mean node
    /// footprint, plus [`UnitCode::approx_bytes`] once the code is built
    /// and [`RelocatedUnit::approx_bytes`] once it is relocated) — the unit
    /// the cache byte budget is accounted in.
    approx_bytes: u64,
    /// `[lo, hi)` symbol-id range of the artifact's delta shards. Local
    /// artifacts get their pipeline slot's range; imported ones carry the
    /// producer's. Lookups reject shared entries colliding with any live
    /// artifact's range — raw ids are identity here (module invariant 2).
    sym_range: (u32, u32),
}

/// Per-unit session state.
struct UnitState {
    source: String,
    source_hash: u64,
    /// Top-level symbols of the current generation (declaration order).
    top_syms: Vec<SymbolId>,
    /// Exported-interface hash of the current generation.
    iface_hash: u64,
    cached: Option<UnitArtifact>,
}

/// A staged, not-yet-compiled edit.
enum Staged {
    Update(String),
    Remove,
}

/// A persistent, incremental compilation service over one evolving program.
///
/// # Examples
///
/// ```
/// use mini_driver::{CompileSession, CompilerOptions};
/// let mut s = CompileSession::new(CompilerOptions::fused());
/// s.update("a.ms", "def one(): Int = 1");
/// s.update("b.ms", "def main(): Unit = println(one() + 41)");
/// let cold = s.compile().expect("compiles");
/// assert_eq!(cold.recompiled_units, 2);
/// // A body-only edit recompiles exactly the edited unit.
/// s.update("a.ms", "def one(): Int = 2 - 1");
/// let warm = s.compile().expect("compiles");
/// assert_eq!(warm.recompiled_units, 1);
/// assert_eq!(warm.reused_units, 1);
/// ```
pub struct CompileSession {
    opts: CompilerOptions,
    /// Hash over everything except `jobs` that can change pipeline output:
    /// mode, checker, fusion tunables, group-size cap, and the resolved
    /// plan. `jobs` is excluded deliberately — parallelism is
    /// proptest-pinned output-invariant, so artifacts stay valid across
    /// `with_jobs` changes.
    config_fp: u64,
    /// The pristine frontend context (invariant 1 in the module docs).
    front: Ctx,
    /// Unit states in canonical (name) order.
    units: BTreeMap<String, UnitState>,
    staged: BTreeMap<String, Staged>,
    /// Top-level symbol → defining unit, for resolving recorded dep roots.
    owner_unit: HashMap<SymbolId, String>,
    /// Where the next pipeline batch's forks start: the symbol id floor
    /// (monotonic across compiles; must clear every live cached delta's
    /// range) and the node-id and heap floors.
    floors: IsolatedLayout,
    /// Symbols below this index are builtins (created by `SymbolTable::new`
    /// before any unit) — the only symbols outside its own that a unit's
    /// pipeline may mutate.
    builtin_len: u32,
    stats: CacheStats,
    /// A failed compile may leave the frontend half-updated; the next
    /// compile rebuilds from scratch instead of trusting it.
    poisoned: bool,
    /// Armed fault-injection plan, threaded into every pipeline run until
    /// [`CompileSession::clear_faults`]. `None` (the default) is zero-cost.
    fault_plan: Option<Arc<FaultPlan>>,
    /// The symbol-id retirement threshold — [`SESSION_SYM_HIGH_WATER`] in
    /// production, lowered by tests to cross it on small corpora.
    sym_high_water: u32,
    /// Monotonic compile sequence number stamped onto artifacts (eviction
    /// age; advances even for failed compiles).
    compile_seq: u64,
    /// Attached cross-session artifact store and this session's tenant
    /// label, if any (see [`CompileSession::attach_shared_store`]).
    shared: Option<(Arc<SharedArtifactStore>, String)>,
}

impl CompileSession {
    /// Creates an empty session compiling under `opts`.
    ///
    /// `opts` is fixed for the session's lifetime; sessions with different
    /// options maintain independent caches by construction.
    pub fn new(opts: CompilerOptions) -> CompileSession {
        let mut front = Ctx::new();
        opts.configure_ctx(&mut front);
        let builtin_len = front.symbols.len() as u32;
        CompileSession {
            opts,
            config_fp: config_fingerprint(&opts),
            front,
            units: BTreeMap::new(),
            staged: BTreeMap::new(),
            owner_unit: HashMap::new(),
            floors: FIRST_FLOORS,
            builtin_len,
            stats: CacheStats::default(),
            poisoned: false,
            fault_plan: None,
            sym_high_water: SESSION_SYM_HIGH_WATER,
            compile_seq: 0,
            shared: None,
        }
    }

    /// Attaches a process-wide [`SharedArtifactStore`]: every compile first
    /// probes the store for each invalidated unit (adopting verified
    /// cross-session artifacts instead of running the pipeline) and
    /// publishes its own clean pipeline outcomes back. `tenant` labels this
    /// session in the store's per-tenant byte accounting. Detached
    /// sessions (the default) behave exactly as before.
    pub fn attach_shared_store(
        &mut self,
        store: Arc<SharedArtifactStore>,
        tenant: impl Into<String>,
    ) {
        self.shared = Some((store, tenant.into()));
    }

    /// Arms deterministic fault injection: every subsequent
    /// [`CompileSession::compile`] threads `plan` through the pipeline
    /// (panic sites, unit-claim exhaustion) and polls it for artifact
    /// corruption, until [`CompileSession::clear_faults`]. Injection is
    /// the test harness of the fault-tolerance layer — a production
    /// session never arms one.
    pub fn inject_faults(&mut self, plan: Arc<FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// Disarms fault injection (see [`CompileSession::inject_faults`]).
    pub fn clear_faults(&mut self) {
        self.fault_plan = None;
    }

    /// Overrides the wall-clock deadline budget for subsequent compiles —
    /// the compile service clamps each request's deadline into the tenant
    /// ceiling through this. Budgets are deliberately excluded from the
    /// config fingerprint, so changing the deadline never invalidates
    /// cached artifacts.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.opts.budgets.deadline = deadline;
    }

    #[doc(hidden)]
    /// Test hook: lowers the symbol-id retirement threshold so small
    /// corpora can cross it. Not part of the public API contract.
    pub fn set_sym_high_water(&mut self, high_water: u32) {
        self.sym_high_water = high_water;
    }

    /// The session's compiler options.
    pub fn options(&self) -> &CompilerOptions {
        &self.opts
    }

    /// Cumulative cache bookkeeping.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Modelled memory footprint of the session — what the compile
    /// service's per-tenant accounting charges. Artifact bytes use the
    /// same node-count model as the cache byte budget; symbols and
    /// retained sources are charged at flat per-entry costs. A model, not
    /// an allocator measurement — it exists so eviction and admission
    /// decisions have a stable, deterministic currency.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let artifact_bytes: u64 = self
            .units
            .values()
            .filter_map(|u| u.cached.as_ref())
            .map(|a| a.approx_bytes)
            .sum();
        let source_bytes: u64 = self.units.values().map(|u| u.source.len() as u64).sum();
        let symbol_count = self.front.symbols.len() as u64;
        // Mean retained cost per frontend symbol: data + scope entries.
        let symbol_bytes = symbol_count * 160;
        MemoryFootprint {
            artifact_bytes,
            source_bytes,
            symbol_count,
            symbol_bytes,
            total_bytes: artifact_bytes + source_bytes + symbol_bytes,
        }
    }

    /// Number of units currently in the program (staged edits included).
    pub fn unit_count(&self) -> usize {
        let mut n = self.units.len();
        for (name, s) in &self.staged {
            match s {
                Staged::Update(_) if !self.units.contains_key(name) => n += 1,
                Staged::Remove if self.units.contains_key(name) => n -= 1,
                _ => {}
            }
        }
        n
    }

    /// Stages an added or edited unit. No work happens until
    /// [`CompileSession::compile`]; staging the unchanged source is a
    /// no-op.
    pub fn update(&mut self, name: impl Into<String>, src: impl Into<String>) {
        let name = name.into();
        let src = src.into();
        if let Some(state) = self.units.get(&name) {
            if state.source == src && !matches!(self.staged.get(&name), Some(Staged::Remove)) {
                self.staged.remove(&name);
                return;
            }
        }
        self.staged.insert(name, Staged::Update(src));
    }

    /// The retained source text of a compiled unit (staged-but-uncompiled
    /// edits are not visible here). The diagnostics renderer joins
    /// findings against this copy — see [`crate::diagnostics`].
    pub fn source(&self, name: &str) -> Option<&str> {
        self.units.get(name).map(|s| s.source.as_str())
    }

    /// Stages a unit removal.
    pub fn remove(&mut self, name: impl Into<String>) {
        let name = name.into();
        if self.units.contains_key(&name) {
            self.staged.insert(name, Staged::Remove);
        } else {
            self.staged.remove(&name);
        }
    }

    /// Compiles the staged program: re-runs the frontend + transform
    /// pipeline for invalidated units only, splices cached artifacts for
    /// the rest, and assembles a full [`Compiled`] program.
    ///
    /// # Errors
    ///
    /// The same failure modes as [`crate::compile_sources`]. After a
    /// parse/type/pipeline error the session frontend may hold partial
    /// state, so the next `compile()` transparently rebuilds from scratch;
    /// checker findings ([`CompileError::Check`]) do not poison the session
    /// (the pipeline completed — the artifacts are cached and valid).
    pub fn compile(&mut self) -> Result<Compiled, CompileError> {
        if self.poisoned {
            // A failed compile left partial state: rebuild from scratch.
            self.rebuild_frontend();
        } else if self.floors.sym_floor >= self.sym_high_water {
            // Nearly exhausted symbol-id space: retire the whole id space
            // with a fresh frontend (ids reset too) rather than risk u32
            // wrap-around colliding with live cached deltas. Surfaced as
            // its own counter + log line — this is routine maintenance of
            // a long-lived session, not a failure.
            self.stats.sym_space_retirements += 1;
            eprintln!(
                "mini-driver session: symbol-id cursor {} crossed high water {}; \
                 retiring id space with a full frontend rebuild",
                self.floors.sym_floor, self.sym_high_water
            );
            self.rebuild_frontend();
        }
        self.compile_seq += 1;
        let deadline = self.opts.budgets.deadline.map(|d| Instant::now() + d);
        let controls = RunControls {
            faults: self.fault_plan.clone(),
            deadline,
        };
        let full_rebuild = self.units.values().all(|u| u.cached.is_none());
        self.apply_staged()?;

        // Injected artifact corruption: flip a chosen cached unit's source
        // fingerprint. Detection needs no dedicated machinery — the key
        // mismatch reads as an ordinary source invalidation and the unit
        // recompiles below.
        if let Some(plan) = &self.fault_plan {
            if let Some(idx) = plan.take_artifact_corruption() {
                if !self.units.is_empty() {
                    let name = self
                        .units
                        .keys()
                        .nth(idx % self.units.len())
                        .cloned()
                        .expect("index reduced modulo unit count");
                    if let Some(a) = self.units.get_mut(&name).and_then(|u| u.cached.as_mut()) {
                        a.source_hash ^= 0xDEAD_BEEF_u64;
                        self.stats.corrupted_artifacts += 1;
                    }
                }
            }
        }

        // ---- frontend: re-type the invalidation closure, in name order --
        let fe_start = Instant::now();
        let names: Vec<String> = self.units.keys().cloned().collect();
        let mut retyped: BTreeMap<String, mini_front::TypedUnit> = BTreeMap::new();
        loop {
            let mut progressed = false;
            for name in &names {
                if retyped.contains_key(name) {
                    continue;
                }
                if self.artifact_valid(name) {
                    continue;
                }
                let state = self.units.get(name).expect("name enumerated above");
                let by_source = state
                    .cached
                    .as_ref()
                    .is_none_or(|a| a.source_hash != state.source_hash);
                if by_source {
                    self.stats.invalidated_by_source += 1;
                } else {
                    self.stats.invalidated_by_deps += 1;
                }
                self.retype_unit(name, &mut retyped)?;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        let frontend = fe_start.elapsed();

        // ---- shared store probe: adopt cross-session artifacts ----------
        // Every re-typed unit is offered to the shared store (when one is
        // attached) before the pipeline runs. A verified hit installs the
        // imported artifact directly — the unit drops out of the dirty set
        // and is spliced like any locally cached artifact. Quarantined or
        // missing entries stay dirty and compile below.
        let mut dirty: Vec<String> = retyped.keys().cloned().collect();
        if let Some((store, tenant)) = self.shared.clone() {
            let mut import_opts = self.front.options;
            import_opts.max_tree_depth = None;
            import_opts.max_tree_size = None;
            let mut scratch = Ctx::worker(
                SymbolTable::new(),
                import_opts,
                self.floors.id_floor,
                self.floors.heap_floor,
            );
            let mut remaining = Vec::with_capacity(dirty.len());
            for name in dirty {
                let typed = &retyped[&name];
                let key = self.shared_key(&name, typed);
                let live: Vec<(u32, u32)> = self
                    .units
                    .values()
                    .filter_map(|u| u.cached.as_ref())
                    .map(|a| a.sym_range)
                    .collect();
                match store.lookup(&tenant, key, &mut scratch, &live) {
                    StoreLookup::Hit(art) => {
                        self.stats.shared_hits += 1;
                        self.floors.sym_floor = self.floors.sym_floor.max(art.sym_range.1);
                        let deps = self.dep_map(&name, typed);
                        let stamp = self.compile_seq;
                        let config_fp = self.config_fp;
                        let approx_bytes = u64::from(art.tree.subtree_size()) * 64;
                        let state = self.units.get_mut(&name).expect("unit exists");
                        state.cached = Some(UnitArtifact {
                            source_hash: state.source_hash,
                            deps,
                            config_fp,
                            tree: art.tree,
                            stats_by_group: art.stats_by_group,
                            failures_by_group: art.failures_by_group,
                            findings: sorted_findings(art.findings_by_group),
                            delta: art.delta,
                            code: None,
                            relocated: None,
                            stamp,
                            approx_bytes,
                            sym_range: art.sym_range,
                        });
                    }
                    StoreLookup::Quarantined => {
                        self.stats.shared_quarantined += 1;
                        remaining.push(name);
                    }
                    StoreLookup::Miss => remaining.push(name),
                }
            }
            let (node_mark, heap_mark) = scratch.alloc_watermarks();
            self.floors.id_floor = self.floors.id_floor.max(node_mark);
            self.floors.heap_floor = self.floors.heap_floor.max(heap_mark);
            dirty = remaining;
        }

        // ---- transform pipeline over the dirty set ----------------------
        let (phases, plan) = standard_plan(&self.opts)?;
        // Per-unit forks build their own instances; the assembled table
        // below needs only the info transformers.
        let (info_plan, periods) = miniphase::info_periods(&phases, &plan);
        drop(phases);
        let groups = plan.group_count();
        let tr_start = Instant::now();
        let mut effective_jobs = 1;
        let mut retried_sequential = false;
        if !dirty.is_empty() {
            let inputs: Vec<CompilationUnit> = dirty
                .iter()
                .map(|n| CompilationUnit::new(n.clone(), retyped[n].tree.clone()))
                .collect();
            let batch = miniphase::run_units_isolated(
                &self.front,
                &phase_factory(self.opts.lint, self.opts.dce),
                &plan,
                self.opts.fusion,
                &inputs,
                self.opts.effective_jobs(),
                self.opts.check,
                &NoInstrumentation,
                self.floors,
                &controls,
            );
            // Faulted units' ranges stay consumed too: a dead fork may
            // have touched them, so they are never reused.
            self.floors = batch.end;
            effective_jobs = batch.effective_jobs;

            // Cache every clean sibling FIRST — a faulted or erroring unit
            // must not cost its siblings' finished work. Faulted units are
            // collected (in unit order) for the sequential retry below.
            let mut errors = Vec::new();
            let mut faulted: Vec<String> = Vec::new();
            for (name, run) in dirty.iter().zip(batch.runs) {
                match run {
                    Ok(r) if r.errors.is_empty() => self.cache_artifact(name, &retyped[name], r),
                    Ok(r) => errors.extend(r.errors),
                    Err(_) => {
                        self.stats.worker_panics += 1;
                        faulted.push(name.clone());
                    }
                }
            }

            // Degradation policy: one sequential retry of exactly the
            // faulted units. A deterministic one-shot failure (allocator
            // corruption in one worker, an injected one-shot fault) heals
            // here with sibling artifacts reused; a unit that panics again
            // fails the compile as a structured internal error and poisons
            // the session.
            if !faulted.is_empty() {
                self.stats.sequential_retries += 1;
                retried_sequential = true;
                let retry_inputs: Vec<CompilationUnit> = faulted
                    .iter()
                    .map(|n| CompilationUnit::new(n.clone(), retyped[n].tree.clone()))
                    .collect();
                let retry = miniphase::run_units_isolated(
                    &self.front,
                    &phase_factory(self.opts.lint, self.opts.dce),
                    &plan,
                    self.opts.fusion,
                    &retry_inputs,
                    1,
                    self.opts.check,
                    &NoInstrumentation,
                    self.floors,
                    &controls,
                );
                self.floors = retry.end;
                for (name, run) in faulted.iter().zip(retry.runs) {
                    match run {
                        Ok(r) if r.errors.is_empty() => {
                            self.cache_artifact(name, &retyped[name], r)
                        }
                        Ok(r) => errors.extend(r.errors),
                        Err(fault) => {
                            // `faulted` is in unit order, so the first
                            // retry failure is the first failing unit.
                            self.poisoned = true;
                            return Err(fault.into());
                        }
                    }
                }
            }

            if !errors.is_empty() {
                self.poisoned = true;
                return Err(diagnostics_error(errors));
            }
        }
        let transforms = tr_start.elapsed();
        self.stats.compiles += 1;
        if full_rebuild {
            self.stats.full_rebuilds += 1;
        }
        self.stats.units_recompiled += dirty.len() as u64;
        self.stats.units_reused += (self.units.len() - dirty.len()) as u64;

        // ---- splice: merged table, stats, findings, program -------------
        let be_start = Instant::now();
        let mut exec = ExecStats::default();
        let mut failure_groups: Vec<Vec<CheckFailure>> = vec![Vec::new(); groups];
        let mut findings: Vec<Finding> = Vec::new();
        let mut table = self.front.symbols.splice_view();
        let mut out_units: Vec<CompilationUnit> = Vec::with_capacity(self.units.len());
        for (name, state) in &self.units {
            let a = state
                .cached
                .as_ref()
                .expect("every unit is cached after the dirty pass");
            for s in &a.stats_by_group {
                exec.merge(*s);
            }
            for (gi, fs) in a.failures_by_group.iter().enumerate() {
                failure_groups
                    .get_mut(gi)
                    .expect("group count matches the plan")
                    .extend(fs.iter().cloned());
            }
            // Each unit's findings are sorted and lead with its name, so
            // concatenating them in unit order is the canonical order.
            findings.extend(a.findings.iter().cloned());
            table.adopt(&a.delta);
            out_units.push(CompilationUnit::new(name.clone(), a.tree.clone()));
        }
        let failures: Vec<CheckFailure> = failure_groups.into_iter().flatten().collect();
        if self.opts.check && !failures.is_empty() {
            // The pipeline completed and the artifacts are valid — findings
            // are a verdict on the program, not on the session state.
            return Err(CompileError::Check(failures));
        }
        // The deltas hold what each unit's fork wrote at its periods; the
        // backend reads the assembled table at the final period.
        table.set_info_plan(info_plan);
        table.set_period(periods.last().copied().unwrap_or(0));
        let backend_ctx = Ctx::with_symbols(table, self.front.options);
        // Codegen: units cached by an earlier compile bring their code;
        // the others compile theirs against this table, once, and keep it.
        for state in self.units.values_mut() {
            let a = state.cached.as_mut().expect("every unit is cached");
            if a.code.is_none() {
                let c = compile_unit(&backend_ctx, &a.tree).map_err(CompileError::Codegen)?;
                a.approx_bytes += c.approx_bytes();
                a.code = Some(Arc::new(c));
            }
        }
        let units: Vec<(&UnitCode, Option<&RelocatedUnit>)> = self
            .units
            .values()
            .map(|state| {
                let a = state.cached.as_ref().expect("every unit is cached");
                let code = a.code.as_deref().expect("every unit has code");
                (code, a.relocated.as_ref())
            })
            .collect();
        let linked = link(&backend_ctx, &units).map_err(CompileError::Codegen)?;
        for (state, fresh) in self.units.values_mut().zip(linked.relocated) {
            let Some(fresh) = fresh else { continue };
            let a = state.cached.as_mut().expect("every unit is cached");
            let stale = a.relocated.as_ref().map_or(0, RelocatedUnit::approx_bytes);
            a.approx_bytes = a.approx_bytes - stale + fresh.approx_bytes();
            a.relocated = Some(fresh);
            self.stats.units_relocated += 1;
        }
        let program = linked.program;
        let backend = be_start.elapsed();
        // Enforce the artifact-cache byte budget only after the program is
        // assembled — an eviction costs the *next* compile a recompile,
        // never this one its splice sources.
        self.evict_to_budget();

        Ok(Compiled {
            program,
            ctx: backend_ctx,
            times: StageTimes {
                frontend,
                transforms,
                backend,
            },
            exec,
            check_failures: Vec::new(),
            findings,
            groups,
            effective_jobs,
            reused_units: self.units.len() - dirty.len(),
            recompiled_units: dirty.len(),
            retried_sequential,
            units: out_units,
        })
    }

    /// Caches one clean pipeline outcome as the unit's artifact (filtered
    /// delta, current compile stamp, modelled byte size), recording the
    /// symbol-id range from the unit's shard slot, and publishes it to the
    /// shared store when one is attached.
    fn cache_artifact(&mut self, name: &str, typed: &mini_front::TypedUnit, run: IsolatedUnitRun) {
        let deps = self.dep_map(name, typed);
        // The store key walks the whole typed tree; only a publish needs it.
        let key = self.shared.is_some().then(|| self.shared_key(name, typed));
        let stamp = self.compile_seq;
        let config_fp = self.config_fp;
        let state = self.units.get_mut(name).expect("dirty unit exists");
        let delta = run.delta;
        debug_assert!(
            delta_is_unit_local(
                &delta,
                &self.front.symbols,
                &state.top_syms,
                self.builtin_len
            ),
            "unit {name}'s pipeline mutated another unit's symbols"
        );
        let (slot_floor, slot_cap) = run.sym_slot;
        let sym_range = (slot_floor, delta.max_id_end().max(slot_floor));
        // Modelled artifact footprint: tree nodes dominate; 64 bytes is the
        // mean packed-node cost the allocator reports for the standard
        // pipeline's mix.
        let approx_bytes = u64::from(run.unit.tree.subtree_size()) * 64;
        state.cached = Some(UnitArtifact {
            source_hash: state.source_hash,
            deps,
            config_fp,
            tree: run.unit.tree,
            stats_by_group: run.stats_by_group,
            failures_by_group: run.failures_by_group,
            findings: sorted_findings(run.findings_by_group),
            delta,
            code: None,
            relocated: None,
            stamp,
            approx_bytes,
            sym_range,
        });
        // Publish to the shared store. Units whose delta chained overflow
        // shards are kept local — their id ranges interleave with sibling
        // slots, so a contiguous `[floor, hi)` range would overstate (and
        // falsely conflict with) their footprint. At 65k fresh symbols per
        // unit this is a theoretical path.
        if let (Some((store, tenant)), Some(key)) = (self.shared.clone(), key) {
            let overflowed = sym_range.1 > slot_floor.saturating_add(slot_cap);
            if !overflowed {
                let a = state.cached.as_ref().expect("cached just above");
                if store.publish(
                    &tenant,
                    key,
                    &a.tree,
                    &a.stats_by_group,
                    &a.failures_by_group,
                    std::slice::from_ref(&a.findings),
                    a.delta.clone(),
                    a.sym_range,
                ) {
                    self.stats.shared_publishes += 1;
                }
            }
        }
    }

    /// The shared-store content address of one just-retyped unit: config,
    /// source, dependency-interface fold, and the typed tree's raw
    /// symbol-id environment (see [`crate::store`] module docs).
    fn shared_key(&self, name: &str, typed: &mini_front::TypedUnit) -> ArtifactKey {
        let deps = self.dep_map(name, typed);
        let mut h = Fnv64::new();
        h.u64(deps.len() as u64);
        for (dep, hash) in &deps {
            h.str(dep);
            h.u64(*hash);
        }
        let state = self.units.get(name).expect("unit exists");
        ArtifactKey {
            config_fp: self.config_fp,
            source_hash: state.source_hash,
            deps_hash: h.finish(),
            binding_fp: binding_fingerprint(&typed.tree, &self.front.symbols),
        }
    }

    /// Oldest-first artifact eviction down to the
    /// [`crate::Budgets::cache_bytes`] budget: the victim is the live
    /// artifact with the smallest compile stamp (least recently
    /// *recompiled* — every live unit is spliced each compile, so reuse
    /// stamps carry no signal), unit name as the deterministic tiebreak.
    fn evict_to_budget(&mut self) {
        let Some(cap) = self.opts.budgets.cache_bytes else {
            return;
        };
        let mut total: u64 = self
            .units
            .values()
            .filter_map(|u| u.cached.as_ref())
            .map(|a| a.approx_bytes)
            .sum();
        while total > cap {
            let victim = self
                .units
                .iter()
                .filter_map(|(n, u)| u.cached.as_ref().map(|a| (a.stamp, n.clone())))
                .min();
            let Some((_, name)) = victim else {
                break;
            };
            let state = self.units.get_mut(&name).expect("victim exists");
            let bytes = state
                .cached
                .take()
                .map(|a| a.approx_bytes)
                .expect("victim was cached");
            total = total.saturating_sub(bytes);
            self.stats.evicted_units += 1;
            self.stats.evicted_bytes += bytes;
        }
    }

    /// True when `name`'s cached artifact is still valid under the current
    /// sources, options and dependency interfaces.
    fn artifact_valid(&self, name: &str) -> bool {
        let Some(state) = self.units.get(name) else {
            return false;
        };
        let Some(a) = &state.cached else {
            return false;
        };
        // A dep that was just re-typed has no artifact *yet* (it compiles
        // later this same pass); what gates reuse is purely whether its
        // exported interface still hashes the same.
        a.config_fp == self.config_fp
            && a.source_hash == state.source_hash
            && a.deps
                .iter()
                .all(|(dep, h)| self.units.get(dep).is_some_and(|d| d.iface_hash == *h))
    }

    /// Applies staged removals/updates to the unit states and the package
    /// scope (artifact invalidation happens afterwards, key-driven).
    fn apply_staged(&mut self) -> Result<(), CompileError> {
        let staged = std::mem::take(&mut self.staged);
        for (name, action) in staged {
            match action {
                Staged::Remove => {
                    if let Some(state) = self.units.remove(&name) {
                        self.retract_top_syms(&state.top_syms);
                        for s in &state.top_syms {
                            self.owner_unit.remove(s);
                        }
                    }
                }
                Staged::Update(src) => {
                    let source_hash = source_fingerprint(&src);
                    match self.units.get_mut(&name) {
                        Some(state) => {
                            state.source = src;
                            state.source_hash = source_hash;
                        }
                        None => {
                            self.units.insert(
                                name,
                                UnitState {
                                    source: src,
                                    source_hash,
                                    top_syms: Vec::new(),
                                    iface_hash: 0,
                                    cached: None,
                                },
                            );
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Re-runs the frontend for one unit in redefinition mode, maintaining
    /// the package scope, the symbol→unit map and the interface hash.
    fn retype_unit(
        &mut self,
        name: &str,
        retyped: &mut BTreeMap<String, mini_front::TypedUnit>,
    ) -> Result<(), CompileError> {
        let state = self.units.get(name).expect("unit exists");
        let prev: HashSet<SymbolId> = state.top_syms.iter().copied().collect();
        let src = state.source.clone();
        let typed = match mini_front::compile_source_reusing(&mut self.front, name, &src, &prev) {
            Ok(t) => t,
            Err(e) => {
                self.poisoned = true;
                return Err(CompileError::Parse(e));
            }
        };
        if self.front.has_errors() {
            self.poisoned = true;
            return Err(diagnostics_error(std::mem::take(&mut self.front.errors)));
        }
        // Retract definitions this generation dropped; refresh the maps.
        let fresh: HashSet<SymbolId> = typed.top_syms.iter().copied().collect();
        let stale: Vec<SymbolId> = prev.difference(&fresh).copied().collect();
        self.retract_top_syms(&stale);
        for s in &stale {
            self.owner_unit.remove(s);
        }
        for s in &typed.top_syms {
            self.owner_unit.insert(*s, name.to_owned());
        }
        let state = self.units.get_mut(name).expect("unit exists");
        state.top_syms = typed.top_syms.clone();
        state.iface_hash = export_interface_hash(&self.front.symbols, &state.top_syms);
        state.cached = None;
        retyped.insert(name.to_owned(), typed);
        Ok(())
    }

    /// The `(dep unit → interface hash)` snapshot for a just-compiled unit.
    fn dep_map(&self, name: &str, typed: &mini_front::TypedUnit) -> BTreeMap<String, u64> {
        let mut deps = BTreeMap::new();
        for s in &typed.pkg_refs {
            if let Some(dep) = self.owner_unit.get(s) {
                if dep != name {
                    if let Some(d) = self.units.get(dep) {
                        deps.insert(dep.clone(), d.iface_hash);
                    }
                }
            }
        }
        deps
    }

    /// Removes the given top-level symbols from the root package's scope.
    fn retract_top_syms(&mut self, syms: &[SymbolId]) {
        if syms.is_empty() {
            return;
        }
        let gone: HashSet<SymbolId> = syms.iter().copied().collect();
        let pkg = self.front.symbols.builtins().root_pkg;
        self.front.symbols.retain_decls(pkg, |d| !gone.contains(d));
    }

    /// Recovery after a failed compile: fresh frontend, every unit dirty,
    /// caches dropped (their symbol ids referenced the old frontend).
    fn rebuild_frontend(&mut self) {
        let mut front = Ctx::new();
        self.opts.configure_ctx(&mut front);
        self.builtin_len = front.symbols.len() as u32;
        self.front = front;
        self.owner_unit.clear();
        self.floors = FIRST_FLOORS;
        for state in self.units.values_mut() {
            state.top_syms.clear();
            state.iface_hash = 0;
            state.cached = None;
        }
        self.poisoned = false;
    }
}

/// One unit's per-group lint findings, flattened into canonical order.
fn sorted_findings(by_group: Vec<Vec<Finding>>) -> Vec<Finding> {
    let mut findings: Vec<Finding> = by_group.into_iter().flatten().collect();
    sort_findings(&mut findings);
    findings
}

/// Hashes the output-relevant compiler configuration: mode, checker, fusion
/// tunables, group-size cap and the resolved plan listing. `jobs` is
/// excluded (parallelism is output-invariant by the determinism guarantee).
fn config_fingerprint(opts: &CompilerOptions) -> u64 {
    let mut h = Fnv64::new();
    h.str(&format!(
        "{:?}|{}|{:?}|{:?}|{}|{}",
        opts.mode, opts.check, opts.fusion, opts.max_group_size, opts.lint, opts.dce
    ));
    if let Ok((phases, plan)) = standard_plan(opts) {
        h.str(&plan.describe(&phases));
        h.u64(plan.group_count() as u64);
    }
    h.finish()
}

/// True when a unit's pipeline delta mutated only symbols whose entries
/// stay valid for the unit's whole cache lifetime: the unit's own (the
/// frontend owner chain leads to one of its top-levels) and builtins (the
/// root package gains decls). Info transformers never write the table, so
/// a well-behaved pipeline touches nothing else; a mutation of another
/// unit's symbol would go stale — and poison table splicing — the moment
/// that unit is re-typed.
fn delta_is_unit_local(
    delta: &SymbolDelta,
    front: &SymbolTable,
    top_syms: &[SymbolId],
    builtin_len: u32,
) -> bool {
    let owned_by_unit = |id: SymbolId| -> bool {
        let mut cur = id;
        for _ in 0..64 {
            if top_syms.contains(&cur) {
                return true;
            }
            let owner = front.sym(cur).owner;
            if !owner.exists() {
                return false;
            }
            cur = owner;
        }
        false
    };
    delta
        .dirty_entries()
        .all(|(id, _)| id.index() < builtin_len || owned_by_unit(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_sources;
    use mini_backend::Vm;

    fn sources() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "a.ms",
                "def base(n: Int): Int = n * 2\ndef spare(n: Int): Int = n + 1\n",
            ),
            (
                "b.ms",
                "class Acc(seed: Int) {\n  var total: Int = seed\n  def add(k: Int): Int = {\n    total = total + base(k)\n    total\n  }\n}\n",
            ),
            (
                "z.ms",
                "def main(): Unit = {\n  val acc: Acc = new Acc(base(3))\n  println(acc.add(1) + acc.add(2))\n}\n",
            ),
        ]
    }

    fn run(compiled: &Compiled) -> Vec<String> {
        let mut vm = Vm::new(&compiled.program);
        vm.run_main().expect("runs");
        vm.out.clone()
    }

    fn scratch(sources: &[(&str, &str)]) -> Compiled {
        let mut sorted = sources.to_vec();
        sorted.sort_by_key(|(n, _)| n.to_string());
        compile_sources(&sorted, &CompilerOptions::fused()).expect("compiles")
    }

    #[test]
    fn cold_compile_matches_one_shot() {
        let srcs = sources();
        let mut session = CompileSession::new(CompilerOptions::fused());
        for (n, s) in &srcs {
            session.update(*n, *s);
        }
        let cold = session.compile().expect("compiles");
        let batch = scratch(&srcs);
        assert_eq!(run(&cold), run(&batch), "VM output matches one-shot");
        assert_eq!(cold.exec, batch.exec, "merged ExecStats match one-shot");
        assert_eq!(cold.recompiled_units, 3);
        assert_eq!(cold.reused_units, 0);
    }

    #[test]
    fn body_edit_recompiles_exactly_one_unit() {
        let mut session = CompileSession::new(CompilerOptions::fused());
        for (n, s) in &sources() {
            session.update(*n, *s);
        }
        session.compile().expect("cold compiles");
        // Body-only edit of `a.ms` (same signatures).
        let edited = "def base(n: Int): Int = n + n\ndef spare(n: Int): Int = n + 1\n";
        session.update("a.ms", edited);
        let warm = session.compile().expect("warm compiles");
        assert_eq!(warm.recompiled_units, 1, "body edit must not cascade");
        assert_eq!(warm.reused_units, 2);
        let batch = scratch(&[("a.ms", edited), sources()[1], sources()[2]]);
        assert_eq!(run(&warm), run(&batch));
        assert_eq!(warm.exec, batch.exec);
        let stats = session.cache_stats();
        assert_eq!(stats.invalidated_by_source, 4, "3 cold + 1 warm");
        assert_eq!(stats.invalidated_by_deps, 0);
    }

    #[test]
    fn signature_edit_cascades_to_dependents_only() {
        let mut session = CompileSession::new(CompilerOptions::fused());
        for (n, s) in &sources() {
            session.update(*n, *s);
        }
        session.compile().expect("cold compiles");
        // Signature edit: `spare` (uncalled by others) changes arity — the
        // unit interface hash moves, so everything depending on `a.ms`
        // recompiles; `b.ms` and `z.ms` both call `base`.
        let edited = "def base(n: Int): Int = n * 2\ndef spare(n: Int, m: Int): Int = n + m\n";
        session.update("a.ms", edited);
        let warm = session.compile().expect("warm compiles");
        assert_eq!(
            warm.recompiled_units, 3,
            "signature change cascades to dependents"
        );
        let batch = scratch(&[("a.ms", edited), sources()[1], sources()[2]]);
        assert_eq!(run(&warm), run(&batch));
        assert!(session.cache_stats().invalidated_by_deps >= 2);
    }

    #[test]
    fn no_edit_recompiles_nothing() {
        let mut session = CompileSession::new(CompilerOptions::fused());
        for (n, s) in &sources() {
            session.update(*n, *s);
        }
        let cold = session.compile().expect("cold");
        let idle = session.compile().expect("idle");
        assert_eq!(idle.recompiled_units, 0);
        assert_eq!(idle.reused_units, 3);
        assert_eq!(run(&cold), run(&idle));
        assert_eq!(cold.exec, idle.exec);
        // Re-staging identical sources is also a no-op.
        for (n, s) in &sources() {
            session.update(*n, *s);
        }
        let still = session.compile().expect("still idle");
        assert_eq!(still.recompiled_units, 0);
    }

    #[test]
    fn unit_removal_invalidates_dependents() {
        let mut session = CompileSession::new(CompilerOptions::fused());
        for (n, s) in &sources() {
            session.update(*n, *s);
        }
        session.compile().expect("cold");
        session.remove("z.ms");
        let shrunk = session.compile().expect("compiles without main unit");
        assert_eq!(shrunk.units.len(), 2);
        assert_eq!(
            shrunk.recompiled_units, 0,
            "remaining units did not depend on z.ms"
        );
        // Removing the dep breaks its dependents: the next compile errors
        // and the one after (with the dep restored) recovers.
        session.remove("a.ms");
        assert!(session.compile().is_err(), "b.ms lost `base`");
        let (a_name, a_src) = sources()[0];
        session.update(a_name, a_src);
        session.update("z.ms", sources()[2].1);
        let recovered = session.compile().expect("recovers after poison");
        let batch = scratch(&sources());
        assert_eq!(run(&recovered), run(&batch));
    }

    #[test]
    fn artifact_bytes_count_relocated_code_and_evicted_units_relocate() {
        let srcs = sources();
        let mut session = CompileSession::new(CompilerOptions::fused());
        for (n, s) in &srcs {
            session.update(*n, *s);
        }
        session.compile().expect("cold");
        for a in session.units.values().filter_map(|u| u.cached.as_ref()) {
            let code = a.code.as_ref().expect("linked units have code");
            let relocated = a.relocated.as_ref().expect("and relocated code");
            assert_eq!(
                a.approx_bytes,
                u64::from(a.tree.subtree_size()) * 64
                    + code.approx_bytes()
                    + relocated.approx_bytes()
            );
        }
        // A budget one byte short of everything evicts the oldest artifact
        // (`a.ms`, by the name tiebreak). The next compile recompiles it and
        // relocates it afresh; the other units' code is placed as it was.
        let total = session.memory_footprint().artifact_bytes;
        let opts = CompilerOptions::fused().with_budgets(crate::Budgets {
            cache_bytes: Some(total - 1),
            ..crate::Budgets::default()
        });
        let mut session = CompileSession::new(opts);
        for (n, s) in &srcs {
            session.update(*n, *s);
        }
        session.compile().expect("cold");
        assert_eq!(session.cache_stats().evicted_units, 1);
        assert!(session.units["a.ms"].cached.is_none());
        let warm = session.compile().expect("warm");
        assert_eq!(warm.recompiled_units, 1);
        assert_eq!(session.cache_stats().units_relocated, 4, "3 cold + a.ms");
        assert_eq!(run(&warm), run(&scratch(&srcs)));
    }

    #[test]
    fn failed_edit_poisons_then_recovers() {
        let mut session = CompileSession::new(CompilerOptions::fused());
        for (n, s) in &sources() {
            session.update(*n, *s);
        }
        session.compile().expect("cold");
        session.update("a.ms", "def base(n: Int): Int = unknownIdentifier\n");
        assert!(session.compile().is_err(), "type error surfaces");
        let (a_name, a_src) = sources()[0];
        session.update(a_name, a_src);
        let recovered = session.compile().expect("recovers");
        assert_eq!(run(&recovered), run(&scratch(&sources())));
        assert!(session.cache_stats().full_rebuilds >= 2, "cold + recovery");
    }
}
