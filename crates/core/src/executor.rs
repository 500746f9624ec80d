//! Traversal and pipeline execution (paper Listings 3 and 4).
//!
//! # The iterative fused walk
//!
//! [`run_phase_on_unit`] is the paper's `runPhase`: a uniform post-order
//! traversal that (pre-order) dispatches prepares, transforms children,
//! rebuilds the node through the reusing copier, and applies the phase's
//! transform chain. Since the traversal hot-path overhaul it is an
//! **explicit-stack iterative walk**, not a recursive one:
//!
//! * a frame stack holds one [`Frame`] per *open* node — a cursor over its
//!   children advanced through the positional [`mini_ir::Tree::child_at`]
//!   accessor — so arbitrarily deep trees (the 100k-deep `Block` regression
//!   corpus) walk in constant machine-stack space, and descending costs no
//!   refcount traffic (frames borrow the child handle inside the parent's
//!   own tree);
//! * a result stack accumulates transformed children; when a node's last
//!   child closes they are **moved** into the rebuilt kind through
//!   [`mini_ir::Ctx::rebuild_with_children`] — or, on the pointer-identity
//!   fast path (no child changed, tracked incrementally as children close),
//!   the original node is reused without constructing a kind at all;
//! * both stacks live in a [`TraversalScratch`] owned by the [`Pipeline`]
//!   and are reused across units *and* groups — zero per-unit allocation
//!   once the high-water mark is reached;
//! * the phase's `prepares()` / `transforms()` kind masks are virtual calls,
//!   so they are **hoisted**: queried once per `run_phase_on_unit` instead
//!   of once per node (the masks are declared statically by contract — see
//!   [`MiniPhase::transforms`]);
//! * the pipeline's own walk drives [`Fused`] groups **directly** (static
//!   dispatch into the fused chain and its precomputed per-kind member
//!   lists) rather than re-entering the generic `dyn MiniPhase` dispatch at
//!   every node;
//! * with [`FusionOptions::subtree_pruning`] on, the walk intersects the
//!   group's combined prepare/transform mask with each child's cached
//!   kinds-below summary ([`mini_ir::Tree::kinds_below`]) and skips whole
//!   subtrees no member can affect, counting what it skipped in
//!   [`ExecStats::nodes_pruned`] (off by default — see the flag's docs);
//! * when the copier's reuse optimization is off (`legacy` mode), shallow
//!   trees take [`walk_eager`] — the recursive eager copier — instead of
//!   paying the splice machinery for rebuilds that happen at every node
//!   anyway.
//!
//! The pre-overhaul recursive traversal is retained verbatim as
//! [`run_phase_on_unit_reference`] — it is the executable specification the
//! traversal-equivalence property tests compare against (byte-identical
//! output trees, identical [`ExecStats`]).
//!
//! [`Pipeline`] is Listing 3's `compileUnits` loop: one traversal per
//! *group* of fused Miniphases (or one per phase in Megaphase mode),
//! phase-major over the unit batch.

use crate::checker::{check_unit, CheckFailure, Finding};
use crate::faults::{self, FaultPlan};
use crate::fused::{Fused, FusionOptions, SubtreePruning};
use crate::mini::{dispatch_prepare, dispatch_transform, MiniPhase};
use crate::plan::PhasePlan;
use crate::unit::CompilationUnit;
use mini_ir::{Ctx, InfoPlan, NodeKindSet, Span, Tree, TreeRef};
use std::sync::Arc;
use std::time::Instant;

/// Synthetic instruction address of the shared traversal machinery.
pub const TRAVERSAL_CODE_ADDR: u64 = (1 << 40) + (1 << 30);

/// Always-on execution counters (feed the §3 throughput table).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tree-node visits performed by traversals.
    pub node_visits: u64,
    /// Tree nodes *not* visited because subtree kind-summary pruning skipped
    /// their whole subtree (priced from the cached
    /// [`mini_ir::Tree::subtree_size`]). Always 0 unless
    /// [`FusionOptions::subtree_pruning`] is on; with it on,
    /// `node_visits + nodes_pruned` equals the unpruned run's `node_visits`
    /// — exactly, because subtrees whose cached size saturated at
    /// [`mini_ir::Tree::SIZE_SATURATED`] are visited rather than pruned
    /// (their true count is unknown, so pricing them would corrupt this
    /// invariant).
    pub nodes_pruned: u64,
    /// Kind-specific transform dispatches (per node, per group).
    pub transform_calls: u64,
    /// Member-level transform invocations inside fused blocks (the true
    /// per-phase work count; equals `transform_calls` for single-phase
    /// groups).
    pub member_transforms: u64,
    /// Prepare invocations.
    pub prepare_calls: u64,
    /// Traversals (unit × group runs).
    pub traversals: u64,
    /// Tree nodes removed by eliminating transforms (currently the opt-in
    /// DCE phase), priced from the cached [`mini_ir::Tree::subtree_size`]
    /// delta of each rewrite; saturated subtrees are left untouched by the
    /// eliminators, so the count is exact. 0 on every default pipeline.
    pub nodes_eliminated: u64,
}

impl ExecStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: ExecStats) {
        self.node_visits += other.node_visits;
        self.nodes_pruned += other.nodes_pruned;
        self.transform_calls += other.transform_calls;
        self.member_transforms += other.member_transforms;
        self.prepare_calls += other.prepare_calls;
        self.traversals += other.traversals;
        self.nodes_eliminated += other.nodes_eliminated;
    }
}

/// How the walk reaches one phase's hooks. The generic executor is
/// instantiated once for `&mut dyn MiniPhase` (public API, arbitrary
/// phases) and once for [`Fused`] (the pipeline's hot path, static dispatch
/// into the fused chain).
trait PhaseDriver {
    /// The prepare mask, queried once per traversal.
    fn prepares_mask(&self) -> NodeKindSet;
    /// The transform mask, queried once per traversal.
    fn transforms_mask(&self) -> NodeKindSet;
    /// Kind-dispatched prepare; true if state was pushed.
    fn prepare(&mut self, ctx: &mut Ctx, t: &TreeRef) -> bool;
    /// Kind-dispatched transform.
    fn transform(&mut self, ctx: &mut Ctx, t: &TreeRef) -> TreeRef;
    /// Balanced completion for a pushed prepare.
    fn finish(&mut self, ctx: &mut Ctx, t: &TreeRef);
}

/// Generic driver: any Miniphase through the virtual per-kind dispatch.
struct DynDriver<'a>(&'a mut dyn MiniPhase);

impl PhaseDriver for DynDriver<'_> {
    fn prepares_mask(&self) -> NodeKindSet {
        self.0.prepares()
    }
    fn transforms_mask(&self) -> NodeKindSet {
        self.0.transforms()
    }
    fn prepare(&mut self, ctx: &mut Ctx, t: &TreeRef) -> bool {
        dispatch_prepare(self.0, ctx, t)
    }
    fn transform(&mut self, ctx: &mut Ctx, t: &TreeRef) -> TreeRef {
        dispatch_transform(self.0, ctx, t)
    }
    fn finish(&mut self, ctx: &mut Ctx, t: &TreeRef) {
        self.0.finish_prepared(ctx, t);
    }
}

/// Fused-block driver: statically dispatched into the fused transform chain
/// and prepare fan-out, which consult the block's precomputed per-kind
/// member lists directly. No per-node virtual dispatch, no per-node kind
/// match to re-enter the chain.
struct FusedDriver<'a>(&'a mut Fused);

impl PhaseDriver for FusedDriver<'_> {
    fn prepares_mask(&self) -> NodeKindSet {
        self.0.prepares()
    }
    fn transforms_mask(&self) -> NodeKindSet {
        self.0.transforms()
    }
    fn prepare(&mut self, ctx: &mut Ctx, t: &TreeRef) -> bool {
        self.0.fan_prepare(ctx, t)
    }
    fn transform(&mut self, ctx: &mut Ctx, t: &TreeRef) -> TreeRef {
        self.0.chain(ctx, t)
    }
    fn finish(&mut self, ctx: &mut Ctx, t: &TreeRef) {
        self.0.finish_prepared_direct(ctx, t);
    }
}

/// One open node of the explicit-stack walk: a borrow of the node's shared
/// handle, a cursor over its children, and where its transformed children
/// start on the result stack.
///
/// `node` is a raw pointer rather than a `TreeRef` clone so that descending
/// does **zero** refcount traffic — the recursive walk it replaces borrowed
/// children for free off the machine stack, and matching that cost is what
/// makes the iterative walk competitive. Safety rests on three invariants,
/// all local to [`walk`]:
///
/// 1. every `node` pointer aims at the `TreeRef` handle *owned by the
///    parent node's `TreeKind`* (or at the caller-held root), which lives on
///    the heap behind the parent's own `Rc` — never at scratch storage that
///    could reallocate;
/// 2. frames close strictly LIFO, so a child frame never outlives the
///    parent frame whose tree keeps its handle alive;
/// 3. trees are immutable — no transform mutates an existing node's kind,
///    so the pointed-at handle is never moved or freed mid-walk.
struct Frame {
    node: *const TreeRef,
    results_base: u32,
    next_child: u32,
    pushed: bool,
    /// Whether any completed child came back pointer-distinct from the
    /// original — maintained by the children as they close, so rebuilding
    /// needs no second comparison pass.
    children_changed: bool,
}

/// Reusable walk storage. Owned by [`Pipeline`] so batch compilation incurs
/// no per-unit (or per-group) stack allocation; `run_phase_on_unit` creates
/// a transient one for standalone calls.
#[derive(Default)]
pub struct TraversalScratch {
    frames: Vec<Frame>,
    results: Vec<TreeRef>,
}

impl TraversalScratch {
    /// An empty scratch.
    pub fn new() -> TraversalScratch {
        TraversalScratch::default()
    }
}

/// The `Auto` pruning decision for one traversal: prune only when the
/// group's combined mask is *sparse* relative to the kinds the unit
/// actually contains — the mask may cover at most a third of the kinds in
/// the unit root's cached summary. Dense standard-pipeline groups blanket
/// most interior kinds (pruning there is overhead with nothing to skip);
/// sparse plans keep the win. Pure function of `(mask, root summary)`, so
/// the decision is identical across executors and `jobs` values.
fn auto_prune_enabled(relevant: NodeKindSet, root: &Tree) -> bool {
    let present = root.kinds_below();
    relevant.intersect(present).len() * 3 <= present.len()
}

/// Resolves a [`SubtreePruning`] policy into this traversal's effective
/// prune mask (`None` = walk everything). Shared by the hoisted [`Masks`]
/// and the reference executor so the two can never disagree on `Auto`.
fn prune_mask_for(
    policy: SubtreePruning,
    relevant: NodeKindSet,
    root: &Tree,
) -> Option<NodeKindSet> {
    match policy {
        SubtreePruning::Off => None,
        SubtreePruning::On => Some(relevant),
        SubtreePruning::Auto => auto_prune_enabled(relevant, root).then_some(relevant),
    }
}

/// The per-traversal mask snapshot shared by the iterative and eager walks:
/// one virtual query per traversal instead of two per node.
struct Masks {
    transforms: NodeKindSet,
    /// Effective prepare mask after the `prepare_always` ablation is applied.
    prepares: NodeKindSet,
    /// `Some(transforms ∪ prepares)` when subtree pruning is enabled for
    /// this traversal (always for `On`, per the sparseness heuristic for
    /// `Auto`): a subtree whose kinds-below summary does not intersect this
    /// can receive no hook from any member of the group, so the walk hands
    /// it back untouched.
    prune: Option<NodeKindSet>,
}

impl Masks {
    fn hoist<D: PhaseDriver>(driver: &D, opts: &FusionOptions, root: &Tree) -> Masks {
        let transforms = driver.transforms_mask();
        let raw_prepares = driver.prepares_mask();
        let prepares = if opts.prepare_always && !raw_prepares.is_empty() {
            NodeKindSet::ALL
        } else if opts.prepare_always {
            NodeKindSet::EMPTY
        } else {
            raw_prepares
        };
        let prune = prune_mask_for(opts.subtree_pruning, transforms.union(prepares), root);
        Masks {
            transforms,
            prepares,
            prune,
        }
    }

    /// True if pruning is on and `t`'s subtree contains no kind the group
    /// prepares or transforms.
    ///
    /// A subtree whose cached [`mini_ir::Tree::subtree_size`] saturated at
    /// [`Tree::SIZE_SATURATED`] (pathological sharing can push the
    /// structural count past the header's 24-bit size lane) is **never**
    /// pruned: its true size is unknown, so skipping it would credit
    /// `nodes_pruned` with a wrong count and silently break the
    /// `node_visits + nodes_pruned == unpruned node_visits` invariant.
    /// The walk visits such a node instead and prunes its (exactly-sized)
    /// descendants as usual.
    #[inline]
    fn skips(&self, t: &TreeRef) -> bool {
        match self.prune {
            Some(relevant) => {
                !t.kinds_below().intersects(relevant) && t.subtree_size() != Tree::SIZE_SATURATED
            }
            None => false,
        }
    }
}

/// Per-node visit accounting shared by [`walk`] and [`walk_eager`]: the
/// visit counter and the memory-trace model (node read, defined/referenced
/// symbol read, traversal instruction fetch). One definition keeps the two
/// production walks bit-identical in [`ExecStats`] and trace output — the
/// equivalence proptests pin both against the (intentionally standalone)
/// recursive reference executor.
#[inline]
fn visit_node(ctx: &mut Ctx, t: &TreeRef, stats: &mut ExecStats) {
    stats.node_visits += 1;
    ctx.trace_read(t);
    // Visiting a node also touches the symbol it defines or references —
    // symbols and types are the other "major internal data structures" (§2).
    if ctx.access.is_some() {
        let s = t.def_sym();
        let s = if s.exists() { s } else { t.ref_sym() };
        if s.exists() {
            ctx.trace_read_at(Ctx::symbol_addr(s), 112);
        }
    }
    ctx.trace_exec(TRAVERSAL_CODE_ADDR, 224);
}

/// The iterative post-order walk shared by every execution mode: one frame
/// per *open* node (constant machine-stack space regardless of tree depth),
/// children advanced through the positional [`mini_ir::Tree::child_at`]
/// cursor, completed children accumulated on a result stack and spliced
/// back by moving them into the rebuilt node.
fn walk<D: PhaseDriver>(
    driver: &mut D,
    opts: &FusionOptions,
    ctx: &mut Ctx,
    root: &TreeRef,
    stats: &mut ExecStats,
    scratch: &mut TraversalScratch,
) -> TreeRef {
    // Hoisted per-traversal: one virtual mask query instead of two per node.
    let masks = Masks::hoist(driver, opts, root);
    if masks.skips(root) {
        // Nothing in the whole unit interests this group.
        stats.nodes_pruned += u64::from(root.subtree_size());
        return root.clone();
    }
    if !ctx.options.copier_reuse && root.depth() <= EAGER_WALK_DEPTH_LIMIT {
        // No-reuse mode rebuilds every node, so the splice machinery below
        // (frames, result stack, children-changed tracking) is pure
        // overhead; build eagerly through the recursive copier instead.
        return walk_eager(driver, opts, ctx, root, stats, &masks);
    }
    let Masks {
        transforms,
        prepares,
        ..
    } = masks;

    // A panic in a phase hook unwinds out of `walk` leaving stale frames
    // behind — and stale frames hold raw pointers into trees that may since
    // have been dropped. Clearing (not just asserting emptiness) makes a
    // reused scratch safe even after a caught unwind.
    scratch.frames.clear();
    scratch.results.clear();
    let TraversalScratch { frames, results } = scratch;

    // Pre-order arrival: visit accounting, memory traces, prepare dispatch,
    // then a new open frame. `t` must satisfy the `Frame::node` invariants.
    macro_rules! open_frame {
        ($t:expr) => {{
            let t: &TreeRef = $t;
            visit_node(ctx, t, stats);

            let pushed = if prepares.contains(t.node_kind()) {
                stats.prepare_calls += 1;
                driver.prepare(ctx, t)
            } else {
                false
            };
            frames.push(Frame {
                node: t as *const TreeRef,
                results_base: results.len() as u32,
                next_child: 0,
                pushed,
                children_changed: false,
            });
        }};
    }

    open_frame!(root);
    while let Some(top) = frames.last_mut() {
        // SAFETY: `top.node` satisfies the `Frame::node` invariants — it
        // points at the root handle (caller-borrowed for the whole call) or
        // at a handle inside an ancestor frame's live, immutable tree.
        let node: &TreeRef = unsafe { &*top.node };
        if let Some(c) = node.child_at(top.next_child as usize) {
            // Descend into the next unvisited child. `c` borrows from
            // `node`'s kind, upholding invariant 1 for the child frame.
            top.next_child += 1;
            if masks.skips(c) {
                // Subtree pruning: no member hook can fire below `c`, so it
                // passes through unchanged — no frame, no visits, and the
                // parent's children-changed tracking stays untouched.
                stats.nodes_pruned += u64::from(c.subtree_size());
                results.push(c.clone());
                continue;
            }
            open_frame!(c);
            continue;
        }
        // All children done: rebuild, transform, balance prepares.
        let Frame {
            results_base,
            pushed,
            children_changed,
            ..
        } = frames.pop().expect("loop condition guarantees a frame");
        let base = results_base as usize;
        let rebuilt = if children_changed || !ctx.options.copier_reuse {
            ctx.rebuild_with_children(node, true, &mut results.drain(base..))
        } else {
            results.truncate(base);
            node.clone()
        };
        let transformed = if !opts.identity_skip || transforms.contains(rebuilt.node_kind()) {
            stats.transform_calls += 1;
            driver.transform(ctx, &rebuilt)
        } else {
            rebuilt
        };
        if pushed {
            driver.finish(ctx, &transformed);
        }
        if let Some(parent) = frames.last_mut() {
            parent.children_changed |= !mini_ir::TreeRef::ptr_eq(&transformed, node);
        }
        results.push(transformed);
    }
    results.pop().expect("walk produces exactly one root")
}

/// Depth bound for the eager no-reuse walk's direct recursion. Trees deeper
/// than this stay on the iterative splice path (constant machine-stack
/// space); ordinary corpus trees are a few dozen levels deep.
const EAGER_WALK_DEPTH_LIMIT: u32 = 512;

/// The eager-build walk used when [`mini_ir::IrOptions::copier_reuse`] is
/// off (`legacy` mode): every node rebuilds, so the iterative walk's
/// drain-and-splice machinery only adds overhead over the old recursive
/// copier (the ~8% legacy-mode gap recorded after the traversal overhaul).
/// This path recurses through [`mini_ir::Ctx::map_children`] — the eager
/// copier — with the same hoisted masks, pruning gate, accounting and hook
/// order as the iterative walk, so it produces byte-identical trees and
/// identical [`ExecStats`]; only trees deeper than
/// [`EAGER_WALK_DEPTH_LIMIT`] fall back to the splice walk.
fn walk_eager<D: PhaseDriver>(
    driver: &mut D,
    opts: &FusionOptions,
    ctx: &mut Ctx,
    t: &TreeRef,
    stats: &mut ExecStats,
    masks: &Masks,
) -> TreeRef {
    visit_node(ctx, t, stats);

    let pushed = if masks.prepares.contains(t.node_kind()) {
        stats.prepare_calls += 1;
        driver.prepare(ctx, t)
    } else {
        false
    };
    let rebuilt = ctx.map_children(t, &mut |ctx, c| {
        if masks.skips(c) {
            stats.nodes_pruned += u64::from(c.subtree_size());
            c.clone()
        } else {
            walk_eager(driver, opts, ctx, c, stats, masks)
        }
    });
    let transformed = if !opts.identity_skip || masks.transforms.contains(rebuilt.node_kind()) {
        stats.transform_calls += 1;
        driver.transform(ctx, &rebuilt)
    } else {
        rebuilt
    };
    if pushed {
        driver.finish(ctx, &transformed);
    }
    transformed
}

/// Runs one Miniphase (possibly a [`Fused`] block) over one compilation
/// unit: `prepare_unit`, the iterative post-order traversal, then
/// `transform_unit`.
///
/// Installs no info transformers and leaves the symbol table's period as it
/// is; [`Pipeline`] is the executor that advances periods.
pub fn run_phase_on_unit(
    phase: &mut dyn MiniPhase,
    opts: &FusionOptions,
    ctx: &mut Ctx,
    unit: &CompilationUnit,
    stats: &mut ExecStats,
) -> CompilationUnit {
    let mut scratch = TraversalScratch::new();
    stats.traversals += 1;
    phase.prepare_unit(ctx, &unit.tree);
    let tree = walk(
        &mut DynDriver(phase),
        opts,
        ctx,
        &unit.tree,
        stats,
        &mut scratch,
    );
    let tree = phase.transform_unit(ctx, tree);
    CompilationUnit {
        name: unit.name.clone(),
        tree,
    }
}

/// The reference executor's pruning mask: `None` when pruning is disabled
/// for this traversal, otherwise the same `transforms ∪ effective-prepares`
/// combination the hoisted [`Masks`] computes. Resolved **once per unit
/// traversal** against the unit root (the `Auto` policy's sparseness test
/// needs the root's kind summary) and threaded through the recursion.
fn reference_prune_mask(
    phase: &dyn MiniPhase,
    opts: &FusionOptions,
    root: &Tree,
) -> Option<NodeKindSet> {
    if !opts.subtree_pruning.may_prune() {
        return None;
    }
    let raw_prepares = phase.prepares();
    let prepares = if opts.prepare_always && !raw_prepares.is_empty() {
        NodeKindSet::ALL
    } else if opts.prepare_always {
        NodeKindSet::EMPTY
    } else {
        raw_prepares
    };
    prune_mask_for(
        opts.subtree_pruning,
        phase.transforms().union(prepares),
        root,
    )
}

fn traverse_reference(
    phase: &mut dyn MiniPhase,
    opts: &FusionOptions,
    ctx: &mut Ctx,
    t: &TreeRef,
    stats: &mut ExecStats,
    prune: Option<NodeKindSet>,
) -> TreeRef {
    stats.node_visits += 1;
    ctx.trace_read(t);
    if ctx.access.is_some() {
        let s = t.def_sym();
        let s = if s.exists() { s } else { t.ref_sym() };
        if s.exists() {
            ctx.trace_read_at(Ctx::symbol_addr(s), 112);
        }
    }
    ctx.trace_exec(TRAVERSAL_CODE_ADDR, 224);

    let kind = t.node_kind();
    let phase_prepares = phase.prepares();
    let eligible = if opts.prepare_always {
        !phase_prepares.is_empty()
    } else {
        phase_prepares.contains(kind)
    };
    let pushed = if eligible {
        stats.prepare_calls += 1;
        dispatch_prepare(phase, ctx, t)
    } else {
        false
    };

    let rebuilt = ctx.map_children(t, &mut |ctx, c| {
        if let Some(relevant) = prune {
            // A saturated subtree size means the true count is unknown —
            // visit instead of pruning (same rule as `Masks::skips`).
            if !c.kinds_below().intersects(relevant) && c.subtree_size() != Tree::SIZE_SATURATED {
                stats.nodes_pruned += u64::from(c.subtree_size());
                return c.clone();
            }
        }
        traverse_reference(&mut *phase, opts, ctx, c, stats, prune)
    });

    let out_kind = rebuilt.node_kind();
    let transformed = if !opts.identity_skip || phase.transforms().contains(out_kind) {
        stats.transform_calls += 1;
        dispatch_transform(phase, ctx, &rebuilt)
    } else {
        rebuilt
    };

    if pushed {
        phase.finish_prepared(ctx, &transformed);
    }
    transformed
}

/// The pre-overhaul **recursive** traversal, retained as the executable
/// specification of `runPhase`. Produces byte-identical trees and identical
/// [`ExecStats`] to [`run_phase_on_unit`] (a property test asserts this over
/// generated workloads) but recurses per tree level, so deep inputs can
/// overflow the stack — never call it on untrusted tree shapes.
pub fn run_phase_on_unit_reference(
    phase: &mut dyn MiniPhase,
    opts: &FusionOptions,
    ctx: &mut Ctx,
    unit: &CompilationUnit,
    stats: &mut ExecStats,
) -> CompilationUnit {
    stats.traversals += 1;
    phase.prepare_unit(ctx, &unit.tree);
    let prune = reference_prune_mask(phase, opts, &unit.tree);
    let tree = match prune {
        Some(relevant)
            if !unit.tree.kinds_below().intersects(relevant)
                && unit.tree.subtree_size() != Tree::SIZE_SATURATED =>
        {
            stats.nodes_pruned += u64::from(unit.tree.subtree_size());
            unit.tree.clone()
        }
        _ => traverse_reference(phase, opts, ctx, &unit.tree, stats, prune),
    };
    let tree = phase.transform_unit(ctx, tree);
    CompilationUnit {
        name: unit.name.clone(),
        tree,
    }
}

/// The info transformers of `phases` in the order `plan` runs them, and the
/// period each group of `plan` runs at: group `g` sees every transformer
/// of groups `0..=g` applied (see [`mini_ir::SymbolTable::info_at`]). The
/// last entry is the final period, at which the backend reads the table.
pub fn info_periods(phases: &[Box<dyn MiniPhase>], plan: &PhasePlan) -> (Arc<InfoPlan>, Vec<u8>) {
    let mut transforms = Vec::new();
    let mut periods = Vec::with_capacity(plan.groups.len());
    for group in &plan.groups {
        for &i in group {
            if let Some(f) = phases[i].info_transformer() {
                transforms.push((phases[i].name(), f));
            }
        }
        periods.push(transforms.len() as u8);
    }
    (Arc::new(InfoPlan::new(transforms)), periods)
}

/// A ready-to-run tree-transformation pipeline: the phases grouped per a
/// [`PhasePlan`], each group fused into a single traversal.
pub struct Pipeline {
    groups: Vec<Fused>,
    /// The phases' info transformers, installed on the symbol table of
    /// every context the pipeline runs on.
    info_plan: Arc<InfoPlan>,
    /// Per group: the table period it runs at.
    group_periods: Vec<u8>,
    opts: FusionOptions,
    /// Dynamic postcondition checking between groups (§6.3). Roughly a 1.5×
    /// slowdown in the paper; intended for test runs.
    pub check: bool,
    /// Execution counters.
    pub stats: ExecStats,
    /// Failures recorded by the checker, if enabled.
    pub failures: Vec<CheckFailure>,
    /// The same checker findings, split per phase group (one entry per
    /// group, unit order within it). Populated by
    /// [`Pipeline::run_units_recorded`] when [`Pipeline::check`] is on; the
    /// parallel executor re-sequences these across units so the merged
    /// failure list is byte-identical to a sequential run.
    failures_by_group: Vec<Vec<CheckFailure>>,
    /// Static-analysis findings harvested from every phase's
    /// [`MiniPhase::take_findings`] after each unit × group traversal,
    /// stamped with the unit name. Empty unless the plan contains analysis
    /// (prepare-only lint) phases.
    pub findings: Vec<Finding>,
    /// The same findings split per phase group (unit order within each
    /// group), mirroring `failures_by_group` so the parallel executor can
    /// re-sequence them across units.
    findings_by_group: Vec<Vec<Finding>>,
    /// Deterministic fault injection ([`crate::faults`]): when set,
    /// [`Pipeline::run_units_recorded`] offers every `(unit, group)` entry
    /// to the plan before running it. `None` (the default) costs one
    /// branch per traversal.
    pub faults: Option<Arc<FaultPlan>>,
    /// Global batch index of this pipeline's first unit. The per-unit
    /// executor sets it to the unit's index so fault targeting and panic
    /// attribution use batch-wide unit indexes, not pipeline-local ones.
    pub unit_index_base: usize,
    /// Optional wall-clock deadline, checked at **group boundaries** (the
    /// natural preemption points of the phase-major loop — §3's Listing 3
    /// structure). A boundary past the deadline reports a `"budget"`-phase
    /// diagnostic and skips all remaining groups instead of starting
    /// another full corpus pass.
    pub deadline: Option<Instant>,
    /// Walk stacks reused across every unit and group this pipeline runs.
    scratch: TraversalScratch,
}

impl Pipeline {
    /// Builds a pipeline from `phases` grouped according to `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover exactly the given phases.
    pub fn new(phases: Vec<Box<dyn MiniPhase>>, plan: &PhasePlan, opts: FusionOptions) -> Pipeline {
        assert_eq!(
            plan.phase_count(),
            phases.len(),
            "plan does not match phase list"
        );
        let (info_plan, group_periods) = info_periods(&phases, plan);
        let mut slots: Vec<Option<Box<dyn MiniPhase>>> = phases.into_iter().map(Some).collect();
        let mut groups = Vec::with_capacity(plan.groups.len());
        for g in &plan.groups {
            let members: Vec<Box<dyn MiniPhase>> = g
                .iter()
                .map(|&i| slots[i].take().expect("plan uses each phase once"))
                .collect();
            groups.push(Fused::combine(members, opts));
        }
        Pipeline {
            groups,
            info_plan,
            group_periods,
            opts,
            check: false,
            stats: ExecStats::default(),
            failures: Vec::new(),
            failures_by_group: Vec::new(),
            findings: Vec::new(),
            findings_by_group: Vec::new(),
            faults: None,
            unit_index_base: 0,
            deadline: None,
            scratch: TraversalScratch::new(),
        }
    }

    /// Takes the per-group checker findings recorded by
    /// [`Pipeline::run_units_recorded`] (empty unless [`Pipeline::check`]
    /// was on). Group-major; unit order within each group.
    pub fn take_failures_by_group(&mut self) -> Vec<Vec<CheckFailure>> {
        std::mem::take(&mut self.failures_by_group)
    }

    /// Takes the per-group analysis findings harvested by the batch entry
    /// points (one entry per group that ran, unit order within it).
    pub fn take_findings_by_group(&mut self) -> Vec<Vec<Finding>> {
        std::mem::take(&mut self.findings_by_group)
    }

    /// Drains group `gi`'s accumulated findings, stamping each with the
    /// unit it was harvested over. Phases cannot know the unit name (they
    /// only see trees), so the executor owns the attribution.
    fn harvest_findings(&mut self, gi: usize, unit: &str) -> Vec<Finding> {
        let mut found = self.groups[gi].take_findings();
        for f in &mut found {
            f.unit = unit.to_owned();
        }
        found
    }

    /// Number of fused groups (= tree traversals per unit).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The fused groups.
    pub fn groups(&self) -> &[Fused] {
        &self.groups
    }

    /// Moves `ctx`'s symbol table to the period group `gi` runs at,
    /// installing this pipeline's info transformers first if needed.
    fn enter_group(&self, ctx: &mut Ctx, gi: usize) {
        if !Arc::ptr_eq(ctx.symbols.info_plan(), &self.info_plan) {
            ctx.symbols.set_info_plan(Arc::clone(&self.info_plan));
        }
        ctx.symbols.set_period(self.group_periods[gi]);
    }

    /// Runs group `gi` over one unit through the statically dispatched fused
    /// driver, reusing the pipeline's scratch stacks.
    fn run_group_on_unit(
        &mut self,
        gi: usize,
        ctx: &mut Ctx,
        unit: &CompilationUnit,
        stats: &mut ExecStats,
    ) -> CompilationUnit {
        let opts = self.opts;
        self.enter_group(ctx, gi);
        let Pipeline {
            groups, scratch, ..
        } = self;
        let group = &mut groups[gi];
        stats.traversals += 1;
        group.prepare_unit(ctx, &unit.tree);
        let tree = walk(
            &mut FusedDriver(group),
            &opts,
            ctx,
            &unit.tree,
            stats,
            scratch,
        );
        let tree = group.transform_unit(ctx, tree);
        CompilationUnit {
            name: unit.name.clone(),
            tree,
        }
    }

    /// Runs the whole pipeline over one unit. Convenient for tests; note
    /// that batch compilation ([`Pipeline::run_units`]) is *phase-major*
    /// like the paper's Listing 3, which this single-unit path cannot
    /// reproduce. With [`Pipeline::check`] enabled, the tree checker runs
    /// after every group, replaying the postconditions of *all* phases run
    /// so far.
    pub fn run_unit(&mut self, ctx: &mut Ctx, unit: CompilationUnit) -> CompilationUnit {
        let mut cur = unit;
        for gi in 0..self.groups.len() {
            let mut stats = ExecStats::default();
            cur = self.run_group_on_unit(gi, ctx, &cur, &mut stats);
            stats.member_transforms = self.groups[gi].take_member_transforms();
            stats.nodes_eliminated = self.groups[gi].take_eliminated();
            let found = self.harvest_findings(gi, &cur.name);
            self.findings.extend(found);
            self.stats.merge(stats);
            if self.check {
                let prev: Vec<&dyn MiniPhase> = self.groups[..=gi]
                    .iter()
                    .flat_map(|g| g.members().iter().map(|m| m.as_ref() as &dyn MiniPhase))
                    .collect();
                self.failures.extend(check_unit(&prev, ctx, &cur));
            }
        }
        cur
    }

    /// Runs the pipeline over a batch of units — phase-major exactly like
    /// [`Pipeline::run_units`] — but through the retained **recursive
    /// reference** traversal ([`run_phase_on_unit_reference`]) instead of
    /// the iterative walk. Exists for the traversal-equivalence property
    /// tests, which assert byte-identical trees and identical stats between
    /// the two executors; production paths use [`Pipeline::run_units`].
    pub fn run_units_reference(
        &mut self,
        ctx: &mut Ctx,
        units: Vec<CompilationUnit>,
    ) -> Vec<CompilationUnit> {
        let mut units = units;
        let mut fresh_scopes = vec![0u32; units.len()];
        for gi in 0..self.groups.len() {
            let mut next = Vec::with_capacity(units.len());
            let mut found_row = Vec::new();
            for (ui, u) in units.into_iter().enumerate() {
                let mut stats = ExecStats::default();
                self.enter_group(ctx, gi);
                ctx.swap_fresh_scope(&mut fresh_scopes[ui]);
                let out = run_phase_on_unit_reference(
                    &mut self.groups[gi],
                    &self.opts,
                    ctx,
                    &u,
                    &mut stats,
                );
                ctx.swap_fresh_scope(&mut fresh_scopes[ui]);
                drop(u);
                stats.member_transforms = self.groups[gi].take_member_transforms();
                stats.nodes_eliminated = self.groups[gi].take_eliminated();
                found_row.extend(self.harvest_findings(gi, &out.name));
                self.stats.merge(stats);
                next.push(out);
            }
            units = next;
            self.findings.extend(found_row.iter().cloned());
            self.findings_by_group.push(found_row);
        }
        units
    }

    /// Runs the pipeline over a batch of units — faithfully *phase-major*,
    /// as in the paper's Listing 3: each group of fused phases processes
    /// every compilation unit before the next group starts. This ordering
    /// is what makes the Megaphase baseline's intermediate trees long-lived
    /// (they survive a whole corpus pass), and is therefore essential to
    /// the GC and cache behaviour the evaluation measures.
    pub fn run_units(
        &mut self,
        ctx: &mut Ctx,
        units: Vec<CompilationUnit>,
    ) -> Vec<CompilationUnit> {
        self.run_units_recorded(ctx, units).0
    }

    /// [`Pipeline::run_units`], additionally returning the per-traversal
    /// counters as a `grid[group][unit]` of [`ExecStats`] (each entry is one
    /// unit × group traversal, `member_transforms` included). The parallel
    /// executor uses the grid to merge worker counters deterministically in
    /// unit order at group boundaries; `self.stats` accumulates the same
    /// totals as the plain entry point.
    ///
    /// The fresh-name counter is scoped per unit (see
    /// [`mini_ir::Ctx::swap_fresh_scope`]): a unit's synthetic names depend
    /// only on its own rewrite history, which is what keeps this pipeline
    /// byte-identical whether units run sequentially or on worker threads.
    pub fn run_units_recorded(
        &mut self,
        ctx: &mut Ctx,
        units: Vec<CompilationUnit>,
    ) -> (Vec<CompilationUnit>, Vec<Vec<ExecStats>>) {
        let mut units = units;
        let mut fresh_scopes = vec![0u32; units.len()];
        let mut grid: Vec<Vec<ExecStats>> = Vec::with_capacity(self.groups.len());
        let base = self.unit_index_base;
        let mut found_row: Vec<Finding> = Vec::new();
        for gi in 0..self.groups.len() {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    ctx.error(
                        Span::SYNTHETIC,
                        "budget",
                        format!(
                            "compile deadline exceeded at group boundary: \
                             {gi} of {} groups completed",
                            self.groups.len()
                        ),
                    );
                    break;
                }
            }
            let mut next = Vec::with_capacity(units.len());
            let mut row = Vec::with_capacity(units.len());
            let total = fresh_scopes.len();
            let mut expired = false;
            for (ui, u) in units.into_iter().enumerate() {
                // Unit-boundary deadline check: a group can hold many units
                // (and the sequential post-panic downgrade runs whole
                // batches through one pipeline), so checking only at group
                // boundaries would let a single slow group blow far past a
                // nearly-expired request deadline. Once expired, the rest
                // of the batch passes through untransformed; the budget
                // diagnostic fails the compile regardless.
                if expired {
                    row.push(ExecStats::default());
                    next.push(u);
                    continue;
                }
                if ui > 0 {
                    if let Some(deadline) = self.deadline {
                        if Instant::now() >= deadline {
                            ctx.error(
                                Span::SYNTHETIC,
                                "budget",
                                format!(
                                    "compile deadline exceeded at unit boundary: \
                                     unit {ui} of {total} in group {gi}"
                                ),
                            );
                            expired = true;
                            row.push(ExecStats::default());
                            next.push(u);
                            continue;
                        }
                    }
                }
                faults::mark_active_site(base + ui, gi, false);
                if let Some(plan) = &self.faults {
                    plan.fire_unit_entry(base + ui, gi);
                }
                let mut stats = ExecStats::default();
                ctx.swap_fresh_scope(&mut fresh_scopes[ui]);
                let out = self.run_group_on_unit(gi, ctx, &u, &mut stats);
                ctx.swap_fresh_scope(&mut fresh_scopes[ui]);
                drop(u); // the pre-group tree dies here, as in Listing 3
                stats.member_transforms = self.groups[gi].take_member_transforms();
                stats.nodes_eliminated = self.groups[gi].take_eliminated();
                found_row.extend(self.harvest_findings(gi, &out.name));
                self.stats.merge(stats);
                row.push(stats);
                next.push(out);
            }
            units = next;
            grid.push(row);
            self.findings.extend(found_row.iter().cloned());
            self.findings_by_group.push(std::mem::take(&mut found_row));
            if expired {
                // Mixed-group trees: skip the checker replay (it would
                // report phase postconditions the aborted units never ran).
                break;
            }
            if self.check {
                let prev: Vec<&dyn MiniPhase> = self.groups[..=gi]
                    .iter()
                    .flat_map(|g| g.members().iter().map(|m| m.as_ref() as &dyn MiniPhase))
                    .collect();
                let mut found = Vec::new();
                for (ui, u) in units.iter().enumerate() {
                    faults::mark_active_site(base + ui, gi, true);
                    found.extend(check_unit(&prev, ctx, u));
                }
                self.failures.extend(found.iter().cloned());
                self.failures_by_group.push(found);
            }
        }
        faults::clear_active_site();
        (units, grid)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::mini::PhaseInfo;
    use crate::plan::{build_plan, PlanOptions};
    use mini_ir::{NodeKind, NodeKindSet, TreeKind};

    /// Increments literals; also counts how many times each hook ran.
    struct Inc {
        label: &'static str,
    }
    impl PhaseInfo for Inc {
        fn name(&self) -> &str {
            self.label
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

    /// Uses prepares to know nesting depth of blocks; rewrites literals to
    /// their depth. Exercises prepare/finish balance.
    struct DepthMark {
        depth: i64,
    }
    impl PhaseInfo for DepthMark {
        fn name(&self) -> &str {
            "depthMark"
        }
    }
    impl MiniPhase for DepthMark {
        fn transforms(&self) -> NodeKindSet {
            NodeKindSet::of(NodeKind::Literal)
        }
        fn prepares(&self) -> NodeKindSet {
            NodeKindSet::of(NodeKind::Block)
        }
        fn prepare_block(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
            self.depth += 1;
            true
        }
        fn finish_prepared(&mut self, _ctx: &mut Ctx, _t: &TreeRef) {
            self.depth -= 1;
        }
        fn transform_literal(&mut self, ctx: &mut Ctx, _t: &TreeRef) -> TreeRef {
            ctx.lit_int(self.depth)
        }
    }

    fn unit_of(_ctx: &mut Ctx, tree: TreeRef) -> CompilationUnit {
        CompilationUnit::new("test.ms", tree)
    }

    #[test]
    fn traversal_transforms_bottom_up() {
        let mut ctx = Ctx::new();
        let a = ctx.lit_int(0);
        let b = ctx.lit_int(10);
        let tree = ctx.block(vec![a], b);
        let unit = unit_of(&mut ctx, tree);
        let mut ph = Inc { label: "inc" };
        let mut stats = ExecStats::default();
        let out = run_phase_on_unit(
            &mut ph,
            &FusionOptions::default(),
            &mut ctx,
            &unit,
            &mut stats,
        );
        let lits: Vec<i64> = out
            .tree
            .children()
            .iter()
            .filter_map(|c| match c.kind() {
                TreeKind::Literal { value } => value.as_int(),
                _ => None,
            })
            .collect();
        assert_eq!(lits, vec![1, 11]);
        assert_eq!(stats.node_visits, 3);
        assert_eq!(stats.transform_calls, 2, "identity skip avoids the block");
        assert_eq!(stats.traversals, 1);
    }

    #[test]
    fn prepares_observe_ancestors() {
        // lit inside two nested blocks gets depth 2; top-level lit in one
        // block gets 1.
        let mut ctx = Ctx::new();
        let deep = ctx.lit_int(-1);
        let inner = {
            let u = ctx.lit_unit();
            ctx.block(vec![deep], u)
        };
        let shallow = ctx.lit_int(-1);
        let tree = ctx.block(vec![shallow, inner.clone()], inner);
        let unit = unit_of(&mut ctx, tree);
        let mut ph = DepthMark { depth: 0 };
        let mut stats = ExecStats::default();
        let out = run_phase_on_unit(
            &mut ph,
            &FusionOptions::default(),
            &mut ctx,
            &unit,
            &mut stats,
        );
        assert_eq!(ph.depth, 0, "prepare/finish balanced");
        // Find the depths assigned to the literals.
        let mut depths = Vec::new();
        mini_ir::visit::for_each_subtree(&out.tree, &mut |s| {
            if let TreeKind::Literal { value } = s.kind() {
                if let Some(i) = value.as_int() {
                    depths.push(i);
                }
            }
        });
        assert!(
            depths.contains(&1),
            "shallow literal at depth 1: {depths:?}"
        );
        assert!(depths.contains(&2), "deep literal at depth 2: {depths:?}");
    }

    /// Sleeps on every literal transform — a per-unit time sink for
    /// deadline-granularity tests.
    struct Stall {
        millis: u64,
    }
    impl PhaseInfo for Stall {
        fn name(&self) -> &str {
            "stall"
        }
    }
    impl MiniPhase for Stall {
        fn transforms(&self) -> NodeKindSet {
            NodeKindSet::of(NodeKind::Literal)
        }
        fn transform_literal(&mut self, ctx: &mut Ctx, _t: &TreeRef) -> TreeRef {
            std::thread::sleep(std::time::Duration::from_millis(self.millis));
            ctx.lit_int(1)
        }
    }

    #[test]
    fn deadline_checked_at_unit_boundaries_within_a_group() {
        // One fused group over three units, each stalling 40 ms. The
        // deadline expires during unit 0, so without the unit-boundary
        // check the single group-boundary check (at gi = 0, before any
        // work) would never fire and all three units would transform.
        let ps: Vec<Box<dyn MiniPhase>> = vec![Box::new(Stall { millis: 40 })];
        let plan = build_plan(&ps, &PlanOptions::default()).unwrap();
        let mut pipe = Pipeline::new(ps, &plan, FusionOptions::default());
        assert_eq!(
            pipe.group_count(),
            1,
            "single group: only unit boundaries remain"
        );
        let mut ctx = Ctx::new();
        let units: Vec<CompilationUnit> = (0..3)
            .map(|i| {
                let t = ctx.lit_int(0);
                CompilationUnit::new(format!("u{i}"), t)
            })
            .collect();
        pipe.deadline = Some(Instant::now() + std::time::Duration::from_millis(10));
        let out = pipe.run_units(&mut ctx, units);
        assert_eq!(out.len(), 3, "aborted units still pass through");
        let lit = |u: &CompilationUnit| match u.tree.kind() {
            TreeKind::Literal { value } => value.as_int().unwrap(),
            _ => unreachable!(),
        };
        assert_eq!(lit(&out[0]), 1, "unit 0 ran before the deadline expired");
        assert_eq!(lit(&out[1]), 0, "unit 1 aborted at the unit boundary");
        assert_eq!(lit(&out[2]), 0, "unit 2 aborted at the unit boundary");
        assert!(
            ctx.errors
                .iter()
                .any(|d| d.phase == "budget" && d.msg.contains("unit boundary")),
            "budget diagnostic names the unit boundary: {:?}",
            ctx.errors
        );
    }

    #[test]
    fn pipeline_megaphase_and_fused_agree() {
        let phases = || -> Vec<Box<dyn MiniPhase>> {
            vec![
                Box::new(Inc { label: "i1" }),
                Box::new(Inc { label: "i2" }),
                Box::new(Inc { label: "i3" }),
            ]
        };
        let run = |fuse: bool| -> (i64, usize) {
            let mut ctx = Ctx::new();
            let t = ctx.lit_int(0);
            let e = ctx.lit_unit();
            let tree = ctx.block(vec![t], e);
            let ps = phases();
            let plan = build_plan(
                &ps,
                &PlanOptions {
                    fuse,
                    ..PlanOptions::default()
                },
            )
            .unwrap();
            let mut pipe = Pipeline::new(ps, &plan, FusionOptions::default());
            let out = pipe.run_unit(&mut ctx, CompilationUnit::new("u", tree));
            let mut v = 0;
            mini_ir::visit::for_each_subtree(&out.tree, &mut |s| {
                if let TreeKind::Literal { value } = s.kind() {
                    if let Some(i) = value.as_int() {
                        if i > v {
                            v = i;
                        }
                    }
                }
            });
            (v, pipe.group_count())
        };
        let (fused_v, fused_groups) = run(true);
        let (mega_v, mega_groups) = run(false);
        assert_eq!(fused_v, 3);
        assert_eq!(mega_v, 3);
        assert_eq!(fused_groups, 1);
        assert_eq!(mega_groups, 3);
    }

    #[test]
    fn fused_pipeline_visits_fewer_nodes() {
        let labels = ["p0", "p1", "p2", "p3", "p4"];
        let mk_phases = || -> Vec<Box<dyn MiniPhase>> {
            labels
                .iter()
                .map(|l| Box::new(Inc { label: l }) as Box<dyn MiniPhase>)
                .collect()
        };
        let visits = |fuse: bool| -> u64 {
            let mut ctx = Ctx::new();
            let lits: Vec<TreeRef> = (0..50).map(|i| ctx.lit_int(i)).collect();
            let e = ctx.lit_unit();
            let tree = ctx.block(lits, e);
            let ps = mk_phases();
            let plan = build_plan(
                &ps,
                &PlanOptions {
                    fuse,
                    ..PlanOptions::default()
                },
            )
            .unwrap();
            let mut pipe = Pipeline::new(ps, &plan, FusionOptions::default());
            pipe.run_unit(&mut ctx, CompilationUnit::new("u", tree));
            pipe.stats.node_visits
        };
        let fused = visits(true);
        let mega = visits(false);
        assert!(
            mega >= fused * 4,
            "megaphase should visit ~5x more nodes (got fused={fused}, mega={mega})"
        );
    }
}
