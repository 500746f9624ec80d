//! The compilation context.
//!
//! [`Ctx`] owns the symbol table, the node-id/heap-address allocators, the
//! diagnostics buffer and the optional memory-access sink used by the cache
//! simulator. All tree nodes are created through it, so it is also where the
//! copier (with the paper's same-fields reuse optimization) lives.

use crate::constant::Constant;
use crate::names::Name;
use crate::span::Span;
use crate::symbol::{SymbolId, SymbolTable};
use crate::trace;
use crate::tree::{Kids, NodeId, Tree, TreeKind, TreeRef};
use crate::types::Type;
use std::fmt;
use std::rc::Rc;

/// Consumer of the memory-access stream (reads/writes of tree nodes,
/// instruction fetches of phase code). Drives the cache simulator.
pub trait AccessSink {
    /// A data read of `bytes` bytes at `addr`.
    fn read(&mut self, addr: u64, bytes: u32);
    /// A data write of `bytes` bytes at `addr`.
    fn write(&mut self, addr: u64, bytes: u32);
    /// An instruction fetch of `bytes` bytes at `addr`.
    fn exec(&mut self, addr: u64, bytes: u32);
}

/// Tunables of the IR layer.
#[derive(Clone, Copy, Debug)]
pub struct IrOptions {
    /// Enables the copier's "same fields ⇒ reuse original node" optimization
    /// (§2 of the paper). The `legacy` pipeline mode disables it to imitate
    /// scalac-era tree plumbing (Fig 9).
    pub copier_reuse: bool,
    /// Interns synthetic common literals (unit, booleans, small ints and
    /// strings) so phase-created constants share one node instead of
    /// allocating per rewrite. Off in `legacy` mode, which imitates
    /// scalac-era plumbing.
    pub intern_literals: bool,
    /// Lower bound (inclusive) of the interned small-int range. Per-`Ctx`
    /// tunable; the default mirrors JVM `Integer.valueOf` caching shifted
    /// toward the non-negative constants phases actually synthesize.
    pub intern_int_min: i64,
    /// Upper bound (inclusive) of the interned small-int range. Setting
    /// `intern_int_max < intern_int_min` disables small-int interning
    /// without touching the other literal kinds.
    pub intern_int_max: i64,
    /// Resource budget: maximum tree depth [`Ctx::mk`] accepts before
    /// reporting a `"budget"` diagnostic (once per context — a latch, so a
    /// runaway construction costs one error, not one per node). `None`
    /// (the default) is unguarded. Limits at or above
    /// [`Tree::DEPTH_SATURATED`] cannot fire, because the packed header
    /// lane saturates there.
    pub max_tree_depth: Option<u32>,
    /// Resource budget: maximum subtree size (node count) [`Ctx::mk`]
    /// accepts, with the same latch/reporting rules as `max_tree_depth`
    /// and the same saturation caveat at [`Tree::SIZE_SATURATED`].
    pub max_tree_size: Option<u32>,
}

impl Default for IrOptions {
    fn default() -> IrOptions {
        IrOptions {
            copier_reuse: true,
            intern_literals: true,
            intern_int_min: -8,
            intern_int_max: 63,
            max_tree_depth: None,
            max_tree_size: None,
        }
    }
}

/// Cache of shared synthetic nodes (the empty tree and common literals).
///
/// String literals are keyed by their (already-interned) [`Name`], so the
/// map is bounded by the number of distinct string constants the program and
/// its phases ever synthesize. The int cache records the range it was built
/// for; retuning [`IrOptions::intern_int_min`]/[`IrOptions::intern_int_max`]
/// mid-flight simply drops the stale cache.
#[derive(Default)]
struct InternCache {
    empty: Option<TreeRef>,
    unit: Option<TreeRef>,
    bools: [Option<TreeRef>; 2],
    ints: Vec<Option<TreeRef>>,
    /// The `intern_int_min` the `ints` slots were allocated for.
    ints_min: i64,
    strs: std::collections::HashMap<Name, TreeRef>,
}

/// Always-on cheap allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of tree nodes allocated.
    pub nodes: u64,
    /// Modelled bytes allocated.
    pub bytes: u64,
}

/// A reported compile error.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Where in the source.
    pub span: Span,
    /// Human-readable message.
    pub msg: String,
    /// Which component reported it.
    pub phase: &'static str,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] error at {}: {}", self.phase, self.span, self.msg)
    }
}

/// The compilation context threaded through the whole pipeline.
///
/// # Examples
///
/// ```
/// use mini_ir::{Ctx, Type};
/// let mut ctx = Ctx::new();
/// let one = ctx.lit_int(1);
/// assert_eq!(*one.tpe(), Type::Int);
/// assert_eq!(ctx.stats.nodes, 1);
/// ```
pub struct Ctx {
    /// The symbol table.
    pub symbols: SymbolTable,
    /// IR tunables.
    pub options: IrOptions,
    /// Optional memory-access sink (cache simulator).
    pub access: Option<Box<dyn AccessSink>>,
    /// Allocation counters.
    pub stats: AllocStats,
    /// Accumulated compile errors.
    pub errors: Vec<Diagnostic>,
    next_id: u64,
    heap_cursor: u64,
    fresh: u32,
    interned: InternCache,
    /// One-shot latch for the tree depth/size budgets: the first breach
    /// reports a `"budget"` diagnostic, later nodes build silently (the
    /// compile already carries the error; per-node repeats would flood).
    budget_breached: bool,
}

impl Ctx {
    /// Creates a context with a fresh symbol table.
    pub fn new() -> Ctx {
        Ctx::with_symbols(SymbolTable::new(), IrOptions::default())
    }

    /// Creates a context around an existing symbol table (for example a
    /// [`SymbolTable::splice_view`] a backend reads), with fresh
    /// allocators.
    pub fn with_symbols(symbols: SymbolTable, options: IrOptions) -> Ctx {
        Ctx::worker(symbols, options, 1, 0x1000) // keep address 0 unused
    }

    /// Builds a worker-private context for parallel compilation: a forked
    /// symbol table (see [`SymbolTable::fork_for_worker`]), the origin's IR
    /// tunables, and node-id/heap allocators started at caller-chosen
    /// watermarks so ids never collide across workers. The literal-intern
    /// cache starts empty (interned nodes are `Rc`-shared and must never
    /// cross threads) and no access sink is installed.
    pub fn worker(symbols: SymbolTable, options: IrOptions, next_id: u64, heap_cursor: u64) -> Ctx {
        Ctx {
            symbols,
            options,
            access: None,
            stats: AllocStats::default(),
            errors: Vec::new(),
            next_id,
            heap_cursor,
            fresh: 0,
            interned: InternCache::default(),
            budget_breached: false,
        }
    }

    /// The node-id and heap-address allocation watermarks, for carving
    /// disjoint per-worker allocation ranges.
    pub fn alloc_watermarks(&self) -> (u64, u64) {
        (self.next_id, self.heap_cursor)
    }

    /// Raises the allocators to at least the given watermarks (no-op for
    /// values already passed). Called after a parallel run so subsequent
    /// sequential allocations land above every worker's range.
    pub fn advance_watermarks(&mut self, next_id: u64, heap_cursor: u64) {
        self.next_id = self.next_id.max(next_id);
        self.heap_cursor = self.heap_cursor.max(heap_cursor);
    }

    /// Consumes a worker context into the symbol-table delta its origin
    /// needs for the merge ([`SymbolTable::adopt`]); everything else — the
    /// intern cache in particular — drops here, on the worker's own thread.
    ///
    /// # Panics
    ///
    /// Panics if the context was not built by [`Ctx::worker`] over a forked
    /// table.
    pub fn into_symbol_delta(self) -> crate::symbol::SymbolDelta {
        self.symbols.into_delta()
    }

    /// Swaps the fresh-name counter with `scope`. The executors scope the
    /// counter **per compilation unit** (swap in before a unit's traversal,
    /// swap out after): a unit's fresh names then depend only on its own
    /// rewrite history, never on how many names *other* units consumed —
    /// the invariant that makes parallel compilation byte-identical to the
    /// sequential pipeline. Fresh names from different units may repeat;
    /// symbols stay distinct (lookup is by [`SymbolId`], names are labels).
    pub fn swap_fresh_scope(&mut self, scope: &mut u32) {
        std::mem::swap(&mut self.fresh, scope);
    }

    /// Deep-copies a tree that lives in *another* context's arena into this
    /// one, allocating every node afresh through [`Ctx::mk`] (new ids,
    /// addresses and alloc accounting here) while preserving within-tree
    /// node sharing via a pointer memo. This is the hand-off primitive of
    /// parallel compilation: the original tree's `Rc` handles are only ever
    /// *read* (never cloned or dropped), so the copy is safe to build on a
    /// different thread from the one that owns the original, and the result
    /// is wholly owned by this context's thread.
    pub fn import_tree(&mut self, root: &Tree) -> TreeRef {
        struct ImportFrame<'t> {
            node: &'t Tree,
            next_child: usize,
            results_base: usize,
        }
        let mut memo: std::collections::HashMap<*const Tree, TreeRef> =
            std::collections::HashMap::new();
        let mut frames = vec![ImportFrame {
            node: root,
            next_child: 0,
            results_base: 0,
        }];
        let mut results: Vec<TreeRef> = Vec::new();
        while !frames.is_empty() {
            let (node, i) = {
                let top = frames.last_mut().expect("loop condition");
                let r = (top.node, top.next_child);
                top.next_child += 1;
                r
            };
            if let Some(c) = node.child_at(i) {
                let key = Rc::as_ptr(c);
                if let Some(hit) = memo.get(&key) {
                    results.push(Rc::clone(hit));
                } else {
                    frames.push(ImportFrame {
                        node: c,
                        next_child: 0,
                        results_base: results.len(),
                    });
                }
                continue;
            }
            let ImportFrame {
                node, results_base, ..
            } = frames.pop().expect("loop condition");
            let kind = node
                .kind()
                .with_children_owned(&mut results.drain(results_base..));
            let imported = self.mk(kind, node.tpe().clone(), node.span());
            memo.insert(node as *const Tree, Rc::clone(&imported));
            results.push(imported);
        }
        results.pop().expect("import produces exactly one root")
    }

    /// Creates a tree node: assigns id and heap address, reports the
    /// allocation to the instrumentation sinks.
    pub fn mk(&mut self, kind: TreeKind, tpe: Type, span: Span) -> TreeRef {
        let bytes = kind.approx_bytes();
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let addr = self.heap_cursor;
        self.heap_cursor += u64::from((bytes + 7) & !7);
        self.stats.nodes += 1;
        self.stats.bytes += u64::from(bytes);
        trace::record_alloc(id, bytes);
        if let Some(sink) = self.access.as_mut() {
            sink.write(addr, bytes);
        }
        let mut depth = 0u32;
        let mut size = 0u32;
        let mut summary = crate::tree::NodeKindSet::of(kind.node_kind());
        let mut i = 0usize;
        while let Some(c) = kind.child_at(i) {
            depth = depth.max(c.depth());
            size = size.saturating_add(c.subtree_size());
            summary = summary.union(c.kinds_below());
            i += 1;
        }
        // Both 24-bit header lanes saturate at their sentinel rather than
        // wrap: a saturated size means "unknown, never prune", a saturated
        // depth still exceeds every small depth gate.
        let depth = depth.saturating_add(1).min(Tree::DEPTH_SATURATED);
        let size = size.saturating_add(1).min(Tree::SIZE_SATURATED);
        if self.options.max_tree_depth.is_some() || self.options.max_tree_size.is_some() {
            self.check_tree_budgets(depth, size, span);
        }
        Rc::new(Tree {
            id,
            addr,
            bytes,
            header: crate::tree::pack_header(summary, size, depth),
            span,
            tpe,
            kind,
        })
    }

    /// Cold path of the [`Ctx::mk`] budget gate: reports the first
    /// depth/size breach as a `"budget"` diagnostic and latches. The node
    /// is still built — budgets degrade the compile into a structured
    /// error at the driver boundary, they never tear the pipeline mid-walk.
    #[cold]
    fn check_tree_budgets(&mut self, depth: u32, size: u32, span: Span) {
        if self.budget_breached {
            return;
        }
        if let Some(limit) = self.options.max_tree_depth {
            if depth > limit {
                self.budget_breached = true;
                self.error(
                    span,
                    "budget",
                    format!("tree depth budget exceeded: depth {depth} > limit {limit}"),
                );
                return;
            }
        }
        if let Some(limit) = self.options.max_tree_size {
            if size > limit {
                self.budget_breached = true;
                self.error(
                    span,
                    "budget",
                    format!("tree size budget exceeded: {size} nodes > limit {limit}"),
                );
            }
        }
    }

    /// Records a data read of node `t` into the access sink, if installed.
    #[inline]
    pub fn trace_read(&mut self, t: &Tree) {
        if let Some(sink) = self.access.as_mut() {
            sink.read(t.addr(), t.bytes());
        }
    }

    /// Records an instruction fetch into the access sink, if installed.
    #[inline]
    pub fn trace_exec(&mut self, addr: u64, bytes: u32) {
        if let Some(sink) = self.access.as_mut() {
            sink.exec(addr, bytes);
        }
    }

    /// Records a raw data read (used for symbol-table accesses, which live
    /// in their own synthetic region).
    #[inline]
    pub fn trace_read_at(&mut self, addr: u64, bytes: u32) {
        if let Some(sink) = self.access.as_mut() {
            sink.read(addr, bytes);
        }
    }

    /// The synthetic address of a symbol's table entry. Symbols are "the
    /// major internal data structures" next to trees (§2 of the paper);
    /// traversals read them alongside the nodes that reference them.
    pub fn symbol_addr(sym: SymbolId) -> u64 {
        (1 << 39) + u64::from(sym.index()) * 112
    }

    /// Reports a compile error.
    pub fn error(&mut self, span: Span, phase: &'static str, msg: impl Into<String>) {
        self.errors.push(Diagnostic {
            span,
            msg: msg.into(),
            phase,
        });
    }

    /// True if any error has been reported.
    pub fn has_errors(&self) -> bool {
        !self.errors.is_empty()
    }

    /// Returns a fresh synthetic name `{base}$N`.
    pub fn fresh_name(&mut self, base: &str) -> Name {
        self.fresh += 1;
        Name::fresh(base, self.fresh)
    }

    // ---- convenience builders -------------------------------------------

    /// The shared empty tree.
    pub fn empty(&mut self) -> TreeRef {
        if let Some(e) = &self.interned.empty {
            return Rc::clone(e);
        }
        let e = self.mk(TreeKind::Empty, Type::NoType, Span::SYNTHETIC);
        self.interned.empty = Some(Rc::clone(&e));
        e
    }

    /// A literal node. Synthetic common constants (unit, booleans, small
    /// ints) are interned: phases rewriting literals on the hot path share
    /// one node per value instead of allocating per rewrite. Literals with a
    /// real source span are never interned (their spans must stay distinct).
    pub fn lit(&mut self, c: Constant, span: Span) -> TreeRef {
        if self.options.intern_literals && span == Span::SYNTHETIC {
            if let Some(hit) = self.interned_lit(&c) {
                return hit;
            }
        }
        let tpe = Self::lit_type(&c);
        let made = self.mk(TreeKind::Literal { value: c }, tpe, span);
        if self.options.intern_literals && span == Span::SYNTHETIC {
            self.intern_lit(&made);
        }
        made
    }

    fn lit_type(c: &Constant) -> Type {
        match c {
            Constant::Unit => Type::Unit,
            Constant::Bool(_) => Type::Boolean,
            Constant::Int(_) => Type::Int,
            Constant::Str(_) => Type::Str,
            Constant::Null => Type::Null,
        }
    }

    /// Hard cap on int-intern slots: a pathological tunable range (say the
    /// whole `i64` domain) interns only its first `MAX_INT_SLOTS` values
    /// instead of allocating an unbounded cache.
    const MAX_INT_SLOTS: usize = 1 << 16;

    /// Number of slots the tuned small-int range needs (0 when the range is
    /// empty, i.e. small-int interning is disabled), capped at
    /// [`Self::MAX_INT_SLOTS`].
    fn intern_int_slots(&self) -> usize {
        let span = self.options.intern_int_max as i128 - self.options.intern_int_min as i128 + 1;
        span.clamp(0, Self::MAX_INT_SLOTS as i128) as usize
    }

    /// Slot index of `i` in the tuned range, or `None` when `i` is outside
    /// the range (or past the slot cap). Overflow-safe for any tunables.
    fn intern_int_slot_of(&self, i: i64) -> Option<usize> {
        let (min, max) = (self.options.intern_int_min, self.options.intern_int_max);
        if !(min..=max).contains(&i) {
            return None;
        }
        let off = i as i128 - min as i128;
        (off < self.intern_int_slots() as i128).then_some(off as usize)
    }

    fn interned_lit(&self, c: &Constant) -> Option<TreeRef> {
        let slot = match c {
            Constant::Unit => &self.interned.unit,
            Constant::Bool(b) => &self.interned.bools[usize::from(*b)],
            Constant::Int(i) => {
                // A retuned range invalidates the cache (slots are indexed
                // relative to the min it was built for).
                if self.interned.ints_min != self.options.intern_int_min {
                    return None;
                }
                self.interned.ints.get(self.intern_int_slot_of(*i)?)?
            }
            Constant::Str(n) => return self.interned.strs.get(n).map(Rc::clone),
            _ => return None,
        };
        slot.as_ref().map(Rc::clone)
    }

    fn intern_lit(&mut self, t: &TreeRef) {
        let TreeKind::Literal { value } = t.kind() else {
            return;
        };
        match value {
            Constant::Unit => self.interned.unit = Some(Rc::clone(t)),
            Constant::Bool(b) => self.interned.bools[usize::from(*b)] = Some(Rc::clone(t)),
            Constant::Int(i) => {
                let Some(slot) = self.intern_int_slot_of(*i) else {
                    return;
                };
                let slots = self.intern_int_slots();
                let min = self.options.intern_int_min;
                if self.interned.ints.len() != slots || self.interned.ints_min != min {
                    self.interned.ints = vec![None; slots];
                    self.interned.ints_min = min;
                }
                self.interned.ints[slot] = Some(Rc::clone(t));
            }
            Constant::Str(n) => {
                self.interned.strs.insert(*n, Rc::clone(t));
            }
            _ => {}
        }
    }

    /// An integer literal.
    pub fn lit_int(&mut self, v: i64) -> TreeRef {
        self.lit(Constant::Int(v), Span::SYNTHETIC)
    }

    /// A boolean literal.
    pub fn lit_bool(&mut self, v: bool) -> TreeRef {
        self.lit(Constant::Bool(v), Span::SYNTHETIC)
    }

    /// The unit literal.
    pub fn lit_unit(&mut self) -> TreeRef {
        self.lit(Constant::Unit, Span::SYNTHETIC)
    }

    /// A synthetic string literal (interned per distinct [`Name`]).
    pub fn lit_str(&mut self, s: &str) -> TreeRef {
        self.lit(Constant::Str(Name::intern(s)), Span::SYNTHETIC)
    }

    /// A reference to `sym`, typed with the symbol's info.
    pub fn ident(&mut self, sym: SymbolId) -> TreeRef {
        let tpe = self.symbols.info(sym).into_owned();
        self.mk(TreeKind::Ident { sym }, tpe, Span::SYNTHETIC)
    }

    /// A `ValDef` node (its type is `Unit` as a statement).
    pub fn val_def(&mut self, sym: SymbolId, rhs: TreeRef) -> TreeRef {
        self.mk(TreeKind::ValDef { sym, rhs }, Type::Unit, Span::SYNTHETIC)
    }

    /// A block; its type is the type of the final expression.
    pub fn block(&mut self, stats: impl Into<Kids>, expr: TreeRef) -> TreeRef {
        let stats = stats.into();
        if stats.is_empty() {
            return expr;
        }
        let tpe = expr.tpe().clone();
        self.mk(TreeKind::Block { stats, expr }, tpe, Span::SYNTHETIC)
    }

    /// An application node with the given result type.
    pub fn apply(&mut self, fun: TreeRef, args: impl Into<Kids>, tpe: Type) -> TreeRef {
        self.mk(
            TreeKind::Apply {
                fun,
                args: args.into(),
            },
            tpe,
            Span::SYNTHETIC,
        )
    }

    /// A selection node.
    pub fn select(&mut self, qual: TreeRef, name: Name, sym: SymbolId, tpe: Type) -> TreeRef {
        self.mk(TreeKind::Select { qual, name, sym }, tpe, Span::SYNTHETIC)
    }

    /// A `this` reference typed as the class's self type.
    pub fn this_ref(&mut self, cls: SymbolId) -> TreeRef {
        let tpe = self.symbols.self_type(cls);
        self.mk(TreeKind::This { cls }, tpe, Span::SYNTHETIC)
    }

    /// A `this` reference typed with the *monomorphic* class type — for
    /// phases that run after erasure, where self types must carry no type
    /// arguments.
    pub fn this_mono(&mut self, cls: SymbolId) -> TreeRef {
        let tpe = self.symbols.class_type(cls);
        self.mk(TreeKind::This { cls }, tpe, Span::SYNTHETIC)
    }

    // ---- copiers ---------------------------------------------------------

    /// Copies `t` with a new type (fresh node, same kind and span).
    pub fn retyped(&mut self, t: &TreeRef, tpe: Type) -> TreeRef {
        if *t.tpe() == tpe && self.options.copier_reuse {
            return Rc::clone(t);
        }
        self.mk(t.kind().clone(), tpe, t.span())
    }

    /// Copies `t` with a new kind, keeping the type and span.
    pub fn with_kind(&mut self, t: &TreeRef, kind: TreeKind) -> TreeRef {
        self.mk(kind, t.tpe().clone(), t.span())
    }

    /// The copier: rebuilds `t` with every direct child passed through `f`.
    ///
    /// Implements the reuse optimization from §2 of the paper: when every
    /// mapped child is pointer-identical to the original (and
    /// [`IrOptions::copier_reuse`] is on), the original node is returned and
    /// no allocation happens.
    pub fn map_children(
        &mut self,
        t: &TreeRef,
        f: &mut dyn FnMut(&mut Ctx, &TreeRef) -> TreeRef,
    ) -> TreeRef {
        let mut changed = false;
        let mut map1 = |ctx: &mut Ctx, changed: &mut bool, c: &TreeRef| -> TreeRef {
            let n = f(ctx, c);
            if !Rc::ptr_eq(&n, c) {
                *changed = true;
            }
            n
        };
        let new_kind = match t.kind() {
            TreeKind::Empty
            | TreeKind::Literal { .. }
            | TreeKind::Ident { .. }
            | TreeKind::Unresolved { .. }
            | TreeKind::New { .. }
            | TreeKind::This { .. }
            | TreeKind::Super { .. } => t.kind().clone(),
            TreeKind::Select { qual, name, sym } => TreeKind::Select {
                qual: map1(self, &mut changed, qual),
                name: *name,
                sym: *sym,
            },
            TreeKind::Apply { fun, args } => TreeKind::Apply {
                fun: map1(self, &mut changed, fun),
                args: args.iter().map(|a| map1(self, &mut changed, a)).collect(),
            },
            TreeKind::TypeApply { fun, targs } => TreeKind::TypeApply {
                fun: map1(self, &mut changed, fun),
                targs: targs.clone(),
            },
            TreeKind::Assign { lhs, rhs } => TreeKind::Assign {
                lhs: map1(self, &mut changed, lhs),
                rhs: map1(self, &mut changed, rhs),
            },
            TreeKind::Block { stats, expr } => TreeKind::Block {
                stats: stats.iter().map(|s| map1(self, &mut changed, s)).collect(),
                expr: map1(self, &mut changed, expr),
            },
            TreeKind::If {
                cond,
                then_branch,
                else_branch,
            } => TreeKind::If {
                cond: map1(self, &mut changed, cond),
                then_branch: map1(self, &mut changed, then_branch),
                else_branch: map1(self, &mut changed, else_branch),
            },
            TreeKind::Match { selector, cases } => TreeKind::Match {
                selector: map1(self, &mut changed, selector),
                cases: cases.iter().map(|c| map1(self, &mut changed, c)).collect(),
            },
            TreeKind::CaseDef { pat, guard, body } => TreeKind::CaseDef {
                pat: map1(self, &mut changed, pat),
                guard: map1(self, &mut changed, guard),
                body: map1(self, &mut changed, body),
            },
            TreeKind::Bind { sym, pat } => TreeKind::Bind {
                sym: *sym,
                pat: map1(self, &mut changed, pat),
            },
            TreeKind::Alternative { pats } => TreeKind::Alternative {
                pats: pats.iter().map(|p| map1(self, &mut changed, p)).collect(),
            },
            TreeKind::Typed { expr, tpe } => TreeKind::Typed {
                expr: map1(self, &mut changed, expr),
                tpe: tpe.clone(),
            },
            TreeKind::Cast { expr, tpe } => TreeKind::Cast {
                expr: map1(self, &mut changed, expr),
                tpe: tpe.clone(),
            },
            TreeKind::IsInstance { expr, tpe } => TreeKind::IsInstance {
                expr: map1(self, &mut changed, expr),
                tpe: tpe.clone(),
            },
            TreeKind::While { cond, body } => TreeKind::While {
                cond: map1(self, &mut changed, cond),
                body: map1(self, &mut changed, body),
            },
            TreeKind::Try {
                block,
                cases,
                finalizer,
            } => TreeKind::Try {
                block: map1(self, &mut changed, block),
                cases: cases.iter().map(|c| map1(self, &mut changed, c)).collect(),
                finalizer: map1(self, &mut changed, finalizer),
            },
            TreeKind::Throw { expr } => TreeKind::Throw {
                expr: map1(self, &mut changed, expr),
            },
            TreeKind::Return { expr, from } => TreeKind::Return {
                expr: map1(self, &mut changed, expr),
                from: *from,
            },
            TreeKind::Lambda { params, body } => TreeKind::Lambda {
                params: params.iter().map(|p| map1(self, &mut changed, p)).collect(),
                body: map1(self, &mut changed, body),
            },
            TreeKind::Labeled { label, body } => TreeKind::Labeled {
                label: *label,
                body: map1(self, &mut changed, body),
            },
            TreeKind::JumpTo { label, args } => TreeKind::JumpTo {
                label: *label,
                args: args.iter().map(|a| map1(self, &mut changed, a)).collect(),
            },
            TreeKind::SeqLiteral { elems, elem_tpe } => TreeKind::SeqLiteral {
                elems: elems.iter().map(|e| map1(self, &mut changed, e)).collect(),
                elem_tpe: elem_tpe.clone(),
            },
            TreeKind::ValDef { sym, rhs } => TreeKind::ValDef {
                sym: *sym,
                rhs: map1(self, &mut changed, rhs),
            },
            TreeKind::DefDef { sym, paramss, rhs } => TreeKind::DefDef {
                sym: *sym,
                paramss: paramss
                    .iter()
                    .map(|ps| ps.iter().map(|p| map1(self, &mut changed, p)).collect())
                    .collect(),
                rhs: map1(self, &mut changed, rhs),
            },
            TreeKind::ClassDef { sym, body } => TreeKind::ClassDef {
                sym: *sym,
                body: body.iter().map(|b| map1(self, &mut changed, b)).collect(),
            },
            TreeKind::PackageDef { pkg, stats } => TreeKind::PackageDef {
                pkg: *pkg,
                stats: stats.iter().map(|s| map1(self, &mut changed, s)).collect(),
            },
        };
        if !changed && self.options.copier_reuse {
            Rc::clone(t)
        } else {
            self.mk(new_kind, t.tpe().clone(), t.span())
        }
    }

    /// Splices `new_children` into a copy of `t`, comparing each against the
    /// original children by pointer identity first: when nothing changed
    /// (and [`IrOptions::copier_reuse`] is on) the original node is returned
    /// without constructing a kind at all — the fast path the iterative
    /// executor hits on every untouched subtree. The children are **moved**
    /// into the rebuilt node.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields fewer children than `t` has.
    pub fn rebuild_with_children(
        &mut self,
        t: &TreeRef,
        changed: bool,
        new_children: &mut impl Iterator<Item = TreeRef>,
    ) -> TreeRef {
        if !changed && self.options.copier_reuse {
            return Rc::clone(t);
        }
        let kind = t.kind().with_children_owned(new_children);
        self.mk(kind, t.tpe().clone(), t.span())
    }
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx::new()
    }
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Ctx(nodes={}, bytes={}, errors={})",
            self.stats.nodes,
            self.stats.bytes,
            self.errors.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_children_reuses_unchanged_nodes() {
        let mut ctx = Ctx::new();
        let one = ctx.lit_int(1);
        let two = ctx.lit_int(2);
        let blk = ctx.block(vec![one], two);
        let before = ctx.stats.nodes;
        let mapped = ctx.map_children(&blk, &mut |_, c| Rc::clone(c));
        assert!(Rc::ptr_eq(&mapped, &blk), "identity map reuses node");
        assert_eq!(ctx.stats.nodes, before, "no allocation on reuse");
    }

    #[test]
    fn map_children_rebuilds_on_change() {
        let mut ctx = Ctx::new();
        let one = ctx.lit_int(1);
        let two = ctx.lit_int(2);
        let blk = ctx.block(vec![one], two);
        let mapped = ctx.map_children(&blk, &mut |ctx, c| {
            if let TreeKind::Literal { .. } = c.kind() {
                ctx.lit_int(42)
            } else {
                Rc::clone(c)
            }
        });
        assert!(!Rc::ptr_eq(&mapped, &blk));
        let kids = mapped.children();
        for k in kids {
            assert_eq!(k.kind().node_kind(), crate::tree::NodeKind::Literal);
            if let TreeKind::Literal { value } = k.kind() {
                assert_eq!(value.as_int(), Some(42));
            }
        }
    }

    #[test]
    fn legacy_mode_always_copies() {
        let mut ctx = Ctx::new();
        ctx.options.copier_reuse = false;
        let one = ctx.lit_int(1);
        let two = ctx.lit_int(2);
        let blk = ctx.block(vec![one], two);
        let mapped = ctx.map_children(&blk, &mut |_, c| Rc::clone(c));
        assert!(!Rc::ptr_eq(&mapped, &blk), "legacy mode reallocates");
    }

    #[test]
    fn heap_addresses_are_bump_allocated() {
        let mut ctx = Ctx::new();
        let a = ctx.lit_int(1);
        let b = ctx.lit_int(2);
        assert!(b.addr() > a.addr());
        assert!(b.addr() - a.addr() >= u64::from(a.bytes() & !7));
    }

    #[test]
    fn shared_empty_is_a_single_node() {
        let mut ctx = Ctx::new();
        let e1 = ctx.empty();
        let before = ctx.stats.nodes;
        let e2 = ctx.empty();
        assert!(Rc::ptr_eq(&e1, &e2));
        assert_eq!(ctx.stats.nodes, before);
    }

    #[test]
    fn string_literals_are_interned() {
        let mut ctx = Ctx::new();
        let a = ctx.lit_str("hello");
        let before = ctx.stats.nodes;
        let b = ctx.lit_str("hello");
        assert!(Rc::ptr_eq(&a, &b), "same name shares one node");
        assert_eq!(ctx.stats.nodes, before, "no allocation on the hit");
        let c = ctx.lit_str("world");
        assert!(!Rc::ptr_eq(&a, &c));
        // Literals with real source spans keep distinct nodes.
        let spanned = ctx.lit(Constant::Str(Name::intern("hello")), Span::new(1, 6));
        assert!(!Rc::ptr_eq(&a, &spanned));
    }

    #[test]
    fn small_int_range_is_per_ctx_tunable() {
        let mut ctx = Ctx::new();
        // Default range −8..=63.
        let a = ctx.lit_int(63);
        let b = ctx.lit_int(63);
        assert!(Rc::ptr_eq(&a, &b));
        let wide1 = ctx.lit_int(1000);
        let wide2 = ctx.lit_int(1000);
        assert!(
            !Rc::ptr_eq(&wide1, &wide2),
            "1000 outside the default range"
        );

        // Widen the range: 1000 now interns; the stale −8-based cache must
        // not serve hits for the new range.
        ctx.options.intern_int_min = 0;
        ctx.options.intern_int_max = 1023;
        let w1 = ctx.lit_int(1000);
        let w2 = ctx.lit_int(1000);
        assert!(Rc::ptr_eq(&w1, &w2));
        let re63a = ctx.lit_int(63);
        let re63b = ctx.lit_int(63);
        assert!(Rc::ptr_eq(&re63a, &re63b), "rebuilt cache serves new range");

        // An empty range disables small-int interning entirely.
        ctx.options.intern_int_min = 0;
        ctx.options.intern_int_max = -1;
        let n1 = ctx.lit_int(5);
        let n2 = ctx.lit_int(5);
        assert!(!Rc::ptr_eq(&n1, &n2));
    }

    #[test]
    fn legacy_mode_interns_nothing() {
        let mut ctx = Ctx::new();
        ctx.options.intern_literals = false;
        let a = ctx.lit_str("x");
        let b = ctx.lit_str("x");
        assert!(!Rc::ptr_eq(&a, &b));
        let i1 = ctx.lit_int(0);
        let i2 = ctx.lit_int(0);
        assert!(!Rc::ptr_eq(&i1, &i2));
    }

    #[test]
    fn diagnostics_accumulate() {
        let mut ctx = Ctx::new();
        assert!(!ctx.has_errors());
        ctx.error(Span::new(1, 2), "typer", "kaboom");
        assert!(ctx.has_errors());
        assert!(ctx.errors[0].to_string().contains("kaboom"));
    }
}
