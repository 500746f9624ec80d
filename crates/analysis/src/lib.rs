//! # mini_analysis — static-analysis passes as prepare-only miniphases
//!
//! A lint/dataflow suite that rides the same fused traversal as the
//! transformation pipeline. Every pass here is a **prepare-only miniphase**:
//! it declares an empty [`MiniPhase::transforms`] mask and a sparse
//! [`MiniPhase::prepares`] mask, observes nodes through `prepare_*` hooks on
//! the way *down* the tree, and never rewrites anything.
//!
//! ## Why prepare-only miniphases?
//!
//! The paper's fusion argument (§4.1) is usually read as a story about
//! *transformations*, but the prepare machinery is exactly an analysis
//! visitor: hooks fire pre-order on node arrival, in deterministic traversal
//! order, under the same identity-skip and subtree-pruning machinery as
//! transforms. Expressing lints this way buys three things for free:
//!
//! 1. **Fusion** — adding the whole lint suite to a run costs one extra
//!    *group prefix* in the plan, not one extra tree traversal per rule.
//!    The fused walk dispatches a lint hook only at nodes whose kind is in
//!    the rule's declared mask; every other node costs a bitmask test.
//! 2. **Pruning soundness by construction** — the executors' subtree
//!    kind-summary pruning masks are the union of transforms *and*
//!    effective prepares, so a subtree is only skipped when it contains no
//!    kind any lint rule observes. The union mask of this suite covers 8 of
//!    the 33 node kinds, sparse enough that pruning pays on real corpora.
//! 3. **Every executor, one implementation** — the same phase objects run
//!    under the fused walk, the megaphase loop, the recursive reference
//!    executor and the parallel per-unit scheduler, and the equivalence
//!    property tests pin all of them against the standalone walker
//!    ([`lint_unit`]) byte-for-byte.
//!
//! ## Finding ordering under parallelism
//!
//! Within one unit × group traversal, a rule reports findings in traversal
//! (pre-order) encounter order; deferred rules (unused-def) report in
//! definition encounter order at [`MiniPhase::take_findings`] time. Across
//! units and groups, executors harvest findings the same way they harvest
//! checker failures — per `(group, unit)`, re-sequenced group-major then
//! unit order at the parallel fan-in — so the raw stream is already
//! deterministic for a fixed plan shape. Because plan shape *does* differ
//! across fused/mega modes (one lint group vs. per-phase groups), every
//! client-facing surface additionally sorts findings by the canonical key
//! `(unit, span.start, span.end, rule, node_kind, msg)`
//! ([`miniphase::sort_findings`]); the property tests compare
//! canonically-sorted streams.
//!
//! ## The rules
//!
//! | code | rule | severity | observes |
//! |------|------|----------|----------|
//! | L001 | `unused-def` | warning | `ValDef` `DefDef` `Ident` `Select` |
//! | L002 | `unused-local` | warning | (same phase as L001) |
//! | L003 | `unreachable` | warning | `Block` |
//! | L004 | `use-before-assign` | error | CFG + dataflow (see below) |
//! | L005 | `const-cond` | warning | `If` `While` |
//! | L006 | `dead-store` | warning | CFG + dataflow |
//! | L007 | `branch-never-taken` | warning | CFG + dataflow |
//!
//! Unused detection is **per unit**: a definition is flagged when nothing in
//! its *defining unit* references it, which keeps findings cacheable in
//! per-unit artifacts (the message says so honestly).
//!
//! ## The dataflow layer
//!
//! L004, L006 and L007 are *path-sensitive*: the [`Dataflow`] phase lowers
//! each method body (and the unit's top level) into a CFG ([`cfg`]) and
//! runs a monotone-framework fixpoint solver ([`dataflow`]) over it —
//! forward/must definite assignment, backward/may liveness, and a sparse
//! single-binding constancy summary. The phase is still prepare-only, but
//! it declares an *empty* prepare mask and does its whole-unit walk in
//! [`MiniPhase::prepare_unit`] instead of per-node hooks: a fixpoint over
//! joins and back-edges fundamentally cannot be computed from one
//! pre-order arrival per node, and doing it per unit keeps findings
//! independent of executor mode, pruning and parallelism (pinned by the
//! equivalence property tests). L004's historical syntactic core is kept
//! as [`syntactic_use_before_assign`] so the dominance tests can pin that
//! the path-sensitive verdicts are strictly better on both sides
//! (suppressed false positive, caught false negative).
//!
//! The same facts drive the opt-in dead-code-elimination transform
//! ([`dce::Dce`], enabled by the driver's `with_dce`), which is pinned
//! output-neutral: identical VM output and identical findings with DCE on
//! and off.

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod dce;

use std::collections::HashSet;

use mini_ir::{Ctx, Flags, NodeKind, NodeKindSet, Span, SymbolId, SymbolTable, TreeKind, TreeRef};
use miniphase::checker::{Finding, Severity};
use miniphase::{sort_findings, MiniPhase, PhaseInfo};

/// Rule name for unused non-local definitions (L001).
pub const RULE_UNUSED_DEF: &str = "unused-def";
/// Rule name for unused method-local definitions (L002).
pub const RULE_UNUSED_LOCAL: &str = "unused-local";
/// Rule name for statements after a terminator (L003).
pub const RULE_UNREACHABLE: &str = "unreachable";
/// Rule name for reads of locals before any assignment (L004).
pub const RULE_USE_BEFORE_ASSIGN: &str = "use-before-assign";
/// Rule name for constant conditions (L005).
pub const RULE_CONST_COND: &str = "const-cond";
/// Rule name for stores whose value is never read (L006).
pub const RULE_DEAD_STORE: &str = "dead-store";
/// Rule name for branches on locals bound once to a literal (L007).
pub const RULE_BRANCH_NEVER: &str = "branch-never-taken";

/// Maps a rule name to its stable diagnostic code (rendered by clients as
/// e.g. `warning[L003]`). Unknown rules map to `L000`.
pub fn rule_code(rule: &str) -> &'static str {
    match rule {
        RULE_UNUSED_DEF => "L001",
        RULE_UNUSED_LOCAL => "L002",
        RULE_UNREACHABLE => "L003",
        RULE_USE_BEFORE_ASSIGN => "L004",
        RULE_CONST_COND => "L005",
        RULE_DEAD_STORE => "L006",
        RULE_BRANCH_NEVER => "L007",
        _ => "L000",
    }
}

/// True when `sym` is owned (directly) by a method — the suite's notion of
/// "local", which separates L002 from L001.
fn is_local(symbols: &SymbolTable, sym: SymbolId) -> bool {
    if !sym.exists() {
        return false;
    }
    let owner = symbols.sym(sym).owner;
    owner.exists() && symbols.sym(owner).flags.is(Flags::METHOD)
}

/// One recorded definition site for the unused-def rule.
struct DefSite {
    sym: SymbolId,
    span: Span,
    node_kind: NodeKind,
    local: bool,
    name: String,
}

/// Shared visitor for L001/L002: collects definition sites and referenced
/// symbols, and reports `defined − used` when flushed.
#[derive(Default)]
struct UnusedVisitor {
    defined: Vec<DefSite>,
    used: HashSet<SymbolId>,
}

impl UnusedVisitor {
    fn visit(&mut self, symbols: &SymbolTable, t: &TreeRef) {
        match t.kind() {
            TreeKind::ValDef { sym, .. } if sym.exists() => {
                let flags = symbols.sym(*sym).flags;
                if flags.is_any(Flags::PARAM | Flags::SYNTHETIC | Flags::SELF | Flags::FIELD) {
                    return;
                }
                self.defined.push(DefSite {
                    sym: *sym,
                    span: t.span(),
                    node_kind: NodeKind::ValDef,
                    local: is_local(symbols, *sym),
                    name: symbols.sym(*sym).name.to_string(),
                });
            }
            TreeKind::DefDef { sym, .. } if sym.exists() => {
                let flags = symbols.sym(*sym).flags;
                if flags.is_any(
                    Flags::ENTRY_POINT
                        | Flags::SYNTHETIC
                        | Flags::CONSTRUCTOR
                        | Flags::ACCESSOR
                        | Flags::LABEL
                        | Flags::OVERRIDE,
                ) {
                    return;
                }
                self.defined.push(DefSite {
                    sym: *sym,
                    span: t.span(),
                    node_kind: NodeKind::DefDef,
                    local: is_local(symbols, *sym),
                    name: symbols.sym(*sym).name.to_string(),
                });
            }
            TreeKind::Ident { sym } | TreeKind::Select { sym, .. } if sym.exists() => {
                self.used.insert(*sym);
            }
            _ => {}
        }
    }

    fn flush(&mut self) -> Vec<Finding> {
        let used = std::mem::take(&mut self.used);
        self.defined
            .drain(..)
            .filter(|d| !used.contains(&d.sym))
            .map(|d| Finding {
                rule: if d.local {
                    RULE_UNUSED_LOCAL
                } else {
                    RULE_UNUSED_DEF
                },
                severity: Severity::Warning,
                unit: String::new(),
                span: d.span,
                node_kind: d.node_kind,
                msg: format!("`{}` is never referenced in its defining unit", d.name),
            })
            .collect()
    }
}

/// True for statement kinds after which control cannot fall through.
fn is_terminator(k: NodeKind) -> bool {
    matches!(k, NodeKind::Return | NodeKind::Throw | NodeKind::JumpTo)
}

fn terminator_word(k: NodeKind) -> &'static str {
    match k {
        NodeKind::Return => "return",
        NodeKind::Throw => "throw",
        _ => "jump",
    }
}

/// Stateless visitor for L003: inside a `Block`, anything after the first
/// terminator statement is unreachable. One finding per block, anchored at
/// the first unreachable statement (or the block's result expression).
#[derive(Default)]
struct UnreachableVisitor {
    findings: Vec<Finding>,
}

impl UnreachableVisitor {
    fn visit(&mut self, t: &TreeRef) {
        let TreeKind::Block { stats, expr } = t.kind() else {
            return;
        };
        for (i, s) in stats.iter().enumerate() {
            if !is_terminator(s.node_kind()) {
                continue;
            }
            let next = stats.get(i + 1).or({
                if expr.is_empty_tree() {
                    None
                } else {
                    Some(expr)
                }
            });
            if let Some(n) = next {
                self.findings.push(Finding {
                    rule: RULE_UNREACHABLE,
                    severity: Severity::Warning,
                    unit: String::new(),
                    span: n.span(),
                    node_kind: n.node_kind(),
                    msg: format!(
                        "unreachable statement after `{}`",
                        terminator_word(s.node_kind())
                    ),
                });
            }
            break;
        }
    }

    fn flush(&mut self) -> Vec<Finding> {
        std::mem::take(&mut self.findings)
    }
}

/// The retired syntactic core of L004 — a linear pre-order approximation of
/// definite assignment: a local declared without an initializer is
/// "unassigned" until an `Assign` to it is *encountered* (in pre-order); a
/// read while unassigned is reported once per symbol. No branch merging, no
/// escape analysis — kept (not shipped in [`lint_phases`]) so the dominance
/// tests can pin the path-sensitive replacement strictly better: this
/// visitor falsely flags lambda captures (the capture's `Ident` arrives
/// before the later `Assign`) and misses self-referential first assignments
/// like `x = x + 1` (the `Assign` node arrives pre-order *before* its rhs
/// read and clears the tracking).
#[derive(Default)]
struct DefAssignVisitor {
    unassigned: HashSet<SymbolId>,
    findings: Vec<Finding>,
}

impl DefAssignVisitor {
    fn visit(&mut self, symbols: &SymbolTable, t: &TreeRef) {
        match t.kind() {
            TreeKind::ValDef { sym, rhs } if sym.exists() && rhs.is_empty_tree() => {
                let flags = symbols.sym(*sym).flags;
                if !flags.is_any(Flags::PARAM | Flags::SYNTHETIC | Flags::SELF)
                    && is_local(symbols, *sym)
                {
                    self.unassigned.insert(*sym);
                }
            }
            // The Assign node arrives before its lhs Ident (pre-order), so
            // clearing here also keeps the lhs read from being flagged.
            TreeKind::Assign { lhs, .. } => {
                if let TreeKind::Ident { sym } = lhs.kind() {
                    self.unassigned.remove(sym);
                }
            }
            TreeKind::Ident { sym } if self.unassigned.remove(sym) => {
                self.findings.push(Finding {
                    rule: RULE_USE_BEFORE_ASSIGN,
                    severity: Severity::Error,
                    unit: String::new(),
                    span: t.span(),
                    node_kind: NodeKind::Ident,
                    msg: format!(
                        "`{}` is possibly used before assignment",
                        symbols.sym(*sym).name
                    ),
                });
            }
            _ => {}
        }
    }

    fn flush(&mut self) -> Vec<Finding> {
        self.unassigned.clear();
        std::mem::take(&mut self.findings)
    }
}

/// Visitor for L005: `if` conditions that are boolean literals, and `while`
/// loops whose condition is literally `false`. `while (true)` is the
/// intentional-infinite-loop idiom and is not reported.
#[derive(Default)]
struct ConstCondVisitor {
    findings: Vec<Finding>,
}

impl ConstCondVisitor {
    fn visit(&mut self, t: &TreeRef) {
        match t.kind() {
            TreeKind::If { cond, .. } => {
                if let TreeKind::Literal { value } = cond.kind() {
                    if let Some(b) = value.as_bool() {
                        self.findings.push(Finding {
                            rule: RULE_CONST_COND,
                            severity: Severity::Warning,
                            unit: String::new(),
                            span: t.span(),
                            node_kind: NodeKind::If,
                            msg: format!("condition is always {b}"),
                        });
                    }
                }
            }
            TreeKind::While { cond, .. } => {
                if let TreeKind::Literal { value } = cond.kind() {
                    if value.as_bool() == Some(false) {
                        self.findings.push(Finding {
                            rule: RULE_CONST_COND,
                            severity: Severity::Warning,
                            unit: String::new(),
                            span: t.span(),
                            node_kind: NodeKind::While,
                            msg: "loop body never runs".to_string(),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    fn flush(&mut self) -> Vec<Finding> {
        std::mem::take(&mut self.findings)
    }
}

macro_rules! lint_phase {
    (
        $(#[$doc:meta])*
        $phase:ident, $name:literal, $desc:literal, $visitor:ty,
        needs_symbols: $needs_symbols:tt,
        prepares: [$($kind:ident => $hook:ident),+ $(,)?]
    ) => {
        $(#[$doc])*
        #[derive(Default)]
        pub struct $phase {
            v: $visitor,
        }

        impl PhaseInfo for $phase {
            fn name(&self) -> &str {
                $name
            }
            fn description(&self) -> &str {
                $desc
            }
        }

        impl MiniPhase for $phase {
            fn transforms(&self) -> NodeKindSet {
                NodeKindSet::EMPTY
            }
            fn prepares(&self) -> NodeKindSet {
                NodeKindSet::EMPTY$(.with(NodeKind::$kind))+
            }
            fn prepare_unit(&mut self, _ctx: &mut Ctx, _unit_tree: &TreeRef) {
                self.v = Default::default();
            }
            fn take_findings(&mut self) -> Vec<Finding> {
                self.v.flush()
            }
            $(
                fn $hook(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> bool {
                    let _ = &ctx;
                    lint_phase!(@call $needs_symbols, self, ctx, tree);
                    false
                }
            )+
        }
    };
    (@call true, $self:ident, $ctx:ident, $tree:ident) => {
        $self.v.visit(&$ctx.symbols, $tree)
    };
    (@call false, $self:ident, $ctx:ident, $tree:ident) => {
        $self.v.visit($tree)
    };
}

lint_phase!(
    /// L001/L002 — definitions never referenced in their defining unit.
    UnusedDefs, "lintUnused", "unused definitions and locals (L001/L002)",
    UnusedVisitor,
    needs_symbols: true,
    prepares: [
        ValDef => prepare_val_def,
        DefDef => prepare_def_def,
        Ident => prepare_ident,
        Select => prepare_select,
    ]
);

lint_phase!(
    /// L003 — statements after `return`/`throw`/jump terminators.
    Unreachable, "lintUnreachable", "unreachable statements (L003)",
    UnreachableVisitor,
    needs_symbols: false,
    prepares: [Block => prepare_block]
);

/// Runs the retired syntactic L004 core over one unit tree (standalone
/// pre-order walk). Exists solely as the comparison baseline for the
/// dominance tests; the shipped rule is [`dataflow::dataflow_findings`].
pub fn syntactic_use_before_assign(
    symbols: &SymbolTable,
    unit: &str,
    tree: &TreeRef,
) -> Vec<Finding> {
    let mut v = DefAssignVisitor::default();
    let mut stack: Vec<TreeRef> = vec![tree.clone()];
    while let Some(t) = stack.pop() {
        v.visit(symbols, &t);
        let mut kids: Vec<TreeRef> = Vec::new();
        t.for_each_child(&mut |c| kids.push(c.clone()));
        stack.extend(kids.into_iter().rev());
    }
    let mut out = v.flush();
    for f in &mut out {
        f.unit = unit.to_owned();
    }
    sort_findings(&mut out);
    out
}

/// Identity-keyed hand-off of [`dataflow::DceFacts`] from the dataflow
/// lint rule to the DCE phase within one phase list.
///
/// When both run in a pipeline, each solves the same two fixpoints over the
/// same unit CFGs; sharing the solved facts halves that cost. The cache is
/// keyed on **tree identity** (`Rc::ptr_eq`): lint rules are prepare-only,
/// so the tree `Dce::transform_unit` receives is the very node
/// `Dataflow::prepare_unit` analyzed — and if any executor mode ever hands
/// DCE a *different* tree, the lookup simply misses and DCE recomputes from
/// scratch, trading the speedup back for unconditional correctness.
/// Entries are consumed by [`FactCache::take`], so the cache never outlives
/// a unit's trip through the prefix group.
///
/// Clones share one store (`Rc`), which also makes the cache `!Send`: each
/// parallel worker builds its own phase list and its own cache.
#[derive(Clone, Default)]
pub struct FactCache {
    entries: std::rc::Rc<std::cell::RefCell<Vec<FactEntry>>>,
}

type FactEntry = (TreeRef, std::rc::Rc<dataflow::DceFacts>);

impl FactCache {
    /// A new, empty cache.
    pub fn new() -> FactCache {
        FactCache::default()
    }

    /// Stores `facts` for `tree` (identity-keyed).
    pub fn store(&self, tree: &TreeRef, facts: std::rc::Rc<dataflow::DceFacts>) {
        self.entries.borrow_mut().push((tree.clone(), facts));
    }

    /// Removes and returns the facts stored for exactly this tree node.
    pub fn take(&self, tree: &TreeRef) -> Option<std::rc::Rc<dataflow::DceFacts>> {
        let mut entries = self.entries.borrow_mut();
        let i = entries
            .iter()
            .position(|(t, _)| std::rc::Rc::ptr_eq(t, tree))?;
        Some(entries.swap_remove(i).1)
    }
}

/// L004/L006/L007 — the path-sensitive rules, packaged as a prepare-only
/// miniphase with an **empty** prepare mask: the whole-unit CFG + fixpoint
/// pass runs once per unit in [`MiniPhase::prepare_unit`] (before any
/// group member transforms the tree), so its findings are identical across
/// executors, pruning settings and fusion modes by construction.
#[derive(Default)]
pub struct Dataflow {
    findings: Vec<Finding>,
    cache: Option<FactCache>,
}

impl Dataflow {
    /// A dataflow rule that additionally publishes each unit's
    /// [`dataflow::DceFacts`] into `cache` for the DCE phase to consume,
    /// deriving findings and facts from one fixpoint solve
    /// ([`dataflow::analyze_unit`]).
    pub fn sharing_facts(cache: FactCache) -> Dataflow {
        Dataflow {
            findings: Vec::new(),
            cache: Some(cache),
        }
    }
}

impl PhaseInfo for Dataflow {
    fn name(&self) -> &str {
        "lintDataflow"
    }
    fn description(&self) -> &str {
        "CFG + fixpoint dataflow rules (L004/L006/L007)"
    }
}

impl MiniPhase for Dataflow {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::EMPTY
    }
    fn prepares(&self) -> NodeKindSet {
        NodeKindSet::EMPTY
    }
    fn prepare_unit(&mut self, ctx: &mut Ctx, unit_tree: &TreeRef) {
        match &self.cache {
            Some(cache) => {
                let (findings, facts) = dataflow::analyze_unit(&ctx.symbols, unit_tree);
                self.findings = findings;
                cache.store(unit_tree, std::rc::Rc::new(facts));
            }
            None => self.findings = dataflow::dataflow_findings(&ctx.symbols, unit_tree),
        }
    }
    fn take_findings(&mut self) -> Vec<Finding> {
        std::mem::take(&mut self.findings)
    }
}

lint_phase!(
    /// L005 — constant `if`/`while` conditions.
    ConstCond, "lintConstCond", "constant conditions (L005)",
    ConstCondVisitor,
    needs_symbols: false,
    prepares: [
        If => prepare_if,
        While => prepare_while,
    ]
);

/// Builds the full lint suite, in its canonical order. All four phases are
/// prepare-only and unconstrained, so a fusing plan folds them into a single
/// group (the driver prepends them to the standard pipeline via
/// [`miniphase::PhasePlan::with_prefix`]).
pub fn lint_phases() -> Vec<Box<dyn MiniPhase>> {
    vec![
        Box::new(UnusedDefs::default()),
        Box::new(Unreachable::default()),
        Box::new(Dataflow::default()),
        Box::new(ConstCond::default()),
    ]
}

/// [`lint_phases`] with the dataflow rule publishing per-unit
/// [`dataflow::DceFacts`] into `cache` — for pipelines that also run
/// [`dce::Dce::consuming_facts`] so the unit's fixpoints are solved once.
pub fn lint_phases_sharing(cache: FactCache) -> Vec<Box<dyn MiniPhase>> {
    vec![
        Box::new(UnusedDefs::default()),
        Box::new(Unreachable::default()),
        Box::new(Dataflow::sharing_facts(cache)),
        Box::new(ConstCond::default()),
    ]
}

/// Number of phases [`lint_phases`] builds.
pub const LINT_PHASE_COUNT: usize = 4;

/// The union of every lint rule's prepare mask — what the suite adds to a
/// fusion group's subtree-pruning mask. The dataflow phase contributes
/// nothing here: its whole-unit walk runs in `prepare_unit`, outside the
/// pruned traversal.
pub fn lint_mask() -> NodeKindSet {
    NodeKindSet::EMPTY
        .with(NodeKind::ValDef)
        .with(NodeKind::DefDef)
        .with(NodeKind::Ident)
        .with(NodeKind::Select)
        .with(NodeKind::Block)
        .with(NodeKind::If)
        .with(NodeKind::While)
}

/// Runs the whole lint suite over one unit tree with a plain standalone
/// pre-order walk — no miniphase machinery at all. This is both the
/// reference implementation the equivalence property tests pin the fused
/// executors against, and the baseline the `ab` bench compares the fused
/// marginal cost to. Findings are stamped with `unit` and canonically
/// sorted.
pub fn lint_unit(symbols: &SymbolTable, unit: &str, tree: &TreeRef) -> Vec<Finding> {
    let mut unused = UnusedVisitor::default();
    let mut unreachable = UnreachableVisitor::default();
    let mut constcond = ConstCondVisitor::default();

    // Explicit-stack pre-order DFS, same arrival order as the executors'
    // prepare dispatch (children in `for_each_child` order).
    let mut stack: Vec<TreeRef> = vec![tree.clone()];
    while let Some(t) = stack.pop() {
        unused.visit(symbols, &t);
        unreachable.visit(&t);
        constcond.visit(&t);
        let mut kids: Vec<TreeRef> = Vec::new();
        t.for_each_child(&mut |c| kids.push(c.clone()));
        stack.extend(kids.into_iter().rev());
    }

    let mut out = unused.flush();
    out.extend(unreachable.flush());
    out.extend(dataflow::dataflow_findings(symbols, tree));
    out.extend(constcond.flush());
    for f in &mut out {
        f.unit = unit.to_owned();
    }
    sort_findings(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_ir::{Constant, Type};
    use miniphase::{build_plan, CompilationUnit, FusionOptions, Pipeline, PlanOptions};

    fn sp(start: u32, end: u32) -> Span {
        Span { start, end }
    }

    /// Builds a method symbol under root and returns it.
    fn method(ctx: &mut Ctx, name: &str) -> SymbolId {
        let root = ctx.symbols.builtins().root_pkg;
        ctx.symbols
            .new_term(root, mini_ir::Name::intern(name), Flags::METHOD, Type::Int)
    }

    fn local(ctx: &mut Ctx, owner: SymbolId, name: &str) -> SymbolId {
        ctx.symbols
            .new_term(owner, mini_ir::Name::intern(name), Flags::EMPTY, Type::Int)
    }

    #[test]
    fn unused_def_and_local_span_exact() {
        let mut ctx = Ctx::new();
        let m = method(&mut ctx, "m");
        let dead = local(&mut ctx, m, "dead");
        let live = local(&mut ctx, m, "live");
        let root = ctx.symbols.builtins().root_pkg;
        let top = ctx.symbols.new_term(
            root,
            mini_ir::Name::intern("topDead"),
            Flags::EMPTY,
            Type::Int,
        );

        let one = ctx.lit_int(1);
        let dead_def = ctx.mk(
            TreeKind::ValDef {
                sym: dead,
                rhs: one,
            },
            Type::Nothing,
            sp(10, 20),
        );
        let two = ctx.lit_int(2);
        let live_def = ctx.mk(
            TreeKind::ValDef {
                sym: live,
                rhs: two,
            },
            Type::Nothing,
            sp(21, 30),
        );
        let live_use = ctx.mk(TreeKind::Ident { sym: live }, Type::Int, sp(31, 35));
        let body = ctx.mk(
            TreeKind::Block {
                stats: mini_ir::Kids::from(vec![dead_def, live_def]),
                expr: live_use,
            },
            Type::Int,
            sp(9, 36),
        );
        let mdef = ctx.mk(
            TreeKind::DefDef {
                sym: m,
                paramss: vec![],
                rhs: body,
            },
            Type::Nothing,
            sp(0, 40),
        );
        let five = ctx.lit_int(5);
        let top_def = ctx.mk(
            TreeKind::ValDef {
                sym: top,
                rhs: five,
            },
            Type::Nothing,
            sp(41, 50),
        );
        let m_use = ctx.mk(TreeKind::Ident { sym: m }, Type::Int, sp(51, 52));
        let tree = ctx.mk(
            TreeKind::Block {
                stats: mini_ir::Kids::from(vec![mdef, top_def]),
                expr: m_use,
            },
            Type::Int,
            sp(0, 53),
        );

        let found = lint_unit(&ctx.symbols, "t.ms", &tree);
        let unused: Vec<_> = found
            .iter()
            .filter(|f| f.rule == RULE_UNUSED_LOCAL || f.rule == RULE_UNUSED_DEF)
            .collect();
        assert_eq!(unused.len(), 2, "found: {found:?}");
        assert_eq!(unused[0].rule, RULE_UNUSED_LOCAL);
        assert_eq!(unused[0].span, sp(10, 20));
        assert_eq!(unused[0].node_kind, NodeKind::ValDef);
        assert!(unused[0].msg.contains("`dead`"));
        assert_eq!(unused[1].rule, RULE_UNUSED_DEF);
        assert_eq!(unused[1].span, sp(41, 50));
        assert!(unused[1].msg.contains("`topDead`"));
    }

    #[test]
    fn unreachable_after_return_span_exact() {
        let mut ctx = Ctx::new();
        let m = method(&mut ctx, "m");
        let one = ctx.lit_int(1);
        let ret = ctx.mk(
            TreeKind::Return { expr: one, from: m },
            Type::Nothing,
            sp(5, 14),
        );
        let dead = ctx.mk(
            TreeKind::Literal {
                value: Constant::Int(9),
            },
            Type::Int,
            sp(15, 16),
        );
        let unit_lit = ctx.lit_unit();
        let blk = ctx.mk(
            TreeKind::Block {
                stats: mini_ir::Kids::from(vec![ret, dead]),
                expr: unit_lit,
            },
            Type::Int,
            sp(0, 20),
        );
        let found = lint_unit(&ctx.symbols, "t.ms", &blk);
        let hits: Vec<_> = found
            .iter()
            .filter(|f| f.rule == RULE_UNREACHABLE)
            .collect();
        assert_eq!(hits.len(), 1, "found: {found:?}");
        assert_eq!(hits[0].span, sp(15, 16));
        assert_eq!(hits[0].node_kind, NodeKind::Literal);
        assert!(hits[0].msg.contains("`return`"));
        assert_eq!(hits[0].severity, Severity::Warning);
    }

    #[test]
    fn unreachable_anchors_on_result_expr_when_no_trailing_stat() {
        let mut ctx = Ctx::new();
        let e = ctx.lit_unit();
        let thrown = ctx.mk(TreeKind::Throw { expr: e }, Type::Nothing, sp(0, 9));
        let result = ctx.mk(
            TreeKind::Literal {
                value: Constant::Int(3),
            },
            Type::Int,
            sp(10, 11),
        );
        let blk = ctx.mk(
            TreeKind::Block {
                stats: mini_ir::Kids::from(vec![thrown]),
                expr: result,
            },
            Type::Int,
            sp(0, 12),
        );
        let found = lint_unit(&ctx.symbols, "t.ms", &blk);
        let hits: Vec<_> = found
            .iter()
            .filter(|f| f.rule == RULE_UNREACHABLE)
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].span, sp(10, 11));
        assert!(hits[0].msg.contains("`throw`"));
    }

    #[test]
    fn use_before_assign_span_exact() {
        let mut ctx = Ctx::new();
        let m = method(&mut ctx, "m");
        let x = local(&mut ctx, m, "x");
        let empty = ctx.mk(TreeKind::Empty, Type::Nothing, Span::SYNTHETIC);
        let decl = ctx.mk(
            TreeKind::ValDef { sym: x, rhs: empty },
            Type::Nothing,
            sp(0, 8),
        );
        let bad_use = ctx.mk(TreeKind::Ident { sym: x }, Type::Int, sp(9, 10));
        let assigned = ctx.mk(TreeKind::Ident { sym: x }, Type::Int, sp(11, 12));
        let seven = ctx.lit_int(7);
        let assign = ctx.mk(
            TreeKind::Assign {
                lhs: assigned,
                rhs: seven,
            },
            Type::Nothing,
            sp(11, 16),
        );
        let ok_use = ctx.mk(TreeKind::Ident { sym: x }, Type::Int, sp(17, 18));
        let body = ctx.mk(
            TreeKind::Block {
                stats: mini_ir::Kids::from(vec![decl, bad_use, assign]),
                expr: ok_use,
            },
            Type::Int,
            sp(0, 19),
        );
        let mdef = ctx.mk(
            TreeKind::DefDef {
                sym: m,
                paramss: vec![],
                rhs: body,
            },
            Type::Nothing,
            sp(0, 20),
        );
        let found = lint_unit(&ctx.symbols, "t.ms", &mdef);
        let hits: Vec<_> = found
            .iter()
            .filter(|f| f.rule == RULE_USE_BEFORE_ASSIGN)
            .collect();
        assert_eq!(hits.len(), 1, "found: {found:?}");
        assert_eq!(hits[0].span, sp(9, 10));
        assert_eq!(hits[0].severity, Severity::Error);
        assert!(hits[0].msg.contains("`x`"));
    }

    #[test]
    fn const_cond_if_and_while() {
        let mut ctx = Ctx::new();
        let t_lit = ctx.lit(Constant::Bool(true), sp(3, 7));
        let one = ctx.lit_int(1);
        let two = ctx.lit_int(2);
        let iff = ctx.mk(
            TreeKind::If {
                cond: t_lit,
                then_branch: one,
                else_branch: two,
            },
            Type::Int,
            sp(0, 12),
        );
        let f_lit = ctx.lit(Constant::Bool(false), sp(19, 24));
        let unit_lit = ctx.lit_unit();
        let wh = ctx.mk(
            TreeKind::While {
                cond: f_lit,
                body: unit_lit,
            },
            Type::Nothing,
            sp(13, 30),
        );
        // `while (true)` is idiom — not reported.
        let t_lit2 = ctx.lit(Constant::Bool(true), sp(35, 39));
        let unit_lit2 = ctx.lit_unit();
        let wh_true = ctx.mk(
            TreeKind::While {
                cond: t_lit2,
                body: unit_lit2,
            },
            Type::Nothing,
            sp(31, 45),
        );
        let unit_lit3 = ctx.lit_unit();
        let blk = ctx.mk(
            TreeKind::Block {
                stats: mini_ir::Kids::from(vec![iff, wh, wh_true]),
                expr: unit_lit3,
            },
            Type::Int,
            sp(0, 46),
        );
        let found = lint_unit(&ctx.symbols, "t.ms", &blk);
        let hits: Vec<_> = found.iter().filter(|f| f.rule == RULE_CONST_COND).collect();
        assert_eq!(hits.len(), 2, "found: {found:?}");
        assert_eq!(hits[0].span, sp(0, 12));
        assert_eq!(hits[0].node_kind, NodeKind::If);
        assert!(hits[0].msg.contains("always true"));
        assert_eq!(hits[1].span, sp(13, 30));
        assert_eq!(hits[1].node_kind, NodeKind::While);
        assert_eq!(hits[1].msg, "loop body never runs");
    }

    #[test]
    fn fused_pipeline_matches_standalone_walk() {
        // One tree exercising every rule, run through the real fused
        // executor as a prepare-only group; harvested findings must match
        // the standalone walker's canonically-sorted stream.
        let mut ctx = Ctx::new();
        let m = method(&mut ctx, "m");
        let dead = local(&mut ctx, m, "dead");
        let one = ctx.lit_int(1);
        let dead_def = ctx.mk(
            TreeKind::ValDef {
                sym: dead,
                rhs: one,
            },
            Type::Nothing,
            sp(10, 20),
        );
        let t_lit = ctx.lit(Constant::Bool(false), sp(25, 30));
        let two = ctx.lit_int(2);
        let three = ctx.lit_int(3);
        let iff = ctx.mk(
            TreeKind::If {
                cond: t_lit,
                then_branch: two,
                else_branch: three,
            },
            Type::Int,
            sp(21, 35),
        );
        let four = ctx.lit_int(4);
        let ret = ctx.mk(
            TreeKind::Return {
                expr: four,
                from: m,
            },
            Type::Nothing,
            sp(36, 45),
        );
        let dead_stat = ctx.lit_int(5);
        let unit_lit = ctx.lit_unit();
        let body = ctx.mk(
            TreeKind::Block {
                stats: mini_ir::Kids::from(vec![dead_def, iff, ret, dead_stat]),
                expr: unit_lit,
            },
            Type::Int,
            sp(9, 50),
        );
        let mdef = ctx.mk(
            TreeKind::DefDef {
                sym: m,
                paramss: vec![],
                rhs: body,
            },
            Type::Nothing,
            sp(0, 55),
        );
        let m_use = ctx.mk(TreeKind::Ident { sym: m }, Type::Int, sp(56, 57));
        let tree = ctx.mk(
            TreeKind::Block {
                stats: mini_ir::Kids::from(vec![mdef]),
                expr: m_use,
            },
            Type::Int,
            sp(0, 58),
        );

        let expected = lint_unit(&ctx.symbols, "t.ms", &tree);
        assert!(
            expected.iter().any(|f| f.rule == RULE_UNUSED_LOCAL)
                && expected.iter().any(|f| f.rule == RULE_CONST_COND)
                && expected.iter().any(|f| f.rule == RULE_UNREACHABLE),
            "fixture covers multiple rules: {expected:?}"
        );

        let phases = lint_phases();
        let plan = build_plan(&phases, &PlanOptions::default()).expect("lint plan");
        assert_eq!(plan.group_count(), 1, "suite fuses into one group");
        let mut pipe = Pipeline::new(phases, &plan, FusionOptions::default());
        let _ = pipe.run_unit(&mut ctx, CompilationUnit::new("t.ms", tree));
        let mut fused = std::mem::take(&mut pipe.findings);
        sort_findings(&mut fused);
        assert_eq!(fused, expected);
    }
}
