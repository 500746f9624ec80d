//! The dynamic tree checker (paper §6.3, Listing 9).
//!
//! During testing, a checker pass runs between phase groups. It first checks
//! *global* invariants that must hold between any two phases — types are
//! consistent with a bottom-up reconstruction, no double definitions, names
//! are valid for the backend, no orphan (missing) types — and then replays
//! the `check_post_condition` of **every phase run so far**, so that "if a
//! postcondition of phase X fails after executing phase Y, we know
//! immediately that phase Y breaks the invariant that phase X is intended to
//! establish".

use crate::mini::MiniPhase;
use crate::unit::CompilationUnit;
use mini_ir::{visit, Ctx, NodeKind, Span, TreeKind, TreeRef, Type};

/// One checker finding, attributed to the phase whose invariant failed.
///
/// Findings locate the offending node by **span and kind**, not by raw
/// `NodeId`: node ids are allocator artifacts that differ between the
/// sequential pipeline and every parallel run, while spans and kinds
/// are preserved byte-for-byte by the cross-arena tree import — which is
/// what lets `jobs ∈ {2,4,8}` produce checker diagnostics identical to
/// `jobs = 1` (a proptest-pinned guarantee).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckFailure {
    /// Name of the phase whose postcondition failed, or `"global"`.
    pub phase: String,
    /// The offending unit.
    pub unit: String,
    /// The offending node's source location.
    pub span: Span,
    /// The offending node's kind.
    pub node_kind: NodeKind,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} {:?}@{}: {}",
            self.phase, self.unit, self.node_kind, self.span, self.msg
        )
    }
}

/// How serious a static-analysis [`Finding`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// The program is valid but suspicious (dead code, unused definitions).
    Warning,
    /// The program is very likely wrong (use before assignment).
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One static-analysis finding, emitted by a prepare-only lint miniphase.
///
/// The same location discipline as [`CheckFailure`]: findings locate the
/// offending node by **span and kind**, never by raw `NodeId` — node ids
/// are allocator artifacts that differ between the sequential pipeline and
/// every parallel run, while spans and kinds survive cross-arena tree
/// imports byte-for-byte. That is what lets lint findings stay identical
/// across fused/mega × jobs × pruning × incremental (proptest-pinned).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule code (`"L001"`-style).
    pub rule: &'static str,
    /// Warning or error.
    pub severity: Severity,
    /// The unit the finding is in (stamped by the executor at harvest).
    pub unit: String,
    /// The offending node's source location.
    pub span: Span,
    /// The offending node's kind.
    pub node_kind: NodeKind,
    /// Human-readable description.
    pub msg: String,
}

impl Finding {
    /// The canonical sort key — `(unit, span, rule, kind, msg)`. Sorting by
    /// this key makes finding lists order-identical across every executor,
    /// parallel run and incremental splice, because the *set* of
    /// findings depends only on each unit's own pre-transform tree.
    pub fn sort_key(&self) -> (&str, u32, u32, &'static str, u8, &str) {
        (
            self.unit.as_str(),
            self.span.start,
            self.span.end,
            self.rule,
            self.node_kind as u8,
            self.msg.as_str(),
        )
    }
}

/// Sorts findings into the canonical client-facing order (see
/// [`Finding::sort_key`]).
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {} {:?}@{}: {}",
            self.severity, self.rule, self.unit, self.node_kind, self.span, self.msg
        )
    }
}

/// Characters legal in backend (JVM-style) member names; `<init>` is the
/// blessed exception.
fn valid_backend_name(name: &str) -> bool {
    name == "<init>" || !name.contains(['.', ';', '[', '/', '<', '>'])
}

/// Checks one compilation unit: global invariants plus the postconditions of
/// all `prev_phases`. Returns every failure found (empty means clean).
pub fn check_unit(
    prev_phases: &[&dyn MiniPhase],
    ctx: &Ctx,
    unit: &CompilationUnit,
) -> Vec<CheckFailure> {
    let mut failures = Vec::new();
    let fail = |phase: &str, t: &TreeRef, msg: String, out: &mut Vec<CheckFailure>| {
        out.push(CheckFailure {
            phase: phase.to_owned(),
            unit: unit.name.clone(),
            span: t.span(),
            node_kind: t.node_kind(),
            msg,
        });
    };

    visit::for_each_subtree(&unit.tree, &mut |t| {
        // ---- global invariants (Listing 9's non-phase-specific checks) ----
        if let Some(msg) = orphan_type_check(t) {
            fail("global", t, msg, &mut failures);
        }
        if let Some(msg) = retype_check(ctx, t) {
            fail("global", t, msg, &mut failures);
        }
        if let Some(msg) = double_definition_check(ctx, t) {
            fail("global", t, msg, &mut failures);
        }
        if let Some(msg) = backend_name_check(ctx, t) {
            fail("global", t, msg, &mut failures);
        }
        // ---- accumulated phase postconditions ----
        for p in prev_phases {
            if let Err(msg) = p.check_post_condition(ctx, t) {
                fail(p.name(), t, msg, &mut failures);
            }
        }
    });
    failures
}

/// `checkNoOrphanTypes`: every expression node carries a type.
fn orphan_type_check(t: &TreeRef) -> Option<String> {
    match t.kind() {
        // Definition/structural nodes and patterns may legitimately be
        // untyped or unit-typed; `Empty` is the untyped hole.
        TreeKind::Empty | TreeKind::PackageDef { .. } => None,
        TreeKind::Unresolved { name } => Some(format!(
            "unresolved identifier `{name}` survived the frontend"
        )),
        _ => {
            if t.tpe().is_missing() {
                Some(format!("orphan type on {:?} node", t.node_kind()))
            } else {
                None
            }
        }
    }
}

/// The re-type check: recompute the type expected from the children and
/// compare with the stored type (Listing 9 strips and re-types the tree; we
/// check the defining equations directly, which catches the same class of
/// inconsistencies without a full typer dependency).
fn retype_check(ctx: &Ctx, t: &TreeRef) -> Option<String> {
    let sym = &ctx.symbols;
    match t.kind() {
        TreeKind::Block { expr, .. } => {
            if expr.is_empty_tree() {
                return None;
            }
            let expected = expr.tpe();
            if expected.is_missing() || matches!(expected, Type::Nothing) {
                return None;
            }
            if !sym.is_subtype(expected, t.tpe()) && *t.tpe() != Type::Unit {
                return Some(format!(
                    "block typed {} but its result expression has type {}",
                    t.tpe(),
                    expected
                ));
            }
            None
        }
        TreeKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            for b in [then_branch, else_branch] {
                if b.is_empty_tree() || b.tpe().is_missing() {
                    continue;
                }
                if matches!(b.tpe(), Type::Nothing) {
                    continue;
                }
                if !sym.is_subtype(b.tpe(), t.tpe()) && *t.tpe() != Type::Unit {
                    return Some(format!(
                        "if-branch of type {} does not conform to node type {}",
                        b.tpe(),
                        t.tpe()
                    ));
                }
            }
            None
        }
        TreeKind::Assign { .. } | TreeKind::While { .. } => {
            if *t.tpe() != Type::Unit {
                Some(format!(
                    "{:?} must have type Unit, has {}",
                    t.node_kind(),
                    t.tpe()
                ))
            } else {
                None
            }
        }
        TreeKind::Literal { value } => {
            let expected = match value {
                mini_ir::Constant::Unit => Type::Unit,
                mini_ir::Constant::Bool(_) => Type::Boolean,
                mini_ir::Constant::Int(_) => Type::Int,
                mini_ir::Constant::Str(_) => Type::Str,
                mini_ir::Constant::Null => Type::Null,
            };
            if *t.tpe() != expected {
                Some(format!(
                    "literal {value} typed {} instead of {expected}",
                    t.tpe()
                ))
            } else {
                None
            }
        }
        TreeKind::Cast { tpe, .. } | TreeKind::Typed { tpe, .. } => {
            if t.tpe() != tpe && !sym.is_subtype(tpe, t.tpe()) {
                Some(format!(
                    "ascription/cast to {tpe} but node typed {}",
                    t.tpe()
                ))
            } else {
                None
            }
        }
        TreeKind::IsInstance { .. } => {
            if *t.tpe() != Type::Boolean {
                Some(format!("isInstanceOf must be Boolean, has {}", t.tpe()))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// `checkNoDoubleDefinitions`: no two definitions in one scope bind the same
/// symbol.
fn double_definition_check(ctx: &Ctx, t: &TreeRef) -> Option<String> {
    let stats: &[TreeRef] = match t.kind() {
        TreeKind::Block { stats, .. } => stats,
        TreeKind::ClassDef { body, .. } => body,
        _ => return None,
    };
    let mut seen = Vec::new();
    for s in stats {
        let d = s.def_sym();
        if d.exists() {
            if seen.contains(&d) {
                return Some(format!(
                    "double definition of `{}` in one scope",
                    ctx.symbols.full_name(d)
                ));
            }
            seen.push(d);
        }
    }
    None
}

/// `checkValidJVMNames`: definitions that will reach the backend must have
/// encodable names.
fn backend_name_check(ctx: &Ctx, t: &TreeRef) -> Option<String> {
    let d = t.def_sym();
    if !d.exists() {
        return None;
    }
    let name = ctx.symbols.sym(d).name.as_str();
    if valid_backend_name(name) {
        None
    } else {
        Some(format!("`{name}` is not a valid backend name"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mini::{MiniPhase, PhaseInfo};
    use mini_ir::{Flags, Name, NodeKindSet, Span};

    struct NoIntLiterals;
    impl PhaseInfo for NoIntLiterals {
        fn name(&self) -> &str {
            "noIntLiterals"
        }
    }
    impl MiniPhase for NoIntLiterals {
        fn transforms(&self) -> NodeKindSet {
            NodeKindSet::EMPTY
        }
        fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
            if let TreeKind::Literal { value } = t.kind() {
                if value.as_int().is_some() {
                    return Err("int literal survived".into());
                }
            }
            Ok(())
        }
    }

    #[test]
    fn clean_tree_passes() {
        let mut ctx = Ctx::new();
        let a = ctx.lit_int(1);
        let b = ctx.lit_int(2);
        let tree = ctx.block(vec![a], b);
        let unit = CompilationUnit::new("u", tree);
        assert!(check_unit(&[], &ctx, &unit).is_empty());
    }

    #[test]
    fn postcondition_failures_name_the_phase() {
        let mut ctx = Ctx::new();
        let t = ctx.lit_int(7);
        let unit = CompilationUnit::new("u", t);
        let ph = NoIntLiterals;
        let fails = check_unit(&[&ph], &ctx, &unit);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].phase, "noIntLiterals");
        assert!(fails[0].to_string().contains("int literal"));
    }

    #[test]
    fn retype_check_catches_bad_literal_type() {
        let mut ctx = Ctx::new();
        let bad = ctx.mk(
            TreeKind::Literal {
                value: mini_ir::Constant::Int(3),
            },
            Type::Boolean, // wrong on purpose
            Span::SYNTHETIC,
        );
        let unit = CompilationUnit::new("u", bad);
        let fails = check_unit(&[], &ctx, &unit);
        assert!(fails
            .iter()
            .any(|f| f.phase == "global" && f.msg.contains("literal")));
    }

    #[test]
    fn unresolved_after_frontend_is_an_orphan() {
        let mut ctx = Ctx::new();
        let u = ctx.mk(
            TreeKind::Unresolved {
                name: Name::from("mystery"),
            },
            Type::NoType,
            Span::SYNTHETIC,
        );
        let unit = CompilationUnit::new("u", u);
        let fails = check_unit(&[], &ctx, &unit);
        assert!(fails.iter().any(|f| f.msg.contains("unresolved")));
    }

    #[test]
    fn double_definitions_are_reported() {
        let mut ctx = Ctx::new();
        let root = ctx.symbols.builtins().root_pkg;
        let s = ctx
            .symbols
            .new_term(root, Name::from("x"), Flags::EMPTY, Type::Int);
        let r1 = ctx.lit_int(1);
        let r2 = ctx.lit_int(2);
        let v1 = ctx.val_def(s, r1);
        let v2 = ctx.val_def(s, r2);
        let e = ctx.lit_unit();
        let tree = ctx.block(vec![v1, v2], e);
        let unit = CompilationUnit::new("u", tree);
        let fails = check_unit(&[], &ctx, &unit);
        assert!(fails.iter().any(|f| f.msg.contains("double definition")));
    }

    #[test]
    fn invalid_backend_names_are_reported() {
        let mut ctx = Ctx::new();
        let root = ctx.symbols.builtins().root_pkg;
        let s = ctx
            .symbols
            .new_term(root, Name::from("has.dot"), Flags::EMPTY, Type::Int);
        let r = ctx.lit_int(1);
        let vd = ctx.val_def(s, r);
        let unit = CompilationUnit::new("u", vd);
        let fails = check_unit(&[], &ctx, &unit);
        assert!(fails.iter().any(|f| f.msg.contains("valid backend name")));
        // <init> is allowed.
        assert!(valid_backend_name("<init>"));
        assert!(!valid_backend_name("foo<bar"));
    }
}
