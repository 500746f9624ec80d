//! `PatternMatcher` — compiles `match` expressions (and catch-case patterns)
//! into chains of type tests, binder vals and fall-through local defs.
//!
//! This is the paper's canonical example of a phase that forces a fusion
//! group boundary (§6.2.1): it "makes major changes to the structure of the
//! trees", so it declares `runs_after_groups_of(TailRec)` — tail-recursion
//! rewriting must have finished the whole unit before pattern matching
//! compiles the cases.
//!
//! Translation scheme for `sel match { case p1 if g1 => b1; ... }` of type
//! `T`:
//!
//! ```text
//! {
//!   val sel$ = sel
//!   def case$n(): T = throw "MatchError..."       // fallback
//!   def case$i(): T =
//!     if (<test p_i on sel$>) { <binders>; if (g_i) b_i else case$i+1() }
//!     else case$i+1()
//!   case$1()
//! }
//! ```
//!
//! The nested defs are later lifted by `LambdaLift`. Catch clauses are
//! compiled to the backend contract: a single catch-all binder whose body is
//! the compiled match over the exception, rethrowing when nothing applies.

use crate::util::OwnerStack;
use mini_ir::{
    Constant, Ctx, Flags, Name, NodeKind, NodeKindSet, SymbolId, TreeKind, TreeRef, Type, TypeList,
};
use miniphase::{MiniPhase, PhaseInfo};
use std::sync::Arc;

/// The pattern-match compilation phase.
#[derive(Default)]
pub struct PatternMatcher {
    owners: OwnerStack,
}

impl PhaseInfo for PatternMatcher {
    fn name(&self) -> &str {
        "patternMatcher"
    }
    fn description(&self) -> &str {
        "compile pattern matches"
    }
}

impl PatternMatcher {
    fn owner(&self, ctx: &Ctx) -> SymbolId {
        let cur = self.owners.current();
        if cur.exists() {
            cur
        } else {
            ctx.symbols.builtins().root_pkg
        }
    }

    /// Builds the boolean test for `pat` against `sel`, and appends binder
    /// vals to `binds`.
    fn test_for(
        &self,
        ctx: &mut Ctx,
        pat: &TreeRef,
        sel: SymbolId,
        binds: &mut Vec<TreeRef>,
    ) -> TreeRef {
        match pat.kind() {
            TreeKind::Literal { value } => {
                let sel_ref = ctx.ident(sel);
                let lit = ctx.lit(*value, pat.span());
                let m = Type::Method {
                    params: [TypeList::from([Type::Any])].into(),
                    ret: Arc::new(Type::Boolean),
                };
                let sel_eq = ctx.select(sel_ref, Name::intern("=="), SymbolId::NONE, m);
                ctx.apply(sel_eq, vec![lit], Type::Boolean)
            }
            TreeKind::Typed { tpe, .. } => {
                if matches!(tpe, Type::Any) {
                    ctx.lit_bool(true)
                } else {
                    let sel_ref = ctx.ident(sel);
                    ctx.mk(
                        TreeKind::IsInstance {
                            expr: sel_ref,
                            tpe: tpe.clone(),
                        },
                        Type::Boolean,
                        pat.span(),
                    )
                }
            }
            TreeKind::Bind { sym, pat: inner } => {
                let test = self.test_for(ctx, inner, sel, binds);
                // Bind the selected value, cast to the pattern type.
                let target_t = ctx.symbols.info(*sym).into_owned();
                let sel_ref = ctx.ident(sel);
                let value = if matches!(target_t, Type::Any) {
                    sel_ref
                } else {
                    ctx.mk(
                        TreeKind::Cast {
                            expr: sel_ref,
                            tpe: target_t.clone(),
                        },
                        target_t,
                        pat.span(),
                    )
                };
                binds.push(ctx.val_def(*sym, value));
                test
            }
            TreeKind::Alternative { pats } => {
                let mut acc: Option<TreeRef> = None;
                for p in pats {
                    let t = self.test_for(ctx, p, sel, binds);
                    acc = Some(match acc {
                        None => t,
                        Some(prev) => {
                            let m = Type::Method {
                                params: [TypeList::from([Type::Boolean])].into(),
                                ret: Arc::new(Type::Boolean),
                            };
                            let or = ctx.select(prev, Name::intern("||"), SymbolId::NONE, m);
                            ctx.apply(or, vec![t], Type::Boolean)
                        }
                    });
                }
                acc.unwrap_or_else(|| ctx.lit_bool(false))
            }
            // A bare reference/literal pattern already lowered, or anything
            // unexpected: equality test.
            _ => {
                let sel_ref = ctx.ident(sel);
                let m = Type::Method {
                    params: [TypeList::from([Type::Any])].into(),
                    ret: Arc::new(Type::Boolean),
                };
                let eq = ctx.select(sel_ref, Name::intern("=="), SymbolId::NONE, m);
                ctx.apply(eq, vec![pat.clone()], Type::Boolean)
            }
        }
    }

    /// Compiles a full match into the block described in the module docs.
    fn translate_match(
        &mut self,
        ctx: &mut Ctx,
        selector: &TreeRef,
        cases: &[TreeRef],
        result_t: &Type,
        span: mini_ir::Span,
        fallback: Fallback,
    ) -> TreeRef {
        let owner = self.owner(ctx);
        let sel_name = ctx.fresh_name("sel");
        let sel_sym =
            ctx.symbols
                .new_term(owner, sel_name, Flags::SYNTHETIC, selector.tpe().clone());
        let sel_def = ctx.val_def(sel_sym, selector.clone());

        // Fallback def.
        let fb_body = match fallback {
            Fallback::MatchError => {
                let msg = ctx.lit(Constant::Str(Name::intern("MatchError")), span);
                ctx.mk(TreeKind::Throw { expr: msg }, Type::Nothing, span)
            }
            Fallback::Rethrow => {
                let sel_ref = ctx.ident(sel_sym);
                ctx.mk(TreeKind::Throw { expr: sel_ref }, Type::Nothing, span)
            }
        };
        let mut defs: Vec<TreeRef> = Vec::with_capacity(cases.len() + 1);
        let mk_case_sym = |ctx: &mut Ctx, this: &PatternMatcher, i: usize| {
            let name = ctx.fresh_name(&format!("case{i}"));
            ctx.symbols.new_term(
                this.owner(ctx),
                name,
                Flags::METHOD | Flags::SYNTHETIC,
                Type::Method {
                    params: [TypeList::new()].into(),
                    ret: Arc::new(result_t.clone()),
                },
            )
        };
        let fb_sym = mk_case_sym(ctx, self, cases.len());
        defs.push(ctx.mk(
            TreeKind::DefDef {
                sym: fb_sym,
                paramss: vec![vec![]],
                rhs: fb_body,
            },
            Type::Unit,
            span,
        ));
        // Build cases back to front.
        let mut next = fb_sym;
        for (i, c) in cases.iter().enumerate().rev() {
            let TreeKind::CaseDef { pat, guard, body } = c.kind() else {
                continue;
            };
            let sym = mk_case_sym(ctx, self, i);
            let mut binds = Vec::new();
            let test = self.test_for(ctx, pat, sel_sym, &mut binds);
            let call_next = |ctx: &mut Ctx, next: SymbolId| {
                let f = ctx.ident(next);
                ctx.apply(f, vec![], result_t.clone())
            };
            let success: TreeRef = if guard.is_empty_tree() {
                body.clone()
            } else {
                let else_b = call_next(ctx, next);
                ctx.mk(
                    TreeKind::If {
                        cond: guard.clone(),
                        then_branch: body.clone(),
                        else_branch: else_b,
                    },
                    result_t.clone(),
                    c.span(),
                )
            };
            let then_b = if binds.is_empty() {
                success
            } else {
                let tpe = success.tpe().clone();
                ctx.mk(
                    TreeKind::Block {
                        stats: binds.into(),
                        expr: success,
                    },
                    tpe,
                    c.span(),
                )
            };
            let else_b = call_next(ctx, next);
            let case_body = ctx.mk(
                TreeKind::If {
                    cond: test,
                    then_branch: then_b,
                    else_branch: else_b,
                },
                result_t.clone(),
                c.span(),
            );
            defs.push(ctx.mk(
                TreeKind::DefDef {
                    sym,
                    paramss: vec![vec![]],
                    rhs: case_body,
                },
                Type::Unit,
                c.span(),
            ));
            next = sym;
        }
        let entry = ctx.ident(next);
        let call = ctx.apply(entry, vec![], result_t.clone());
        let mut stats = vec![sel_def];
        stats.extend(defs.into_iter().rev());
        ctx.mk(
            TreeKind::Block {
                stats: stats.into(),
                expr: call,
            },
            result_t.clone(),
            span,
        )
    }
}

enum Fallback {
    MatchError,
    Rethrow,
}

impl MiniPhase for PatternMatcher {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::Match).with(NodeKind::Try)
    }

    fn prepares(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::DefDef).with(NodeKind::ClassDef)
    }

    fn runs_after_groups_of(&self) -> Vec<&'static str> {
        vec!["tailRec"]
    }

    fn prepare_def_def(&mut self, _ctx: &mut Ctx, t: &TreeRef) -> bool {
        self.owners.push(t.def_sym());
        true
    }

    fn prepare_class_def(&mut self, _ctx: &mut Ctx, t: &TreeRef) -> bool {
        self.owners.push(t.def_sym());
        true
    }

    fn finish_prepared(&mut self, _ctx: &mut Ctx, _t: &TreeRef) {
        self.owners.pop();
    }

    fn transform_match(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Match { selector, cases } = tree.kind() else {
            return tree.clone();
        };
        let t = tree.tpe().clone();
        self.translate_match(
            ctx,
            &selector.clone(),
            &cases.clone(),
            &t,
            tree.span(),
            Fallback::MatchError,
        )
    }

    fn transform_try(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Try {
            block,
            cases,
            finalizer,
        } = tree.kind()
        else {
            return tree.clone();
        };
        if cases.is_empty() {
            return tree.clone();
        }
        // Already lowered to the single-binder form?
        if cases.len() == 1 {
            if let TreeKind::CaseDef { pat, guard, .. } = cases[0].kind() {
                if guard.is_empty_tree() {
                    if let TreeKind::Bind { pat: inner, .. } = pat.kind() {
                        if matches!(inner.kind(), TreeKind::Typed { tpe: Type::Any, .. }) {
                            return tree.clone();
                        }
                    }
                }
            }
        }
        let t = tree.tpe().clone();
        let owner = self.owner(ctx);
        let exc_name = ctx.fresh_name("exc");
        let exc = ctx
            .symbols
            .new_term(owner, exc_name, Flags::SYNTHETIC | Flags::PARAM, Type::Any);
        // Body: compiled match over the exception value, rethrowing on no
        // match.
        let exc_ref = ctx.ident(exc);
        let handler = self.translate_match(
            ctx,
            &exc_ref,
            &cases.clone(),
            &t,
            tree.span(),
            Fallback::Rethrow,
        );
        // Rebind the fallback: translate_match's Rethrow throws the
        // *selector* val, which is a copy of exc — equivalent.
        let e = ctx.empty();
        let typed_any = ctx.mk(
            TreeKind::Typed {
                expr: e,
                tpe: Type::Any,
            },
            Type::Any,
            tree.span(),
        );
        let bind = ctx.mk(
            TreeKind::Bind {
                sym: exc,
                pat: typed_any,
            },
            Type::Any,
            tree.span(),
        );
        let eg = ctx.empty();
        let case = ctx.mk(
            TreeKind::CaseDef {
                pat: bind,
                guard: eg,
                body: handler,
            },
            t.clone(),
            tree.span(),
        );
        ctx.mk(
            TreeKind::Try {
                block: block.clone(),
                cases: [case].into(),
                finalizer: finalizer.clone(),
            },
            t,
            tree.span(),
        )
    }

    fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        match t.kind() {
            TreeKind::Match { .. } => Err("Match node survived PatternMatcher".into()),
            TreeKind::Alternative { .. } => {
                Err("pattern Alternative survived PatternMatcher".into())
            }
            TreeKind::Try { cases, .. } => {
                if cases.len() > 1 {
                    return Err("multi-case catch survived PatternMatcher".into());
                }
                if let Some(c) = cases.first() {
                    let TreeKind::CaseDef { pat, guard, .. } = c.kind() else {
                        return Err("catch case is not a CaseDef".into());
                    };
                    if !guard.is_empty_tree() {
                        return Err("guarded catch case survived PatternMatcher".into());
                    }
                    if !matches!(pat.kind(), TreeKind::Bind { .. }) {
                        return Err("catch pattern not reduced to a binder".into());
                    }
                }
                Ok(())
            }
            // CaseDefs are only legal directly under Try after this phase;
            // a stray CaseDef elsewhere cannot be detected without parent
            // links, so the Try shape above carries the check.
            _ => Ok(()),
        }
    }
}
