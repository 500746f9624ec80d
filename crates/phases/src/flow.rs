//! Control-flow lowering Miniphases: `TailRec`, `LiftTry` (the paper's
//! flagship prepare-using phase, §4.1) and `ElimByName`.

use mini_ir::{
    std_names, Ctx, Flags, InfoTransform, NodeKind, NodeKindSet, SymKind, SymbolData, SymbolId,
    SymbolTable, TreeKind, TreeRef, Type, TypeList,
};
use miniphase::{MiniPhase, PhaseInfo};
use std::sync::Arc;

// ======================= TailRec ======================================

/// Rewrites self-recursive tail calls into jumps (Dotty's `TailRec`):
/// the method body is wrapped in a `Labeled` block and each tail call
/// becomes a `JumpTo` that re-binds the parameters.
///
/// Applied to methods that cannot be overridden: top-level functions and
/// `private`/`final` members.
#[derive(Default)]
pub struct TailRec;

fn is_self_call(fun: &TreeRef, m: SymbolId) -> bool {
    match fun.kind() {
        TreeKind::Ident { sym } => *sym == m,
        TreeKind::Select { qual, sym, .. } => {
            *sym == m && matches!(qual.kind(), TreeKind::This { .. })
        }
        _ => false,
    }
}

fn rewrite_tails(
    ctx: &mut Ctx,
    t: &TreeRef,
    m: SymbolId,
    label: SymbolId,
    n_params: usize,
    found: &mut bool,
) -> TreeRef {
    match t.kind() {
        TreeKind::Apply { fun, args } if is_self_call(fun, m) && args.len() == n_params => {
            *found = true;
            ctx.mk(
                TreeKind::JumpTo {
                    label,
                    args: args.clone(),
                },
                Type::Nothing,
                t.span(),
            )
        }
        TreeKind::Block { stats, expr } => {
            let new_expr = rewrite_tails(ctx, expr, m, label, n_params, found);
            if TreeRef::ptr_eq(&new_expr, expr) {
                t.clone()
            } else {
                ctx.with_kind(
                    t,
                    TreeKind::Block {
                        stats: stats.clone(),
                        expr: new_expr,
                    },
                )
            }
        }
        TreeKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let nt = rewrite_tails(ctx, then_branch, m, label, n_params, found);
            let ne = rewrite_tails(ctx, else_branch, m, label, n_params, found);
            if TreeRef::ptr_eq(&nt, then_branch) && TreeRef::ptr_eq(&ne, else_branch) {
                t.clone()
            } else {
                ctx.with_kind(
                    t,
                    TreeKind::If {
                        cond: cond.clone(),
                        then_branch: nt,
                        else_branch: ne,
                    },
                )
            }
        }
        TreeKind::Match { selector, cases } => {
            let mut changed = false;
            let new_cases: Vec<TreeRef> = cases
                .iter()
                .map(|c| {
                    if let TreeKind::CaseDef { pat, guard, body } = c.kind() {
                        let nb = rewrite_tails(ctx, body, m, label, n_params, found);
                        if TreeRef::ptr_eq(&nb, body) {
                            c.clone()
                        } else {
                            changed = true;
                            ctx.with_kind(
                                c,
                                TreeKind::CaseDef {
                                    pat: pat.clone(),
                                    guard: guard.clone(),
                                    body: nb,
                                },
                            )
                        }
                    } else {
                        c.clone()
                    }
                })
                .collect();
            if changed {
                ctx.with_kind(
                    t,
                    TreeKind::Match {
                        selector: selector.clone(),
                        cases: new_cases.into(),
                    },
                )
            } else {
                t.clone()
            }
        }
        // Tail calls inside try/lambda/nested defs must not be rewritten.
        _ => t.clone(),
    }
}

impl PhaseInfo for TailRec {
    fn name(&self) -> &str {
        "tailRec"
    }
    fn description(&self) -> &str {
        "rewrite tail recursion to loops"
    }
}

impl MiniPhase for TailRec {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::DefDef)
    }

    fn runs_after(&self) -> Vec<&'static str> {
        vec!["firstTransform"]
    }

    fn transform_def_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::DefDef { sym, paramss, rhs } = tree.kind() else {
            return tree.clone();
        };
        if rhs.is_empty_tree() {
            return tree.clone();
        }
        let d = ctx.symbols.sym(*sym);
        let owner_is_pkg = ctx.symbols.sym(d.owner).kind == SymKind::Package;
        if !(owner_is_pkg || d.flags.is_any(Flags::PRIVATE | Flags::FINAL)) {
            return tree.clone();
        }
        let param_syms: Vec<SymbolId> = paramss.iter().flatten().map(|p| p.def_sym()).collect();
        let info = ctx.symbols.info(*sym).into_owned();
        let label_name = ctx.fresh_name("tailLoop");
        let label = ctx.symbols.new_label(*sym, label_name, info);
        ctx.symbols.set_decls(label, param_syms.clone());
        let mut found = false;
        let new_rhs = rewrite_tails(ctx, rhs, *sym, label, param_syms.len(), &mut found);
        if !found {
            return tree.clone();
        }
        let labeled = ctx.mk(
            TreeKind::Labeled {
                label,
                body: new_rhs.clone(),
            },
            new_rhs.tpe().clone(),
            tree.span(),
        );
        ctx.with_kind(
            tree,
            TreeKind::DefDef {
                sym: *sym,
                paramss: paramss.clone(),
                rhs: labeled,
            },
        )
    }
}

// ======================= LiftTry ======================================

/// Lifts `try` expressions that would execute on a non-empty operand stack
/// into their own (nested, later lambda-lifted) methods — the paper's
/// running example for *prepares* (§4.1): the phase "maintains a boolean
/// state which is an over-approximation of whether the current subtree is
/// inside an expression".
#[derive(Default)]
pub struct LiftTry {
    /// One entry per prepared node: (owner introduced here, "inside
    /// expression" flag for the subtree).
    stack: Vec<(Option<SymbolId>, bool)>,
}

impl LiftTry {
    fn in_expr(&self) -> bool {
        self.stack.last().is_some_and(|e| e.1)
    }

    fn current_owner(&self, ctx: &Ctx) -> SymbolId {
        self.stack
            .iter()
            .rev()
            .find_map(|e| e.0)
            .unwrap_or(ctx.symbols.builtins().root_pkg)
    }

    fn push_expr(&mut self, flag: bool) -> bool {
        self.stack.push((None, flag));
        true
    }
}

impl PhaseInfo for LiftTry {
    fn name(&self) -> &str {
        "liftTry"
    }
    fn description(&self) -> &str {
        "put try expressions that might execute on non-empty stacks into their own methods"
    }
}

impl MiniPhase for LiftTry {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::Try)
    }

    fn prepares(&self) -> NodeKindSet {
        NodeKindSet::from_kinds([
            NodeKind::Apply,
            NodeKind::Select,
            NodeKind::Assign,
            NodeKind::If,
            NodeKind::Throw,
            NodeKind::Return,
            NodeKind::While,
            NodeKind::Labeled,
            NodeKind::CaseDef,
            NodeKind::ValDef,
            NodeKind::DefDef,
            NodeKind::Lambda,
            NodeKind::ClassDef,
        ])
    }

    fn prepare_apply(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.push_expr(true)
    }
    fn prepare_select(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.push_expr(true)
    }
    fn prepare_assign(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.push_expr(true)
    }
    fn prepare_if(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        // Over-approximation: an `if` nested in an expression keeps the
        // flag; at statement level the enclosing scope already pushed false.
        let cur = self.in_expr();
        self.push_expr(cur)
    }
    fn prepare_throw(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.push_expr(true)
    }
    fn prepare_return(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.push_expr(true)
    }
    fn prepare_while(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.push_expr(false)
    }
    fn prepare_labeled(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.push_expr(false)
    }
    fn prepare_case_def(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.push_expr(false)
    }
    fn prepare_val_def(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.push_expr(false)
    }
    fn prepare_def_def(&mut self, _ctx: &mut Ctx, t: &TreeRef) -> bool {
        self.stack.push((Some(t.def_sym()), false));
        true
    }
    fn prepare_lambda(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.push_expr(false)
    }
    fn prepare_class_def(&mut self, _ctx: &mut Ctx, t: &TreeRef) -> bool {
        self.stack.push((Some(t.def_sym()), false));
        true
    }

    fn finish_prepared(&mut self, _ctx: &mut Ctx, _t: &TreeRef) {
        self.stack.pop();
    }

    fn transform_try(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        if !self.in_expr() {
            return tree.clone();
        }
        let t = tree.tpe().clone();
        let owner = self.current_owner(ctx);
        let name = ctx.fresh_name("liftedTry");
        let meth = ctx.symbols.new_term(
            owner,
            name,
            Flags::METHOD | Flags::SYNTHETIC,
            Type::Method {
                params: [TypeList::new()].into(),
                ret: Arc::new(t.clone()),
            },
        );
        let def = ctx.mk(
            TreeKind::DefDef {
                sym: meth,
                paramss: vec![vec![]],
                rhs: tree.clone(),
            },
            Type::Unit,
            tree.span(),
        );
        let fun = ctx.ident(meth);
        let call = ctx.apply(fun, vec![], t.clone());
        ctx.mk(
            TreeKind::Block {
                stats: [def].into(),
                expr: call,
            },
            t,
            tree.span(),
        )
    }
}

// ======================= ElimByName ===================================

/// Expands by-name parameters and arguments (Dotty's `ElimByName`):
/// `=> T` parameters become `() => T` thunks, arguments are wrapped in
/// zero-parameter lambdas, and parameter uses become `.apply()` calls.
#[derive(Default)]
pub struct ElimByName;

impl PhaseInfo for ElimByName {
    fn name(&self) -> &str {
        "elimByName"
    }
    fn description(&self) -> &str {
        "expand by-name parameters and arguments"
    }
}

/// `ElimByName`'s type map: `=> T` becomes `() => T` in a signature.
pub fn strip_by_name(t: &Type) -> Type {
    strip_by_name_changed(t).unwrap_or_else(|| t.clone())
}

/// [`strip_by_name`], or `None` when it leaves `t` unchanged.
fn strip_by_name_changed(t: &Type) -> Option<Type> {
    match t {
        Type::ByName(inner) => Some(Type::Function {
            params: TypeList::new(),
            ret: Arc::new(strip_by_name(inner)),
        }),
        _ => t.map_method_parts(&mut strip_by_name_changed),
    }
}

/// `ElimByName`'s info transformer: [`strip_by_name`] on the info.
fn transform_info(
    _sym: &SymbolData,
    info: &Type,
    parents: &TypeList,
    _symbols: &SymbolTable,
) -> Option<(Type, TypeList)> {
    strip_by_name_changed(info).map(|stripped| (stripped, parents.clone()))
}

impl MiniPhase for ElimByName {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::Apply).with(NodeKind::Ident)
    }

    fn info_transformer(&self) -> Option<InfoTransform> {
        Some(transform_info)
    }

    fn transform_apply(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Apply { fun, args } = tree.kind() else {
            return tree.clone();
        };
        // The tree type of `fun` still shows the by-name positions.
        let Type::Method { params, ret } = fun.tpe() else {
            return tree.clone();
        };
        let Some(ps) = params.first() else {
            return tree.clone();
        };
        if !ps.iter().any(|p| matches!(p, Type::ByName(_))) {
            return tree.clone();
        }
        let mut new_args = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            if let Some(Type::ByName(inner)) = ps.get(i) {
                let thunk_t = Type::Function {
                    params: TypeList::new(),
                    ret: Arc::clone(inner),
                };
                let thunk = ctx.mk(
                    TreeKind::Lambda {
                        params: vec![].into(),
                        body: a.clone(),
                    },
                    thunk_t,
                    a.span(),
                );
                new_args.push(thunk);
            } else {
                new_args.push(a.clone());
            }
        }
        let new_fun_t = Type::Method {
            params: [ps.iter().map(strip_by_name).collect()].into(),
            ret: ret.clone(),
        };
        let new_fun = ctx.retyped(fun, new_fun_t);
        ctx.with_kind(
            tree,
            TreeKind::Apply {
                fun: new_fun,
                args: new_args.into(),
            },
        )
    }

    fn transform_ident(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Ident { sym } = tree.kind() else {
            return tree.clone();
        };
        if !sym.exists() || !ctx.symbols.sym(*sym).flags.is(Flags::BY_NAME) {
            return tree.clone();
        }
        // The use of a by-name parameter forces the thunk.
        let inner = match tree.tpe() {
            Type::ByName(t) => (**t).clone(),
            Type::Function { ret, .. } => (**ret).clone(),
            other => other.clone(),
        };
        let fn_t = Type::Function {
            params: TypeList::new(),
            ret: Arc::new(inner.clone()),
        };
        let thunk_ref = ctx.retyped(tree, fn_t.clone());
        let (apply_sym, apply_t) = ctx
            .symbols
            .member(&fn_t, std_names::apply())
            .expect("Function0 has apply");
        let sel = ctx.select(thunk_ref, std_names::apply(), apply_sym, apply_t);
        ctx.apply(sel, vec![], inner)
    }

    fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        fn has_by_name(t: &Type) -> bool {
            match t {
                Type::ByName(_) => true,
                Type::Method { params, ret } => {
                    params.iter().flatten().any(has_by_name) || has_by_name(ret)
                }
                Type::Poly { underlying, .. } => has_by_name(underlying),
                _ => false,
            }
        }
        if has_by_name(t.tpe()) {
            return Err("by-name type survived ElimByName".into());
        }
        Ok(())
    }
}
