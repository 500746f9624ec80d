//! The structurally simple Miniphases: `FirstTransform`, `RefChecks`,
//! `InterceptedMethods`, `ElimRepeated`, `SeqLiterals`, `ExpandPrivate`,
//! `Flatten` and `RestoreScopes`.

use crate::util::OwnerStack;
use mini_ir::{
    std_names, Constant, Ctx, Flags, InfoTransform, Name, NodeKind, NodeKindSet, SymKind,
    SymbolData, SymbolId, SymbolTable, TreeKind, TreeRef, Type, TypeList,
};
use miniphase::{MiniPhase, PhaseInfo};
use std::sync::Arc;

// ======================= FirstTransform ================================

/// Puts trees into canonical form (Dotty's `FirstTransform`): flattens
/// curried parameter lists (the `uncurry` of scalac), normalizes
/// parameterless `def f` to `def f()`, and folds `if` on constant conditions
/// (the transformation the paper describes creeping into scalac's
/// `refchecks`, §2.1).
#[derive(Default)]
pub struct FirstTransform;

/// A method type with its parameter lists flattened into one; any other
/// type (and a method that already has one list) comes back shared.
fn flatten_method_type(t: &Type) -> Type {
    match t {
        Type::Poly {
            tparams,
            underlying,
        } => Type::Poly {
            tparams: tparams.clone(),
            underlying: Arc::new(flatten_method_type(underlying)),
        },
        Type::Method { params, ret } if params.len() != 1 => Type::Method {
            params: [params.iter().flatten().cloned().collect::<TypeList>()].into(),
            ret: ret.clone(),
        },
        other => other.clone(),
    }
}

impl PhaseInfo for FirstTransform {
    fn name(&self) -> &str {
        "firstTransform"
    }
    fn description(&self) -> &str {
        "some transformations to put trees into a canonical form"
    }
}

impl MiniPhase for FirstTransform {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::DefDef)
            .with(NodeKind::Apply)
            .with(NodeKind::If)
    }

    fn transform_def_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::DefDef { sym, paramss, rhs } = tree.kind() else {
            return tree.clone();
        };
        if paramss.len() == 1 {
            return tree.clone();
        }
        let flat: Vec<TreeRef> = paramss.iter().flatten().cloned().collect();
        let info = flatten_method_type(&ctx.symbols.info(*sym));
        ctx.symbols.sym_mut(*sym).set_info(info);
        ctx.with_kind(
            tree,
            TreeKind::DefDef {
                sym: *sym,
                paramss: vec![flat],
                rhs: rhs.clone(),
            },
        )
    }

    fn transform_apply(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        // Merge `f(a)(b)` into `f(a, b)` when the inner apply is a partial
        // method application (function-value applications go through
        // `.apply` and are not method-typed).
        let TreeKind::Apply { fun, args } = tree.kind() else {
            return tree.clone();
        };
        if let TreeKind::Apply {
            fun: inner_fun,
            args: inner_args,
        } = fun.kind()
        {
            if matches!(fun.tpe(), Type::Method { .. }) {
                let mut all = inner_args.clone();
                all.extend(args.iter().cloned());
                return ctx.with_kind(
                    tree,
                    TreeKind::Apply {
                        fun: inner_fun.clone(),
                        args: all,
                    },
                );
            }
        }
        tree.clone()
    }

    fn transform_if(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::If {
            cond,
            then_branch,
            else_branch,
        } = tree.kind()
        else {
            return tree.clone();
        };
        if let TreeKind::Literal { value } = cond.kind() {
            if let Some(b) = value.as_bool() {
                let taken = if b { then_branch } else { else_branch };
                if taken.is_empty_tree() {
                    return ctx.lit(Constant::Unit, tree.span());
                }
                return taken.clone();
            }
        }
        tree.clone()
    }

    fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        match t.kind() {
            TreeKind::DefDef { paramss, .. } if paramss.len() != 1 => {
                Err("curried parameter lists survived FirstTransform".into())
            }
            TreeKind::Apply { fun, .. }
                if matches!(fun.kind(), TreeKind::Apply { .. })
                    && matches!(fun.tpe(), Type::Method { .. }) =>
            {
                Err("curried application survived FirstTransform".into())
            }
            _ => Ok(()),
        }
    }
}

// ======================= RefChecks =====================================

/// Checks that overriding members conform to the members they override
/// (paper §2.1: originally "intended to only inspect but not modify the
/// tree" — in our pipeline it really is check-only).
#[derive(Default)]
pub struct RefChecks;

impl PhaseInfo for RefChecks {
    fn name(&self) -> &str {
        "refChecks"
    }
    fn description(&self) -> &str {
        "checks related to abstract members and overriding"
    }
}

impl MiniPhase for RefChecks {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::ClassDef)
    }

    fn transform_class_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::ClassDef { sym, .. } = tree.kind() else {
            return tree.clone();
        };
        let cls = *sym;
        let decls = ctx.symbols.decls_of(cls);
        for m in decls {
            let md = ctx.symbols.sym(m);
            if !md.flags.is(Flags::METHOD) || md.flags.is(Flags::CONSTRUCTOR) {
                continue;
            }
            let name = md.name;
            let info = ctx.symbols.info(m).into_owned();
            let is_override = md.flags.is(Flags::OVERRIDE);
            if let Some(parent_m) = ctx.symbols.overridden(cls, m) {
                let pinfo = ctx.symbols.info(parent_m).into_owned();
                let ok = ctx
                    .symbols
                    .is_subtype(info.final_result(), pinfo.final_result());
                if !ok {
                    let span = ctx.symbols.sym(m).span;
                    ctx.error(
                        span,
                        "refChecks",
                        format!(
                            "override of `{name}` has incompatible result type: {} vs {}",
                            info.final_result(),
                            pinfo.final_result()
                        ),
                    );
                }
            } else if is_override {
                let span = ctx.symbols.sym(m).span;
                ctx.error(span, "refChecks", format!("`{name}` overrides nothing"));
            }
        }
        tree.clone()
    }
}

// ======================= InterceptedMethods ============================

/// Special handling of `==`, `!=` and `getClass` (Dotty's
/// `InterceptedMethods` + `GetClass`): reference equality tests become
/// `equals` calls; `getClass` on statically known primitives becomes a
/// constant.
#[derive(Default)]
pub struct InterceptedMethods;

impl PhaseInfo for InterceptedMethods {
    fn name(&self) -> &str {
        "interceptedMethods"
    }
    fn description(&self) -> &str {
        "special handling of ==, != and getClass"
    }
}

impl MiniPhase for InterceptedMethods {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::Apply)
    }

    fn transform_apply(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Apply { fun, args } = tree.kind() else {
            return tree.clone();
        };
        let TreeKind::Select { qual, name, sym } = fun.kind() else {
            return tree.clone();
        };
        // getClass on a primitive receiver: constant-fold to the type name.
        if *sym == ctx.symbols.builtins().get_class_meth && qual.tpe().is_primitive() {
            let text = qual.tpe().to_string();
            let lit = ctx.lit(Constant::Str(Name::intern(&text)), tree.span());
            // Preserve the receiver's evaluation for effects.
            return ctx.mk(
                TreeKind::Block {
                    stats: [qual.clone()].into(),
                    expr: lit,
                },
                Type::Str,
                tree.span(),
            );
        }
        if sym.exists() || args.len() != 1 {
            return tree.clone();
        }
        let eq = name.as_str() == "==";
        let ne = name.as_str() == "!=";
        if (!eq && !ne) || !qual.tpe().is_ref_like() {
            return tree.clone();
        }
        let equals = ctx.symbols.builtins().equals_meth;
        let m = Type::Method {
            params: [TypeList::from([Type::Any])].into(),
            ret: Arc::new(Type::Boolean),
        };
        let sel = ctx.select(qual.clone(), std_names::equals(), equals, m);
        let call = ctx.apply(sel, args.clone(), Type::Boolean);
        if eq {
            call
        } else {
            let not_m = Type::Method {
                params: [TypeList::new()].into(),
                ret: Arc::new(Type::Boolean),
            };
            let not_sel = ctx.select(call, Name::intern("!"), SymbolId::NONE, not_m);
            ctx.apply(not_sel, vec![], Type::Boolean)
        }
    }

    fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        if let TreeKind::Apply { fun, .. } = t.kind() {
            if let TreeKind::Select { qual, name, sym } = fun.kind() {
                if !sym.exists()
                    && (name.as_str() == "==" || name.as_str() == "!=")
                    && qual.tpe().is_ref_like()
                {
                    return Err("reference `==` survived InterceptedMethods".into());
                }
            }
        }
        Ok(())
    }
}

// ======================= ElimRepeated ==================================

/// Rewrites vararg parameters and arguments (Dotty's `ElimRepeated`):
/// `T*` parameters become arrays, trailing argument groups become
/// `SeqLiteral`s.
#[derive(Default)]
pub struct ElimRepeated;

impl PhaseInfo for ElimRepeated {
    fn name(&self) -> &str {
        "elimRepeated"
    }
    fn description(&self) -> &str {
        "rewrite vararg parameters and arguments"
    }
}

/// `ElimRepeated`'s type map: `Repeated(T)` becomes `Array(T)` in a
/// signature.
pub fn strip_repeated(t: &Type) -> Type {
    strip_repeated_changed(t).unwrap_or_else(|| t.clone())
}

/// [`strip_repeated`], or `None` when it leaves `t` unchanged.
fn strip_repeated_changed(t: &Type) -> Option<Type> {
    match t {
        Type::Repeated(e) => Some(Type::Array(Arc::new(strip_repeated(e)))),
        _ => t.map_method_parts(&mut strip_repeated_changed),
    }
}

/// `ElimRepeated`'s info transformer: [`strip_repeated`] on the info.
fn transform_info(
    _sym: &SymbolData,
    info: &Type,
    parents: &TypeList,
    _symbols: &SymbolTable,
) -> Option<(Type, TypeList)> {
    strip_repeated_changed(info).map(|stripped| (stripped, parents.clone()))
}

impl MiniPhase for ElimRepeated {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::Apply)
    }

    fn info_transformer(&self) -> Option<InfoTransform> {
        Some(transform_info)
    }

    fn transform_apply(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Apply { fun, args } = tree.kind() else {
            return tree.clone();
        };
        // The tree type of `fun` still carries the vararg signature.
        let Type::Method { params, ret } = fun.tpe() else {
            return tree.clone();
        };
        let Some(ps) = params.first() else {
            return tree.clone();
        };
        let Some(Type::Repeated(elem)) = ps.last() else {
            return tree.clone();
        };
        let fixed = ps.len() - 1;
        let mut new_args: Vec<TreeRef> = args[..fixed.min(args.len())].to_vec();
        let rest: Vec<TreeRef> = args[fixed.min(args.len())..].to_vec();
        // A single argument that is already an array is passed through
        // (`xs: _*` analogue: forwarding a repeated param).
        let wrapped = if rest.len() == 1 && matches!(rest[0].tpe(), Type::Array(_)) {
            rest.into_iter().next().expect("one element")
        } else {
            ctx.mk(
                TreeKind::SeqLiteral {
                    elems: rest.into(),
                    elem_tpe: (**elem).clone(),
                },
                Type::Array(elem.clone()),
                tree.span(),
            )
        };
        new_args.push(wrapped);
        // Retype the function tree with the array signature.
        let new_ps: TypeList = ps[..fixed]
            .iter()
            .cloned()
            .chain([Type::Array(elem.clone())])
            .collect();
        let new_fun = ctx.retyped(
            fun,
            Type::Method {
                params: [new_ps].into(),
                ret: ret.clone(),
            },
        );
        ctx.with_kind(
            tree,
            TreeKind::Apply {
                fun: new_fun,
                args: new_args.into(),
            },
        )
    }

    fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        fn has_repeated(t: &Type) -> bool {
            match t {
                Type::Repeated(_) => true,
                Type::Method { params, ret } => {
                    params.iter().flatten().any(has_repeated) || has_repeated(ret)
                }
                Type::Poly { underlying, .. } => has_repeated(underlying),
                _ => false,
            }
        }
        if has_repeated(t.tpe()) {
            return Err("repeated parameter type survived ElimRepeated".into());
        }
        Ok(())
    }
}

// ======================= SeqLiterals ===================================

/// Expresses `SeqLiteral`s as explicit array construction (Dotty's
/// `SeqLiterals`): `[e1, e2]` becomes
/// `{ val a = new Array(2); a(0) = e1; a(1) = e2; a }`.
#[derive(Default)]
pub struct SeqLiterals;

impl PhaseInfo for SeqLiterals {
    fn name(&self) -> &str {
        "seqLiterals"
    }
    fn description(&self) -> &str {
        "express vararg arguments as arrays"
    }
}

impl MiniPhase for SeqLiterals {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::SeqLiteral)
    }

    fn runs_after(&self) -> Vec<&'static str> {
        vec!["elimRepeated"]
    }

    fn transform_seq_literal(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::SeqLiteral { elems, elem_tpe } = tree.kind() else {
            return tree.clone();
        };
        let arr_t = Type::Array(Arc::new(elem_tpe.clone()));
        let owner = ctx.symbols.builtins().root_pkg;
        let name = ctx.fresh_name("seq");
        let arr_sym = ctx
            .symbols
            .new_term(owner, name, Flags::SYNTHETIC, arr_t.clone());
        let new_node = ctx.mk(
            TreeKind::New { tpe: arr_t.clone() },
            arr_t.clone(),
            tree.span(),
        );
        let ctor_t = Type::Method {
            params: [TypeList::from([Type::Int])].into(),
            ret: Arc::new(arr_t.clone()),
        };
        let ctor = ctx.select(new_node, std_names::init(), SymbolId::NONE, ctor_t);
        let len = ctx.lit_int(elems.len() as i64);
        let alloc = ctx.apply(ctor, vec![len], arr_t.clone());
        let val = ctx.val_def(arr_sym, alloc);
        let mut stats = vec![val];
        for (i, e) in elems.iter().enumerate() {
            let a_ref = ctx.ident(arr_sym);
            let upd_t = Type::Method {
                params: [TypeList::from([Type::Int, elem_tpe.clone()])].into(),
                ret: Arc::new(Type::Unit),
            };
            let upd = ctx.select(a_ref, Name::intern("update"), SymbolId::NONE, upd_t);
            let idx = ctx.lit_int(i as i64);
            stats.push(ctx.apply(upd, vec![idx, e.clone()], Type::Unit));
        }
        let result = ctx.ident(arr_sym);
        ctx.mk(
            TreeKind::Block {
                stats: stats.into(),
                expr: result,
            },
            arr_t,
            tree.span(),
        )
    }

    fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        if matches!(t.kind(), TreeKind::SeqLiteral { .. }) {
            return Err("SeqLiteral survived SeqLiterals".into());
        }
        Ok(())
    }
}

// ======================= ExpandPrivate =================================

/// Widens private members that are accessed from other classes after
/// closures/nested classes were lifted (Dotty's `ExpandPrivate`).
#[derive(Default)]
pub struct ExpandPrivate {
    classes: OwnerStack,
}

impl PhaseInfo for ExpandPrivate {
    fn name(&self) -> &str {
        "expandPrivate"
    }
    fn description(&self) -> &str {
        "widen private definitions accessed from other classes"
    }
}

impl MiniPhase for ExpandPrivate {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::Select)
    }

    fn prepares(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::ClassDef)
    }

    fn prepare_class_def(&mut self, _ctx: &mut Ctx, tree: &TreeRef) -> bool {
        self.classes.push(tree.def_sym());
        true
    }

    fn finish_prepared(&mut self, _ctx: &mut Ctx, _t: &TreeRef) {
        self.classes.pop();
    }

    fn transform_select(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Select { sym, .. } = tree.kind() else {
            return tree.clone();
        };
        if !sym.exists() {
            return tree.clone();
        }
        let owner = ctx.symbols.enclosing_class(*sym);
        let flags = ctx.symbols.sym(*sym).flags;
        if flags.is(Flags::PRIVATE) && owner != self.classes.current() {
            let f = &mut ctx.symbols.sym_mut(*sym).flags;
            *f = f.without(Flags::PRIVATE) | Flags::NOT_PRIVATE_ANYMORE;
        }
        tree.clone()
    }
}

// ======================= Flatten ======================================

/// Lifts nested classes to package scope (Dotty's `Flatten`), renaming
/// `Inner` to `Outer$Inner`.
#[derive(Default)]
pub struct Flatten {
    pending: Vec<TreeRef>,
}

impl PhaseInfo for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }
    fn description(&self) -> &str {
        "lift all inner classes to package scope"
    }
}

impl MiniPhase for Flatten {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::ClassDef).with(NodeKind::PackageDef)
    }

    fn runs_after(&self) -> Vec<&'static str> {
        vec!["lambdaLift"]
    }

    fn transform_class_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::ClassDef { sym, body } = tree.kind() else {
            return tree.clone();
        };
        if !body
            .iter()
            .any(|m| matches!(m.kind(), TreeKind::ClassDef { .. }))
        {
            return tree.clone();
        }
        let outer_name = ctx.symbols.sym(*sym).name;
        let mut kept = Vec::new();
        for m in body {
            if let TreeKind::ClassDef { sym: inner, .. } = m.kind() {
                let pkg = ctx.symbols.builtins().root_pkg;
                let inner_name = ctx.symbols.sym(*inner).name;
                let flat = Name::intern(&format!("{outer_name}${inner_name}"));
                ctx.symbols.rename(*inner, flat);
                ctx.symbols.sym_mut(*inner).owner = pkg;
                self.pending.push(m.clone());
            } else {
                kept.push(m.clone());
            }
        }
        ctx.with_kind(
            tree,
            TreeKind::ClassDef {
                sym: *sym,
                body: kept.into(),
            },
        )
    }

    fn transform_package_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        if self.pending.is_empty() {
            return tree.clone();
        }
        let TreeKind::PackageDef { pkg, stats } = tree.kind() else {
            return tree.clone();
        };
        let mut new_stats = stats.clone();
        new_stats.extend(self.pending.drain(..));
        ctx.with_kind(
            tree,
            TreeKind::PackageDef {
                pkg: *pkg,
                stats: new_stats,
            },
        )
    }

    fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        if let TreeKind::ClassDef { body, .. } = t.kind() {
            if body
                .iter()
                .any(|m| matches!(m.kind(), TreeKind::ClassDef { .. }))
            {
                return Err("nested class survived Flatten".into());
            }
        }
        Ok(())
    }
}

// ======================= RestoreScopes =================================

/// Repairs owner links and declaration scopes invalidated by phases that
/// moved definitions (Dotty's `RestoreScopes`).
#[derive(Default)]
pub struct RestoreScopes;

impl PhaseInfo for RestoreScopes {
    fn name(&self) -> &str {
        "restoreScopes"
    }
    fn description(&self) -> &str {
        "repair scopes rendered invalid by moving definitions"
    }
}

impl MiniPhase for RestoreScopes {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::ClassDef).with(NodeKind::PackageDef)
    }

    fn runs_after(&self) -> Vec<&'static str> {
        vec!["flatten"]
    }

    fn transform_class_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::ClassDef { sym, body } = tree.kind() else {
            return tree.clone();
        };
        let mut decls = Vec::new();
        for m in body {
            let d = m.def_sym();
            if d.exists() {
                ctx.symbols.sym_mut(d).owner = *sym;
                if !decls.contains(&d) {
                    decls.push(d);
                }
            }
        }
        ctx.symbols.set_decls(*sym, decls);
        tree.clone()
    }

    fn transform_package_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::PackageDef { pkg, stats } = tree.kind() else {
            return tree.clone();
        };
        for s in stats {
            let d = s.def_sym();
            if d.exists() {
                ctx.symbols.sym_mut(d).owner = *pkg;
                if ctx.symbols.decl(*pkg, ctx.symbols.sym(d).name) != Some(d) {
                    let already = ctx.symbols.sym(*pkg).decls().contains(&d);
                    if !already {
                        ctx.symbols.push_decl(*pkg, d);
                    }
                }
            }
        }
        tree.clone()
    }

    fn check_post_condition(&self, ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        if let TreeKind::ClassDef { sym, body } = t.kind() {
            for m in body {
                let d = m.def_sym();
                if d.exists() && ctx.symbols.sym(d).owner != *sym {
                    return Err(format!(
                        "member `{}` not owned by its class after RestoreScopes",
                        ctx.symbols.full_name(d)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// True for symbols that `Getters` turns into accessors: concrete,
/// non-private, non-parameter, immutable, term members of a class.
pub fn is_accessorable(ctx: &Ctx, sym: SymbolId) -> bool {
    if !sym.exists() {
        return false;
    }
    let d = ctx.symbols.sym(sym);
    d.kind == SymKind::Term
        && !d
            .flags
            .is_any(Flags::METHOD | Flags::PARAM | Flags::PRIVATE | Flags::MUTABLE | Flags::FIELD)
        && ctx.symbols.sym(d.owner).kind == SymKind::Class
        && d.owner != ctx.symbols.builtins().any_class
}
