//! `CapturedVars` and `NonLocalReturns`.
//!
//! `CapturedVars` heap-boxes mutable locals captured by nested functions,
//! rewriting definitions to cell allocations and uses to `cell.elem`
//! accesses. `NonLocalReturns` turns `return`s that cross a function
//! boundary into a thrown control token caught by the target method.

use mini_ir::{
    std_names, Ctx, Flags, Name, NodeKind, NodeKindSet, SymKind, SymbolId, TreeKind, TreeRef, Type,
    TypeList,
};
use miniphase::{MiniPhase, PhaseInfo};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Creates (once) a synthetic top-level class with the given field names and
/// types, returning `(class, fields)`. Used for the `Ref` cell and the
/// non-local-return token; the class has no constructor symbol, so the
/// backend zero-initializes its fields and treats `<init>` as a no-op.
fn make_runtime_class(
    ctx: &mut Ctx,
    name: &str,
    fields: &[(&str, Type)],
) -> (SymbolId, Vec<SymbolId>, TreeRef) {
    let pkg = ctx.symbols.builtins().root_pkg;
    let cls = ctx.symbols.new_class(
        pkg,
        Name::intern(name),
        Flags::SYNTHETIC,
        vec![Type::AnyRef],
        vec![],
    );
    let mut field_syms = Vec::new();
    let mut body = Vec::new();
    for (fname, ftpe) in fields {
        let f = ctx.symbols.new_term(
            cls,
            Name::intern(fname),
            Flags::MUTABLE | Flags::SYNTHETIC,
            ftpe.clone(),
        );
        let e = ctx.empty();
        body.push(ctx.val_def(f, e));
        field_syms.push(f);
    }
    let tree = ctx.mk(
        TreeKind::ClassDef {
            sym: cls,
            body: body.into(),
        },
        Type::Unit,
        mini_ir::Span::SYNTHETIC,
    );
    (cls, field_syms, tree)
}

/// Allocates `new cls` without a constructor symbol (fields start out null).
fn raw_new(ctx: &mut Ctx, cls: SymbolId) -> TreeRef {
    let t = ctx.symbols.class_type(cls);
    let new_node = ctx.mk(
        TreeKind::New { tpe: t.clone() },
        t.clone(),
        mini_ir::Span::SYNTHETIC,
    );
    let m = Type::Method {
        params: [TypeList::new()].into(),
        ret: Arc::new(Type::Unit),
    };
    let sel = ctx.select(new_node, std_names::init(), SymbolId::NONE, m);
    ctx.apply(sel, vec![], t)
}

// ======================= CapturedVars =================================

/// Boxes mutable variables captured by nested closures or local defs
/// (Dotty's `CapturedVars`).
#[derive(Default)]
pub struct CapturedVars {
    ref_class: Option<(SymbolId, SymbolId)>, // (class, elem field)
    pending_class: Option<TreeRef>,
}

impl CapturedVars {
    fn ensure_ref_class(&mut self, ctx: &mut Ctx) -> (SymbolId, SymbolId) {
        if let Some(rc) = self.ref_class {
            return rc;
        }
        let (cls, fields, tree) = make_runtime_class(ctx, "Ref$cell", &[("elem", Type::Any)]);
        self.pending_class = Some(tree);
        let rc = (cls, fields[0]);
        self.ref_class = Some(rc);
        rc
    }

    fn is_boxed(&self, ctx: &Ctx, sym: SymbolId) -> bool {
        match self.ref_class {
            Some((cls, _)) => ctx.symbols.info(sym).class_sym() == Some(cls),
            None => false,
        }
    }
}

impl PhaseInfo for CapturedVars {
    fn name(&self) -> &str {
        "capturedVars"
    }
    fn description(&self) -> &str {
        "represent vars captured by closures as heap objects"
    }
}

impl MiniPhase for CapturedVars {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::ValDef)
            .with(NodeKind::Ident)
            .with(NodeKind::PackageDef)
    }

    fn runs_after_groups_of(&self) -> Vec<&'static str> {
        // Rule 3 (§6.1): the capture analysis in prepare_unit must see the
        // *finished* output of LazyVals (which introduces new local vars and
        // defs); fusing them lets the analysis run on a half-transformed
        // unit. The dynamic checker caught exactly this during development —
        // see DESIGN.md §8.
        vec!["erasure", "lazyVals"]
    }

    fn prepare_unit(&mut self, ctx: &mut Ctx, unit_tree: &TreeRef) {
        // The `Ref$cell` runtime class is **per unit**: every unit that
        // boxes a captured local carries its own ClassDef, so no unit's
        // output depends on whether an *earlier* unit already created the
        // class — the self-containment that unit-level parallel compilation
        // (and honest per-unit incremental reuse) requires.
        self.ref_class = None;
        self.pending_class = None;
        // Mark mutable locals referenced from a nested function.
        struct Walk<'a> {
            ctx: &'a mut Ctx,
            def_fun: HashMap<SymbolId, usize>,
            fun_depth: usize,
            fun_ids: Vec<usize>,
            next_fun: usize,
        }
        impl Walk<'_> {
            fn go(&mut self, t: &TreeRef) {
                match t.kind() {
                    TreeKind::DefDef { .. } | TreeKind::Lambda { .. } => {
                        self.next_fun += 1;
                        self.fun_ids.push(self.next_fun);
                        self.fun_depth += 1;
                        t.for_each_child(&mut |c| self.go(c));
                        self.fun_depth -= 1;
                        self.fun_ids.pop();
                    }
                    TreeKind::ValDef { sym, .. } => {
                        if self.ctx.symbols.sym(*sym).flags.is(Flags::MUTABLE)
                            && self.ctx.symbols.sym(self.ctx.symbols.sym(*sym).owner).kind
                                != SymKind::Class
                        {
                            let cur = self.fun_ids.last().copied().unwrap_or(0);
                            self.def_fun.insert(*sym, cur);
                        }
                        t.for_each_child(&mut |c| self.go(c));
                    }
                    TreeKind::Ident { sym } => {
                        if let Some(&home) = self.def_fun.get(sym) {
                            let cur = self.fun_ids.last().copied().unwrap_or(0);
                            if cur != home {
                                self.ctx.symbols.sym_mut(*sym).flags |= Flags::CAPTURED;
                            }
                        }
                    }
                    _ => t.for_each_child(&mut |c| self.go(c)),
                }
            }
        }
        let mut w = Walk {
            ctx,
            def_fun: HashMap::new(),
            fun_depth: 0,
            fun_ids: Vec::new(),
            next_fun: 0,
        };
        w.go(unit_tree);
    }

    fn transform_val_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::ValDef { sym, rhs } = tree.kind() else {
            return tree.clone();
        };
        let flags = ctx.symbols.sym(*sym).flags;
        if !flags.is(Flags::CAPTURED) || !flags.is(Flags::MUTABLE) || rhs.is_empty_tree() {
            return tree.clone();
        }
        if self.is_boxed(ctx, *sym) {
            return tree.clone();
        }
        let (cls, elem) = self.ensure_ref_class(ctx);
        let cell_t = ctx.symbols.class_type(cls);
        // Rewrite the definition to a boxed cell.
        {
            let d = ctx.symbols.sym_mut(*sym);
            d.set_info(cell_t.clone());
            d.flags = d.flags.without(Flags::MUTABLE);
        }
        let owner = ctx.symbols.sym(*sym).owner;
        let tmp_name = ctx.fresh_name("cell");
        let tmp = ctx
            .symbols
            .new_term(owner, tmp_name, Flags::SYNTHETIC, cell_t.clone());
        let alloc = raw_new(ctx, cls);
        let tmp_def = ctx.val_def(tmp, alloc);
        let tmp_ref = ctx.ident(tmp);
        let elem_sel = ctx.select(tmp_ref, Name::intern("elem"), elem, Type::Any);
        let init = ctx.mk(
            TreeKind::Assign {
                lhs: elem_sel,
                rhs: rhs.clone(),
            },
            Type::Unit,
            tree.span(),
        );
        let tmp_ref2 = ctx.ident(tmp);
        let boxed = ctx.mk(
            TreeKind::Block {
                stats: [tmp_def, init].into(),
                expr: tmp_ref2,
            },
            cell_t,
            tree.span(),
        );
        ctx.with_kind(
            tree,
            TreeKind::ValDef {
                sym: *sym,
                rhs: boxed,
            },
        )
    }

    fn transform_ident(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Ident { sym } = tree.kind() else {
            return tree.clone();
        };
        if !sym.exists() || !ctx.symbols.sym(*sym).flags.is(Flags::CAPTURED) {
            return tree.clone();
        }
        let Some((cls, elem)) = self.ref_class.or_else(|| {
            // Uses can be met before the definition in traversal order.
            let rc = self.ensure_ref_class(ctx);
            Some(rc)
        }) else {
            return tree.clone();
        };
        let cell_t = ctx.symbols.class_type(cls);
        // The node's own type is still the value type; read through the box.
        let value_t = tree.tpe().clone();
        if value_t.class_sym() == Some(cls) {
            return tree.clone(); // already rewritten
        }
        let cell_ref = ctx.retyped(tree, cell_t);
        ctx.select(cell_ref, Name::intern("elem"), elem, value_t)
    }

    fn transform_package_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let Some(cls_tree) = self.pending_class.take() else {
            return tree.clone();
        };
        let TreeKind::PackageDef { pkg, stats } = tree.kind() else {
            return tree.clone();
        };
        let mut new_stats = stats.clone();
        new_stats.push(cls_tree);
        ctx.with_kind(
            tree,
            TreeKind::PackageDef {
                pkg: *pkg,
                stats: new_stats,
            },
        )
    }

    fn check_post_condition(&self, ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        // No bare reads of captured vars remain.
        if let TreeKind::Ident { sym } = t.kind() {
            if sym.exists() && ctx.symbols.sym(*sym).flags.is(Flags::CAPTURED) {
                let boxed = self.is_boxed(ctx, *sym);
                if boxed && t.tpe().class_sym() != ctx.symbols.info(*sym).class_sym() {
                    return Err(format!(
                        "captured var `{}` read without unboxing",
                        ctx.symbols.full_name(*sym)
                    ));
                }
            }
        }
        Ok(())
    }
}

// ======================= NonLocalReturns ==============================

/// Expands non-local returns (Dotty's `NonLocalReturns`): a `return` inside
/// a nested function throws a control token; the target method catches
/// tokens carrying its own key.
#[derive(Default)]
pub struct NonLocalReturns {
    /// Stack of enclosing functions; `None` marks a lambda frame.
    funs: Vec<Option<SymbolId>>,
    token_class: Option<(SymbolId, SymbolId, SymbolId)>, // (class, key, value)
    pending_class: Option<TreeRef>,
    needs_wrap: HashSet<SymbolId>,
}

impl NonLocalReturns {
    fn ensure_token(&mut self, ctx: &mut Ctx) -> (SymbolId, SymbolId, SymbolId) {
        if let Some(t) = self.token_class {
            return t;
        }
        let (cls, fields, tree) = make_runtime_class(
            ctx,
            "NonLocalReturn$token",
            &[("key", Type::Int), ("value", Type::Any)],
        );
        self.pending_class = Some(tree);
        let t = (cls, fields[0], fields[1]);
        self.token_class = Some(t);
        t
    }
}

impl PhaseInfo for NonLocalReturns {
    fn name(&self) -> &str {
        "nonLocalReturns"
    }
    fn description(&self) -> &str {
        "expand non-local returns"
    }
}

impl MiniPhase for NonLocalReturns {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::Return)
            .with(NodeKind::DefDef)
            .with(NodeKind::PackageDef)
    }

    fn prepares(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::DefDef).with(NodeKind::Lambda)
    }

    fn prepare_unit(&mut self, _ctx: &mut Ctx, _unit_tree: &TreeRef) {
        // Per-unit token class, for the same self-containment reason as
        // `CapturedVars::prepare_unit`: no unit's output may depend on which
        // earlier unit first needed the class.
        self.token_class = None;
        self.pending_class = None;
    }

    fn runs_after_groups_of(&self) -> Vec<&'static str> {
        vec!["erasure"]
    }

    fn prepare_def_def(&mut self, _ctx: &mut Ctx, t: &TreeRef) -> bool {
        self.funs.push(Some(t.def_sym()));
        true
    }

    fn prepare_lambda(&mut self, _ctx: &mut Ctx, _t: &TreeRef) -> bool {
        self.funs.push(None);
        true
    }

    fn finish_prepared(&mut self, _ctx: &mut Ctx, _t: &TreeRef) {
        self.funs.pop();
    }

    fn transform_return(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Return { expr, from } = tree.kind() else {
            return tree.clone();
        };
        if self.funs.last() == Some(&Some(*from)) {
            return tree.clone(); // local return
        }
        let (cls, key_f, value_f) = self.ensure_token(ctx);
        self.needs_wrap.insert(*from);
        let cell_t = ctx.symbols.class_type(cls);
        let owner = *from;
        let tmp_name = ctx.fresh_name("nlr");
        let tmp = ctx
            .symbols
            .new_term(owner, tmp_name, Flags::SYNTHETIC, cell_t.clone());
        let alloc = raw_new(ctx, cls);
        let tmp_def = ctx.val_def(tmp, alloc);
        let t1 = ctx.ident(tmp);
        let k_lhs = ctx.select(t1, Name::intern("key"), key_f, Type::Int);
        let k_lit = ctx.lit_int(i64::from(from.index()));
        let set_key = ctx.mk(
            TreeKind::Assign {
                lhs: k_lhs,
                rhs: k_lit,
            },
            Type::Unit,
            tree.span(),
        );
        let t2 = ctx.ident(tmp);
        let v_lhs = ctx.select(t2, Name::intern("value"), value_f, Type::Any);
        let set_value = ctx.mk(
            TreeKind::Assign {
                lhs: v_lhs,
                rhs: expr.clone(),
            },
            Type::Unit,
            tree.span(),
        );
        let t3 = ctx.ident(tmp);
        let thr = ctx.mk(TreeKind::Throw { expr: t3 }, Type::Nothing, tree.span());
        ctx.mk(
            TreeKind::Block {
                stats: [tmp_def, set_key, set_value].into(),
                expr: thr,
            },
            Type::Nothing,
            tree.span(),
        )
    }

    fn transform_def_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::DefDef { sym, paramss, rhs } = tree.kind() else {
            return tree.clone();
        };
        if !self.needs_wrap.remove(sym) {
            return tree.clone();
        }
        let (cls, key_f, value_f) = self.ensure_token(ctx);
        let ret_t = ctx.symbols.info(*sym).final_result().clone();
        let cell_t = ctx.symbols.class_type(cls);
        // catch (e: Any) =>
        //   if (e.isInstanceOf[Token] && e.asInstanceOf[Token].key == K)
        //     e.asInstanceOf[Token].value.asInstanceOf[R]
        //   else throw e
        let exc_name = ctx.fresh_name("exc");
        let exc = ctx
            .symbols
            .new_term(*sym, exc_name, Flags::PARAM | Flags::SYNTHETIC, Type::Any);
        let e1 = ctx.ident(exc);
        let is_tok = ctx.mk(
            TreeKind::IsInstance {
                expr: e1,
                tpe: cell_t.clone(),
            },
            Type::Boolean,
            tree.span(),
        );
        let e2 = ctx.ident(exc);
        let cast1 = ctx.mk(
            TreeKind::Cast {
                expr: e2,
                tpe: cell_t.clone(),
            },
            cell_t.clone(),
            tree.span(),
        );
        let key_read = ctx.select(cast1, Name::intern("key"), key_f, Type::Int);
        let k_lit = ctx.lit_int(i64::from(sym.index()));
        let eq_m = Type::Method {
            params: [TypeList::from([Type::Any])].into(),
            ret: Arc::new(Type::Boolean),
        };
        let eq_sel = ctx.select(key_read, Name::intern("=="), SymbolId::NONE, eq_m);
        let key_eq = ctx.apply(eq_sel, vec![k_lit], Type::Boolean);
        let and_m = Type::Method {
            params: [TypeList::from([Type::Boolean])].into(),
            ret: Arc::new(Type::Boolean),
        };
        let and_sel = ctx.select(is_tok, Name::intern("&&"), SymbolId::NONE, and_m);
        let cond = ctx.apply(and_sel, vec![key_eq], Type::Boolean);
        let e3 = ctx.ident(exc);
        let cast2 = ctx.mk(
            TreeKind::Cast {
                expr: e3,
                tpe: cell_t.clone(),
            },
            cell_t,
            tree.span(),
        );
        let v_read = ctx.select(cast2, Name::intern("value"), value_f, Type::Any);
        let result = if ret_t == Type::Any {
            v_read
        } else {
            ctx.mk(
                TreeKind::Cast {
                    expr: v_read,
                    tpe: ret_t.clone(),
                },
                ret_t.clone(),
                tree.span(),
            )
        };
        let e4 = ctx.ident(exc);
        let rethrow = ctx.mk(TreeKind::Throw { expr: e4 }, Type::Nothing, tree.span());
        let handler = ctx.mk(
            TreeKind::If {
                cond,
                then_branch: result,
                else_branch: rethrow,
            },
            ret_t.clone(),
            tree.span(),
        );
        let ee = ctx.empty();
        let typed_any = ctx.mk(
            TreeKind::Typed {
                expr: ee,
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
            ret_t.clone(),
            tree.span(),
        );
        let ef = ctx.empty();
        let wrapped = ctx.mk(
            TreeKind::Try {
                block: rhs.clone(),
                cases: [case].into(),
                finalizer: ef,
            },
            ret_t,
            tree.span(),
        );
        ctx.with_kind(
            tree,
            TreeKind::DefDef {
                sym: *sym,
                paramss: paramss.clone(),
                rhs: wrapped,
            },
        )
    }

    fn transform_package_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let Some(cls_tree) = self.pending_class.take() else {
            return tree.clone();
        };
        let TreeKind::PackageDef { pkg, stats } = tree.kind() else {
            return tree.clone();
        };
        let mut new_stats = stats.clone();
        new_stats.push(cls_tree);
        ctx.with_kind(
            tree,
            TreeKind::PackageDef {
                pkg: *pkg,
                stats: new_stats,
            },
        )
    }
}
