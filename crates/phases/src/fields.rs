//! Field-related Miniphases: `Getters`, `LazyVals` and `Memoize` — the
//! trio that the scalac `fields` megaphase fused by hand (§2.1) and Dotty
//! keeps as three independent Miniphases.

use crate::simple::is_accessorable;
use mini_ir::{
    Constant, Ctx, Flags, NodeKind, NodeKindSet, SymKind, SymbolId, TreeKind, TreeRef, Type,
    TypeList,
};
use miniphase::{MiniPhase, PhaseInfo};
use std::sync::Arc;

// ======================= Getters ======================================

/// Replaces non-private immutable class-member values with getter defs
/// (Dotty's `Getters`); the backing fields are added later by `Memoize`.
#[derive(Default)]
pub struct Getters;

impl PhaseInfo for Getters {
    fn name(&self) -> &str {
        "getters"
    }
    fn description(&self) -> &str {
        "replace non-private vals with getter defs (fields are added later)"
    }
}

/// True if the select must become a getter application — either the symbol
/// is still a plain value member (this phase has not yet seen its ValDef) or
/// it was already converted to an accessor method.
fn reads_through_getter(ctx: &Ctx, sym: SymbolId) -> bool {
    if is_accessorable(ctx, sym) {
        return true;
    }
    if !sym.exists() {
        return false;
    }
    let d = ctx.symbols.sym(sym);
    d.flags.is(Flags::METHOD | Flags::ACCESSOR)
}

impl MiniPhase for Getters {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::ValDef).with(NodeKind::Select)
    }

    fn transform_val_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::ValDef { sym, rhs } = tree.kind() else {
            return tree.clone();
        };
        if !is_accessorable(ctx, *sym) {
            return tree.clone();
        }
        let value_t = ctx.symbols.info(*sym).into_owned();
        {
            let d = ctx.symbols.sym_mut(*sym);
            d.flags |= Flags::METHOD | Flags::ACCESSOR;
            d.set_info(Type::Method {
                params: [TypeList::new()].into(),
                ret: Arc::new(value_t),
            });
        }
        ctx.with_kind(
            tree,
            TreeKind::DefDef {
                sym: *sym,
                paramss: vec![vec![]],
                rhs: rhs.clone(),
            },
        )
    }

    fn transform_select(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Select { qual, name, sym } = tree.kind() else {
            return tree.clone();
        };
        if !reads_through_getter(ctx, *sym) {
            return tree.clone();
        }
        let value_t = tree.tpe().clone();
        // A select that is already the function of an accessor Apply was
        // produced by this phase or a later reference; bare value reads are
        // distinguishable because their type is the *value* type.
        if matches!(value_t, Type::Method { .. }) {
            return tree.clone();
        }
        let getter_t = Type::Method {
            params: [TypeList::new()].into(),
            ret: Arc::new(value_t.clone()),
        };
        let sel = ctx.select(qual.clone(), *name, *sym, getter_t);
        ctx.apply(sel, vec![], value_t)
    }

    fn check_post_condition(&self, ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        // No bare value-typed selection of an accessorable member remains.
        if let TreeKind::Select { sym, .. } = t.kind() {
            if is_accessorable(ctx, *sym) {
                return Err(format!(
                    "member value `{}` read without a getter",
                    ctx.symbols.full_name(*sym)
                ));
            }
        }
        Ok(())
    }
}

// ======================= LazyVals ====================================

/// Expands lazy vals (Dotty's `LazyVals`): a lazy accessor gets a value
/// field and an initialization flag field, and its body becomes the
/// check-compute-cache sequence. Local lazy vals become nested defs.
#[derive(Default)]
pub struct LazyVals {
    /// Field declarations to add per enclosing class.
    pending_fields: Vec<(SymbolId, TreeRef)>,
}

impl PhaseInfo for LazyVals {
    fn name(&self) -> &str {
        "lazyVals"
    }
    fn description(&self) -> &str {
        "expand lazy vals"
    }
}

impl LazyVals {
    fn expand_member(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::DefDef { sym, paramss, rhs } = tree.kind() else {
            return tree.clone();
        };
        let d = ctx.symbols.sym(*sym);
        if !d.flags.is(Flags::LAZY) || rhs.is_empty_tree() {
            return tree.clone();
        }
        let cls = d.owner;
        let name = d.name;
        let value_t = ctx.symbols.info(*sym).final_result().clone();
        // Fields.
        let value_f = ctx.symbols.new_term(
            cls,
            mini_ir::Name::intern(&format!("{name}$lzy")),
            Flags::FIELD | Flags::MUTABLE | Flags::SYNTHETIC,
            value_t.clone(),
        );
        let flag_f = ctx.symbols.new_term(
            cls,
            mini_ir::Name::intern(&format!("{name}$flag")),
            Flags::FIELD | Flags::MUTABLE | Flags::SYNTHETIC,
            Type::Boolean,
        );
        {
            let dm = ctx.symbols.sym_mut(*sym);
            dm.flags = dm.flags.without(Flags::LAZY | Flags::ACCESSOR);
        }
        let e1 = ctx.empty();
        self.pending_fields.push((cls, ctx.val_def(value_f, e1)));
        let false_lit = ctx.lit_bool(false);
        self.pending_fields
            .push((cls, ctx.val_def(flag_f, false_lit)));
        // Body: if (!this.flag) { this.value = rhs; this.flag = true };
        //       this.value
        let this1 = ctx.this_mono(cls);
        let flag_read = ctx.select(this1, ctx.symbols.sym(flag_f).name, flag_f, Type::Boolean);
        let not_t = Type::Method {
            params: [TypeList::new()].into(),
            ret: Arc::new(Type::Boolean),
        };
        let not_sel = ctx.select(flag_read, mini_ir::Name::intern("!"), SymbolId::NONE, not_t);
        let cond = ctx.apply(not_sel, vec![], Type::Boolean);

        let this2 = ctx.this_mono(cls);
        let value_lhs = ctx.select(
            this2,
            ctx.symbols.sym(value_f).name,
            value_f,
            value_t.clone(),
        );
        let set_value = ctx.mk(
            TreeKind::Assign {
                lhs: value_lhs,
                rhs: rhs.clone(),
            },
            Type::Unit,
            tree.span(),
        );
        let this3 = ctx.this_mono(cls);
        let flag_lhs = ctx.select(this3, ctx.symbols.sym(flag_f).name, flag_f, Type::Boolean);
        let true_lit = ctx.lit_bool(true);
        let set_flag = ctx.mk(
            TreeKind::Assign {
                lhs: flag_lhs,
                rhs: true_lit,
            },
            Type::Unit,
            tree.span(),
        );
        let unit1 = ctx.lit_unit();
        let then_b = ctx.block(vec![set_value, set_flag], unit1);
        let empty = ctx.empty();
        let check = ctx.mk(
            TreeKind::If {
                cond,
                then_branch: then_b,
                else_branch: empty,
            },
            Type::Unit,
            tree.span(),
        );
        let this4 = ctx.this_mono(cls);
        let read = ctx.select(
            this4,
            ctx.symbols.sym(value_f).name,
            value_f,
            value_t.clone(),
        );
        let body = ctx.mk(
            TreeKind::Block {
                stats: [check].into(),
                expr: read,
            },
            value_t,
            tree.span(),
        );
        ctx.with_kind(
            tree,
            TreeKind::DefDef {
                sym: *sym,
                paramss: paramss.clone(),
                rhs: body,
            },
        )
    }
}

impl MiniPhase for LazyVals {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::DefDef)
            .with(NodeKind::ClassDef)
            .with(NodeKind::Block)
            .with(NodeKind::Ident)
    }

    fn runs_after(&self) -> Vec<&'static str> {
        vec!["mixin"]
    }

    fn transform_def_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        // Member lazy accessors were produced by Getters; locals are handled
        // in transform_block.
        let sym = tree.def_sym();
        if sym.exists() && ctx.symbols.sym(ctx.symbols.sym(sym).owner).kind == SymKind::Class {
            return self.expand_member(ctx, tree);
        }
        tree.clone()
    }

    fn transform_class_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::ClassDef { sym, body } = tree.kind() else {
            return tree.clone();
        };
        if self.pending_fields.iter().all(|(c, _)| c != sym) {
            return tree.clone();
        }
        let mut new_body = body.clone();
        self.pending_fields.retain(|(c, f)| {
            if c == sym {
                new_body.push(f.clone());
                false
            } else {
                true
            }
        });
        ctx.with_kind(
            tree,
            TreeKind::ClassDef {
                sym: *sym,
                body: new_body,
            },
        )
    }

    fn transform_block(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        // Local lazy vals: `lazy val x: T = rhs` becomes
        // `var x$flag = false; var x$v: T = null; def x(): T = {...}` and
        // uses become `x()` (see transform_ident).
        let TreeKind::Block { stats, expr } = tree.kind() else {
            return tree.clone();
        };
        if !stats.iter().any(|s| {
            let d = s.def_sym();
            matches!(s.kind(), TreeKind::ValDef { .. })
                && d.exists()
                && ctx.symbols.sym(d).flags.is(Flags::LAZY)
        }) {
            return tree.clone();
        }
        let mut new_stats = Vec::with_capacity(stats.len() + 2);
        for s in stats {
            let d = s.def_sym();
            let is_lazy_local = matches!(s.kind(), TreeKind::ValDef { .. })
                && d.exists()
                && ctx.symbols.sym(d).flags.is(Flags::LAZY);
            if !is_lazy_local {
                new_stats.push(s.clone());
                continue;
            }
            let TreeKind::ValDef { sym, rhs } = s.kind() else {
                unreachable!("checked above")
            };
            let owner = ctx.symbols.sym(*sym).owner;
            let name = ctx.symbols.sym(*sym).name;
            let value_t = ctx.symbols.info(*sym).into_owned();
            let flag_sym = ctx.symbols.new_term(
                owner,
                mini_ir::Name::intern(&format!("{name}$flag")),
                Flags::MUTABLE | Flags::SYNTHETIC,
                Type::Boolean,
            );
            let value_sym = ctx.symbols.new_term(
                owner,
                mini_ir::Name::intern(&format!("{name}$lzy")),
                Flags::MUTABLE | Flags::SYNTHETIC,
                value_t.clone(),
            );
            {
                let dm = ctx.symbols.sym_mut(*sym);
                dm.flags = dm.flags.without(Flags::LAZY) | Flags::METHOD | Flags::SYNTHETIC;
                dm.set_info(Type::Method {
                    params: [TypeList::new()].into(),
                    ret: Arc::new(value_t.clone()),
                });
            }
            let f = ctx.lit_bool(false);
            new_stats.push(ctx.val_def(flag_sym, f));
            let n = ctx.lit(Constant::Null, s.span());
            new_stats.push(ctx.val_def(value_sym, n));
            // def x(): T = { if (!flag) { value = rhs; flag = true }; value }
            let flag_read = ctx.ident(flag_sym);
            let not_t = Type::Method {
                params: [TypeList::new()].into(),
                ret: Arc::new(Type::Boolean),
            };
            let not_sel = ctx.select(flag_read, mini_ir::Name::intern("!"), SymbolId::NONE, not_t);
            let cond = ctx.apply(not_sel, vec![], Type::Boolean);
            let v_lhs = ctx.ident(value_sym);
            let set_v = ctx.mk(
                TreeKind::Assign {
                    lhs: v_lhs,
                    rhs: rhs.clone(),
                },
                Type::Unit,
                s.span(),
            );
            let f_lhs = ctx.ident(flag_sym);
            let t_lit = ctx.lit_bool(true);
            let set_f = ctx.mk(
                TreeKind::Assign {
                    lhs: f_lhs,
                    rhs: t_lit,
                },
                Type::Unit,
                s.span(),
            );
            let u = ctx.lit_unit();
            let then_b = ctx.block(vec![set_v, set_f], u);
            let e = ctx.empty();
            let check = ctx.mk(
                TreeKind::If {
                    cond,
                    then_branch: then_b,
                    else_branch: e,
                },
                Type::Unit,
                s.span(),
            );
            let read = ctx.ident(value_sym);
            let body = ctx.mk(
                TreeKind::Block {
                    stats: [check].into(),
                    expr: read,
                },
                value_t,
                s.span(),
            );
            new_stats.push(ctx.mk(
                TreeKind::DefDef {
                    sym: *sym,
                    paramss: vec![vec![]],
                    rhs: body,
                },
                Type::Unit,
                s.span(),
            ));
        }
        ctx.with_kind(
            tree,
            TreeKind::Block {
                stats: new_stats.into(),
                expr: expr.clone(),
            },
        )
    }

    fn transform_ident(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        // A use of a local lazy val forces the generated def. Decidable from
        // the tree: the symbol is (or will be) a nullary method while the
        // reference is still value-typed.
        let TreeKind::Ident { sym } = tree.kind() else {
            return tree.clone();
        };
        if !sym.exists() {
            return tree.clone();
        }
        let d = ctx.symbols.sym(*sym);
        let lazy_now = d.flags.is(Flags::LAZY) && !d.flags.is(Flags::PARAM);
        let lazified = d.flags.is(Flags::METHOD | Flags::SYNTHETIC)
            && matches!(tree.tpe(), t if !t.is_method_like());
        if !(lazy_now || (lazified && matches!(*ctx.symbols.info(*sym), Type::Method { .. }))) {
            return tree.clone();
        }
        if matches!(tree.tpe(), Type::Method { .. }) {
            return tree.clone();
        }
        let value_t = tree.tpe().clone();
        let m_t = Type::Method {
            params: [TypeList::new()].into(),
            ret: Arc::new(value_t.clone()),
        };
        let f = ctx.retyped(tree, m_t);
        ctx.apply(f, vec![], value_t)
    }
}

// ======================= Memoize ======================================

/// Adds backing fields to getters (Dotty's `Memoize`): an accessor
/// `def x(): T = rhs` becomes a field declaration plus an initializer (later
/// moved into the constructor by `Constructors`), and the accessor body
/// becomes a field read.
#[derive(Default)]
pub struct Memoize;

impl PhaseInfo for Memoize {
    fn name(&self) -> &str {
        "memoize"
    }
    fn description(&self) -> &str {
        "add private fields to getters"
    }
}

impl MiniPhase for Memoize {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::ClassDef)
    }

    fn runs_after(&self) -> Vec<&'static str> {
        vec!["lazyVals"]
    }

    fn transform_class_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::ClassDef { sym, body } = tree.kind() else {
            return tree.clone();
        };
        let cls = *sym;
        let needs = body.iter().any(|m| {
            let d = m.def_sym();
            matches!(m.kind(), TreeKind::DefDef { rhs, .. } if !rhs.is_empty_tree())
                && d.exists()
                && ctx.symbols.sym(d).flags.is(Flags::ACCESSOR)
        });
        if !needs {
            return tree.clone();
        }
        let mut new_body = Vec::with_capacity(body.len() + 2);
        for m in body {
            let d = m.def_sym();
            let is_accessor = d.exists() && ctx.symbols.sym(d).flags.is(Flags::ACCESSOR);
            match m.kind() {
                TreeKind::DefDef { sym, paramss, rhs } if is_accessor && !rhs.is_empty_tree() => {
                    let name = ctx.symbols.sym(*sym).name;
                    let value_t = ctx.symbols.info(*sym).final_result().clone();
                    let field = ctx.symbols.new_term(
                        cls,
                        mini_ir::Name::intern(&format!("{name}$field")),
                        Flags::FIELD | Flags::PRIVATE | Flags::MUTABLE | Flags::SYNTHETIC,
                        value_t.clone(),
                    );
                    // Initializer in declaration order; Constructors moves it
                    // into <init>.
                    new_body.push(ctx.val_def(field, rhs.clone()));
                    let this = ctx.this_mono(cls);
                    let read = ctx.select(this, ctx.symbols.sym(field).name, field, value_t);
                    new_body.push(ctx.mk(
                        TreeKind::DefDef {
                            sym: *sym,
                            paramss: paramss.clone(),
                            rhs: read,
                        },
                        Type::Unit,
                        m.span(),
                    ));
                }
                _ => new_body.push(m.clone()),
            }
        }
        ctx.with_kind(
            tree,
            TreeKind::ClassDef {
                sym: cls,
                body: new_body.into(),
            },
        )
    }

    fn check_post_condition(&self, ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        // Accessors hold no computation anymore: their body is a field read.
        if let TreeKind::DefDef { sym, rhs, .. } = t.kind() {
            if sym.exists()
                && ctx.symbols.sym(*sym).flags.is(Flags::ACCESSOR)
                && !rhs.is_empty_tree()
                && !matches!(rhs.kind(), TreeKind::Select { .. })
            {
                return Err(format!(
                    "accessor `{}` still computes its value after Memoize",
                    ctx.symbols.full_name(*sym)
                ));
            }
        }
        Ok(())
    }
}
