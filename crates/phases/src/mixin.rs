//! `Mixin` and `Constructors`.
//!
//! `Mixin` inserts calls to the trait initializers of a class's own (newly
//! inherited) traits; `Constructors` collects all initialization code —
//! super-constructor call, trait initializers, field initializers, loose
//! template statements — into the primary constructor (`<init>`), and into a
//! synthesized `{Trait}$init` method for traits.

use mini_ir::{
    std_names, Ctx, Flags, Name, NodeKind, NodeKindSet, SymbolId, TreeKind, TreeRef, Type, TypeList,
};
use miniphase::{MiniPhase, PhaseInfo};
use std::sync::Arc;

/// The per-trait initializer method name.
pub fn trait_init_name(ctx: &Ctx, trait_sym: SymbolId) -> Name {
    Name::intern(&format!("{}$init", ctx.symbols.sym(trait_sym).name))
}

// ======================= Mixin =======================================

/// Expands trait composition (Dotty's `Mixin`): each concrete class gains
/// calls to the initializers of the traits it newly mixes in, base-most
/// first. The initializers themselves are synthesized by `Constructors`.
#[derive(Default)]
pub struct Mixin;

impl PhaseInfo for Mixin {
    fn name(&self) -> &str {
        "mixin"
    }
    fn description(&self) -> &str {
        "expand trait fields and trait initializers"
    }
}

impl MiniPhase for Mixin {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::ClassDef)
    }

    fn runs_after_groups_of(&self) -> Vec<&'static str> {
        vec!["erasure"]
    }

    fn transform_class_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::ClassDef { sym, body } = tree.kind() else {
            return tree.clone();
        };
        let cls = *sym;
        let d = ctx.symbols.sym(cls);
        if d.flags.is(Flags::TRAIT) {
            return tree.clone();
        }
        // New traits: in this class's linearization but not inherited through
        // the superclass.
        let lin = ctx.symbols.linearization(cls);
        let super_cls = ctx
            .symbols
            .parents(cls)
            .first()
            .and_then(|p| p.class_sym())
            .filter(|&p| !ctx.symbols.sym(p).flags.is(Flags::TRAIT));
        let inherited: Vec<SymbolId> = match super_cls {
            Some(p) => ctx.symbols.linearization(p),
            None => Vec::new(),
        };
        let mut new_traits: Vec<SymbolId> = lin
            .into_iter()
            .skip(1)
            .filter(|&t| {
                let td = ctx.symbols.sym(t);
                td.flags.is(Flags::TRAIT)
                    && !td.flags.is(Flags::SYNTHETIC)
                    && !inherited.contains(&t)
            })
            .collect();
        if new_traits.is_empty() {
            return tree.clone();
        }
        // Base-most first.
        new_traits.reverse();
        let mut stats: Vec<TreeRef> = Vec::with_capacity(new_traits.len() + body.len());
        for t in new_traits {
            let name = trait_init_name(ctx, t);
            let this = ctx.this_mono(cls);
            let m = Type::Method {
                params: [TypeList::new()].into(),
                ret: Arc::new(Type::Unit),
            };
            let init_sym = ctx.symbols.decl(t, name).unwrap_or(SymbolId::NONE);
            let sel = ctx.select(this, name, init_sym, m);
            stats.push(ctx.apply(sel, vec![], Type::Unit));
        }
        stats.extend(body.iter().cloned());
        ctx.with_kind(
            tree,
            TreeKind::ClassDef {
                sym: cls,
                body: stats.into(),
            },
        )
    }
}

// ======================= Constructors =================================

/// Collects initialization code into primary constructors (Dotty's
/// `Constructors`). For classes: synthesizes `<init>` with the constructor
/// parameters, assigning parameter fields, chaining the super constructor,
/// and moving field initializers and loose statements in declaration order.
/// For traits: the same material moves into a `{Trait}$init` method invoked
/// by implementing classes (inserted by `Mixin`).
#[derive(Default)]
pub struct Constructors;

impl PhaseInfo for Constructors {
    fn name(&self) -> &str {
        "constructors"
    }
    fn description(&self) -> &str {
        "collect initialization code in primary constructors"
    }
}

fn is_loose_stat(t: &TreeRef) -> bool {
    !t.is_def() && !t.is_empty_tree()
}

impl Constructors {
    fn field_assign(&self, ctx: &mut Ctx, cls: SymbolId, field: SymbolId, rhs: TreeRef) -> TreeRef {
        let this = ctx.this_mono(cls);
        let ft = ctx.symbols.info(field).into_owned();
        let name = ctx.symbols.sym(field).name;
        let lhs = ctx.select(this, name, field, ft);
        ctx.mk(
            TreeKind::Assign { lhs, rhs },
            Type::Unit,
            mini_ir::Span::SYNTHETIC,
        )
    }

    fn transform_trait(&mut self, ctx: &mut Ctx, cls: SymbolId, body: &[TreeRef]) -> Vec<TreeRef> {
        let mut init_stats = Vec::new();
        let mut new_body = Vec::new();
        for m in body {
            match m.kind() {
                TreeKind::ValDef { sym, rhs } if !rhs.is_empty_tree() => {
                    init_stats.push(self.field_assign(ctx, cls, *sym, rhs.clone()));
                    let e = ctx.empty();
                    new_body.push(ctx.val_def(*sym, e));
                }
                _ if is_loose_stat(m) => init_stats.push(m.clone()),
                _ => new_body.push(m.clone()),
            }
        }
        let name = trait_init_name(ctx, cls);
        let init_sym = match ctx.symbols.decl(cls, name) {
            Some(s) => s,
            None => ctx.symbols.new_term(
                cls,
                name,
                Flags::METHOD | Flags::SYNTHETIC,
                Type::Method {
                    params: [TypeList::new()].into(),
                    ret: Arc::new(Type::Unit),
                },
            ),
        };
        let unit = ctx.lit_unit();
        let init_body = ctx.block(init_stats, unit);
        new_body.push(ctx.mk(
            TreeKind::DefDef {
                sym: init_sym,
                paramss: vec![vec![]],
                rhs: init_body,
            },
            Type::Unit,
            mini_ir::Span::SYNTHETIC,
        ));
        new_body
    }

    fn transform_class(
        &mut self,
        ctx: &mut Ctx,
        cls: SymbolId,
        ctor: SymbolId,
        body: &[TreeRef],
    ) -> Vec<TreeRef> {
        // Constructor parameters mirror the PARAM-flagged fields, in
        // declaration order.
        let param_fields: Vec<SymbolId> = ctx
            .symbols
            .decls_of(cls)
            .into_iter()
            .filter(|&d| {
                let sd = ctx.symbols.sym(d);
                sd.flags.is(Flags::PARAM) && !sd.flags.is(Flags::METHOD)
            })
            .collect();
        let mut params = Vec::with_capacity(param_fields.len());
        let mut init_stats = Vec::new();
        // 1. Super constructor.
        let super_cls = ctx
            .symbols
            .parents(cls)
            .first()
            .and_then(|p| p.class_sym())
            .filter(|&p| !ctx.symbols.sym(p).flags.is(Flags::TRAIT));
        if let Some(p) = super_cls {
            if let Some(pctor) = ctx.symbols.decl(p, std_names::init()) {
                let sup_t = ctx.symbols.class_type(p);
                let sup = ctx.mk(TreeKind::Super { cls }, sup_t, mini_ir::Span::SYNTHETIC);
                let m = ctx.symbols.info(pctor).into_owned();
                let sel = ctx.select(sup, std_names::init(), pctor, m);
                init_stats.push(ctx.apply(sel, vec![], Type::Unit));
            }
        }
        // 2. Parameter-field assignments.
        for &f in &param_fields {
            let fname = ctx.symbols.sym(f).name;
            let ft = ctx.symbols.info(f).into_owned();
            let p = ctx.symbols.new_term(
                ctor,
                Name::intern(&format!("{fname}$p")),
                Flags::PARAM | Flags::SYNTHETIC,
                ft,
            );
            let e = ctx.empty();
            params.push(ctx.mk(
                TreeKind::ValDef { sym: p, rhs: e },
                Type::Unit,
                mini_ir::Span::SYNTHETIC,
            ));
            let pref = ctx.ident(p);
            init_stats.push(self.field_assign(ctx, cls, f, pref));
        }
        // 3. Field initializers and loose statements, in order; fields stay
        //    as declarations.
        let mut new_body: Vec<TreeRef> = param_fields
            .iter()
            .map(|&f| {
                let e = ctx.empty();
                ctx.val_def(f, e)
            })
            .collect();
        for m in body {
            match m.kind() {
                TreeKind::ValDef { sym, rhs } if !rhs.is_empty_tree() => {
                    init_stats.push(self.field_assign(ctx, cls, *sym, rhs.clone()));
                    let e = ctx.empty();
                    new_body.push(ctx.val_def(*sym, e));
                }
                _ if is_loose_stat(m) => init_stats.push(m.clone()),
                _ => new_body.push(m.clone()),
            }
        }
        let unit = ctx.lit_unit();
        let ctor_body = ctx.block(init_stats, unit);
        new_body.push(ctx.mk(
            TreeKind::DefDef {
                sym: ctor,
                paramss: vec![params],
                rhs: ctor_body,
            },
            Type::Unit,
            mini_ir::Span::SYNTHETIC,
        ));
        new_body
    }
}

impl MiniPhase for Constructors {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::ClassDef)
    }

    fn runs_after(&self) -> Vec<&'static str> {
        vec!["mixin", "memoize", "capturedVars"]
    }

    fn transform_class_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::ClassDef { sym, body } = tree.kind() else {
            return tree.clone();
        };
        let cls = *sym;
        let new_body = if ctx.symbols.sym(cls).flags.is(Flags::TRAIT) {
            self.transform_trait(ctx, cls, body)
        } else {
            match ctx.symbols.decl(cls, std_names::init()) {
                // Synthetic classes without a constructor symbol (closure
                // classes, the Ref cell) are left alone.
                None => return tree.clone(),
                Some(ctor) => self.transform_class(ctx, cls, ctor, body),
            }
        };
        ctx.with_kind(
            tree,
            TreeKind::ClassDef {
                sym: cls,
                body: new_body.into(),
            },
        )
    }

    fn check_post_condition(&self, ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        if let TreeKind::ClassDef { sym, body } = t.kind() {
            // No field initializers outside the constructor.
            for m in body {
                if let TreeKind::ValDef { sym: f, rhs } = m.kind() {
                    if !rhs.is_empty_tree() {
                        return Err(format!(
                            "field `{}` still initialized outside <init>",
                            ctx.symbols.full_name(*f)
                        ));
                    }
                }
            }
            // Classes with a constructor symbol carry an <init> DefDef.
            if !ctx.symbols.sym(*sym).flags.is(Flags::TRAIT)
                && ctx.symbols.decl(*sym, std_names::init()).is_some()
                && !body.iter().any(|m| {
                    matches!(m.kind(), TreeKind::DefDef { sym: d, .. }
                        if ctx.symbols.sym(*d).flags.is(Flags::CONSTRUCTOR))
                })
            {
                return Err(format!(
                    "class `{}` lacks an <init> after Constructors",
                    ctx.symbols.full_name(*sym)
                ));
            }
        }
        Ok(())
    }
}
