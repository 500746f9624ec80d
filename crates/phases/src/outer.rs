//! `ExplicitOuter` — gives nested classes an `$outer` field and rewrites
//! `this` references to outer classes into `$outer` chains.

use mini_ir::{
    std_names, Ctx, Flags, Name, NodeKind, NodeKindSet, SymbolId, TreeKind, TreeRef, Type, TypeList,
};
use miniphase::{MiniPhase, PhaseInfo};

/// The outer-pointer phase.
#[derive(Default)]
pub struct ExplicitOuter {
    /// Enclosing class stack (maintained through prepares).
    classes: Vec<SymbolId>,
}

fn outer_name() -> Name {
    std_names::outer()
}

/// The `$outer` field of `cls`, if it has one.
fn outer_field(ctx: &Ctx, cls: SymbolId) -> Option<SymbolId> {
    ctx.symbols.decl(cls, outer_name())
}

impl ExplicitOuter {
    /// Builds the access path from the current class's `this` to `target`'s
    /// instance by chaining `$outer` fields. Returns `None` when `target` is
    /// not on the enclosing-class path.
    fn outer_path(&self, ctx: &mut Ctx, target: SymbolId) -> Option<TreeRef> {
        let innermost = *self.classes.last()?;
        let mut expr = ctx.this_ref(innermost);
        let mut cur = innermost;
        let mut fuel = 64;
        while cur != target {
            fuel -= 1;
            if fuel == 0 {
                return None;
            }
            let f = outer_field(ctx, cur)?;
            let next = ctx.symbols.info(f).class_sym()?;
            let ft = ctx.symbols.info(f).into_owned();
            expr = ctx.select(expr, outer_name(), f, ft);
            cur = next;
        }
        Some(expr)
    }
}

impl PhaseInfo for ExplicitOuter {
    fn name(&self) -> &str {
        "explicitOuter"
    }
    fn description(&self) -> &str {
        "add accessors to outer classes from nested ones"
    }
}

impl MiniPhase for ExplicitOuter {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::This).with(NodeKind::Apply)
    }

    fn prepares(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::ClassDef)
    }

    fn runs_after(&self) -> Vec<&'static str> {
        vec!["patternMatcher"]
    }

    fn prepare_class_def(&mut self, ctx: &mut Ctx, t: &TreeRef) -> bool {
        let cls = t.def_sym();
        // Entering a nested class: give it an `$outer` parameter-field and
        // extend its constructor signature (idempotent).
        let owner = ctx.symbols.sym(cls).owner;
        if ctx.symbols.sym(owner).kind == mini_ir::SymKind::Class && outer_field(ctx, cls).is_none()
        {
            let outer_t = ctx.symbols.class_type(owner);
            ctx.symbols.new_term(
                cls,
                outer_name(),
                Flags::PARAM | Flags::SYNTHETIC,
                outer_t.clone(),
            );
            if let Some(ctor) = ctx.symbols.decl(cls, std_names::init()) {
                if let Type::Method { params, ret } = ctx.symbols.info(ctor).into_owned() {
                    let ps = match params.split_first() {
                        Some((first, rest)) => {
                            let first: TypeList = first.iter().cloned().chain([outer_t]).collect();
                            std::iter::once(first).chain(rest.iter().cloned()).collect()
                        }
                        None => params,
                    };
                    ctx.symbols
                        .sym_mut(ctor)
                        .set_info(Type::Method { params: ps, ret });
                }
            }
        }
        self.classes.push(cls);
        true
    }

    fn finish_prepared(&mut self, _ctx: &mut Ctx, _t: &TreeRef) {
        self.classes.pop();
    }

    fn transform_this(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::This { cls } = tree.kind() else {
            return tree.clone();
        };
        match self.classes.last() {
            Some(&inner) if inner != *cls => match self.outer_path(ctx, *cls) {
                Some(path) => path,
                None => tree.clone(),
            },
            _ => tree.clone(),
        }
    }

    fn transform_apply(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        // Constructor calls of nested classes receive the outer instance as
        // an extra trailing argument.
        let TreeKind::Apply { fun, args } = tree.kind() else {
            return tree.clone();
        };
        let TreeKind::Select { qual, name, sym: _ } = fun.kind() else {
            return tree.clone();
        };
        if *name != std_names::init() || !matches!(qual.kind(), TreeKind::New { .. }) {
            return tree.clone();
        }
        let TreeKind::New { tpe } = qual.kind() else {
            return tree.clone();
        };
        let Some(cls) = tpe.class_sym() else {
            return tree.clone();
        };
        let owner = ctx.symbols.sym(cls).owner;
        if !owner.exists() || ctx.symbols.sym(owner).kind != mini_ir::SymKind::Class {
            return tree.clone();
        }
        // Nested class: needs the outer instance (unless already passed).
        let Some(f) = outer_field(ctx, cls) else {
            // The class's own prepare may not have run yet (forward
            // reference within the unit): create the field now, mirroring
            // prepare_class_def.
            let outer_t = ctx.symbols.class_type(owner);
            ctx.symbols
                .new_term(cls, outer_name(), Flags::PARAM | Flags::SYNTHETIC, outer_t);
            return self.transform_apply(ctx, tree);
        };
        let expected = ctx
            .symbols
            .sym(cls)
            .decls()
            .iter()
            .filter(|&&d| {
                let sd = ctx.symbols.sym(d);
                sd.flags.is(Flags::PARAM) && !sd.flags.is(Flags::METHOD)
            })
            .count();
        if args.len() >= expected {
            return tree.clone(); // already expanded
        }
        let Some(outer) = self.outer_path(ctx, owner) else {
            ctx.error(
                tree.span(),
                "explicitOuter",
                "cannot construct a nested class outside its outer class",
            );
            return tree.clone();
        };
        let _ = f;
        let mut new_args = args.clone();
        new_args.push(outer);
        ctx.with_kind(
            tree,
            TreeKind::Apply {
                fun: fun.clone(),
                args: new_args,
            },
        )
    }
}
