//! `Erasure` — rewrites all types to the backend model, erasing type
//! parameters, type applications, function types and by-name remnants.
//!
//! The paper's second canonical group splitter (§6.2.2): erasure changes the
//! types of *every* tree, so phases cannot straddle it (rule 2), and it
//! assumes earlier phases finished whole units (rule 3). It therefore forms
//! a fusion group of its own via `runs_after_groups_of`.
//!
//! Symbol types are erased lazily: the phase declares an info transformer
//! and the symbol table shows every symbol erased from the start of the
//! phase's group on (see [`mini_ir::SymbolTable::info_at`]).

use mini_ir::{
    Ctx, InfoTransform, NodeKindSet, SymbolData, SymbolTable, TreeKind, TreeRef, Type, TypeList,
};
use miniphase::{MiniPhase, PhaseInfo};
use std::sync::Arc;

/// The type-erasure phase.
#[derive(Default)]
pub struct Erasure;

impl PhaseInfo for Erasure {
    fn name(&self) -> &str {
        "erasure"
    }
    fn description(&self) -> &str {
        "rewrite types to the backend model, erasing all type parameters"
    }
}

impl Erasure {
    fn erase_node(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let erased = ctx.symbols.erase(tree.tpe());
        match tree.kind() {
            // Type applications vanish; the function child is already erased.
            TreeKind::TypeApply { fun, .. } => fun.clone(),
            // Member selections: a value select whose member erased to a less
            // specific type gets a cast back to the erased static type.
            TreeKind::Select { qual, name, sym } => {
                if sym.exists() {
                    let member_info = ctx.symbols.info(*sym).into_owned();
                    if !member_info.is_method_like() {
                        let node = ctx.mk(
                            TreeKind::Select {
                                qual: qual.clone(),
                                name: *name,
                                sym: *sym,
                            },
                            member_info.clone(),
                            tree.span(),
                        );
                        return self.cast_if_needed(ctx, node, &member_info, &erased);
                    }
                    // Method select in function position: carries the erased
                    // method type.
                    return ctx.retyped(tree, member_info);
                }
                // Intrinsic selects: erase the carried method type.
                ctx.retyped(tree, erased)
            }
            // Applications: the result type comes from the (erased) function
            // type; cast back to the erased static type when they differ.
            TreeKind::Apply { fun, .. } => {
                let result = match fun.tpe() {
                    Type::Method { ret, .. } => (**ret).clone(),
                    _ => erased.clone(),
                };
                let node = ctx.retyped(tree, result.clone());
                self.cast_if_needed(ctx, node, &result, &erased)
            }
            TreeKind::New { .. } => {
                let k = TreeKind::New {
                    tpe: erased.clone(),
                };
                ctx.mk(k, erased, tree.span())
            }
            TreeKind::Cast { expr, tpe } => {
                let et = ctx.symbols.erase(tpe);
                ctx.mk(
                    TreeKind::Cast {
                        expr: expr.clone(),
                        tpe: et.clone(),
                    },
                    et,
                    tree.span(),
                )
            }
            TreeKind::IsInstance { expr, tpe } => {
                let et = ctx.symbols.erase(tpe);
                ctx.mk(
                    TreeKind::IsInstance {
                        expr: expr.clone(),
                        tpe: et,
                    },
                    Type::Boolean,
                    tree.span(),
                )
            }
            TreeKind::Typed { expr, tpe } => {
                let et = ctx.symbols.erase(tpe);
                ctx.mk(
                    TreeKind::Typed {
                        expr: expr.clone(),
                        tpe: et.clone(),
                    },
                    et,
                    tree.span(),
                )
            }
            TreeKind::SeqLiteral { elems, elem_tpe } => {
                let et = ctx.symbols.erase(elem_tpe);
                let node_t = Type::Array(Arc::new(et.clone()));
                ctx.mk(
                    TreeKind::SeqLiteral {
                        elems: elems.clone(),
                        elem_tpe: et,
                    },
                    node_t,
                    tree.span(),
                )
            }
            // Everything else: keep the shape, erase the node type.
            _ => ctx.retyped(tree, erased),
        }
    }

    fn cast_if_needed(
        &self,
        ctx: &mut Ctx,
        node: TreeRef,
        actual: &Type,
        expected: &Type,
    ) -> TreeRef {
        if actual == expected || expected.is_missing() || *expected == Type::Any {
            return node;
        }
        if !matches!(actual, Type::Any) {
            // Only the Any→specific narrowing needs a checked cast.
            return node;
        }
        let span = node.span();
        ctx.mk(
            TreeKind::Cast {
                expr: node,
                tpe: expected.clone(),
            },
            expected.clone(),
            span,
        )
    }
}

/// `Erasure`'s info transformer: [`SymbolTable::erase`] on the info and
/// every parent.
fn transform_info(
    _sym: &SymbolData,
    info: &Type,
    parents: &TypeList,
    symbols: &SymbolTable,
) -> Option<(Type, TypeList)> {
    let erased = symbols.erase_changed(info);
    let eparents = parents.map_changed(|p| symbols.erase_changed(p));
    if erased.is_none() && eparents.is_none() {
        return None;
    }
    Some((
        erased.unwrap_or_else(|| info.clone()),
        eparents.unwrap_or_else(|| parents.clone()),
    ))
}

macro_rules! impl_erasure_hooks {
    ($(($variant:ident, $t:ident, $p:ident),)*) => {
        impl MiniPhase for Erasure {
            fn transforms(&self) -> NodeKindSet {
                NodeKindSet::ALL
            }

            fn runs_after_groups_of(&self) -> Vec<&'static str> {
                // Rule 2 + rule 3 (§6.2.2): everything before erasure must
                // have finished the whole unit.
                vec!["patternMatcher", "elimByName", "seqLiterals"]
            }

            fn info_transformer(&self) -> Option<InfoTransform> {
                Some(transform_info)
            }

            fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
                if matches!(t.kind(), TreeKind::TypeApply { .. }) {
                    return Err("TypeApply survived Erasure".into());
                }
                if !t.is_empty_tree() && !t.tpe().is_erased() {
                    return Err(format!("unerased type {} survived Erasure", t.tpe()));
                }
                Ok(())
            }

            $(
                fn $t(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
                    self.erase_node(ctx, tree)
                }
            )*
        }
    };
}

mini_ir::with_node_kinds!(impl_erasure_hooks);
