//! The `MiniPhase` trait (paper §4, Listings 4 and 7).
//!
//! A Miniphase is a tree transformation written against a *uniform post-order
//! traversal*: it overrides per-node-kind `transform_*` hooks (identity by
//! default) and optionally per-node-kind `prepare_*` hooks that push
//! phase-local state on the way *down* the tree (§4.1). Because every
//! Miniphase traverses in the same order, consecutive Miniphases can be fused
//! into a single traversal (see [`crate::fused`]).
//!
//! ## Identity detection
//!
//! The paper detects identity transforms by comparing function values against
//! `id` (Listing 6). Rust trait methods have no identity, so each phase
//! instead *declares* the node kinds it transforms ([`MiniPhase::transforms`])
//! and prepares ([`MiniPhase::prepares`]); the fusion engine uses these
//! bitmasks for the identity-skip fast path. Declaring a kind you do not
//! override is harmless (the default hook is identity); *failing* to declare
//! a kind you do override means the hook is never called under fusion — the
//! dynamic checkers of [`crate::checker`] exist to catch exactly this class
//! of mistake.
//!
//! ## Prepare balance
//!
//! When the framework dispatches a `prepare_*` hook that returns `true`
//! ("state pushed"), it guarantees exactly one matching
//! [`MiniPhase::finish_prepared`] call for the same node after the node's
//! transforms complete, regardless of how other fused phases change the
//! node's kind in between. Phases therefore implement ancestor-dependent
//! state as an explicit push in `prepare_*` / pop in `finish_prepared`.

use mini_ir::{Ctx, InfoTransform, NodeKind, NodeKindSet, TreeRef};

/// Options shared by every Miniphase (full-phase counterpart of the paper's
/// `Phase` class, Listing 4).
pub trait PhaseInfo {
    /// Stable phase name used in `runs_after` constraints and reports.
    fn name(&self) -> &str;

    /// One-line description for the phase-plan listing (Table 2).
    fn description(&self) -> &str {
        ""
    }
}

macro_rules! define_mini_phase {
    ($(($variant:ident, $t:ident, $p:ident),)*) => {
        /// A fusible tree-transformation phase.
        ///
        /// See the [module documentation](self) for the contract. All hook
        /// methods default to identity / no-op; implementations override the
        /// hooks for the node kinds they declare in [`MiniPhase::transforms`]
        /// and [`MiniPhase::prepares`].
        pub trait MiniPhase: PhaseInfo {
            /// The node kinds whose `transform_*` hook is overridden.
            ///
            /// This is the Rust replacement for the paper's
            /// `transform == id` test; it must be a superset of the kinds
            /// actually overridden.
            fn transforms(&self) -> NodeKindSet;

            /// The node kinds whose `prepare_*` hook is overridden.
            fn prepares(&self) -> NodeKindSet {
                NodeKindSet::EMPTY
            }

            /// Names of phases that must run (start) before this one, on the
            /// nodes this phase is currently processing (§6.3).
            fn runs_after(&self) -> Vec<&'static str> {
                Vec::new()
            }

            /// Names of phases whose *group* must have completely finished
            /// transforming the unit before this phase may run (§6.3). These
            /// constraints force fusion-group boundaries.
            fn runs_after_groups_of(&self) -> Vec<&'static str> {
                Vec::new()
            }

            /// This phase's symbol-info transformer, if it changes the
            /// types of symbols and not only of trees (Dotty's
            /// `InfoTransformer`): the function maps a symbol's info and
            /// parents as seen before the phase to those seen after it.
            ///
            /// The phase never rewrites the symbol table itself. The
            /// executor installs the transformers of a pipeline on the
            /// table ([`mini_ir::SymbolTable::set_info_plan`]) and advances
            /// the table's *period* at each group start, so from the start
            /// of this phase's group on, [`mini_ir::SymbolTable::info`]
            /// shows every symbol as transformed — computed on first read
            /// and memoized (see [`mini_ir::SymbolTable::info_at`] for
            /// periods, memoization and invalidation). Members of the same
            /// group see the transformed infos too, as they would have if
            /// the phase had rewritten the table in `prepare_unit`.
            fn info_transformer(&self) -> Option<InfoTransform> {
                None
            }

            /// Initializes per-unit state (§4.2, `compilationUnitPrepare`).
            fn prepare_unit(&mut self, ctx: &mut Ctx, unit_tree: &TreeRef) {
                let _ = (ctx, unit_tree);
            }

            /// Finalizes per-unit state and may post-process the unit tree
            /// (§4.2, `compilationUnitTransform`). The default is identity.
            fn transform_unit(&mut self, ctx: &mut Ctx, tree: TreeRef) -> TreeRef {
                let _ = ctx;
                tree
            }

            /// The postcondition this phase establishes (Listing 4's
            /// `checkPostCondition`): must hold for every subtree after this
            /// phase has run, and must be *preserved* by all later phases.
            ///
            /// # Errors
            ///
            /// Returns a message describing the violated invariant.
            fn check_post_condition(&self, ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
                let _ = (ctx, t);
                Ok(())
            }

            /// Called exactly once per node for which any `prepare_*` hook of
            /// this phase returned `true`, after the node's transforms.
            fn finish_prepared(&mut self, ctx: &mut Ctx, t: &TreeRef) {
                let _ = (ctx, t);
            }

            /// A synthetic instruction address for this phase's transform
            /// code, used by the instruction-cache model (Fig 8d). Stable
            /// per phase name.
            fn code_addr(&self) -> u64 {
                synthetic_code_addr(self.name())
            }

            /// Drains the static-analysis findings this phase accumulated
            /// over the unit just traversed. Called by the executors once
            /// per `(group, unit)` after `transform_unit`; analysis phases
            /// finalize deferred rules here (e.g. defined-minus-used) and
            /// must leave their per-unit state cleared. Transform phases
            /// keep the default (no findings).
            fn take_findings(&mut self) -> Vec<$crate::checker::Finding> {
                Vec::new()
            }

            /// Drains the number of tree nodes this phase eliminated from
            /// the unit just traversed (dead-code elimination and friends).
            /// Harvested by the executors once per `(group, unit)` into
            /// [`crate::ExecStats::nodes_eliminated`]; phases that never
            /// shrink trees keep the default (zero).
            fn take_eliminated(&mut self) -> u64 {
                0
            }

            $(
                #[doc = concat!(
                    "Transforms a `", stringify!($variant),
                    "` node; identity by default. Only called when `",
                    stringify!($variant), "` is in [`MiniPhase::transforms`]."
                )]
                fn $t(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
                    let _ = ctx;
                    tree.clone()
                }

                #[doc = concat!(
                    "Prepares for a `", stringify!($variant),
                    "` subtree on the way down; returns `true` if state was ",
                    "pushed (guaranteeing a matching ",
                    "[`MiniPhase::finish_prepared`])."
                )]
                fn $p(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> bool {
                    let _ = (ctx, tree);
                    false
                }
            )*
        }

        /// Dispatches the kind-specific transform hook for `tree`'s kind
        /// (the paper's `transform` method, Listing 4).
        pub fn dispatch_transform(
            phase: &mut dyn MiniPhase,
            ctx: &mut Ctx,
            tree: &TreeRef,
        ) -> TreeRef {
            match tree.node_kind() {
                $(NodeKind::$variant => phase.$t(ctx, tree),)*
            }
        }

        /// Dispatches the kind-specific prepare hook for `tree`'s kind;
        /// returns whether the phase pushed state.
        pub fn dispatch_prepare(
            phase: &mut dyn MiniPhase,
            ctx: &mut Ctx,
            tree: &TreeRef,
        ) -> bool {
            match tree.node_kind() {
                $(NodeKind::$variant => phase.$p(ctx, tree),)*
            }
        }
    };
}

mini_ir::with_node_kinds!(define_mini_phase);

/// Derives a stable synthetic instruction address from a phase name. Regions
/// are 64 KiB apart in a dedicated high address range so they never collide
/// with the synthetic data heap.
pub fn synthetic_code_addr(name: &str) -> u64 {
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (1 << 40) | ((h % 4096) << 16)
}

/// True if the phase overrides any prepare hook.
pub fn has_prepares(phase: &dyn MiniPhase) -> bool {
    !phase.prepares().is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_ir::TreeKind;

    struct Doubler;
    impl PhaseInfo for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
    }
    impl MiniPhase for Doubler {
        fn transforms(&self) -> NodeKindSet {
            NodeKindSet::of(NodeKind::Literal)
        }
        fn transform_literal(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
            if let TreeKind::Literal { value } = tree.kind() {
                if let Some(i) = value.as_int() {
                    return ctx.lit_int(i * 2);
                }
            }
            tree.clone()
        }
    }

    #[test]
    fn dispatch_routes_by_kind() {
        let mut ctx = Ctx::new();
        let mut ph = Doubler;
        let lit = ctx.lit_int(21);
        let out = dispatch_transform(&mut ph, &mut ctx, &lit);
        assert_eq!(out.kind().node_kind(), NodeKind::Literal);
        if let TreeKind::Literal { value } = out.kind() {
            assert_eq!(value.as_int(), Some(42));
        }
        // A kind the phase does not override is identity.
        let blk = {
            let s = ctx.lit_unit();
            let l = ctx.lit_int(5);
            ctx.block(vec![s], l)
        };
        let out2 = dispatch_transform(&mut ph, &mut ctx, &blk);
        assert!(mini_ir::TreeRef::ptr_eq(&out2, &blk));
    }

    #[test]
    fn default_prepare_reports_no_push() {
        let mut ctx = Ctx::new();
        let mut ph = Doubler;
        let lit = ctx.lit_int(1);
        assert!(!dispatch_prepare(&mut ph, &mut ctx, &lit));
    }

    #[test]
    fn code_addresses_are_stable_and_disjoint_from_heap() {
        let a = synthetic_code_addr("phaseA");
        let b = synthetic_code_addr("phaseA");
        assert_eq!(a, b);
        assert!(a >= 1 << 40, "code space above synthetic heap");
        assert_ne!(synthetic_code_addr("x"), synthetic_code_addr("y"));
    }
}
