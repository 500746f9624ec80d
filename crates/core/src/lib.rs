//! # miniphase — the Miniphase framework
//!
//! The primary contribution of *"Miniphases: Compilation using Modular and
//! Efficient Tree Transformations"* (PLDI 2017): compiler phases written as
//! independent per-node-kind tree rewriters that the framework **fuses** into
//! a single traversal of the tree.
//!
//! * [`MiniPhase`] — the phase abstraction: per-kind `transform_*` hooks,
//!   per-kind `prepare_*` hooks (§4.1), unit init/finalize (§4.2), declared
//!   ordering constraints and postconditions (§6.3).
//! * [`Fused`] — the fusion combinator (Listings 5/6/8) with the
//!   identity-skip and same-kind fast-path optimizations.
//! * [`build_plan`] — the startup-validated phase planner that turns
//!   `runs_after` / `runs_after_groups_of` constraints into fusion groups.
//! * [`Pipeline`] / [`run_phase_on_unit`] — Listing 3/4's executors, with
//!   Megaphase (one traversal per phase) and Miniphase (one per group) modes.
//! * [`check_unit`] — the dynamic tree checker (Listing 9) replaying every
//!   prior phase's postconditions to localize faults.
//!
//! ## Subtree kind-summary pruning (`FusionOptions::subtree_pruning`)
//!
//! The fused walk still *visits* every node even when an entire subtree
//! contains no kind any member of the group prepares or transforms. Every
//! tree node caches a "kinds at-or-below" summary
//! ([`mini_ir::Tree::kinds_below`], maintained for free through every
//! copier/splice path because nodes are immutable and only built through
//! `Ctx::mk`); with the flag on, the executors intersect the group's
//! hoisted masks with each child's summary and skip whole subtrees outright,
//! reporting what they skipped in [`ExecStats::nodes_pruned`].
//!
//! The flag defaults to **off** — paper-exact mode — because pruning
//! changes `node_visits` (and, without copier reuse, allocation counts),
//! which the §5 figures and the fused-vs-mega visit ratios depend on. It
//! pays off on *sparse-kind* plans (a `patmat`-only or `tailRec`-only group
//! skips >90% of the dotty-like corpus); on the dense standard pipeline the
//! group masks cover most interior kinds, so pruning is roughly
//! wall-clock-neutral there and the default loses nothing. Soundness rests
//! on the same declared-mask contract as identity skip: masks are supersets
//! of the hooks a phase actually overrides, so a subtree without mask kinds
//! can receive no hook at all. Property tests assert byte-identical output
//! trees and exact `node_visits + nodes_pruned` accounting between pruned
//! and unpruned runs in every mode and ablation.
//!
//! ## Unit-level parallel compilation ([`parallel`])
//!
//! Fusion keeps each unit's traversal self-contained, so unit batches run
//! across worker threads: workers claim units through an atomic index
//! (cheap work stealing for skewed unit sizes), and each unit compiles
//! end-to-end with a private `Rc` tree arena, phase instances, scratch
//! stacks and an O(1) copy-on-write fork of the symbol table — **trees
//! never cross threads**, and unit shards, counters and dynamic-checker
//! findings merge back deterministically in unit order at group
//! boundaries. Any `jobs` is byte-identical to the sequential pipeline,
//! with the checker on or off; see the [`parallel`] module docs for the
//! full ownership, scheduling and determinism rules.
//!
//! # Examples
//!
//! ```
//! use mini_ir::{Ctx, NodeKind, NodeKindSet, TreeKind, TreeRef};
//! use miniphase::{
//!     build_plan, CompilationUnit, FusionOptions, MiniPhase, PhaseInfo, Pipeline, PlanOptions,
//! };
//!
//! /// A phase that increments every integer literal.
//! struct Inc(&'static str);
//! impl PhaseInfo for Inc {
//!     fn name(&self) -> &str { self.0 }
//! }
//! impl MiniPhase for Inc {
//!     fn transforms(&self) -> NodeKindSet { NodeKindSet::of(NodeKind::Literal) }
//!     fn transform_literal(&mut self, ctx: &mut Ctx, t: &TreeRef) -> TreeRef {
//!         match t.kind() {
//!             TreeKind::Literal { value } if value.as_int().is_some() => {
//!                 ctx.lit_int(value.as_int().unwrap() + 1)
//!             }
//!             _ => t.clone(),
//!         }
//!     }
//! }
//!
//! let mut ctx = Ctx::new();
//! let tree = ctx.lit_int(0);
//! let phases: Vec<Box<dyn MiniPhase>> = vec![Box::new(Inc("inc1")), Box::new(Inc("inc2"))];
//! let plan = build_plan(&phases, &PlanOptions::default()).expect("valid plan");
//! assert_eq!(plan.group_count(), 1); // both phases fused into one traversal
//! let mut pipe = Pipeline::new(phases, &plan, FusionOptions::default());
//! let out = pipe.run_unit(&mut ctx, CompilationUnit::new("demo", tree));
//! assert!(matches!(
//!     out.tree.kind(),
//!     TreeKind::Literal { value } if value.as_int() == Some(2)
//! ));
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod executor;
pub mod faults;
pub mod fused;
pub mod mini;
pub mod parallel;
pub mod plan;
mod unit;

pub use checker::{check_unit, sort_findings, CheckFailure, Finding, Severity};
pub use executor::{info_periods, run_phase_on_unit, ExecStats, Pipeline, TRAVERSAL_CODE_ADDR};
pub use faults::{FaultKind, FaultPlan, InternalFault, RunControls, UNLIMITED_SHOTS};
pub use fused::{Fused, FusionOptions, SubtreePruning};
pub use mini::{dispatch_prepare, dispatch_transform, synthetic_code_addr, MiniPhase, PhaseInfo};
pub use parallel::{
    run_units_isolated, run_units_parallel, IsolatedBatch, IsolatedLayout, IsolatedUnitRun,
    NoInstrumentation, ParallelRun, WorkerInstrumentation,
};
pub use plan::{build_plan, PhasePlan, PlanError, PlanOptions};
pub use unit::CompilationUnit;
