//! # mini-ir — the tree intermediate representation
//!
//! The data layer shared by every component of the Miniphases reproduction:
//!
//! * immutable [`Tree`] nodes with copiers implementing the paper's
//!   same-fields reuse optimization (§2),
//! * [`Type`]s including singleton [`Type::TermRef`] references,
//! * [`SymbolTable`] with linearization, subtyping, least upper bounds,
//!   member lookup and erasure,
//! * the [`Ctx`] compilation context through which all nodes are created,
//! * instrumentation hooks: [`trace::HeapSink`] for the allocation/death
//!   stream (GC figures) and [`AccessSink`] for the memory-access stream
//!   (cache figures).
//!
//! # Examples
//!
//! ```
//! use mini_ir::{Ctx, Type, visit};
//! let mut ctx = Ctx::new();
//! let one = ctx.lit_int(1);
//! let two = ctx.lit_int(2);
//! let block = ctx.block(vec![one], two);
//! assert_eq!(*block.tpe(), Type::Int);
//! assert_eq!(visit::count_nodes(&block), 3);
//! ```

#![warn(missing_docs)]

mod constant;
mod ctx;
pub mod fingerprint;
mod flags;
mod names;
pub mod printer;
mod span;
mod symbol;
pub mod trace;
mod tree;
pub mod types;
pub mod visit;

pub use constant::Constant;
pub use ctx::{AccessSink, AllocStats, Ctx, Diagnostic, IrOptions};
pub use flags::Flags;
pub use names::{std_names, Name};
pub use span::Span;
pub use symbol::{
    Builtins, InfoPlan, InfoTransform, ShardGrowth, SymKind, SymbolData, SymbolDelta, SymbolId,
    SymbolTable,
};
pub use tree::{
    Kids, NodeId, NodeKind, NodeKindSet, Tree, TreeKind, TreeRef, ALL_NODE_KINDS, NODE_KIND_COUNT,
};
pub use types::{SharedList, Type, TypeList};
