//! Stable structural fingerprints.
//!
//! The incremental compile session ([`mini_driver`]'s `CompileSession`)
//! keys its per-unit caches on content hashes, so the hashes must be
//! **stable across runs and across allocation histories**: two structurally
//! identical trees must fingerprint equal even though their [`crate::NodeId`]s,
//! heap addresses and [`crate::SymbolId`] values differ (ids are allocator
//! artifacts — they depend on how many units compiled before this one and,
//! under parallel compilation, on the worker shard). Everything here
//! therefore hashes *names and rendered types*, never raw ids, and uses an
//! explicit FNV-1a implementation rather than `DefaultHasher` (whose
//! algorithm is unspecified).
//!
//! Three fingerprint families:
//!
//! * [`source_fingerprint`] — raw source text, the cheap first-level cache
//!   key;
//! * [`tree_fingerprint`] — a structural hash of a typed tree (kinds,
//!   constants, names, rendered types; ids and spans ignored), for
//!   cache-consistency diagnostics and tests;
//! * [`symbol_interface_hash`] / [`export_interface_hash`] — a symbol's
//!   *exported interface* (name, flags, kind, rendered type; for classes
//!   also type-parameter names, rendered parents and the member surface),
//!   the hash whose change — and only whose change — cascades invalidation
//!   to dependent units. A body-only edit re-types to the same interface
//!   hash, so dependents stay cached.

use crate::printer::print_type;
use crate::symbol::{SymKind, SymbolId, SymbolTable};
use crate::tree::{Tree, TreeKind};
use crate::types::Type;

/// An incremental FNV-1a 64-bit hasher with explicit, stable semantics.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Folds raw bytes into the state.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a length-delimited string (so `("ab","c")` ≠ `("a","bc")`).
    pub fn str(&mut self, s: &str) -> &mut Fnv64 {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes())
    }

    /// Folds one byte.
    pub fn u8(&mut self, v: u8) -> &mut Fnv64 {
        self.bytes(&[v])
    }

    /// Folds a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Fnv64 {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Fnv64 {
        self.bytes(&v.to_le_bytes())
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes raw source text (the first-level cache key of a compile session).
pub fn source_fingerprint(src: &str) -> u64 {
    let mut h = Fnv64::new();
    h.str(src);
    h.finish()
}

fn sym_name_str(symbols: &SymbolTable, sym: SymbolId) -> &str {
    if sym.exists() {
        symbols.sym(sym).name.as_str()
    } else {
        "<none>"
    }
}

fn kind_tag(kind: SymKind) -> u8 {
    match kind {
        SymKind::Term => 0,
        SymKind::Class => 1,
        SymKind::Package => 2,
        SymKind::TypeParam => 3,
        SymKind::Label => 4,
    }
}

/// A structural fingerprint of a typed tree: node kinds, constants, names,
/// referenced/defined symbol *names* and rendered types, combined in
/// traversal order. [`crate::NodeId`]s, heap addresses, raw [`SymbolId`]
/// values and source spans are deliberately **ignored** — they are
/// allocator/layout artifacts that differ between an incremental recompile
/// and a from-scratch compile of the same program.
///
/// Iterative (explicit work stack), so arbitrarily deep trees fingerprint
/// in constant machine-stack space like every other production walk.
pub fn tree_fingerprint(root: &Tree, symbols: &SymbolTable) -> u64 {
    let mut h = Fnv64::new();
    let mut stack: Vec<&Tree> = vec![root];
    while let Some(t) = stack.pop() {
        h.u8(t.node_kind() as u8);
        h.str(&print_type(t.tpe(), symbols));
        match t.kind() {
            TreeKind::Empty
            | TreeKind::Apply { .. }
            | TreeKind::Assign { .. }
            | TreeKind::Block { .. }
            | TreeKind::If { .. }
            | TreeKind::Match { .. }
            | TreeKind::CaseDef { .. }
            | TreeKind::Alternative { .. }
            | TreeKind::While { .. }
            | TreeKind::Try { .. }
            | TreeKind::Throw { .. }
            | TreeKind::Lambda { .. } => {}
            TreeKind::Literal { value } => {
                h.str(&value.to_string());
            }
            TreeKind::Ident { sym } => {
                h.str(sym_name_str(symbols, *sym));
            }
            TreeKind::Unresolved { name } => {
                h.str(name.as_str());
            }
            TreeKind::Select { name, sym, .. } => {
                h.str(name.as_str());
                h.str(sym_name_str(symbols, *sym));
            }
            TreeKind::TypeApply { targs, .. } => {
                for ta in targs {
                    h.str(&print_type(ta, symbols));
                }
            }
            TreeKind::New { tpe } => {
                h.str(&print_type(tpe, symbols));
            }
            TreeKind::Bind { sym, .. } => {
                h.str(sym_name_str(symbols, *sym));
            }
            TreeKind::Typed { tpe, .. }
            | TreeKind::Cast { tpe, .. }
            | TreeKind::IsInstance { tpe, .. } => {
                h.str(&print_type(tpe, symbols));
            }
            TreeKind::Return { from, .. } => {
                h.str(sym_name_str(symbols, *from));
            }
            TreeKind::Labeled { label, .. } | TreeKind::JumpTo { label, .. } => {
                h.str(sym_name_str(symbols, *label));
            }
            TreeKind::SeqLiteral { elem_tpe, .. } => {
                h.str(&print_type(elem_tpe, symbols));
            }
            TreeKind::ValDef { sym, .. }
            | TreeKind::DefDef { sym, .. }
            | TreeKind::ClassDef { sym, .. } => {
                h.str(sym_name_str(symbols, *sym));
                if sym.exists() {
                    h.u32(symbols.sym(*sym).flags.bits());
                }
            }
            TreeKind::PackageDef { pkg, .. } => {
                h.str(sym_name_str(symbols, *pkg));
            }
            TreeKind::This { cls } | TreeKind::Super { cls } => {
                h.str(sym_name_str(symbols, *cls));
            }
        }
        // Delimit the child list, then push children in reverse so they pop
        // in evaluation order.
        let n = t.child_count();
        h.u64(n as u64);
        for i in (0..n).rev() {
            stack.push(t.child_at(i).expect("child index below count"));
        }
    }
    h.finish()
}

fn hash_type_ids(h: &mut Fnv64, t: &Type) {
    match t {
        Type::Class { sym, targs } => {
            h.u8(1);
            h.u32(sym.index());
            h.u64(targs.len() as u64);
            for ta in targs {
                hash_type_ids(h, ta);
            }
        }
        Type::TypeParam(sym) => {
            h.u8(2);
            h.u32(sym.index());
        }
        Type::TermRef(sym) => {
            h.u8(3);
            h.u32(sym.index());
        }
        Type::Method { params, ret } => {
            h.u8(4);
            for list in params {
                h.u64(list.len() as u64);
                for p in list {
                    hash_type_ids(h, p);
                }
            }
            hash_type_ids(h, ret);
        }
        Type::Poly {
            tparams,
            underlying,
        } => {
            h.u8(5);
            h.u64(tparams.len() as u64);
            for tp in tparams {
                h.u32(tp.index());
            }
            hash_type_ids(h, underlying);
        }
        Type::ByName(t) => {
            h.u8(6);
            hash_type_ids(h, t);
        }
        Type::Repeated(t) => {
            h.u8(7);
            hash_type_ids(h, t);
        }
        Type::Array(t) => {
            h.u8(8);
            hash_type_ids(h, t);
        }
        Type::Function { params, ret } => {
            h.u8(9);
            h.u64(params.len() as u64);
            for p in params {
                hash_type_ids(h, p);
            }
            hash_type_ids(h, ret);
        }
        Type::Or(a, b) => {
            h.u8(20);
            hash_type_ids(h, a);
            hash_type_ids(h, b);
        }
        // Nullary variants: a distinct tag each (no wildcard — a new
        // variant must make a conscious choice here).
        Type::NoType => {
            h.u8(10);
        }
        Type::Error => {
            h.u8(11);
        }
        Type::Any => {
            h.u8(12);
        }
        Type::AnyRef => {
            h.u8(13);
        }
        Type::Nothing => {
            h.u8(14);
        }
        Type::Null => {
            h.u8(15);
        }
        Type::Unit => {
            h.u8(16);
        }
        Type::Int => {
            h.u8(17);
        }
        Type::Boolean => {
            h.u8(18);
        }
        Type::Str => {
            h.u8(19);
        }
    }
}

/// The **id-environment fingerprint** of a typed tree: every raw
/// [`SymbolId`] the tree references (node symbols and ids embedded in
/// types), each paired with its interned name, folded in traversal order.
///
/// This is deliberately the *opposite* sensitivity of
/// [`tree_fingerprint`]: where that hash erases allocator artifacts so
/// equivalent trees compare equal, this one **pins** them. A shared
/// cross-session artifact is not self-contained — its post-pipeline tree
/// and symbol delta resolve dependency and member symbols by raw id — so a
/// consumer may only adopt it if the producer typed the unit against the
/// *exact same id assignment*. Two sessions that cold-compile the same
/// corpus from the same state agree on every id and share; a session whose
/// edit history drifted the assignment fingerprints differently and safely
/// misses.
pub fn binding_fingerprint(root: &Tree, symbols: &SymbolTable) -> u64 {
    let mut h = Fnv64::new();
    let mut stack: Vec<&Tree> = vec![root];
    while let Some(t) = stack.pop() {
        h.u8(t.node_kind() as u8);
        hash_type_ids(&mut h, t.tpe());
        let sym = |h: &mut Fnv64, s: SymbolId| {
            h.u32(s.index());
            h.str(sym_name_str(symbols, s));
        };
        match t.kind() {
            TreeKind::Ident { sym: s }
            | TreeKind::Bind { sym: s, .. }
            | TreeKind::Return { from: s, .. }
            | TreeKind::Labeled { label: s, .. }
            | TreeKind::JumpTo { label: s, .. }
            | TreeKind::ValDef { sym: s, .. }
            | TreeKind::DefDef { sym: s, .. }
            | TreeKind::ClassDef { sym: s, .. }
            | TreeKind::PackageDef { pkg: s, .. }
            | TreeKind::This { cls: s }
            | TreeKind::Super { cls: s } => sym(&mut h, *s),
            TreeKind::Select { name, sym: s, .. } => {
                h.str(name.as_str());
                sym(&mut h, *s);
            }
            TreeKind::Literal { value } => {
                h.str(&value.to_string());
            }
            TreeKind::Unresolved { name } => {
                h.str(name.as_str());
            }
            TreeKind::TypeApply { targs, .. } => {
                for ta in targs {
                    hash_type_ids(&mut h, ta);
                }
            }
            TreeKind::New { tpe } => hash_type_ids(&mut h, tpe),
            TreeKind::Typed { tpe, .. }
            | TreeKind::Cast { tpe, .. }
            | TreeKind::IsInstance { tpe, .. }
            | TreeKind::SeqLiteral { elem_tpe: tpe, .. } => hash_type_ids(&mut h, tpe),
            _ => {}
        }
        let n = t.child_count();
        h.u64(n as u64);
        for i in (0..n).rev() {
            stack.push(t.child_at(i).expect("child index below count"));
        }
    }
    h.finish()
}

/// Folds one symbol's externally visible surface into `h`: name, kind,
/// flags, rendered type, type-parameter names and rendered parents. For
/// classes the member surface (each member's name/kind/flags/rendered type,
/// in name order so declaration reordering is interface-neutral) is folded
/// in too — a change to any member signature must cascade to units that
/// select members through this class.
fn hash_symbol_surface(h: &mut Fnv64, symbols: &SymbolTable, sym: SymbolId) {
    let d = symbols.sym(sym);
    h.str(d.name.as_str());
    h.u8(kind_tag(d.kind));
    h.u32(d.flags.bits());
    h.str(&print_type(&symbols.info(sym), symbols));
    h.u64(d.tparams.len() as u64);
    for &tp in &d.tparams {
        h.str(sym_name_str(symbols, tp));
    }
    for p in symbols.parents(sym).iter() {
        h.str(&print_type(p, symbols));
    }
    if d.kind == SymKind::Class {
        let mut members: Vec<SymbolId> = d
            .decls()
            .iter()
            .copied()
            .filter(|&m| symbols.sym(m).kind != SymKind::TypeParam)
            .collect();
        members.sort_by(|&a, &b| {
            symbols
                .sym(a)
                .name
                .as_str()
                .cmp(symbols.sym(b).name.as_str())
        });
        h.u64(members.len() as u64);
        for m in members {
            let md = symbols.sym(m);
            h.str(md.name.as_str());
            h.u8(kind_tag(md.kind));
            h.u32(md.flags.bits());
            h.str(&print_type(&symbols.info(m), symbols));
        }
    }
}

/// The exported-interface hash of one symbol (see [`export_interface_hash`]
/// for hashing a unit's whole top-level surface).
pub fn symbol_interface_hash(symbols: &SymbolTable, sym: SymbolId) -> u64 {
    let mut h = Fnv64::new();
    hash_symbol_surface(&mut h, symbols, sym);
    h.finish()
}

/// The exported-interface hash of a compilation unit: its top-level symbols'
/// surfaces combined in *name order*, so source-level reordering of
/// definitions does not change the unit's interface. This is the hash the
/// compile session compares to decide whether an edited unit's dependents
/// must recompile: body-only edits reproduce it bit for bit, signature
/// edits (changed types, flags, added/removed definitions or members)
/// change it.
pub fn export_interface_hash(symbols: &SymbolTable, top_syms: &[SymbolId]) -> u64 {
    let mut sorted: Vec<SymbolId> = top_syms.to_vec();
    sorted.sort_by(|&a, &b| {
        symbols
            .sym(a)
            .name
            .as_str()
            .cmp(symbols.sym(b).name.as_str())
    });
    sorted.dedup();
    let mut h = Fnv64::new();
    h.u64(sorted.len() as u64);
    for s in sorted {
        hash_symbol_surface(&mut h, symbols, s);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, Flags, Name, Span, Type, TypeList};
    use std::sync::Arc;

    #[test]
    fn source_fingerprint_is_content_addressed() {
        assert_eq!(source_fingerprint("def f(): Int = 1"), {
            source_fingerprint("def f(): Int = 1")
        });
        assert_ne!(
            source_fingerprint("def f(): Int = 1"),
            source_fingerprint("def f(): Int = 2")
        );
    }

    #[test]
    fn tree_fingerprint_ignores_allocation_history() {
        let build = |ctx: &mut Ctx| {
            let a = ctx.lit_int(1);
            let b = ctx.lit_int(2);
            ctx.block(vec![a], b)
        };
        let mut ctx1 = Ctx::new();
        let t1 = build(&mut ctx1);
        let mut ctx2 = Ctx::new();
        // Skew ctx2's id/address allocators before building.
        for i in 0..100 {
            let _ = ctx2.lit(crate::Constant::Int(1000 + i), Span::new(1, 1));
        }
        let t2 = build(&mut ctx2);
        assert_ne!(t1.id(), t2.id(), "allocation histories differ");
        assert_eq!(
            tree_fingerprint(&t1, &ctx1.symbols),
            tree_fingerprint(&t2, &ctx2.symbols)
        );
        let three = ctx1.lit_int(3);
        let four = ctx1.lit_int(4);
        let other = ctx1.block(vec![three], four);
        assert_ne!(
            tree_fingerprint(&t1, &ctx1.symbols),
            tree_fingerprint(&other, &ctx1.symbols)
        );
    }

    #[test]
    fn binding_fingerprint_pins_raw_symbol_ids() {
        // Same structure and names, skewed id assignment: tree_fingerprint
        // must agree, binding_fingerprint must not — it exists to detect
        // exactly this drift before a cross-session artifact is adopted.
        let build = |skew: usize| {
            let mut ctx = Ctx::new();
            let root = ctx.symbols.builtins().root_pkg;
            for i in 0..skew {
                ctx.symbols.new_term(
                    root,
                    Name::intern(&format!("pad{i}")),
                    Flags::EMPTY,
                    Type::Int,
                );
            }
            let f = ctx
                .symbols
                .new_term(root, Name::intern("f"), Flags::EMPTY, Type::Int);
            let id = ctx.ident(f);
            let lit = ctx.lit_int(7);
            let tree = ctx.block(vec![id], lit);
            (
                tree_fingerprint(&tree, &ctx.symbols),
                binding_fingerprint(&tree, &ctx.symbols),
            )
        };
        let (t0, b0) = build(0);
        let (t0b, b0b) = build(0);
        let (t5, b5) = build(5);
        assert_eq!(t0, t0b);
        assert_eq!(b0, b0b, "deterministic for identical histories");
        assert_eq!(t0, t5, "structural hash erases the id skew");
        assert_ne!(b0, b5, "binding hash pins the id skew");
    }

    #[test]
    fn interface_hash_tracks_signatures_not_ids() {
        let mk = |ret: Type, skew: usize| {
            let mut ctx = Ctx::new();
            let root = ctx.symbols.builtins().root_pkg;
            for i in 0..skew {
                ctx.symbols.new_term(
                    root,
                    Name::intern(&format!("pad{i}")),
                    Flags::EMPTY,
                    Type::Int,
                );
            }
            let f = ctx.symbols.new_term(
                root,
                Name::intern("f"),
                Flags::METHOD,
                Type::Method {
                    params: [TypeList::from([Type::Int])].into(),
                    ret: Arc::new(ret),
                },
            );
            symbol_interface_hash(&ctx.symbols, f)
        };
        // Same signature, different symbol ids ⇒ same hash.
        assert_eq!(mk(Type::Int, 0), mk(Type::Int, 7));
        // Different return type ⇒ different hash.
        assert_ne!(mk(Type::Int, 0), mk(Type::Str, 0));
    }

    #[test]
    fn export_hash_is_declaration_order_insensitive() {
        let mut ctx = Ctx::new();
        let root = ctx.symbols.builtins().root_pkg;
        let a = ctx
            .symbols
            .new_term(root, Name::intern("a"), Flags::METHOD, Type::Int);
        let b = ctx
            .symbols
            .new_term(root, Name::intern("b"), Flags::METHOD, Type::Str);
        assert_eq!(
            export_interface_hash(&ctx.symbols, &[a, b]),
            export_interface_hash(&ctx.symbols, &[b, a])
        );
        assert_ne!(
            export_interface_hash(&ctx.symbols, &[a, b]),
            export_interface_hash(&ctx.symbols, &[a])
        );
    }
}
