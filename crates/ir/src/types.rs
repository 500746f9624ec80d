//! The MiniScala type representation.
//!
//! Types both describe values and, via [`Type::TermRef`], act as references
//! to program definitions (the paper's "singleton types" generalization).
//! Subtyping, least upper bounds and member lookup need the class hierarchy,
//! so those operations live on [`crate::SymbolTable`]; this module holds the
//! representation and the context-free operations (erasure structure,
//! substitution, widening).
//!
//! # Sharing
//!
//! A [`Type`] is an immutable value whose composite parts are shared:
//! every child type sits behind an [`Arc`] and every list (type arguments,
//! parameters, parameter lists, binders) is a [`SharedList`]. Cloning a type
//! therefore copies its handles and bumps at most two reference counts; it
//! never allocates and never walks the type. A tree node's `tpe`,
//! a symbol's info read through [`crate::SymbolTable::info`], a memoized
//! info and an erased type that erasure left unchanged all point at the
//! same payloads. Nothing mutates a payload once it is built, so equal
//! sharing implies equal values, and `==` short-circuits on pointer
//! identity before comparing structure.
//!
//! The handles are `Arc`, not `Rc`, because types live in
//! [`crate::SymbolData`], which parallel compilation shares across worker
//! threads: `Type` must stay `Send + Sync`.

use crate::symbol::SymbolId;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, shared list: a clone bumps one reference count, and an
/// empty list holds no allocation at all (most class types are
/// monomorphic, so most type-argument lists are empty).
///
/// It reads as a slice (`Deref<Target = [T]>`) and hashes, compares and
/// debug-prints exactly like the `Vec<T>` it replaces. Build it from an
/// iterator (`collect`), an array or a `Vec`; an exact-size iterator fills
/// the shared allocation directly.
pub struct SharedList<T>(Option<Arc<[T]>>);

/// A shared list of types: type arguments, parameter types.
pub type TypeList = SharedList<Type>;

impl<T> SharedList<T> {
    /// The empty list; holds no allocation.
    pub const fn new() -> SharedList<T> {
        SharedList(None)
    }

    /// The elements.
    pub fn as_slice(&self) -> &[T] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// True if both lists share one allocation (two empty lists do too).
    pub fn ptr_eq(a: &SharedList<T>, b: &SharedList<T>) -> bool {
        match (&a.0, &b.0) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            (None, None) => true,
            _ => false,
        }
    }
}

impl<T> Clone for SharedList<T> {
    fn clone(&self) -> SharedList<T> {
        SharedList(self.0.clone())
    }
}

impl<T> Default for SharedList<T> {
    fn default() -> SharedList<T> {
        SharedList::new()
    }
}

impl<T> Deref for SharedList<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T> IntoIterator for &'a SharedList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.as_slice().iter()
    }
}

impl<T> FromIterator<T> for SharedList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> SharedList<T> {
        let iter = iter.into_iter();
        if iter.size_hint().1 == Some(0) {
            return SharedList::new();
        }
        let items: Arc<[T]> = iter.collect();
        SharedList((!items.is_empty()).then_some(items))
    }
}

impl<T> From<Vec<T>> for SharedList<T> {
    fn from(items: Vec<T>) -> SharedList<T> {
        items.into_iter().collect()
    }
}

impl<T, const N: usize> From<[T; N]> for SharedList<T> {
    fn from(items: [T; N]) -> SharedList<T> {
        items.into_iter().collect()
    }
}

impl<T: Clone> SharedList<T> {
    /// This list with `f` applied to each element, where `f` returns
    /// `None` for an element it leaves unchanged; `None` when it changes
    /// none, so the caller can share `self`. Unchanged elements of a
    /// rebuilt list are cloned (for types: shared).
    pub fn map_changed(&self, mut f: impl FnMut(&T) -> Option<T>) -> Option<SharedList<T>> {
        let (at, first) = self
            .iter()
            .enumerate()
            .find_map(|(i, t)| f(t).map(|m| (i, m)))?;
        Some(
            self[..at]
                .iter()
                .cloned()
                .chain([first])
                .chain(
                    self[at + 1..]
                        .iter()
                        .map(|t| f(t).unwrap_or_else(|| t.clone())),
                )
                .collect(),
        )
    }
}

/// Element-wise, after a pointer-identity shortcut.
impl<T: PartialEq> PartialEq for SharedList<T> {
    fn eq(&self, other: &SharedList<T>) -> bool {
        SharedList::ptr_eq(self, other) || self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for SharedList<T> {}

/// Hashes as the slice does (length, then elements), like `Vec<T>`.
impl<T: Hash> Hash for SharedList<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// A MiniScala type: an immutable value with shared payloads (see the
/// [module docs](self#sharing)). Cloning never allocates; build composite
/// types once and clone them freely.
///
/// # Examples
///
/// ```
/// use mini_ir::Type;
/// use std::sync::Arc;
/// let t = Type::Function {
///     params: [Type::Int].into(),
///     ret: Arc::new(Type::Boolean),
/// };
/// assert!(t.is_function());
/// assert!(!Type::Int.is_ref_like());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Type {
    /// Absence of a type; trees before the typer, and `checkNoOrphanTypes`'
    /// target after it.
    #[default]
    NoType,
    /// A type produced from an erroneous program; absorbs further errors.
    Error,
    /// Top type.
    Any,
    /// Top of the reference types.
    AnyRef,
    /// Bottom type.
    Nothing,
    /// Type of `null`.
    Null,
    /// The unit type.
    Unit,
    /// 64-bit integers.
    Int,
    /// Booleans.
    Boolean,
    /// Built-in strings.
    Str,
    /// A (possibly generic) class or trait type `C[T1, ..., Tn]`.
    Class {
        /// The class symbol.
        sym: SymbolId,
        /// Type arguments; empty (and unallocated) for monomorphic classes.
        targs: TypeList,
    },
    /// A reference to a type parameter.
    TypeParam(SymbolId),
    /// Singleton type of a stable term — a reference to a definition.
    TermRef(SymbolId),
    /// The type of a method, with one entry in `params` per parameter list
    /// (MiniScala methods may be curried until `FirstTransform` flattens
    /// them).
    Method {
        /// Parameter types per parameter list.
        params: SharedList<TypeList>,
        /// Result type.
        ret: Arc<Type>,
    },
    /// The type of a polymorphic method `[T1, ..., Tn](...)R`.
    Poly {
        /// The bound type parameters.
        tparams: SharedList<SymbolId>,
        /// The underlying (usually method) type mentioning them.
        underlying: Arc<Type>,
    },
    /// A by-name parameter type `=> T`; eliminated by `ElimByName`.
    ByName(Arc<Type>),
    /// A repeated parameter type `T*`; eliminated by `ElimRepeated`.
    Repeated(Arc<Type>),
    /// An array type.
    Array(Arc<Type>),
    /// A function type `(T1, ..., Tn) => R`; a shorthand for `FunctionN`.
    Function {
        /// Parameter types.
        params: TypeList,
        /// Result type.
        ret: Arc<Type>,
    },
    /// A union type `A | B` (used by the optional `Splitter` extension).
    Or(Arc<Type>, Arc<Type>),
}

impl Type {
    /// True for types that are represented as heap references at runtime.
    pub fn is_ref_like(&self) -> bool {
        matches!(
            self,
            Type::AnyRef
                | Type::Null
                | Type::Str
                | Type::Class { .. }
                | Type::Array(_)
                | Type::Function { .. }
                | Type::Or(..)
        )
    }

    /// True for primitive value types.
    pub fn is_primitive(&self) -> bool {
        matches!(self, Type::Int | Type::Boolean | Type::Unit)
    }

    /// True if this is a method or polymorphic method type.
    pub fn is_method_like(&self) -> bool {
        matches!(self, Type::Method { .. } | Type::Poly { .. })
    }

    /// True if this is a function (closure) type.
    pub fn is_function(&self) -> bool {
        matches!(self, Type::Function { .. })
    }

    /// True if `NoType` or `Error`.
    pub fn is_missing(&self) -> bool {
        matches!(self, Type::NoType | Type::Error)
    }

    /// The class symbol, if this is a class type.
    pub fn class_sym(&self) -> Option<SymbolId> {
        match self {
            Type::Class { sym, .. } => Some(*sym),
            _ => None,
        }
    }

    /// For method types: the final (uncurried) result after all parameter
    /// lists. For other types, the type itself.
    pub fn final_result(&self) -> &Type {
        match self {
            Type::Method { ret, .. } => ret.final_result(),
            Type::Poly { underlying, .. } => underlying.final_result(),
            _ => self,
        }
    }

    /// The parameter lists of a method type (empty for non-methods).
    pub fn param_lists(&self) -> &[TypeList] {
        match self {
            Type::Method { params, .. } => params,
            Type::Poly { underlying, .. } => underlying.param_lists(),
            _ => &[],
        }
    }

    /// Strips `ByName` and `Repeated` wrappers one level.
    pub fn strip_param_wrappers(&self) -> &Type {
        match self {
            Type::ByName(t) | Type::Repeated(t) => t,
            _ => self,
        }
    }

    /// Substitutes type parameters `from[i] -> to[i]` throughout.
    /// A type that mentions none of `from` is returned shared, not rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if `from` and `to` have different lengths.
    pub fn subst(&self, from: &[SymbolId], to: &[Type]) -> Type {
        assert_eq!(from.len(), to.len(), "subst arity mismatch");
        if from.is_empty() || !self.mentions(from) {
            return self.clone();
        }
        // Parts that mention none of `from` are shared, not rebuilt.
        let child = |t: &Arc<Type>| {
            if t.mentions(from) {
                Arc::new(t.subst(from, to))
            } else {
                Arc::clone(t)
            }
        };
        let list = |ts: &TypeList| {
            if ts.iter().any(|t| t.mentions(from)) {
                ts.iter().map(|t| t.subst(from, to)).collect()
            } else {
                ts.clone()
            }
        };
        match self {
            Type::TypeParam(s) => {
                for (i, f) in from.iter().enumerate() {
                    if f == s {
                        return to[i].clone();
                    }
                }
                self.clone()
            }
            Type::Class { sym, targs } => Type::Class {
                sym: *sym,
                targs: list(targs),
            },
            Type::Method { params, ret } => Type::Method {
                params: params.iter().map(list).collect(),
                ret: child(ret),
            },
            Type::Poly {
                tparams,
                underlying,
            } => {
                // Inner binders shadow outer substitutions.
                let keep: Vec<usize> = (0..from.len())
                    .filter(|&i| !tparams.contains(&from[i]))
                    .collect();
                let f2: Vec<SymbolId> = keep.iter().map(|&i| from[i]).collect();
                let t2: Vec<Type> = keep.iter().map(|&i| to[i].clone()).collect();
                Type::Poly {
                    tparams: tparams.clone(),
                    underlying: Arc::new(underlying.subst(&f2, &t2)),
                }
            }
            Type::ByName(t) => Type::ByName(child(t)),
            Type::Repeated(t) => Type::Repeated(child(t)),
            Type::Array(t) => Type::Array(child(t)),
            Type::Function { params, ret } => Type::Function {
                params: list(params),
                ret: child(ret),
            },
            Type::Or(a, b) => Type::Or(child(a), child(b)),
            _ => self.clone(),
        }
    }

    /// True if the type mentions any of the given type parameters.
    pub fn mentions(&self, tparams: &[SymbolId]) -> bool {
        match self {
            Type::TypeParam(s) => tparams.contains(s),
            Type::Class { targs, .. } => targs.iter().any(|t| t.mentions(tparams)),
            Type::Method { params, ret } => {
                params.iter().flatten().any(|t| t.mentions(tparams)) || ret.mentions(tparams)
            }
            Type::Poly { underlying, .. } => underlying.mentions(tparams),
            Type::ByName(t) | Type::Repeated(t) | Type::Array(t) => t.mentions(tparams),
            Type::Function { params, ret } => {
                params.iter().any(|t| t.mentions(tparams)) || ret.mentions(tparams)
            }
            Type::Or(a, b) => a.mentions(tparams) || b.mentions(tparams),
            _ => false,
        }
    }

    /// Structural "is fully erased" check: no type arguments, no type
    /// parameters, no by-name/repeated/function/poly/union types anywhere.
    /// This is `Erasure`'s postcondition.
    pub fn is_erased(&self) -> bool {
        match self {
            Type::TypeParam(_)
            | Type::ByName(_)
            | Type::Repeated(_)
            | Type::Poly { .. }
            | Type::Function { .. }
            | Type::Or(..) => false,
            Type::Class { targs, .. } => targs.is_empty(),
            Type::Method { params, ret } => {
                params.len() <= 1
                    && params.iter().flatten().all(|t| t.is_erased())
                    && ret.is_erased()
            }
            Type::Array(t) => t.is_erased(),
            _ => true,
        }
    }

    /// Rebuilds a (possibly polymorphic) method type with `f` applied to
    /// each parameter type, the result type and a `Poly`'s underlying
    /// type, where `f` returns `None` for a part it leaves unchanged.
    /// Returns `None` when no part changed, so the caller can share `self`;
    /// unchanged parts of a rebuilt type are shared too. Not a method type:
    /// `None`.
    pub fn map_method_parts(&self, f: &mut impl FnMut(&Type) -> Option<Type>) -> Option<Type> {
        match self {
            Type::Method { params, ret } => {
                let new_params = params.map_changed(|ps| ps.map_changed(&mut *f));
                let new_ret = f(ret);
                if new_params.is_none() && new_ret.is_none() {
                    return None;
                }
                Some(Type::Method {
                    params: new_params.unwrap_or_else(|| params.clone()),
                    ret: new_ret.map_or_else(|| Arc::clone(ret), Arc::new),
                })
            }
            Type::Poly {
                tparams,
                underlying,
            } => f(underlying).map(|u| Type::Poly {
                tparams: tparams.clone(),
                underlying: Arc::new(u),
            }),
            _ => None,
        }
    }

    /// The number of value parameters across all parameter lists.
    pub fn param_count(&self) -> usize {
        self.param_lists().iter().map(|l| l.len()).sum()
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::NoType => write!(f, "<notype>"),
            Type::Error => write!(f, "<error>"),
            Type::Any => write!(f, "Any"),
            Type::AnyRef => write!(f, "AnyRef"),
            Type::Nothing => write!(f, "Nothing"),
            Type::Null => write!(f, "Null"),
            Type::Unit => write!(f, "Unit"),
            Type::Int => write!(f, "Int"),
            Type::Boolean => write!(f, "Boolean"),
            Type::Str => write!(f, "String"),
            Type::Class { sym, targs } => {
                write!(f, "#{}", sym.index())?;
                if !targs.is_empty() {
                    write!(f, "[")?;
                    for (i, t) in targs.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            Type::TypeParam(s) => write!(f, "tp#{}", s.index()),
            Type::TermRef(s) => write!(f, "ref#{}", s.index()),
            Type::Method { params, ret } => {
                for ps in params {
                    write!(f, "(")?;
                    for (i, p) in ps.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}")?;
                    }
                    write!(f, ")")?;
                }
                write!(f, "{ret}")
            }
            Type::Poly {
                tparams,
                underlying,
            } => {
                write!(f, "[")?;
                for (i, tp) in tparams.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "tp#{}", tp.index())?;
                }
                write!(f, "]{underlying}")
            }
            Type::ByName(t) => write!(f, "=> {t}"),
            Type::Repeated(t) => write!(f, "{t}*"),
            Type::Array(t) => write!(f, "Array[{t}]"),
            Type::Function { params, ret } => {
                write!(f, "(")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ") => {ret}")
            }
            Type::Or(a, b) => write!(f, "{a} | {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(i: u32) -> SymbolId {
        SymbolId::from_index(i)
    }

    #[test]
    fn subst_replaces_type_params() {
        let t = Type::Function {
            params: [Type::TypeParam(tp(1))].into(),
            ret: Arc::new(Type::Array(Arc::new(Type::TypeParam(tp(2))))),
        };
        let s = t.subst(&[tp(1), tp(2)], &[Type::Int, Type::Boolean]);
        assert_eq!(
            s,
            Type::Function {
                params: [Type::Int].into(),
                ret: Arc::new(Type::Array(Arc::new(Type::Boolean))),
            }
        );
    }

    #[test]
    fn subst_respects_inner_binders() {
        let inner = Type::Poly {
            tparams: [tp(1)].into(),
            underlying: Arc::new(Type::TypeParam(tp(1))),
        };
        let s = inner.subst(&[tp(1)], &[Type::Int]);
        // The inner [tp1] shadows the outer substitution.
        assert_eq!(s, inner);
    }

    #[test]
    fn subst_shares_what_it_does_not_touch() {
        let t = Type::Function {
            params: [Type::TypeParam(tp(1)), Type::Array(Arc::new(Type::Int))].into(),
            ret: Arc::new(Type::Str),
        };
        let Type::Function { params, ret } = &t else {
            unreachable!()
        };
        let Type::Function {
            params: new_params,
            ret: new_ret,
        } = t.subst(&[tp(1)], &[Type::Int])
        else {
            panic!("substitution keeps the shape");
        };
        assert_eq!(new_params[0], Type::Int);
        let (Type::Array(before), Type::Array(after)) = (&params[1], &new_params[1]) else {
            panic!("array parameter");
        };
        assert!(
            Arc::ptr_eq(before, after),
            "an unchanged parameter is shared"
        );
        assert!(Arc::ptr_eq(ret, &new_ret), "an unchanged result is shared");
        // A type that mentions none of the parameters comes back whole.
        let Type::Function { params: same, .. } = t.subst(&[tp(9)], &[Type::Int]) else {
            unreachable!()
        };
        assert!(TypeList::ptr_eq(params, &same));
    }

    #[test]
    fn final_result_uncurries() {
        let t = Type::Method {
            params: [[Type::Int].into(), [Type::Boolean].into()].into(),
            ret: Arc::new(Type::Str),
        };
        assert_eq!(*t.final_result(), Type::Str);
        assert_eq!(t.param_count(), 2);
    }

    #[test]
    fn erased_check_rejects_generics() {
        assert!(Type::Int.is_erased());
        assert!(!Type::TypeParam(tp(3)).is_erased());
        assert!(!Type::Function {
            params: TypeList::new(),
            ret: Arc::new(Type::Unit)
        }
        .is_erased());
        let generic = Type::Class {
            sym: tp(4),
            targs: [Type::Int].into(),
        };
        assert!(!generic.is_erased());
    }

    #[test]
    fn mentions_finds_nested_params() {
        let t = Type::Array(Arc::new(Type::Class {
            sym: tp(9),
            targs: [Type::TypeParam(tp(5))].into(),
        }));
        assert!(t.mentions(&[tp(5)]));
        assert!(!t.mentions(&[tp(6)]));
    }

    #[test]
    fn display_is_readable() {
        let t = Type::Function {
            params: [Type::Int, Type::Boolean].into(),
            ret: Arc::new(Type::Unit),
        };
        assert_eq!(t.to_string(), "(Int, Boolean) => Unit");
    }

    #[test]
    fn a_clone_shares_its_payload() {
        let t = Type::Method {
            params: [[Type::Int, Type::Str].into()].into(),
            ret: Arc::new(Type::Class {
                sym: tp(7),
                targs: [Type::Boolean].into(),
            }),
        };
        let c = t.clone();
        let (
            Type::Method {
                params: p1,
                ret: r1,
            },
            Type::Method {
                params: p2,
                ret: r2,
            },
        ) = (&t, &c)
        else {
            unreachable!()
        };
        assert!(SharedList::ptr_eq(p1, p2), "parameter lists are shared");
        assert!(Arc::ptr_eq(r1, r2), "the result type is shared");
        assert_eq!(t, c);
    }

    #[test]
    fn an_empty_type_list_holds_no_allocation() {
        let empty: TypeList = Vec::new().into();
        assert!(empty.0.is_none());
        assert!(TypeList::new().0.is_none());
        assert!(std::iter::empty::<Type>().collect::<TypeList>().0.is_none());
        assert!((0..3)
            .filter(|_| false)
            .map(|_| Type::Int)
            .collect::<TypeList>()
            .0
            .is_none());
        assert!(TypeList::ptr_eq(&empty, &TypeList::new()));
        let one: TypeList = [Type::Int].into();
        assert!(one.0.is_some());
        assert_eq!(&one[..], &[Type::Int]);
    }

    #[test]
    fn debug_and_display_print_as_before_sharing() {
        // Every composite variant; the expected text was printed by the
        // representation with `Vec` lists and `Box` children.
        let t = Type::Poly {
            tparams: [tp(3)].into(),
            underlying: Arc::new(Type::Method {
                params: [
                    TypeList::from([Type::TypeParam(tp(3))]),
                    TypeList::from([
                        Type::ByName(Arc::new(Type::Int)),
                        Type::Array(Arc::new(Type::Str)),
                    ]),
                ]
                .into(),
                ret: Arc::new(Type::Repeated(Arc::new(Type::Or(
                    Arc::new(Type::Class {
                        sym: tp(9),
                        targs: [Type::TermRef(tp(4))].into(),
                    }),
                    Arc::new(Type::Function {
                        params: [Type::Unit].into(),
                        ret: Arc::new(Type::Boolean),
                    }),
                )))),
            }),
        };
        assert_eq!(
            format!("{t:?}"),
            "Poly { tparams: [sym#3], underlying: Method { params: [[TypeParam(sym#3)], \
             [ByName(Int), Array(Str)]], ret: Repeated(Or(Class { sym: sym#9, targs: \
             [TermRef(sym#4)] }, Function { params: [Unit], ret: Boolean })) } }"
        );
        assert_eq!(
            t.to_string(),
            "[tp#3](tp#3)(=> Int, Array[String])#9[ref#4] | (Unit) => Boolean*"
        );
    }

    #[test]
    fn erase_shares_what_erasure_leaves_unchanged() {
        use crate::{Flags, Name, SymbolTable};
        let mut tab = SymbolTable::new();
        let m = Type::Method {
            params: [[Type::Int, Type::Array(Arc::new(Type::Str))].into()].into(),
            ret: Arc::new(Type::Boolean),
        };
        let (
            Type::Method { params, ret },
            Type::Method {
                params: ep,
                ret: er,
            },
        ) = (&m, &tab.erase(&m))
        else {
            panic!("a method erases to a method");
        };
        assert!(
            SharedList::ptr_eq(params, ep),
            "unchanged parameters are shared"
        );
        assert!(Arc::ptr_eq(ret, er), "an unchanged result is shared");
        // A rebuilt method still shares its unchanged result.
        let generic = Type::Method {
            params: [[Type::TypeParam(tp(3))].into()].into(),
            ret: Arc::clone(ret),
        };
        let Type::Method {
            params: gp,
            ret: gr,
        } = tab.erase(&generic)
        else {
            panic!("a method erases to a method");
        };
        assert_eq!(&gp[0][..], &[Type::Any]);
        assert!(Arc::ptr_eq(ret, &gr));
        // The identity test is exact, not `is_erased`: zero parameter lists
        // still become one, and a singleton type still widens.
        let nullary = Type::Method {
            params: SharedList::new(),
            ret: Arc::new(Type::Int),
        };
        assert!(nullary.is_erased());
        assert_eq!(
            tab.erase(&nullary),
            Type::Method {
                params: [TypeList::new()].into(),
                ret: Arc::new(Type::Int),
            }
        );
        let root = tab.builtins().root_pkg;
        let x = tab.new_term(root, Name::from("x"), Flags::EMPTY, Type::Int);
        assert!(Type::TermRef(x).is_erased());
        assert_eq!(tab.erase(&Type::TermRef(x)), Type::Int);
    }

    #[test]
    fn a_type_fits_in_four_words_and_crosses_threads() {
        assert!(std::mem::size_of::<Type>() <= 32);
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Type>();
    }

    #[test]
    fn shared_lists_hash_and_print_like_vecs() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
        let items = vec![Type::Int, Type::Str];
        let shared: TypeList = items.clone().into();
        assert_eq!(hash_of(&shared), hash_of(&items));
        assert_eq!(format!("{shared:?}"), format!("{items:?}"));
        assert_eq!(format!("{shared:#?}"), format!("{items:#?}"));
        let nested: SharedList<TypeList> = [shared.clone(), TypeList::new()].into();
        let nested_vec = vec![items.clone(), Vec::new()];
        assert_eq!(hash_of(&nested), hash_of(&nested_vec));
        assert_eq!(format!("{nested:?}"), format!("{nested_vec:?}"));
    }
}
