//! The MiniScala namer and typer.
//!
//! Converts the surface AST into typed IR trees ([`mini_ir::Tree`]) with all
//! names resolved to symbols — the paper's front-end, which "parses and
//! type-checks source code, and generates trees annotated with type
//! information". Two passes per unit:
//!
//! 1. **namer** — creates symbols for classes (with type parameters),
//!    constructors, members and top-level definitions, so that forward and
//!    mutually recursive references work;
//! 2. **typer** — types all bodies bottom-up, resolving identifiers through
//!    the local scope stack, the enclosing class chain, the package and the
//!    builtins.

use crate::ast::*;
use mini_ir::{
    std_names, Constant, Ctx, Flags, Name, SharedList, Span, SymKind, SymbolId, TreeKind, TreeRef,
    Type, TypeList,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Typed result of the frontend for one unit.
pub struct TypedUnit {
    /// The unit's `PackageDef` tree.
    pub tree: TreeRef,
    /// The unit name.
    pub name: String,
    /// The unit's top-level symbols (classes, traits, defs), in declaration
    /// order. Together with their members these form the unit's *exported
    /// interface* — what [`mini_ir::fingerprint::export_interface_hash`]
    /// hashes and what dependent units resolve against.
    pub top_syms: Vec<SymbolId>,
    /// Every symbol this unit resolved through the package scope or through
    /// member lookup on another class — the roots of its cross-unit
    /// dependencies. Includes builtins and the unit's own definitions;
    /// callers (the incremental compile session) filter by symbol→unit
    /// ownership. Sorted and deduplicated.
    pub pkg_refs: Vec<SymbolId>,
}

/// Parses and types one source file into a typed tree.
///
/// # Errors
///
/// Returns parse errors directly; type errors are accumulated in
/// `ctx.errors` (callers check [`Ctx::has_errors`]).
pub fn compile_source(
    ctx: &mut Ctx,
    name: &str,
    src: &str,
) -> Result<TypedUnit, crate::parser::ParseError> {
    let sunit = crate::parser::parse(name, src)?;
    Ok(type_unit(ctx, &sunit))
}

/// [`compile_source`] in **redefinition mode** for incremental sessions:
/// `prev_top` names the top-level symbols this unit defined in an earlier
/// generation, and the namer re-enters matching definitions *in place* —
/// same [`SymbolId`], updated flags/type/span/members — instead of minting
/// fresh symbols. Symbol identity is what keeps *other* units' cached
/// post-pipeline trees valid across a body-only edit of this unit: their
/// `Ident`/`Select` nodes keep resolving to the same ids. Definitions that
/// vanished from the source stay in `prev_top` ∖ `top_syms`; the session
/// retracts them from the package scope.
///
/// # Errors
///
/// As [`compile_source`].
pub fn compile_source_reusing(
    ctx: &mut Ctx,
    name: &str,
    src: &str,
    prev_top: &HashSet<SymbolId>,
) -> Result<TypedUnit, crate::parser::ParseError> {
    let sunit = crate::parser::parse(name, src)?;
    Ok(type_unit_with(ctx, &sunit, Some(prev_top)))
}

/// Types one parsed unit.
pub fn type_unit(ctx: &mut Ctx, sunit: &SUnit) -> TypedUnit {
    type_unit_with(ctx, sunit, None)
}

fn type_unit_with(ctx: &mut Ctx, sunit: &SUnit, reuse: Option<&HashSet<SymbolId>>) -> TypedUnit {
    let mut typer = Typer::new(ctx, reuse);
    typer.enter_top_level(&sunit.stats);
    let stats = typer.type_top_level(&sunit.stats);
    let pkg = typer.ctx.symbols.builtins().root_pkg;
    let tree = typer.ctx.mk(
        TreeKind::PackageDef {
            pkg,
            stats: stats.into(),
        },
        Type::NoType,
        Span::SYNTHETIC,
    );
    let Typer {
        top_syms,
        mut pkg_refs,
        ..
    } = typer;
    pkg_refs.sort_unstable();
    pkg_refs.dedup();
    TypedUnit {
        tree,
        name: sunit.name.clone(),
        top_syms,
        pkg_refs,
    }
}

struct Typer<'a> {
    ctx: &'a mut Ctx,
    /// Local value scopes, innermost last.
    scopes: Vec<HashMap<Name, SymbolId>>,
    /// Type-parameter scopes, innermost last.
    tscopes: Vec<HashMap<Name, SymbolId>>,
    /// Enclosing classes, innermost last.
    class_stack: Vec<SymbolId>,
    /// Enclosing methods, innermost last.
    method_stack: Vec<SymbolId>,
    /// Parameter symbols per method, recorded by the namer.
    params_of: HashMap<SymbolId, Vec<Vec<SymbolId>>>,
    /// Redefinition mode: the unit's previous-generation top-level symbols,
    /// eligible for in-place reuse (`None` = ordinary batch compile).
    reuse: Option<HashSet<SymbolId>>,
    /// Symbols whose definition is being re-entered in place this pass;
    /// their existing `decls` are reuse candidates for member symbols.
    reused_owners: HashSet<SymbolId>,
    /// `(owner, name)` pairs entered *this* pass — duplicate detection must
    /// not confuse a previous generation's symbol with a same-pass clash.
    entered: HashSet<(SymbolId, Name)>,
    /// Replacement `decls` lists (in entry order) for reused owners; stale
    /// previous-generation members are dropped when the list is installed.
    rebuilt_decls: HashMap<SymbolId, Vec<SymbolId>>,
    /// Top-level symbols in declaration order.
    top_syms: Vec<SymbolId>,
    /// Package-scope and foreign-member resolutions (cross-unit dep roots).
    pkg_refs: Vec<SymbolId>,
    /// Current expression-typing recursion depth (see [`MAX_TYPE_DEPTH`]).
    depth: u32,
    /// The method types of primitive operators, `(param?)result`, each
    /// built once and shared by every operator node (see
    /// [`Typer::operator_type`]).
    operator_types: HashMap<(Option<Type>, Type), Type>,
}

/// Hard ceiling on expression-typing recursion. The parser bounds
/// *syntactic* descent, but a long left-associative operator chain
/// (`a + b + c + ...`) parses with shallow recursion while building an
/// AST whose left spine is as deep as the chain is long — typing that
/// spine recurses once per node. The ceiling turns such inputs into a
/// diagnostic instead of a process-aborting stack overflow.
const MAX_TYPE_DEPTH: u32 = 200;

impl<'a> Typer<'a> {
    fn new(ctx: &'a mut Ctx, reuse: Option<&HashSet<SymbolId>>) -> Typer<'a> {
        Typer {
            ctx,
            scopes: Vec::new(),
            tscopes: Vec::new(),
            class_stack: Vec::new(),
            method_stack: Vec::new(),
            params_of: HashMap::new(),
            reuse: reuse.cloned(),
            reused_owners: HashSet::new(),
            entered: HashSet::new(),
            rebuilt_decls: HashMap::new(),
            top_syms: Vec::new(),
            pkg_refs: Vec::new(),
            depth: 0,
            operator_types: HashMap::new(),
        }
    }

    /// The method type of a primitive operator taking `param` (none for a
    /// unary operator) and returning `result`. Operators are the commonest
    /// nodes, and their few signatures are built once per unit and shared.
    fn operator_type(&mut self, param: Option<Type>, result: Type) -> Type {
        self.operator_types
            .entry((param, result))
            .or_insert_with_key(|(param, result)| Type::Method {
                params: [param.iter().cloned().collect::<TypeList>()].into(),
                ret: Arc::new(result.clone()),
            })
            .clone()
    }

    /// True when `existing`, found under `owner`, belongs to this unit's
    /// previous generation and may be redefined in place: a top-level from
    /// the caller-supplied reuse set, or any member of an owner already
    /// being reused.
    fn is_prev_gen(&self, owner: SymbolId, existing: SymbolId) -> bool {
        if owner == self.ctx.symbols.builtins().root_pkg {
            self.reuse.as_ref().is_some_and(|s| s.contains(&existing))
        } else {
            self.reused_owners.contains(&owner)
        }
    }

    /// Appends `sym` to the rebuilt `decls` list of `owner`, if `owner` is
    /// being redefined in place (no-op otherwise — fresh owners keep the
    /// order `SymbolTable::alloc` gives them).
    fn push_rebuilt(&mut self, owner: SymbolId, sym: SymbolId) {
        if let Some(list) = self.rebuilt_decls.get_mut(&owner) {
            list.push(sym);
        }
    }

    /// Re-enters or creates a term member of `owner` (field, constructor,
    /// `val` member): in redefinition mode an existing same-name term of a
    /// reused owner keeps its [`SymbolId`] and has flags/type/span
    /// overwritten; otherwise a fresh symbol is created exactly as in batch
    /// mode.
    fn reuse_or_new_term(
        &mut self,
        owner: SymbolId,
        name: Name,
        flags: Flags,
        info: Type,
        span: Span,
    ) -> SymbolId {
        let first_entry = self.entered.insert((owner, name));
        if first_entry && self.reused_owners.contains(&owner) {
            if let Some(e) = self.ctx.symbols.decl(owner, name) {
                if self.ctx.symbols.sym(e).kind == SymKind::Term {
                    let d = self.ctx.symbols.sym_mut(e);
                    d.flags = flags;
                    d.set_info(info);
                    d.span = span;
                    d.clear_decls();
                    d.tparams.clear();
                    self.push_rebuilt(owner, e);
                    return e;
                }
                // The name now means something of a different kind; retire
                // the stale symbol from the owner's scope and mint fresh.
                self.ctx.symbols.retain_decls(owner, |&x| x != e);
            }
        }
        let s = self.ctx.symbols.new_term(owner, name, flags, info);
        self.ctx.symbols.sym_mut(s).span = span;
        self.push_rebuilt(owner, s);
        s
    }

    fn error(&mut self, span: Span, msg: impl Into<String>) {
        self.ctx.error(span, "typer", msg);
    }

    fn error_tree(&mut self, span: Span, msg: impl Into<String>) -> TreeRef {
        self.error(span, msg);
        self.ctx.mk(TreeKind::Empty, Type::Error, span)
    }

    // ================= namer =================

    fn enter_top_level(&mut self, stats: &[SStat]) {
        let pkg = self.ctx.symbols.builtins().root_pkg;
        // Pass 0: class symbols (so parents/member types can refer to them).
        for s in stats {
            if let SStat::Class(c) = s {
                if let Some(sym) = self.enter_class_symbol(pkg, c) {
                    self.top_syms.push(sym);
                }
            }
        }
        // Pass 1: signatures.
        for s in stats {
            match s {
                SStat::Class(c) => {
                    let sym = match self.ctx.symbols.decl(pkg, c.name) {
                        Some(s) => s,
                        // Pass 0 refused the definition (duplicate).
                        None => continue,
                    };
                    self.complete_class(sym, c);
                }
                SStat::Def(d) => {
                    let sym = self.enter_def_symbol(pkg, d, true);
                    self.top_syms.push(sym);
                }
                SStat::Val(v) => {
                    self.error(v.span, "top-level values are not supported; use a def");
                }
                SStat::Expr(e) => {
                    self.error(e.span(), "top-level expressions are not supported");
                }
            }
        }
    }

    fn enter_class_symbol(&mut self, owner: SymbolId, c: &SClass) -> Option<SymbolId> {
        let mut flags = Flags::EMPTY;
        if c.is_trait {
            flags |= Flags::TRAIT;
        }
        let first_entry = self.entered.insert((owner, c.name));
        let existing = self.ctx.symbols.decl(owner, c.name);
        let sym = match existing {
            Some(e) if !first_entry || !self.is_prev_gen(owner, e) => {
                // Same-pass clash or a name owned by another unit.
                self.error(c.span, format!("duplicate class `{}`", c.name));
                return None;
            }
            Some(e) if self.ctx.symbols.sym(e).kind == SymKind::Class => {
                // Redefinition in place: keep the SymbolId (other units'
                // cached trees reference it), reset the surface.
                self.reused_owners.insert(e);
                self.rebuilt_decls.insert(e, Vec::new());
                // A reused *nested* class must survive its enclosing reused
                // class's decls rebuild.
                self.push_rebuilt(owner, e);
                let d = self.ctx.symbols.sym_mut(e);
                d.flags = flags;
                d.span = c.span;
                d.set_parents(TypeList::new());
                d.tparams = Vec::new();
                e
            }
            Some(e) => {
                // The name changed kind (e.g. a def became a class): retire
                // the previous-generation symbol and mint a fresh one.
                self.ctx.symbols.retain_decls(owner, |&x| x != e);
                let s = self
                    .ctx
                    .symbols
                    .new_class(owner, c.name, flags, Vec::new(), Vec::new());
                self.push_rebuilt(owner, s);
                s
            }
            None => {
                let s = self
                    .ctx
                    .symbols
                    .new_class(owner, c.name, flags, Vec::new(), Vec::new());
                self.push_rebuilt(owner, s);
                s
            }
        };
        let tparams: Vec<SymbolId> = c
            .tparams
            .iter()
            .map(|&tp| {
                self.entered.insert((sym, tp));
                let t = self.ctx.symbols.new_type_param(sym, tp);
                self.push_rebuilt(sym, t);
                t
            })
            .collect();
        self.ctx.symbols.sym_mut(sym).tparams = tparams;
        self.ctx.symbols.sym_mut(sym).span = c.span;
        // Nested classes.
        for s in &c.body {
            if let SStat::Class(nested) = s {
                if !nested.tparams.is_empty() {
                    self.error(nested.span, "nested classes cannot be generic");
                }
                self.enter_class_symbol(sym, nested);
            }
        }
        Some(sym)
    }

    fn push_class_tparams(&mut self, cls: SymbolId) {
        let map: HashMap<Name, SymbolId> = self
            .ctx
            .symbols
            .sym(cls)
            .tparams
            .iter()
            .map(|&tp| (self.ctx.symbols.sym(tp).name, tp))
            .collect();
        self.tscopes.push(map);
    }

    fn complete_class(&mut self, sym: SymbolId, c: &SClass) {
        self.push_class_tparams(sym);
        // Parents.
        let mut parents: Vec<Type> = c.parents.iter().map(|p| self.resolve_type(p)).collect();
        let first_is_class = parents.first().is_some_and(|p| match p.class_sym() {
            Some(ps) => !self.ctx.symbols.sym(ps).flags.is(Flags::TRAIT),
            None => false,
        });
        if !first_is_class {
            parents.insert(0, Type::AnyRef);
        }
        // Restriction (documented in DESIGN.md): parent classes must have
        // no constructor parameters; the synthesized super-init call passes
        // no arguments.
        for p in &parents {
            if let Some(ps) = p.class_sym() {
                let pd = self.ctx.symbols.sym(ps);
                if !pd.flags.is(Flags::TRAIT) {
                    if let Some(pctor) = self.ctx.symbols.decl(ps, std_names::init()) {
                        if self.ctx.symbols.info(pctor).param_count() != 0 {
                            self.error(
                                c.span,
                                "parent classes with constructor parameters are not supported",
                            );
                        }
                    }
                }
            }
        }
        self.ctx.symbols.sym_mut(sym).set_parents(parents.into());

        if c.is_trait && !c.params.is_empty() {
            self.error(c.span, "traits cannot have constructor parameters");
        }

        // Constructor parameters become fields; the constructor symbol takes
        // them as arguments.
        let mut ctor_param_syms = Vec::with_capacity(c.params.len());
        let ctor_param_types: TypeList = c
            .params
            .iter()
            .map(|p| {
                let t = self.resolve_type(&p.tpe);
                if matches!(t, Type::ByName(_) | Type::Repeated(_)) {
                    self.error(p.span, "class parameters cannot be by-name or repeated");
                }
                let f = self.reuse_or_new_term(sym, p.name, Flags::PARAM, t.clone(), p.span);
                ctor_param_syms.push(f);
                t
            })
            .collect();
        if !c.is_trait {
            let ctor = self.reuse_or_new_term(
                sym,
                std_names::init(),
                Flags::METHOD | Flags::CONSTRUCTOR | Flags::SYNTHETIC,
                Type::Method {
                    params: [ctor_param_types].into(),
                    ret: Arc::new(Type::Unit),
                },
                Span::SYNTHETIC,
            );
            self.params_of.insert(ctor, vec![ctor_param_syms]);
        }

        // Members.
        for s in &c.body {
            match s {
                SStat::Val(v) => {
                    let Some(st) = &v.tpe else {
                        self.error(v.span, "class member values need an explicit type");
                        continue;
                    };
                    let t = self.resolve_type(st);
                    let mut flags = Flags::EMPTY;
                    if v.mutable {
                        flags |= Flags::MUTABLE;
                    }
                    if v.lazy_ {
                        flags |= Flags::LAZY;
                    }
                    if v.private {
                        flags |= Flags::PRIVATE;
                    }
                    if self.entered.contains(&(sym, v.name))
                        || self
                            .ctx
                            .symbols
                            .decl(sym, v.name)
                            .is_some_and(|e| !self.is_prev_gen(sym, e))
                    {
                        self.error(v.span, format!("duplicate member `{}`", v.name));
                        continue;
                    }
                    self.reuse_or_new_term(sym, v.name, flags, t, v.span);
                }
                SStat::Def(d) => {
                    self.enter_def_symbol(sym, d, false);
                }
                SStat::Class(nested) => {
                    let Some(nsym) = self.ctx.symbols.decl(sym, nested.name) else {
                        // Pass 0 refused the definition (duplicate).
                        continue;
                    };
                    self.complete_class(nsym, nested);
                }
                SStat::Expr(_) => {
                    // Loose statements in templates run at construction; no
                    // symbol needed.
                }
            }
        }
        if self.reused_owners.contains(&sym) {
            // Install the rebuilt member list: the same symbols, in fresh
            // declaration order, with stale previous-generation members
            // dropped. (Locals entered later by body typing append after
            // this, exactly as they do on the batch path.)
            if let Some(rebuilt) = self.rebuilt_decls.remove(&sym) {
                self.ctx.symbols.set_decls(sym, rebuilt);
            }
        }
        self.tscopes.pop();
    }

    fn enter_def_symbol(&mut self, owner: SymbolId, d: &SDef, top_level: bool) -> SymbolId {
        // Overloading is not supported: a same-pass re-entry or a clash with
        // a name owned by another unit is an error (a previous generation of
        // *this* unit's definition is redefined in place instead).
        let same_pass = self.entered.contains(&(owner, d.name));
        if same_pass
            || self
                .ctx
                .symbols
                .decl(owner, d.name)
                .is_some_and(|e| !self.is_prev_gen(owner, e))
        {
            self.error(d.span, format!("duplicate definition `{}`", d.name));
        }
        let mut flags = Flags::METHOD;
        if d.private {
            flags |= Flags::PRIVATE;
        }
        if d.override_ {
            flags |= Flags::OVERRIDE;
        }
        if d.body.is_none() {
            flags |= Flags::DEFERRED;
        }
        if top_level && d.name == std_names::main() {
            flags |= Flags::ENTRY_POINT;
        }
        self.entered.insert((owner, d.name));
        let reusable = if same_pass {
            // A genuine duplicate keeps minting a second symbol, exactly as
            // the batch namer always has.
            None
        } else {
            self.ctx.symbols.decl(owner, d.name).filter(|&e| {
                self.is_prev_gen(owner, e) && self.ctx.symbols.sym(e).kind == SymKind::Term
            })
        };
        let sym = match reusable {
            Some(e) => {
                // Redefinition in place: keep the SymbolId, reset the
                // surface. Old parameter/local/type-parameter symbols are
                // unit-internal, so dropping them from `decls` orphans
                // nothing another unit can reference.
                let data = self.ctx.symbols.sym_mut(e);
                data.flags = flags;
                data.set_info(Type::NoType);
                data.span = d.span;
                data.clear_decls();
                data.tparams.clear();
                self.push_rebuilt(owner, e);
                e
            }
            None => {
                if !same_pass {
                    if let Some(stale) = self.ctx.symbols.decl(owner, d.name) {
                        if self.is_prev_gen(owner, stale) {
                            // The name changed kind; retire the stale symbol.
                            self.ctx.symbols.retain_decls(owner, |&x| x != stale);
                        }
                    }
                }
                let s = self
                    .ctx
                    .symbols
                    .new_term(owner, d.name, flags, Type::NoType);
                self.push_rebuilt(owner, s);
                s
            }
        };
        self.ctx.symbols.sym_mut(sym).span = d.span;

        let tparams: Vec<SymbolId> = d
            .tparams
            .iter()
            .map(|&tp| self.ctx.symbols.new_type_param(sym, tp))
            .collect();
        self.ctx.symbols.sym_mut(sym).tparams = tparams.clone();
        let tmap: HashMap<Name, SymbolId> = d
            .tparams
            .iter()
            .copied()
            .zip(tparams.iter().copied())
            .collect();
        self.tscopes.push(tmap);

        let mut param_syms = Vec::with_capacity(d.paramss.len());
        let param_types: SharedList<TypeList> = d
            .paramss
            .iter()
            .map(|clause| {
                let mut syms = Vec::with_capacity(clause.len());
                let types = clause
                    .iter()
                    .map(|p| {
                        let t = self.resolve_type(&p.tpe);
                        let mut pflags = Flags::PARAM;
                        if matches!(t, Type::ByName(_)) {
                            pflags |= Flags::BY_NAME;
                        }
                        if matches!(t, Type::Repeated(_)) {
                            pflags |= Flags::REPEATED;
                        }
                        let ps = self.ctx.symbols.new_term(sym, p.name, pflags, t.clone());
                        self.ctx.symbols.sym_mut(ps).span = p.span;
                        syms.push(ps);
                        t
                    })
                    .collect();
                param_syms.push(syms);
                types
            })
            .collect();
        let ret = match &d.ret {
            Some(rt) => self.resolve_type(rt),
            None => {
                self.error(d.span, format!("method `{}` needs a result type", d.name));
                Type::Error
            }
        };
        let mtype = Type::Method {
            params: if param_types.is_empty() {
                [TypeList::new()].into()
            } else {
                param_types
            },
            ret: Arc::new(ret),
        };
        let info = if tparams.is_empty() {
            mtype
        } else {
            Type::Poly {
                tparams: tparams.iter().copied().collect(),
                underlying: Arc::new(mtype),
            }
        };
        self.ctx.symbols.sym_mut(sym).set_info(info);
        if d.paramss.is_empty() {
            self.params_of.insert(sym, vec![Vec::new()]);
        } else {
            self.params_of.insert(sym, param_syms);
        }
        self.tscopes.pop();
        sym
    }

    // ================= type resolution =================

    fn resolve_type(&mut self, st: &SType) -> Type {
        match st {
            SType::Named { name, targs, span } => {
                let targs_r: TypeList = targs.iter().map(|t| self.resolve_type(t)).collect();
                // Type parameters in scope.
                for scope in self.tscopes.iter().rev() {
                    if let Some(&tp) = scope.get(name) {
                        if !targs_r.is_empty() {
                            self.error(*span, "type parameters cannot take arguments");
                        }
                        return Type::TypeParam(tp);
                    }
                }
                match name.as_str() {
                    "Int" => return Type::Int,
                    "Boolean" => return Type::Boolean,
                    "Unit" => return Type::Unit,
                    "String" => return Type::Str,
                    "Any" => return Type::Any,
                    "AnyRef" => return Type::AnyRef,
                    "Nothing" => return Type::Nothing,
                    "Null" => return Type::Null,
                    "Array" => {
                        if targs_r.len() != 1 {
                            self.error(*span, "Array takes exactly one type argument");
                            return Type::Error;
                        }
                        return Type::Array(Arc::new(targs_r[0].clone()));
                    }
                    _ => {}
                }
                // Classes: innermost enclosing class scope, then package.
                let mut found = SymbolId::NONE;
                for &cls in self.class_stack.iter().rev() {
                    if let Some(d) = self.ctx.symbols.decl(cls, *name) {
                        if self.ctx.symbols.sym(d).kind == SymKind::Class {
                            found = d;
                            break;
                        }
                    }
                }
                if found.is_none() {
                    let pkg = self.ctx.symbols.builtins().root_pkg;
                    if let Some(d) = self.ctx.symbols.decl(pkg, *name) {
                        if self.ctx.symbols.sym(d).kind == SymKind::Class {
                            found = d;
                            // Package-scope type resolution: a cross-unit
                            // dependency root (filtered by the session).
                            self.pkg_refs.push(d);
                        }
                    }
                }
                if found.is_none() {
                    self.error(*span, format!("unknown type `{name}`"));
                    return Type::Error;
                }
                let arity = self.ctx.symbols.sym(found).tparams.len();
                if arity != targs_r.len() {
                    self.error(
                        *span,
                        format!(
                            "wrong number of type arguments for `{name}`: expected {arity}, got {}",
                            targs_r.len()
                        ),
                    );
                    return Type::Error;
                }
                Type::Class {
                    sym: found,
                    targs: targs_r,
                }
            }
            SType::Func { params, ret } => Type::Function {
                params: params.iter().map(|p| self.resolve_type(p)).collect(),
                ret: Arc::new(self.resolve_type(ret)),
            },
            SType::ByName(t) => Type::ByName(Arc::new(self.resolve_type(t))),
            SType::Repeated(t) => Type::Repeated(Arc::new(self.resolve_type(t))),
        }
    }

    // ================= body typing =================

    fn type_top_level(&mut self, stats: &[SStat]) -> Vec<TreeRef> {
        let pkg = self.ctx.symbols.builtins().root_pkg;
        let mut out = Vec::new();
        for s in stats {
            match s {
                SStat::Class(c) => {
                    let sym = match self.ctx.symbols.decl(pkg, c.name) {
                        Some(s) => s,
                        None => continue,
                    };
                    out.push(self.type_class(sym, c));
                }
                SStat::Def(d) => {
                    let sym = match self.ctx.symbols.decl(pkg, d.name) {
                        Some(s) => s,
                        None => continue,
                    };
                    out.push(self.type_def(sym, d));
                }
                _ => {}
            }
        }
        out
    }

    fn type_class(&mut self, sym: SymbolId, c: &SClass) -> TreeRef {
        self.class_stack.push(sym);
        self.push_class_tparams(sym);
        let mut body = Vec::new();
        for s in &c.body {
            match s {
                SStat::Val(v) => {
                    let Some(m) = self.ctx.symbols.decl(sym, v.name) else {
                        continue;
                    };
                    let expected = self.ctx.symbols.info(m).into_owned();
                    let rhs = self.type_expr(&v.rhs, Some(&expected));
                    self.check_conforms(rhs.tpe(), &expected, v.span);
                    body.push(
                        self.ctx
                            .mk(TreeKind::ValDef { sym: m, rhs }, Type::Unit, v.span),
                    );
                }
                SStat::Def(d) => {
                    let Some(m) = self.ctx.symbols.decl(sym, d.name) else {
                        continue;
                    };
                    body.push(self.type_def(m, d));
                }
                SStat::Class(nested) => {
                    let Some(n) = self.ctx.symbols.decl(sym, nested.name) else {
                        continue;
                    };
                    body.push(self.type_class(n, nested));
                }
                SStat::Expr(e) => {
                    let t = self.type_expr(e, None);
                    body.push(t);
                }
            }
        }
        self.tscopes.pop();
        self.class_stack.pop();
        self.ctx.mk(
            TreeKind::ClassDef {
                sym,
                body: body.into(),
            },
            Type::Unit,
            c.span,
        )
    }

    fn type_def(&mut self, sym: SymbolId, d: &SDef) -> TreeRef {
        let info = self.ctx.symbols.info(sym).into_owned();
        let tparams = self.ctx.symbols.sym(sym).tparams.clone();
        let tmap: HashMap<Name, SymbolId> = tparams
            .iter()
            .map(|&tp| (self.ctx.symbols.sym(tp).name, tp))
            .collect();
        self.tscopes.push(tmap);
        self.method_stack.push(sym);

        let param_syms = self.params_of.get(&sym).cloned().unwrap_or_default();
        let mut scope = HashMap::new();
        for clause in &param_syms {
            for &p in clause {
                scope.insert(self.ctx.symbols.sym(p).name, p);
            }
        }
        self.scopes.push(scope);

        let paramss: Vec<Vec<TreeRef>> = param_syms
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|&p| {
                        let e = self.ctx.empty();
                        self.ctx.mk(
                            TreeKind::ValDef { sym: p, rhs: e },
                            Type::Unit,
                            Span::SYNTHETIC,
                        )
                    })
                    .collect()
            })
            .collect();

        let ret = info.final_result().clone();
        let rhs = match &d.body {
            Some(b) => {
                let r = self.type_expr(b, Some(&ret));
                self.check_conforms(r.tpe(), &ret, d.span);
                r
            }
            None => self.ctx.empty(),
        };

        self.scopes.pop();
        self.method_stack.pop();
        self.tscopes.pop();
        self.ctx
            .mk(TreeKind::DefDef { sym, paramss, rhs }, Type::Unit, d.span)
    }

    fn check_conforms(&mut self, actual: &Type, expected: &Type, span: Span) {
        let exp = expected.strip_param_wrappers();
        if !self.ctx.symbols.is_subtype(actual, exp) {
            let msg = format!("type mismatch: found {actual}, expected {exp}");
            self.error(span, msg);
        }
    }

    fn lookup_local(&self, name: Name) -> Option<SymbolId> {
        for scope in self.scopes.iter().rev() {
            if let Some(&s) = scope.get(&name) {
                return Some(s);
            }
        }
        None
    }

    fn current_owner(&self) -> SymbolId {
        self.method_stack
            .last()
            .copied()
            .or_else(|| self.class_stack.last().copied())
            .unwrap_or(self.ctx_root())
    }

    fn ctx_root(&self) -> SymbolId {
        self.ctx.symbols.builtins().root_pkg
    }

    /// Adapts a reference: auto-applies nullary methods in value position.
    fn adapt(&mut self, tree: TreeRef, fun_position: bool) -> TreeRef {
        if fun_position {
            return tree;
        }
        if let Type::Method { params, ret } = tree.tpe().clone() {
            if params.len() == 1 && params[0].is_empty() {
                return self.ctx.mk(
                    TreeKind::Apply {
                        fun: tree.clone(),
                        args: Vec::new().into(),
                    },
                    (*ret).clone(),
                    tree.span(),
                );
            }
        }
        tree
    }

    fn type_ident(&mut self, name: Name, span: Span, fun_position: bool) -> TreeRef {
        // 1. Locals and parameters.
        if let Some(sym) = self.lookup_local(name) {
            let mut tpe = self.ctx.symbols.info(sym).into_owned();
            // Uses of repeated parameters see an array.
            if let Type::Repeated(e) = &tpe {
                tpe = Type::Array(e.clone());
            }
            let t = self.ctx.mk(TreeKind::Ident { sym }, tpe, span);
            return self.adapt(t, fun_position);
        }
        // 2. Members of enclosing classes.
        for i in (0..self.class_stack.len()).rev() {
            let cls = self.class_stack[i];
            let self_t = self.ctx.symbols.self_type(cls);
            if let Some((m, seen)) = self.ctx.symbols.member(&self_t, name) {
                let this = self.ctx.mk(TreeKind::This { cls }, self_t, span);
                let sel = self.ctx.mk(
                    TreeKind::Select {
                        qual: this,
                        name,
                        sym: m,
                    },
                    seen,
                    span,
                );
                return self.adapt(sel, fun_position);
            }
        }
        // 3. Package-level definitions and builtins.
        let pkg = self.ctx_root();
        if let Some(d) = self.ctx.symbols.decl(pkg, name) {
            if self.ctx.symbols.sym(d).kind == SymKind::Term {
                // Package-scope value resolution: a cross-unit dependency
                // root (filtered by the session).
                self.pkg_refs.push(d);
                let tpe = self.ctx.symbols.info(d).into_owned();
                let t = self.ctx.mk(TreeKind::Ident { sym: d }, tpe, span);
                return self.adapt(t, fun_position);
            }
        }
        self.error_tree(span, format!("unknown identifier `{name}`"))
    }

    fn type_expr(&mut self, e: &SExpr, expected: Option<&Type>) -> TreeRef {
        self.depth += 1;
        if self.depth > MAX_TYPE_DEPTH {
            self.depth -= 1;
            return self.error_tree(
                e.span(),
                format!("expression nesting exceeds the typer depth limit ({MAX_TYPE_DEPTH})"),
            );
        }
        let t = self.type_expr1(e, expected);
        self.depth -= 1;
        debug_assert!(!t.tpe().is_missing() || t.is_empty_tree());
        t
    }

    fn type_expr1(&mut self, e: &SExpr, expected: Option<&Type>) -> TreeRef {
        match e {
            SExpr::Lit(c, span) => self.ctx.lit(*c, *span),
            SExpr::Ident(name, span) => self.type_ident(*name, *span, false),
            SExpr::This(span) => match self.class_stack.last() {
                Some(&cls) => {
                    let t = self.ctx.symbols.self_type(cls);
                    self.ctx.mk(TreeKind::This { cls }, t, *span)
                }
                None => self.error_tree(*span, "`this` outside of a class"),
            },
            SExpr::Super(span) => self.error_tree(*span, "`super` must select a member"),
            SExpr::Select(qual, name, span) => self.type_select(qual, *name, *span, false),
            SExpr::Apply(fun, args, span) => self.type_apply(fun, &[], args, *span),
            SExpr::TypeApply(fun, targs, span) => {
                // Only meaningful in function position of an apply; a bare
                // `f[T]` is not a value.
                let _ = (fun, targs);
                self.error_tree(*span, "type application must be applied to arguments")
            }
            SExpr::New(stype, args, span) => self.type_new(stype, args, *span),
            SExpr::Assign(lhs, rhs, span) => self.type_assign(lhs, rhs, *span),
            SExpr::Block(stats, span) => {
                self.scopes.push(HashMap::new());
                let tree = self.type_block(stats, *span, expected);
                self.scopes.pop();
                tree
            }
            SExpr::If(cond, then_b, else_b, span) => {
                let c = self.type_expr(cond, Some(&Type::Boolean));
                self.check_conforms(c.tpe(), &Type::Boolean, *span);
                let t = self.type_expr(then_b, expected);
                let (e_tree, tpe) = match else_b {
                    Some(eb) => {
                        let et = self.type_expr(eb, expected);
                        let l = self.ctx.symbols.lub(t.tpe(), et.tpe());
                        (et, l)
                    }
                    None => (self.ctx.empty(), Type::Unit),
                };
                self.ctx.mk(
                    TreeKind::If {
                        cond: c,
                        then_branch: t,
                        else_branch: e_tree,
                    },
                    tpe,
                    *span,
                )
            }
            SExpr::While(cond, body, span) => {
                let c = self.type_expr(cond, Some(&Type::Boolean));
                self.check_conforms(c.tpe(), &Type::Boolean, *span);
                let b = self.type_expr(body, None);
                self.ctx
                    .mk(TreeKind::While { cond: c, body: b }, Type::Unit, *span)
            }
            SExpr::Match(sel, cases, span) => {
                let s = self.type_expr(sel, None);
                let sel_t = s.tpe().clone();
                let mut case_trees = Vec::new();
                let mut result = Type::Nothing;
                for case in cases {
                    let ct = self.type_case(case, &sel_t, expected);
                    result = self.ctx.symbols.lub(&result, ct.tpe());
                    case_trees.push(ct);
                }
                if case_trees.is_empty() {
                    return self.error_tree(*span, "match needs at least one case");
                }
                self.ctx.mk(
                    TreeKind::Match {
                        selector: s,
                        cases: case_trees.into(),
                    },
                    result,
                    *span,
                )
            }
            SExpr::Try(block, cases, finalizer, span) => {
                let b = self.type_expr(block, expected);
                let mut result = b.tpe().clone();
                let mut case_trees = Vec::new();
                for case in cases {
                    let ct = self.type_case(case, &Type::Any, expected);
                    result = self.ctx.symbols.lub(&result, ct.tpe());
                    case_trees.push(ct);
                }
                let fin = match finalizer {
                    Some(f) => self.type_expr(f, None),
                    None => self.ctx.empty(),
                };
                self.ctx.mk(
                    TreeKind::Try {
                        block: b,
                        cases: case_trees.into(),
                        finalizer: fin,
                    },
                    result,
                    *span,
                )
            }
            SExpr::Throw(inner, span) => {
                let t = self.type_expr(inner, None);
                self.ctx
                    .mk(TreeKind::Throw { expr: t }, Type::Nothing, *span)
            }
            SExpr::Return(inner, span) => {
                let Some(&m) = self.method_stack.last() else {
                    return self.error_tree(*span, "return outside of a method");
                };
                let ret_t = self.ctx.symbols.info(m).final_result().clone();
                let v = match inner {
                    Some(i) => {
                        let t = self.type_expr(i, Some(&ret_t));
                        self.check_conforms(t.tpe(), &ret_t, *span);
                        t
                    }
                    None => {
                        self.check_conforms(&Type::Unit, &ret_t, *span);
                        self.ctx.lit(Constant::Unit, *span)
                    }
                };
                self.ctx
                    .mk(TreeKind::Return { expr: v, from: m }, Type::Nothing, *span)
            }
            SExpr::Lambda(params, body, span) => {
                let owner = self.current_owner();
                let mut scope = HashMap::new();
                let mut ptrees = Vec::with_capacity(params.len());
                let ptypes: TypeList = params
                    .iter()
                    .map(|p| {
                        let t = self.resolve_type(&p.tpe);
                        if matches!(t, Type::ByName(_) | Type::Repeated(_)) {
                            self.error(p.span, "lambda parameters cannot be by-name or repeated");
                        }
                        let ps = self
                            .ctx
                            .symbols
                            .new_term(owner, p.name, Flags::PARAM, t.clone());
                        scope.insert(p.name, ps);
                        let empty = self.ctx.empty();
                        ptrees.push(self.ctx.mk(
                            TreeKind::ValDef {
                                sym: ps,
                                rhs: empty,
                            },
                            Type::Unit,
                            p.span,
                        ));
                        t
                    })
                    .collect();
                self.scopes.push(scope);
                let b = self.type_expr(body, None);
                self.scopes.pop();
                let tpe = Type::Function {
                    params: ptypes,
                    ret: Arc::new(b.tpe().clone()),
                };
                self.ctx.mk(
                    TreeKind::Lambda {
                        params: ptrees.into(),
                        body: b,
                    },
                    tpe,
                    *span,
                )
            }
            SExpr::Unary(op, inner, span) => {
                let t = self.type_expr(inner, None);
                match op.as_str() {
                    "!" => {
                        self.check_conforms(t.tpe(), &Type::Boolean, *span);
                        let op_t = self.operator_type(None, Type::Boolean);
                        let sel = self.ctx.select(t, *op, SymbolId::NONE, op_t);
                        self.ctx.apply(sel, vec![], Type::Boolean)
                    }
                    "-" => {
                        self.check_conforms(t.tpe(), &Type::Int, *span);
                        let op_t = self.operator_type(None, Type::Int);
                        let sel = self.ctx.select(t, *op, SymbolId::NONE, op_t);
                        self.ctx.apply(sel, vec![], Type::Int)
                    }
                    other => self.error_tree(*span, format!("unknown unary operator `{other}`")),
                }
            }
            SExpr::Binary(op, lhs, rhs, span) => self.type_binary(*op, lhs, rhs, *span),
        }
    }

    fn type_binary(&mut self, op: Name, lhs: &SExpr, rhs: &SExpr, span: Span) -> TreeRef {
        let l = self.type_expr(lhs, None);
        let r = self.type_expr(rhs, None);
        let (arg_t, result) = match op.as_str() {
            "==" | "!=" => (Type::Any, Type::Boolean),
            "&&" | "||" => {
                self.check_conforms(l.tpe(), &Type::Boolean, span);
                self.check_conforms(r.tpe(), &Type::Boolean, span);
                (Type::Boolean, Type::Boolean)
            }
            "+" if *l.tpe() == Type::Str || *r.tpe() == Type::Str => (Type::Any, Type::Str),
            "+" | "-" | "*" | "/" | "%" => {
                self.check_conforms(l.tpe(), &Type::Int, span);
                self.check_conforms(r.tpe(), &Type::Int, span);
                (Type::Int, Type::Int)
            }
            "<" | ">" | "<=" | ">=" => {
                self.check_conforms(l.tpe(), &Type::Int, span);
                self.check_conforms(r.tpe(), &Type::Int, span);
                (Type::Int, Type::Boolean)
            }
            other => {
                return self.error_tree(span, format!("unknown operator `{other}`"));
            }
        };
        // Stamp the full `lhs op rhs` source span on the desugared call so
        // downstream diagnostics (lint findings, checker failures) anchor on
        // real source positions instead of SYNTHETIC.
        let op_t = self.operator_type(Some(arg_t), result.clone());
        let sel = self.ctx.mk(
            TreeKind::Select {
                qual: l,
                name: op,
                sym: SymbolId::NONE,
            },
            op_t,
            span,
        );
        self.ctx.mk(
            TreeKind::Apply {
                fun: sel,
                args: vec![r].into(),
            },
            result,
            span,
        )
    }

    fn type_select(&mut self, qual: &SExpr, name: Name, span: Span, fun_position: bool) -> TreeRef {
        // super.m
        if let SExpr::Super(sspan) = qual {
            let Some(&cls) = self.class_stack.last() else {
                return self.error_tree(*sspan, "`super` outside of a class");
            };
            for base in self.ctx.symbols.linearization(cls).into_iter().skip(1) {
                if let Some(m) = self.ctx.symbols.decl(base, name) {
                    let info = self.ctx.symbols.info(m).into_owned();
                    let sup_t = self.ctx.symbols.class_type(base);
                    let sup = self.ctx.mk(TreeKind::Super { cls }, sup_t, *sspan);
                    let sel = self.ctx.mk(
                        TreeKind::Select {
                            qual: sup,
                            name,
                            sym: m,
                        },
                        info,
                        span,
                    );
                    return self.adapt(sel, fun_position);
                }
            }
            return self.error_tree(span, format!("no parent member `{name}`"));
        }
        let q = self.type_expr(qual, None);
        let q_t = q.tpe().clone();
        // String intrinsics.
        if q_t == Type::Str && name.as_str() == "length" {
            return self.ctx.select(q, name, SymbolId::NONE, Type::Int);
        }
        // Array intrinsics.
        if let Type::Array(elem) = &q_t {
            match name.as_str() {
                "length" => {
                    let sel = self.ctx.select(q, name, SymbolId::NONE, Type::Int);
                    return sel;
                }
                "apply" => {
                    let m = Type::Method {
                        params: [TypeList::from([Type::Int])].into(),
                        ret: Arc::clone(elem),
                    };
                    return self.ctx.select(q, name, SymbolId::NONE, m);
                }
                "update" => {
                    let m = Type::Method {
                        params: [TypeList::from([Type::Int, (**elem).clone()])].into(),
                        ret: Arc::new(Type::Unit),
                    };
                    return self.ctx.select(q, name, SymbolId::NONE, m);
                }
                _ => {}
            }
        }
        match self.ctx.symbols.member(&q_t, name) {
            Some((m, seen)) => {
                // Selecting a member pins this unit to the *owning class's*
                // interface (and to the qualifier's class): a signature
                // change there must cascade even when the class was never
                // named through the package scope (e.g. it arrived as a
                // call's result type).
                if let Some(cs) = q_t.class_sym() {
                    self.pkg_refs.push(cs);
                }
                let owner = self.ctx.symbols.sym(m).owner;
                if owner.exists() {
                    self.pkg_refs.push(owner);
                }
                let sel = self.ctx.mk(
                    TreeKind::Select {
                        qual: q,
                        name,
                        sym: m,
                    },
                    seen,
                    span,
                );
                self.adapt(sel, fun_position)
            }
            None => self.error_tree(span, format!("type {q_t} has no member `{name}`")),
        }
    }

    fn type_fun(&mut self, fun: &SExpr) -> TreeRef {
        match fun {
            SExpr::Ident(name, span) => self.type_ident(*name, *span, true),
            SExpr::Select(q, name, span) => self.type_select(q, *name, *span, true),
            other => self.type_expr(other, None),
        }
    }

    fn type_apply(
        &mut self,
        fun: &SExpr,
        explicit_targs: &[SType],
        args: &[SExpr],
        span: Span,
    ) -> TreeRef {
        // Unwrap explicit type application `f[T](args)`.
        if let SExpr::TypeApply(inner, targs, _) = fun {
            return self.type_apply(inner, targs, args, span);
        }
        let f = self.type_fun(fun);
        let f_t = f.tpe().clone();

        // Applying a function value: sugar for `.apply`.
        if let Type::Function { params, ret } = &f_t {
            let m = Type::Method {
                params: [params.clone()].into(),
                ret: ret.clone(),
            };
            let apply_sym = self
                .ctx
                .symbols
                .member(&f_t, std_names::apply())
                .map(|(s, _)| s)
                .unwrap_or(SymbolId::NONE);
            let sel = self.ctx.select(f, std_names::apply(), apply_sym, m.clone());
            return self.apply_method(sel, &m, args, span);
        }
        // Array element read `a(i)`.
        if let Type::Array(elem) = &f_t {
            let m = Type::Method {
                params: [TypeList::from([Type::Int])].into(),
                ret: elem.clone(),
            };
            let sel = self
                .ctx
                .select(f, std_names::apply(), SymbolId::NONE, m.clone());
            return self.apply_method(sel, &m, args, span);
        }

        match f_t.clone() {
            Type::Poly {
                tparams,
                underlying,
            } => {
                let targs: Vec<Type> = if !explicit_targs.is_empty() {
                    if explicit_targs.len() != tparams.len() {
                        return self.error_tree(span, "wrong number of type arguments");
                    }
                    explicit_targs
                        .iter()
                        .map(|t| self.resolve_type(t))
                        .collect()
                } else {
                    // Infer from argument types.
                    let arg_trees: Vec<TreeRef> =
                        args.iter().map(|a| self.type_expr(a, None)).collect();
                    let mut binding: HashMap<SymbolId, Type> = HashMap::new();
                    if let Type::Method { params, .. } = underlying.as_ref() {
                        let flat: Vec<&Type> = params.iter().flatten().collect();
                        for (p, a) in flat.iter().zip(arg_trees.iter()) {
                            unify(p, a.tpe(), &tparams, &mut binding);
                        }
                    }
                    let mut out = Vec::new();
                    for tp in &tparams {
                        match binding.get(tp) {
                            Some(t) => out.push(t.clone()),
                            None => {
                                return self.error_tree(
                                    span,
                                    "cannot infer type arguments; supply them explicitly",
                                )
                            }
                        }
                    }
                    // Re-type arguments (cheap, types already computed) by
                    // building the TypeApply and re-running the generic path
                    // below with resolved targs: we reuse arg_trees.
                    let inst = underlying.subst(&tparams, &out);
                    let ta = self.ctx.mk(
                        TreeKind::TypeApply { fun: f, targs: out },
                        inst.clone(),
                        span,
                    );
                    return self.apply_method_typed(ta, &inst, arg_trees, span);
                };
                let inst = underlying.subst(&tparams, &targs);
                let ta = self
                    .ctx
                    .mk(TreeKind::TypeApply { fun: f, targs }, inst.clone(), span);
                self.apply_method(ta, &inst, args, span)
            }
            Type::Method { .. } => {
                let m = f_t;
                self.apply_method(f, &m, args, span)
            }
            Type::Error => f,
            other => self.error_tree(span, format!("cannot apply value of type {other}")),
        }
    }

    fn apply_method(&mut self, fun: TreeRef, m: &Type, args: &[SExpr], span: Span) -> TreeRef {
        let arg_trees: Vec<TreeRef> = args.iter().map(|a| self.type_expr(a, None)).collect();
        self.apply_method_typed(fun, m, arg_trees, span)
    }

    fn apply_method_typed(
        &mut self,
        fun: TreeRef,
        m: &Type,
        arg_trees: Vec<TreeRef>,
        span: Span,
    ) -> TreeRef {
        let Type::Method { params, ret } = m else {
            return self.error_tree(span, format!("cannot apply value of type {m}"));
        };
        let Some(first) = params.first() else {
            return self.error_tree(span, "method type without parameter lists");
        };
        // Arity check, accounting for a trailing repeated parameter.
        let has_repeated = matches!(first.last(), Some(Type::Repeated(_)));
        if has_repeated {
            if arg_trees.len() < first.len() - 1 {
                return self.error_tree(
                    span,
                    format!(
                        "wrong number of arguments: expected at least {}, got {}",
                        first.len() - 1,
                        arg_trees.len()
                    ),
                );
            }
        } else if arg_trees.len() != first.len() {
            return self.error_tree(
                span,
                format!(
                    "wrong number of arguments: expected {}, got {}",
                    first.len(),
                    arg_trees.len()
                ),
            );
        }
        for (i, a) in arg_trees.iter().enumerate() {
            let expected = if has_repeated && i >= first.len() - 1 {
                first.last().expect("repeated param exists")
            } else {
                &first[i]
            };
            self.check_conforms(a.tpe(), expected, a.span().union(span));
        }
        let result = if params.len() > 1 {
            Type::Method {
                params: params[1..].iter().cloned().collect(),
                ret: ret.clone(),
            }
        } else {
            (**ret).clone()
        };
        let out = self.ctx.mk(
            TreeKind::Apply {
                fun,
                args: arg_trees.into(),
            },
            result.clone(),
            span,
        );
        // Auto-apply remaining empty parameter lists is NOT done: curried
        // calls must supply all lists explicitly.
        let _ = result;
        out
    }

    fn type_new(&mut self, stype: &SType, args: &[SExpr], span: Span) -> TreeRef {
        let t = self.resolve_type(stype);
        match &t {
            Type::Array(_elem) => {
                // `new Array[T](n)` — intrinsic allocation.
                if args.len() != 1 {
                    return self.error_tree(span, "new Array[T] takes one length argument");
                }
                let n = self.type_expr(&args[0], Some(&Type::Int));
                self.check_conforms(n.tpe(), &Type::Int, span);
                let new_node = self
                    .ctx
                    .mk(TreeKind::New { tpe: t.clone() }, t.clone(), span);
                let m = Type::Method {
                    params: [TypeList::from([Type::Int])].into(),
                    ret: Arc::new(t.clone()),
                };
                let sel = self
                    .ctx
                    .select(new_node, std_names::init(), SymbolId::NONE, m);
                self.ctx.apply(sel, vec![n], t)
            }
            Type::Class { sym, targs } => {
                let cd = self.ctx.symbols.sym(*sym);
                if cd.flags.is(Flags::TRAIT) {
                    return self.error_tree(span, "cannot instantiate a trait");
                }
                let Some(ctor) = self.ctx.symbols.decl(*sym, std_names::init()) else {
                    return self.error_tree(span, "class has no constructor");
                };
                let tps = self.ctx.symbols.sym(*sym).tparams.clone();
                let info = self.ctx.symbols.info(ctor).into_owned().subst(&tps, targs);
                let new_node = self
                    .ctx
                    .mk(TreeKind::New { tpe: t.clone() }, t.clone(), span);
                let sel = self.ctx.mk(
                    TreeKind::Select {
                        qual: new_node,
                        name: std_names::init(),
                        sym: ctor,
                    },
                    info.clone(),
                    span,
                );
                let applied = self.apply_method(sel, &info, args, span);
                // The expression's value is the new object.
                self.ctx.retyped(&applied, t)
            }
            Type::Error => self.ctx.mk(TreeKind::Empty, Type::Error, span),
            other => self.error_tree(span, format!("cannot instantiate type {other}")),
        }
    }

    fn type_assign(&mut self, lhs: &SExpr, rhs: &SExpr, span: Span) -> TreeRef {
        // Array update sugar `a(i) = v`.
        if let SExpr::Apply(arr, idx, aspan) = lhs {
            let a = self.type_expr(arr, None);
            if let Type::Array(elem) = a.tpe().clone() {
                if idx.len() != 1 {
                    return self.error_tree(*aspan, "array update takes one index");
                }
                let i = self.type_expr(&idx[0], Some(&Type::Int));
                self.check_conforms(i.tpe(), &Type::Int, span);
                let v = self.type_expr(rhs, Some(&elem));
                self.check_conforms(v.tpe(), &elem, span);
                let m = Type::Method {
                    params: [TypeList::from([Type::Int, (*elem).clone()])].into(),
                    ret: Arc::new(Type::Unit),
                };
                let sel = self
                    .ctx
                    .select(a, Name::intern("update"), SymbolId::NONE, m);
                return self.ctx.apply(sel, vec![i, v], Type::Unit);
            }
            return self.error_tree(span, "cannot assign to an application");
        }
        let l = match lhs {
            SExpr::Ident(name, ispan) => self.type_ident(*name, *ispan, true),
            SExpr::Select(q, name, sspan) => self.type_select(q, *name, *sspan, true),
            other => return self.error_tree(other.span(), "illegal assignment target"),
        };
        let l_sym = l.ref_sym();
        if l_sym.exists() && !self.ctx.symbols.sym(l_sym).flags.is(Flags::MUTABLE) {
            self.error(span, "reassignment to immutable value");
        }
        let l_t = l.tpe().clone();
        let r = self.type_expr(rhs, Some(&l_t));
        self.check_conforms(r.tpe(), &l_t, span);
        self.ctx
            .mk(TreeKind::Assign { lhs: l, rhs: r }, Type::Unit, span)
    }

    fn type_block(&mut self, stats: &[SStat], span: Span, expected: Option<&Type>) -> TreeRef {
        // Pre-enter local def symbols so blocks support forward references
        // between sibling defs.
        let owner = self.current_owner();
        let mut pre_entered: HashMap<*const SDef, SymbolId> = HashMap::new();
        for s in stats {
            if let SStat::Def(d) = s {
                let sym = self.enter_def_symbol(owner, d, false);
                self.scopes
                    .last_mut()
                    .expect("block scope pushed")
                    .insert(d.name, sym);
                pre_entered.insert(d as *const SDef, sym);
            }
        }
        let mut trees: Vec<TreeRef> = Vec::new();
        let mut last_is_value = false;
        for (i, s) in stats.iter().enumerate() {
            let is_last = i + 1 == stats.len();
            match s {
                SStat::Val(v) => {
                    let declared = v.tpe.as_ref().map(|st| self.resolve_type(st));
                    let rhs = self.type_expr(&v.rhs, declared.as_ref());
                    let t = match declared {
                        Some(t) => {
                            self.check_conforms(rhs.tpe(), &t, v.span);
                            t
                        }
                        None => self.ctx.symbols.widen(rhs.tpe().clone()),
                    };
                    let mut flags = Flags::EMPTY;
                    if v.mutable {
                        flags |= Flags::MUTABLE;
                    }
                    if v.lazy_ {
                        flags |= Flags::LAZY;
                    }
                    let sym = self.ctx.symbols.new_term(owner, v.name, flags, t);
                    self.ctx.symbols.sym_mut(sym).span = v.span;
                    self.scopes
                        .last_mut()
                        .expect("block scope pushed")
                        .insert(v.name, sym);
                    trees.push(
                        self.ctx
                            .mk(TreeKind::ValDef { sym, rhs }, Type::Unit, v.span),
                    );
                    last_is_value = false;
                }
                SStat::Def(d) => {
                    let sym = pre_entered[&(d as *const SDef)];
                    trees.push(self.type_def(sym, d));
                    last_is_value = false;
                }
                SStat::Class(c) => {
                    self.error(c.span, "local classes are not supported");
                    last_is_value = false;
                }
                SStat::Expr(e) => {
                    let t = self.type_expr(e, if is_last { expected } else { None });
                    trees.push(t);
                    last_is_value = true;
                }
            }
        }
        let expr = if last_is_value {
            trees.pop().expect("last value exists")
        } else {
            self.ctx.lit(Constant::Unit, span)
        };
        if trees.is_empty() {
            return expr;
        }
        let tpe = expr.tpe().clone();
        self.ctx.mk(
            TreeKind::Block {
                stats: trees.into(),
                expr,
            },
            tpe,
            span,
        )
    }

    fn type_case(&mut self, case: &SCase, sel_t: &Type, expected: Option<&Type>) -> TreeRef {
        self.scopes.push(HashMap::new());
        let pat = self.type_pattern(&case.pat, sel_t);
        let guard = match &case.guard {
            Some(g) => {
                let gt = self.type_expr(g, Some(&Type::Boolean));
                self.check_conforms(gt.tpe(), &Type::Boolean, case.span);
                gt
            }
            None => self.ctx.empty(),
        };
        let body = self.type_expr(&case.body, expected);
        self.scopes.pop();
        let tpe = body.tpe().clone();
        self.ctx
            .mk(TreeKind::CaseDef { pat, guard, body }, tpe, case.span)
    }

    fn type_pattern(&mut self, pat: &SPat, sel_t: &Type) -> TreeRef {
        match pat {
            SPat::Wild { tpe, span } => {
                let t = match tpe {
                    Some(st) => self.resolve_type(st),
                    None => Type::Any,
                };
                let e = self.ctx.empty();
                self.ctx.mk(
                    TreeKind::Typed {
                        expr: e,
                        tpe: t.clone(),
                    },
                    t,
                    *span,
                )
            }
            SPat::Var { name, tpe, span } => {
                let t = match tpe {
                    Some(st) => self.resolve_type(st),
                    None => self.ctx.symbols.widen(sel_t.clone()),
                };
                let owner = self.current_owner();
                let sym = self.ctx.symbols.new_term(
                    owner,
                    *name,
                    Flags::PARAM | Flags::SYNTHETIC,
                    t.clone(),
                );
                self.scopes
                    .last_mut()
                    .expect("case scope pushed")
                    .insert(*name, sym);
                let e = self.ctx.empty();
                let inner = self.ctx.mk(
                    TreeKind::Typed {
                        expr: e,
                        tpe: t.clone(),
                    },
                    t.clone(),
                    *span,
                );
                self.ctx.mk(TreeKind::Bind { sym, pat: inner }, t, *span)
            }
            SPat::Lit { value, span } => self.ctx.lit(*value, *span),
            SPat::Bind { name, pat, span } => {
                let inner = self.type_pattern(pat, sel_t);
                let t = inner.tpe().clone();
                let owner = self.current_owner();
                let sym = self.ctx.symbols.new_term(
                    owner,
                    *name,
                    Flags::PARAM | Flags::SYNTHETIC,
                    t.clone(),
                );
                self.scopes
                    .last_mut()
                    .expect("case scope pushed")
                    .insert(*name, sym);
                self.ctx.mk(TreeKind::Bind { sym, pat: inner }, t, *span)
            }
            SPat::Alt { pats, span } => {
                let trees: Vec<TreeRef> =
                    pats.iter().map(|p| self.type_pattern(p, sel_t)).collect();
                for t in &trees {
                    if matches!(t.kind(), TreeKind::Bind { .. }) {
                        self.error(*span, "binders are not allowed in pattern alternatives");
                    }
                }
                let tpe = trees
                    .iter()
                    .fold(Type::Nothing, |acc, t| self.ctx.symbols.lub(&acc, t.tpe()));
                self.ctx
                    .mk(TreeKind::Alternative { pats: trees.into() }, tpe, *span)
            }
        }
    }
}

/// First-match unification of `param` against `arg` over `tparams`.
fn unify(param: &Type, arg: &Type, tparams: &[SymbolId], binding: &mut HashMap<SymbolId, Type>) {
    match (param, arg) {
        (Type::TypeParam(tp), a) if tparams.contains(tp) => {
            binding.entry(*tp).or_insert_with(|| a.clone());
        }
        (
            Type::Class { sym: ps, targs: pt },
            Type::Class {
                sym: as_,
                targs: at,
            },
        ) if ps == as_ && pt.len() == at.len() => {
            for (p, a) in pt.iter().zip(at.iter()) {
                unify(p, a, tparams, binding);
            }
        }
        (Type::Array(p), Type::Array(a)) => unify(p, a, tparams, binding),
        (
            Type::Function {
                params: pp,
                ret: pr,
            },
            Type::Function {
                params: ap,
                ret: ar,
            },
        ) if pp.len() == ap.len() => {
            for (p, a) in pp.iter().zip(ap.iter()) {
                unify(p, a, tparams, binding);
            }
            unify(pr, ar, tparams, binding);
        }
        (Type::ByName(p), a) => unify(p, a, tparams, binding),
        (Type::Repeated(p), a) => unify(p, a, tparams, binding),
        _ => {}
    }
}
