//! `LambdaLift` — lifts nested functions to class scope and converts
//! lambdas to closure classes.
//!
//! * **Local defs** (including the `case$n` defs from `PatternMatcher` and
//!   the `liftedTry$n` defs from `LiftTry`) get their captured locals
//!   prepended as parameters — reusing the captured symbols themselves, so
//!   bodies need no rewriting — and are hoisted into the enclosing class
//!   (as methods) or to the top level (as statics). Capture sets are
//!   computed in `prepare_unit` with a fix-point over local call edges.
//! * **Lambdas** become top-level closure classes extending the appropriate
//!   `FunctionN` trait, with one field per captured variable (plus `$this`
//!   when the body uses the enclosing instance) and an `apply` method.
//!   Capture sets for lambdas are computed on demand from the
//!   already-transformed body, which makes nested closures compose.

use crate::util::rewrite_refs;
use mini_ir::{
    std_names, Ctx, Flags, Name, NodeKind, NodeKindSet, SymKind, SymbolId, TreeKind, TreeRef, Type,
    TypeList,
};
use miniphase::{MiniPhase, PhaseInfo};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The lambda-lifting phase.
#[derive(Default)]
pub struct LambdaLift {
    /// Capture list per local def (ordered, deduplicated).
    captures: HashMap<SymbolId, Vec<SymbolId>>,
    /// Local defs discovered in the unit.
    local_defs: HashSet<SymbolId>,
    /// Hoisted definitions awaiting re-attachment: (target class or NONE for
    /// top level, tree).
    pending: Vec<(SymbolId, TreeRef)>,
    anon_counter: u32,
}

fn is_local_value(ctx: &Ctx, sym: SymbolId) -> bool {
    sym.exists() && {
        let d = ctx.symbols.sym(sym);
        d.kind == SymKind::Term
            && !d.flags.is(Flags::METHOD)
            && ctx.symbols.sym(d.owner).kind == SymKind::Term
    }
}

impl PhaseInfo for LambdaLift {
    fn name(&self) -> &str {
        "lambdaLift"
    }
    fn description(&self) -> &str {
        "lift nested functions to class scope, storing free variables in environments"
    }
}

impl LambdaLift {
    /// Free-variable and call-edge analysis over the (not yet transformed)
    /// unit tree.
    fn analyze(&mut self, ctx: &mut Ctx, unit_tree: &TreeRef) {
        #[derive(Default)]
        struct St {
            /// Stack of enclosing functions: local-def symbol, or NONE for
            /// lambdas and non-local defs.
            defs: Vec<SymbolId>,
            /// Syms defined per stack entry.
            defined: Vec<HashSet<SymbolId>>,
            refs: HashMap<SymbolId, Vec<SymbolId>>, // def -> referenced outer locals
            calls: Vec<(Vec<SymbolId>, SymbolId)>,  // (enclosing defs innermost-first, callee)
            local_defs: HashSet<SymbolId>,
            /// The innermost enclosing *local def* frame at each local's
            /// definition site (NONE when defined in a lambda or at method
            /// top level). Symbol owners are unreliable here: phases like
            /// PatternMatcher create locals owned by the method even though
            /// they live inside generated case defs.
            def_home: HashMap<SymbolId, SymbolId>,
        }
        fn note_defined(st: &mut St, sym: SymbolId) {
            if let Some(d) = st.defined.last_mut() {
                d.insert(sym);
            }
            let home = st
                .defs
                .iter()
                .rev()
                .copied()
                .find(|s| s.exists())
                .unwrap_or(SymbolId::NONE);
            st.def_home.insert(sym, home);
        }
        fn mark(st: &mut St, ctx: &Ctx, v: SymbolId) {
            if !is_local_value(ctx, v) {
                return;
            }
            // Walk inward from the definition point: every local def between
            // the defining frame and the use references v freely.
            for i in (0..st.defs.len()).rev() {
                if st.defined[i].contains(&v) {
                    break;
                }
                let d = st.defs[i];
                if d.exists() {
                    let list = st.refs.entry(d).or_default();
                    if !list.contains(&v) {
                        list.push(v);
                    }
                }
            }
        }
        fn walk(st: &mut St, ctx: &Ctx, t: &TreeRef) {
            match t.kind() {
                TreeKind::DefDef { sym, paramss, rhs } => {
                    let local = ctx.symbols.sym(ctx.symbols.sym(*sym).owner).kind == SymKind::Term;
                    if local {
                        st.local_defs.insert(*sym);
                    }
                    st.defs.push(if local { *sym } else { SymbolId::NONE });
                    st.defined.push(HashSet::new());
                    for p in paramss.iter().flatten() {
                        let ps = p.def_sym();
                        note_defined(st, ps);
                        // Params of this def belong to this frame even
                        // through def_home.
                        if local {
                            st.def_home.insert(ps, *sym);
                        }
                    }
                    walk(st, ctx, rhs);
                    st.defined.pop();
                    st.defs.pop();
                }
                TreeKind::Lambda { params, body } => {
                    st.defs.push(SymbolId::NONE);
                    st.defined.push(HashSet::new());
                    for p in params {
                        let ps = p.def_sym();
                        note_defined(st, ps);
                        st.def_home.insert(ps, SymbolId::NONE);
                    }
                    walk(st, ctx, body);
                    st.defined.pop();
                    st.defs.pop();
                }
                TreeKind::ValDef { sym, rhs } => {
                    walk(st, ctx, rhs);
                    note_defined(st, *sym);
                }
                TreeKind::Bind { sym, pat } => {
                    walk(st, ctx, pat);
                    note_defined(st, *sym);
                }
                TreeKind::Ident { sym } => {
                    mark(st, ctx, *sym);
                }
                TreeKind::Apply { fun, args } => {
                    if let TreeKind::Ident { sym } = fun.kind() {
                        let owner = ctx.symbols.sym(*sym).owner;
                        if owner.exists() && ctx.symbols.sym(owner).kind == SymKind::Term {
                            let chain: Vec<SymbolId> = st
                                .defs
                                .iter()
                                .rev()
                                .copied()
                                .filter(|s| s.exists())
                                .collect();
                            st.calls.push((chain, *sym));
                        }
                    }
                    walk(st, ctx, fun);
                    for a in args {
                        walk(st, ctx, a);
                    }
                }
                _ => t.for_each_child(&mut |c| walk(st, ctx, c)),
            }
        }
        let mut st = St::default();
        walk(&mut st, ctx, unit_tree);

        // Fix-point: propagate callee captures to callers, stopping at the
        // frame that actually defines the variable.
        loop {
            let mut changed = false;
            for (chain, callee) in &st.calls {
                let Some(callee_refs) = st.refs.get(callee).cloned() else {
                    continue;
                };
                for v in callee_refs {
                    let home = st.def_home.get(&v).copied().unwrap_or(SymbolId::NONE);
                    for d in chain {
                        if *d == home {
                            break;
                        }
                        if *d == *callee {
                            continue;
                        }
                        let list = st.refs.entry(*d).or_default();
                        if !list.contains(&v) {
                            list.push(v);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Final capture lists: referenced locals not defined in the def
        // itself.
        for d in &st.local_defs {
            let list: Vec<SymbolId> = st
                .refs
                .get(d)
                .map(|l| {
                    l.iter()
                        .copied()
                        .filter(|v| st.def_home.get(v) != Some(d))
                        .collect()
                })
                .unwrap_or_default();
            self.captures.insert(*d, list);
        }
        self.local_defs.extend(st.local_defs.iter().copied());
        // Extend signatures now, so both call sites and definitions agree.
        for d in &st.local_defs {
            let caps = self.captures.get(d).cloned().unwrap_or_default();
            if caps.is_empty() {
                continue;
            }
            let info = ctx.symbols.info(*d).into_owned();
            if let Type::Method { params, ret } = info {
                let (first, rest) = params
                    .split_first()
                    .map_or((&[][..], &[][..]), |(f, r)| (&f[..], r));
                let new_first: TypeList = caps
                    .iter()
                    .map(|&v| ctx.symbols.info(v).into_owned())
                    .chain(first.iter().cloned())
                    .collect();
                let ps = std::iter::once(new_first)
                    .chain(rest.iter().cloned())
                    .collect();
                ctx.symbols
                    .sym_mut(*d)
                    .set_info(Type::Method { params: ps, ret });
            }
        }
    }

    /// Scans an already-transformed lambda body for captured locals and
    /// `this` references.
    fn scan_lambda(
        &self,
        ctx: &Ctx,
        params: &[TreeRef],
        body: &TreeRef,
    ) -> (Vec<SymbolId>, Option<SymbolId>) {
        let mut defined: HashSet<SymbolId> = params.iter().map(|p| p.def_sym()).collect();
        let mut free: Vec<SymbolId> = Vec::new();
        let mut this_cls: Option<SymbolId> = None;
        mini_ir::visit::for_each_subtree(body, &mut |t| match t.kind() {
            TreeKind::ValDef { sym, .. } | TreeKind::Bind { sym, .. } => {
                defined.insert(*sym);
            }
            TreeKind::DefDef { sym, paramss, .. } => {
                defined.insert(*sym);
                for p in paramss.iter().flatten() {
                    defined.insert(p.def_sym());
                }
            }
            TreeKind::Lambda { params, .. } => {
                for p in params {
                    defined.insert(p.def_sym());
                }
            }
            TreeKind::Ident { sym } if is_local_value(ctx, *sym) && !free.contains(sym) => {
                free.push(*sym);
            }
            TreeKind::This { cls } => {
                this_cls = Some(*cls);
            }
            _ => {}
        });
        // `defined` fills in post-order, so filter afterwards.
        free.retain(|v| !defined.contains(v));
        (free, this_cls)
    }
}

impl MiniPhase for LambdaLift {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::of(NodeKind::DefDef)
            .with(NodeKind::Apply)
            .with(NodeKind::Block)
            .with(NodeKind::Lambda)
            .with(NodeKind::ClassDef)
            .with(NodeKind::PackageDef)
    }

    fn runs_after_groups_of(&self) -> Vec<&'static str> {
        vec!["constructors"]
    }

    fn prepare_unit(&mut self, ctx: &mut Ctx, unit_tree: &TreeRef) {
        // Anon-class numbering restarts per unit so a unit's lifted-closure
        // names depend only on its own lambdas, never on how many closures
        // *earlier* units lifted — the self-containment that unit-level
        // parallel compilation requires (names may repeat across units;
        // symbols stay distinct and lookup is by id).
        self.anon_counter = 0;
        self.analyze(ctx, unit_tree);
    }

    fn transform_def_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::DefDef { sym, paramss, rhs } = tree.kind() else {
            return tree.clone();
        };
        if !self.local_defs.contains(sym) {
            return tree.clone();
        }
        let caps = self.captures.get(sym).cloned().unwrap_or_default();
        let mut first: Vec<TreeRef> = caps
            .iter()
            .map(|&v| {
                let e = ctx.empty();
                ctx.mk(TreeKind::ValDef { sym: v, rhs: e }, Type::Unit, tree.span())
            })
            .collect();
        if let Some(old_first) = paramss.first() {
            first.extend(old_first.iter().cloned());
        }
        ctx.symbols.sym_mut(*sym).flags |= Flags::LIFTED;
        ctx.with_kind(
            tree,
            TreeKind::DefDef {
                sym: *sym,
                paramss: vec![first],
                rhs: rhs.clone(),
            },
        )
    }

    fn transform_apply(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Apply { fun, args } = tree.kind() else {
            return tree.clone();
        };
        let TreeKind::Ident { sym } = fun.kind() else {
            return tree.clone();
        };
        if !self.local_defs.contains(sym) {
            return tree.clone();
        }
        let caps = self.captures.get(sym).cloned().unwrap_or_default();
        let mut new_args: Vec<TreeRef> = caps.iter().map(|&v| ctx.ident(v)).collect();
        new_args.extend(args.iter().cloned());
        let target = ctx.symbols.enclosing_class(*sym);
        let info = ctx.symbols.info(*sym).into_owned();
        let new_fun = if target.exists() {
            let this = ctx.this_mono(target);
            let name = ctx.symbols.sym(*sym).name;
            ctx.select(this, name, *sym, info)
        } else {
            ctx.retyped(fun, info)
        };
        ctx.with_kind(
            tree,
            TreeKind::Apply {
                fun: new_fun,
                args: new_args.into(),
            },
        )
    }

    fn transform_block(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Block { stats, expr } = tree.kind() else {
            return tree.clone();
        };
        if !stats.iter().any(|s| {
            let d = s.def_sym();
            matches!(s.kind(), TreeKind::DefDef { .. })
                && d.exists()
                && ctx.symbols.sym(d).flags.is(Flags::LIFTED)
        }) {
            return tree.clone();
        }
        let mut kept = Vec::new();
        for s in stats {
            let d = s.def_sym();
            if matches!(s.kind(), TreeKind::DefDef { .. })
                && d.exists()
                && ctx.symbols.sym(d).flags.is(Flags::LIFTED)
            {
                let target = ctx.symbols.enclosing_class(d);
                if target.exists() {
                    ctx.symbols.sym_mut(d).owner = target;
                } else {
                    let pkg = ctx.symbols.builtins().root_pkg;
                    ctx.symbols.sym_mut(d).owner = pkg;
                }
                self.pending.push((target, s.clone()));
            } else {
                kept.push(s.clone());
            }
        }
        ctx.with_kind(
            tree,
            TreeKind::Block {
                stats: kept.into(),
                expr: expr.clone(),
            },
        )
    }

    fn transform_lambda(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::Lambda { params, body } = tree.kind() else {
            return tree.clone();
        };
        let (free, this_cls) = self.scan_lambda(ctx, params, body);
        let pkg = ctx.symbols.builtins().root_pkg;
        self.anon_counter += 1;
        let anon_name = Name::intern(&format!("Anon$fn{}", self.anon_counter));
        let n = params.len().min(3);
        let fn_cls = ctx.symbols.builtins().function_classes[n];
        let parents = vec![Type::AnyRef, ctx.symbols.class_type(fn_cls)];
        let anon = ctx.symbols.new_class(
            pkg,
            anon_name,
            Flags::SYNTHETIC | Flags::FINAL,
            parents,
            vec![],
        );
        // Capture fields.
        let mut field_of: HashMap<SymbolId, SymbolId> = HashMap::new();
        let mut body_defs: Vec<TreeRef> = Vec::new();
        for &v in &free {
            let vt = ctx.symbols.info(v).into_owned();
            let vname = ctx.symbols.sym(v).name;
            let f = ctx.symbols.new_term(
                anon,
                Name::intern(&format!("{vname}$cap")),
                Flags::MUTABLE | Flags::SYNTHETIC,
                vt,
            );
            let e = ctx.empty();
            body_defs.push(ctx.val_def(f, e));
            field_of.insert(v, f);
        }
        let this_field = this_cls.map(|c| {
            let t = ctx.symbols.class_type(c);
            let f = ctx.symbols.new_term(
                anon,
                Name::intern("$this"),
                Flags::MUTABLE | Flags::SYNTHETIC,
                t,
            );
            let e = ctx.empty();
            body_defs.push(ctx.val_def(f, e));
            f
        });
        // Rewrite captured references in the body.
        let anon_cls = anon;
        let new_body = rewrite_refs(ctx, body, &mut |ctx, t| match t.kind() {
            TreeKind::Ident { sym } => field_of.get(sym).map(|&f| {
                let this = ctx.this_mono(anon_cls);
                let ft = ctx.symbols.info(f).into_owned();
                let name = ctx.symbols.sym(f).name;
                ctx.select(this, name, f, ft)
            }),
            TreeKind::This { .. } => this_field.map(|f| {
                let this = ctx.this_mono(anon_cls);
                let ft = ctx.symbols.info(f).into_owned();
                ctx.select(this, Name::intern("$this"), f, ft)
            }),
            _ => None,
        });
        // apply method.
        let param_types: TypeList = params
            .iter()
            .map(|p| ctx.symbols.info(p.def_sym()).into_owned())
            .collect();
        let apply_sym = ctx.symbols.new_term(
            anon,
            std_names::apply(),
            Flags::METHOD | Flags::SYNTHETIC,
            Type::Method {
                params: [param_types].into(),
                ret: Arc::new(new_body.tpe().clone()),
            },
        );
        body_defs.push(ctx.mk(
            TreeKind::DefDef {
                sym: apply_sym,
                paramss: vec![params.to_vec()],
                rhs: new_body,
            },
            Type::Unit,
            tree.span(),
        ));
        let class_def = ctx.mk(
            TreeKind::ClassDef {
                sym: anon,
                body: body_defs.into(),
            },
            Type::Unit,
            tree.span(),
        );
        self.pending.push((SymbolId::NONE, class_def));
        // Construction site: allocate, fill capture fields, yield.
        let closure_t = tree.tpe().clone();
        let tmp_name = ctx.fresh_name("closure");
        let tmp = ctx.symbols.new_term(
            pkg,
            tmp_name,
            Flags::SYNTHETIC,
            ctx.symbols.class_type(anon),
        );
        let anon_t = ctx.symbols.class_type(anon);
        let new_node = ctx.mk(
            TreeKind::New {
                tpe: anon_t.clone(),
            },
            anon_t.clone(),
            tree.span(),
        );
        let ctor_m = Type::Method {
            params: [TypeList::new()].into(),
            ret: Arc::new(Type::Unit),
        };
        let ctor_sel = ctx.select(new_node, std_names::init(), SymbolId::NONE, ctor_m);
        let alloc = ctx.apply(ctor_sel, vec![], anon_t);
        let mut stats = vec![ctx.val_def(tmp, alloc)];
        for &v in &free {
            let f = field_of[&v];
            let tref = ctx.ident(tmp);
            let ft = ctx.symbols.info(f).into_owned();
            let fname = ctx.symbols.sym(f).name;
            let lhs = ctx.select(tref, fname, f, ft);
            let rhs = ctx.ident(v);
            stats.push(ctx.mk(TreeKind::Assign { lhs, rhs }, Type::Unit, tree.span()));
        }
        if let (Some(f), Some(c)) = (this_field, this_cls) {
            let tref = ctx.ident(tmp);
            let ft = ctx.symbols.info(f).into_owned();
            let lhs = ctx.select(tref, Name::intern("$this"), f, ft);
            let rhs = ctx.this_mono(c);
            stats.push(ctx.mk(TreeKind::Assign { lhs, rhs }, Type::Unit, tree.span()));
        }
        let result = ctx.ident(tmp);
        let result = ctx.retyped(&result, closure_t.clone());
        ctx.mk(
            TreeKind::Block {
                stats: stats.into(),
                expr: result,
            },
            closure_t,
            tree.span(),
        )
    }

    fn transform_class_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        let TreeKind::ClassDef { sym, body } = tree.kind() else {
            return tree.clone();
        };
        if self.pending.iter().all(|(t, _)| t != sym) {
            return tree.clone();
        }
        let mut new_body = body.clone();
        self.pending.retain(|(t, d)| {
            if t == sym {
                new_body.push(d.clone());
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

    fn transform_package_def(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
        if self.pending.is_empty() {
            return tree.clone();
        }
        let TreeKind::PackageDef { pkg, stats } = tree.kind() else {
            return tree.clone();
        };
        let mut new_stats = stats.clone();
        for (_, d) in self.pending.drain(..) {
            new_stats.push(d);
        }
        ctx.with_kind(
            tree,
            TreeKind::PackageDef {
                pkg: *pkg,
                stats: new_stats,
            },
        )
    }

    fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        if matches!(t.kind(), TreeKind::Lambda { .. }) {
            return Err("Lambda survived LambdaLift".into());
        }
        if let TreeKind::Block { stats, .. } = t.kind() {
            if stats
                .iter()
                .any(|s| matches!(s.kind(), TreeKind::DefDef { .. }))
            {
                return Err("local def survived LambdaLift".into());
            }
        }
        Ok(())
    }
}
