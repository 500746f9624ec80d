//! Lazy symbol infos ≡ the eager whole-table sweeps they replaced.
//!
//! `ElimRepeated`, `ElimByName` and `Erasure` used to rewrite the info of
//! every symbol in the table when their group started. They now declare
//! info transformers and the table derives each symbol's info per period
//! on read ([`SymbolTable::info_at`]). Two oracles pin the equivalence over
//! generated corpora:
//!
//! * **Per symbol.** The eager composition `strip_repeated` →
//!   `strip_by_name` → `erase` applied to every id of the pre-pipeline
//!   table equals `info_at(id, final)` / `parents_at(id, final)` — read
//!   through a worker fork first (filling the shared memo) and then
//!   through the origin table.
//! * **Whole pipeline.** The standard pipeline with the three phases
//!   sweeping the table eagerly at group start (the pre-lazy executor,
//!   rebuilt here from the same type maps) prints the same trees and
//!   leaves the same symbol infos as the lazy pipeline run one-shot at
//!   `jobs` ∈ {1, 2} and as a cold and an edited compile session at
//!   `jobs` ∈ {1, 2}.

use miniphases::mini_driver::{compile_sources, standard_plan, CompileSession, CompilerOptions};
use miniphases::mini_ir::printer::{print_tree, print_type};
use miniphases::mini_ir::visit::for_each_subtree;
use miniphases::mini_ir::{
    Ctx, InfoTransform, NodeKindSet, ShardGrowth, SymbolId, SymbolTable, TreeRef, Type, TypeList,
};
use miniphases::mini_phases::flow::strip_by_name;
use miniphases::mini_phases::simple::strip_repeated;
use miniphases::miniphase::{
    info_periods, CompilationUnit, Finding, MiniPhase, PhaseInfo, Pipeline,
};
use miniphases::{mini_front, workload};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The eager composition of the three type maps, as the sweeps applied it.
fn eager_info(tab: &SymbolTable, info: &Type, parents: &[Type]) -> (Type, Vec<Type>) {
    let info = tab.erase(&strip_by_name(&strip_repeated(info)));
    (info, parents.iter().map(|p| tab.erase(p)).collect())
}

/// Generated corpora, each with the edits a session replays on it.
fn corpora() -> Vec<(workload::Workload, Vec<workload::Edit>)> {
    let mut out: Vec<_> = (1..=3)
        .map(|seed| {
            let w = workload::generate(&workload::WorkloadConfig {
                target_loc: 1_200,
                seed,
                unit_loc: 250,
            });
            (w, Vec::new())
        })
        .collect();
    let cfg = workload::LinkedConfig { units: 6, seed: 3 };
    let script = workload::edit_series(&cfg, 3, 5);
    out.push((script.base, script.edits));
    out
}

fn frontend(sources: &[(&str, &str)]) -> (Ctx, Vec<CompilationUnit>) {
    let mut ctx = Ctx::new();
    CompilerOptions::fused().configure_ctx(&mut ctx);
    let units = sources
        .iter()
        .map(|(n, s)| {
            let t = mini_front::compile_source(&mut ctx, n, s).expect("corpus parses");
            CompilationUnit::new(t.name, t.tree)
        })
        .collect();
    assert!(!ctx.has_errors(), "corpus type-checks");
    (ctx, units)
}

#[test]
fn info_at_final_equals_the_eager_composition() {
    let (phases, plan) = standard_plan(&CompilerOptions::fused()).expect("plan");
    let (info_plan, periods) = info_periods(&phases, &plan);
    let last = *periods.last().expect("groups");
    assert_eq!(usize::from(last), 3, "three info transformers");
    for (w, _) in corpora() {
        let (ctx, _) = frontend(&w.sources());
        let mut origin = ctx.symbols.clone();
        origin.set_info_plan(Arc::clone(&info_plan));
        let start = origin.id_ceiling() + 16;
        let fork = origin.fork_for_worker(
            start,
            64,
            ShardGrowth {
                next_start: start + 64,
                step: 64,
                capacity: 64,
            },
        );
        for id in ctx.symbols.ids() {
            let expected = eager_info(
                &ctx.symbols,
                &ctx.symbols.info(id),
                &ctx.symbols.parents(id),
            );
            for (side, tab) in [("fork", &fork), ("origin", &origin)] {
                assert_eq!(
                    (&*tab.info_at(id, last), &*tab.parents_at(id, last)),
                    (&expected.0, &expected.1[..]),
                    "{side}: {}",
                    ctx.symbols.full_name(id)
                );
            }
            assert_eq!(
                *origin.info_at(id, 0),
                *ctx.symbols.info(id),
                "period 0 is the frontend info"
            );
        }
    }
}

/// One of the three info-transforming phases with its transformer
/// switched off and the eager sweep the pre-lazy code ran in its place:
/// the first `prepare_unit` rewrites every symbol of the table.
struct Eager {
    inner: Box<dyn MiniPhase>,
    sweep: InfoTransform,
    swept: bool,
}

impl PhaseInfo for Eager {
    fn name(&self) -> &str {
        self.inner.name()
    }
}

macro_rules! delegate_hooks {
    ($(($variant:ident, $t:ident, $p:ident),)*) => {
        impl MiniPhase for Eager {
            fn transforms(&self) -> NodeKindSet {
                self.inner.transforms()
            }
            fn prepares(&self) -> NodeKindSet {
                self.inner.prepares()
            }
            fn runs_after(&self) -> Vec<&'static str> {
                self.inner.runs_after()
            }
            fn runs_after_groups_of(&self) -> Vec<&'static str> {
                self.inner.runs_after_groups_of()
            }
            fn prepare_unit(&mut self, ctx: &mut Ctx, unit_tree: &TreeRef) {
                if !self.swept {
                    self.swept = true;
                    let ids: Vec<_> = ctx.symbols.ids().collect();
                    for id in ids {
                        let info = ctx.symbols.info(id).into_owned();
                        let parents: TypeList = ctx.symbols.parents(id).into_owned().into();
                        let data = ctx.symbols.sym(id);
                        if let Some((i, p)) = (self.sweep)(data, &info, &parents, &ctx.symbols) {
                            let d = ctx.symbols.sym_mut(id);
                            d.set_info(i);
                            d.set_parents(p);
                        }
                    }
                }
                self.inner.prepare_unit(ctx, unit_tree);
            }
            fn transform_unit(&mut self, ctx: &mut Ctx, tree: TreeRef) -> TreeRef {
                self.inner.transform_unit(ctx, tree)
            }
            fn check_post_condition(&self, ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
                self.inner.check_post_condition(ctx, t)
            }
            fn finish_prepared(&mut self, ctx: &mut Ctx, t: &TreeRef) {
                self.inner.finish_prepared(ctx, t)
            }
            fn take_findings(&mut self) -> Vec<Finding> {
                self.inner.take_findings()
            }
            $(
                fn $t(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> TreeRef {
                    self.inner.$t(ctx, tree)
                }
                fn $p(&mut self, ctx: &mut Ctx, tree: &TreeRef) -> bool {
                    self.inner.$p(ctx, tree)
                }
            )*
        }
    };
}

miniphases::mini_ir::with_node_kinds!(delegate_hooks);

/// The type maps of the three sweeps, each as an `InfoTransform`.
fn sweep_of(name: &str) -> InfoTransform {
    fn repeated(
        _: &miniphases::mini_ir::SymbolData,
        info: &Type,
        parents: &TypeList,
        _: &SymbolTable,
    ) -> Option<(Type, TypeList)> {
        Some((strip_repeated(info), parents.clone()))
    }
    fn by_name(
        _: &miniphases::mini_ir::SymbolData,
        info: &Type,
        parents: &TypeList,
        _: &SymbolTable,
    ) -> Option<(Type, TypeList)> {
        Some((strip_by_name(info), parents.clone()))
    }
    fn erasure(
        _: &miniphases::mini_ir::SymbolData,
        info: &Type,
        parents: &TypeList,
        tab: &SymbolTable,
    ) -> Option<(Type, TypeList)> {
        Some((
            tab.erase(info),
            parents.iter().map(|p| tab.erase(p)).collect(),
        ))
    }
    match name {
        "elimRepeated" => repeated,
        "elimByName" => by_name,
        "erasure" => erasure,
        other => panic!("unexpected info transformer {other}"),
    }
}

/// What a compile leaves behind: printed trees, the final info and parents
/// of every symbol the trees define or reference, and of every symbol in
/// the table — both as sorted multisets, since symbol ids differ between
/// one-shot and session tables.
#[derive(PartialEq)]
struct Observed {
    printed: Vec<String>,
    used: Vec<String>,
    table: Vec<String>,
}

fn sym_line(tab: &SymbolTable, id: SymbolId) -> String {
    let parents: Vec<String> = tab.parents(id).iter().map(|p| print_type(p, tab)).collect();
    format!(
        "{}: {} <: {}",
        tab.full_name(id),
        print_type(&tab.info(id), tab),
        parents.join(", ")
    )
}

fn observe(units: &[CompilationUnit], tab: &SymbolTable) -> Observed {
    let printed = units
        .iter()
        .map(|u| format!("// {}\n{}", u.name, print_tree(&u.tree, tab)))
        .collect();
    let mut ids = BTreeSet::new();
    for u in units {
        for_each_subtree(&u.tree, &mut |t| {
            ids.extend(
                [t.def_sym(), t.ref_sym()]
                    .into_iter()
                    .filter(|s| s.exists()),
            );
        });
    }
    let mut used: Vec<String> = ids.into_iter().map(|id| sym_line(tab, id)).collect();
    used.sort();
    let mut table: Vec<String> = tab.ids().map(|id| sym_line(tab, id)).collect();
    table.sort();
    Observed {
        printed,
        used,
        table,
    }
}

/// Runs the first `groups` phase groups of the standard plan under `opts`
/// — with the three info transformers swept eagerly, or lazily as the
/// production pipeline runs them — and observes the trees and the table
/// as the next group would see them.
fn run_prefix(
    sources: &[(&str, &str)],
    opts: &CompilerOptions,
    groups: usize,
    eager: bool,
) -> Observed {
    let (mut ctx, units) = frontend(sources);
    let (phases, mut plan) = standard_plan(opts).expect("plan");
    plan.groups.truncate(groups);
    let phases: Vec<Box<dyn MiniPhase>> = phases
        .into_iter()
        .take(plan.phase_count())
        .map(|p| match p.info_transformer() {
            Some(_) if eager => {
                let sweep = sweep_of(p.name());
                Box::new(Eager {
                    inner: p,
                    sweep,
                    swept: false,
                }) as Box<dyn MiniPhase>
            }
            _ => p,
        })
        .collect();
    let mut pipe = Pipeline::new(phases, &plan, opts.fusion);
    let out = pipe.run_units(&mut ctx, units);
    assert!(
        !eager || ctx.symbols.info_plan().is_empty(),
        "the eager pipeline transforms no info lazily"
    );
    observe(&out, &ctx.symbols)
}

fn eager_pipeline(sources: &[(&str, &str)]) -> Observed {
    let opts = CompilerOptions::fused();
    let groups = standard_plan(&opts).expect("plan").1.group_count();
    run_prefix(sources, &opts, groups, true)
}

/// Period keying: after every group boundary — fused and unfused plans —
/// the lazy pipeline's trees and symbol infos equal the eager sweeps'.
/// Members of a fused group see the infos of every transformer in the
/// group (the sweeps ran in the group's `prepare_unit`), so this pins
/// group-start, not phase-position, periods.
#[test]
fn every_group_boundary_matches_the_eager_sweeps() {
    for (w, _) in corpora().into_iter().take(2) {
        let sources = w.sources();
        for opts in [CompilerOptions::fused(), CompilerOptions::mega()] {
            let groups = standard_plan(&opts).expect("plan").1.group_count();
            for k in 1..=groups {
                assert!(
                    run_prefix(&sources, &opts, k, false) == run_prefix(&sources, &opts, k, true),
                    "{:?}: state after {k} of {groups} groups diverges from the eager sweeps",
                    opts.mode
                );
            }
        }
    }
}

fn refs(sources: &[(String, String)]) -> Vec<(&str, &str)> {
    sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect()
}

#[test]
fn lazy_pipelines_match_the_eager_sweeps() {
    for (w, edits) in corpora() {
        let mut sources: Vec<(String, String)> = w.units.clone();
        sources.sort();
        let eager = eager_pipeline(&refs(&sources));
        for jobs in [1, 2] {
            let opts = CompilerOptions::fused().with_jobs(jobs);
            let c = compile_sources(&refs(&sources), &opts).expect("one-shot compiles");
            assert!(
                observe(&c.units, &c.ctx.symbols) == eager,
                "one-shot jobs={jobs} diverges from the eager sweeps"
            );
            let mut session = CompileSession::new(opts);
            for (n, s) in &sources {
                session.update(n.clone(), s.clone());
            }
            let c = session.compile().expect("cold session compiles");
            assert!(
                observe(&c.units, &c.ctx.symbols) == eager,
                "cold session jobs={jobs} diverges from the eager sweeps"
            );
            // Edits: the session splices cached deltas around fresh forks.
            let mut current = sources.clone();
            for (i, e) in edits.iter().enumerate() {
                session.update(e.unit.clone(), e.source.clone());
                let slot = current
                    .iter_mut()
                    .find(|(n, _)| *n == e.unit)
                    .expect("edited unit exists");
                slot.1 = e.source.clone();
                let c = session.compile().expect("edited session compiles");
                // A session keeps the symbols of superseded unit versions,
                // so only the symbols the program uses must match.
                let (seen, want) = (
                    observe(&c.units, &c.ctx.symbols),
                    eager_pipeline(&refs(&current)),
                );
                assert!(
                    seen.printed == want.printed && seen.used == want.used,
                    "session jobs={jobs} after edit {i} diverges from the eager sweeps"
                );
            }
        }
    }
}
