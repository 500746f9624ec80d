//! The compiler's layers called one by one, under spans.
//!
//! [`traced_compile`] does what `mini_driver::compile_sources` does with the
//! default fused options (lint off, `jobs = 1`), but calls each crate's
//! public entry points separately so every layer gets its own span:
//! `mini_front::{parse, type_unit}`, `miniphase::{build_plan, Pipeline}`,
//! `mini_backend::generate` and the VM. The benchmark checks that it
//! yields the same bytecode size, node visits and output as the one-call
//! path. Side measurements run under `probe.*` spans inside the op and are
//! not counted as op time: a standalone `mini_front::lex` per unit, the
//! §3 no-op walk over the typed trees, and `mini_analysis::lint_unit`.

use crate::trace::Tracer;
use crate::{Counts, OpOut};
use mini_backend::{generate, Program, Vm};
use mini_driver::CompilerOptions;
use mini_ir::{Ctx, NodeKindSet, TreeRef};
use miniphase::{
    build_plan, CompilationUnit, FusionOptions, MiniPhase, PhaseInfo, Pipeline, PlanOptions,
};

/// A Miniphase that declares every node kind and returns each tree
/// unchanged: running it through a [`Pipeline`] costs exactly one
/// traversal with per-node dispatch and no transform work (paper §3).
struct NoopWalk;

impl PhaseInfo for NoopWalk {
    fn name(&self) -> &str {
        "noopWalk"
    }
}

impl MiniPhase for NoopWalk {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::ALL
    }
}

/// Counts a one-call compile-and-run reports, for comparison with
/// [`traced_compile`].
pub fn run_counts(program: &Program, node_visits: u64, vm: &Vm<'_>) -> Counts {
    Counts::from([
        ("code_insns", program.code_size() as u64),
        ("core.node_visits", node_visits),
        ("vm.insns", vm.stats.insns_retired),
    ])
}

/// Compiles `sources` layer by layer and runs `main`, recording spans and
/// per-layer counters on `t` under its current op.
pub fn traced_compile(t: &mut Tracer, sources: &[(&str, &str)]) -> Result<OpOut, String> {
    let mut ctx = Ctx::new();
    CompilerOptions::fused().configure_ctx(&mut ctx);

    let mut units = Vec::with_capacity(sources.len());
    let (mut tokens, mut loc) = (0usize, 0usize);
    for (name, src) in sources {
        tokens += t
            .span("probe.lex", |_| mini_front::lex(src).map(|toks| toks.len()))
            .map_err(|e| format!("{name}: {e:?}"))?;
        loc += src.lines().count();
        let sunit = t
            .span("front.parse", |_| mini_front::parse(name, src))
            .map_err(|e| format!("{name}: {e}"))?;
        let typed = t.span("front.type", |_| mini_front::type_unit(&mut ctx, &sunit));
        units.push(CompilationUnit::new(typed.name, typed.tree));
    }
    if ctx.has_errors() {
        return Err(format!("frontend: {} diagnostics", ctx.errors.len()));
    }
    t.count("front.tokens", tokens as f64);
    t.count("front.loc", loc as f64);

    t.span("probe.walk", |_| {
        let phases: Vec<Box<dyn MiniPhase>> = vec![Box::new(NoopWalk)];
        let plan = build_plan(&phases, &PlanOptions::default()).expect("one-phase plan");
        let mut walk = Pipeline::new(phases, &plan, FusionOptions::default());
        walk.run_units(&mut ctx, units.clone());
    });
    let findings = t.span("probe.lint", |_| {
        units
            .iter()
            .map(|u| mini_analysis::lint_unit(&ctx.symbols, &u.name, &u.tree).len())
            .sum::<usize>()
    });
    t.count("analysis.findings", findings as f64);

    let mut pipeline = t
        .span("core.plan", |_| {
            let phases = mini_phases::standard_pipeline();
            build_plan(&phases, &PlanOptions::default())
                .map(|plan| Pipeline::new(phases, &plan, FusionOptions::default()))
        })
        .map_err(|e| format!("plan: {e}"))?;
    let units = t.span("core.run_units", |_| pipeline.run_units(&mut ctx, units));
    if ctx.has_errors() {
        return Err(format!("transforms: {} diagnostics", ctx.errors.len()));
    }
    t.count("core.plan_groups", pipeline.group_count() as f64);
    t.count("core.node_visits", pipeline.stats.node_visits as f64);
    t.count("core.traversals", pipeline.stats.traversals as f64);

    let trees: Vec<TreeRef> = units.iter().map(|u| u.tree.clone()).collect();
    let program = t
        .span("codegen.generate", |_| generate(&ctx, &trees))
        .map_err(|e| format!("codegen: {e}"))?;
    t.count("codegen.code_insns", program.code_size() as f64);

    let (output, vm_counts) = run_vm(t, &program)?;
    let mut counts = Counts::from([
        ("code_insns", program.code_size() as u64),
        ("core.node_visits", pipeline.stats.node_visits),
    ]);
    counts.extend(vm_counts);
    Ok(OpOut { output, counts })
}

/// `Vm::new` + `run_main` under `vm.prepare` / `vm.run` spans, recording
/// the VM's counters.
pub fn run_vm(t: &mut Tracer, program: &Program) -> Result<(Vec<String>, Counts), String> {
    let mut vm = t.span("vm.prepare", |_| Vm::new(program));
    t.span("vm.run", |_| vm.run_main())
        .map_err(|e| format!("vm: {e}"))?;
    let s = vm.stats;
    t.count("vm.insns", s.insns_retired as f64);
    t.count(
        "vm.fused_share",
        s.fused_retired as f64 / s.insns_retired.max(1) as f64,
    );
    t.count("vm.ic_hit_rate", s.ic_hit_rate());
    t.count("vm.peak_frames", s.peak_frames as f64);
    Ok((vm.out, Counts::from([("vm.insns", s.insns_retired)])))
}
