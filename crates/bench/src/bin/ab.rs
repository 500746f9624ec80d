//! `ab` — the productized paired in-process A/B harness.
//!
//! Cross-process benchmark timings on shared hosts drift by double-digit
//! percentages minute to minute, so this harness uses a paired
//! methodology: run both contenders in ONE process, alternating paired
//! repetitions, and report per-side minima plus the median of
//! per-repetition paired ratios. It compares two **configurations of the
//! current stack**, which is what perf PRs need day to day (for a
//! before/after comparison across commits, build this binary in a
//! checkout of each and run them back to back):
//!
//! ```text
//! cargo run --release -p bench --bin ab -- [SPEC_B] [SPEC_A] [REPS] [LOC]
//! ```
//!
//! A spec is `plan` followed by optional `+`-separated modifiers, where
//! `plan` is one of
//!
//! * `fused` / `mega` / `legacy` — the standard 22-phase pipeline in the
//!   usual modes;
//! * `patmat` — a sparse single-group plan of `patternMatcher` alone
//!   (transforms `Match`/`Try`, prepares `DefDef`/`ClassDef`);
//! * `tailrec` — a sparse single-group plan of `tailRec` alone (transforms
//!   `DefDef` only);
//! * `session` — a cold incremental [`mini_driver::CompileSession`] (fused
//!   options) compiling the whole corpus once. A `session` spec must be
//!   paired with a standard plan (`ab session fused`): both sides are then
//!   timed as whole compiles — frontend, transforms and backend, the
//!   standard side through the one-shot `compile_sources` — and the run
//!   **fails** unless both produce identical printed trees, VM output,
//!   findings and `ExecStats`;
//!
//! and the modifiers are `+prune` (set `FusionOptions::subtree_pruning`
//! to `On`), `+autoprune` (`SubtreePruning::Auto` — the per-traversal
//! sparseness heuristic), `+jobsN` (run the transform
//! pipeline on `N` worker threads — e.g. `fused+jobs4`), `+check` (run
//! the dynamic tree checker between groups; composes with `+jobsN`, since
//! checked runs no longer force sequential execution — e.g.
//! `fused+jobs4+check`), `+lint` (prefix the prepare-only
//! static-analysis group; standard plans only) and `+dce` (append the
//! dataflow-driven dead-code eliminator to the analysis prefix; standard
//! plans only). When the two specs differ *only* in `+lint`, the harness
//! also times a standalone lint traversal — which since PR 9 includes the
//! CFG + fixpoint dataflow pass, so the gate budgets the fixpoint too —
//! over the same typed corpus and **fails** if the fused suite's marginal
//! cost exceeds it by more than 1.5× + 2 ms — pinning the tentpole claim
//! that riding the pipeline is never worse than a dedicated walk. Specs
//! differing *only* in `+dce` get the analogous gate against a standalone
//! fact-computation pass (2× + 2 ms: the eliminator computes its own
//! facts and then rewrites, see the gate comment). Both gates report
//! the **median** of per-repetition paired differences and gate on the
//! **lower quartile** — a real regression shifts every rep's paired
//! difference, while the sustained noise bursts on this shared host
//! inflate only part of a smoke-sized run (a min(B) − min(A) estimator
//! and even the median flake at 8 reps).
//! The default comparison is `patmat+prune` vs
//! `patmat` over the dotty-like corpus slice — the headline sparse-kind
//! pruning measurement recorded in `BENCH_pipeline.json`. The reported
//! ratio is B (first spec) relative to A (second spec); negative means B
//! is faster.
//!
//! Argument parsing is strict: an unknown spec, modifier, or non-numeric
//! `REPS`/`LOC` prints usage and exits non-zero rather than silently
//! benchmarking the defaults.

use mini_driver::{
    compile_sources, phase_factory, standard_plan, CompileSession, Compiled, CompilerOptions,
};
use mini_ir::Ctx;
use miniphase::{
    CompilationUnit, ExecStats, MiniPhase, NoInstrumentation, PhasePlan, RunControls,
    SubtreePruning,
};
use std::time::{Duration, Instant};

/// Which phase list / grouping a spec runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// The standard pipeline, fused per the planner.
    Fused,
    /// The standard pipeline, one group per phase.
    Mega,
    /// The standard pipeline in scalac-imitation mode (no copier reuse, no
    /// interning), one group per phase.
    Legacy,
    /// `patternMatcher` alone in one group.
    Patmat,
    /// `tailRec` alone in one group.
    Tailrec,
    /// A cold `CompileSession` over the standard fused pipeline.
    Session,
}

#[derive(Clone)]
struct Spec {
    plan: Plan,
    prune: SubtreePruning,
    jobs: usize,
    check: bool,
    lint: bool,
    dce: bool,
    label: String,
}

const USAGE: &str = "usage: ab [SPEC_B] [SPEC_A] [REPS] [LOC]\n\
     SPEC    = (fused|mega|legacy|patmat|tailrec|session)[+prune|+autoprune][+jobsN][+check][+lint][+dce]\n\
     REPS    = positive integer (default 16, env REPS)\n\
     LOC     = positive integer (default 12000, env CORPUS_LOC)";

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_spec(s: &str) -> Spec {
    let mut parts = s.split('+');
    let plan = match parts.next().unwrap_or_default() {
        "fused" => Plan::Fused,
        "mega" => Plan::Mega,
        "legacy" => Plan::Legacy,
        "patmat" => Plan::Patmat,
        "tailrec" => Plan::Tailrec,
        "session" => Plan::Session,
        other => usage_exit(&format!("unknown spec `{other}`")),
    };
    let mut prune = SubtreePruning::Off;
    let mut jobs = 1usize;
    let mut check = false;
    let mut lint = false;
    let mut dce = false;
    for modifier in parts {
        if modifier == "prune" {
            prune = SubtreePruning::On;
        } else if modifier == "autoprune" {
            prune = SubtreePruning::Auto;
        } else if modifier == "check" {
            check = true;
        } else if modifier == "lint" {
            if matches!(plan, Plan::Patmat | Plan::Tailrec) {
                usage_exit("`+lint` composes with standard plans only");
            }
            lint = true;
        } else if modifier == "dce" {
            if matches!(plan, Plan::Patmat | Plan::Tailrec) {
                usage_exit("`+dce` composes with standard plans only");
            }
            dce = true;
        } else if let Some(n) = modifier.strip_prefix("jobs") {
            jobs = match n.parse() {
                Ok(j) if j >= 1 => j,
                _ => usage_exit(&format!("bad jobs count in `+{modifier}`")),
            };
        } else {
            usage_exit(&format!("unknown spec modifier `+{modifier}`"));
        }
    }
    Spec {
        plan,
        prune,
        jobs,
        check,
        lint,
        dce,
        label: s.to_string(),
    }
}

impl Spec {
    fn compiler_options(&self) -> CompilerOptions {
        let base = match self.plan {
            Plan::Mega => CompilerOptions::mega(),
            Plan::Legacy => CompilerOptions::legacy(),
            _ => CompilerOptions::fused(),
        };
        base.with_pruning_mode(self.prune)
            .with_jobs(self.jobs)
            .with_check(self.check)
            .with_lint(self.lint)
            .with_dce(self.dce)
    }

    /// One phase-list instance (workers each build their own): the
    /// driver's list for standard plans, analysis prefix included. Sparse
    /// plans bypass `build_plan` (their constraints name phases
    /// deliberately absent from the list).
    fn make_phases(&self) -> Vec<Box<dyn MiniPhase>> {
        match self.plan {
            Plan::Patmat => vec![Box::new(mini_phases::PatternMatcher::default())],
            Plan::Tailrec => vec![Box::new(mini_phases::TailRec)],
            _ => phase_factory(self.lint, self.dce)(),
        }
    }

    fn plan_for(&self, opts: &CompilerOptions) -> PhasePlan {
        match self.plan {
            Plan::Patmat | Plan::Tailrec => PhasePlan {
                groups: vec![vec![0]],
            },
            _ => standard_plan(opts).expect("standard plan is valid").1,
        }
    }
}

/// Everything a whole-compile run must reproduce exactly: printed trees,
/// VM output, findings and executor counters.
#[derive(PartialEq)]
struct Observed {
    printed: Vec<String>,
    vm_out: Vec<String>,
    findings: Vec<String>,
    exec: ExecStats,
}

fn observe(c: &Compiled) -> Observed {
    let printed = c
        .units
        .iter()
        .map(|u| mini_ir::printer::print_tree(&u.tree, &c.ctx.symbols))
        .collect();
    let mut vm = mini_backend::Vm::new(&c.program);
    vm.run_main().expect("benchmark corpus runs");
    Observed {
        printed,
        vm_out: vm.out,
        findings: c.findings.iter().map(|f| f.to_string()).collect(),
        exec: c.exec,
    }
}

/// One timed whole compile, for pairs involving a `session` spec: a cold
/// `CompileSession` (staging every source, then one `compile()`) or the
/// one-shot `compile_sources`, both over the sources in unit-name order
/// (the session's canonical order). Frontend, transforms and backend are
/// all under the clock; the VM run that checks the output is not.
fn run_compile(w: &workload::Workload, spec: &Spec) -> (Duration, Observed) {
    let opts = spec.compiler_options();
    let mut sources = w.sources();
    sources.sort_by_key(|(n, _)| *n);
    let start = Instant::now();
    let compiled = if spec.plan == Plan::Session {
        let mut session = CompileSession::new(opts);
        for (n, s) in &sources {
            session.update(*n, *s);
        }
        session.compile()
    } else {
        compile_sources(&sources, &opts)
    }
    .unwrap_or_else(|e| {
        eprintln!("FAIL: `{}` did not compile the corpus: {e}", spec.label);
        std::process::exit(1);
    });
    let elapsed = start.elapsed();
    (elapsed, observe(&compiled))
}

/// One timed run: untimed frontend, then plan construction + the batch
/// executor (the in-place `Pipeline` at `jobs = 1`, one fork per unit at
/// `+jobsN`) + teardown under the clock.
fn run_once(w: &workload::Workload, spec: &Spec) -> (Duration, ExecStats) {
    let opts = spec.compiler_options();
    let mut ctx = Ctx::new();
    let mut units = Vec::new();
    for (n, s) in &w.units {
        let t = mini_front::compile_source(&mut ctx, n, s).expect("corpus parses");
        units.push(CompilationUnit::new(t.name, t.tree));
    }
    let start = Instant::now();
    opts.configure_ctx(&mut ctx);
    let plan = spec.plan_for(&opts);
    let run = miniphase::run_units_parallel(
        &mut ctx,
        &|| spec.make_phases(),
        &plan,
        opts.fusion,
        units,
        spec.jobs,
        spec.check,
        &NoInstrumentation,
        &RunControls::default(),
    );
    if let Some(fault) = run.faults.first() {
        eprintln!("FAIL: `{}` panicked: {fault}", spec.label);
        std::process::exit(1);
    }
    if !run.failures.is_empty() {
        eprintln!(
            "FAIL: the tree checker flagged the benchmark corpus under `{}`:",
            spec.label
        );
        for f in run.failures.iter().take(5) {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    let stats = run.stats;
    std::hint::black_box(&run.units);
    drop(run);
    drop(ctx);
    (start.elapsed(), stats)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 4 {
        usage_exit(&format!("unexpected extra argument `{}`", args[4]));
    }
    let spec_b = parse_spec(args.first().map(String::as_str).unwrap_or("patmat+prune"));
    let spec_a = parse_spec(args.get(1).map(String::as_str).unwrap_or("patmat"));
    // Strict numeric parsing: a typo like `3O` must fail loudly, not
    // silently benchmark the default configuration.
    let parse_count = |what: &str, v: Option<String>, default: usize| -> usize {
        match v {
            None => default,
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => n,
                _ => usage_exit(&format!("{what} must be a positive integer, got `{v}`")),
            },
        }
    };
    let reps = parse_count(
        "REPS",
        args.get(2).cloned().or_else(|| std::env::var("REPS").ok()),
        16,
    );
    let loc = parse_count(
        "LOC",
        args.get(3)
            .cloned()
            .or_else(|| std::env::var("CORPUS_LOC").ok()),
        12_000,
    );

    let w = workload::generate(&workload::WorkloadConfig {
        target_loc: loc,
        seed: 0xd077,
        unit_loc: 400,
    });
    println!(
        "paired in-process A/B: B = {} vs A = {} ({} reps, {} LOC dotty-like slice)",
        spec_b.label, spec_a.label, reps, w.total_loc
    );

    let mut min_a = Duration::MAX;
    let mut min_b = Duration::MAX;
    let mut ratios: Vec<f64> = Vec::with_capacity(reps);
    let mut diffs: Vec<f64> = Vec::with_capacity(reps);
    let mut stats_a = ExecStats::default();
    let mut stats_b = ExecStats::default();
    let whole = spec_a.plan == Plan::Session || spec_b.plan == Plan::Session;
    if whole
        && [&spec_a, &spec_b]
            .iter()
            .any(|s| matches!(s.plan, Plan::Patmat | Plan::Tailrec))
    {
        usage_exit("`session` pairs with a standard plan only");
    }
    let mut observed: [Option<Observed>; 2] = [None, None];
    let mut run = |side: usize, spec: &Spec| -> (Duration, ExecStats) {
        if !whole {
            return run_once(&w, spec);
        }
        let (t, o) = run_compile(&w, spec);
        let exec = o.exec;
        observed[side] = Some(o);
        (t, exec)
    };
    for rep in 0..reps {
        // Alternate order each repetition to cancel ordering bias.
        let b_first = rep % 2 == 0;
        let mut t_a = Duration::ZERO;
        let mut t_b = Duration::ZERO;
        for side in 0..2 {
            if (side == 0) == b_first {
                let (t, s) = run(1, &spec_b);
                t_b = t;
                stats_b = s;
            } else {
                let (t, s) = run(0, &spec_a);
                t_a = t;
                stats_a = s;
            }
        }
        min_a = min_a.min(t_a);
        min_b = min_b.min(t_b);
        ratios.push(t_b.as_secs_f64() / t_a.as_secs_f64());
        diffs.push(t_b.as_secs_f64() - t_a.as_secs_f64());
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median = ratios[ratios.len() / 2];
    // Robust marginal-cost estimators for the gates below, from the
    // per-repetition paired differences (each difference comes from one
    // adjacent B/A pair, so host-noise spikes mostly hit both sides and
    // cancel). The *median* is reported; the *lower quartile* is gated:
    // a real regression in the measured pass shifts every rep's
    // difference, while a sustained noise burst on this shared host can
    // inflate half a smoke-sized run (observed: a min(B) − min(A)
    // estimator and even the median flake at 8 reps).
    diffs.sort_by(|a, b| a.partial_cmp(b).expect("finite diffs"));
    let marginal_secs = diffs[diffs.len() / 2];
    let gate_secs = diffs[diffs.len() / 4];
    let (a, b) = (min_a.as_secs_f64(), min_b.as_secs_f64());
    println!(
        "A {label_a:>14}: min {a_ms:>8.1} ms  visits {va:>10}  pruned {pa:>10}",
        label_a = spec_a.label,
        a_ms = a * 1e3,
        va = stats_a.node_visits,
        pa = stats_a.nodes_pruned,
    );
    println!(
        "B {label_b:>14}: min {b_ms:>8.1} ms  visits {vb:>10}  pruned {pb:>10}",
        label_b = spec_b.label,
        b_ms = b * 1e3,
        vb = stats_b.node_visits,
        pb = stats_b.nodes_pruned,
    );
    println!(
        "B vs A: min-ratio {:+.1}%  median paired ratio {:+.1}%",
        (b / a - 1.0) * 100.0,
        (median - 1.0) * 100.0
    );

    // A session pair is an equivalence check as much as a timing: the
    // cold session must compile the corpus to exactly the one-shot output.
    if whole && observed[0] != observed[1] {
        eprintln!(
            "FAIL: `{}` and `{}` disagree on printed trees, VM output, findings or ExecStats",
            spec_b.label, spec_a.label
        );
        std::process::exit(1);
    }

    // Specs that differ only in `jobs` and/or `check` (same plan, same
    // pruning, same lint) must report identical executor counters — the
    // parallel-determinism invariant, plus the rule that the dynamic
    // checker observes without perturbing the accounting. Enforce it here
    // so CI smokes like `ab fused+jobs4 fused` and
    // `ab fused+jobs4+check fused+check` are real checks, not just
    // no-crash runs.
    if spec_a.plan == spec_b.plan
        && spec_a.prune == spec_b.prune
        && spec_a.lint == spec_b.lint
        && spec_a.dce == spec_b.dce
        && stats_a != stats_b
    {
        eprintln!(
            "FAIL: same-plan specs disagree on ExecStats (jobs must not change accounting):\n  A {}: {stats_a:?}\n  B {}: {stats_b:?}",
            spec_a.label, spec_b.label
        );
        std::process::exit(1);
    }

    // When the specs differ *only* in `+lint` (B lints, A does not), the
    // timing pair isolates the fused suite's marginal cost — which since
    // PR 9 includes the CFG + fixpoint dataflow rules, so this gate also
    // budgets the fixpoint. Compare it against a standalone reference
    // traversal (`mini_analysis::lint_unit` over the same typed corpus,
    // which runs the identical dataflow pass) and fail if riding the
    // pipeline costs more than the dedicated walk (1.5× + 2 ms slack for
    // 1-vCPU timer noise) — the fusion-pays claim, enforced rather than
    // eyeballed.
    if spec_b.lint
        && !spec_a.lint
        && spec_a.plan == spec_b.plan
        && spec_a.prune == spec_b.prune
        && spec_a.jobs == spec_b.jobs
        && spec_a.check == spec_b.check
        && spec_a.dce == spec_b.dce
    {
        let standalone = time_standalone_lint(&w, reps);
        println!(
            "lint marginal cost: fused {:+.2} ms median / {:+.2} ms lower-quartile paired diff vs standalone walk {:.2} ms",
            marginal_secs * 1e3,
            gate_secs * 1e3,
            standalone.as_secs_f64() * 1e3,
        );
        let ceiling = standalone.as_secs_f64() * 1.5 + 0.002;
        if gate_secs > ceiling {
            eprintln!(
                "FAIL: fused lint marginal cost {:.2} ms (lower quartile) exceeds the standalone-walk ceiling {:.2} ms",
                gate_secs * 1e3,
                ceiling * 1e3
            );
            std::process::exit(1);
        }
    }

    // The analogous gate for `+dce`: specs differing only in the
    // eliminator pin its marginal cost against a standalone
    // fact-computation pass (CFG build + both fixpoints per unit).
    // The ceiling is TWO dataflow-pass-equivalents (+2 ms noise slack):
    // the Dce phase computes its own facts — the lint rules' per-rule
    // solutions are not cached for reuse — and then pays the
    // copy-on-write rewrite, so "facts + rewrite ≤ 2× facts" is the
    // claim this gate can enforce robustly at smoke rep counts. The
    // sharper observation (stacked on `+lint`, DCE's marginal cost
    // lands *below* one standalone dataflow pass in careful 16-rep
    // runs, and total node visits shrink) is recorded in
    // BENCH_pipeline.json → pr9_dataflow rather than gated.
    if spec_b.dce
        && !spec_a.dce
        && spec_a.plan == spec_b.plan
        && spec_a.prune == spec_b.prune
        && spec_a.jobs == spec_b.jobs
        && spec_a.check == spec_b.check
        && spec_a.lint == spec_b.lint
    {
        let standalone = time_standalone_dataflow(&w, reps);
        println!(
            "dce marginal cost: fused {:+.2} ms median / {:+.2} ms lower-quartile paired diff (eliminated {} nodes) vs standalone dataflow {:.2} ms",
            marginal_secs * 1e3,
            gate_secs * 1e3,
            stats_b.nodes_eliminated,
            standalone.as_secs_f64() * 1e3,
        );
        let ceiling = standalone.as_secs_f64() * 2.0 + 0.002;
        if gate_secs > ceiling {
            eprintln!(
                "FAIL: dce marginal cost {:.2} ms (lower quartile) exceeds the standalone-dataflow ceiling {:.2} ms",
                gate_secs * 1e3,
                ceiling * 1e3
            );
            std::process::exit(1);
        }
        if stats_b.nodes_eliminated == 0 {
            eprintln!("FAIL: `+dce` run eliminated nothing — the corpus flow seeds regressed?");
            std::process::exit(1);
        }
    }
}

/// Min-of-`reps` wall time of the standalone reference lint: a dedicated
/// pre-order walk of every typed unit through all seven rules — including
/// the CFG + fixpoint dataflow pass (L004/L006/L007) — outside any
/// pipeline. The frontend is untimed, matching `run_once`.
fn time_standalone_lint(w: &workload::Workload, reps: usize) -> Duration {
    let mut ctx = Ctx::new();
    let mut units = Vec::new();
    for (n, s) in &w.units {
        let t = mini_front::compile_source(&mut ctx, n, s).expect("corpus parses");
        units.push((t.name, t.tree));
    }
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let mut findings = 0usize;
        for (name, tree) in &units {
            findings += mini_analysis::lint_unit(&ctx.symbols, name, tree).len();
        }
        std::hint::black_box(findings);
        best = best.min(start.elapsed());
    }
    best
}

/// Min-of-`reps` wall time of the standalone dataflow fact computation:
/// CFG construction plus the liveness and definite-assignment fixpoints
/// over every typed unit (what `Dce::transform_unit` pays before its
/// rewrite). The frontend is untimed, matching `run_once`.
fn time_standalone_dataflow(w: &workload::Workload, reps: usize) -> Duration {
    let mut ctx = Ctx::new();
    let mut units = Vec::new();
    for (n, s) in &w.units {
        let t = mini_front::compile_source(&mut ctx, n, s).expect("corpus parses");
        units.push(t.tree);
    }
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let mut facts = 0usize;
        for tree in &units {
            let f = mini_analysis::dataflow::compute_dce_facts(&ctx.symbols, tree);
            facts += f.dead_assigns.len() + f.const_branches.len();
        }
        std::hint::black_box(facts);
        best = best.min(start.elapsed());
    }
    best
}
