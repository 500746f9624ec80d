//! Property tests pinning unit-level parallel compilation to the sequential
//! pipeline: over generated MiniScala workloads, `jobs ∈ {2,4,8}` must
//! produce **byte-identical** printed trees, **identical** merged
//! `ExecStats` (including `nodes_pruned`) and — with the dynamic checker on
//! — **identical** checker findings (content *and* order) to `jobs = 1`,
//! across the fused/mega/legacy modes and the subtree-pruning ablation.
//! This is the headline guarantee of the parallel executor: scheduling is
//! allowed to change wall clock and allocation counts, never output,
//! executor accounting, or diagnostics. The checker ablation is what makes
//! `jobs` honest in verified production runs — `check = true` no longer
//! silently downgrades to sequential execution.

use miniphases::mini_driver::{standard_plan, CompilerOptions};
use miniphases::mini_ir::{printer, Ctx, NodeKindSet, TreeKind, TreeRef};
use miniphases::miniphase::{
    run_units_parallel, CompilationUnit, ExecStats, FaultKind, FaultPlan, MiniPhase,
    NoInstrumentation, PhaseInfo, Pipeline, RunControls, SubtreePruning,
};
use miniphases::{mini_front, mini_phases, workload};
use proptest::prelude::*;
use std::sync::Arc;

/// Runs the standard pipeline over a generated corpus on `jobs` workers and
/// renders every output tree to text plus every checker finding to its
/// display form. `jobs = 1` is the sequential `Pipeline::run_units` path,
/// byte for byte.
fn run_pipeline(
    cfg: &workload::WorkloadConfig,
    opts: &CompilerOptions,
    jobs: usize,
    check: bool,
) -> (Vec<String>, ExecStats, Vec<String>) {
    let w = workload::generate(cfg);
    let mut ctx = Ctx::new();
    opts.configure_ctx(&mut ctx);
    let mut units = Vec::new();
    for (n, s) in &w.units {
        let t = mini_front::compile_source(&mut ctx, n, s).expect("corpus parses");
        units.push(CompilationUnit::new(t.name, t.tree));
    }
    assert!(!ctx.has_errors(), "corpus type-checks");
    let plan = standard_plan(opts).expect("plan").1;
    let (out, stats, failures) = if jobs > 1 {
        let run = run_units_parallel(
            &mut ctx,
            &mini_phases::standard_pipeline,
            &plan,
            opts.fusion,
            units,
            jobs,
            check,
            &NoInstrumentation,
            &RunControls::default(),
        );
        (run.units, run.stats, run.failures)
    } else {
        let mut pipe = Pipeline::new(mini_phases::standard_pipeline(), &plan, opts.fusion);
        pipe.check = check;
        let out = pipe.run_units(&mut ctx, units);
        let failures = std::mem::take(&mut pipe.failures);
        (out, pipe.stats, failures)
    };
    let printed = out
        .iter()
        .map(|u| {
            format!(
                "// {}\n{}",
                u.name,
                printer::print_tree(&u.tree, &ctx.symbols)
            )
        })
        .collect();
    let failures = failures.iter().map(|f| f.to_string()).collect();
    (printed, stats, failures)
}

fn opts_for(mode: u8, prune: u8) -> CompilerOptions {
    let mut opts = match mode % 3 {
        0 => CompilerOptions::fused(),
        1 => CompilerOptions::mega(),
        _ => CompilerOptions::legacy(),
    };
    opts.fusion.subtree_pruning = match prune % 3 {
        0 => SubtreePruning::Off,
        1 => SubtreePruning::On,
        _ => SubtreePruning::Auto,
    };
    opts
}

fn assert_equivalent(
    label: &str,
    seq: &(Vec<String>, ExecStats, Vec<String>),
    par: &(Vec<String>, ExecStats, Vec<String>),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &seq.1,
        &par.1,
        "merged ExecStats diverged ({}): {:?} vs {:?}",
        label,
        seq.1,
        par.1
    );
    prop_assert_eq!(seq.0.len(), par.0.len());
    for (a, b) in seq.0.iter().zip(par.0.iter()) {
        prop_assert!(
            a == b,
            "printed trees diverged ({}):\n--- sequential\n{}\n--- parallel\n{}",
            label,
            a,
            b
        );
    }
    prop_assert_eq!(&seq.2, &par.2, "checker findings diverged ({})", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_jobs_match_sequential(
        seed in 0u64..10_000,
        loc in 300usize..1_000,
        mode in 0u8..3,
        prune in 0u8..3,
    ) {
        // Small units force a multi-unit corpus, so the workers really split it.
        let cfg = workload::WorkloadConfig { target_loc: loc, seed, unit_loc: 150 };
        let opts = opts_for(mode, prune);
        let seq = run_pipeline(&cfg, &opts, 1, false);
        for jobs in [2usize, 4, 8] {
            let par = run_pipeline(&cfg, &opts, jobs, false);
            assert_equivalent(&format!("mode {mode}, prune {prune}, jobs {jobs}"), &seq, &par)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Checker-on ablation: `jobs ∈ {2,4,8}` with `check = true` replay
    /// the dynamic tree checker per unit and must produce the same
    /// printed trees, the same merged `ExecStats` (the checker observes
    /// without perturbing the accounting) and the same finding list —
    /// content *and* order — as the sequential checked run.
    #[test]
    fn checker_determinism_across_jobs(
        seed in 0u64..10_000,
        loc in 300usize..800,
        mode in 0u8..3,
    ) {
        let cfg = workload::WorkloadConfig { target_loc: loc, seed, unit_loc: 150 };
        let opts = opts_for(mode, 0);
        let unchecked = run_pipeline(&cfg, &opts, 1, false);
        let seq = run_pipeline(&cfg, &opts, 1, true);
        prop_assert_eq!(
            &unchecked.1,
            &seq.1,
            "enabling the checker must not change ExecStats"
        );
        for jobs in [2usize, 4, 8] {
            let par = run_pipeline(&cfg, &opts, jobs, true);
            assert_equivalent(&format!("check on, mode {mode}, jobs {jobs}"), &seq, &par)?;
        }
    }
}

/// A phase whose postcondition rejects string literals containing a marker
/// — used to seed deterministic checker violations in chosen units without
/// perturbing the trees.
struct NoPoison;
impl PhaseInfo for NoPoison {
    fn name(&self) -> &str {
        "noPoison"
    }
}
impl MiniPhase for NoPoison {
    fn transforms(&self) -> NodeKindSet {
        NodeKindSet::EMPTY
    }
    fn check_post_condition(&self, _ctx: &Ctx, t: &TreeRef) -> Result<(), String> {
        if let TreeKind::Literal { value } = t.kind() {
            if value.as_str().is_some_and(|s| s.contains("POISON")) {
                return Err("poison literal survived".into());
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Corpora seeded with postcondition violations: whichever worker
    /// thread trips first on the wall clock, the merged failure list — and
    /// in particular its *first* entry, the first failing unit in unit
    /// order — must be byte-identical to the sequential checked run.
    #[test]
    fn checker_seeded_violation_first_failure_matches_sequential(
        n_units in 4usize..12,
        bad_mask in 1u32..255,
    ) {
        let mk = || -> Vec<Box<dyn MiniPhase>> {
            let mut ps = mini_phases::standard_pipeline();
            ps.push(Box::new(NoPoison));
            ps
        };
        // Guarantee at least one unit in range carries a violation (a drawn
        // mask whose set bits all land past `n_units` would seed nothing).
        let bad_mask = if (0..n_units).any(|u| bad_mask & (1 << (u % 8)) != 0) {
            bad_mask
        } else {
            bad_mask | 1
        };
        let run = |jobs: usize| -> (Vec<String>, Vec<String>) {
            let mut ctx = Ctx::new();
            let units: Vec<CompilationUnit> = (0..n_units)
                .map(|u| {
                    let poisoned = bad_mask & (1 << (u % 8)) != 0;
                    let text = if poisoned {
                        format!("POISON-{u}")
                    } else {
                        format!("clean-{u}")
                    };
                    let src = format!("def f{u}(): Unit = println(\"{text}\")\n");
                    let t = mini_front::compile_source(&mut ctx, &format!("u{u}.ms"), &src)
                        .expect("unit parses");
                    CompilationUnit::new(t.name, t.tree)
                })
                .collect();
            assert!(!ctx.has_errors(), "seeded corpus type-checks");
            let ps = mk();
            let plan = miniphases::miniphase::build_plan(
                &ps,
                &miniphases::miniphase::PlanOptions::default(),
            )
            .expect("plan");
            let run = run_units_parallel(
                &mut ctx,
                &mk,
                &plan,
                Default::default(),
                units,
                jobs,
                true,
                &NoInstrumentation,
                &RunControls::default(),
            );
            let printed = run
                .units
                .iter()
                .map(|u| printer::print_tree(&u.tree, &ctx.symbols))
                .collect();
            let failures = run.failures.iter().map(|f| f.to_string()).collect();
            (printed, failures)
        };
        let (seq_trees, seq_failures) = run(1);
        prop_assert!(!seq_failures.is_empty(), "seeded violations are found");
        // The first finding names the first poisoned unit in unit order.
        let first_bad = (0..n_units)
            .find(|u| bad_mask & (1 << (u % 8)) != 0)
            .expect("mask is non-zero");
        prop_assert!(
            seq_failures[0].contains(&format!("u{first_bad}.ms")),
            "first failure `{}` should name u{first_bad}.ms",
            seq_failures[0]
        );
        for jobs in [2usize, 4, 8] {
            let (par_trees, par_failures) = run(jobs);
            prop_assert_eq!(&seq_trees, &par_trees, "trees diverged at jobs={}", jobs);
            prop_assert_eq!(
                &seq_failures,
                &par_failures,
                "failure lists diverged at jobs={}",
                jobs
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Robustness satellite: a seeded-violation corpus where one *clean*
    /// unit additionally panics (one-shot injected fault, caught at its
    /// isolation fence). The surviving units must still re-sequence
    /// deterministically: the merged failure list — including its first
    /// entry, the first violating unit in unit order — is byte-identical to
    /// the sequential checked run, the caught fault is attributed to the
    /// panicked unit, and only that unit drops out of the output.
    #[test]
    fn checker_violations_survive_a_sibling_chunk_panic(
        n_units in 4usize..10,
        bad_mask in 1u32..255,
        jobs_pick in 0u8..3,
    ) {
        // Unit 0 always carries a violation; unit 1 is always clean and is
        // the one that panics.
        let bad_mask = (bad_mask | 1) & !2;
        let panicked = 1usize;
        let jobs = [2usize, 4, 8][jobs_pick as usize % 3];
        let mk = || -> Vec<Box<dyn MiniPhase>> {
            let mut ps = mini_phases::standard_pipeline();
            ps.push(Box::new(NoPoison));
            ps
        };
        let run = |jobs: usize, fault: Option<Arc<FaultPlan>>| {
            let mut ctx = Ctx::new();
            let units: Vec<CompilationUnit> = (0..n_units)
                .map(|u| {
                    let poisoned = bad_mask & (1 << (u % 8)) != 0;
                    let text = if poisoned {
                        format!("POISON-{u}")
                    } else {
                        format!("clean-{u}")
                    };
                    let src = format!("def f{u}(): Unit = println(\"{text}\")\n");
                    let t = mini_front::compile_source(&mut ctx, &format!("u{u}.ms"), &src)
                        .expect("unit parses");
                    CompilationUnit::new(t.name, t.tree)
                })
                .collect();
            assert!(!ctx.has_errors(), "seeded corpus type-checks");
            let ps = mk();
            let plan = miniphases::miniphase::build_plan(
                &ps,
                &miniphases::miniphase::PlanOptions::default(),
            )
            .expect("plan");
            let controls = RunControls {
                faults: fault,
                ..RunControls::default()
            };
            run_units_parallel(
                &mut ctx,
                &mk,
                &plan,
                Default::default(),
                units,
                jobs,
                true,
                &NoInstrumentation,
                &controls,
            )
        };

        let seq = run(1, None);
        prop_assert!(seq.faults.is_empty());
        let seq_failures: Vec<String> = seq.failures.iter().map(|f| f.to_string()).collect();
        prop_assert!(
            seq_failures[0].contains("u0.ms"),
            "first failure `{}` should name u0.ms",
            seq_failures[0]
        );

        let plan = Arc::new(
            FaultPlan::new(0xfa17).with_fault(FaultKind::PanicOnUnit { unit: panicked }, 1),
        );
        let par = run(jobs, Some(plan));

        // The fault is caught, structured and unit-attributed.
        prop_assert_eq!(par.faults.len(), 1, "exactly one unit fence trips");
        prop_assert_eq!(par.faults[0].unit.as_deref(), Some("u1.ms"));
        // Only the panicked unit drops out; siblings re-sequence in order.
        prop_assert_eq!(par.units.len(), n_units - 1);
        prop_assert!(par.units.iter().all(|u| u.name != "u1.ms"));
        // The failure list — unit 1 is clean, so it contributed none — is
        // byte-identical to the sequential run, first entry included.
        let par_failures: Vec<String> = par.failures.iter().map(|f| f.to_string()).collect();
        prop_assert_eq!(&seq_failures, &par_failures, "failure lists diverged at jobs={}", jobs);
    }
}

/// Many-units smoke on the dotty-like 12 kLOC slice (the benchmark corpus):
/// ~30 units, every mode's headline configuration, `jobs = 4` vs
/// sequential — with the dynamic checker on, since checked runs now keep
/// their parallelism.
#[test]
fn twelve_kloc_corpus_smoke() {
    let cfg = workload::WorkloadConfig {
        target_loc: 12_000,
        seed: 0xd077,
        unit_loc: 400,
    };
    let opts = CompilerOptions::fused();
    let seq = run_pipeline(&cfg, &opts, 1, true);
    let par = run_pipeline(&cfg, &opts, 4, true);
    assert_eq!(seq.1, par.1, "merged ExecStats diverged on the 12k corpus");
    assert_eq!(seq.0, par.0, "printed trees diverged on the 12k corpus");
    assert_eq!(seq.2, par.2, "checker findings diverged on the 12k corpus");
    assert!(seq.2.is_empty(), "the benchmark corpus is checker-clean");
}
