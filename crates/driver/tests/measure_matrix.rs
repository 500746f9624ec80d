//! `metrics::measure` over the analysis prefix × parallelism matrix.
//!
//! A measured run at `jobs ≥ 2` must build every unit's phase list with
//! the same analysis prefix the plan was built with, inside the batch
//! executor's panic fence. Regression: it once handed the workers the bare
//! standard pipeline, so any lint or DCE plan panicked in the executor's
//! plan/phase-list check. Every cell must measure without an escaped panic
//! and report the same `ExecStats` as the sequential measured run and the
//! one-shot driver. Budgeted cells must fail the same way in both: a
//! measured run once ignored the deadline and reported a tree-size breach
//! as plain diagnostics.

use mini_driver::metrics::{measure, Instrumentation};
use mini_driver::{compile_sources, Budgets, CompileError, CompilerOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use workload::{generate, WorkloadConfig};

#[test]
fn measure_matches_across_lint_dce_and_jobs() {
    let w = generate(&WorkloadConfig {
        target_loc: 1_500,
        seed: 11,
        unit_loc: 250,
    });
    let sources = w.sources();
    for lint in [false, true] {
        for dce in [false, true] {
            let base = CompilerOptions::fused().with_lint(lint).with_dce(dce);
            let expected = compile_sources(&sources, &base)
                .unwrap_or_else(|e| panic!("lint={lint} dce={dce}: one-shot failed: {e}"))
                .exec;
            for jobs in [1, 2] {
                let opts = base.with_jobs(jobs);
                let cell = format!("lint={lint} dce={dce} jobs={jobs}");
                let m = catch_unwind(AssertUnwindSafe(|| {
                    measure(&sources, &opts, Instrumentation::default())
                }))
                .unwrap_or_else(|_| panic!("{cell}: measure panicked"))
                .unwrap_or_else(|e| panic!("{cell}: measure failed: {e}"));
                assert_eq!(
                    m.effective_jobs, jobs,
                    "{cell}: ran at the wrong parallelism"
                );
                assert_eq!(
                    m.exec, expected,
                    "{cell}: ExecStats differ from the one-shot run"
                );
            }
        }
    }
}

#[test]
fn measure_fails_budgets_like_the_one_shot_driver() {
    let w = generate(&WorkloadConfig {
        target_loc: 1_500,
        seed: 11,
        unit_loc: 250,
    });
    let sources = w.sources();
    let budgets = [
        (
            "deadline",
            Budgets {
                deadline: Some(Duration::ZERO),
                ..Budgets::default()
            },
        ),
        (
            "tree size",
            Budgets {
                max_tree_size: Some(64),
                ..Budgets::default()
            },
        ),
    ];
    for (what, budgets) in budgets {
        for jobs in [1, 2] {
            let cell = format!("{what} jobs={jobs}");
            let opts = CompilerOptions::fused()
                .with_jobs(jobs)
                .with_budgets(budgets);
            let one_shot = compile_sources(&sources, &opts)
                .err()
                .unwrap_or_else(|| panic!("{cell}: one-shot compile fit the budget"));
            let measured = measure(&sources, &opts, Instrumentation::default())
                .err()
                .unwrap_or_else(|| panic!("{cell}: measured compile fit the budget"));
            assert!(
                matches!(one_shot, CompileError::Budget(_)),
                "{cell}: one-shot failed with {one_shot:?}"
            );
            assert_eq!(
                std::mem::discriminant(&measured),
                std::mem::discriminant(&one_shot),
                "{cell}: measure failed with {measured:?}"
            );
        }
    }
}
