//! `metrics::measure` over the analysis prefix × parallelism matrix.
//!
//! A measured run at `jobs ≥ 2` must build every chunk's phase list with
//! the same analysis prefix the plan was built with, inside the controlled
//! executor's panic fence. Regression: it once handed the chunks the bare
//! standard pipeline, so any lint or DCE plan panicked in the executor's
//! plan/phase-list check. Every cell must measure without an escaped panic
//! and report the same `ExecStats` as the sequential measured run and the
//! one-shot driver.

use mini_driver::metrics::{measure, Instrumentation};
use mini_driver::{compile_sources, CompilerOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
