//! # mini-phases — the concrete Miniphases
//!
//! The MiniScala lowering pipeline, mirroring the structure of Table 2 in
//! the paper: 22 Miniphases that the planner fuses into 6 groups — the same
//! block count as Dotty's pipeline (§6.2) — with boundaries forced by
//! `PatternMatcher` (rule 2), `Erasure` (rules 2+3), `CapturedVars`
//! (rule 3, see DESIGN.md §8) and `LambdaLift` (rule 3). See
//! `standard_pipeline`.

#![warn(missing_docs)]

pub mod capture;
pub mod erasure;
pub mod fields;
pub mod flow;
pub mod lambda_lift;
pub mod mixin;
pub mod outer;
pub mod patmat;
pub mod simple;
pub mod util;

pub use capture::{CapturedVars, NonLocalReturns};
pub use erasure::Erasure;
pub use fields::{Getters, LazyVals, Memoize};
pub use flow::{ElimByName, LiftTry, TailRec};
pub use lambda_lift::LambdaLift;
pub use mixin::{Constructors, Mixin};
pub use outer::ExplicitOuter;
pub use patmat::PatternMatcher;
pub use simple::{
    ElimRepeated, ExpandPrivate, FirstTransform, Flatten, InterceptedMethods, RefChecks,
    RestoreScopes, SeqLiterals,
};

use miniphase::MiniPhase;

/// The standard MiniScala transformation pipeline, in pipeline order.
///
/// The declared `runs_after_groups_of` constraints make the planner split
/// this list into six fusion groups:
///
/// 1. `firstTransform refChecks elimRepeated tailRec liftTry
///    interceptedMethods getters`
/// 2. `patternMatcher explicitOuter elimByName seqLiterals`
/// 3. `erasure`
/// 4. `mixin lazyVals memoize nonLocalReturns`
/// 5. `capturedVars constructors`
/// 6. `lambdaLift flatten restoreScopes expandPrivate`
pub fn standard_pipeline() -> Vec<Box<dyn MiniPhase>> {
    vec![
        Box::new(FirstTransform),
        Box::new(RefChecks),
        Box::new(ElimRepeated),
        Box::new(TailRec),
        Box::new(LiftTry::default()),
        Box::new(InterceptedMethods),
        Box::new(Getters),
        Box::new(PatternMatcher::default()),
        Box::new(ExplicitOuter::default()),
        Box::new(ElimByName),
        Box::new(SeqLiterals),
        Box::new(Erasure),
        Box::new(Mixin),
        Box::new(LazyVals::default()),
        Box::new(Memoize),
        Box::new(NonLocalReturns::default()),
        Box::new(CapturedVars::default()),
        Box::new(Constructors),
        Box::new(LambdaLift::default()),
        Box::new(Flatten::default()),
        Box::new(RestoreScopes),
        Box::new(ExpandPrivate::default()),
    ]
}

/// Number of phases in [`standard_pipeline`].
pub fn standard_pipeline_len() -> usize {
    22
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniphase::{build_plan, PlanOptions};

    #[test]
    fn pipeline_has_expected_size() {
        assert_eq!(standard_pipeline().len(), standard_pipeline_len());
    }

    #[test]
    fn planner_groups_the_pipeline_into_six_blocks() {
        let phases = standard_pipeline();
        let plan = build_plan(&phases, &PlanOptions::default()).expect("constraints are valid");
        // Six blocks — the same count as the Dotty pipeline in the paper
        // ("our compiler has 6 separate blocks of Miniphases", §6.2).
        assert_eq!(plan.group_count(), 6, "plan:\n{}", plan.describe(&phases));
        // Erasure stands alone (rules 2+3, §6.2.2).
        let erasure_group = plan
            .groups
            .iter()
            .find(|g| g.iter().any(|&i| phases[i].name() == "erasure"))
            .expect("erasure present");
        assert_eq!(erasure_group.len(), 1, "erasure must form its own group");
    }

    #[test]
    fn megaphase_mode_yields_one_group_per_phase() {
        let phases = standard_pipeline();
        let plan = build_plan(
            &phases,
            &PlanOptions {
                fuse: false,
                ..PlanOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plan.group_count(), standard_pipeline_len());
    }

    #[test]
    fn table2_listing_marks_fused_blocks() {
        let phases = standard_pipeline();
        let plan = build_plan(&phases, &PlanOptions::default()).unwrap();
        let listing = plan.describe(&phases);
        assert!(listing.contains("patternMatcher"));
        assert!(listing.contains("erasure"));
        assert!(listing.contains("* "), "fused phases are starred");
    }
}
