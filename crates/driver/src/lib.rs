//! # mini-driver — end-to-end compilation pipelines
//!
//! Wires the frontend, the Miniphase pipeline and the backend into the
//! paper's three experimental configurations:
//!
//! * **Fused** (Miniphase): groups of phases share one traversal;
//! * **Mega** (Megaphase): every phase runs its own traversal — the paper's
//!   baseline;
//! * **Legacy**: Megaphase plus scalac-era tree plumbing (no same-fields
//!   node reuse in the copier) — the Fig 9 comparator stand-in.
//!
//! [`compile_sources`] is the one-shot batch entry point; the
//! [`session`] module hosts [`CompileSession`], the incremental
//! (edit-and-recompile) service shape of the same pipeline with
//! content-addressed per-unit caching and dependency-aware invalidation.
//!
//! # Examples
//!
//! ```
//! use mini_driver::{compile_and_run, CompilerOptions};
//! let (value, out) = compile_and_run(
//!     "def main(): Unit = println(6 * 7)",
//!     &CompilerOptions::fused(),
//! ).expect("compiles and runs");
//! assert_eq!(out, vec!["42"]);
//! # let _ = value;
//! ```

#![warn(missing_docs)]

pub mod diagnostics;
pub mod metrics;
pub mod service;
pub mod session;
pub mod store;

pub use diagnostics::Diagnostic;
pub use service::{
    CompileRequest, CompileResponse, CompileService, DrainReport, OverloadReason, ServiceConfig,
    ServiceError, ServiceStats, TenantStats, Ticket,
};
pub use session::{CacheStats, CompileSession, MemoryFootprint};
pub use store::{ArtifactKey, SharedArtifactStore, StoreLookup, StoreStats, StoredArtifact};

use mini_backend::{generate, Program, Value, Vm};
use mini_ir::{Ctx, TreeRef};
use miniphase::{
    build_plan, CompilationUnit, FusionOptions, MiniPhase, PhasePlan, PlanOptions, SubtreePruning,
    WorkerInstrumentation,
};
use std::fmt;
use std::time::{Duration, Instant};

/// The pipeline configuration under test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Miniphases fused per plan group (the paper's contribution).
    Fused,
    /// One traversal per phase (the paper's baseline).
    Mega,
    /// Megaphase + always-copying copiers (scalac stand-in for Fig 9).
    Legacy,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Fused => write!(f, "mini"),
            Mode::Mega => write!(f, "mega"),
            Mode::Legacy => write!(f, "legacy"),
        }
    }
}

/// Resource budgets for one compile — the graceful-degradation knobs of
/// the fault-tolerance layer. All default to `None` (unbudgeted), so the
/// paper-exact measurement configurations are untouched.
///
/// * `deadline` is checked at **group and unit boundaries** of the
///   phase-major loop (per unit in parallel runs and sessions); a breach
///   abandons the remaining groups and surfaces as
///   [`CompileError::Budget`].
/// * `max_tree_depth` / `max_tree_size` guard every node construction at
///   [`mini_ir::Ctx::mk`] (one latched `"budget"` diagnostic per compile).
/// * `cache_bytes` caps the [`CompileSession`] artifact cache; crossing it
///   evicts least-recently-*recompiled* units first, surfaced in
///   [`CacheStats::evicted_units`] — an evicted unit recompiles on its
///   next dirty-set appearance instead of splicing, costing time, never
///   correctness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Wall-clock budget for one compile, measured from [`compile_sources`]
    /// (or [`CompileSession::compile`]) entry.
    pub deadline: Option<Duration>,
    /// Maximum tree depth accepted by [`mini_ir::Ctx::mk`].
    pub max_tree_depth: Option<u32>,
    /// Maximum subtree size (node count) accepted by [`mini_ir::Ctx::mk`].
    pub max_tree_size: Option<u32>,
    /// Approximate byte cap on a session's cached unit artifacts.
    pub cache_bytes: Option<u64>,
}

/// Options for one compiler run.
#[derive(Clone, Copy, Debug)]
pub struct CompilerOptions {
    /// Pipeline configuration.
    pub mode: Mode,
    /// Enable the dynamic tree checker between groups (§6.3; ≈1.5×).
    pub check: bool,
    /// Fusion tunables (ablations).
    pub fusion: FusionOptions,
    /// Optional cap on fusion-group size (granularity ablation).
    pub max_group_size: Option<usize>,
    /// Worker threads for the transform pipeline. `1` (the default) runs
    /// the sequential phase-major loop; higher values schedule unit-level
    /// parallel compilation ([`miniphase::parallel`]): worker threads
    /// claim units through an atomic index, each unit compiling
    /// end-to-end with a private tree arena and an O(1) copy-on-write
    /// symbol-table fork, and results merge back deterministically in unit
    /// order — output trees, [`miniphase::ExecStats`] and dynamic-checker
    /// diagnostics are byte-identical to `jobs = 1` (proptest-enforced).
    /// The checker (`check`) runs per unit and **no longer forces
    /// sequential execution**; verified production runs keep their
    /// parallelism.
    /// Execution sites must read [`CompilerOptions::effective_jobs`], which
    /// clamps struct-literal zeros.
    pub jobs: usize,
    /// Resource budgets (deadline, tree depth/size, session cache bytes).
    /// Default: unbudgeted.
    pub budgets: Budgets,
    /// Run the static-analysis lint suite ([`mini_analysis`]) as a
    /// prepare-only phase group *prefixed* to the standard pipeline.
    /// Findings surface in [`Compiled::findings`], canonically sorted;
    /// default off, which keeps every paper-exact configuration untouched.
    pub lint: bool,
    /// Run the dataflow-driven dead-code eliminator ([`mini_analysis::dce`])
    /// as a transform member of the analysis prefix group. Output-neutral
    /// by construction — VM output and findings stay byte-identical to a
    /// `dce`-off run (proptest-enforced) — but it rewrites trees, so it is
    /// opt-in and fingerprinted like `lint`. Eliminated nodes are counted
    /// in [`miniphase::ExecStats::nodes_eliminated`].
    pub dce: bool,
}

impl CompilerOptions {
    /// The standard fused configuration.
    pub fn fused() -> CompilerOptions {
        CompilerOptions {
            mode: Mode::Fused,
            check: false,
            fusion: FusionOptions::default(),
            max_group_size: None,
            jobs: 1,
            budgets: Budgets::default(),
            lint: false,
            dce: false,
        }
    }

    /// The Megaphase baseline.
    pub fn mega() -> CompilerOptions {
        CompilerOptions {
            mode: Mode::Mega,
            ..CompilerOptions::fused()
        }
    }

    /// The scalac-era stand-in.
    pub fn legacy() -> CompilerOptions {
        CompilerOptions {
            mode: Mode::Legacy,
            ..CompilerOptions::fused()
        }
    }

    /// Returns a copy with subtree kind-summary pruning switched fully on
    /// or off ([`FusionOptions::subtree_pruning`]). Off is the default:
    /// pruning changes `node_visits` accounting, so the paper-exact figures
    /// keep it disabled; turn it on for production-style runs dominated by
    /// sparse-kind groups, or use [`CompilerOptions::with_pruning_mode`]
    /// with [`SubtreePruning::Auto`] to let each traversal decide.
    pub fn with_subtree_pruning(self, on: bool) -> CompilerOptions {
        self.with_pruning_mode(if on {
            SubtreePruning::On
        } else {
            SubtreePruning::Off
        })
    }

    /// Returns a copy with the given subtree-pruning policy
    /// ([`FusionOptions::subtree_pruning`]); [`SubtreePruning::Auto`]
    /// enables pruning per fusion group only when the group's hoisted mask
    /// is sparse relative to the unit's kind summary, which makes the flag
    /// safe for production-style runs over the dense standard pipeline.
    pub fn with_pruning_mode(mut self, mode: SubtreePruning) -> CompilerOptions {
        self.fusion.subtree_pruning = mode;
        self
    }

    /// Returns a copy compiling with `jobs` worker threads (see
    /// [`CompilerOptions::jobs`]); values below 1 are treated as 1.
    pub fn with_jobs(mut self, jobs: usize) -> CompilerOptions {
        self.jobs = jobs.max(1);
        self
    }

    /// Returns a copy with the given resource [`Budgets`].
    pub fn with_budgets(mut self, budgets: Budgets) -> CompilerOptions {
        self.budgets = budgets;
        self
    }

    /// Returns a copy with the dynamic tree checker switched on or off
    /// (§6.3; ≈1.5×). Checked runs keep their `jobs` parallelism — the
    /// checker replays per unit with deterministic failure ordering.
    pub fn with_check(mut self, on: bool) -> CompilerOptions {
        self.check = on;
        self
    }

    /// Returns a copy with the lint suite switched on or off (see
    /// [`CompilerOptions::lint`]). Lint never changes output trees — the
    /// suite is prepare-only — but it does add a plan group, so sessions
    /// include it in their config fingerprint.
    pub fn with_lint(mut self, on: bool) -> CompilerOptions {
        self.lint = on;
        self
    }

    /// Returns a copy with the dead-code eliminator switched on or off
    /// (see [`CompilerOptions::dce`]). DCE rides the same analysis prefix
    /// as the lint suite; it runs after every finding has been harvested
    /// from the pre-DCE tree, so diagnostics never change with the flag.
    pub fn with_dce(mut self, on: bool) -> CompilerOptions {
        self.dce = on;
        self
    }

    /// The worker-thread count this configuration actually compiles with:
    /// `jobs` clamped to at least 1. Struct-literal construction can
    /// bypass [`CompilerOptions::with_jobs`]'s clamp with `jobs: 0`, so
    /// every execution site must go through this accessor rather than read
    /// `jobs` raw — a zero must select the sequential path, not reach the
    /// parallel shard math.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.max(1)
    }

    fn plan_options(&self) -> PlanOptions {
        PlanOptions {
            fuse: self.mode == Mode::Fused,
            max_group_size: self.max_group_size,
        }
    }

    /// Applies this configuration's IR tunables to `ctx`: `Legacy` imitates
    /// scalac-era tree plumbing by disabling both the copier's same-fields
    /// reuse and the synthetic-literal interning cache, and the tree
    /// depth/size budgets are installed on the node allocator.
    pub fn configure_ctx(&self, ctx: &mut Ctx) {
        if self.mode == Mode::Legacy {
            ctx.options.copier_reuse = false;
            ctx.options.intern_literals = false;
        }
        ctx.options.max_tree_depth = self.budgets.max_tree_depth;
        ctx.options.max_tree_size = self.budgets.max_tree_size;
    }
}

/// Wall-clock time per compiler stage (Fig 4 / Fig 9 rows).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// Parser + namer + typer.
    pub frontend: Duration,
    /// The tree-transformation pipeline.
    pub transforms: Duration,
    /// Code generation.
    pub backend: Duration,
}

impl StageTimes {
    /// Total of all stages.
    pub fn total(&self) -> Duration {
        self.frontend + self.transforms + self.backend
    }
}

/// The result of compiling a batch of sources.
pub struct Compiled {
    /// The executable program.
    pub program: Program,
    /// The compilation context (symbol table, allocation stats). From a
    /// [`CompileSession`] the table is a copy-on-write view that aliases
    /// the session's frontend symbols and cached deltas (see the session's
    /// module docs, invariant 4).
    pub ctx: Ctx,
    /// Stage timings.
    pub times: StageTimes,
    /// Executor counters (node visits, traversals, ...).
    pub exec: miniphase::ExecStats,
    /// Tree-checker findings (only populated with `check`).
    pub check_failures: Vec<miniphase::CheckFailure>,
    /// Static-analysis findings (only populated with
    /// [`CompilerOptions::lint`]), sorted by the canonical
    /// `(unit, span, rule, kind, msg)` key so the stream is identical
    /// across execution modes, job counts and incremental replays.
    pub findings: Vec<miniphase::Finding>,
    /// Number of fusion groups the plan produced.
    pub groups: usize,
    /// Worker threads the transform pipeline actually used — the requested
    /// [`CompilerOptions::jobs`] after clamping (zero → 1, and never more
    /// than one worker per unit). Surfaced so a downgraded run is visible
    /// in reports instead of silently claiming the requested parallelism.
    pub effective_jobs: usize,
    /// Units whose cached pipeline output a [`CompileSession`] spliced in
    /// without recompiling. Always 0 for one-shot [`compile_sources`] runs.
    pub reused_units: usize,
    /// Units that went through the frontend + transform pipeline in this
    /// compile. Equals the unit count for one-shot [`compile_sources`] runs.
    pub recompiled_units: usize,
    /// True when a [`CompileSession`] worker panic forced this compile to
    /// retry sequentially at `jobs = 1` (graceful degradation) — surfaced
    /// like the `effective_jobs` downgrade so callers can see the compile
    /// did not run at the requested parallelism. Always false for one-shot
    /// [`compile_sources`] runs, which fail fast instead of retrying.
    pub retried_sequential: bool,
    /// Lowered unit trees (for inspection).
    pub units: Vec<CompilationUnit>,
}

/// A compilation failure.
#[derive(Debug)]
pub enum CompileError {
    /// Lexical or syntax error.
    Parse(mini_front::ParseError),
    /// One or more type/transform errors (see the diagnostics).
    Diagnostics(Vec<mini_ir::Diagnostic>),
    /// Invalid phase constraints.
    Plan(miniphase::PlanError),
    /// The lowered trees violated the backend contract.
    Codegen(mini_backend::CodegenError),
    /// The dynamic tree checker found invariant violations.
    Check(Vec<miniphase::CheckFailure>),
    /// A panic escaped a phase, the checker or the scheduler and was caught
    /// at an isolation fence — the structured form of "internal compiler
    /// error". One unit's panic fails that unit's compile; it never tears
    /// down the process or a sibling unit.
    Internal {
        /// The unit whose pipeline panicked, when the active-site marker
        /// could attribute it (`None` for pre-unit scheduler panics).
        unit: Option<String>,
        /// Where in the pipeline: `"group N"`, `"checker (group N)"` or
        /// `"scheduler"`.
        phase: String,
        /// The captured panic message.
        message: String,
    },
    /// A resource budget ([`Budgets`]) was exceeded — deadline or tree
    /// depth/size. Carries every diagnostic of the failed compile; at
    /// least one has phase `"budget"`.
    Budget(Vec<mini_ir::Diagnostic>),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Diagnostics(ds) | CompileError::Budget(ds) => {
                for d in ds {
                    writeln!(f, "{d}")?;
                }
                Ok(())
            }
            CompileError::Plan(e) => write!(f, "{e}"),
            CompileError::Codegen(e) => write!(f, "{e}"),
            CompileError::Check(cs) => {
                for c in cs {
                    writeln!(f, "{c}")?;
                }
                Ok(())
            }
            CompileError::Internal {
                unit,
                phase,
                message,
            } => write!(
                f,
                "internal compiler error in {} at {phase}: {message}",
                unit.as_deref().unwrap_or("<batch>")
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<miniphase::InternalFault> for CompileError {
    fn from(fault: miniphase::InternalFault) -> CompileError {
        CompileError::Internal {
            unit: fault.unit,
            phase: fault.phase,
            message: fault.message,
        }
    }
}

/// Classifies a failed compile's diagnostics: a `"budget"`-phase entry
/// (deadline or tree guard) makes the whole failure a
/// [`CompileError::Budget`]; anything else is ordinary
/// [`CompileError::Diagnostics`].
pub(crate) fn diagnostics_error(ds: Vec<mini_ir::Diagnostic>) -> CompileError {
    if ds.iter().any(|d| d.phase == "budget") {
        CompileError::Budget(ds)
    } else {
        CompileError::Diagnostics(ds)
    }
}

/// Builds the standard plan for the given options (exposed for the figures
/// binary's Table 2 listing).
///
/// # Errors
///
/// Returns [`CompileError::Plan`] when phase constraints are invalid (never
/// for the shipped pipeline).
pub fn standard_plan(
    opts: &CompilerOptions,
) -> Result<(Vec<Box<dyn MiniPhase>>, PhasePlan), CompileError> {
    let std_phases = mini_phases::standard_pipeline();
    let plan = build_plan(&std_phases, &opts.plan_options()).map_err(CompileError::Plan)?;
    let prefix = analysis_prefix(opts.lint, opts.dce);
    if prefix.is_empty() {
        Ok((std_phases, plan))
    } else {
        // The analysis block is a *prefix*: planned separately and prepended
        // so it never fuses into the first transform group (the transform
        // groups — and their stats — stay byte-identical to an analysis-off
        // run). Lint members are prepare-only; `Dce` rewrites in
        // `transform_unit`, which runs after every member's `prepare_unit`
        // and the traversal, so findings are always computed on the pre-DCE
        // tree even when the whole prefix fuses into one group.
        let count = prefix.len();
        let mut phases = prefix;
        phases.extend(std_phases);
        let plan = plan.with_prefix(count, &opts.plan_options());
        Ok((phases, plan))
    }
}

/// The analysis prefix for the given flags: the lint suite (when `lint`),
/// then the dead-code eliminator (when `dce`). `Dce` comes last so that in
/// unfused (mega) plans its singleton group still runs after every lint
/// group. When both run, a [`mini_analysis::FactCache`] hands each unit's
/// solved dataflow facts from the lint rule to the eliminator, so the
/// CFG + fixpoint pass runs once per unit instead of twice. The cache is
/// created per phase list, so every parallel worker gets its own.
fn analysis_prefix(lint: bool, dce: bool) -> Vec<Box<dyn MiniPhase>> {
    if lint && dce {
        let cache = mini_analysis::FactCache::new();
        let mut prefix = mini_analysis::lint_phases_sharing(cache.clone());
        prefix.push(Box::new(mini_analysis::dce::Dce::consuming_facts(cache)));
        return prefix;
    }
    let mut prefix: Vec<Box<dyn MiniPhase>> = if lint {
        mini_analysis::lint_phases()
    } else {
        Vec::new()
    };
    if dce {
        prefix.push(Box::new(mini_analysis::dce::Dce::default()));
    }
    prefix
}

/// Builds the phase-list factory matching [`standard_plan`] for the same
/// `lint`/`dce` settings: the analysis prefix, then the standard pipeline.
/// Executors construct one phase list per unit.
pub fn phase_factory(
    lint: bool,
    dce: bool,
) -> impl Fn() -> Vec<Box<dyn MiniPhase>> + Sync + Send + Copy {
    move || {
        let mut phases = analysis_prefix(lint, dce);
        phases.extend(mini_phases::standard_pipeline());
        phases
    }
}

/// Compiles a batch of named sources through the full pipeline.
///
/// # Errors
///
/// Any stage can fail: parsing, type checking, planning, dynamic checking
/// (when enabled) or code generation.
pub fn compile_sources(
    sources: &[(&str, &str)],
    opts: &CompilerOptions,
) -> Result<Compiled, CompileError> {
    compile_instrumented(sources, opts, &miniphase::NoInstrumentation).map(|(compiled, _)| compiled)
}

/// The one-shot driver behind [`compile_sources`] and
/// [`metrics::measure`], generic over what each transform worker installs
/// around its units (nothing, or the GC/cache simulators). Returns the
/// compile plus every worker's instrumentation data in unit order, so
/// measured and plain compiles share one executor, one panic fence, one
/// deadline and one error classification.
pub(crate) fn compile_instrumented<I: WorkerInstrumentation>(
    sources: &[(&str, &str)],
    opts: &CompilerOptions,
    instr: &I,
) -> Result<(Compiled, Vec<I::Data>), CompileError> {
    let deadline = opts.budgets.deadline.map(|d| Instant::now() + d);
    let mut ctx = Ctx::new();
    opts.configure_ctx(&mut ctx);

    // Frontend.
    let fe_start = Instant::now();
    let mut units = Vec::with_capacity(sources.len());
    for (name, src) in sources {
        let typed = mini_front::compile_source(&mut ctx, name, src).map_err(CompileError::Parse)?;
        units.push(CompilationUnit::new(typed.name, typed.tree));
    }
    let frontend = fe_start.elapsed();
    if ctx.has_errors() {
        return Err(diagnostics_error(std::mem::take(&mut ctx.errors)));
    }

    // Transformation pipeline — always through the batch executor, whose
    // per-unit (and, at `jobs = 1`, whole-batch) `catch_unwind` fence
    // turns phase/checker panics into `CompileError::Internal` with unit
    // attribution instead of unwinding out of this function.
    let (phases, plan) = standard_plan(opts)?;
    drop(phases); // each worker builds its own instances via the factory
    let groups = plan.group_count();
    let tr_start = Instant::now();
    let controls = miniphase::RunControls {
        faults: None,
        deadline,
    };
    let run = miniphase::run_units_parallel(
        &mut ctx,
        &phase_factory(opts.lint, opts.dce),
        &plan,
        opts.fusion,
        units,
        opts.effective_jobs(),
        opts.check,
        instr,
        &controls,
    );
    let transforms = tr_start.elapsed();
    if let Some(fault) = run.faults.into_iter().next() {
        return Err(fault.into());
    }
    let (units, exec, failures, effective_jobs) =
        (run.units, run.stats, run.failures, run.effective_jobs);
    let mut findings = run.findings;
    miniphase::sort_findings(&mut findings);
    if ctx.has_errors() {
        return Err(diagnostics_error(std::mem::take(&mut ctx.errors)));
    }
    if opts.check && !failures.is_empty() {
        return Err(CompileError::Check(failures));
    }

    // Backend.
    let be_start = Instant::now();
    let trees: Vec<TreeRef> = units.iter().map(|u| u.tree.clone()).collect();
    let program = generate(&ctx, &trees).map_err(CompileError::Codegen)?;
    let backend = be_start.elapsed();

    let compiled = Compiled {
        program,
        ctx,
        times: StageTimes {
            frontend,
            transforms,
            backend,
        },
        exec,
        check_failures: Vec::new(),
        findings,
        groups,
        effective_jobs,
        reused_units: 0,
        recompiled_units: sources.len(),
        retried_sequential: false,
        units,
    };
    Ok((compiled, run.worker_data))
}

/// Compiles a single anonymous source.
///
/// # Errors
///
/// See [`compile_sources`].
pub fn compile(src: &str, opts: &CompilerOptions) -> Result<Compiled, CompileError> {
    compile_sources(&[("main.ms", src)], opts)
}

/// Compiles and executes `main`, returning the result value and the
/// captured `println` output.
///
/// # Errors
///
/// Compilation errors as in [`compile_sources`]; runtime failures are
/// reported as a codegen-style diagnostic.
pub fn compile_and_run(
    src: &str,
    opts: &CompilerOptions,
) -> Result<(Value, Vec<String>), CompileError> {
    let compiled = compile(src, opts)?;
    let mut vm = Vm::new(&compiled.program);
    match vm.run_main() {
        Ok(v) => Ok((v, vm.out)),
        Err(e) => Err(CompileError::Codegen(mini_backend::CodegenError {
            msg: format!("runtime failure: {e}"),
        })),
    }
}
