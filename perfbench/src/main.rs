//! `perfbench` — the repository benchmark: end-to-end op latency of the
//! compiler and VM on three closed-loop, single-threaded workloads, and a
//! traced run that splits each op across the layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|edit|exec --seed N --seconds S --trace 0|1
//! ```
//!
//! * `batch` — cold one-shot `compile_sources` of a seeded window of a
//!   `dotty_like` slice, then `run_main`.
//! * `edit` — one `CompileSession` (lint on) over the 16-unit linked corpus
//!   replaying a fixed-length seeded edit script: `update`, `compile`,
//!   `run_main`, output check per op.
//! * `exec` — the exec corpus compiled once; each op is `Vm::new` +
//!   `run_main`.
//!
//! A run replays its workload's fixed script from fresh state in rounds
//! (at least three untraced, at least one traced) until `--seconds` is
//! used up, so op counts per round never depend on host speed; each op is
//! timed as its fastest replay. Every op's output is compared
//! with [`model`]'s, exact counts must repeat between rounds, and the
//! traced layer-by-layer path must match the one-call path. The last
//! stdout line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; a failed check also exits 1. See `README.md` for the metrics
//! and the reasons behind these choices.

mod layers;
mod model;
mod trace;

use mini_backend::Vm;
use mini_driver::{compile_sources, CompileSession, CompilerOptions};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{EditKind, ExecConfig, LinkedConfig, WorkloadConfig};

/// Exact counts that must come out identical on every replay of a seed.
pub type Counts = BTreeMap<&'static str, u64>;

/// Untraced runs replay at least this many rounds, so setup is timed
/// several times, each op is timed more than once, and exact counts are
/// compared between replays.
const MIN_ROUNDS: usize = 3;

/// `batch`: LOC of the seeded `dotty_like` slice (units of ~400 lines).
const BATCH_LOC: usize = 7_200;
/// `batch`: each op compiles a seeded window of at least this many of the
/// slice's units (plus `main.ms`), so op sizes spread over a range and
/// `op_ms_p90` lies among real ops rather than in the host's noise tail.
const BATCH_MIN_UNITS: usize = 6;
/// `batch`: untimed compiles of the whole slice per round (part of setup).
const BATCH_WARMUP: usize = 2;
/// `batch`: timed compiles per round.
const BATCH_OPS: usize = 100;

/// `edit`: edits of each linked unit in the fixed script (two body edits
/// to one signature edit); 16 units make a 288-edit script.
const EDIT_PER_UNIT: usize = 18;
/// `edit`: leading edits of the script run as warm-up (part of setup).
const EDIT_WARMUP: usize = 32;
/// `edit`, traced: one from-scratch layer-by-layer compile of the current
/// sources every this many edits.
const EDIT_PROBE_EVERY: usize = 8;

/// `exec`: corpus shape (units, loop trip count).
const EXEC_UNITS: usize = 4;
const EXEC_ITERS: usize = 6_000;
/// `exec`: untimed warm-up runs per round (part of setup).
const EXEC_WARMUP: usize = 5;
/// `exec`: timed runs per round.
const EXEC_OPS: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Batch,
    Edit,
    Exec,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(match value {
                    "batch" => Kind::Batch,
                    "edit" => Kind::Edit,
                    "exec" => Kind::Exec,
                    _ => return Err(format!("unknown workload `{value}`")),
                })
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one op produced.
pub struct OpOut {
    pub output: Vec<String>,
    pub counts: Counts,
}

/// Runs one op, turning a panic into a failed op.
fn attempt(f: impl FnOnce() -> Result<OpOut, String>) -> Result<OpOut, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// One replay of a workload's fixed script from fresh state.
#[derive(Default)]
struct Round {
    setup_s: f64,
    /// Untraced wall time of each timed op, in script order.
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Exact counts of the round; compared across rounds.
    counts: Counts,
    /// Exact counts of each op, in order; compared across rounds.
    op_counts: Vec<Counts>,
    /// Failed checks (wrong output, counts that moved, unfaithful trace).
    errors: Vec<String>,
}

impl Round {
    /// Scores one op against the model's expected output and keeps its
    /// counts.
    fn score(&mut self, out: &Result<OpOut, String>, expected: &[String]) {
        self.attempted += 1;
        self.op_counts
            .push(out.as_ref().map(|o| o.counts.clone()).unwrap_or_default());
        match out {
            Ok(o) if o.output == expected => {}
            Ok(o) => self.fail(format!(
                "op {}: output {:?}, model expects {:?}",
                self.attempted, o.output, expected
            )),
            Err(e) => self.fail(format!("op {}: {e}", self.attempted)),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.error(msg);
    }

    fn error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Ops that repeat the same work (the whole-slice warm-ups of
    /// `batch`, every `exec` run): the first sets the round's counts,
    /// every later one must repeat them.
    fn same_counts(&mut self, out: &Result<OpOut, String>) {
        if let Ok(o) = out {
            if self.counts.is_empty() {
                self.counts = o.counts.clone();
            } else if self.counts != o.counts {
                let msg = format!("counts moved: {:?} then {:?}", self.counts, o.counts);
                self.error(msg);
            }
        }
    }

    /// The traced twin of an op must produce what the untraced op did.
    fn faithful(&mut self, plain: &Result<OpOut, String>, traced: &Result<OpOut, String>) {
        if let (Ok(p), Ok(t)) = (plain, traced) {
            if p.output != t.output || p.counts != t.counts {
                let msg = format!(
                    "traced path differs: {:?} {:?} vs untraced {:?} {:?}",
                    t.output, t.counts, p.output, p.counts
                );
                self.error(msg);
            }
        }
    }
}

/// Tracers for a traced run: `ops` records the timed ops, `side` records
/// layer measurements taken outside them (setup compiles, probes).
struct Tracers {
    ops: Tracer,
    side: Tracer,
}

// ---------------------------------------------------------------------------
// batch
// ---------------------------------------------------------------------------

fn batch_op(sources: &[(&str, &str)]) -> Result<OpOut, String> {
    let compiled =
        compile_sources(sources, &CompilerOptions::fused()).map_err(|e| e.to_string())?;
    let mut vm = Vm::new(&compiled.program);
    vm.run_main().map_err(|e| format!("vm: {e}"))?;
    let counts = layers::run_counts(&compiled.program, compiled.exec.node_visits, &vm);
    Ok(OpOut {
        output: vm.out,
        counts,
    })
}

fn batch_traced_op(t: &mut Tracer, sources: &[(&str, &str)]) -> Result<OpOut, String> {
    t.begin_op();
    t.span("op", |t| layers::traced_compile(t, sources))
}

/// The unit windows the timed ops of a seed compile, each followed by the
/// slice's `main.ms`. Window lengths are spread evenly from
/// [`BATCH_MIN_UNITS`] to the whole slice; the seed picks each window's
/// start and the order of the ops, so every seed compiles the same amount.
fn batch_windows(seed: u64, units: usize) -> Vec<std::ops::Range<usize>> {
    let lengths = units - BATCH_MIN_UNITS + 1;
    let mut state = seed;
    let mut windows: Vec<std::ops::Range<usize>> = (0..BATCH_OPS)
        .map(|i| {
            let len = BATCH_MIN_UNITS + i * lengths / BATCH_OPS;
            state = model::mix(state);
            let start = (state % (units - len + 1) as u64) as usize;
            start..start + len
        })
        .collect();
    for i in (1..windows.len()).rev() {
        state = model::mix(state);
        windows.swap(i, (state % (i as u64 + 1)) as usize);
    }
    windows
}

fn batch_round(seed: u64, mut tr: Option<&mut Tracers>) -> Round {
    let mut r = Round::default();
    let setup = Instant::now();
    let corpus = workload::generate(&WorkloadConfig {
        target_loc: BATCH_LOC,
        seed,
        ..WorkloadConfig::dotty_like()
    });
    let all = corpus.sources();
    let (main, units) = all.split_last().expect("corpus ends with main.ms");
    let ops: Vec<Vec<(&str, &str)>> = batch_windows(seed, units.len())
        .into_iter()
        .map(|w| units[w].iter().chain([main]).copied().collect())
        .collect();
    let expected = vec!["corpus compiled".to_owned()];
    for _ in 0..BATCH_WARMUP {
        let out = attempt(|| batch_op(&all));
        r.score(&out, &expected);
        r.same_counts(&out);
    }
    r.setup_s = setup.elapsed().as_secs_f64();
    if let Some(tr) = tr.as_deref_mut() {
        session_probe(&mut tr.side, &all);
    }
    for (i, sources) in ops.iter().enumerate() {
        // In traced runs each op has a traced twin; alternate which runs
        // first so neither side always sees the warmer caches.
        let traced_first = i % 2 == 1;
        let mut traced = None;
        if let (Some(tr), true) = (tr.as_deref_mut(), traced_first) {
            traced = Some(attempt(|| batch_traced_op(&mut tr.ops, sources)));
        }
        let (ms, out) = timed(|| attempt(|| batch_op(sources)));
        if let (Some(tr), false) = (tr.as_deref_mut(), traced_first) {
            traced = Some(attempt(|| batch_traced_op(&mut tr.ops, sources)));
        }
        r.op_ms.push(ms);
        r.score(&out, &expected);
        if let Some(traced) = traced {
            r.score(&traced, &expected);
            r.faithful(&out, &traced);
        }
    }
    r
}

/// A cold `CompileSession` compile (lint on, as in `edit`) of `sources`,
/// recorded as `session.*` counters. Used by the workloads that do not
/// drive a session themselves.
fn session_probe(t: &mut Tracer, sources: &[(&str, &str)]) {
    t.begin_op();
    let mut session = CompileSession::new(CompilerOptions::fused().with_lint(true));
    for (name, src) in sources {
        session.update(*name, *src);
    }
    let (ms, compiled) = timed(|| t.span("probe.session", |_| session.compile()));
    if let Ok(c) = compiled {
        record_session(t, ms, &c);
        let stats = session.cache_stats();
        let total = (stats.units_reused + stats.units_recompiled).max(1);
        t.count("session.units_recompiled", stats.units_recompiled as f64);
        t.count(
            "session.reuse_ratio",
            stats.units_reused as f64 / total as f64,
        );
        t.count(
            "session.symbols_end",
            session.memory_footprint().symbol_count as f64,
        );
    }
}

fn record_session(t: &mut Tracer, compile_ms: f64, c: &mini_driver::Compiled) {
    t.count("session.compile_ms", compile_ms);
    t.count("session.front_ms", c.times.frontend.as_secs_f64() * 1e3);
    t.count(
        "session.transform_ms",
        c.times.transforms.as_secs_f64() * 1e3,
    );
    t.count("session.backend_ms", c.times.backend.as_secs_f64() * 1e3);
}

// ---------------------------------------------------------------------------
// edit
// ---------------------------------------------------------------------------

fn edit_options() -> CompilerOptions {
    CompilerOptions::fused().with_lint(true)
}

/// Per-compile counts of a session op.
fn session_counts(c: &mini_driver::Compiled, vm_insns: u64) -> Counts {
    Counts::from([
        ("code_insns", c.program.code_size() as u64),
        ("core.node_visits", c.exec.node_visits),
        ("vm.insns", vm_insns),
        ("session.units_recompiled", c.recompiled_units as u64),
        ("session.units_reused", c.reused_units as u64),
        ("analysis.findings", c.findings.len() as u64),
    ])
}

fn session_op(
    session: &mut CompileSession,
    edit: Option<&workload::Edit>,
) -> Result<OpOut, String> {
    if let Some(e) = edit {
        session.update(e.unit.as_str(), e.source.as_str());
    }
    let compiled = session.compile().map_err(|e| e.to_string())?;
    let mut vm = Vm::new(&compiled.program);
    vm.run_main().map_err(|e| format!("vm: {e}"))?;
    let counts = session_counts(&compiled, vm.stats.insns_retired);
    Ok(OpOut {
        output: vm.out,
        counts,
    })
}

fn session_traced_op(
    t: &mut Tracer,
    session: &mut CompileSession,
    edit: Option<&workload::Edit>,
) -> Result<OpOut, String> {
    t.begin_op();
    t.span("op", |t| {
        if let Some(e) = edit {
            t.span("session.update", |_| {
                session.update(e.unit.as_str(), e.source.as_str())
            });
        }
        let (ms, compiled) = timed(|| t.span("session.compile", |_| session.compile()));
        let compiled = compiled.map_err(|e| e.to_string())?;
        record_session(t, ms, &compiled);
        t.count("analysis.findings", compiled.findings.len() as f64);
        let (output, vm_counts) = layers::run_vm(t, &compiled.program)?;
        let counts = session_counts(&compiled, vm_counts["vm.insns"]);
        Ok(OpOut { output, counts })
    })
}

/// The edit script of a seed. Every linked unit gets the same edits,
/// [`EDIT_PER_UNIT`] of them with every third a signature edit; only their
/// order depends on the seed, so scripts of different seeds do the same
/// work in a different order.
fn edit_script(cfg: &LinkedConfig, seed: u64) -> Vec<(usize, workload::Edit)> {
    let mut plan: Vec<(usize, EditKind)> = (0..cfg.units)
        .flat_map(|uid| {
            (0..EDIT_PER_UNIT).map(move |j| {
                let kind = if j % 3 == 2 {
                    EditKind::Signature
                } else {
                    EditKind::Body
                };
                (uid, kind)
            })
        })
        .collect();
    let mut state = seed;
    for i in (1..plan.len()).rev() {
        state = model::mix(state);
        plan.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut body_salt = vec![0u64; cfg.units];
    let mut sig_variant = vec![0u8; cfg.units];
    plan.into_iter()
        .map(|(uid, kind)| {
            match kind {
                EditKind::Body => body_salt[uid] += 1,
                EditKind::Signature => sig_variant[uid] ^= 1,
            }
            let source = workload::linked_unit_source(cfg, uid, body_salt[uid], sig_variant[uid]);
            let unit = workload::linked_unit_name(uid);
            (uid, workload::Edit { unit, kind, source })
        })
        .collect()
}

fn edit_round(seed: u64, mut tr: Option<&mut Tracers>) -> Round {
    let mut r = Round::default();
    let setup = Instant::now();
    let cfg = LinkedConfig::incr_bench();
    let base = workload::generate_linked(&cfg);
    let script = edit_script(&cfg, seed);
    let model = model::LinkedModel::new(cfg.seed, cfg.units);
    let mut states = vec![model::UnitState::default(); cfg.units];
    let base_expected = vec![model.main_output(&states)];
    let expected: Vec<Vec<String>> = script
        .iter()
        .map(|(uid, e)| {
            let s = &mut states[*uid];
            match e.kind {
                EditKind::Body => s.body_salt += 1,
                EditKind::Signature => s.sig_variant ^= 1,
            }
            vec![model.main_output(&states)]
        })
        .collect();

    let mut session = CompileSession::new(edit_options());
    let mut twin = tr.as_ref().map(|_| CompileSession::new(edit_options()));
    for (name, src) in &base.units {
        session.update(name.as_str(), src.as_str());
        if let Some(twin) = twin.as_mut() {
            twin.update(name.as_str(), src.as_str());
        }
    }
    let cold = attempt(|| session_op(&mut session, None));
    r.score(&cold, &base_expected);
    if let (Some(tr), Some(twin)) = (tr.as_deref_mut(), twin.as_mut()) {
        let traced = attempt(|| session_traced_op(&mut tr.ops, twin, None));
        r.score(&traced, &base_expected);
        r.faithful(&cold, &traced);
    }
    // Current sources, for the traced run's from-scratch probes.
    let mut current: Vec<(String, String)> = base.units.clone();

    let mut totals = Counts::new();
    for (i, ((uid, edit), want)) in script.iter().zip(&expected).enumerate() {
        if i == EDIT_WARMUP {
            r.setup_s = setup.elapsed().as_secs_f64();
        }
        let traced_first = i % 2 == 1;
        let mut traced = None;
        if let (Some(tr), Some(twin), true) = (tr.as_deref_mut(), twin.as_mut(), traced_first) {
            traced = Some(attempt(|| session_traced_op(&mut tr.ops, twin, Some(edit))));
        }
        let (ms, out) = timed(|| attempt(|| session_op(&mut session, Some(edit))));
        if let (Some(tr), Some(twin), false) = (tr.as_deref_mut(), twin.as_mut(), traced_first) {
            traced = Some(attempt(|| session_traced_op(&mut tr.ops, twin, Some(edit))));
        }
        if i >= EDIT_WARMUP {
            r.op_ms.push(ms);
        }
        r.score(&out, want);
        if let Ok(o) = &out {
            for (k, v) in &o.counts {
                *totals.entry(k).or_default() += v;
            }
            totals.insert("code_insns", o.counts["code_insns"]);
        }
        if let Some(traced) = traced {
            r.score(&traced, want);
            r.faithful(&out, &traced);
        }
        current[*uid].1.clone_from(&edit.source);
        if let Some(tr) = tr.as_deref_mut() {
            if i >= EDIT_WARMUP && (i - EDIT_WARMUP).is_multiple_of(EDIT_PROBE_EVERY) {
                probe_compile(&mut tr.side, &current, want, &mut r);
            }
        }
    }
    r.counts = totals;
    if let (Some(tr), Some(twin)) = (tr, twin) {
        let total = |k| r.counts.get(k).copied().unwrap_or_default() as f64;
        let (recompiled, reused) = (
            total("session.units_recompiled"),
            total("session.units_reused"),
        );
        tr.ops.count("session.units_recompiled", recompiled);
        tr.ops.count(
            "session.reuse_ratio",
            reused / (reused + recompiled).max(1.0),
        );
        tr.ops.count(
            "session.symbols_end",
            twin.memory_footprint().symbol_count as f64,
        );
    }
    r
}

/// A from-scratch layer-by-layer compile of the current edit state,
/// recorded on the side tracer; its output must match the model too.
fn probe_compile(t: &mut Tracer, current: &[(String, String)], want: &[String], r: &mut Round) {
    t.begin_op();
    let sources: Vec<(&str, &str)> = current
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let out = attempt(|| t.span("probe.compile", |t| layers::traced_compile(t, &sources)));
    r.score(&out, want);
}

// ---------------------------------------------------------------------------
// exec
// ---------------------------------------------------------------------------

fn exec_op(program: &mini_backend::Program) -> Result<OpOut, String> {
    let mut vm = Vm::new(program);
    vm.run_main().map_err(|e| format!("vm: {e}"))?;
    let counts = Counts::from([("vm.insns", vm.stats.insns_retired)]);
    Ok(OpOut {
        output: vm.out,
        counts,
    })
}

fn exec_traced_op(t: &mut Tracer, program: &mini_backend::Program) -> Result<OpOut, String> {
    t.begin_op();
    t.span("op", |t| {
        layers::run_vm(t, program).map(|(output, counts)| OpOut { output, counts })
    })
}

fn exec_round(seed: u64, mut tr: Option<&mut Tracers>) -> Round {
    let mut r = Round::default();
    let setup = Instant::now();
    let cfg = ExecConfig {
        units: EXEC_UNITS,
        seed,
        iters: EXEC_ITERS,
    };
    let corpus = workload::generate_exec(&cfg);
    let expected = model::exec_output(cfg.seed, cfg.units, cfg.iters);
    let sources = corpus.sources();
    let compiled = match compile_sources(&sources, &CompilerOptions::fused()) {
        Ok(c) => c,
        Err(e) => {
            r.attempted += 1;
            r.fail(format!("exec corpus does not compile: {e}"));
            return r;
        }
    };
    let program = &compiled.program;
    for _ in 0..EXEC_WARMUP {
        let out = attempt(|| exec_op(program));
        r.score(&out, &expected);
        r.same_counts(&out);
    }
    r.setup_s = setup.elapsed().as_secs_f64();

    if let Some(tr) = tr.as_deref_mut() {
        // The setup compile, layer by layer: it must build the same program.
        tr.side.begin_op();
        let traced = attempt(|| {
            tr.side
                .span("setup", |t| layers::traced_compile(t, &sources))
        });
        let plain = attempt(|| {
            let mut vm = Vm::new(program);
            vm.run_main().map_err(|e| format!("vm: {e}"))?;
            Ok(OpOut {
                counts: layers::run_counts(program, compiled.exec.node_visits, &vm),
                output: vm.out,
            })
        });
        r.score(&traced, &expected);
        r.faithful(&plain, &traced);
        session_probe(&mut tr.side, &sources);
    }

    for i in 0..EXEC_OPS {
        let traced_first = i % 2 == 1;
        let mut traced = None;
        if let (Some(tr), true) = (tr.as_deref_mut(), traced_first) {
            traced = Some(attempt(|| exec_traced_op(&mut tr.ops, program)));
        }
        let (ms, out) = timed(|| attempt(|| exec_op(program)));
        if let (Some(tr), false) = (tr.as_deref_mut(), traced_first) {
            traced = Some(attempt(|| exec_traced_op(&mut tr.ops, program)));
        }
        r.op_ms.push(ms);
        r.score(&out, &expected);
        r.same_counts(&out);
        if let Some(traced) = traced {
            r.score(&traced, &expected);
            r.faithful(&out, &traced);
        }
    }
    r.counts.insert("code_insns", program.code_size() as u64);
    r.counts
        .insert("core.node_visits", compiled.exec.node_visits);
    r
}

// ---------------------------------------------------------------------------
// statistics and reporting
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile of `xs` (`q` in 0..=1).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Process high-water resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The time of each timed op of the script: its fastest replay. Every
/// round replays the same ops, and the host's speed drifts for stretches of
/// seconds to minutes; the fastest replay is the one that drift slowed
/// least.
fn op_times(rounds: &[Round]) -> Vec<f64> {
    let len = rounds.iter().map(|r| r.op_ms.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            rounds
                .iter()
                .map(|r| r.op_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Median time of the script's last quarter of ops over its first
/// quarter's.
fn late_early_ratio(rounds: &[Round]) -> f64 {
    let ops = op_times(rounds);
    let q = ops.len() / 4;
    median(&ops[ops.len() - q..]) / median(&ops[..q])
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The end-to-end metrics. `peak_rss_mb` is the high-water mark after the
/// first round (set-up plus one full replay from a fresh process): later
/// rounds reuse a heap the earlier ones fragmented, which no single replay
/// sees.
fn end_to_end(rounds: &[Round], peak_rss_mb: f64) -> Vec<Metric> {
    let ops = op_times(rounds);
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let p90 = quantile(&ops, 0.9);
    let beyond = ops.iter().filter(|&&x| x > p90).count();
    // A p90 in a gap between classes of ops would jump with small shifts
    // in the mix; show how many ops sit close to it.
    let near = ops
        .iter()
        .filter(|&&x| (x / p90 - 1.0).abs() <= 0.1)
        .count();
    println!(
        "timed ops: {} per round x {} round(s), each timed as its fastest replay; \
         {beyond} ops above op_ms_p90, {near} within 10% of it; setup per round: {setups:?} s",
        ops.len(),
        rounds.len(),
    );
    vec![
        Metric {
            name: "op_ms_p50",
            value: median(&ops),
            unit: "ms",
        },
        Metric {
            name: "op_ms_p90",
            value: p90,
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
        Metric {
            name: "code_insns",
            value: rounds[0].counts.get("code_insns").copied().unwrap_or(0) as f64,
            unit: "count",
        },
        Metric {
            name: "ok_share",
            value: (attempted - failed) as f64 / attempted.max(1) as f64,
            unit: "ratio",
        },
    ]
}

/// Which tracer holds a layer's numbers on a workload: the timed ops, or
/// the side measurements (setup compile and probes) for layers the
/// workload's ops bypass.
fn source<'a>(tr: &'a Tracers, kind: Kind, layer: &str) -> &'a Tracer {
    let on_ops = match layer {
        "front" | "core" | "codegen" | "lint" => kind == Kind::Batch,
        "findings" => kind != Kind::Exec,
        "vm" => true,
        "session" => kind == Kind::Edit,
        _ => unreachable!("unknown layer {layer}"),
    };
    if on_ops {
        &tr.ops
    } else {
        &tr.side
    }
}

fn per_layer(kind: Kind, tr: &Tracers, rounds: &[Round]) -> Vec<Metric> {
    let ms = |layer: &str, span: &str| median(&source(tr, kind, layer).ms_per_op(span));
    let ms_sum = |layer: &str, spans: &[&str]| {
        let t = source(tr, kind, layer);
        let per: Vec<Vec<f64>> = spans.iter().map(|s| t.ms_per_op(s)).collect();
        let n = per.iter().map(Vec::len).min().unwrap_or(0);
        let sums: Vec<f64> = (0..n).map(|i| per.iter().map(|p| p[i]).sum()).collect();
        median(&sums)
    };
    let ctr = |layer: &str, name: &str| median(&source(tr, kind, layer).counter(name));

    let lex = ms("front", "probe.lex");
    let parse = ms("front", "front.parse");
    let ty = ms("front", "front.type");
    let transform = ms_sum("core", &["core.plan", "core.run_units"]);
    let visits = ctr("core", "core.node_visits");
    let groups = ctr("core", "core.plan_groups");
    let walk = ms("core", "probe.walk");
    let untraced: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.op_ms.iter().copied())
        .collect();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("front.lex_ms", lex, "ms"),
        m("front.parse_ms", parse, "ms"),
        m("front.type_ms", ty, "ms"),
        m("front.tokens", ctr("front", "front.tokens"), "count"),
        m(
            "front.kloc_per_s",
            ctr("front", "front.loc") / (parse + ty),
            "kLOC/s",
        ),
        m("core.plan_groups", groups, "count"),
        m("core.transform_ms", transform, "ms"),
        m("core.node_visits", visits, "count"),
        m("core.traversals", ctr("core", "core.traversals"), "count"),
        m("core.ns_per_visit", transform * 1e6 / visits, "ns"),
        m("core.walk_ms", walk, "ms"),
        m("core.walk_share", groups * walk / transform, "ratio"),
        m("analysis.lint_ms", ms("lint", "probe.lint"), "ms"),
        m(
            "analysis.findings",
            ctr("findings", "analysis.findings"),
            "count",
        ),
        m("codegen.ms", ms("codegen", "codegen.generate"), "ms"),
        m(
            "codegen.code_insns",
            ctr("codegen", "codegen.code_insns"),
            "count",
        ),
        m("vm.prepare_ms", ms("vm", "vm.prepare"), "ms"),
        m("vm.run_ms", ms("vm", "vm.run"), "ms"),
        m("vm.insns", ctr("vm", "vm.insns"), "count"),
        m("vm.fused_share", ctr("vm", "vm.fused_share"), "ratio"),
        m("vm.ic_hit_rate", ctr("vm", "vm.ic_hit_rate"), "ratio"),
        m("vm.peak_frames", ctr("vm", "vm.peak_frames"), "count"),
        m(
            "session.compile_ms",
            ctr("session", "session.compile_ms"),
            "ms",
        ),
        m("session.front_ms", ctr("session", "session.front_ms"), "ms"),
        m(
            "session.transform_ms",
            ctr("session", "session.transform_ms"),
            "ms",
        ),
        m(
            "session.backend_ms",
            ctr("session", "session.backend_ms"),
            "ms",
        ),
        m(
            "session.units_recompiled",
            ctr("session", "session.units_recompiled"),
            "count",
        ),
        m(
            "session.reuse_ratio",
            ctr("session", "session.reuse_ratio"),
            "ratio",
        ),
        m(
            "session.symbols_end",
            ctr("session", "session.symbols_end"),
            "count",
        ),
        m(
            "session.late_early_ratio",
            late_early_ratio(rounds),
            "ratio",
        ),
        m(
            "trace.overhead_pct",
            (median(&tr.ops.op_ms()) / median(&untraced) - 1.0) * 100.0,
            "%",
        ),
    ]
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; an unmeasured metric already fails the run.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload batch|edit|exec --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Op panics are caught and scored as misses; keep their messages short.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: op panicked: {info}")));

    let budget = Duration::from_secs(args.seconds);
    let mut tracers = args.trace.then(|| Tracers {
        ops: Tracer::new("ops"),
        side: Tracer::new("side"),
    });
    let min_rounds = if args.trace { 1 } else { MIN_ROUNDS };
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut first_round_rss = f64::NAN;
    loop {
        let round_start = Instant::now();
        let tr = tracers.as_mut();
        rounds.push(match args.kind {
            Kind::Batch => batch_round(args.seed, tr),
            Kind::Edit => edit_round(args.seed, tr),
            Kind::Exec => exec_round(args.seed, tr),
        });
        let took = round_start.elapsed();
        if rounds.len() == 1 {
            first_round_rss = peak_rss_mb();
        }
        if rounds.len() >= min_rounds && start.elapsed() + took > budget {
            break;
        }
    }

    let mut errors: Vec<String> = rounds.iter().flat_map(|r| r.errors.clone()).collect();
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.counts != first.counts {
            errors.push(format!(
                "exact counts differ between replays of seed {}: round 0 {:?}, round {i} {:?}",
                args.seed, first.counts, r.counts
            ));
        }
        let ops = r.op_counts.iter().zip(&first.op_counts);
        if let Some((op, (a, b))) = ops.enumerate().find(|(_, (a, b))| a != b) {
            errors.push(format!(
                "op {op} counted differently between replays of seed {}: round 0 {b:?}, round {i} {a:?}",
                args.seed
            ));
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    println!(
        "perfbench {:?} seed {}: {} round(s) in {:.1} s; exact counts {:?}",
        args.kind,
        args.seed,
        rounds.len(),
        start.elapsed().as_secs_f64(),
        rounds[0].counts
    );
    let metrics = match &tracers {
        None => end_to_end(&rounds, first_round_rss),
        Some(tr) => {
            let path = std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(|d| d.join("trace")))
                .unwrap_or_default()
                .join(format!("{:?}-seed{}.jsonl", args.kind, args.seed).to_lowercase());
            let written = std::fs::create_dir_all(path.parent().expect("trace dir"))
                .and_then(|_| std::fs::File::create(&path))
                .and_then(|f| {
                    let mut w = std::io::BufWriter::new(f);
                    tr.ops.write_jsonl(&mut w)?;
                    tr.side.write_jsonl(&mut w)?;
                    w.flush()
                });
            match written {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => errors.push(format!("writing spans to {}: {e}", path.display())),
            }
            per_layer(args.kind, tr, &rounds)
        }
    };
    for m in &metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            errors.push(format!("metric {} was not measured", m.name));
        }
    }
    for e in &errors {
        eprintln!("perfbench: FAIL: {e}");
    }
    let correct = errors.is_empty() && failed == 0;
    println!("{}", json_result(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
