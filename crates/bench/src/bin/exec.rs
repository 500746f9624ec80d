//! `exec` — paired in-process A/B harness for VM *execution* speed.
//!
//! The `ab` binary times compilation; this one times what the compiled
//! program costs to **run**. It compiles the execution-heavy corpus
//! (`workload::generate_exec`: polymorphic call sites over three classes,
//! monomorphic hot loops, deep static call chains, non-tail guest
//! recursion) exactly once, untimed, then times paired repetitions of the
//! same linked program under two [`VmOptions`] configurations in one
//! process, alternating order per repetition — the same methodology as
//! `ab`, for the same reason: cross-process timings on this shared host
//! drift by double-digit percentages.
//!
//! ```text
//! cargo run --release -p bench --bin exec -- [SPEC_B] [SPEC_A] [REPS] [ITERS] [LABEL]
//! ```
//!
//! A spec is `fast` (the production interpreter: slot-resolved dispatch
//! tables, monomorphic inline caches, superinstructions, flat frames over
//! one value stack) or `ref` (the frozen reference interpreter: by-name
//! `HashMap` dispatch, no caches, no fusion, host-recursive frames).
//!
//! Every repetition's captured output and result are compared
//! byte-for-byte against the first run — a paired perf harness that could
//! silently compare divergent executions would be worse than none.
//!
//! **Gate:** when B is `fast` and A is `ref` (the default invocation), the
//! lower quartile of per-repetition paired ratios must show at least a
//! 20% wall-clock reduction (ratio ≤ 0.80); the run exits non-zero
//! otherwise. The quartile, not the median, is gated for the same reason
//! as `ab`: a real regression shifts every rep, noise bursts only part of
//! a smoke-sized run.
//!
//! When `EXEC_JSON` names a path, the run is recorded there as one entry
//! of its `"runs"` array named `LABEL` (default `run`): both sides' minima
//! and counters and the paired ratios, stamped with the date, the host
//! (`nproc`, CPU model) and the command line. An earlier run of the same
//! label is replaced; everything else in the file is kept (see
//! `BENCH_exec.json`).

use mini_backend::{Program, Vm, VmOptions, VmStats};
use mini_driver::{compile_sources, CompilerOptions};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: exec [SPEC_B] [SPEC_A] [REPS] [ITERS] [LABEL]\n\
     SPEC    = fast|ref\n\
     REPS    = positive integer (default 9, env REPS)\n\
     ITERS   = positive integer: corpus loop trip count (default 6000, env EXEC_ITERS)\n\
     LABEL   = name of the EXEC_JSON record (default `run`)";

/// The lines of a new `EXEC_JSON` file up to its `"runs"` array.
const RECORD_HEAD: &str = "{\n  \"benchmark\": \"exec\",";

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

#[derive(Clone)]
struct Spec {
    opts: VmOptions,
    label: String,
}

fn parse_spec(s: &str) -> Spec {
    let opts = match s {
        "fast" => VmOptions::fast(),
        "ref" => VmOptions::reference(),
        other => usage_exit(&format!("unknown spec `{other}`")),
    };
    Spec {
        opts,
        label: s.to_string(),
    }
}

/// One timed run: VM construction plus `run_main` (fast mode prepares each
/// function on its first call, so code preparation is inside the run, as
/// it is part of what an execution engine costs). Returns the wall time, the
/// observable outcome (result rendering + output stream), and the counters.
fn run_once(program: &Program, spec: &Spec) -> (Duration, String, Vec<String>, VmStats) {
    let start = Instant::now();
    let mut vm = Vm::with_options(program, spec.opts);
    let result = vm.run_main();
    let elapsed = start.elapsed();
    let outcome = match result {
        Ok(v) => format!("ok: {v:?}"),
        Err(e) => format!("err: {e:?}"),
    };
    (elapsed, outcome, vm.out, vm.stats)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 5 {
        usage_exit(&format!("unexpected extra argument `{}`", args[5]));
    }
    let spec_b = parse_spec(args.first().map(String::as_str).unwrap_or("fast"));
    let spec_a = parse_spec(args.get(1).map(String::as_str).unwrap_or("ref"));
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
        9,
    );
    let iters = parse_count(
        "ITERS",
        args.get(3)
            .cloned()
            .or_else(|| std::env::var("EXEC_ITERS").ok()),
        6_000,
    );
    let label = args.get(4).map_or("run", String::as_str);

    // Compile once, untimed: both sides execute the same linked program.
    let cfg = workload::ExecConfig {
        iters,
        ..workload::ExecConfig::exec_bench()
    };
    let w = workload::generate_exec(&cfg);
    let program = compile_sources(&w.sources(), &CompilerOptions::fused())
        .expect("exec corpus compiles")
        .program;
    println!(
        "paired in-process execution A/B: B = {} vs A = {} ({} reps, {} units x {} iters, {} insns static)",
        spec_b.label,
        spec_a.label,
        reps,
        cfg.units,
        cfg.iters,
        program.code_size(),
    );

    let mut min_a = Duration::MAX;
    let mut min_b = Duration::MAX;
    let mut ratios: Vec<f64> = Vec::with_capacity(reps);
    let mut stats_a = VmStats::default();
    let mut stats_b = VmStats::default();
    // The observable outcome every run must reproduce byte-for-byte.
    let mut pinned: Option<(String, Vec<String>)> = None;
    for rep in 0..reps {
        let b_first = rep % 2 == 0;
        let mut t_a = Duration::ZERO;
        let mut t_b = Duration::ZERO;
        for side in 0..2 {
            let spec = if (side == 0) == b_first {
                &spec_b
            } else {
                &spec_a
            };
            let (t, outcome, out, stats) = run_once(&program, spec);
            match &pinned {
                None => pinned = Some((outcome, out)),
                Some((po, pout)) => {
                    if *po != outcome || *pout != out {
                        eprintln!(
                            "FAIL: `{}` diverged from the pinned execution:\n  pinned:  {po} ({} lines)\n  got:     {outcome} ({} lines)",
                            spec.label,
                            pout.len(),
                            out.len()
                        );
                        std::process::exit(1);
                    }
                }
            }
            if (side == 0) == b_first {
                t_b = t;
                stats_b = stats;
            } else {
                t_a = t;
                stats_a = stats;
            }
        }
        min_a = min_a.min(t_a);
        min_b = min_b.min(t_b);
        ratios.push(t_b.as_secs_f64() / t_a.as_secs_f64());
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median = ratios[ratios.len() / 2];
    let quartile = ratios[ratios.len() / 4];
    let (a, b) = (min_a.as_secs_f64(), min_b.as_secs_f64());
    let print_side = |tag: &str, label: &str, secs: f64, s: &VmStats| {
        println!(
            "{tag} {label:>10}: min {ms:>8.2} ms  insns {insns:>10}  fused {fused:>9}  IC {hits}/{total} ({rate:.1}% hit)  peak frames {frames}",
            ms = secs * 1e3,
            insns = s.insns_retired,
            fused = s.fused_retired,
            hits = s.ic_hits,
            total = s.ic_hits + s.ic_misses,
            rate = s.ic_hit_rate() * 100.0,
            frames = s.peak_frames,
        );
    };
    print_side("A", &spec_a.label, a, &stats_a);
    print_side("B", &spec_b.label, b, &stats_b);
    println!(
        "B vs A: min-ratio {:+.1}%  median paired ratio {:+.1}%  lower-quartile {:+.1}%",
        (b / a - 1.0) * 100.0,
        (median - 1.0) * 100.0,
        (quartile - 1.0) * 100.0,
    );
    println!("output pinned: {} lines byte-identical across all runs", {
        pinned.as_ref().map(|(_, o)| o.len()).unwrap_or(0)
    });

    if let Ok(path) = std::env::var("EXEC_JSON") {
        let side = |spec: &Spec, secs: f64, s: &VmStats| {
            format!(
                "{{\"spec\": \"{}\", \"min_ms\": {:.2}, \"insns_retired\": {}, \
                 \"fused_retired\": {}, \"ic_hits\": {}, \"ic_lookups\": {}, \"peak_frames\": {}}}",
                spec.label,
                secs * 1e3,
                s.insns_retired,
                s.fused_retired,
                s.ic_hits,
                s.ic_hits + s.ic_misses,
                s.peak_frames
            )
        };
        let run = format!(
            "{{\"label\": \"{}\", \"date\": \"{}\", \"host\": {}, \"command\": \"{}\", \
             \"reps\": {reps}, \"units\": {}, \"iters\": {iters}, \"code_insns\": {}, \
             \"b\": {}, \"a\": {}, \"min_ratio\": {:.3}, \"median_paired_ratio\": {median:.3}, \
             \"lower_quartile_paired_ratio\": {quartile:.3}}}",
            bench::json_escape(label),
            bench::utc_date(),
            bench::host_json(),
            bench::json_escape(&bench::command_line()),
            cfg.units,
            program.code_size(),
            side(&spec_b, b, &stats_b),
            side(&spec_a, a, &stats_a),
            b / a,
        );
        let previous = std::fs::read_to_string(&path).unwrap_or_default();
        std::fs::write(
            &path,
            bench::record_run(&previous, RECORD_HEAD, label, &run),
        )
        .expect("write EXEC_JSON");
        println!("recorded run `{label}` in {path}");
    }

    // The headline gate: the full fast configuration must beat the
    // reference interpreter by >= 20% wall clock on the call-heavy corpus.
    if spec_b.opts == VmOptions::fast() && spec_a.opts == VmOptions::reference() {
        if quartile > 0.80 {
            eprintln!(
                "FAIL: fast VM lower-quartile paired ratio {:.3} exceeds the 0.80 gate (needs >= 20% reduction)",
                quartile
            );
            std::process::exit(1);
        }
        println!(
            "gate: lower-quartile ratio {quartile:.3} <= 0.80 — fast VM delivers >= 20% wall-clock reduction"
        );
    }
}
