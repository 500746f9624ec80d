//! `incr` — the incremental-compilation benchmark.
//!
//! Compares three request shapes of the service workload over a linked
//! corpus (units with cross-unit dependencies):
//!
//! * **cold** — a full `CompileSession` compile from empty caches (the
//!   one-shot baseline every request used to pay);
//! * **warm body edit** — one unit's definition *bodies* change: the
//!   session must recompile **exactly that unit** and splice the other
//!   `N − 1` from cache;
//! * **warm signature edit** — one unit's exported interface changes: the
//!   session recompiles the edited unit plus its (transitive) dependents.
//!
//! ```text
//! cargo run --release -p bench --bin incr -- [UNITS] [REPS] [LABEL]
//! ```
//!
//! Defaults: 16 units, 5 reps (median reported). The run **fails** (exit 1)
//! if a warm body edit recompiles anything but exactly 1 unit or its link
//! relocates anything but that unit's code, or if a warm signature edit
//! fails to cascade — the cache-correctness smoke CI relies on. When
//! `INCR_JSON` names a path, the medians are recorded there as one run
//! named `LABEL` (default `run`), stamped with the date, the host
//! (`nproc`, CPU model) and the command line. Runs already in the file are
//! kept, except an earlier run of the same label, which is replaced — so
//! two builds measured back to back on one host sit side by side.

use mini_driver::{CompileSession, CompilerOptions};
use std::time::{Duration, Instant};
use workload::{generate_linked, linked_unit_name, linked_unit_source, LinkedConfig};

fn usage_exit(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: incr [UNITS] [REPS] [LABEL]   (positive integers, defaults 16 and 5; \
         LABEL names the INCR_JSON record, default `run`)"
    );
    std::process::exit(2);
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How many units a signature edit of `unit0000` must recompile: unit 0,
/// its *direct* dependents, and the driver (`zmain.ms`, which calls every
/// unit). Indirect dependents stay cached — their direct deps' interfaces
/// are untouched by the edit, which is exactly the non-cascade the
/// interface hash buys.
fn signature_cascade_size(cfg: &LinkedConfig) -> usize {
    let direct = (1..cfg.units)
        .filter(|&uid| workload::linked_deps(cfg, uid).contains(&0))
        .count();
    direct + 2 // + unit0000 itself + zmain.ms
}

/// One measurement pass: the three compiles' times, the unit counts each
/// reported (`Compiled::recompiled_units` / `reused_units`), and the
/// session's cache bookkeeping.
struct Pass {
    cold: Duration,
    body: Duration,
    sig: Duration,
    cold_recompiled: usize,
    body_recompiled: usize,
    body_reused: usize,
    sig_recompiled: usize,
    cache: mini_driver::CacheStats,
}

fn run_once(cfg: &LinkedConfig, body_salt: u64) -> Pass {
    let opts = CompilerOptions::fused();
    let base = generate_linked(cfg);

    // Cold: fresh session, full compile.
    let mut session = CompileSession::new(opts);
    for (n, s) in &base.units {
        session.update(n.clone(), s.clone());
    }
    let t0 = Instant::now();
    let cold = session.compile().expect("cold compile succeeds");
    let cold_t = t0.elapsed();
    assert_eq!(cold.recompiled_units, base.units.len());

    // Warm body edit: a middle unit's bodies change.
    let body_uid = cfg.units / 2;
    session.update(
        linked_unit_name(body_uid),
        linked_unit_source(cfg, body_uid, body_salt, 0),
    );
    let relocated_before = session.cache_stats().units_relocated;
    let t1 = Instant::now();
    let warm_body = session.compile().expect("warm body compile succeeds");
    let body_t = t1.elapsed();
    if warm_body.recompiled_units != 1 {
        eprintln!(
            "FAIL: warm body edit of {} recompiled {} units (expected exactly 1; reused {})",
            linked_unit_name(body_uid),
            warm_body.recompiled_units,
            warm_body.reused_units
        );
        std::process::exit(1);
    }
    // The other units' code resolves to the same ids as before the edit,
    // so the link must place it as it is and relocate the edited unit only.
    let relocated = session.cache_stats().units_relocated - relocated_before;
    if relocated != 1 {
        eprintln!(
            "FAIL: warm body edit of {} relocated {relocated} units at link (expected exactly 1)",
            linked_unit_name(body_uid)
        );
        std::process::exit(1);
    }

    // Warm signature edit: unit 0 (the most depended-on) toggles its
    // exported helper's arity.
    session.update(linked_unit_name(0), linked_unit_source(cfg, 0, 0, 1));
    let t2 = Instant::now();
    let warm_sig = session.compile().expect("warm signature compile succeeds");
    let sig_t = t2.elapsed();
    // Dependency-aware invalidation must recompile *exactly* the transitive
    // dependents of unit 0 (plus unit 0 itself and the driver, which calls
    // every unit) — the dep graph is deterministic, so the expected cascade
    // is computable, and both under- and over-invalidation are failures.
    let expected = signature_cascade_size(cfg);
    if warm_sig.recompiled_units != expected {
        eprintln!(
            "FAIL: signature edit of unit0000 recompiled {} unit(s), expected exactly {} (the edited unit, its transitive dependents, and the driver)",
            warm_sig.recompiled_units, expected
        );
        std::process::exit(1);
    }
    Pass {
        cold: cold_t,
        body: body_t,
        sig: sig_t,
        cold_recompiled: cold.recompiled_units,
        body_recompiled: warm_body.recompiled_units,
        body_reused: warm_body.reused_units,
        sig_recompiled: warm_sig.recompiled_units,
        cache: session.cache_stats(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 3 {
        usage_exit(&format!("unexpected extra argument `{}`", args[3]));
    }
    let parse = |what: &str, v: Option<&String>, default: usize| -> usize {
        match v {
            None => default,
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => n,
                _ => usage_exit(&format!("{what} must be a positive integer, got `{v}`")),
            },
        }
    };
    let units = parse("UNITS", args.first(), 16);
    if units < 2 {
        usage_exit("UNITS must be at least 2 (the signature edit needs a dependent)");
    }
    let reps = parse("REPS", args.get(1), 5);
    let label = args.get(2).map_or("run", String::as_str);
    let cfg = LinkedConfig {
        units,
        ..LinkedConfig::incr_bench()
    };
    let loc = generate_linked(&cfg).total_loc;
    println!("incr: {units}-unit linked corpus ({loc} LOC), {reps} reps, fused pipeline");

    let passes: Vec<Pass> = (0..reps)
        .map(|rep| run_once(&cfg, rep as u64 + 1))
        .collect();
    let cold = median(passes.iter().map(|p| p.cold).collect());
    let body = median(passes.iter().map(|p| p.body).collect());
    let sig = median(passes.iter().map(|p| p.sig).collect());
    // Every pass compiles the same corpus and edits, so the unit counts
    // (checked in `run_once`) are those of the last.
    let last = passes.last().expect("REPS >= 1");
    let (cascade, cache) = (last.sig_recompiled, last.cache);
    println!(
        "cold full compile         : {:>8.1} ms  ({} units recompiled)",
        ms(cold),
        last.cold_recompiled
    );
    println!(
        "warm body edit            : {:>8.1} ms  ({} unit recompiled, {} reused)  {:+.0}% vs cold",
        ms(body),
        last.body_recompiled,
        last.body_reused,
        (ms(body) / ms(cold) - 1.0) * 100.0
    );
    println!(
        "warm signature edit       : {:>8.1} ms  ({} units recompiled)  {:+.0}% vs cold",
        ms(sig),
        cascade,
        (ms(sig) / ms(cold) - 1.0) * 100.0
    );
    println!(
        "session cache (per rep)   : {} reused / {} recompiled / {} relocated; invalidations: \
         {} source, {} dep-cascade",
        cache.units_reused,
        cache.units_recompiled,
        cache.units_relocated,
        cache.invalidated_by_source,
        cache.invalidated_by_deps
    );
    println!(
        "robustness (per rep)      : {} worker panic(s), {} sequential retrie(s), \
         {} corrupted artifact(s), {} evicted ({} bytes)",
        cache.worker_panics,
        cache.sequential_retries,
        cache.corrupted_artifacts,
        cache.evicted_units,
        cache.evicted_bytes
    );

    if let Ok(path) = std::env::var("INCR_JSON") {
        let run = format!(
            "{{\"label\": \"{}\", \"date\": \"{}\", \"host\": {}, \"command\": \"{}\", \
             \"units\": {units}, \"corpus_loc\": {loc}, \"reps\": {reps}, \"cold_ms\": {:.3}, \
             \"warm_body_edit_ms\": {:.3}, \"warm_signature_edit_ms\": {:.3}, \
             \"signature_cascade_units\": {cascade}}}",
            bench::json_escape(label),
            bench::utc_date(),
            bench::host_json(),
            bench::json_escape(&bench::command_line()),
            ms(cold),
            ms(body),
            ms(sig)
        );
        let previous = std::fs::read_to_string(&path).unwrap_or_default();
        std::fs::write(
            &path,
            bench::record_run(&previous, RECORD_HEAD, label, &run),
        )
        .expect("write INCR_JSON");
        println!("recorded run `{label}` in {path}");
    }
}

/// The lines of a new record file up to its `"runs"` array.
const RECORD_HEAD: &str =
    "{\n  \"benchmark\": \"incremental\",\n  \"note\": \"CompileSession medians over \
    the linked corpus (fused pipeline, jobs=1): cold = full compile from empty caches; warm body \
    edit recompiles exactly 1 unit; warm signature edit recompiles the edited unit plus its \
    transitive dependents\",";
