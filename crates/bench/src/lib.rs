//! # bench — experiment harness
//!
//! Shared helpers for the `figures` binary (which regenerates every table
//! and figure of the paper's evaluation) and the Criterion benches.

#![warn(missing_docs)]

use mini_driver::metrics::{measure, Instrumentation, Measurement};
use mini_driver::{CompileError, CompilerOptions};
use workload::{generate, Workload, WorkloadConfig};

/// A named corpus (the paper's two benchmark inputs).
pub struct Corpus {
    /// Display name.
    pub name: &'static str,
    /// The generated sources.
    pub workload: Workload,
}

/// The two corpora of §5 — "Scala standard library" scale and "Dotty
/// compiler" scale — optionally shrunk for quick runs.
pub fn corpora(quick: bool) -> Vec<Corpus> {
    let scale = |cfg: WorkloadConfig, loc: usize| WorkloadConfig {
        target_loc: loc,
        ..cfg
    };
    let (lib_loc, dotty_loc) = if quick {
        (4_000, 6_000)
    } else {
        (34_000, 50_000)
    };
    vec![
        Corpus {
            name: "stdlib-like",
            workload: generate(&scale(WorkloadConfig::stdlib_like(), lib_loc)),
        },
        Corpus {
            name: "dotty-like",
            workload: generate(&scale(WorkloadConfig::dotty_like(), dotty_loc)),
        },
    ]
}

/// Runs one fully instrumented measurement.
///
/// # Panics
///
/// Panics when the corpus fails to compile — the corpus generator and
/// pipeline are tested to keep this impossible.
pub fn measured(corpus: &Corpus, opts: &CompilerOptions, instr: Instrumentation) -> Measurement {
    match measure(&corpus.workload.sources(), opts, instr) {
        Ok(m) => m,
        Err(e) => panic!("corpus {} failed under {:?}: {e}", corpus.name, opts.mode),
    }
}

/// Runs `reps` timing-only measurements and keeps the fastest (the usual
/// min-of-N wall-clock protocol).
///
/// # Errors
///
/// Propagates compilation failures.
pub fn timed(
    corpus: &Corpus,
    opts: &CompilerOptions,
    reps: usize,
) -> Result<Measurement, CompileError> {
    let mut best: Option<Measurement> = None;
    for _ in 0..reps.max(1) {
        let m = measure(&corpus.workload.sources(), opts, Instrumentation::default())?;
        let better = match &best {
            None => true,
            Some(b) => m.times.transforms < b.times.transforms,
        };
        if better {
            best = Some(m);
        }
    }
    Ok(best.expect("at least one rep"))
}

/// Percent change from `base` to `new` (negative = reduction).
pub fn pct(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new / base - 1.0) * 100.0
    }
}

/// `new` as a fraction of `base`, rendered like "0.65x".
pub fn ratio(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        new / base
    }
}

/// The host a measurement ran on, as a JSON object: logical CPUs available
/// to the process and the CPU model (the first `model name` line of
/// `/proc/cpuinfo`, or `"unknown"` where there is none).
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("{{\"nproc\": {nproc}, \"cpu\": \"{}\"}}", json_escape(&cpu))
}

/// Today's date in UTC as `YYYY-MM-DD`.
pub fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Civil-from-days (Howard Hinnant's algorithm), days since 1970-01-01.
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The command line of this process, program name without its directory.
pub fn command_line() -> String {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let program = std::path::Path::new(&program)
        .file_name()
        .map_or(program.clone(), |f| f.to_string_lossy().into_owned());
    std::iter::once(program)
        .chain(args)
        .collect::<Vec<_>>()
        .join(" ")
}

/// `s` with JSON string escapes applied (quotes, backslashes, controls).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The line that opens a record file's `"runs"` array; the array closes at
/// the next line that is exactly `  ]`.
const RUNS_OPEN: &str = "  \"runs\": [";
const RUNS_CLOSE: &str = "  ]";

/// A JSON record file with `run` (one JSON object, written on one line,
/// labelled `label`) added to the runs already in `previous`, replacing an
/// earlier run of the same label. Every line outside the `"runs"` array is
/// kept as it is. When `previous` has no such array (a new file), the
/// result is `head` (the lines up to the array, without a trailing newline)
/// followed by the array and the closing `}`.
pub fn record_run(previous: &str, head: &str, label: &str, run: &str) -> String {
    let (before, mut runs, after): (Vec<&str>, Vec<&str>, Vec<&str>) =
        if previous.lines().any(|l| l == RUNS_OPEN) {
            let mut lines = previous.lines();
            let before = lines.by_ref().take_while(|l| *l != RUNS_OPEN).collect();
            let runs = lines.by_ref().take_while(|l| *l != RUNS_CLOSE).collect();
            (before, runs, lines.collect())
        } else {
            (head.lines().collect(), Vec::new(), vec!["}"])
        };
    let same_label = format!("{{\"label\": \"{}\",", json_escape(label));
    runs = runs
        .into_iter()
        .map(|r| r.trim().trim_end_matches(','))
        .filter(|r| !r.is_empty() && !r.starts_with(&same_label))
        .chain(std::iter::once(run))
        .collect();
    let runs: Vec<String> = runs.iter().map(|r| format!("    {r}")).collect();
    let mut out: Vec<String> = before.iter().map(|l| l.to_string()).collect();
    out.push(RUNS_OPEN.to_string());
    out.push(runs.join(",\n"));
    out.push(RUNS_CLOSE.to_string());
    out.extend(after.iter().map(|l| l.to_string()));
    out.join("\n") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_stamp_is_well_formed() {
        let date = utc_date();
        assert_eq!(date.len(), 10, "{date}");
        assert!(date.as_bytes()[4] == b'-' && date.as_bytes()[7] == b'-');
        assert!(host_json().starts_with("{\"nproc\": "));
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn record_run_keeps_the_rest_of_the_file_and_replaces_a_label() {
        let head = "{\n  \"benchmark\": \"x\",";
        let one = record_run("", head, "a", "{\"label\": \"a\", \"v\": 1}");
        assert_eq!(
            one,
            "{\n  \"benchmark\": \"x\",\n  \"runs\": [\n    {\"label\": \"a\", \"v\": 1}\n  ]\n}\n"
        );
        let two = record_run(&one, head, "b", "{\"label\": \"b\", \"v\": 2}");
        assert!(two.contains("\"v\": 1},\n    {\"label\": \"b\""), "{two}");
        // A re-recorded label replaces its run; lines outside the array,
        // here a hand-written block before it, are kept.
        let edited = two.replace("\"x\",\n", "\"x\",\n  \"history\": {\"kept\": true},\n");
        let three = record_run(&edited, head, "a", "{\"label\": \"a\", \"v\": 3}");
        assert_eq!(
            three,
            "{\n  \"benchmark\": \"x\",\n  \"history\": {\"kept\": true},\n  \"runs\": [\n    \
             {\"label\": \"b\", \"v\": 2},\n    {\"label\": \"a\", \"v\": 3}\n  ]\n}\n"
        );
        assert_eq!(
            record_run(&three, head, "a", "{\"label\": \"a\", \"v\": 3}"),
            three
        );
    }
}
