//! # lambek-bench — the benchmark harness
//!
//! Every `cargo bench` target in this crate is a plain `fn main()` that
//! times through the helpers here, so all of them share one estimator
//! and one knob:
//!
//! * the paper-figure benches (`fig*`, `c4*`, `ablations`, …) print one
//!   `group/name/param  <time> /iter` line per case through [`bench()`];
//! * the JSON benches (`certify`, `frontend`, `lex_hot`, `obs`,
//!   `serving`) build [`row`]s and hand their sections to
//!   [`run_sections`], which writes `BENCH_<name>.json` at the repo
//!   root.
//!
//! `BENCH_SAMPLE_MS` (default 20) bounds each timed sample;
//! `BENCH_SECTION` is set only on the child processes [`run_sections`]
//! spawns.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Timed samples per measurement, after one warm-up call.
const SAMPLES: usize = 5;

fn sample_budget() -> Duration {
    let ms = std::env::var("BENCH_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    Duration::from_millis(ms)
}

/// One timed sample: calls `f` until the `BENCH_SAMPLE_MS` budget
/// elapses (at least once) and returns seconds per iteration.
pub fn sample<R>(f: &mut impl FnMut() -> R) -> f64 {
    let budget = sample_budget();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        std::hint::black_box(f());
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Seconds per iteration of `f`: one warm-up call, then the **minimum**
/// over five [`sample`]s. Scheduler preemption and VM steal time only
/// ever slow a sample down, so the fastest sample is the one least
/// contaminated by the host.
pub fn time<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    (0..SAMPLES)
        .map(|_| sample(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Times `f` and prints one `label  <time> /iter` line.
pub fn bench<R>(label: &str, f: impl FnMut() -> R) {
    println!("{label:<50} {:>14} /iter", format_secs(time(f)));
}

fn format_secs(s: f64) -> String {
    match s {
        s if s < 1e-6 => format!("{:.0} ns", s * 1e9),
        s if s < 1e-3 => format!("{:.2} us", s * 1e6),
        s if s < 1.0 => format!("{:.2} ms", s * 1e3),
        s => format!("{s:.2} s"),
    }
}

/// One row of a `BENCH_*.json` section: `{ "key": value, … }`, indented
/// to sit inside the section's array.
pub fn row(pairs: &[(&str, f64)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.9}"))
        .collect();
    format!("    {{ {} }}", fields.join(", "))
}

/// Cores available to this process; every `BENCH_*.json` records it,
/// since queue and pool numbers depend on it.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model (`/proc/cpuinfo`'s first `model name`), or `"unknown"`.
fn cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The compiler that built the bench (`rustc -V`), or `"unknown"`.
fn rustc() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A named section of a JSON bench and the function producing its rows.
pub type Section = (&'static str, fn() -> Vec<String>);

/// The `main` of a JSON bench. Each section runs in its own child
/// process (this binary re-executed with `BENCH_SECTION=<section>`), so
/// every section measures on a fresh heap: a section that churns the
/// allocator with millions of short-lived tokens otherwise inflates the
/// next one's numbers by up to ~2.5×. Sections print human-readable
/// lines on stderr and their rows on stdout; the parent writes
/// `BENCH_<name>.json` at the repo root, one key per section plus the
/// machine it ran on: `cores`, `cpu` and `rustc`.
pub fn run_sections(name: &str, sections: &[Section]) {
    if let Ok(wanted) = std::env::var("BENCH_SECTION") {
        let (_, run) = sections
            .iter()
            .find(|(key, _)| *key == wanted)
            .unwrap_or_else(|| panic!("{name} has no section {wanted:?}"));
        print!("{}", run().join(",\n"));
        return;
    }
    let exe = std::env::current_exe().expect("own executable path");
    let mut json = format!(
        "{{\n  \"cores\": {},\n  \"cpu\": {},\n  \"rustc\": {}",
        cores(),
        json_str(&cpu()),
        json_str(&rustc())
    );
    for (key, _) in sections {
        let out = std::process::Command::new(&exe)
            .env("BENCH_SECTION", key)
            .stderr(std::process::Stdio::inherit())
            .output()
            .unwrap_or_else(|e| panic!("spawn {key} section: {e}"));
        assert!(out.status.success(), "{key} section failed");
        let rows = String::from_utf8(out.stdout).expect("section rows are UTF-8");
        json.push_str(&format!(",\n  \"{key}\": [\n{rows}\n  ]"));
    }
    json.push_str("\n}\n");
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_of_a_trivial_closure_is_finite_and_positive() {
        let mut n = 0u64;
        let secs = time(|| {
            n = n.wrapping_add(1);
            n
        });
        assert!(secs.is_finite() && secs > 0.0, "{secs}");
    }

    #[test]
    fn json_str_escapes_quotes_and_backslashes() {
        assert_eq!(json_str(r#"a "b" \c"#), r#""a \"b\" \\c""#);
    }

    #[test]
    fn row_renders_the_bench_json_row_format() {
        assert_eq!(row(&[("a", 1.0)]), "    { \"a\": 1.000000000 }");
        assert_eq!(
            row(&[("bytes", 1024.0), ("raw_s", 0.5)]),
            "    { \"bytes\": 1024.000000000, \"raw_s\": 0.500000000 }"
        );
    }
}
