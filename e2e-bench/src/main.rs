//! End-to-end serving benchmark for `stencil-runtime`.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload star-small|grid-large|mixed-open|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Serves a seeded job list through the public `Runtime` API with the
//! shipped `RuntimeConfig::default()`, checks every result against its
//! golden checksum, and prints the metrics as one JSON object on the last
//! line of stdout. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics of a separate traced run. Exits 1 when a
//! validity check fails, 2 on bad arguments. `--workload all` runs the
//! three workloads one after another, each in a process of its own.
//! `--write-lists` regenerates the committed default-seed lists under
//! `e2e-bench/data/`.

mod bare;
mod calib;
mod gen;
mod golden;
mod grids;
mod layers;
mod serve;
mod stats;

use gen::{Job, Workload};
use serve::Setups;
use stats::Metric;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed and seconds the committed lists were generated with.
pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: f64 = 40.0;
/// Set-ups per run, at least; more while they take under a tenth of
/// `--seconds`. `setup_s` is their median.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 61;
/// Measured rounds per run, at least: closed-loop rates are medians of
/// three rounds or more; the open-loop list alone spans `--seconds`.
pub fn min_rounds(w: Workload) -> usize {
    if w.clients().is_some() {
        3
    } else {
        1
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!(
        "usage: e2e-bench --workload <star-small|grid-large|mixed-open|all> --seed <n> \
         --seconds <s> --trace <0|1>\n       e2e-bench --write-lists"
    );
    std::process::exit(2);
}

fn parse_args(raw: &[String]) -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// Directory of the committed lists, next to this package's manifest.
fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("data")
}

fn list_path(w: Workload) -> PathBuf {
    data_dir().join(format!("{}.jsonl", w.name()))
}

/// Whether the committed list applies: the default seed, and for the
/// open loop (whose list length follows `--seconds`) the default seconds.
fn committed_applies(w: Workload, seed: u64, seconds: f64) -> bool {
    seed == DEFAULT_SEED && (w.clients().is_some() || seconds == DEFAULT_SECONDS)
}

/// Golden checksums for `list`: read from the committed list when it
/// applies (after checking the committed specs are exactly the generated
/// ones), computed on the oracles otherwise.
fn goldens_for(args: &Args, list: &[Job]) -> Result<Vec<u64>, String> {
    let w = args.workload;
    if !committed_applies(w, args.seed, args.seconds) {
        return Ok(golden::goldens(list));
    }
    let path = list_path(w);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("committed list {}: {e}", path.display()))?;
    let committed = golden::parse_lines(&text)?;
    if committed.len() != list.len() {
        return Err(format!(
            "committed list has {} jobs, generator made {}",
            committed.len(),
            list.len()
        ));
    }
    for (k, ((spec, due, _), job)) in committed.iter().zip(list).enumerate() {
        if *spec != job.spec || *due != job.due_us {
            return Err(format!(
                "committed list line {} differs from the generator",
                k + 1
            ));
        }
    }
    Ok(committed.into_iter().map(|(_, _, g)| g).collect())
}

fn write_lists() -> Result<(), String> {
    std::fs::create_dir_all(data_dir()).map_err(|e| e.to_string())?;
    for w in Workload::ALL {
        let list = gen::generate(w, DEFAULT_SEED, DEFAULT_SECONDS);
        let mut text = String::new();
        for (job, g) in list.iter().zip(golden::goldens(&list)) {
            text.push_str(&golden::to_line(job, g));
            text.push('\n');
        }
        std::fs::write(list_path(w), text).map_err(|e| e.to_string())?;
        eprintln!("wrote {} ({} jobs)", list_path(w).display(), list.len());
    }
    Ok(())
}

/// The outcome of one benchmark run.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Failed validity checks; the run is invalid when any exist.
    pub invalid: Vec<String>,
}

fn end_to_end(args: &Args, list: &[Job], goldens: &[u64]) -> Result<Report, String> {
    let session = serve::session(
        args.workload,
        list,
        goldens,
        Setups {
            min: MIN_SETUPS,
            max: MAX_SETUPS,
            budget_s: args.seconds / 10.0,
        },
        args.seconds,
        min_rounds(args.workload),
        None,
    )?;
    Ok(stats::end_to_end(
        list,
        &session,
        args.workload.clients().is_none(),
    ))
}

fn run(args: &Args) -> Result<Report, String> {
    let list = gen::generate(args.workload, args.seed, args.seconds);
    let t = Instant::now();
    // The traced run times the oracles itself, so it only needs the
    // committed goldens to compare against.
    let goldens = if args.trace && !committed_applies(args.workload, args.seed, args.seconds) {
        None
    } else {
        Some(goldens_for(args, &list)?)
    };
    eprintln!(
        "{}: {} jobs, seed {}, goldens in {:.2}s",
        args.workload.name(),
        list.len(),
        args.seed,
        t.elapsed().as_secs_f64()
    );
    match goldens {
        Some(g) if !args.trace => end_to_end(args, &list, &g),
        committed => layers::run(args.workload, &list, committed.as_deref(), args.seconds),
    }
}

/// `--workload all`: each workload in a child process of this binary, so
/// each reports its own peak RSS. Exits 1 when any of them fails.
fn run_all(mut raw: Vec<String>, name_at: usize) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| usage(&format!("own path: {e}")));
    let mut failed = false;
    for w in Workload::ALL {
        raw[name_at] = w.name().to_string();
        let status = std::process::Command::new(&exe).args(&raw).status();
        failed |= !status.is_ok_and(|s| s.success());
    }
    std::process::exit(i32::from(failed));
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--write-lists") {
        if let Err(why) = write_lists() {
            eprintln!("error: {why}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(at) = raw.windows(2).position(|w| w == ["--workload", "all"]) {
        run_all(raw, at + 1);
    }
    let args = parse_args(&raw);
    let report = match run(&args) {
        Ok(r) => r,
        Err(why) => {
            eprintln!("error: {why}");
            std::process::exit(1);
        }
    };
    for m in &report.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for why in &report.invalid {
        println!("INVALID: {why}");
    }
    let correct = report.invalid.is_empty() && report.failed == 0;
    println!("{}", stats::result_json(correct, &report));
    if !correct {
        std::process::exit(1);
    }
}
