//! Metric values, percentiles, the end-to-end report and the JSON line.

use crate::gen::Job;
use crate::serve::{Round, Sample, Session};
use crate::Report;
use stencil_runtime::metrics::exact_quantile_ms;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// Nearest-rank percentile (`q` in 0..=1), the runtime's one method.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    exact_quantile_ms(samples, q)
}

pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 0.5)
}

/// Completed jobs per second of one round.
pub fn round_jobs_per_s(r: &Round) -> f64 {
    r.completed() as f64 / r.wall_s
}

/// Useful cell updates of completed jobs per second of one round.
pub fn round_cells_per_s(list: &[Job], r: &Round) -> f64 {
    let cells: u64 = r
        .samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| list[s.idx].spec.work_cells())
        .sum();
    cells as f64 / r.wall_s
}

pub fn all_samples(rounds: &[Round]) -> Vec<&Sample> {
    rounds.iter().flat_map(|r| &r.samples).collect()
}

/// Latencies of every correctly served job over all rounds.
pub fn latencies(rounds: &[Round]) -> Vec<f64> {
    all_samples(rounds)
        .into_iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_ms)
        .collect()
}

/// Jobs per open-loop latency window: 2 s of arrivals at the fixed rate.
pub const OPEN_WINDOW_JOBS: usize = 2 * crate::gen::MIXED_OPEN_RATE as usize;

/// Latencies of correctly served jobs at reference host speed (each over
/// its round's host factor), per measurement window: a closed round, or
/// [`OPEN_WINDOW_JOBS`] consecutive arrivals of an open segment. Gated
/// percentiles are medians of per-window percentiles, so a few seconds of
/// interference from outside the process move one window, not the result.
pub fn latency_windows(rounds: &[Round], open: bool) -> Vec<Vec<f64>> {
    let window = if open { OPEN_WINDOW_JOBS } else { usize::MAX };
    rounds
        .iter()
        .flat_map(|r| {
            r.samples
                .chunks(window.min(r.samples.len().max(1)))
                .map(|w| {
                    w.iter()
                        .filter(|s| s.ok)
                        .map(|s| s.latency_ms / r.host)
                        .collect()
                })
        })
        .collect()
}

/// Median over windows of the per-window `q` percentile.
pub fn windowed_pct(windows: &[Vec<f64>], q: f64) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| pct(w, q))
        .collect();
    median(&per)
}

/// Whether the `q` percentile sits on the boundary between the shadowed
/// and unshadowed populations: the two barely overlap (the 10th
/// percentile of the slow one is above the 90th of the fast one) and the
/// slow one's share is within 2.5 points of `1 - q`, so a job more or
/// less in either population moves the percentile from one to the other.
pub fn on_population_boundary(samples: &[&Sample], q: f64) -> bool {
    let ok: Vec<&&Sample> = samples.iter().filter(|s| s.ok).collect();
    let split = |flag: bool| -> Vec<f64> {
        ok.iter()
            .filter(|s| s.shadowed == flag)
            .map(|s| s.latency_ms)
            .collect()
    };
    let (slow, fast) = (split(true), split(false));
    if slow.is_empty() || fast.is_empty() || pct(&slow, 0.1) <= pct(&fast, 0.9) {
        return false;
    }
    let slow_share = slow.len() as f64 / ok.len() as f64;
    (slow_share - (1.0 - q)).abs() < 0.025
}

/// Failures of a session: refused, not completed, wrong checksum or
/// shadow mismatch, with the first reasons.
pub fn failures(rounds: &[Round]) -> (usize, usize, Vec<String>) {
    let samples = all_samples(rounds);
    let failed: Vec<&&Sample> = samples.iter().filter(|s| !s.ok).collect();
    let reasons = failed
        .iter()
        .take(5)
        .map(|s| format!("job #{}: {}", s.idx, s.why.as_deref().unwrap_or("?")))
        .collect();
    (samples.len(), failed.len(), reasons)
}

/// Validity checks shared by both run kinds.
pub fn session_checks(session: &Session, invalid: &mut Vec<String>) {
    if session.wedged_workers != 0 {
        invalid.push(format!("{} wedged workers", session.wedged_workers));
    }
    if session.trace_records_written != session.results as u64 {
        invalid.push(format!(
            "trace lost records: {} written for {} results",
            session.trace_records_written, session.results
        ));
    }
    let samples = all_samples(&session.rounds);
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
        if on_population_boundary(&samples, q) {
            invalid.push(format!(
                "{name} sits on the boundary between shadowed and unshadowed jobs"
            ));
        }
    }
    let late = late_p90_ms(&session.rounds);
    if late > LATE_LIMIT_MS {
        invalid.push(format!(
            "open-loop generator fell behind: late p90 {late:.2} ms > {LATE_LIMIT_MS} ms"
        ));
    }
    let (_, failed, reasons) = failures(&session.rounds);
    if failed > 0 {
        invalid.push(format!("{failed} jobs failed: {}", reasons.join("; ")));
    }
}

/// How late the open-loop generator may submit (p90) before a run is
/// invalid rather than slow.
pub const LATE_LIMIT_MS: f64 = 5.0;

pub fn late_p90_ms(rounds: &[Round]) -> f64 {
    let late: Vec<f64> = all_samples(rounds).iter().map(|s| s.late_ms).collect();
    pct(&late, 0.9)
}

/// The end-to-end report of an untraced session.
pub fn end_to_end(list: &[Job], session: &Session, open: bool) -> Report {
    let rounds = &session.rounds;
    // Latencies, set-up times and closed-loop rates at reference host
    // speed: each figure over (times) or times (rates) the host factor
    // around it. Open-loop rates are the offered load, taken over the
    // whole schedule as served.
    let (jps, cps): (Vec<f64>, Vec<f64>) = if open {
        let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
        let jobs: f64 = rounds.iter().map(|r| round_jobs_per_s(r) * r.wall_s).sum();
        let cells: f64 = rounds
            .iter()
            .map(|r| round_cells_per_s(list, r) * r.wall_s)
            .sum();
        (vec![jobs / wall], vec![cells / wall])
    } else {
        rounds
            .iter()
            .map(|r| {
                (
                    round_jobs_per_s(r) * r.host,
                    round_cells_per_s(list, r) * r.host,
                )
            })
            .unzip()
    };
    let setup: Vec<f64> = session
        .setup_s
        .iter()
        .zip(&session.setup_host)
        .map(|(s, h)| s / h)
        .collect();
    let windows = latency_windows(rounds, open);
    let (attempted, failed, _) = failures(rounds);
    let mut invalid = Vec::new();
    session_checks(session, &mut invalid);
    let metrics = vec![
        Metric::new("jobs_per_s", "1/s", median(&jps)),
        Metric::new("cells_per_s", "cells/s", median(&cps)),
        Metric::new("latency_p50_ms", "ms", windowed_pct(&windows, 0.5)),
        Metric::new("latency_p90_ms", "ms", windowed_pct(&windows, 0.9)),
        Metric::new("setup_s", "s", median(&setup)),
        Metric::new(
            "peak_rss_mb",
            "MB",
            median(&rounds.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
        ),
        Metric::new(
            "completed_frac",
            "ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
    ];
    let warmup = crate::serve::warmup_jobs(list);
    eprintln!(
        "set-up: {} warm-up jobs, {} cells; seconds per set-up: {}",
        warmup.len(),
        warmup
            .iter()
            .map(|&i| list[i].spec.work_cells())
            .sum::<u64>(),
        session
            .setup_s
            .iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "{} rounds; jobs/s per round: {}; p90 per window: {}",
        rounds.len(),
        jps.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" "),
        windows
            .iter()
            .map(|w| format!("{:.1}", pct(w, 0.9)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    // The figures as served, for comparison.
    let mut unscaled = rounds.to_vec();
    for r in &mut unscaled {
        r.host = 1.0;
    }
    let raw_windows = latency_windows(&unscaled, open);
    eprintln!(
        "host factor per round: {}",
        rounds
            .iter()
            .map(|r| format!("{:.2}", r.host))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "unscaled: jobs/s {:.1}, p50 {:.3} ms, p90 {:.3} ms, setup {:.4} s",
        median(&rounds.iter().map(round_jobs_per_s).collect::<Vec<_>>()),
        windowed_pct(&raw_windows, 0.5),
        windowed_pct(&raw_windows, 0.9),
        median(&session.setup_s)
    );
    Report {
        attempted,
        failed,
        metrics,
        invalid,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The final stdout line.
pub fn result_json(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
