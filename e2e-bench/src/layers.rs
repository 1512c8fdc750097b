//! The traced run: per-layer attribution from outside the program.
//!
//! The benchmark times calls into each layer's public functions from its
//! own code — the engines in a bare pass, `Runtime::submit_streaming` from
//! the clients, `Planner::plan`, `GridPool::lease_*` and the kernel
//! specializer standalone — and reads the runtime's own per-job trace
//! (`RuntimeConfig::trace_out`, checked with `validate_trace_file`) for
//! the phases it cannot reach: queue wait, execution attempts, shadow and
//! stream hand-off. Counters come from `Runtime::metrics()`.

use crate::bare::{self, BareRun, Engine};
use crate::gen::{Job, Workload};
use crate::golden;
use crate::serve::{self, Round, Session, Setups};
use crate::stats::{self, median, pct, Metric};
use crate::Report;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use stencil_runtime::planner::PlanMode;
use stencil_runtime::{
    validate_trace_file, Backend, GridPool, MetricsRegistry, Planner, PlannerConfig, PoolConfig,
    TraceRecord,
};

/// The per-layer metrics, in report order, with their units.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("admit.submit_p50_us", "us"),
    ("admit.share", "ratio"),
    ("queue.wait_p50_ms", "ms"),
    ("queue.wait_p90_ms", "ms"),
    ("queue.refused", "count"),
    ("queue.share", "ratio"),
    ("planner.plan_p50_us", "us"),
    ("planner.cache_hit_rate", "ratio"),
    ("planner.explored_frac", "ratio"),
    ("worker.exec_p50_ms", "ms"),
    ("worker.exec_p90_ms", "ms"),
    ("worker.exec_cells_per_s", "cells/s"),
    ("worker.overhead_frac", "ratio"),
    ("worker.exec_share", "ratio"),
    ("pool.hit_rate", "ratio"),
    ("pool.resident_mb", "MB"),
    ("pool.lease_p50_us", "us"),
    ("memo.kernel_hit_rate", "ratio"),
    ("specialize.compile_ms", "ms"),
    ("bare.functional.cells_per_s", "cells/s"),
    ("functional.first_pass_ms", "ms"),
    ("functional.later_pass_ms", "ms"),
    ("functional.halo_frac", "ratio"),
    ("functional.bytes_per_cell", "B/cell"),
    ("bare.cpu_engine.cells_per_s", "cells/s"),
    ("bare.serial_ref.cells_per_s", "cells/s"),
    ("shadow.frac", "ratio"),
    ("shadow.p50_ms", "ms"),
    ("shadow.share", "ratio"),
    ("bare.kernel_exec.cells_per_s", "cells/s"),
    ("program.exec_p50_ms", "ms"),
    ("bare.cluster.cells_per_s", "cells/s"),
    ("stream.p50_us", "us"),
    ("steal.hit_rate", "ratio"),
    ("batch.batched_frac", "ratio"),
    ("tenant.served_ratio", "ratio"),
    ("bare.cells_per_s", "cells/s"),
    ("serve.vs_bare", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
    ("loadgen.late_p90_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("failed_frac", "ratio"),
    ("oracle.agree_frac", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Cells per second over a set of bare runs.
fn rate<'a>(runs: impl Iterator<Item = &'a BareRun>) -> f64 {
    let (cells, secs) = runs.fold((0.0, 0.0), |(c, s), r| (c + r.cells as f64, s + r.secs));
    ratio(cells, secs)
}

fn trace_path(w: Workload, k: usize) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-{}-{k}.jsonl",
            w.name(),
            std::process::id()
        ))
}

/// Trace records of list jobs (warm-up jobs dropped), validated first.
fn read_trace(path: &Path, invalid: &mut Vec<String>) -> Vec<TraceRecord> {
    if let Err(why) = validate_trace_file(path) {
        invalid.push(format!("trace file fails validation: {why}"));
    }
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let _ = std::fs::remove_file(path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::remove_dir(dir);
    }
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.contains("\"trace_footer\""))
        .filter_map(|l| serde_json::from_str::<TraceRecord>(l).ok())
        .filter(|r| r.id < serve::WARMUP_ID_BASE)
        .collect()
}

/// `Planner::plan` timed on a standalone planner over the list's
/// auto-planned jobs, in µs.
fn plan_times(list: &[Job]) -> Vec<f64> {
    let planner = Planner::new(PlannerConfig::default());
    let metrics = MetricsRegistry::new();
    list.iter()
        .filter(|j| j.spec.plan == PlanMode::Auto && j.spec.program.is_none())
        .filter_map(|j| {
            let t = Instant::now();
            let planned = planner.plan(&j.spec, &Backend::ALL, &metrics);
            let us = t.elapsed().as_secs_f64() * 1e6;
            planned.ok().map(|a| {
                planner.release(&a);
                us
            })
        })
        .collect()
}

/// `GridPool::lease_*` timed on a standalone pool: input, output and
/// scratch per job, returned between jobs as the runtime does, in µs.
fn lease_times(list: &[Job]) -> Vec<f64> {
    let pool = Arc::new(GridPool::new(
        &MetricsRegistry::new(),
        PoolConfig::default(),
    ));
    let mut times = Vec::with_capacity(list.len() * 3);
    for job in list.iter().filter(|j| j.spec.program.is_none()) {
        let s = &job.spec;
        if s.dim == 2 {
            let leases: Vec<_> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let l = pool.lease_2d(s.nx, s.ny);
                    times.push(t.elapsed().as_secs_f64() * 1e6);
                    l
                })
                .collect();
            drop(leases);
        } else {
            let leases: Vec<_> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let l = pool.lease_3d(s.nx, s.ny, s.nz);
                    times.push(t.elapsed().as_secs_f64() * 1e6);
                    l
                })
                .collect();
            drop(leases);
        }
    }
    times
}

/// Runs the oracles, the bare pass and alternating untraced and traced
/// serving sessions, and derives the per-layer metrics.
///
/// The goldens are computed on the oracles here, timed; `committed` (the
/// default-seed list's goldens) must agree with them.
pub fn run(
    w: Workload,
    list: &[Job],
    committed: Option<&[u64]>,
    seconds: f64,
) -> Result<Report, String> {
    let mut invalid = Vec::new();

    let (oracle, oracle_secs) = golden::goldens_timed(list);
    let goldens = committed.unwrap_or(&oracle);
    let agree = oracle.iter().zip(goldens).filter(|(a, b)| a == b).count();
    if agree != list.len() {
        invalid.push(format!(
            "{} committed goldens disagree with the oracles",
            list.len() - agree
        ));
    }
    let serial_oracle: Vec<BareRun> = oracle_secs
        .iter()
        .filter(|(i, _)| list[*i].spec.kernel.is_none() && list[*i].spec.program.is_none())
        .map(|&(i, secs)| BareRun {
            engine: Engine::SerialRef,
            secs,
            cells: list[i].spec.work_cells(),
            counters: None,
            checksum: oracle[i],
        })
        .collect();

    // Bare pass, one job at a time.
    let mut kernels = bare::Kernels::default();
    let bare_runs: Vec<BareRun> = list
        .iter()
        .map(|j| bare::run(&j.spec, &mut kernels))
        .collect();
    let bare_wrong = bare_runs
        .iter()
        .zip(goldens)
        .filter(|(r, g)| r.checksum != **g)
        .count();
    if bare_wrong > 0 {
        invalid.push(format!(
            "{bare_wrong} bare-engine outputs differ from the goldens"
        ));
    }

    // Untraced and traced sessions of one pass each, alternating until
    // `seconds` pass: one pass keeps job ids unique within each trace
    // file, which the runtime's trace validator requires.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut records = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let u = serve::session(w, list, goldens, Setups::ONCE, 0.0, 1, None)?;
        let path = trace_path(w, traced.len());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let t = serve::session(w, list, goldens, Setups::ONCE, 0.0, 1, Some(path.clone()))?;
        stats::session_checks(&u, &mut invalid);
        stats::session_checks(&t, &mut invalid);
        let recs = read_trace(&path, &mut invalid);
        let served = stats::all_samples(&t.rounds).len();
        if recs.len() != served {
            invalid.push(format!(
                "trace holds {} list-job records for {served} served jobs",
                recs.len()
            ));
        }
        untraced.push(u);
        traced.push(t);
        records.push(recs);
    }

    let metrics = per_layer(PerLayer {
        workload: w,
        list,
        bare_runs: &bare_runs,
        serial_oracle: &serial_oracle,
        compile_secs: &kernels.compile_secs,
        untraced: &untraced,
        traced: &traced,
        records: &records,
        oracle_agree: agree as f64 / list.len() as f64,
    });
    let (attempted, failed) = untraced.iter().chain(&traced).fold((0, 0), |(a, f), s| {
        let (sa, sf, _) = stats::failures(&s.rounds);
        (a + sa, f + sf)
    });
    Ok(Report {
        attempted,
        failed,
        metrics,
        invalid,
    })
}

struct PerLayer<'a> {
    workload: Workload,
    list: &'a [Job],
    bare_runs: &'a [BareRun],
    serial_oracle: &'a [BareRun],
    compile_secs: &'a [f64],
    untraced: &'a [Session],
    traced: &'a [Session],
    records: &'a [Vec<TraceRecord>],
    oracle_agree: f64,
}

fn per_layer(p: PerLayer) -> Vec<Metric> {
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let recs: Vec<&TraceRecord> = p.records.iter().flatten().collect();
    let traced_rounds: Vec<Round> = p.traced.iter().flat_map(|s| s.rounds.clone()).collect();
    let untraced_rounds: Vec<Round> = p.untraced.iter().flat_map(|s| s.rounds.clone()).collect();
    let samples = stats::all_samples(&traced_rounds);
    let served: Vec<_> = samples.iter().filter(|s| s.ok).collect();
    let latency_sum: f64 = served.iter().map(|s| s.latency_ms).sum();
    let share = |ms: f64| ratio(ms, latency_sum);
    let mut c: BTreeMap<&str, f64> = BTreeMap::new();
    for s in p.traced {
        for (k, v) in &s.counters {
            *c.entry(k).or_default() += *v as f64;
        }
    }
    let cf = |k: &str| c.get(k).copied().unwrap_or(0.0);

    // Admission, from the clients' own spans around submit_streaming.
    let submit_us: Vec<f64> = samples.iter().map(|s| s.submit_us).collect();
    let submit_ms: f64 = served.iter().map(|s| s.submit_us / 1e3).sum();
    m.insert("admit.submit_p50_us", median(&submit_us));
    m.insert("admit.share", share(submit_ms));

    // Queue, from the trace.
    let waits: Vec<f64> = recs.iter().map(|r| r.queue_wait_ms).collect();
    let wait_ms: f64 = waits.iter().sum();
    m.insert("queue.wait_p50_ms", pct(&waits, 0.5));
    m.insert("queue.wait_p90_ms", pct(&waits, 0.9));
    m.insert(
        "queue.refused",
        samples.iter().filter(|s| s.refused).count() as f64,
    );
    m.insert("queue.share", share(wait_ms));

    // Planner: standalone timing plus the runtime's counters.
    m.insert("planner.plan_p50_us", median(&plan_times(p.list)));
    m.insert(
        "planner.cache_hit_rate",
        ratio(cf("plan_cache_hits"), cf("plans_requested")),
    );
    m.insert(
        "planner.explored_frac",
        ratio(cf("plans_explored"), cf("plans_requested")),
    );

    // Worker execution, from the trace, against the bare engines.
    let exec: Vec<f64> = recs.iter().map(|r| r.exec_span_ms()).collect();
    let exec_ms: f64 = exec.iter().sum();
    let rec_cells: f64 = recs.iter().map(|r| r.cells as f64).sum();
    let passes = p.traced.len().max(1) as f64;
    let bare_ms: f64 = p.bare_runs.iter().map(|r| r.secs * 1e3).sum();
    m.insert("worker.exec_p50_ms", pct(&exec, 0.5));
    m.insert("worker.exec_p90_ms", pct(&exec, 0.9));
    m.insert("worker.exec_cells_per_s", ratio(rec_cells, exec_ms / 1e3));
    m.insert(
        "worker.overhead_frac",
        ratio(exec_ms / passes - bare_ms, exec_ms / passes),
    );
    m.insert("worker.exec_share", share(exec_ms));

    // Pool and memo.
    m.insert(
        "pool.hit_rate",
        ratio(cf("pool_hits"), cf("pool_hits") + cf("pool_misses")),
    );
    m.insert(
        "pool.resident_mb",
        p.traced.last().map_or(0, |s| s.pool_resident_bytes) as f64 / (1 << 20) as f64,
    );
    m.insert("pool.lease_p50_us", median(&lease_times(p.list)));
    m.insert(
        "memo.kernel_hit_rate",
        ratio(
            cf("kernel_memo_hits"),
            cf("kernel_memo_hits") + cf("kernel_memo_misses"),
        ),
    );
    let compile_ms: Vec<f64> = p.compile_secs.iter().map(|s| s * 1e3).collect();
    m.insert("specialize.compile_ms", median(&compile_ms));

    // Engines, bare.
    let of = |e: Engine| p.bare_runs.iter().filter(move |r| r.engine == e);
    m.insert("bare.functional.cells_per_s", rate(of(Engine::Functional)));
    m.insert("bare.cpu_engine.cells_per_s", rate(of(Engine::Cpu)));
    m.insert("bare.kernel_exec.cells_per_s", rate(of(Engine::KernelExec)));
    m.insert("bare.cluster.cells_per_s", rate(of(Engine::Cluster)));
    m.insert(
        "bare.serial_ref.cells_per_s",
        rate(of(Engine::SerialRef).chain(p.serial_oracle)),
    );
    let counters: Vec<_> = p
        .bare_runs
        .iter()
        .filter_map(|r| r.counters.as_ref())
        .collect();
    let first: Vec<f64> = counters
        .iter()
        .filter_map(|c| c.pass_seconds.first().map(|s| s * 1e3))
        .collect();
    let later: Vec<f64> = counters
        .iter()
        .filter(|c| c.pass_seconds.len() > 1)
        .map(|c| c.pass_seconds[1..].iter().sum::<f64>() / (c.pass_seconds.len() - 1) as f64 * 1e3)
        .collect();
    let sim_cells: f64 = counters.iter().map(|c| c.cells_updated as f64).sum();
    m.insert("functional.first_pass_ms", median(&first));
    m.insert("functional.later_pass_ms", median(&later));
    m.insert(
        "functional.halo_frac",
        ratio(
            counters.iter().map(|c| c.halo_cells as f64).sum(),
            sim_cells,
        ),
    );
    m.insert(
        "functional.bytes_per_cell",
        ratio(
            counters.iter().map(|c| c.bytes_moved as f64).sum(),
            sim_cells,
        ),
    );

    // Shadow verification, from the trace.
    let shadow: Vec<f64> = recs.iter().filter_map(|r| r.shadow_ms).collect();
    m.insert("shadow.frac", ratio(shadow.len() as f64, recs.len() as f64));
    m.insert("shadow.p50_ms", median(&shadow));
    m.insert("shadow.share", share(shadow.iter().sum()));

    // Programs and stream hand-off, from the trace.
    let prog_exec: Vec<f64> = recs
        .iter()
        .filter(|r| r.program_nodes > 0)
        .map(|r| r.exec_span_ms())
        .collect();
    m.insert("program.exec_p50_ms", median(&prog_exec));
    let stream: Vec<f64> = recs.iter().filter_map(|r| r.stream_ms).collect();
    m.insert(
        "stream.p50_us",
        median(&stream.iter().map(|ms| ms * 1e3).collect::<Vec<_>>()),
    );

    // Scheduling mechanisms, from the runtime's counters.
    m.insert("steal.hit_rate", ratio(cf("steal_hits"), cf("steals")));
    m.insert(
        "batch.batched_frac",
        ratio(cf("batched_jobs"), cf("jobs_admitted")),
    );
    let mut by_tenant: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in &served {
        by_tenant
            .entry(p.list[s.idx].spec.tenant.name())
            .or_default()
            .push(s.latency_ms);
    }
    let tenant_p90: Vec<f64> = by_tenant.values().map(|v| pct(v, 0.9)).collect();
    m.insert(
        "tenant.served_ratio",
        ratio(
            tenant_p90.iter().copied().fold(f64::INFINITY, f64::min),
            tenant_p90.iter().copied().fold(0.0, f64::max),
        ),
    );

    // Whole job: the untraced serve rate against the bare engines.
    let bare_rate = rate(p.bare_runs.iter());
    let serve_rate = median(
        &untraced_rounds
            .iter()
            .map(|r| stats::round_cells_per_s(p.list, r))
            .collect::<Vec<_>>(),
    );
    m.insert("bare.cells_per_s", bare_rate);
    m.insert("serve.vs_bare", ratio(serve_rate, bare_rate));

    // Trace health: tracing cost, attribution, load generator, tail.
    let mean_latency = |rounds: &[Round]| {
        let v = stats::latencies(rounds);
        ratio(v.iter().sum(), v.len() as f64)
    };
    m.insert(
        "trace.overhead_frac",
        ratio(mean_latency(&traced_rounds), mean_latency(&untraced_rounds)) - 1.0,
    );
    let late_ms: f64 = served.iter().map(|s| s.late_ms).sum();
    let stream_ms: f64 = stream.iter().sum();
    let attributed_frac = share(attributed_ms(p.list, p.traced, p.records));
    m.insert("trace.attributed_frac", attributed_frac);
    m.insert("loadgen.late_p90_ms", stats::late_p90_ms(&traced_rounds));
    m.insert(
        "client.latency_p99_ms",
        pct(&stats::latencies(&traced_rounds), 0.99),
    );
    let (att_u, fail_u, _) = stats::failures(&untraced_rounds);
    let (att_t, fail_t, _) = stats::failures(&traced_rounds);
    m.insert(
        "failed_frac",
        ratio((fail_u + fail_t) as f64, (att_u + att_t) as f64),
    );
    m.insert("oracle.agree_frac", p.oracle_agree);

    eprintln!(
        "{}: spans cover {:.1}% of client latency (time in admission {:.1}%, queue {:.1}%, \
         exec {:.1}%, shadow {:.1}%, stream {:.1}%, generator lateness {:.1}%; these \
         overlap where a worker starts a job before submit returns); unattributed \
         {:.1}%: result hand-off to the client thread and runtime bookkeeping \
         between spans",
        p.workload.name(),
        100.0 * attributed_frac,
        100.0 * share(submit_ms),
        100.0 * share(wait_ms),
        100.0 * share(exec_ms),
        100.0 * share(shadow.iter().sum()),
        100.0 * share(stream_ms),
        100.0 * share(late_ms),
        100.0 * (1.0 - attributed_frac),
    );
    if attributed_frac < 0.95 {
        eprintln!("{}: attribution below the 95% target", p.workload.name());
    }

    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, m[name]))
        .collect()
}

/// Client latency covered by the union of a job's spans, summed over the
/// traced jobs: generator lateness, the submit call, queue wait, every
/// execution attempt, shadow verification and the stream hand-off, all
/// on the runtime's trace clock.
fn attributed_ms(list: &[Job], sessions: &[Session], records: &[Vec<TraceRecord>]) -> f64 {
    let mut total = 0.0;
    for (session, recs) in sessions.iter().zip(records) {
        let by_id: HashMap<u64, &TraceRecord> = recs.iter().map(|r| (r.id, r)).collect();
        let at = |i: Instant| i.saturating_duration_since(session.epoch).as_secs_f64() * 1e3;
        for round in &session.rounds {
            for s in round.samples.iter().filter(|s| s.ok) {
                let (Some(t), Some(r)) = (s.times, by_id.get(&list[s.idx].spec.id)) else {
                    continue;
                };
                let (lo, hi) = (at(t.origin), at(t.received));
                let mut spans = vec![(lo, at(t.submit)), (at(t.submit), at(t.submitted))];
                spans.push((r.exec_start_ms - r.queue_wait_ms, r.exec_start_ms));
                let mut last_end = r.exec_start_ms;
                for a in &r.attempts {
                    spans.push((a.start_ms, a.start_ms + a.exec_ms + a.backoff_ms));
                    last_end = a.start_ms + a.exec_ms;
                }
                if let Some(ms) = r.shadow_ms {
                    spans.push((last_end, last_end + ms));
                }
                if let Some(ms) = r.stream_ms {
                    spans.push((r.done_ms, r.done_ms + ms));
                }
                total += union_within(&mut spans, lo, hi);
            }
        }
    }
    total
}

/// Length of the union of `spans`, clipped to `[lo, hi]`.
fn union_within(spans: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut covered, mut reach) = (0.0, lo);
    for &(a, b) in spans.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}
