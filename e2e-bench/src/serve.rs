//! Serving a job list through the public `Runtime` API: set-up with a
//! cold warm-up pass, closed-loop clients, the open-loop generator and
//! collector, and per-job samples checked against the goldens.

use crate::calib;
use crate::gen::{self, Job};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use stencil_runtime::planner::PlanMode;
use stencil_runtime::{JobResult, JobSpec, Outcome, ResultStream, Runtime, RuntimeConfig};

/// One job as a client saw it in a measured round.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the job list.
    pub idx: usize,
    /// Submit (closed loop) or due time (open loop) to result, in ms.
    pub latency_ms: f64,
    /// Time spent inside `Runtime::submit_streaming`, in µs.
    pub submit_us: f64,
    /// Open loop: how late the generator submitted, in ms.
    pub late_ms: f64,
    /// The runtime shadow-verified the job.
    pub shadowed: bool,
    /// Completed, golden checksum, no shadow mismatch.
    pub ok: bool,
    /// Refused at submission (counts as a failure).
    pub refused: bool,
    /// Why the job failed, when it did.
    pub why: Option<String>,
    /// When it happened, for jobs that replied.
    pub times: Option<Times>,
}

/// A served job's client-side instants.
#[derive(Debug, Clone, Copy)]
pub struct Times {
    /// Where latency is measured from: submit (closed loop) or due time.
    pub origin: Instant,
    /// Entry into and return from `Runtime::submit_streaming`.
    pub submit: Instant,
    pub submitted: Instant,
    /// The client thread has the result.
    pub received: Instant,
}

/// One pass over the whole list (closed loop) or over one segment of it
/// (open loop).
#[derive(Debug, Clone)]
pub struct Round {
    pub wall_s: f64,
    pub samples: Vec<Sample>,
    /// How slowly the host ran around this round: the reference load's
    /// time before and after it, averaged, over its reference time
    /// ([`crate::calib::REFERENCE_S`]). 1 on a host at reference speed.
    pub host: f64,
    /// Peak resident set of the process during the round, in MB.
    pub peak_rss_mb: f64,
}

impl Round {
    pub fn completed(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }
}

/// Runtime counters the per-layer report reads as deltas over the rounds.
pub const COUNTERS: [&str; 17] = [
    "jobs_admitted",
    "plans_requested",
    "plan_cache_hits",
    "plans_explored",
    "pool_hits",
    "pool_misses",
    "kernel_memo_hits",
    "kernel_memo_misses",
    "stencil_memo_hits",
    "stencil_memo_misses",
    "steals",
    "steal_hits",
    "batched_jobs",
    "shadow_runs",
    "shadow_mismatches",
    "jobs_rejected",
    "jobs_quota_rejected",
];

pub fn counters(rt: &Runtime) -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&name| (name, rt.metrics().counter(name).get()))
        .collect()
}

/// A warm-up job per distinct shape class, kernel desc and program: the
/// cheapest list job of each class (lowest radius, then fewest cells), so
/// the warm-up does the same work for every seed. Each runs under a fresh
/// id the runtime's shadow sampler skips, so set-up measures planning,
/// pool fill and kernel compilation rather than oracle runs. The class is
/// what the runtime keeps warm state for: the pool's power-of-two grid
/// class per backend, plus the radius for auto-planned jobs (the planner's
/// shape key), the desc for kernel jobs and the graph for programs.
pub fn warmup_jobs(list: &[Job]) -> Vec<usize> {
    let mut cheapest: BTreeMap<String, usize> = BTreeMap::new();
    for (i, job) in list.iter().enumerate() {
        let s = &job.spec;
        let class = |n: usize| n.next_power_of_two();
        let key = (
            s.dim,
            class(s.nx),
            class(s.ny),
            if s.dim == 3 { class(s.nz) } else { 1 },
            s.backend,
            (s.plan == PlanMode::Auto).then_some(s.rad),
            s.kernel.map(|k| (k.taps.name(), k.boundary.name(), s.seed)),
            s.program.as_ref().map(|p| p.nodes.len()),
        );
        let cost = |j: usize| (list[j].spec.rad, list[j].spec.work_cells(), j);
        cheapest
            .entry(format!("{key:?}"))
            .and_modify(|best| {
                if cost(i) < cost(*best) {
                    *best = i;
                }
            })
            .or_insert(i);
    }
    let mut picks: Vec<usize> = cheapest.into_values().collect();
    picks.sort_unstable();
    picks
}

/// First id of the warm-up range, far above any list id.
pub const WARMUP_ID_BASE: u64 = 1 << 40;

/// Starts a runtime and serves one warm-up job per class, one at a time.
/// Returns the runtime, the instant just before it started (the origin of
/// its trace timestamps, to within microseconds) and the set-up seconds.
pub fn setup(
    config: &RuntimeConfig,
    list: &[Job],
    goldens: &[u64],
) -> Result<(Runtime, Instant, f64), String> {
    let t = Instant::now();
    let rt = Runtime::start(config.clone());
    let (tx, rx) = ResultStream::bounded(1);
    let mut next_id = WARMUP_ID_BASE;
    for idx in warmup_jobs(list) {
        let mut spec = list[idx].spec.clone();
        loop {
            spec.id = next_id;
            next_id += 1;
            if !gen::shadowed(&spec) || spec.kernel.is_some() || spec.program.is_some() {
                break;
            }
        }
        rt.submit_streaming(spec, &tx)
            .map_err(|e| format!("warm-up job refused: {e}"))?;
        let r = rx.recv().ok_or("result stream closed during warm-up")?;
        if let Some(why) = failure(&r, goldens[idx]) {
            return Err(format!("warm-up job {}: {why}", list[idx].spec.id));
        }
    }
    Ok((rt, t, t.elapsed().as_secs_f64()))
}

/// Peak resident set of this process (VmHWM) since the last reset, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak-RSS count at the current resident set. Fails where
/// the kernel does not offer the reset.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS count: {e}"))
}

/// Why a result does not count as served correctly, if it does not.
fn failure(r: &JobResult, golden: u64) -> Option<String> {
    if r.outcome != Outcome::Completed {
        return Some(format!("outcome {:?}", r.outcome));
    }
    if r.checksum != Some(golden) {
        return Some(format!(
            "checksum {:016x} != golden {golden:016x}",
            r.checksum.unwrap_or(0)
        ));
    }
    if r.shadow_match == Some(false) {
        return Some("shadow mismatch".into());
    }
    None
}

fn sample_of(idx: usize, r: &JobResult, golden: u64) -> Sample {
    let why = failure(r, golden);
    Sample {
        shadowed: r.shadow_match.is_some(),
        ok: why.is_none(),
        why,
        ..Sample::failed(idx, false, String::new())
    }
}

impl Sample {
    fn failed(idx: usize, refused: bool, why: String) -> Sample {
        Sample {
            idx,
            latency_ms: 0.0,
            submit_us: 0.0,
            late_ms: 0.0,
            shadowed: false,
            ok: false,
            refused,
            why: Some(why),
            times: None,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Closed loop: `clients` threads, each submitting the next list job and
/// waiting for its reply before taking another.
pub fn closed_round(rt: &Runtime, list: &[Job], goldens: &[u64], clients: usize) -> Round {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let (tx, rx) = ResultStream::bounded(1);
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= list.len() {
                            break out;
                        }
                        let spec = list[idx].spec.clone();
                        let t0 = Instant::now();
                        let submitted = rt.submit_streaming(spec, &tx);
                        let t1 = Instant::now();
                        match submitted {
                            Err(e) => out.push(Sample::failed(idx, true, e.to_string())),
                            Ok(_) => {
                                let r = rx.recv().expect("runtime replies to every admitted job");
                                let received = Instant::now();
                                let mut smp = sample_of(idx, &r, goldens[idx]);
                                smp.latency_ms = ms(received - t0);
                                smp.submit_us = (t1 - t0).as_secs_f64() * 1e6;
                                smp.times = Some(Times {
                                    origin: t0,
                                    submit: t0,
                                    submitted: t1,
                                    received,
                                });
                                out.push(smp);
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.idx);
    Round {
        wall_s,
        samples,
        host: 1.0,
        peak_rss_mb: 0.0,
    }
}

/// Jobs per open-loop segment: four seconds of arrivals at the fixed rate.
pub const OPEN_SEGMENT_JOBS: usize = 4 * gen::MIXED_OPEN_RATE as usize;

/// The open-loop list cut into consecutive segments, each served as a
/// round of its own so the host probe runs between them.
pub fn open_segments(list: &[Job]) -> Vec<Range<usize>> {
    (0..list.len())
        .step_by(OPEN_SEGMENT_JOBS)
        .map(|a| a..(a + OPEN_SEGMENT_JOBS).min(list.len()))
        .collect()
}

/// Open loop over the segment `jobs` of the list: the calling thread
/// submits each job at its due time (counted from the segment's first
/// job), one collector thread timestamps results. Latency runs from the
/// due time. Returns once every job of the segment has replied.
pub fn open_round(rt: &Runtime, full: &[Job], all_goldens: &[u64], jobs: Range<usize>) -> Round {
    let base = jobs.start;
    let list = &full[jobs.clone()];
    let goldens = &all_goldens[jobs];
    let base_us = list.first().map_or(0, |j| j.due_us);
    let due_us = |i: usize| list[i].due_us - base_us;
    let index: HashMap<u64, usize> = list
        .iter()
        .enumerate()
        .map(|(i, j)| (j.spec.id, i))
        .collect();
    let (tx, rx) = ResultStream::bounded(list.len());
    let specs: Vec<JobSpec> = list.iter().map(|j| j.spec.clone()).collect();
    let start = Instant::now();
    let (mut samples, received) = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut got = Vec::with_capacity(list.len());
            while let Some(r) = rx.recv() {
                got.push((r, Instant::now()));
            }
            got
        });
        let mut samples = Vec::with_capacity(list.len());
        for (idx, spec) in specs.into_iter().enumerate() {
            let due = start + Duration::from_micros(due_us(idx));
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t0 = Instant::now();
            let submitted = rt.submit_streaming(spec, &tx);
            let t1 = Instant::now();
            let mut smp = match submitted {
                Err(e) => Sample::failed(idx, true, e.to_string()),
                Ok(_) => Sample::failed(idx, false, "admitted but never replied".into()),
            };
            smp.submit_us = (t1 - t0).as_secs_f64() * 1e6;
            smp.late_ms = ms(t0.saturating_duration_since(due));
            smp.times = Some(Times {
                origin: due,
                submit: t0,
                submitted: t1,
                received: t1,
            });
            samples.push(smp);
        }
        // The runtime holds a sender clone per in-flight job; the stream
        // ends once every admitted job has replied.
        drop(tx);
        (samples, collector.join().expect("collector thread"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    for (r, at) in received {
        let idx = index[&r.id];
        let due = start + Duration::from_micros(due_us(idx));
        let prev = &samples[idx];
        let mut smp = sample_of(idx, &r, goldens[idx]);
        smp.submit_us = prev.submit_us;
        smp.late_ms = prev.late_ms;
        smp.latency_ms = ms(at.saturating_duration_since(due));
        smp.times = prev.times.map(|t| Times { received: at, ..t });
        samples[idx] = smp;
    }
    for smp in &mut samples {
        smp.idx += base;
    }
    Round {
        wall_s,
        samples,
        host: 1.0,
        peak_rss_mb: 0.0,
    }
}

/// What one serving session measured.
pub struct Session {
    /// Origin of the served runtime's trace timestamps.
    pub epoch: Instant,
    /// Seconds of each set-up; the last one is the runtime served on.
    pub setup_s: Vec<f64>,
    /// The host factor around each set-up (see [`Round::host`]).
    pub setup_host: Vec<f64>,
    pub rounds: Vec<Round>,
    /// Counter deltas over the measured rounds.
    pub counters: BTreeMap<&'static str, u64>,
    pub pool_resident_bytes: i64,
    pub wedged_workers: usize,
    pub results: usize,
    pub trace_records_written: u64,
}

/// How many times a session sets up: at least `min` times, then again
/// while the set-ups so far took less than `budget_s` in all, up to `max`.
#[derive(Debug, Clone, Copy)]
pub struct Setups {
    pub min: usize,
    pub max: usize,
    pub budget_s: f64,
}

impl Setups {
    pub const ONCE: Setups = Setups {
        min: 1,
        max: 1,
        budget_s: 0.0,
    };

    fn done(&self, secs: &[f64]) -> bool {
        secs.len() >= self.min
            && (secs.len() >= self.max || secs.iter().sum::<f64>() >= self.budget_s)
    }
}

/// Host factor of a stretch between two probes.
fn host_between(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / calib::REFERENCE_S
}

/// Sets up as `setups` says (draining all but the last), then serves.
/// Closed loop: whole-list rounds until `seconds` pass (at least
/// `min_rounds`). Open loop: every segment of the list once. Then drains.
/// The host probe runs before the first set-up and after each set-up and
/// round. `trace_out` turns on the runtime's per-job trace file.
pub fn session(
    workload: gen::Workload,
    list: &[Job],
    goldens: &[u64],
    setups: Setups,
    seconds: f64,
    min_rounds: usize,
    trace_out: Option<PathBuf>,
) -> Result<Session, String> {
    let config = RuntimeConfig {
        trace_out,
        ..RuntimeConfig::default()
    };
    let mut probe = calib::Probe::new();
    let mut probed = probe.sample();
    let mut setup_s = Vec::with_capacity(setups.min);
    let mut setup_host = Vec::with_capacity(setups.min);
    let (rt, epoch) = loop {
        let (rt, epoch, secs) = setup(&config, list, goldens)?;
        setup_s.push(secs);
        let kept = if setups.done(&setup_s) {
            Some((rt, epoch))
        } else {
            let out = rt.drain();
            if out.wedged_workers != 0 {
                return Err(format!(
                    "{} wedged workers after set-up",
                    out.wedged_workers
                ));
            }
            None
        };
        let after = probe.sample();
        setup_host.push(host_between(probed, after));
        probed = after;
        if let Some(kept) = kept {
            break kept;
        }
    };
    let segments = match workload.clients() {
        Some(_) => Vec::new(),
        None => open_segments(list),
    };
    let before = counters(&rt);
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        reset_peak_rss()?;
        let mut round = match workload.clients() {
            Some(c) => closed_round(&rt, list, goldens, c),
            None => open_round(&rt, list, goldens, segments[rounds.len()].clone()),
        };
        round.peak_rss_mb = peak_rss_mb();
        let after = probe.sample();
        round.host = host_between(probed, after);
        probed = after;
        let last = round.wall_s;
        rounds.push(round);
        let elapsed = start.elapsed().as_secs_f64();
        // Closed loop: another round only while at least half of it fits
        // in `seconds`; a hard stop keeps a pathologically slow build
        // inside the run limit.
        let done = match workload.clients() {
            None => rounds.len() == segments.len(),
            Some(_) => {
                (rounds.len() >= min_rounds && elapsed + last / 2.0 >= seconds)
                    || elapsed > seconds * 4.0 + 30.0
            }
        };
        if done {
            break;
        }
    }
    let after = counters(&rt);
    let counters = after.iter().map(|(k, v)| (*k, v - before[k])).collect();
    let pool_resident_bytes = rt.metrics().gauge("pool_resident_bytes").get();
    let out = rt.drain();
    Ok(Session {
        epoch,
        setup_s,
        setup_host,
        rounds,
        counters,
        pool_resident_bytes,
        wedged_workers: out.wedged_workers,
        results: out.results.len(),
        trace_records_written: out.trace_records_written,
    })
}
