//! Golden checksums on the frozen oracles, and the committed default-seed
//! lists they are stored in.
//!
//! Every job's output is checked against a checksum computed without the
//! runtime: `serial_ref` for star jobs, the kernel-IR reference
//! interpreter for desc jobs, and the serial program interpreter for
//! program DAGs. Inputs are the runtime's public source fill; the checksum
//! restates the runtime's convention (64-bit-lane FNV over the output
//! bits, folded over frames for programs), so any drift in it shows up as
//! a golden mismatch.

use crate::gen::Job;
use crate::grids::Frame;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use stencil_core::{Grid2D, Grid3D};
use stencil_runtime::JobSpec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The runtime's output checksum over an f32 grid.
pub fn checksum_f32(vals: &[f32]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = vals.chunks_exact(2);
    for pair in &mut chunks {
        h ^= (pair[0].to_bits() as u64) | ((pair[1].to_bits() as u64) << 32);
        h = h.wrapping_mul(FNV_PRIME);
    }
    if let [v] = chunks.remainder() {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds per-frame checksums the way program jobs report them.
pub fn fold_frames(frames: impl IntoIterator<Item = u64>) -> u64 {
    frames
        .into_iter()
        .fold(FNV_OFFSET, |h, c| (h ^ c).wrapping_mul(FNV_PRIME))
}

/// The golden checksum of `spec`, computed on its oracle.
pub fn golden(spec: &JobSpec) -> u64 {
    if spec.dim == 2 {
        golden_in::<Grid2D<f32>>(spec)
    } else {
        golden_in::<Grid3D<f32>>(spec)
    }
}

fn golden_in<G: Frame>(spec: &JobSpec) -> u64 {
    if let Some(prog) = &spec.program {
        let mut sums = Vec::with_capacity(prog.frames);
        G::interpret(prog, spec, |g| sums.push(g.checksum()));
        return fold_frames(sums);
    }
    let input = G::source(spec, spec.seed);
    if let Some(k) = &spec.kernel {
        let desc = k.desc(spec.dim, spec.rad, spec.seed).expect("validated");
        return input.reference(&desc, spec.iters).checksum();
    }
    let cfg = spec.block_config().expect("validated");
    let st = G::stencil(spec.rad, spec.seed);
    input.serial(&st, &cfg, spec.iters).checksum()
}

/// What a job computes, independent of how it is served: two jobs with
/// the same problem key have the same golden.
pub fn problem_key(spec: &JobSpec) -> String {
    let mut p = spec.clone();
    p.id = 0;
    p.backend = stencil_runtime::Backend::Functional;
    p.tenant = Default::default();
    p.plan = Default::default();
    p.priority = stencil_runtime::Priority::Normal;
    p.shadow = false;
    serde_json::to_string(&p).expect("spec serializes")
}

/// Goldens for a whole list: one oracle run per distinct problem, spread
/// over two threads.
pub fn goldens(list: &[Job]) -> Vec<u64> {
    goldens_timed(list).0
}

/// [`goldens`] plus the seconds each oracle run took, keyed by the list
/// index of the job it ran for.
pub fn goldens_timed(list: &[Job]) -> (Vec<u64>, Vec<(usize, f64)>) {
    let keys: Vec<String> = list.iter().map(|j| problem_key(&j.spec)).collect();
    let mut first: HashMap<&str, usize> = HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        first.entry(k.as_str()).or_insert(i);
    }
    let distinct: Vec<usize> = (0..list.len())
        .filter(|&i| first[keys[i].as_str()] == i)
        .collect();
    let next = AtomicUsize::new(0);
    let computed: Vec<(usize, u64, f64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = distinct.get(k) else { break out };
                        let t = Instant::now();
                        let g = golden(&list[i].spec);
                        out.push((i, g, t.elapsed().as_secs_f64()));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("golden worker"))
            .collect()
    });
    let by_index: HashMap<usize, u64> = computed.iter().map(|&(i, g, _)| (i, g)).collect();
    (
        keys.iter().map(|k| by_index[&first[k.as_str()]]).collect(),
        computed.into_iter().map(|(i, _, secs)| (i, secs)).collect(),
    )
}

/// One committed list line: the replay-format spec plus `due_us` and the
/// golden checksum as extra keys (replay readers ignore unknown keys).
pub fn to_line(job: &Job, golden: u64) -> String {
    let spec = serde_json::to_string(&job.spec).expect("spec serializes");
    let body = spec.strip_suffix('}').expect("spec is a JSON object");
    format!(
        "{body},\"due_us\":{},\"golden\":\"{golden:016x}\"}}",
        job.due_us
    )
}

/// Parses a committed list: `(spec, due_us, golden)` per line.
pub fn parse_lines(text: &str) -> Result<Vec<(JobSpec, u64, u64)>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(n, line)| {
            let spec: JobSpec =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let v: serde_json::Value =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let get = |key: &str| {
                v.as_map()
                    .and_then(|m| m.iter().find(|(k, _)| k == key))
                    .map(|(_, v)| v)
            };
            let due = get("due_us")
                .and_then(|d| d.as_integer())
                .and_then(|d| u64::try_from(d).ok())
                .ok_or_else(|| format!("line {}: due_us", n + 1))?;
            let golden = get("golden")
                .and_then(|g| g.as_str())
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("line {}: golden", n + 1))?;
            Ok((spec, due, golden))
        })
        .collect()
}
