//! Seeded job-list generator for the three workloads.
//!
//! A list is a pure function of `(workload, seed)`: the same seed gives
//! the same specs, ids and arrival schedule. The runtime only ever sees
//! the generated [`JobSpec`]s.
//!
//! The lists are *stratified*, not i.i.d. draws: every parameter is drawn
//! from evenly spaced strata in a seeded order, so two seeds give lists
//! with the same mix (same share of 2D/3D, radii, backends, total work)
//! and different concrete jobs. Without this, the spread between seeds is
//! the spread of the mix, not of the system under test.
//!
//! The runtime shadow-verifies a job when a hash of its `(id, seed)` falls
//! in the configured 10% sample. The generator draws each job's id until
//! that hash agrees with the design, so the shadowed share of every list
//! is fixed (see [`runtime_samples_shadow`]).

use stencil_core::{BoundaryCond, KernelClass};
use stencil_runtime::job::KernelSpec;
use stencil_runtime::planner::PlanMode;
use stencil_runtime::workload::XorShift64;
use stencil_runtime::{Backend, JobSpec, StencilProgram, Tenant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small star jobs, closed loop, two clients.
    StarSmall,
    /// Grids well past the L2 caches, closed loop, one client.
    GridLarge,
    /// Kernel-IR, program and auto-planned jobs, open loop, two tenants.
    MixedOpen,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StarSmall,
        Workload::GridLarge,
        Workload::MixedOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StarSmall => "star-small",
            Workload::GridLarge => "grid-large",
            Workload::MixedOpen => "mixed-open",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Concurrent closed-loop clients; `None` for the open loop.
    pub fn clients(self) -> Option<usize> {
        match self {
            Workload::StarSmall => Some(2),
            Workload::GridLarge => Some(1),
            Workload::MixedOpen => None,
        }
    }
}

/// Jobs in one star-small list.
pub const STAR_SMALL_JOBS: usize = 600;
/// Jobs in one grid-large list.
pub const GRID_LARGE_JOBS: usize = 20;
/// Fixed open-loop arrival rate: about a fifth of the mix's closed-loop
/// capacity with two clients on a 2-core box (165–190 jobs/s). Open-loop
/// latency near saturation is dominated by queueing bursts and by CPU the
/// host takes from a shared VM: at half capacity p90 swung between 21 and
/// 50 ms across seeds, so the rate stays low enough that latency is mostly
/// service time.
pub const MIXED_OPEN_RATE: f64 = 35.0;

/// One job of a list.
#[derive(Debug, Clone)]
pub struct Job {
    pub spec: JobSpec,
    /// Open loop: when the job is due, in microseconds from the start of
    /// the schedule. Closed loop: 0.
    pub due_us: u64,
}

/// The runtime's shadow sampler for a job that does not force shadowing:
/// `splitmix64(id ^ seed.rotl(32)) % 100 < 10` under the default 10%
/// setting. Kernel and program jobs are always shadowed.
pub fn runtime_samples_shadow(id: u64, seed: u64) -> bool {
    splitmix64(id ^ seed.rotate_left(32)) % 100 < 10
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether the runtime will shadow-verify `spec` (forced or sampled).
pub fn shadowed(spec: &JobSpec) -> bool {
    spec.program.is_some()
        || spec.kernel.is_some()
        || spec.shadow
        || runtime_samples_shadow(spec.id, spec.seed)
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(rng: &mut XorShift64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0, i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// `n` draws from `[lo, hi)`, one per equal-width stratum, in seeded order.
fn strata(rng: &mut XorShift64, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let span = (hi - lo) as f64;
    let mut v: Vec<u64> = (0..n)
        .map(|i| lo + ((i as f64 + rng.gen_f64()) / n as f64 * span) as u64)
        .map(|x| x.min(hi - 1))
        .collect();
    shuffle(rng, &mut v);
    v
}

/// Hands out increasing job ids, skipping ids until the runtime's shadow
/// sampler agrees with the design for the job's coefficient seed.
struct Ids {
    next: u64,
}

impl Ids {
    fn take(&mut self, seed: u64, want_shadow: bool) -> u64 {
        while runtime_samples_shadow(self.next, seed) != want_shadow {
            self.next += 1;
        }
        self.take_any()
    }

    fn take_any(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }
}

/// Marks `k` jobs as shadowed, one per consecutive group of the jobs sorted
/// by work, so the shadowed work is a stratified sample of the list's.
fn pick_shadowed(rng: &mut XorShift64, specs: &[JobSpec], k: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| (specs[i].work_cells(), i));
    let mut marks = vec![false; specs.len()];
    for g in 0..k {
        let lo = g * specs.len() / k;
        let hi = (g + 1) * specs.len() / k;
        marks[order[rng.gen_range(lo as u64, hi as u64) as usize]] = true;
    }
    marks
}

/// Assigns ids (honouring the shadow design) and returns the jobs in
/// list order.
fn finish(specs: Vec<JobSpec>, shadow: &[bool], rng: &mut XorShift64) -> Vec<JobSpec> {
    let mut ids = Ids {
        next: rng.gen_range(0, 1000),
    };
    specs
        .into_iter()
        .zip(shadow)
        .map(|(mut s, &want)| {
            // Kernel and program jobs are always shadowed.
            s.id = if s.kernel.is_some() || s.program.is_some() {
                ids.take_any()
            } else {
                ids.take(s.seed, want)
            };
            debug_assert!(s.validate().is_ok(), "generator emits valid specs");
            s
        })
        .collect()
}

/// The job list for `workload` at `seed`. The open-loop list holds
/// `seconds` of arrivals; the closed-loop lists are fixed and repeat.
pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Vec<Job> {
    // Distinct RNG lanes per workload, so one seed gives unrelated lists.
    let mut rng = XorShift64::new(splitmix64(seed ^ (workload as u64 * 0x51_7cc1_b727_220a)));
    match workload {
        Workload::StarSmall => closed(star_small(&mut rng)),
        Workload::GridLarge => closed(grid_large(&mut rng)),
        Workload::MixedOpen => {
            let jobs = (MIXED_OPEN_RATE * seconds).round().max(1.0) as usize;
            mixed_open(&mut rng, jobs)
        }
    }
}

fn closed(specs: Vec<JobSpec>) -> Vec<Job> {
    specs
        .into_iter()
        .map(|spec| Job { spec, due_us: 0 })
        .collect()
}

/// `n` star jobs of the full-scale synthetic mix (2D 96–320×32–128, 2–8
/// iterations; 3D 20–40×16–32×6–14, 2–4 iterations; radius 1–4), 30% 3D.
/// Sizes come from strata; radius and backend are then dealt round-robin
/// in order of size, so every size band holds every (radius, backend)
/// pair and the slowest jobs of a list are the same kind for every seed.
fn star_mix(rng: &mut XorShift64, n: usize, backends: &[Backend]) -> Vec<JobSpec> {
    let n3 = n * 3 / 10;
    let n2 = n - n3;
    let mut specs = Vec::with_capacity(n);
    let (nx, ny, it) = (
        strata(rng, n2, 96, 320),
        strata(rng, n2, 32, 128),
        strata(rng, n2, 2, 9),
    );
    let mut group: Vec<JobSpec> = (0..n2)
        .map(|i| JobSpec::new_2d(0, 1, nx[i] as usize, ny[i] as usize, it[i] as usize))
        .collect();
    deal_by_size(&mut group, backends);
    specs.append(&mut group);
    let (nx, ny, nz, it) = (
        strata(rng, n3, 20, 40),
        strata(rng, n3, 16, 32),
        strata(rng, n3, 6, 14),
        strata(rng, n3, 2, 5),
    );
    let mut group: Vec<JobSpec> = (0..n3)
        .map(|i| {
            let (x, y, z) = (nx[i] as usize, ny[i] as usize, nz[i] as usize);
            JobSpec::new_3d(0, 1, x, y, z, it[i] as usize)
        })
        .collect();
    deal_by_size(&mut group, backends);
    specs.append(&mut group);
    for s in &mut specs {
        s.seed = rng.gen_range(0, 10_000);
    }
    shuffle(rng, &mut specs);
    specs
}

/// Deals (radius, backend) pairs round-robin over `group` in order of
/// work, fixing the block configuration each radius needs.
fn deal_by_size(group: &mut [JobSpec], backends: &[Backend]) {
    let mut order: Vec<usize> = (0..group.len()).collect();
    order.sort_by_key(|&i| (group[i].work_cells(), i));
    for (rank, &i) in order.iter().enumerate() {
        let s = &mut group[i];
        let rad = 1 + (rank / backends.len()) % 4;
        let fresh = if s.dim == 2 {
            JobSpec::new_2d(0, rad, s.nx, s.ny, s.iters)
        } else {
            JobSpec::new_3d(0, rad, s.nx, s.ny, s.nz, s.iters)
        };
        *s = JobSpec {
            backend: backends[rank % backends.len()],
            ..fresh
        };
    }
}

/// The star mix with explicit plans split evenly over Functional,
/// CpuEngine and SerialRef, 10% shadowed.
fn star_small(rng: &mut XorShift64) -> Vec<JobSpec> {
    const BACKENDS: [Backend; 3] = [Backend::Functional, Backend::CpuEngine, Backend::SerialRef];
    let specs = star_mix(rng, STAR_SMALL_JOBS, &BACKENDS);
    let shadow = pick_shadowed(rng, &specs, STAR_SMALL_JOBS / 10);
    finish(specs, &shadow, rng)
}

/// Every radius in 2D 4096×2048 and 3D 256×256×128 (each grid 32 MiB,
/// four times the summed L2), two time steps: 8 distinct problems, so the
/// goldens cost 8 oracle runs. Each problem is served twice on Functional,
/// and four of them once more on CpuEngine, which is about five times
/// faster on these grids: 20 jobs, with p50 well inside the Functional
/// population. One job, always a 2D radius-2 Functional one, is in the
/// runtime's shadow sample: at 1 in 20, p90 sits inside the unshadowed
/// population instead of on its edge.
fn grid_large(rng: &mut XorShift64) -> Vec<JobSpec> {
    let mut specs = Vec::with_capacity(GRID_LARGE_JOBS);
    let mut shadow = Vec::with_capacity(GRID_LARGE_JOBS);
    for dim3 in [false, true] {
        for rad in 1..=4 {
            let mut s = if dim3 {
                JobSpec::new_3d(0, rad, 256, 256, 128, 2)
            } else {
                JobSpec::new_2d(0, rad, 4096, 2048, 2)
            };
            s.seed = rng.gen_range(0, 10_000);
            for copy in 0..2 {
                specs.push(s.clone());
                shadow.push(!dim3 && rad == 2 && copy == 0);
            }
            if (rad + usize::from(dim3)) % 2 == 0 {
                specs.push(JobSpec {
                    backend: Backend::CpuEngine,
                    ..s
                });
                shadow.push(false);
            }
        }
    }
    let mut order: Vec<usize> = (0..specs.len()).collect();
    shuffle(rng, &mut order);
    let specs: Vec<JobSpec> = order.iter().map(|&i| specs[i].clone()).collect();
    let shadow: Vec<bool> = order.iter().map(|&i| shadow[i]).collect();
    finish(specs, &shadow, rng)
}

/// The recurring kernel-IR types of the mix: (taps, boundary, rad, 3D?).
const KERNEL_TYPES: [(KernelClass, BoundaryCond, usize, bool); 6] = [
    (KernelClass::Box, BoundaryCond::Periodic, 2, false),
    (KernelClass::Asymmetric, BoundaryCond::Reflective, 2, false),
    (KernelClass::Box, BoundaryCond::Reflective, 1, false),
    (KernelClass::Star, BoundaryCond::Periodic, 1, false),
    (KernelClass::Star, BoundaryCond::Periodic, 2, true),
    (KernelClass::Box, BoundaryCond::Clamp, 1, true),
];

/// A fifth kernel-IR jobs (six recurring descs, every boundary
/// condition, on the three desc-capable backends), two fifths program
/// DAGs (heat→gradient 2D and seismic 3D in equal numbers) and two fifths
/// auto-planned star jobs. Kernels to programs is 1:2, as in the
/// synthetic `--kernels --programs` mix of `workload::synthetic_workload`
/// (`id % 4`: one kernel slice, two program slices), but programs, the
/// slowest jobs, make up 40% rather than 50% of the list: at 50%, p50 is
/// the edge between programs and the rest. Here the program share is ten
/// points from both gated percentiles. Seismic runs at 32³, the synthetic
/// mix's quick size, rather than 48³. Two tenants, round-robin. Arrivals
/// are seeded exponential gaps rescaled so the schedule spans exactly
/// `n / MIXED_OPEN_RATE` seconds.
fn mixed_open(rng: &mut XorShift64, n: usize) -> Vec<Job> {
    const KERNEL_BACKENDS: [Backend; 3] =
        [Backend::Functional, Backend::CpuEngine, Backend::SerialRef];
    let nk = n / 5;
    let np = n * 2 / 5;
    let ns = n - nk - np;
    let mut specs = Vec::with_capacity(n);

    // Each kernel type gets an equal share of the kernel jobs with sizes
    // from its own strata, and backends are dealt round-robin in order of
    // size, so every (type, backend) pair is a stratified sample.
    let types = KERNEL_TYPES.len();
    for (kind, &(taps, boundary, rad, dim3)) in KERNEL_TYPES.iter().enumerate() {
        let m = (nk + types - 1 - kind) / types;
        let (kx, ky) = (strata(rng, m, 96, 256), strata(rng, m, 32, 96));
        let (e, it2, it3) = (
            strata(rng, m, 16, 28),
            strata(rng, m, 2, 6),
            strata(rng, m, 2, 4),
        );
        let mut group: Vec<JobSpec> = (0..m)
            .map(|i| {
                let mut s = if dim3 {
                    let e = e[i] as usize;
                    JobSpec::new_3d(0, rad, e, e, e.div_ceil(2), it3[i] as usize)
                } else {
                    JobSpec::new_2d(0, rad, kx[i] as usize, ky[i] as usize, it2[i] as usize)
                };
                s.kernel = Some(KernelSpec { taps, boundary });
                // The coefficient seed is the type index, so repeats of a
                // type share one compiled kernel.
                s.seed = kind as u64;
                s
            })
            .collect();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&i| (group[i].work_cells(), i));
        for (rank, &i) in order.iter().enumerate() {
            group[i].backend = KERNEL_BACKENDS[rank % KERNEL_BACKENDS.len()];
        }
        specs.append(&mut group);
    }

    // Heat→gradient and seismic alternate. Heat→gradient takes 2 and 3
    // frames in equal numbers; seismic, the slowest fifth of the list,
    // always takes 3, so p90 lies inside one population rather than on
    // the edge between 2- and 3-frame seismic jobs.
    for i in 0..np {
        let mut s = if i % 2 == 0 {
            let mut s = JobSpec::new_2d(0, 1, 192, 128, 1);
            s.program = Some(StencilProgram::heat_gradient_2d(2 + (i / 2) % 2));
            s
        } else {
            let mut s = JobSpec::new_3d(0, 2, 32, 32, 32, 1);
            s.program = Some(StencilProgram::seismic_3d(3));
            s
        };
        s.backend = Backend::Functional;
        s.seed = rng.gen_range(0, 10_000);
        specs.push(s);
    }

    specs.extend(star_mix(rng, ns, &[Backend::Functional]));
    for s in specs.iter_mut().skip(nk + np) {
        s.plan = PlanMode::Auto;
    }

    shuffle(rng, &mut specs);
    // Star jobs follow the runtime's own 10% sample, stratified by work.
    let star: Vec<JobSpec> = specs
        .iter()
        .filter(|s| s.kernel.is_none() && s.program.is_none())
        .cloned()
        .collect();
    let star_marks = pick_shadowed(rng, &star, star.len() / 10);
    let mut it = star_marks.into_iter();
    let shadow: Vec<bool> = specs
        .iter()
        .map(|s| s.kernel.is_none() && s.program.is_none() && it.next().unwrap_or(false))
        .collect();
    let mut specs = finish(specs, &shadow, rng);
    for (k, s) in specs.iter_mut().enumerate() {
        s.tenant = Tenant::new(&format!("tenant-{}", k % 2));
    }

    // Exponential gaps, rescaled to the fixed schedule span.
    let gaps: Vec<f64> = (0..n).map(|_| -(rng.gen_f64().max(1e-12)).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let span_us = n as f64 / MIXED_OPEN_RATE * 1e6;
    let mut due = 0.0f64;
    specs
        .into_iter()
        .zip(gaps)
        .map(|(spec, g)| {
            let job = Job {
                spec,
                due_us: due as u64,
            };
            due += g / total * span_us;
            job
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_are_deterministic_valid_and_designed() {
        for w in Workload::ALL {
            let a = generate(w, 7, 10.0);
            let b = generate(w, 7, 10.0);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.spec, y.spec);
                assert_eq!(x.due_us, y.due_us);
                x.spec.validate().unwrap();
                assert_eq!(x.spec.fail_times, 0);
                assert_eq!(x.spec.deadline_ms, 0);
            }
            let mut ids: Vec<u64> = a.iter().map(|j| j.spec.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), a.len(), "{}: ids unique", w.name());
        }
        let shadowed_star = |w, seed| {
            generate(w, seed, 10.0)
                .iter()
                .filter(|j| j.spec.kernel.is_none() && j.spec.program.is_none())
                .filter(|j| shadowed(&j.spec))
                .count()
        };
        for seed in [1, 2, 99] {
            let mixed = generate(Workload::MixedOpen, seed, 10.0);
            let n = mixed.len();
            let kernels = mixed.iter().filter(|j| j.spec.kernel.is_some()).count();
            let programs = mixed.iter().filter(|j| j.spec.program.is_some()).count();
            assert_eq!((kernels, programs), (n / 5, n * 2 / 5));
            assert_eq!(
                mixed
                    .iter()
                    .filter(|j| j.spec.program.is_some() && j.spec.dim == 3)
                    .count(),
                programs / 2
            );
            assert_eq!(
                shadowed_star(Workload::StarSmall, seed),
                STAR_SMALL_JOBS / 10
            );
            assert_eq!(shadowed_star(Workload::GridLarge, seed), 1);
        }
    }
}
