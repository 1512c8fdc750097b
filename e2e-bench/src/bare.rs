//! The bare-engine pass: the same job list, one job at a time, straight
//! through the public engine entry points the runtime's workers call —
//! no admission, queue, pool, shadow or result stream. Each output is
//! checked against the job's golden checksum.

use crate::golden;
use crate::grids::Frame;
use fpga_sim::cluster::{self, ClusterKernel, ClusterNode, ClusterSpec};
use fpga_sim::SimCounters;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use stencil_core::{CompiledKernel2D, CompiledKernel3D, Grid2D, Grid3D};
use stencil_runtime::planner::StagePlacement;
use stencil_runtime::{place_program, Backend, DeviceProfile, JobSpec, StencilProgram};

/// The engine layer a bare run exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Engine {
    /// `fpga_sim::functional`, star jobs.
    Functional,
    /// `cpu_engine::engines`, star and desc jobs.
    Cpu,
    /// `fpga_sim::serial_ref`, star jobs on the SerialRef backend.
    SerialRef,
    /// The kernel-IR reference interpreter, desc jobs on SerialRef.
    Interpreter,
    /// `fpga_sim::kernel_exec`, desc jobs on Functional.
    KernelExec,
    /// `fpga_sim::cluster` with functional stages, program jobs.
    Cluster,
}

/// One job's bare run.
#[derive(Debug, Clone)]
pub struct BareRun {
    pub engine: Engine,
    /// Seconds inside the engine call (buffers allocated outside it).
    pub secs: f64,
    pub cells: u64,
    /// The functional engine's own counters (pass times, halo, bytes).
    pub counters: Option<SimCounters>,
    pub checksum: u64,
}

/// Desc kernels compiled once per distinct desc, as the runtime's memo
/// does; the compile times feed `specialize.compile_ms`.
#[derive(Default)]
pub struct Kernels {
    pub(crate) k2: HashMap<u64, Arc<CompiledKernel2D<f32>>>,
    pub(crate) k3: HashMap<u64, Arc<CompiledKernel3D<f32>>>,
    pub compile_secs: Vec<f64>,
}

impl Kernels {
    fn get<G: Frame>(&mut self, spec: &JobSpec) -> Arc<G::Kernel> {
        let desc = desc_of(spec);
        let t = Instant::now();
        let mut compiled = false;
        let k = G::memo(self)
            .entry(desc.stable_hash())
            .or_insert_with(|| {
                compiled = true;
                Arc::new(G::compile(&desc))
            })
            .clone();
        if compiled {
            self.compile_secs.push(t.elapsed().as_secs_f64());
        }
        k
    }
}

fn desc_of(spec: &JobSpec) -> stencil_core::KernelDesc {
    spec.kernel
        .expect("desc job")
        .desc(spec.dim, spec.rad, spec.seed)
        .expect("valid desc")
}

fn never() -> bool {
    false
}

/// Runs one job bare.
pub fn run(spec: &JobSpec, kernels: &mut Kernels) -> BareRun {
    let (engine, secs, counters, checksum) = match &spec.program {
        // A program's buffers live inside the cluster run, so it is timed whole.
        Some(prog) => {
            let t = Instant::now();
            let checksum = if spec.dim == 2 {
                run_program::<Grid2D<f32>>(spec, prog)
            } else {
                run_program::<Grid3D<f32>>(spec, prog)
            };
            (Engine::Cluster, t.elapsed().as_secs_f64(), None, checksum)
        }
        None if spec.dim == 2 => run_single::<Grid2D<f32>>(spec, kernels),
        None => run_single::<Grid3D<f32>>(spec, kernels),
    };
    BareRun {
        engine,
        secs,
        cells: spec.work_cells(),
        counters,
        checksum,
    }
}

/// A single-kernel job on the engine its backend names: the engine, the
/// seconds inside the engine call, the functional counters and the
/// output checksum.
fn run_single<G: Frame>(
    spec: &JobSpec,
    kernels: &mut Kernels,
) -> (Engine, f64, Option<SimCounters>, u64) {
    let input = G::source(spec, spec.seed);
    let mut out = input.clone();
    let mut scratch = input.clone();
    let cancel = &never;
    let mut counters = None;
    let t;
    let engine = match (spec.kernel.is_some(), spec.backend) {
        (false, Backend::Functional) => {
            let st = G::stencil(spec.rad, spec.seed);
            let cfg = spec.block_config().expect("valid");
            t = Instant::now();
            counters = input.functional_into(
                &st,
                &cfg,
                spec.iters,
                spec.replicas.get(),
                cancel,
                &mut out,
                &mut scratch,
            );
            Engine::Functional
        }
        (false, Backend::CpuEngine) => {
            let st = G::stencil(spec.rad, spec.seed);
            t = Instant::now();
            input.cpu_into(&st, spec.iters, &mut out, &mut scratch);
            Engine::Cpu
        }
        (false, _) => {
            let st = G::stencil(spec.rad, spec.seed);
            let cfg = spec.block_config().expect("valid");
            t = Instant::now();
            out = input.serial(&st, &cfg, spec.iters);
            Engine::SerialRef
        }
        (true, Backend::Functional) => {
            let k = kernels.get::<G>(spec);
            t = Instant::now();
            input.kernel_exec_into(&k, spec.iters, cancel, &mut out, &mut scratch);
            Engine::KernelExec
        }
        (true, Backend::CpuEngine) => {
            let k = kernels.get::<G>(spec);
            t = Instant::now();
            input.cpu_kernel_into(&k, spec.iters, &mut out, &mut scratch);
            Engine::Cpu
        }
        (true, _) => {
            let desc = desc_of(spec);
            t = Instant::now();
            out = input.reference(&desc, spec.iters);
            Engine::Interpreter
        }
    };
    (engine, t.elapsed().as_secs_f64(), counters, out.checksum())
}

/// The bare cluster kernel: each firing sums its inputs in edge order and
/// runs the node's stencil on the functional engine; sink outputs are
/// captured per frame and combined in sink order, as the interpreter does.
struct BareProgram<'a, G> {
    spec: &'a JobSpec,
    prog: &'a StencilProgram,
    stages: &'a [StagePlacement],
    node_of: Vec<usize>,
    capture_of: Vec<Option<usize>>,
    captured: Vec<Vec<Option<G>>>,
}

impl<G: Frame> ClusterKernel for BareProgram<'_, G> {
    type Payload = Option<G>;

    fn fire(&mut self, slot: usize, frame: usize, inputs: &[Option<G>]) -> Option<G> {
        let i = self.node_of[slot];
        let node = &self.prog.nodes[i];
        let input = match inputs.split_first() {
            None => G::source(self.spec, self.prog.frame_seed(self.spec.seed, i, frame)),
            Some((first, rest)) => {
                let mut g = first.clone().expect("non-sink payload");
                for extra in rest {
                    g.add(extra.as_ref().expect("non-sink payload"));
                }
                g
            }
        };
        let stage = &self.stages[slot];
        let st = G::stencil(node.rad, self.prog.node_seed(self.spec.seed, i));
        let out = input.functional(&st, &stage.config, node.iters, stage.replicas);
        match self.capture_of[slot] {
            Some(k) => {
                self.captured[k][frame] = Some(out);
                None
            }
            None => Some(out),
        }
    }

    fn dup(&mut self, payload: &Option<G>) -> Option<G> {
        payload.clone()
    }
}

/// Runs a program job on the cluster engine with the planner's placement
/// and returns its checksum (per-frame checksums of the combined sinks,
/// folded in frame order).
fn run_program<G: Frame>(spec: &JobSpec, prog: &StencilProgram) -> u64 {
    let placement = place_program(DeviceProfile::default(), spec, prog).expect("placeable");
    let order = prog.topo_order().expect("valid program");
    let mut slot_of = vec![0usize; prog.nodes.len()];
    for (slot, &i) in order.iter().enumerate() {
        slot_of[i] = slot;
    }
    let nodes = order
        .iter()
        .zip(&placement.stages)
        .map(|(&i, stage)| {
            let ins = prog.in_edges(i);
            ClusterNode {
                device: stage.device,
                preds: ins
                    .iter()
                    .map(|&e| slot_of[prog.node_index(&prog.edges[e].from).expect("edge")])
                    .collect(),
                depths: ins.iter().map(|&e| prog.edges[e].depth).collect(),
                exec_ticks: stage.exec_ticks,
            }
        })
        .collect();
    let sinks = prog.sinks();
    let mut capture_of = vec![None; prog.nodes.len()];
    for (k, &s) in sinks.iter().enumerate() {
        capture_of[slot_of[s]] = Some(k);
    }
    let mut kernel = BareProgram::<G> {
        spec,
        prog,
        stages: &placement.stages,
        node_of: order,
        capture_of,
        captured: (0..sinks.len())
            .map(|_| (0..prog.frames).map(|_| None).collect())
            .collect(),
    };
    cluster::run(
        &ClusterSpec {
            nodes,
            frames: prog.frames,
            seed: spec.seed,
        },
        &mut kernel,
    );
    golden::fold_frames((0..prog.frames).map(|f| {
        let mut sinks = kernel.captured.iter_mut();
        let mut combined = sinks.next().expect("a sink")[f].take().expect("frame ran");
        for rest in sinks {
            combined.add(&rest[f].take().expect("frame ran"));
        }
        combined.checksum()
    }))
}
