//! The 2D and 3D grids behind one interface, so the oracles, the bare
//! engine pass and the bare cluster kernel have one code path for both
//! dimensions.

use crate::bare::Kernels;
use crate::golden::checksum_f32;
use fpga_sim::{functional, kernel_exec, serial_ref, SimCounters};
use std::collections::HashMap;
use std::sync::Arc;
use stencil_core::{
    compile_2d, compile_3d, kernel_ir, BlockConfig, CompiledKernel2D, CompiledKernel3D, Grid2D,
    Grid3D, KernelDesc, Stencil2D, Stencil3D,
};
use stencil_runtime::{program, JobSpec, StencilProgram};

/// Lane width the runtime compiles desc kernels at.
const KERNEL_LANES: usize = 8;

type Cancel<'a> = &'a (dyn Fn() -> bool + Sync);

/// A grid of one dimension, with the public oracle and engine entry
/// points for it.
pub trait Frame: Clone + Sized {
    type Stencil;
    type Kernel;

    /// A grid of the job's shape holding the runtime's source fill for
    /// `seed` (a single-kernel job's input is its fill at `spec.seed`).
    fn source(spec: &JobSpec, seed: u64) -> Self;
    fn cells(&self) -> &[f32];
    fn cells_mut(&mut self) -> &mut [f32];
    fn stencil(rad: usize, seed: u64) -> Self::Stencil;
    fn compile(desc: &KernelDesc) -> Self::Kernel;
    /// This dimension's compiled kernels in `kernels`.
    fn memo(kernels: &mut Kernels) -> &mut HashMap<u64, Arc<Self::Kernel>>;

    /// `serial_ref::run_*_serial`.
    fn serial(&self, st: &Self::Stencil, cfg: &BlockConfig, iters: usize) -> Self;
    /// `kernel_ir::reference_run_*`.
    fn reference(&self, desc: &KernelDesc, iters: usize) -> Self;
    /// `program::interpret_*`: every output frame of `prog`, in order.
    fn interpret(prog: &StencilProgram, spec: &JobSpec, on_frame: impl FnMut(&Self));
    /// `functional::run_*_replicated_cancellable_into`.
    #[allow(clippy::too_many_arguments)]
    fn functional_into(
        &self,
        st: &Self::Stencil,
        cfg: &BlockConfig,
        iters: usize,
        replicas: usize,
        cancel: Cancel,
        out: &mut Self,
        scratch: &mut Self,
    ) -> Option<SimCounters>;
    /// `functional::run_*_replicated`.
    fn functional(
        &self,
        st: &Self::Stencil,
        cfg: &BlockConfig,
        iters: usize,
        replicas: usize,
    ) -> Self;
    /// `engines::parallel_*_into`.
    fn cpu_into(&self, st: &Self::Stencil, iters: usize, out: &mut Self, scratch: &mut Self);
    /// `kernel_exec::run_kernel_*_cancellable_into`.
    fn kernel_exec_into(
        &self,
        k: &Self::Kernel,
        iters: usize,
        cancel: Cancel,
        out: &mut Self,
        scratch: &mut Self,
    );
    /// `engines::parallel_*_kernel_into`.
    fn cpu_kernel_into(&self, k: &Self::Kernel, iters: usize, out: &mut Self, scratch: &mut Self);

    /// The runtime's output checksum.
    fn checksum(&self) -> u64 {
        checksum_f32(self.cells())
    }

    /// Element-wise sum, as program fan-in combines its inputs.
    fn add(&mut self, other: &Self) {
        for (d, s) in self.cells_mut().iter_mut().zip(other.cells()) {
            *d += *s;
        }
    }
}

impl Frame for Grid2D<f32> {
    type Stencil = Stencil2D<f32>;
    type Kernel = CompiledKernel2D<f32>;

    fn source(spec: &JobSpec, seed: u64) -> Self {
        let mut g = Grid2D::zeros(spec.nx, spec.ny).expect("validated geometry");
        program::fill_source_2d(&mut g, seed);
        g
    }
    fn cells(&self) -> &[f32] {
        self.as_slice()
    }
    fn cells_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
    fn stencil(rad: usize, seed: u64) -> Self::Stencil {
        Stencil2D::random(rad, seed).expect("validated radius")
    }
    fn compile(desc: &KernelDesc) -> Self::Kernel {
        compile_2d(desc, KERNEL_LANES).expect("validated desc")
    }
    fn memo(kernels: &mut Kernels) -> &mut HashMap<u64, Arc<Self::Kernel>> {
        &mut kernels.k2
    }
    fn serial(&self, st: &Self::Stencil, cfg: &BlockConfig, iters: usize) -> Self {
        serial_ref::run_2d_serial(st, self, cfg, iters)
    }
    fn reference(&self, desc: &KernelDesc, iters: usize) -> Self {
        kernel_ir::reference_run_2d(desc, self, iters)
    }
    fn interpret(prog: &StencilProgram, spec: &JobSpec, mut on_frame: impl FnMut(&Self)) {
        program::interpret_2d(prog, spec.nx, spec.ny, spec.seed, |_, g| on_frame(g));
    }
    fn functional_into(
        &self,
        st: &Self::Stencil,
        cfg: &BlockConfig,
        iters: usize,
        replicas: usize,
        cancel: Cancel,
        out: &mut Self,
        scratch: &mut Self,
    ) -> Option<SimCounters> {
        functional::run_2d_replicated_cancellable_into(
            st, self, cfg, iters, cfg.parvec, replicas, cancel, out, scratch,
        )
    }
    fn functional(
        &self,
        st: &Self::Stencil,
        cfg: &BlockConfig,
        iters: usize,
        replicas: usize,
    ) -> Self {
        functional::run_2d_replicated(st, self, cfg, iters, replicas)
    }
    fn cpu_into(&self, st: &Self::Stencil, iters: usize, out: &mut Self, scratch: &mut Self) {
        cpu_engine::engines::parallel_2d_into(st, self, iters, out, scratch);
    }
    fn kernel_exec_into(
        &self,
        k: &Self::Kernel,
        iters: usize,
        cancel: Cancel,
        out: &mut Self,
        scratch: &mut Self,
    ) {
        kernel_exec::run_kernel_2d_cancellable_into(k, self, iters, cancel, out, scratch);
    }
    fn cpu_kernel_into(&self, k: &Self::Kernel, iters: usize, out: &mut Self, scratch: &mut Self) {
        cpu_engine::engines::parallel_2d_kernel_into(k, self, iters, out, scratch);
    }
}

impl Frame for Grid3D<f32> {
    type Stencil = Stencil3D<f32>;
    type Kernel = CompiledKernel3D<f32>;

    fn source(spec: &JobSpec, seed: u64) -> Self {
        let mut g = Grid3D::zeros(spec.nx, spec.ny, spec.nz).expect("validated geometry");
        program::fill_source_3d(&mut g, seed);
        g
    }
    fn cells(&self) -> &[f32] {
        self.as_slice()
    }
    fn cells_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
    fn stencil(rad: usize, seed: u64) -> Self::Stencil {
        Stencil3D::random(rad, seed).expect("validated radius")
    }
    fn compile(desc: &KernelDesc) -> Self::Kernel {
        compile_3d(desc, KERNEL_LANES).expect("validated desc")
    }
    fn memo(kernels: &mut Kernels) -> &mut HashMap<u64, Arc<Self::Kernel>> {
        &mut kernels.k3
    }
    fn serial(&self, st: &Self::Stencil, cfg: &BlockConfig, iters: usize) -> Self {
        serial_ref::run_3d_serial(st, self, cfg, iters)
    }
    fn reference(&self, desc: &KernelDesc, iters: usize) -> Self {
        kernel_ir::reference_run_3d(desc, self, iters)
    }
    fn interpret(prog: &StencilProgram, spec: &JobSpec, mut on_frame: impl FnMut(&Self)) {
        program::interpret_3d(prog, spec.nx, spec.ny, spec.nz, spec.seed, |_, g| {
            on_frame(g)
        });
    }
    fn functional_into(
        &self,
        st: &Self::Stencil,
        cfg: &BlockConfig,
        iters: usize,
        replicas: usize,
        cancel: Cancel,
        out: &mut Self,
        scratch: &mut Self,
    ) -> Option<SimCounters> {
        functional::run_3d_replicated_cancellable_into(
            st, self, cfg, iters, cfg.parvec, replicas, cancel, out, scratch,
        )
    }
    fn functional(
        &self,
        st: &Self::Stencil,
        cfg: &BlockConfig,
        iters: usize,
        replicas: usize,
    ) -> Self {
        functional::run_3d_replicated(st, self, cfg, iters, replicas)
    }
    fn cpu_into(&self, st: &Self::Stencil, iters: usize, out: &mut Self, scratch: &mut Self) {
        cpu_engine::engines::parallel_3d_into(st, self, iters, out, scratch);
    }
    fn kernel_exec_into(
        &self,
        k: &Self::Kernel,
        iters: usize,
        cancel: Cancel,
        out: &mut Self,
        scratch: &mut Self,
    ) {
        kernel_exec::run_kernel_3d_cancellable_into(k, self, iters, cancel, out, scratch);
    }
    fn cpu_kernel_into(&self, k: &Self::Kernel, iters: usize, out: &mut Self, scratch: &mut Self) {
        cpu_engine::engines::parallel_3d_kernel_into(k, self, iters, out, scratch);
    }
}
