//! The host probe: a fixed reference load owned by the benchmark, timed
//! before and after every measured round to track how fast the shared
//! host runs at the time.
//!
//! One pass of the load has three parts of about equal length, one for
//! each kind of work the served jobs are made of:
//!
//! - 5-point Jacobi sweeps over a fixed 1 MiB grid, each split over two
//!   threads spawned for that sweep (parallel passes, thread spawns);
//! - the same sweep on the calling thread alone (single-threaded engines
//!   and the shadow oracle);
//! - a token passed back and forth between two threads that block in
//!   between (queue and result hand-offs, waking an idle CPU).
//!
//! None of it calls into the repo's crates, so no change to the program
//! moves it.

use std::sync::mpsc;
use std::time::Instant;

const NX: usize = 512;
const NY: usize = 512;
/// Two-thread sweeps per pass.
const PARALLEL_SWEEPS: usize = 24;
/// Single-thread sweeps per pass.
const SERIAL_SWEEPS: usize = 30;
/// Round trips between two threads per pass.
const ROUND_TRIPS: u32 = 200;
/// Passes per [`Probe::sample`]; it reports their median.
const PASSES: usize = 5;

/// Seconds one pass takes at the reference host speed, the speed the
/// benchmark scales its time-based metrics to (a typical pass on a 2-vCPU
/// Xeon VM).
pub const REFERENCE_S: f64 = 0.011;

/// Buffers of the reference load, allocated once.
pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
}

/// One sweep over the rows of `dst`, the first of which is grid row `y0`.
fn sweep_rows(src: &[f32], dst: &mut [f32], y0: usize) {
    for (r, out) in dst.chunks_exact_mut(NX).enumerate() {
        let y = y0 + r;
        let mid = &src[y * NX..(y + 1) * NX];
        if y == 0 || y == NY - 1 {
            out.copy_from_slice(mid);
            continue;
        }
        let up = &src[(y - 1) * NX..y * NX];
        let down = &src[(y + 1) * NX..(y + 2) * NX];
        out[0] = mid[0];
        out[NX - 1] = mid[NX - 1];
        for x in 1..NX - 1 {
            out[x] = 0.2 * (mid[x] + mid[x - 1] + mid[x + 1] + up[x] + down[x]);
        }
    }
}

/// `ROUND_TRIPS` hand-offs of a token to a second thread and back.
fn ping_pong() {
    let (to_peer, peer_rx) = mpsc::channel::<u32>();
    let (peer_tx, from_peer) = mpsc::channel::<u32>();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(v) = peer_rx.recv() {
                if peer_tx.send(v).is_err() {
                    break;
                }
            }
        });
        for i in 0..ROUND_TRIPS {
            to_peer.send(i).expect("peer thread runs");
            from_peer.recv().expect("peer thread replies");
        }
        drop(to_peer);
    });
}

impl Probe {
    pub fn new() -> Probe {
        let a: Vec<f32> = (0..NX * NY).map(|i| (i % 97) as f32 * 0.01).collect();
        Probe { b: a.clone(), a }
    }

    /// Seconds one pass of the reference load takes now.
    fn pass(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..PARALLEL_SWEEPS {
            let src = &self.a;
            let (top, bottom) = self.b.split_at_mut(NX * NY / 2);
            std::thread::scope(|s| {
                s.spawn(|| sweep_rows(src, top, 0));
                s.spawn(|| sweep_rows(src, bottom, NY / 2));
            });
            std::mem::swap(&mut self.a, &mut self.b);
        }
        for _ in 0..SERIAL_SWEEPS {
            sweep_rows(&self.a, &mut self.b, 0);
            std::mem::swap(&mut self.a, &mut self.b);
        }
        ping_pong();
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(self.a[NX * NY / 2]);
        secs
    }

    /// Median seconds of a few passes: how fast the host runs now.
    pub fn sample(&mut self) -> f64 {
        let mut secs: Vec<f64> = (0..PASSES).map(|_| self.pass()).collect();
        secs.sort_by(f64::total_cmp);
        secs[PASSES / 2]
    }
}
