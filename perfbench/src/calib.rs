//! Host-speed calibration.
//!
//! The reference host is a 2-vCPU share of a busy machine, and its speed
//! drifts: for tens of seconds to minutes at a time every operation, set-up
//! included, runs up to 1.5–2× slower. A run's fastest repetitions cannot
//! absorb a slow phase that covers the whole run. So each child process
//! of the `sweep` and `serve` workloads also times a fixed kernel — before
//! every sweep operation; in a serve schedule's idle gaps — and scales
//! its times by `REFERENCE_MS` over the kernel's fastest time in that
//! child: a time reads as it would on the reference host at its
//! undisturbed speed.
//!
//! The kernel is the benchmark's own code and shares none with the
//! repository, so a change to the program moves only the scaled times,
//! never the scale. It is shaped like the simulator's inner loop, which is
//! what the host's slow phases slow: a SIMT interpreter over 8 warps of 32
//! lanes with 64 f32 registers each (64 KiB, register-major like
//! `fpx-sim`), a 4 MiB memory read and written at scattered addresses, and
//! a fixed random program with data-dependent branches. Of five sweep runs
//! on the reference host, two fell in a slow phase (passes of 6.2–7.5 s
//! against 4.4–5.4 s, the kernel at 27–42 ms against 24.4–28 ms); their
//! scaled `wall_s` read 3.45 and 3.55 s, the other three 3.39–3.51 s.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in ms, on the reference host at its undisturbed
/// speed (2-vCPU x86-64 share, fastest of many samples in a quiet phase).
pub const REFERENCE_MS: f64 = 25.0;

const WARPS: usize = 8;
const REGS: usize = 64;
const LANES: usize = 32;
const MEM_WORDS: usize = 1 << 20;
const PROGRAM_LEN: usize = 512;
const STEPS: usize = 200_000;

pub struct Kernel {
    regs: Vec<f32>,
    mem: Vec<f32>,
    program: Vec<[u8; 4]>,
}

impl Kernel {
    pub fn new() -> Kernel {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let program = (0..PROGRAM_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let r = x.to_le_bytes();
                [
                    r[0] % 6,
                    r[1] % REGS as u8,
                    r[2] % REGS as u8,
                    r[3] % REGS as u8,
                ]
            })
            .collect();
        let mut k = Kernel {
            regs: vec![0.0; WARPS * REGS * LANES],
            mem: vec![0.0; MEM_WORDS],
            program,
        };
        k.reset();
        k
    }

    /// Back to the starting state, in place.
    fn reset(&mut self) {
        self.regs.fill(1.0);
        for (i, m) in self.mem.iter_mut().enumerate() {
            *m = (i % 97) as f32 * 0.01;
        }
    }

    /// Run `steps` warp-instructions; returns a value that depends on all
    /// of them.
    fn run(&mut self, steps: usize) -> f32 {
        let n = self.mem.len();
        let mut pc = 0;
        for s in 0..steps {
            let base = (s % WARPS) * REGS * LANES;
            let [op, d, a, b] = self.program[pc];
            let (d, a, b) = (d as usize * LANES, a as usize * LANES, b as usize * LANES);
            for l in 0..LANES {
                let ra = self.regs[base + a + l];
                let rb = self.regs[base + b + l];
                let v = match op {
                    0 => ra + rb,
                    1 => ra * rb,
                    2 => self.mem[((ra.to_bits() as usize).wrapping_mul(2_654_435_761) ^ l) % n],
                    3 => {
                        let i = ((rb.to_bits() as usize).wrapping_mul(40_503) + l * 64) % n;
                        self.mem[i] = ra;
                        ra
                    }
                    4 if ra > rb => ra - rb,
                    4 => rb * 0.5,
                    _ => ra.max(rb) + 1.0,
                };
                self.regs[base + d + l] = if v.is_finite() { v } else { 1.0 };
            }
            pc = (pc + 1 + (self.regs[base + d] as usize & 1)) % PROGRAM_LEN;
        }
        self.regs[0]
    }
}

/// Times the kernel from the same starting state every time. It
/// allocates only when made, so the memory it holds stays constant.
pub struct Calibration {
    kernel: Kernel,
    samples_ms: Vec<f64>,
}

impl Calibration {
    pub fn new(samples: usize) -> Calibration {
        Calibration {
            kernel: Kernel::new(),
            samples_ms: Vec::with_capacity(samples),
        }
    }

    /// Time one run of the kernel.
    pub fn sample(&mut self) {
        self.kernel.reset();
        let t0 = Instant::now();
        black_box(self.kernel.run(black_box(STEPS)));
        self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// The fastest sample so far, in ms.
    pub fn fastest_ms(&self) -> f64 {
        self.samples_ms
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Factor that scales a time measured now to the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.fastest_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_sampling_restarts_it() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.run(5_000).to_bits(), b.run(5_000).to_bits());
        let mut c = Calibration::new(2);
        assert!(c.fastest_ms().is_infinite());
        c.sample();
        c.sample();
        assert_eq!(c.samples_ms.len(), 2);
        assert!(c.fastest_ms() > 0.0 && c.fastest_ms() <= c.samples_ms[0]);
        assert!((c.scale() - REFERENCE_MS / c.fastest_ms()).abs() < 1e-12);
        assert_eq!(c.kernel.regs, {
            let mut k = Kernel::new();
            k.run(STEPS);
            k.regs
        });
    }
}
