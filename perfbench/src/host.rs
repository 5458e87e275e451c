//! The host-speed reference.
//!
//! The benchmark runs on shared machines whose CPUs slow down by up to
//! 1.8× while neighbours load the same physical cores or the memory
//! system, for stretches of tens of milliseconds to minutes. A [`Probe`]
//! measures that as it happens: one thread per CPU the workload runs on,
//! pinned there, runs two fixed reference kernels every [`PERIOD`] and
//! records the CPU time each took. The kernels share nothing with the
//! simulator, so they slow with the host and never with a change to the
//! code under test. A timing times [`REFERENCE_S`] over the geometric mean
//! of the two kernels' median samples in the same interval reads as
//! seconds on a host where that mean is exactly `REFERENCE_S`.
//!
//! The two kernels slow in opposite ways from the simulator: a ring of
//! small records updated in place (store-bound, like the pipeline's queues)
//! slows more than it does, a bytecode interpreter (branch- and load-bound,
//! like the emulator) less. Over five sets of 3 to 5 runs, across all three
//! workloads, whose raw pass times spread (IQR / median) 15% to 50%, their
//! geometric mean tracked the simulator's per-pass slowdown with a log-log
//! slope of 0.81 to 1.04 and left spreads of 1.5% to 8.4%. Each kernel
//! alone, or an arithmetic-only kernel, left up to 30%.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::median;
use crate::sys;

/// Time between two reference samples on each probed CPU.
pub const PERIOD: Duration = Duration::from_millis(25);

/// The geometric mean of the two kernels' CPU seconds on an undisturbed
/// host: a 2.1 GHz Xeon vCPU whose core no one else was using (the 1st to
/// 5th percentile of 5596 samples on such a host read 0.387 to 0.393 ms).
pub const REFERENCE_S: f64 = 0.39e-3;

/// Ring updates and interpreter steps per sample. Each kernel first runs
/// a fifth as many untimed, to refill the caches and branch predictor
/// after the workload.
const RING_UPDATES: u64 = 200_000;
const INTERPRETER_STEPS: u64 = 50_000;

const RING_LEN: usize = 128;
const PROGRAM_LEN: usize = 1 << 12;
const TABLE_LEN: usize = 1 << 16;

/// One reference sample: when it ended, the CPU seconds each kernel took,
/// and the sampler's CPU seconds in all (warm-up included).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at: Instant,
    pub ring_s: f64,
    pub interpreter_s: f64,
    pub cpu_s: f64,
}

/// Reference samplers running on a set of CPUs until dropped.
#[derive(Debug)]
pub struct Probe {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<Sample>>>,
    threads: Vec<JoinHandle<()>>,
}

impl Probe {
    /// Starts one sampler pinned to each of `cpus`.
    #[must_use]
    pub fn start(cpus: &[usize]) -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
                std::thread::spawn(move || sample_until(cpu, &stop, &samples))
            })
            .collect();
        Probe { stop, samples, threads }
    }

    /// The samples that ended between `from` and `to`.
    #[must_use]
    pub fn between(&self, from: Instant, to: Instant) -> Vec<Sample> {
        let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        samples.iter().filter(|s| (from..=to).contains(&s.at)).copied().collect()
    }

    /// CPU seconds the samplers spent on samples that ended between `from`
    /// and `to`.
    #[must_use]
    pub fn cpu_s(&self, from: Instant, to: Instant) -> f64 {
        self.between(from, to).iter().map(|s| s.cpu_s).sum()
    }

    /// The host's speed between `from` and `to`, relative to the reference
    /// host. An interval too short to hold a sample waits for the next one.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when no sample arrives within a second
    /// (no sampler could pin itself to its CPU).
    pub fn speed(&self, from: Instant, to: Instant) -> Result<f64, String> {
        let mut samples = self.between(from, to);
        let deadline = Instant::now() + Duration::from_secs(1);
        while samples.is_empty() {
            if Instant::now() > deadline {
                return Err("the host-speed probe took no samples".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
            samples = self.between(to, Instant::now()).into_iter().take(1).collect();
        }
        let ring: Vec<f64> = samples.iter().map(|s| s.ring_s).collect();
        let interpreter: Vec<f64> = samples.iter().map(|s| s.interpreter_s).collect();
        Ok(REFERENCE_S / (median(&ring) * median(&interpreter)).sqrt())
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// A sampler's loop. A CPU it may not pin to gets no samples, which
/// [`Probe::speed`] reports.
fn sample_until(cpu: usize, stop: &AtomicBool, samples: &Mutex<Vec<Sample>>) {
    if sys::pin_to(cpu).is_err() {
        return;
    }
    let mut kernels = Kernels::new();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(PERIOD);
        let begin = sys::thread_cpu_seconds();
        black_box(kernels.ring(RING_UPDATES / 5));
        let start = sys::thread_cpu_seconds();
        black_box(kernels.ring(RING_UPDATES));
        let ring_s = sys::thread_cpu_seconds() - start;
        black_box(kernels.interpret(INTERPRETER_STEPS / 5));
        let start = sys::thread_cpu_seconds();
        black_box(kernels.interpret(INTERPRETER_STEPS));
        let end = sys::thread_cpu_seconds();
        let sample =
            Sample { at: Instant::now(), ring_s, interpreter_s: end - start, cpu_s: end - begin };
        samples.lock().unwrap_or_else(PoisonError::into_inner).push(sample);
    }
}

/// The two reference kernels and their data: a fixed random program and
/// table for the interpreter, and the ring of records.
struct Kernels {
    program: Vec<u32>,
    table: Vec<u32>,
    ring: Vec<[u64; 4]>,
}

impl Kernels {
    fn new() -> Kernels {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        };
        let program = (0..PROGRAM_LEN).map(|_| next()).collect();
        let table = (0..TABLE_LEN).map(|_| next()).collect();
        Kernels { program, table, ring: vec![[0; 4]; RING_LEN] }
    }

    /// Updates the ring's records in turn, each with a data-dependent
    /// branch: mostly loads and stores to a few KiB.
    fn ring(&mut self, updates: u64) -> u64 {
        let mut head = 0;
        for i in 0..black_box(updates) {
            let e = &mut self.ring[head];
            e[0] = e[0].wrapping_add(i);
            if e[0] & 3 == 0 {
                e[2] ^= e[1];
            } else {
                e[1] = e[1].wrapping_add(e[0] >> 2);
            }
            if i % 7 == 0 {
                e[3] = e[2].wrapping_mul(3);
            }
            head = (head + 1) % RING_LEN;
        }
        self.ring.iter().map(|e| e[3]).fold(0, u64::wrapping_add)
    }

    /// Interprets the program: eight register operations, with
    /// data-dependent jumps and loads from a 256 KiB table.
    fn interpret(&self, steps: u64) -> [u64; 8] {
        let mut regs = [1u64; 8];
        let mut pc = 0;
        for _ in 0..black_box(steps) {
            let op = self.program[pc];
            let a = (op >> 3 & 7) as usize;
            let b = (op >> 6 & 7) as usize;
            match op & 7 {
                0 => regs[a] = regs[a].wrapping_add(regs[b]),
                1 => regs[a] ^= regs[b].rotate_left(op >> 9 & 63),
                2 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
                3 => regs[a] = u64::from(self.table[regs[b] as usize % TABLE_LEN]),
                4 => {
                    if regs[a] & 1 == 0 {
                        pc = (pc + (op >> 12) as usize) % PROGRAM_LEN;
                    }
                }
                5 => regs[a] = regs[a].wrapping_sub(u64::from(op)),
                6 => {
                    if regs[a] > regs[b] {
                        regs.swap(a, b);
                    }
                }
                _ => regs[b] = regs[a] >> 3,
            }
            pc = (pc + 1) % PROGRAM_LEN;
        }
        regs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        let (mut a, mut b) = (Kernels::new(), Kernels::new());
        assert_eq!(a.ring(10_000), b.ring(10_000));
        assert_eq!(a.interpret(10_000), b.interpret(10_000));
        assert_ne!(a.interpret(10_000), a.interpret(10_001));
    }

    #[test]
    fn probe_samples_until_dropped() {
        let cpus = sys::allowed_cpus().expect("affinity is readable");
        let start = Instant::now();
        let probe = Probe::start(&cpus[..1]);
        let speed = probe.speed(start, start).expect("a sample arrives");
        std::thread::sleep(PERIOD * 3);
        let samples = probe.between(start, Instant::now());
        drop(probe);
        assert!(speed > 0.0 && speed.is_finite());
        assert!(!samples.is_empty());
        assert!(samples.iter().all(|s| s.ring_s > 0.0 && s.interpreter_s > 0.0));
        assert!(samples.iter().all(|s| s.cpu_s > s.ring_s + s.interpreter_s));
    }
}
