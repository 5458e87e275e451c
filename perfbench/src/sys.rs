//! Host readings and settings from procfs and from the C library std
//! already links (64-bit Linux with glibc only, no dependencies).

use std::fs;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// glibc `mallopt` parameters.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// User plus system CPU time of this process so far, in seconds, every
/// thread included (threads that have exited too).
///
/// # Panics
///
/// Panics if the kernel refuses the process CPU clock, which Linux always
/// provides.
#[must_use]
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in seconds: time it was
/// descheduled does not count.
///
/// # Panics
///
/// As [`cpu_seconds`].
#[must_use]
pub fn thread_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPUs this process may run on, in ascending order.
///
/// # Errors
///
/// Returns a one-line message when the kernel refuses the query.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    Ok((0..1024).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect())
}

/// Confines the calling thread (and threads it spawns later) to `cpu`.
///
/// # Errors
///
/// Returns a one-line message when the kernel refuses.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    *mask.get_mut(cpu / 64).ok_or_else(|| format!("no CPU {cpu}"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity to CPU {cpu} failed"))
    }
}

/// Fixes glibc's allocator thresholds at the values its own adaptive
/// defaults settle at after the first large free: blocks of 32 MiB and more
/// are mapped on their own, and up to 64 MiB of free heap top is kept.
/// Left adaptive, when that first free happens depends on thread timing,
/// and the first pass's peak resident set size came out 141 or 157 MiB on
/// `suite` from run to run; fixed, it repeats to 0.3 MiB.
///
/// # Errors
///
/// Returns a one-line message when the allocator refuses.
pub fn fix_allocator_thresholds() -> Result<(), String> {
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 64 << 20)] {
        // SAFETY: `mallopt` takes two integers and touches only allocator
        // settings, which it updates under the allocator's own lock.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({param}, {value}) failed"));
        }
    }
    Ok(())
}

/// Resets this process's peak resident set size to its current size
/// (`5` to `/proc/self/clear_refs`), so the next [`peak_rss_mib`] covers
/// only what ran since. Where the kernel refuses, the peak keeps covering
/// the whole process.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
///
/// # Errors
///
/// Returns a one-line message when procfs is missing or malformed.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_and_affinity_round_trips() {
        let (process, thread) = (cpu_seconds(), thread_cpu_seconds());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > process && thread_cpu_seconds() > thread);
        let cpus = allowed_cpus().expect("affinity is readable");
        assert!(!cpus.is_empty());
        // Pin a scratch thread, so the test harness keeps its own CPUs.
        let last = *cpus.last().expect("at least one CPU");
        let pinned = std::thread::spawn(move || {
            pin_to(last).expect("may pin to an allowed CPU");
            allowed_cpus().expect("affinity is readable")
        });
        assert_eq!(pinned.join().expect("thread ends"), vec![last]);
    }
}
