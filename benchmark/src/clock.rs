//! What the harness reads from the operating system: process CPU time at
//! nanosecond resolution, hypervisor steal, the resident-set high-water mark.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// The kernel's `cpu_set_t`: 1024 CPUs, one bit each.
pub type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, in seconds.
///
/// `/proc/self/stat` counts in 10 ms ticks and `/proc/self/schedstat` lags the
/// running thread by up to a tick; the POSIX clock is exact at any instant.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) that outlives the call, and the clock id
    // is a constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds of hypervisor steal since boot, summed over all CPUs (`/proc/stat`
/// counts in `USER_HZ` = 100 ticks per second). `0.0` where the file or the
/// field is missing — a machine that cannot report steal reports none.
pub fn steal_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

fn status_bytes(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// The process's resident-set high-water mark (`VmHWM`) in bytes; `0` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// The process's current resident set (`VmRSS`) in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// Hands the allocator's free pages back to the kernel and resets `VmHWM` to
/// the resident set that is left, so that a later [`peak_rss_bytes`] minus
/// [`rss_bytes`] now is what the program allocated since — not what the
/// input generator once held, and not generator leftovers being reused.
/// Returns whether the kernel allowed the reset; if not, the high-water mark
/// simply keeps covering the generator too.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` takes no pointers and may be called at any time
    // from any thread; it only releases memory the allocator holds free.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPUs the calling thread may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPUs the calling thread may run on, or `None` where the kernel will
/// not say.
pub fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

/// Restricts the calling thread — and every thread it spawns from now on —
/// to `set`. Returns whether the kernel agreed.
pub fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may use (CPU 0 serves most interrupts). Returns
/// the previous set, to restore with [`set_affinity`], or `None` if nothing
/// was changed.
///
/// Every gated workload keeps one thread busy at a time, so one CPU loses
/// nothing — and the hand-off between the generator and the `Server` worker
/// becomes a context switch instead of a wake-up of a halted virtual CPU,
/// whose cost on a shared host changes from minute to minute.
pub fn pin_to_one_cpu() -> Option<CpuSet> {
    let before = affinity()?;
    let (word, bits) = before.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - bits.leading_zeros());
    set_affinity(&one).then_some(before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_os_counters_parse() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > before, "cpu clock must advance ({x})");
        assert!(steal_s() >= 0.0);
        assert!(peak_rss_bytes() > 0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_restores() {
        // on a thread of its own: affinity is per thread, and other tests of
        // this process must keep theirs
        std::thread::spawn(|| {
            let before = pin_to_one_cpu().expect("affinity can be read and set");
            let pinned = affinity().expect("affinity can be read");
            assert_eq!(pinned.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert!(pinned.iter().zip(&before).all(|(p, b)| p & b == *p), "a CPU we had before");
            assert!(set_affinity(&before));
            assert_eq!(affinity(), Some(before));
        })
        .join()
        .expect("no panic");
    }
}
