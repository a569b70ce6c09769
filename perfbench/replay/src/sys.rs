//! What the standard library does not expose: CPU time of this process,
//! resource usage of its reaped children, and the host's steal time.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which the first is `ru_maxrss` (kB).
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_CHILDREN: i32 = -1;

/// User+system CPU time of every thread of this process, in ns. One
/// system call, cheap enough to take at every span boundary (the
/// `/proc`-based `leo_obs::resource::cpu_ms` reads a file per thread).
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this harness supports) that
    // outlives the call, and the clock id is a constant the kernel
    // accepts; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (ms) and peak resident set (kB) of the reaped children.
pub fn children_usage() -> (f64, u64) {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        ru_rest: [0; 13],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` with the 64-bit
    // Linux layout (144 bytes) that outlives the call; RUSAGE_CHILDREN
    // is a constant the kernel accepts, and the call writes only `ru`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let ms = |t: &Timeval| t.tv_sec as f64 * 1e3 + t.tv_usec as f64 / 1e3;
    (ms(&ru.ru_utime) + ms(&ru.ru_stime), ru.ru_maxrss as u64)
}

/// `(steal, total)` jiffies over all CPUs from the first line of
/// `/proc/stat`; `(0, 0)` where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share (%) of host CPU time stolen by the hypervisor between readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}
