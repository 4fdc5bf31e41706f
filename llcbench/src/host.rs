//! Host-side measurements: process CPU time and peak resident memory.

use std::io;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + sys) this process has used so far, in ns.
///
/// # Panics
///
/// Panics when the kernel rejects the clock, which Linux never does for
/// this clock id.
pub fn cpu_time_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the reference loop takes at nominal host speed: about its
/// median on the machine this benchmark was written on. It only sets the
/// scale; both sides of any comparison use the same constant.
pub const REFERENCE_NOMINAL_NS: f64 = 45e6;

/// CPU time of a fixed dependent integer chain that touches no memory.
///
/// On a shared host the simulator's CPU time per op drifts by ±10 % or
/// more over minutes, with contention for the physical core (an SMT
/// sibling, frequency); this loop slows with it. The benchmark runs it
/// beside each timed region and scales host times by
/// `REFERENCE_NOMINAL_NS / measured`, which halves the minute-scale drift
/// (README, "Noise and baselines"). No code of the repository runs in
/// it, so no change to the simulator moves it.
pub fn reference_loop_ns() -> u64 {
    let t0 = cpu_time_ns();
    let mut h = 0u64;
    for i in 0..25_000_000u64 {
        h = (h ^ std::hint::black_box(i))
            .wrapping_mul(0x0100_0000_01b3)
            .rotate_left(5);
    }
    std::hint::black_box(h);
    cpu_time_ns() - t0
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))?;
    Ok(kib as f64 / 1024.0)
}
