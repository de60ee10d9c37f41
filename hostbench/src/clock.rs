//! The two host clocks the benchmark reads: wall time, for span
//! timelines and the printed wall-clock figures, and CPU time, for every
//! reported metric.
//!
//! CPU time counts only the time a thread (or the process) actually ran.
//! On the benchmark host, a 2-vCPU KVM guest whose kernel has
//! `CONFIG_PARAVIRT_TIME_ACCOUNTING=y`, it leaves out the time the
//! hypervisor stole, the time the thread waited for a lock or a barrier,
//! and the time other processes held the CPU. In wall time, the spread
//! between runs reached 76% of the median on one metric in busy hours
//! (see README.md); CPU time measures the code, not the neighbours.

use std::time::Instant;

// The layout of `struct timespec` on 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hostbench reads CPU clocks through 64-bit Linux `clock_gettime`");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (64-bit Linux
    // layout, checked above) for the whole call, and `clock` is one of
    // the two CPU-time clock ids Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A reading of both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// Wall clock.
    pub wall: Instant,
    /// CPU time consumed so far, ns.
    pub cpu: u64,
}

impl Stamp {
    /// Wall time and the calling thread's CPU time.
    pub fn thread() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_ns(CLOCK_THREAD_CPUTIME_ID),
        }
    }

    /// Wall time and the CPU time of every thread of the process,
    /// finished ones included.
    pub fn process() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_ns(CLOCK_PROCESS_CPUTIME_ID),
        }
    }

    /// `(wall ns, CPU ns)` from `self` to `later`.
    pub fn to(self, later: Stamp) -> (u64, u64) {
        (
            later.wall.duration_since(self.wall).as_nanos() as u64,
            later.cpu.saturating_sub(self.cpu),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_not_with_sleep() {
        let a = Stamp::thread();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        let b = Stamp::thread();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let c = Stamp::thread();
        let (_, busy) = a.to(b);
        let (slept_wall, slept_cpu) = b.to(c);
        assert!(busy > 0);
        assert!(slept_wall >= 50_000_000);
        assert!(
            slept_cpu < 10_000_000,
            "sleeping used {slept_cpu} ns of CPU"
        );
    }
}
