//! CPU time of the process and of the calling thread.
//!
//! The benchmark's bounded metrics are CPU costs rather than wall
//! times: on a shared virtual machine the wall clock also counts time
//! the host gives to other guests (steal), which moves from minute to
//! minute, while the CPU time the process is charged does not include
//! it.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn read(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock` names a CPU-time clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the lowest-numbered CPU it may run on. Returns that CPU, or
/// `None` when the affinity calls fail.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // `cpu_set_t` layout the kernel fills; pid 0 names this thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t` of `size` bytes naming a
    // CPU the thread is already allowed on; pid 0 names this thread.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// CPU time consumed by every thread of the process so far, in ns.
pub(crate) fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far, in ns.
pub(crate) fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        let (p0, t0) = (process_ns(), thread_ns());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = thread_ns() - t0;
        assert!(
            busy > 1_000_000,
            "20M multiply-adds take over a millisecond: {busy} ns"
        );
        assert!(process_ns() - p0 >= busy);
        let t1 = thread_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_ns() - t1 < 10_000_000, "sleeping burns no CPU");
    }
}
