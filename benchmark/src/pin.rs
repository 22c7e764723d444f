//! Confines the benchmark process to one CPU.
//!
//! The fleet workload runs two threads, the driver and one ingestion
//! worker. On a two-CPU machine the scheduler sometimes places them on the
//! same CPU and sometimes on different ones, and the fleet's round time
//! moves by 1.6× with the placement, back and forth every few seconds. On
//! one CPU the two threads always share it, which is also the repository's
//! reference configuration (one hardware thread). The other workloads run
//! one thread, and for them the pin changes nothing.

/// Bits in the kernel's `cpu_set_t`.
const CPU_SET_BITS: usize = 1024;
type CpuSet = [u64; CPU_SET_BITS / 64];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts later, to the
/// lowest-numbered CPU it may run on. Call it before anything starts a
/// thread. Returns that CPU, or `None` if the affinity calls failed.
pub fn to_one_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; CPU_SET_BITS / 64];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_BITS).find(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)?;
    let mut one: CpuSet = [0; CPU_SET_BITS / 64];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}
