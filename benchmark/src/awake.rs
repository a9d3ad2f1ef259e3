//! Keeps the CPUs from idling while the benchmark measures.
//!
//! The sizing machine is a small virtual machine. When one of its CPUs has
//! nothing to run the guest halts it, and how long the host then takes to
//! wake it, and at what speed the half-idle machine runs, changes from
//! minute to minute: the same request path read 365 µs or 520 µs, the same
//! single-threaded planning 84 ms or 127 ms. A benchmark always has an idle
//! CPU (one planner thread on two cores; a client that sleeps while the
//! daemon works), so it always pays this. One thread per CPU that spins at
//! the `SCHED_IDLE` policy removes it: such a thread runs only when nothing
//! else wants the CPU and is preempted the moment the program's thread
//! wakes, but the CPU never halts. The program's own threads are untouched.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The idle-priority spinners; dropping it stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<bool>>,
}

impl KeepAwake {
    /// One spinner per available CPU. Where the idle policy cannot be set
    /// (not Linux, or refused) the threads end at once and nothing spins.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !enter_idle_policy() {
                        return false;
                    }
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..4096 {
                            std::hint::spin_loop();
                        }
                    }
                    true
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }

    /// Stops the spinners; how many of them ran at the idle policy.
    pub fn stop(mut self) -> usize {
        self.join()
    }

    fn join(&mut self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.threads
            .drain(..)
            .filter_map(|t| t.join().ok())
            .filter(|&spun| spun)
            .count()
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.join();
    }
}

/// Moves the calling thread to `SCHED_IDLE`; false when that failed.
#[cfg(target_os = "linux")]
fn enter_idle_policy() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler(2)` from the C library `std` links; pid 0
    // is the calling thread, `param` is a live `struct sched_param` (one
    // int on Linux) that the call only reads, and priority 0 is the one
    // value `SCHED_IDLE` accepts. Lowering one's own policy needs no
    // privilege.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_policy() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_stop_when_told() {
        let awake = KeepAwake::start();
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert!(awake.stop() <= cpus);
    }
}
