//! Confining the whole process to one CPU that never goes idle.
//!
//! `lstm-serve` hands every request from thread to thread (client,
//! connection handler, batch dispatcher, pool worker). Spread over
//! several CPUs of a shared virtual machine, each hand-off may have to
//! wake an idle virtual CPU, and how long that takes depends on the
//! host's other tenants: the latency tail then measures the host. On one
//! CPU every hand-off is a plain context switch, and the benchmark's own
//! calibration kernel runs on the same CPU as the program. The one idle
//! gap left in a request is the batcher's timed wait; a spinning thread
//! at `SCHED_IDLE` priority fills it, so the virtual CPU is not handed
//! back to the host there. It runs only when no other thread of the
//! process can, and any waking thread preempts it at once.

use std::mem::size_of;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

type Mask = [u64; 16];

const SCHED_IDLE: i32 = 5;

/// The process pinned to one CPU; dropping it stops the idle spinner and
/// restores the old mask.
pub struct Pinned {
    saved: Mask,
    pub cpu: usize,
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

/// Pin every thread of the process, and so every thread it starts later,
/// to the lowest CPU it may run on, and start the idle spinner there.
/// `None` if the mask cannot be read.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut saved: Mask = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<Mask>()` bytes into `saved`.
    if unsafe { sched_getaffinity(0, size_of::<Mask>(), saved.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..saved.len() * 64).find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: Mask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_all_threads(&one);
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let spinner = std::thread::Builder::new()
        .name("perfbench-idle".into())
        .spawn(move || {
            let param = 0i32;
            // SAFETY: `param` is a valid `sched_param` (one int) for the call.
            if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                // At normal priority it would compete with the program.
                return;
            }
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        })
        .ok();
    Some(Pinned {
        saved,
        cpu,
        stop,
        spinner,
    })
}

fn set_all_threads(mask: &Mask) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<i32>().ok())
    {
        // SAFETY: the kernel only reads `size_of::<Mask>()` bytes of `mask`.
        unsafe { sched_setaffinity(tid, size_of::<Mask>(), mask.as_ptr()) };
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.spinner.take() {
            let _ = h.join();
        }
        set_all_threads(&self.saved);
    }
}
