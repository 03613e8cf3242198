//! Keeping the request path on one CPU while the loop runs.
//!
//! A closed loop with one batch outstanding is a ping-pong between the
//! generator thread and a replica's serving loop: each sleeps while the
//! other works. On this box (2 vCPUs, nested virtualisation) waking a
//! thread on the *other* vCPU costs anything from 5 µs (the idle vCPU was
//! still halt-polling) over 25 µs (it had halted) to 1.3 ms (the host had
//! descheduled it), and the scheduler flips between the placements within
//! a run: unpinned, `wire_small`'s batch p50 read 36, 70, 73 and 91 µs on
//! four consecutive runs and its throughput 42 k to 195 k pairs/s. With
//! the generator thread and the `tivgate-*` serving loops sharing one
//! CPU the same loop reads 17-18 µs (3 % apart on six consecutive runs)
//! with no millisecond tail: what is left is the work the code does,
//! which is what the benchmark is for.
//!
//! Which CPU they share changes from slice to slice ([`SharedCpu::pin_on`]
//! over [`allowed_cpus`] in turn): each vCPU of this box drops into a
//! slower state for seconds to minutes at a time, independently of the
//! other, and a loop that stays on one of them inherits its state for
//! the whole run. Spread over all of them, at most every other slice is
//! slow while one vCPU is, and the across-slice estimator
//! (`stats::best_quartile`) reads the others.
//!
//! Only those threads are pinned, and only while the closed loop runs:
//! dropping the guard gives every one of them its own mask back, so
//! set-up, checks, the open-loop ladder and the probes run against an
//! unpinned deployment. The publisher and the `tivpar` pool always keep
//! the whole machine (a pinned thread would also resolve `threads = 0` to
//! one worker). This sets no knob of the program; on a platform without
//! `sched_setaffinity` the loop simply runs unpinned.
//!
//! [`Awake`] is the other thing done to the machine while a loop runs:
//! idle-class spinners that keep the vCPUs from halting under the one
//! workload whose request path wakes threads on other CPUs.
//!
//! The three system calls below are the only `unsafe` of the package
//! (`main.rs` denies it everywhere else).

/// A CPU mask as the kernel takes it (room for 1024 CPUs).
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    /// Runs only when nothing else on the CPU wants to.
    pub const SCHED_IDLE: i32 = 5;
}

/// Puts the calling thread under `SCHED_IDLE`: it runs only while its
/// CPU has nothing else to run, and any thread that wakes there
/// preempts it at once. Needs no privilege.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn run_only_when_idle() -> bool {
    // `struct sched_param` is one `int`, the static priority, 0 here.
    let param = 0i32;
    // SAFETY: the kernel only reads one `int` from a live local.
    unsafe { sys::sched_setscheduler(0, sys::SCHED_IDLE, &param) == 0 }
}

/// No idle class to ask for (unsupported platform).
#[cfg(not(target_os = "linux"))]
fn run_only_when_idle() -> bool {
    false
}

impl CpuSet {
    /// The mask of thread `tid` (0 = the calling thread).
    #[cfg(target_os = "linux")]
    #[allow(unsafe_code)]
    pub fn of(tid: i32) -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the kernel writes at most `size_of_val(&set.0)` bytes
        // into the buffer we own.
        let rc = unsafe {
            sys::sched_getaffinity(tid, std::mem::size_of_val(&set.0), set.0.as_mut_ptr())
        };
        (rc == 0).then_some(set)
    }

    /// The mask of thread `tid` (unsupported platform: none).
    #[cfg(not(target_os = "linux"))]
    pub fn of(_tid: i32) -> Option<CpuSet> {
        None
    }

    /// Every CPU of the mask as a mask of its own, highest-numbered first.
    pub fn singles(&self) -> Vec<CpuSet> {
        let mut out = Vec::new();
        for (word, &bits) in self.0.iter().enumerate().rev() {
            for bit in (0..64).rev().filter(|b| bits >> b & 1 == 1) {
                let mut only = CpuSet([0; 16]);
                only.0[word] = 1 << bit;
                out.push(only);
            }
        }
        out
    }

    /// Applies the mask to thread `tid` (0 = the calling thread).
    #[cfg(target_os = "linux")]
    #[allow(unsafe_code)]
    pub fn apply(&self, tid: i32) -> bool {
        // SAFETY: the kernel only reads `size_of_val(&self.0)` bytes from
        // a buffer that outlives the call.
        unsafe { sys::sched_setaffinity(tid, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }

    /// Applies the mask (unsupported platform: never).
    #[cfg(not(target_os = "linux"))]
    pub fn apply(&self, _tid: i32) -> bool {
        false
    }
}

/// Thread ids of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> Vec<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    tasks
        .filter_map(Result::ok)
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
        .collect()
}

/// The CPUs the calling thread may run on, each as a mask of its own,
/// highest-numbered first (unsupported platform: none). Ask before the
/// first pin: a pinned thread has one.
pub fn allowed_cpus() -> Vec<CpuSet> {
    CpuSet::of(0).map_or_else(Vec::new, |set| set.singles())
}

/// While alive, the calling thread and every `tivgate-*` serving loop
/// share one CPU; dropping it gives each of them the mask it had.
pub struct SharedCpu {
    /// `(tid, mask before pinning)`; tid 0 is the calling thread.
    restore: Vec<(i32, CpuSet)>,
}

impl SharedCpu {
    /// Pins on `one` (`None`: nowhere); returns the guard and whether
    /// every thread took the mask.
    pub fn pin_on(one: Option<&CpuSet>) -> (SharedCpu, bool) {
        SharedCpu::pin_with("tivgate-", one)
    }

    /// [`SharedCpu::pin_on`] for serving loops named `prefix*`.
    fn pin_with(prefix: &str, one: Option<&CpuSet>) -> (SharedCpu, bool) {
        let mut guard = SharedCpu { restore: Vec::new() };
        let Some(one) = one else {
            return (guard, false);
        };
        let servers = threads_named(prefix);
        let mut ok = !servers.is_empty();
        for tid in std::iter::once(0).chain(servers) {
            match CpuSet::of(tid) {
                Some(before) if one.apply(tid) => guard.restore.push((tid, before)),
                _ => ok = false,
            }
        }
        (guard, ok)
    }
}

/// While alive, no allowed CPU goes to sleep: each has a thread of the
/// idle class spinning on it.
///
/// A vCPU of this box that runs out of work halts, and waking a thread
/// on a halted vCPU goes through the host: 25 µs on a good minute, a
/// millisecond on a bad one. The shard fan-out of `wire_bulk` pays that
/// for three pool workers on every share of every batch, so its batch
/// time followed the host's mood: ten runs read 1 209–1 657 µs, and the
/// same ten interleaved with them but with the CPUs kept awake
/// 1 096–1 403 µs (quartile spread 13 % against 9 %, every pair faster).
/// A spinner yields to any thread that becomes runnable and takes no
/// time from one: it is what `idle=poll` on the kernel command line
/// would do, from inside the benchmark. A thread that cannot join the
/// idle class ends at once instead of spinning at normal priority.
pub struct Awake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl Awake {
    /// One spinner per CPU of `cpus`.
    pub fn keep(cpus: &[CpuSet]) -> Awake {
        Awake::keep_named("tivmark-awake", cpus)
    }

    /// [`Awake::keep`] with spinners named `prefix-<i>`.
    fn keep_named(prefix: &str, cpus: &[CpuSet]) -> Awake {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let spinners = cpus
            .iter()
            .enumerate()
            .filter_map(|(i, &one)| {
                let stop = stop.clone();
                std::thread::Builder::new()
                    .name(format!("{prefix}-{i}"))
                    .spawn(move || {
                        if !(one.apply(0) && run_only_when_idle()) {
                            return;
                        }
                        // No `spin_loop` hint: a run of PAUSEs makes the
                        // host take the vCPU away, which is the sleep
                        // this thread is here to prevent.
                        let mut turns = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            turns = std::hint::black_box(turns.wrapping_add(1));
                        }
                    })
                    .ok()
            })
            .collect();
        Awake { stop, spinners }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            spinner.join().ok();
        }
    }
}

impl Drop for SharedCpu {
    fn drop(&mut self) {
        for (tid, before) in &self.restore {
            // A serving loop that has ended meanwhile has no mask to restore.
            before.apply(*tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpus(set: &CpuSet) -> u32 {
        set.0.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn singles_lists_every_cpu_alone_highest_first() {
        let mut set = CpuSet([0; 16]);
        assert!(set.singles().is_empty());
        set.0[0] = 0b1011;
        set.0[2] = 1 << 5;
        let singles = set.singles();
        assert_eq!(singles.len(), 4);
        assert!(singles.iter().all(|one| cpus(one) == 1));
        assert_eq!((singles[0].0[2], singles[0].0[0]), (1 << 5, 0));
        let low: Vec<u64> = singles[1..].iter().map(|one| one.0[0]).collect();
        assert_eq!(low, [0b1000, 0b10, 0b1]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_narrows_the_calling_thread_and_the_guard_restores_it() {
        // A thread of our own, so parallel tests keep their masks.
        std::thread::spawn(|| {
            let before = CpuSet::of(0).expect("affinity readable");
            let (guard, _servers_found) = SharedCpu::pin_on(allowed_cpus().first());
            assert_eq!(cpus(&CpuSet::of(0).expect("affinity readable")), 1);
            drop(guard);
            assert_eq!(CpuSet::of(0).expect("affinity readable").0, before.0);
        })
        .join()
        .expect("pinning thread");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_in_turn_visits_every_allowed_cpu_and_nowhere_pins_nothing() {
        std::thread::spawn(|| {
            let before = CpuSet::of(0).expect("affinity readable");
            let allowed = allowed_cpus();
            assert_eq!(allowed.len() as u32, cpus(&before));
            for one in &allowed {
                let (guard, _servers_found) = SharedCpu::pin_on(Some(one));
                assert_eq!(CpuSet::of(0).expect("affinity readable").0, one.0);
                drop(guard);
                assert_eq!(CpuSet::of(0).expect("affinity readable").0, before.0);
            }
            let (_guard, ok) = SharedCpu::pin_on(None);
            assert!(!ok);
            assert_eq!(CpuSet::of(0).expect("affinity readable").0, before.0);
        })
        .join()
        .expect("pinning thread");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn spinners_sit_one_per_cpu_in_the_idle_class_and_end_with_the_guard() {
        // A prefix of its own: other tests keep the CPUs awake too.
        let allowed = allowed_cpus();
        let awake = Awake::keep_named("awaketest", &allowed);
        assert_eq!(awake.spinners.len(), allowed.len());
        // Give them a moment to pin and change class.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let tids = threads_named("awaketest-");
        assert_eq!(tids.len(), allowed.len());
        for tid in &tids {
            assert_eq!(cpus(&CpuSet::of(*tid).expect("affinity readable")), 1);
            // Field 41 of /proc/<tid>/stat is the scheduling policy.
            let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap();
            let policy = stat.rsplit(')').next().unwrap().split_whitespace().nth(38).unwrap();
            assert_eq!(policy, sys::SCHED_IDLE.to_string());
        }
        drop(awake);
        assert!(threads_named("awaketest-").is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_pinned_serving_loop_gets_its_own_mask_back() {
        use std::sync::mpsc;
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        // A prefix of its own, so tests that pin real deployments in
        // parallel never touch this thread, nor this test theirs.
        let server = std::thread::Builder::new()
            .name("pintest-loop".to_string())
            .spawn(move || {
                ready_tx.send(()).expect("test waits");
                done_rx.recv().ok();
            })
            .expect("spawn");
        ready_rx.recv().expect("server up");
        let tid = threads_named("pintest-")[0];
        let before = CpuSet::of(tid).expect("affinity readable");
        std::thread::spawn(move || {
            let (guard, ok) = SharedCpu::pin_with("pintest-", allowed_cpus().first());
            assert!(ok);
            assert_eq!(cpus(&CpuSet::of(tid).expect("affinity readable")), 1);
            drop(guard);
            assert_eq!(CpuSet::of(tid).expect("affinity readable").0, before.0);
        })
        .join()
        .expect("pinning thread");
        done_tx.send(()).expect("server waits");
        server.join().expect("server thread");
    }
}
