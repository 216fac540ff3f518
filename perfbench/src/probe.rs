//! The host-speed probe that calibrates every end-to-end timing.
//!
//! The benchmark's host is a shared VM: each vCPU sits on a hyper-threaded core
//! whose sibling runs other tenants' work, so how fast a core executes changes
//! from second to second. On the development host a fixed simulator cell took
//! either about 8 or about 14 ms, switching every few seconds and independently
//! per vCPU, and a run's wall time followed the share of time it was slowed.
//!
//! The probe measures that speed while the workload runs. One thread per CPU the
//! process may use, pinned to it, wakes every [`PERIOD`] and times a fixed
//! kernel on its thread CPU clock, which leaves out time the thread waits. The
//! kernel is eight independent integer streams over an L1-resident table: like
//! the simulator, it is limited by the core's issue resources, which is what a
//! busy sibling takes away. In a 150-second trial the log of a `fig5` render's
//! time followed the log of this kernel's time with slope 0.98 and correlation
//! 0.985; kernels bound by one dependence chain or by memory followed it with
//! slopes of 1.5–1.8.
//!
//! A calibrated time is a wall time multiplied by the mean speed the probes saw
//! over the same interval, speed being [`REFERENCE_NS`] over the kernel's time:
//! the time the interval would have taken on a core running the kernel in
//! exactly [`REFERENCE_NS`]. The probes use about 1% of each CPU.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often each probe thread times its kernel.
const PERIOD: Duration = Duration::from_millis(20);

/// Kernel steps per sample: about 0.2 ms on the development host.
const KERNEL_STEPS: u32 = 100_000;

/// Independent streams of the kernel.
const STREAMS: usize = 8;

/// Words of the kernel's table: 32 KiB, so it stays in the L1 data cache.
const TABLE_WORDS: usize = 8192;

/// The reference kernel time, a fixed unit. On the development host (Intel Xeon,
/// 2 vCPUs) the probes' mean speed during a `fig5-20k` run was 1.01 with it when
/// it was chosen, and 0.96–2.85 over later runs as the host's speed changed.
pub const REFERENCE_NS: f64 = 200_000.0;

/// A window shorter than this is widened on both sides to it, so that short
/// repetitions still average several samples per CPU.
const MIN_WINDOW: Duration = Duration::from_millis(400);

/// The probe threads, running until [`HostProbe::finish`] or drop.
pub struct HostProbe {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
}

impl HostProbe {
    /// Starts one probe thread per CPU this process may run on (one unpinned
    /// thread where the CPUs cannot be listed).
    pub fn start() -> HostProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let cpus = affinity::allowed_cpus();
        let pins: Vec<Option<usize>> = if cpus.is_empty() {
            vec![None]
        } else {
            cpus.into_iter().map(Some).collect()
        };
        let threads = pins
            .into_iter()
            .map(|cpu| {
                let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
                std::thread::spawn(move || probe_loop(cpu, &stop, &samples))
            })
            .collect();
        HostProbe {
            stop,
            threads,
            samples,
        }
    }

    /// Stops and joins the probe threads and returns what they measured.
    pub fn finish(mut self) -> Speeds {
        self.halt();
        let mut samples = std::mem::take(
            &mut *self
                .samples
                .lock()
                .expect("a probe thread panicked while recording"),
        );
        samples.sort_by_key(|&(at, _)| at);
        Speeds { samples }
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            if t.join().is_err() {
                eprintln!("warning: a host-speed probe thread panicked");
            }
        }
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        self.halt();
    }
}

fn probe_loop(cpu: Option<usize>, stop: &AtomicBool, samples: &Mutex<Vec<(Instant, f64)>>) {
    if let Some(cpu) = cpu {
        affinity::pin_to(cpu);
    }
    let mut table: Vec<u32> = (0..TABLE_WORDS as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    kernel(&mut table); // fill the cache before the first sample
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(PERIOD);
        let Some(start) = affinity::thread_cpu_ns() else {
            return;
        };
        kernel(&mut table);
        let Some(end) = affinity::thread_cpu_ns() else {
            return;
        };
        let speed = REFERENCE_NS / end.saturating_sub(start).max(1) as f64;
        samples
            .lock()
            .expect("a probe thread panicked while recording")
            .push((Instant::now(), speed));
    }
}

/// Eight independent xorshift streams, each reading and rewriting a word of the
/// table chosen by its state with a data-dependent branch.
fn kernel(table: &mut [u32]) -> u64 {
    let mask = table.len() - 1;
    let mut state: [u64; STREAMS] =
        std::array::from_fn(|i| (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut acc = 0u64;
    for _ in 0..KERNEL_STEPS / STREAMS as u32 {
        for s in state.iter_mut() {
            let mut x = *s;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *s = x;
            let i = x as usize & mask;
            let v = table[i];
            if v & 1 == 1 {
                acc = acc.wrapping_add(u64::from(v));
                table[i] = v.wrapping_mul(3);
            } else {
                acc ^= i as u64;
                table[i] = v.wrapping_add(x as u32 | 1);
            }
        }
    }
    black_box(table);
    black_box(acc)
}

/// The speed samples of one probed run, in time order.
pub struct Speeds {
    samples: Vec<(Instant, f64)>,
}

impl Speeds {
    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Mean speed over every sample, or 1 without samples.
    pub fn overall(&self) -> f64 {
        mean(self.samples.iter().map(|&(_, s)| s)).unwrap_or(1.0)
    }

    /// The `q`-quantile (0–1, nearest rank) of the speed samples, or 1 without any.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut s: Vec<f64> = self.samples.iter().map(|&(_, s)| s).collect();
        s.sort_by(f64::total_cmp);
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len().max(1));
        s.get(rank - 1).copied().unwrap_or(1.0)
    }

    /// Mean speed over `[from, to]`, widened to at least [`MIN_WINDOW`]; the mean
    /// over every sample when the window holds none, and 1 without samples.
    pub fn over(&self, from: Instant, to: Instant) -> f64 {
        let short = MIN_WINDOW.saturating_sub(to - from) / 2;
        let (from, to) = (from.checked_sub(short).unwrap_or(from), to + short);
        mean(
            self.samples
                .iter()
                .filter(|&&(at, _)| at >= from && at <= to)
                .map(|&(_, s)| s),
        )
        .unwrap_or_else(|| self.overall())
    }

    /// `wall` seconds spent over `[from, from + wall]`, in calibrated seconds.
    pub fn calibrate(&self, from: Instant, wall: Duration) -> f64 {
        wall.as_secs_f64() * self.over(from, from + wall)
    }
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (n, sum) = values.fold((0u32, 0.0), |(n, sum), v| (n + 1, sum + v));
    (n > 0).then(|| sum / f64::from(n))
}

/// CPU pinning and the thread CPU clock, from glibc.
#[cfg(target_os = "linux")]
mod affinity {
    use std::ffi::{c_int, c_long};

    /// `cpu_set_t`: 1024 CPUs.
    const SET_WORDS: usize = 16;
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: c_long,
    }

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }

    /// The CPUs this thread may run on; empty when they cannot be read.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut set = [0u64; SET_WORDS];
        // SAFETY: `set` is a writable buffer of exactly the size passed, and pid 0
        // names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..SET_WORDS * 64)
            .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Pins the calling thread to `cpu`; on failure it stays where it may run.
    pub fn pin_to(cpu: usize) {
        let mut set = [0u64; SET_WORDS];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a readable buffer of exactly the size passed, and pid 0
        // names the calling thread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr());
        }
    }

    /// The calling thread's CPU time in nanoseconds.
    pub fn thread_cpu_ns() -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }
}

/// Without a thread CPU clock the probes take no samples and every speed is 1.
#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin_to(_cpu: usize) {}

    pub fn thread_cpu_ns() -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn speed_is_the_mean_over_the_widened_window() {
        let t = Instant::now();
        let speeds = Speeds {
            samples: vec![
                (at(t, 0), 1.0),
                (at(t, 1000), 0.5),
                (at(t, 1100), 0.7),
                (at(t, 3000), 1.0),
            ],
        };
        // A 2-second window holds the two middle samples only.
        let (a, b) = (at(t, 500), at(t, 2500));
        assert!((speeds.over(a, b) - 0.6).abs() < 1e-12);
        assert!((speeds.calibrate(a, b - a) - 1.2).abs() < 1e-12);
        // A 10 ms window at 1050 ms widens to 400 ms and catches both middle samples.
        assert!((speeds.over(at(t, 1045), at(t, 1055)) - 0.6).abs() < 1e-12);
        // A window with no sample falls back to the overall mean.
        assert!((speeds.over(at(t, 2000), at(t, 2500)) - 0.8).abs() < 1e-12);
        assert_eq!(speeds.len(), 4);
        assert_eq!(Speeds { samples: vec![] }.over(a, b), 1.0);
    }

    #[test]
    fn probes_sample_and_stop() {
        let probe = HostProbe::start();
        std::thread::sleep(PERIOD * 6);
        let speeds = probe.finish();
        if cfg!(target_os = "linux") {
            assert!(speeds.len() > 0, "no probe sample in {:?}", PERIOD * 6);
            assert!(speeds.overall() > 0.0 && speeds.overall().is_finite());
        } else {
            assert_eq!(speeds.overall(), 1.0);
        }
    }
}
