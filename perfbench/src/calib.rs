//! Host-speed calibration. The benchmark shares its CPUs with other
//! tenants, and the speed they leave each vCPU swings by up to ~1.8×
//! within seconds, only partly in step from one vCPU to the other, and
//! the share of time spent slow drifts from minute to minute. So the
//! measured work runs on one pinned CPU, and a fixed reference computation
//! that uses none of the workspace's code is timed on that same CPU next
//! to the measurements. Measured times are reported in *reference
//! seconds*, `time × NOMINAL_S / reference time`:
//!
//! - batch workloads: each design's share of a pass over the mean of the
//!   reference samples taken just before and just after it;
//! - `serve-mixed`: each request's latency over the mean of the reference
//!   runs taken, while the daemon was idle, within a second of it.
//!
//! A change to the workspace leaves the reference as it is, so it moves
//! the calibrated times by the same share as the raw ones.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Time of one reference run that the calibrated times are scaled to,
/// about its time on a 2.1 GHz Xeon vCPU when nothing else slows it; a
/// calibrated time is about the raw time such a quiet host gives.
pub const NOMINAL_S: f64 = 0.025;

/// Reference runs per sample; the sample is their mean.
const REPEATS: usize = 3;

/// Elements the reference sorts and hashes.
const LEN: usize = 400_000;

/// The reference computation with its buffers, allocated once so that the
/// calibration adds the same amount to the process's peak memory on every
/// run.
pub struct Reference {
    values: Vec<u64>,
    map: HashMap<u64, usize>,
}

impl Reference {
    pub fn new() -> Self {
        Self {
            values: Vec::with_capacity(LEN),
            map: HashMap::with_capacity(LEN),
        }
    }

    /// One reference run on the calling thread's CPU, in seconds: sorts
    /// and hashes a fixed pseudo-random array (branchy, allocation-free,
    /// cache-missing work like that of the flows).
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        self.values.clear();
        self.values.extend((0..LEN).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        self.values.sort_unstable();
        self.map.clear();
        for (i, &k) in self.values.iter().enumerate() {
            self.map.insert(k >> 20, i);
        }
        let map = &self.map;
        let hits = self
            .values
            .iter()
            .filter(|&&k| map.contains_key(&(k >> 19)))
            .count();
        std::hint::black_box(hits);
        start.elapsed().as_secs_f64()
    }

    /// The mean of [`REPEATS`] runs, in seconds.
    pub fn sample(&mut self) -> f64 {
        (0..REPEATS).map(|_| self.run()).sum::<f64>() / REPEATS as f64
    }
}

/// Converts `seconds` measured while the reference took `reference`
/// seconds into reference seconds.
pub fn scale(seconds: f64, reference: f64) -> f64 {
    seconds * NOMINAL_S / reference
}

/// Mean of the reference runs `(when, seconds)` taken within `window` of
/// `at`; of all runs if none was.
pub fn local(runs: &[(Instant, f64)], at: Instant, window: Duration) -> Option<f64> {
    let near = |&&(t, _): &&(Instant, f64)| t.max(at) - t.min(at) <= window;
    let mean = |it: &mut dyn Iterator<Item = &(Instant, f64)>| {
        let (sum, n) = it.fold((0.0, 0usize), |(s, n), &(_, r)| (s + r, n + 1));
        (n > 0).then(|| sum / n as f64)
    };
    mean(&mut runs.iter().filter(near)).or_else(|| mean(&mut runs.iter()))
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restricts the calling thread, and the threads and processes it starts
/// from then on, to CPU `cpu`. Returns whether the host allowed it.
pub fn pin_to(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly sized CPU set; pid 0 names the
    // calling thread. The call only makes a system call, so it is also
    // safe between `fork` and `exec`.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_by_the_reference_time() {
        assert!((scale(3.0, NOMINAL_S) - 3.0).abs() < 1e-12);
        assert!((scale(3.0, 2.0 * NOMINAL_S) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn averages_the_runs_near_a_time() {
        let t = Instant::now();
        let s = Duration::from_secs;
        let runs = [(t, 1.0), (t + s(1), 2.0), (t + s(2), 3.0), (t + s(5), 9.0)];
        assert_eq!(local(&runs, t + s(1), s(1)), Some(2.0));
        assert_eq!(local(&runs, t, s(1)), Some(1.5));
        assert_eq!(local(&runs, t + s(4), s(1)), Some(9.0));
        assert_eq!(local(&runs, t + s(30), s(1)), Some(3.75));
        assert_eq!(local(&[], t, s(1)), None);
    }

    #[test]
    fn the_reference_takes_measurable_time() {
        let r = Reference::new().sample();
        assert!(r > 1e-4 && r < 10.0, "{r}");
    }

    #[test]
    fn parses_cpu_lists() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-4,7"), vec![0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn pins_a_thread_to_a_cpu() {
        let cpu = allowed_cpus()[0];
        let (ok, status) = std::thread::spawn(move || {
            let ok = pin_to(cpu);
            (
                ok,
                std::fs::read_to_string("/proc/thread-self/status").unwrap(),
            )
        })
        .join()
        .unwrap();
        assert!(ok);
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
        assert_eq!(list.map(str::trim), Some(cpu.to_string().as_str()));
        assert!(!pin_to(4096));
    }
}
