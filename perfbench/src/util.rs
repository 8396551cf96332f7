//! Small helpers: a seeded generator, order statistics, and readers for the
//! process counters the kernel keeps (`VmHWM`, per-thread `schedstat`).

use std::fs;

/// SplitMix64: the benchmark's only source of randomness, so one seed fixes
/// every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// A payload of `len` bytes (`len >= 16`) that carries `(sender, seq)` in its
/// first 16 bytes and seeded filler after them, so any delivered body can be
/// checked against what was cast.
pub fn payload(seed: u64, sender: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut body = vec![0u8; len];
    body[..8].copy_from_slice(&sender.to_le_bytes());
    body[8..16].copy_from_slice(&seq.to_le_bytes());
    let mut rng = Rng::new(seed ^ sender.rotate_left(32) ^ seq.wrapping_mul(0x2545_F491_4F6C_DD1D));
    rng.fill(&mut body[16..]);
    body
}

/// `(sender, seq)` read back from a [`payload`] body.
pub fn payload_id(body: &[u8]) -> Option<(u64, u64)> {
    if body.len() < 16 {
        return None;
    }
    let sender = u64::from_le_bytes(body[..8].try_into().ok()?);
    let seq = u64::from_le_bytes(body[8..16].try_into().ok()?);
    Some((sender, seq))
}

/// The `q`-quantile (`0 <= q <= 1`) of sorted data, interpolating between
/// closest ranks; `NaN` on empty input.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v.to_vec()), 0.5)
}

/// Interquartile range as a share of the median: the spread a result
/// reports next to each repeated measurement.
pub fn spread(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let m = quantile_sorted(&s, 0.5);
    if s.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25)) / m
}

/// Set-ups timed back to back at each [`Setups::sample`].
pub const SETUPS_PER_SAMPLE: usize = 5;

/// Set-up times gathered through a run.  Each [`Setups::sample`] runs one
/// warm-up set-up, which pays for the caches the preceding work left cold
/// and is not kept, then times [`SETUPS_PER_SAMPLE`] back to back.  The
/// workloads sample between their phases, so the set-ups are spread over
/// the whole run: on a shared host a slow spell lasts a few hundred
/// milliseconds and slows a set-up by half, and the median of samples
/// taken across the run moves little with it.
#[derive(Debug, Default)]
pub struct Setups(pub Vec<f64>);

impl Setups {
    /// `once` sets up, tears down, and returns the set-up's seconds.
    pub fn sample(&mut self, mut once: impl FnMut() -> Result<f64, String>) -> Result<(), String> {
        once()?;
        for _ in 0..SETUPS_PER_SAMPLE {
            self.0.push(once()?);
        }
        Ok(())
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    pub fn spread(&self) -> f64 {
        spread(&self.0)
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// On-CPU and run-queue nanoseconds of one thread of this process, from
/// `/proc/self/task/<tid>/schedstat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTime {
    pub on_cpu_ns: u64,
    pub runqueue_ns: u64,
}

impl CpuTime {
    pub fn of(tid: u64) -> Option<CpuTime> {
        let text = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
        let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        Some(CpuTime { on_cpu_ns: it.next()??, runqueue_ns: it.next()?? })
    }

    /// The calling thread's times.  `schedstat` only advances a running
    /// thread's on-CPU time at scheduler ticks, so that part is read from
    /// the thread's CPU clock instead.
    pub fn current() -> Option<CpuTime> {
        let runqueue_ns = CpuTime::of(current_tid()?)?.runqueue_ns;
        Some(CpuTime { on_cpu_ns: thread_cpu_ns()?, runqueue_ns })
    }

    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            runqueue_ns: self.runqueue_ns.saturating_sub(earlier.runqueue_ns),
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread, in nanoseconds.
fn thread_cpu_ns() -> Option<u64> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark runs on) for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The kernel thread id of the calling thread.
pub fn current_tid() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// The thread id of the (single) thread of this process named `name`.
pub fn tid_named(name: &str) -> Option<u64> {
    let mut found = None;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            found = entry.file_name().to_str()?.parse().ok();
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
    }

    #[test]
    fn payload_round_trips() {
        let b = payload(7, 3, 41, 64);
        assert_eq!(payload_id(&b), Some((3, 41)));
        assert_eq!(b, payload(7, 3, 41, 64));
        assert_ne!(b, payload(8, 3, 41, 64));
    }
}
