//! The measuring code: order statistics, the `/proc` peak-memory reader,
//! the timed child runner, and the closed-form scenario-plane size. Kept
//! apart from the workloads so it can be tested on its own.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A run must time at least this many operations: below it the lower
/// quartile is one of the two or three fastest samples, not a quartile.
pub const MIN_TIMED_OPS: usize = 10;

/// The quartile `op_calm_ms` reports. On a shared box a neighbour's burst
/// lengthens some operations and never shortens one, so the lower
/// quartile sees the program where the median sees the neighbour
/// (measured for ISSUE 12: spread of 30 s windows 0.044 at p25, range 0.12;
/// the windows' medians range over 0.28).
pub const CALM_QUANTILE: f64 = 0.25;

/// The `q`-quantile (`0 <= q <= 1`) of an ascending sample, linearly
/// interpolated between the two nearest order statistics (position
/// `(n - 1) q`), so neighbouring runs do not tie on one sample's value.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let position = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many of `n` samples lie beyond the percentile that leaves one
/// sample in `one_in` above it (p90: 10, p99: 100). A tail percentile is
/// worth gating only with at least ten samples beyond it; the notes print
/// this count so a p90 over 14 operations is read as what it is.
pub fn samples_beyond(n: usize, one_in: usize) -> usize {
    n / one_in
}

/// Σ_{1 ≤ i ≤ k} C(links, i): the non-empty scenarios of a `≤ k`
/// link-failure plane, independent of the enumerator under test.
pub fn plane_size(links: usize, k: usize) -> u128 {
    let mut total = 0u128;
    let mut binom = 1u128; // C(links, 0)
    for i in 1..=k.min(links) {
        binom = binom * (links - i + 1) as u128 / i as u128;
        total += binom;
    }
    total
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`. `None` when the line is absent — a zombie has
/// already dropped its address space.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Reads the current `VmHWM` of a live process.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let mut text = String::new();
    File::open(format!("/proc/{pid}/status"))
        .ok()?
        .read_to_string(&mut text)
        .ok()?;
    parse_vm_hwm_kb(&text)
}

/// The highest CPU of a `Cpus_allowed_list` value (`0-1`, `0,2-3`, `5`).
pub fn parse_last_cpu(allowed_list: &str) -> Option<usize> {
    let last = allowed_list.trim().rsplit(',').next()?;
    last.rsplit('-').next()?.parse().ok()
}

/// Pins the calling thread — and every process it spawns afterwards,
/// which inherit the mask — to the highest CPU it may run on, and
/// returns that CPU. `None`, with the process left as it was, when
/// `taskset` or `/proc` cannot do it.
///
/// `serve_cycle` is a closed loop: the client sleeps while the daemon
/// works and the daemon sleeps while the client reads, so one CPU holds
/// both. Left to the scheduler they usually share a CPU and sometimes do
/// not, and on the recording guest a wake-up across CPUs goes through the
/// hypervisor: 22 µs a round trip on one CPU, 68–86 µs across two,
/// measured with the same daemon — a 2.6x step between two runs of the
/// same code that no change to the program can move.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = parse_last_cpu(allowed)?;
    // The main thread's id is the process id.
    let pinned = Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()?;
    pinned.success().then_some(cpu)
}

/// Kills and reaps the child on every exit path, so an aborted workload
/// leaves no process behind.
pub struct Reaper(pub Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// One timed run of the program under test.
pub struct ChildRun {
    /// Spawn → exit.
    pub wall: Duration,
    /// Highest `VmHWM` seen by the 10 ms poller, in KiB.
    pub peak_rss_kb: u64,
    /// Everything the child printed.
    pub stdout: String,
}

/// How often the poller samples `VmHWM`. The high-water mark only moves
/// up, so the error is the growth in the last interval before exit.
pub const RSS_POLL: Duration = Duration::from_millis(10);

/// Runs `bin args…` to completion: wall time from spawn to exit (the
/// parent blocks in `wait` and reads the clock as it returns, so the
/// poller's period does not quantize it), peak memory from a polling
/// thread that sleeps between reads,
/// output via files in `scratch` so a chatty child never blocks on a
/// pipe. A non-zero exit is an error carrying the child's stderr.
pub fn run_child(bin: &Path, args: &[&str], scratch: &Path) -> Result<ChildRun, String> {
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    let create =
        |p: &Path| File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()));
    let (out, err) = (create(&out_path)?, create(&err_path)?);
    let start = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let pid = child.id();
    let mut child = Reaper(child);
    let done = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let (status, wall) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::park_timeout(RSS_POLL);
            }
        });
        let status = child.0.wait();
        let wall = start.elapsed();
        // Release pairs with the poller's Acquire load; the unpark ends
        // its nap so the next operation does not wait for it.
        done.store(true, Ordering::Release);
        poller.thread().unpark();
        (status, wall)
    });
    let status = status.map_err(|e| format!("wait on {}: {e}", bin.display()))?;
    let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
    if !status.success() {
        return Err(format!(
            "`{} {}` exited with {status}: {}",
            bin.display(),
            args.join(" "),
            read(&err_path).trim()
        ));
    }
    Ok(ChildRun {
        wall,
        peak_rss_kb: peak.load(Ordering::Relaxed),
        stdout: read(&out_path),
    })
}

/// A scratch directory for one unit test, under the package's own
/// directory (tests run with it as the working directory) and removed on
/// drop.
#[cfg(test)]
pub struct TestDir(pub std::path::PathBuf);

#[cfg(test)]
impl TestDir {
    pub fn new(label: &str) -> Self {
        let dir = std::path::PathBuf::from(format!(".test_tmp-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }
}

#[cfg(test)]
impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        // Position (11 - 1) * 0.25 = 2.5: halfway between the 3rd and 4th.
        assert_eq!(quantile_sorted(&v, CALM_QUANTILE), 3.5);
        assert_eq!(quantile_sorted(&v, 0.5), 6.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 11.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// The point of the calm quartile: a burst that lengthens two thirds
    /// of the operations moves the median and leaves the quartile alone.
    #[test]
    fn calm_quartile_ignores_a_burst_the_median_follows() {
        let quiet: Vec<f64> = (0..12).map(|i| 100.0 + f64::from(i)).collect();
        let mut bursty = quiet.clone();
        for slow in bursty.iter_mut().skip(4) {
            *slow *= 1.4;
        }
        assert_eq!(
            quantile(&quiet, CALM_QUANTILE),
            quantile(&bursty, CALM_QUANTILE)
        );
        assert!(median(&bursty) > median(&quiet) * 1.05);
    }

    #[test]
    fn tail_notes_count_the_samples_beyond_them() {
        assert_eq!(samples_beyond(14, 10), 1);
        assert_eq!(samples_beyond(99, 10), 9);
        assert_eq!(samples_beyond(100, 10), 10);
        assert_eq!(samples_beyond(999, 100), 9);
        assert_eq!(samples_beyond(600_000, 1_000), 600);
    }

    /// Dropping the guard must leave no process behind.
    #[test]
    fn reaper_kills_and_reaps_a_running_child() {
        let child = Command::new("sleep").arg("30").spawn().unwrap();
        let pid = child.id();
        let begun = Instant::now();
        drop(Reaper(child));
        assert!(
            begun.elapsed() < Duration::from_secs(5),
            "waited for the sleep instead of killing it"
        );
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "child {pid} is still there"
        );
    }

    #[test]
    fn plane_size_matches_hand_counts() {
        // fattree-8: 256 links; fattree-6: 108.
        assert_eq!(plane_size(256, 1), 256);
        assert_eq!(plane_size(256, 2), 256 + 32_640);
        assert_eq!(32 * plane_size(256, 2), 1_052_672);
        assert_eq!(18 * plane_size(108, 1), 1944);
        assert_eq!(plane_size(4, 9), 4 + 6 + 4 + 1);
        assert_eq!(plane_size(10, 0), 0);
    }

    #[test]
    fn vm_hwm_line_is_parsed() {
        let status = "Name:\tbonsai\nVmPeak:\t  9000 kB\nVmHWM:\t    4312 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4312));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert!(vm_hwm_kb(std::process::id()).is_some_and(|kb| kb > 0));
    }

    #[test]
    fn last_allowed_cpu_is_read_from_the_list() {
        assert_eq!(parse_last_cpu("\t0-1\n"), Some(1));
        assert_eq!(parse_last_cpu("0,2-3"), Some(3));
        assert_eq!(parse_last_cpu("0-3,8"), Some(8));
        assert_eq!(parse_last_cpu("5"), Some(5));
        assert_eq!(parse_last_cpu(""), None);
    }

    /// A child that holds a known amount of memory must show at least
    /// that much in the polled high-water mark: the shell keeps the 16 MiB
    /// command substitution in a variable of its own process.
    #[test]
    fn poller_sees_a_child_that_allocates_a_known_amount() {
        let dir = TestDir::new("poll");
        let run = run_child(
            Path::new("sh"),
            &[
                "-c",
                "x=$(head -c 16777216 /dev/zero | tr '\\0' a); echo ${#x}; sleep 0.1",
            ],
            &dir.0,
        )
        .unwrap();
        assert_eq!(run.stdout.trim(), "16777216");
        assert!(run.wall >= Duration::from_millis(100));
        assert!(
            run.peak_rss_kb >= 16 * 1024,
            "polled peak {} KiB is below the 16 MiB the child held",
            run.peak_rss_kb
        );
    }

    #[test]
    fn failing_child_is_an_error_with_its_stderr() {
        let dir = TestDir::new("fail");
        let err = run_child(Path::new("sh"), &["-c", "echo boom >&2; exit 3"], &dir.0)
            .err()
            .expect("non-zero exit is an error");
        assert!(err.contains("boom") && err.contains('3'), "{err}");
    }
}
