//! Shared plumbing: the run environment, timed `smo` invocations, design
//! generation, and the result a run prints.

use crate::inputs::Design;
use crate::oracle::Oracle;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a workload needs to run.
#[derive(Debug, Clone)]
pub struct Env {
    /// The release `smo` binary.
    pub smo: PathBuf,
    /// Scratch directory of this run (emptied at start).
    pub work: PathBuf,
    /// The answer oracle.
    pub oracle: Oracle,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
}

/// One finished `smo` process.
#[derive(Debug, Clone)]
pub struct Run {
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Exit status was 0.
    pub success: bool,
    /// Wall time from spawn to exit, in milliseconds.
    pub ms: f64,
    /// Highest `VmHWM` sampled while it ran, in MiB (0 if never sampled).
    pub peak_mb: f64,
}

impl Env {
    /// Runs `smo <args>` to completion, timing it from spawn to exit while
    /// a side thread samples its peak resident set every 5 ms.
    ///
    /// # Errors
    ///
    /// The process could not be spawned or waited for.
    pub fn smo(&self, args: &[&str]) -> Result<Run, String> {
        let start = Instant::now();
        let mut child = Command::new(&self.smo)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", self.smo.display()))?;
        let done = Arc::new(AtomicBool::new(false));
        let monitor = {
            let done = Arc::clone(&done);
            let pid = child.id();
            std::thread::spawn(move || {
                let mut peak = 0.0f64;
                while !done.load(Ordering::Relaxed) {
                    if let Some(mb) = vm_hwm_mb(pid) {
                        peak = peak.max(mb);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                peak
            })
        };
        let mut stdout = Vec::new();
        if let Some(mut out) = child.stdout.take() {
            out.read_to_end(&mut stdout)
                .map_err(|e| format!("reading smo output: {e}"))?;
        }
        let status = child.wait().map_err(|e| format!("waiting for smo: {e}"))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        done.store(true, Ordering::Relaxed);
        let peak_mb = monitor.join().unwrap_or(0.0);
        Ok(Run {
            stdout,
            success: status.success(),
            ms,
            peak_mb,
        })
    }

    /// Writes every design with `smo gen` into `dir` and returns the
    /// netlist paths.
    ///
    /// # Errors
    ///
    /// A failed `smo gen`.
    pub fn generate(&self, designs: &[Design], dir: &Path) -> Result<Vec<PathBuf>, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        designs
            .iter()
            .map(|d| {
                let path = dir.join(d.file_name());
                let out = path.to_string_lossy().into_owned();
                let args = d.gen_args(&out);
                let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                let run = self.smo(&refs)?;
                if !run.success {
                    return Err(format!("smo {} failed", args.join(" ")));
                }
                Ok(path)
            })
            .collect()
    }

    /// Runs `setup` at least [`SETUP_MIN_REPS`] times and until the set-ups
    /// have taken [`SETUP_MIN_SECS`] in total (at most [`SETUP_MAX_REPS`]),
    /// each into a fresh numbered directory under the work dir, and returns
    /// the median duration in seconds with the last result; every earlier
    /// result goes to `teardown`, untimed.
    ///
    /// # Errors
    ///
    /// The first failing set-up or teardown.
    pub fn timed_setup<T>(
        &self,
        mut setup: impl FnMut(&Path) -> Result<T, String>,
        mut teardown: impl FnMut(T) -> Result<(), String>,
    ) -> Result<(f64, T), String> {
        let mut secs: Vec<f64> = Vec::new();
        let mut last = None;
        for i in 0..SETUP_MAX_REPS {
            if i >= SETUP_MIN_REPS && secs.iter().sum::<f64>() >= SETUP_MIN_SECS {
                break;
            }
            if let Some(previous) = last.take() {
                teardown(previous)?;
            }
            let dir = self.work.join(format!("setup{i}"));
            let t = Instant::now();
            let out = setup(&dir)?;
            secs.push(t.elapsed().as_secs_f64());
            last = Some(out);
        }
        let median = crate::stats::median(&secs).unwrap_or(0.0);
        last.map(|out| (median, out))
            .ok_or_else(|| "set-up never ran".to_string())
    }
}

/// Fewest set-ups a run times.
pub const SETUP_MIN_REPS: usize = 3;
/// Set-ups repeat until they have taken this many seconds in total.
pub const SETUP_MIN_SECS: f64 = 2.0;
/// Most set-ups a run times.
pub const SETUP_MAX_REPS: usize = 25;

/// `VmHWM` of a live process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reads every path to a string.
///
/// # Errors
///
/// The first unreadable file.
pub fn read_all(paths: &[PathBuf]) -> Result<Vec<String>, String> {
    paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        })
        .collect()
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in BENCHMARK.json.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations checked against the oracle.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (workload-specific
    /// names, tail percentiles, sample counts, failure details).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records one checked operation; a wrong or failed one also adds a
    /// note saying why (only the first few are kept).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Failed share of attempted operations.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The final result line: one JSON object.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Tail-latency note: `name  value unit  (pNN of N samples, M beyond)`.
pub fn tail_note(name: &str, samples: &[f64]) -> Option<(f64, String)> {
    let t = crate::stats::tail(samples)?;
    Some((
        t.value,
        format!(
            "{name}: p{:.1} of {} samples ({} beyond)",
            t.percentile, t.samples, t.beyond
        ),
    ))
}

/// Every end-to-end metric a run reports, with its unit — the
/// `end_to_end` list of BENCHMARK.json, in the same order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Pushes the end-to-end metrics of a workload whose operations took
/// `ms` (successful operations only) over `elapsed` seconds.
pub fn push_e2e(out: &mut Outcome, setup_s: f64, ms: &[f64], elapsed: f64, rss_mb: f64) {
    let ok_frac = 1.0 - out.failed_frac();
    out.push("setup_s", setup_s, "s");
    out.push("ok_frac", ok_frac, "ratio");
    out.push(
        "latency_ms_p50",
        crate::stats::median(ms).unwrap_or(f64::NAN),
        "ms",
    );
    out.push(
        "latency_ms_tail",
        crate::stats::tail(ms).map_or(f64::NAN, |t| t.value),
        "ms",
    );
    out.push("throughput_per_s", ms.len() as f64 / elapsed, "1/s");
    out.push("peak_rss_mb", rss_mb, "MB");
    out.notes
        .push(format!("failed_frac = {}", out.failed_frac()));
}
