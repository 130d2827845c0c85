//! Metric registry, output checks, results digest, machine stamp and the
//! JSON result line.

use diverseav_analysis::percentile;
use diverseav_faultinj::RunResult;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("runs_per_s", "1/s"), ("ticks_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
/// A layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simworld.sense_us", "us"),
    ("simworld.camera_us", "us"),
    ("simworld.cameras_per_tick", "count"),
    ("simworld.lidar_us", "us"),
    ("simworld.step_us", "us"),
    ("core.driver_us", "us"),
    ("agent.steps_per_tick", "count"),
    ("fabric.gpu_instr_per_tick", "count"),
    ("fabric.cpu_instr_per_tick", "count"),
    ("fabric.ns_per_instr", "ns"),
    ("core.detect_us", "us"),
    ("core.detector_train_s", "s"),
    ("runtime.tick_p50_us", "us"),
    ("runtime.tick_p99_us", "us"),
    ("runtime.overhead_us", "us"),
    ("faultinj.golden_s", "s"),
    ("faultinj.injected_s", "s"),
    ("faultinj.injected_ticks_per_run", "count"),
    ("shard.execute_s", "s"),
    ("shard.resume_s", "s"),
    ("shard.parse_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.artifact_bytes", "bytes"),
    ("shard.useful_run_frac", "ratio"),
    ("analysis.bitdiff_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// What one workload invocation measured and checked.
#[derive(Default)]
pub struct Report {
    /// Runs (or drives) attempted, over every batch.
    pub attempted: u64,
    /// Failed operations: missing runs, digest or pin mismatches, shard
    /// errors and merge refusals.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Results digest of the workload's closed batch.
    pub digest: u64,
    /// Closed-batch size (runs per batch) the throughput is stated at.
    pub batch_runs: u64,
    /// Timed batches behind the medians.
    pub batches: usize,
}

impl Report {
    /// Record one output check; a failed check counts as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Set every per-layer metric not yet recorded to 0 (layers the
    /// workload does not run).
    pub fn zero_missing_layers(&mut self) {
        for (name, _) in PER_LAYER {
            self.values.entry(name).or_insert(0.0);
        }
    }
}

/// FNV-1a over the fields of every run that define its result: seed,
/// termination, end time bits and alarm time bits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold one run.
    pub fn run(&mut self, seed: u64, termination: &str, end_time: f64, alarm: Option<f64>) {
        self.bytes(&seed.to_le_bytes());
        self.bytes(termination.as_bytes());
        self.bytes(&[0xFF]);
        self.bytes(&end_time.to_bits().to_le_bytes());
        match alarm {
            Some(t) => {
                self.bytes(&[1]);
                self.bytes(&t.to_bits().to_le_bytes());
            }
            None => self.bytes(&[0]),
        }
    }

    /// Fold one [`RunResult`].
    pub fn result(&mut self, r: &RunResult) {
        self.run(r.seed, r.termination.label(), r.end_time, r.alarm_time);
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Digest of a run sequence.
    pub fn of<'a>(runs: impl IntoIterator<Item = &'a RunResult>) -> u64 {
        let mut d = Digest::default();
        for r in runs {
            d.result(r);
        }
        d.value()
    }
}

/// One timed closed batch.
#[derive(Copy, Clone, Debug)]
pub struct Batch {
    /// Wall seconds.
    pub secs: f64,
    /// Runs completed.
    pub runs: u64,
    /// Simulated ticks executed.
    pub ticks: u64,
}

/// Run closed batches until `seconds` have elapsed (at least one) and
/// record the median throughputs. Only the first batch's output is kept,
/// so memory does not grow with the number of batches that fit.
pub fn timed_batches<T>(
    report: &mut Report,
    seconds: f64,
    mut batch: impl FnMut(&mut Report, usize) -> (Batch, T),
) -> T {
    let start = Instant::now();
    let mut batches = Vec::new();
    let mut first = None;
    loop {
        let (b, out) = batch(report, batches.len());
        batches.push(b);
        first.get_or_insert(out);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    report.batches = batches.len();
    report.batch_runs = batches[0].runs;
    report.set("runs_per_s", median(batches.iter().map(|b| b.runs as f64 / b.secs)));
    report.set("ticks_per_s", median(batches.iter().map(|b| b.ticks as f64 / b.secs)));
    first.expect("at least one batch")
}

/// Time `reps` repetitions of the set-up; return the median seconds and
/// the last repetition's value.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut value = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        value = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (median(secs), value.expect("at least one set-up repetition"))
}

/// Median of a sample, as `analysis::percentile` interpolates it.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    percentile(&v, 50.0)
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine the numbers were measured on.
pub fn machine_stamp(threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"DIVERSEAV_THREADS\": {threads}, \"rustc\": \"{}\", \
         \"cpu\": \"{}\", \"target_cpu_native\": {}, \"commit\": \"{}\"}}",
        escape(env!("PERFBENCH_RUSTC")),
        escape(&cpu),
        env!("PERFBENCH_TARGET_CPU_NATIVE"),
        escape(env!("PERFBENCH_COMMIT")),
    )
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Print the human-readable report and the JSON result line (last line
/// of stdout).
pub fn print(workload: &str, seed: u64, trace: bool, threads: usize, report: &Report) {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let machine = machine_stamp(threads);
    let digest = format!("{:016x}", report.digest);
    println!("workload {workload} seed {seed} traced {trace}");
    println!(
        "closed batch: {} runs, {} timed batch(es); results digest {digest}",
        report.batch_runs, report.batches
    );
    for (name, unit) in names {
        println!("  {name:<32} {:>14.4} {unit:<6} (measured)", report.values[*name]);
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"kind\": \"measured\", \"digest\": \"{digest}\", \"batch_runs\": {}, \
         \"batches\": {}, \"error_rate\": {error_rate}, \"machine\": {machine}}}",
        report.batch_runs, report.batches
    );
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = report.values[*name];
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
}
