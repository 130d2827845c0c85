//! Wall-clock accounting for campaign execution, emitted as the
//! machine-readable `BENCH_campaigns.json` artifact.
//!
//! Experiment pipelines record one entry per campaign (or training
//! collection) into a process-global registry; harness binaries flush
//! the registry to JSON so sequential-vs-parallel timings are
//! comparable across runs without scraping stderr. The JSON writer is
//! hand-rolled (no serde in the dependency closure).
//!
//! Every [`record`] also accumulates its phase wall-clock into the
//! [`diverseav_obs::metrics`] registry, so `METRICS_campaigns.json`
//! (flushed with [`flush_metrics_json`]) carries per-phase totals next
//! to the per-entry timings in `BENCH_campaigns.json`.

use diverseav_faultinj::{detected_parallelism, thread_count};
use diverseav_obs::json::escape as escape_json;
use diverseav_obs::metrics;
use std::sync::Mutex;
use std::time::Instant;

/// One timed unit of campaign work.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignTiming {
    /// Human-readable label (campaign display string, pipeline stage).
    pub label: String,
    /// Coarse grouping: `"campaign"`, `"training"`, `"sweep"`, ...
    pub phase: String,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Simulation runs covered by this entry.
    pub runs: usize,
    /// Simulation ticks executed during this entry (from the
    /// `runtime.ticks` counter that `PerfObserver` feeds).
    pub ticks: u64,
    /// Ticks that exceeded the 25 ms control budget during this entry
    /// (from the `deadline.misses` counter that `ProfilingObserver`
    /// feeds; 0 when profiling is off).
    pub deadline_misses: u64,
    /// Safety-critical outcomes (hang / crash / silent-divergence /
    /// deadline-burst incidents) among this entry's runs; 0 when the
    /// pipeline doesn't classify incidents. `diverseav-tracecheck
    /// --bench-diff` uses this to compare guided vs uniform
    /// critical-outcomes-per-run-budget yield.
    pub critical: u64,
    /// Worker threads the engine was configured with at record time.
    pub threads: usize,
}

impl CampaignTiming {
    /// Runs per wall-clock second (0 for an empty or instant entry).
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.runs as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Simulation ticks per wall-clock second (0 for an instant entry).
    pub fn ticks_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.ticks as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

static REGISTRY: Mutex<Vec<CampaignTiming>> = Mutex::new(Vec::new());

/// Record one timing entry (and accumulate it under the phase's metrics
/// wall-clock).
pub fn record(
    label: impl Into<String>,
    phase: impl Into<String>,
    wall_secs: f64,
    runs: usize,
    ticks: u64,
    deadline_misses: u64,
) {
    record_critical(label, phase, wall_secs, runs, ticks, deadline_misses, 0);
}

/// [`record`] with an explicit safety-critical outcome count — used by
/// the campaign smoke harness so `BENCH_campaigns.json` carries the
/// guided-vs-uniform yield comparison inputs.
#[allow(clippy::too_many_arguments)]
pub fn record_critical(
    label: impl Into<String>,
    phase: impl Into<String>,
    wall_secs: f64,
    runs: usize,
    ticks: u64,
    deadline_misses: u64,
    critical: u64,
) {
    let entry = CampaignTiming {
        label: label.into(),
        phase: phase.into(),
        wall_secs,
        runs,
        ticks,
        deadline_misses,
        critical,
        threads: thread_count(),
    };
    metrics::phase_add(&entry.phase, wall_secs);
    REGISTRY.lock().expect("perf registry poisoned").push(entry);
}

/// Time `f`, record the entry (with `runs` derived from the result and
/// `ticks` / `deadline_misses` sampled from the `runtime.ticks` and
/// `deadline.misses` counters around the timed section), and return the
/// result.
pub fn timed<R>(
    label: impl Into<String>,
    phase: impl Into<String>,
    runs_of: impl FnOnce(&R) -> usize,
    f: impl FnOnce() -> R,
) -> R {
    let ticks_before = metrics::counter_get("runtime.ticks");
    let misses_before = metrics::counter_get("deadline.misses");
    let start = Instant::now();
    let result = f();
    let wall_secs = start.elapsed().as_secs_f64();
    let ticks = metrics::counter_get("runtime.ticks") - ticks_before;
    let misses = metrics::counter_get("deadline.misses") - misses_before;
    record(label, phase, wall_secs, runs_of(&result), ticks, misses);
    result
}

/// Copy of all recorded entries, in record order.
pub fn snapshot() -> Vec<CampaignTiming> {
    REGISTRY.lock().expect("perf registry poisoned").clone()
}

/// Drop all recorded entries (harness binaries isolate measurement
/// sections with this).
pub fn clear() {
    REGISTRY.lock().expect("perf registry poisoned").clear();
}

/// Write every recorded entry as JSON to `path`.
pub fn flush_json(path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_json(&snapshot()))
}

/// Flush the observability metrics registry (counters, gauges, phase
/// wall-clocks) as the `METRICS_campaigns.json` artifact.
pub fn flush_metrics_json(path: &str) -> std::io::Result<()> {
    metrics::gauge_set("engine.detected_cores", detected_parallelism() as f64);
    metrics::gauge_set("engine.threads", thread_count() as f64);
    metrics::flush_json(path)
}

/// Render timing entries as the `BENCH_campaigns.json` document.
pub fn render_json(entries: &[CampaignTiming]) -> String {
    render_json_with(detected_parallelism(), thread_count(), entries)
}

/// [`render_json`] with explicit header values — used by
/// `diverseav-merge` to re-render a bench document whose `detected_cores`
/// / `threads` belong to the machine that *produced* the entries, not the
/// machine doing the merging.
pub fn render_json_with(
    detected_cores: usize,
    threads: usize,
    entries: &[CampaignTiming],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"detected_cores\": {detected_cores},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"phase\": \"{}\", \"wall_secs\": {:.6}, \
             \"runs\": {}, \"runs_per_sec\": {:.3}, \"ticks\": {}, \
             \"ticks_per_sec\": {:.1}, \"deadline_misses\": {}, \"critical\": {}, \
             \"threads\": {}}}{sep}\n",
            escape_json(&e.label),
            escape_json(&e.phase),
            e.wall_secs,
            e.runs,
            e.runs_per_sec(),
            e.ticks,
            e.ticks_per_sec(),
            e.deadline_misses,
            e.critical,
            e.threads,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_per_sec_handles_zero_time() {
        let t = CampaignTiming {
            label: "x".into(),
            phase: "campaign".into(),
            wall_secs: 0.0,
            runs: 5,
            ticks: 200,
            deadline_misses: 0,
            critical: 0,
            threads: 1,
        };
        assert_eq!(t.runs_per_sec(), 0.0);
        assert_eq!(t.ticks_per_sec(), 0.0);
    }

    #[test]
    fn json_escapes_and_structures() {
        let entries = vec![CampaignTiming {
            label: "GPU-transient \"LSD\"\n".into(),
            phase: "campaign".into(),
            wall_secs: 2.0,
            runs: 10,
            ticks: 4000,
            deadline_misses: 3,
            critical: 0,
            threads: 4,
        }];
        let json = render_json(&entries);
        assert!(json.contains("\\\"LSD\\\"\\n"));
        assert!(json.contains("\"runs_per_sec\": 5.000"));
        assert!(json.contains("\"ticks\": 4000"));
        assert!(json.contains("\"ticks_per_sec\": 2000.0"));
        assert!(json.contains("\"deadline_misses\": 3"));
        assert!(json.contains("\"detected_cores\""));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn record_feeds_phase_metrics() {
        record("m", "test.perf.phase_unique", 0.5, 1, 20, 0);
        let stat = metrics::phase_get("test.perf.phase_unique");
        assert_eq!(stat.count, 1);
        assert!((stat.wall_secs - 0.5).abs() < 1e-12);
    }

    #[test]
    fn timed_records_an_entry() {
        // The registry is process-global and other tests record into it
        // concurrently, so look only at this test's own label.
        let v = timed("unit-timed", "test", |v: &Vec<u8>| v.len(), || vec![1, 2, 3]);
        assert_eq!(v.len(), 3);
        let snap: Vec<CampaignTiming> =
            snapshot().into_iter().filter(|e| e.label == "unit-timed").collect();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].runs, 3);
        assert_eq!(snap[0].phase, "test");
    }
}
