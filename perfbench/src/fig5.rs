//! `sensing_fig5`: the Fig 5b drive. The fault-free ground-truth
//! `PolicyDriver` drives the three safety-critical scenarios with LiDAR
//! on, and consecutive frames of every camera and LiDAR sweep are
//! bit-diffed. No fabric, detector or executor runs.

use crate::pins;
use crate::report::{timed_batches, timed_setup, Batch, Digest, Report};
use crate::sample::{shuffle, with_wall_profile};
use crate::tracer::LayerTracer;
use crate::{Args, Size};
use diverseav_analysis::{float_bit_diffs, ground_truth_controls, pixel_bit_diffs};
use diverseav_faultinj::par_map;
use diverseav_runtime::{LoopObserver, PolicyDriver, SimLoop, TickContext};
use diverseav_simworld::{Image, Scenario, ScenarioKind, SensorConfig, World};
use std::time::Instant;

/// World seeds of the drives (the first is the Fig 5b seed).
const SEEDS: [u64; 2] = [0xF16, 0xF17];

fn sensor() -> SensorConfig {
    SensorConfig { enable_lidar: true, ..SensorConfig::default() }
}

/// `(scenario, world seed)` drives of one batch, in canonical order.
fn drives(size: Size) -> Vec<(ScenarioKind, u64)> {
    let seeds: &[u64] = match size {
        Size::Full => &SEEDS,
        Size::Tiny => &SEEDS[..1],
    };
    ScenarioKind::safety_critical()
        .into_iter()
        .flat_map(|k| seeds.iter().map(move |&s| (k, s)))
        .collect()
}

/// Tick cap per drive (`usize::MAX` drives the scenario to its end).
fn max_ticks(size: Size) -> usize {
    match size {
        Size::Full => usize::MAX,
        Size::Tiny => 40,
    }
}

/// Bit-diff histograms of consecutive frames.
struct FrameDiffs {
    prev_cameras: Vec<Image>,
    prev_lidar: Vec<f32>,
    has_prev: bool,
    /// Per-pixel changed bits (0..=24) over all cameras.
    camera: [u64; 25],
    /// Per-float changed bits (0..=32) over all LiDAR returns.
    lidar: [u64; 33],
    ticks: u64,
    pairs: u64,
    diff_ns: u64,
}

impl Default for FrameDiffs {
    fn default() -> Self {
        FrameDiffs {
            prev_cameras: Vec::new(),
            prev_lidar: Vec::new(),
            has_prev: false,
            camera: [0; 25],
            lidar: [0; 33],
            ticks: 0,
            pairs: 0,
            diff_ns: 0,
        }
    }
}

impl FrameDiffs {
    fn absorb(&mut self, other: &FrameDiffs) {
        self.camera.iter_mut().zip(&other.camera).for_each(|(a, b)| *a += b);
        self.lidar.iter_mut().zip(&other.lidar).for_each(|(a, b)| *a += b);
        self.ticks += other.ticks;
        self.pairs += other.pairs;
        self.diff_ns += other.diff_ns;
    }
}

impl LoopObserver for FrameDiffs {
    fn on_tick(&mut self, ctx: &TickContext<'_>) {
        self.ticks += 1;
        let lidar = ctx.frame.lidar.as_deref().unwrap_or(&[]);
        if self.has_prev {
            let t = Instant::now();
            for (prev, cur) in self.prev_cameras.iter().zip(&ctx.frame.cameras) {
                for d in pixel_bit_diffs(prev, cur) {
                    self.camera[d as usize] += 1;
                }
            }
            for d in float_bit_diffs(&self.prev_lidar, lidar) {
                self.lidar[d as usize] += 1;
            }
            self.diff_ns += t.elapsed().as_nanos() as u64;
            self.pairs += 1;
        }
        self.prev_cameras.clone_from(&ctx.frame.cameras);
        self.prev_lidar.clear();
        self.prev_lidar.extend_from_slice(lidar);
        self.has_prev = true;
    }
}

/// The result of one drive.
struct Drive {
    termination: &'static str,
    end_time: f64,
    diffs: FrameDiffs,
}

fn drive(
    kind: ScenarioKind,
    seed: u64,
    max_ticks: usize,
    tracer: Option<&mut LayerTracer>,
) -> Drive {
    let world = World::new(Scenario::of_kind(kind), sensor(), seed);
    let mut sim = SimLoop::new(world, PolicyDriver(ground_truth_controls));
    let mut diffs = FrameDiffs::default();
    let termination = match tracer {
        Some(t) => sim.run_for(max_ticks, &mut [&mut diffs, t]),
        None => sim.run_for(max_ticks, &mut [&mut diffs]),
    };
    Drive {
        termination: termination.map_or("live", |t| t.label()),
        end_time: sim.world().time(),
        diffs,
    }
}

/// `analysis::percentile` (linear interpolation between closest ranks)
/// over a histogram of small integers.
fn hist_percentile(hist: &[u64], p: f64) -> f64 {
    let n: u64 = hist.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let value_at = |k: u64| {
        let mut seen = 0;
        for (v, &c) in hist.iter().enumerate() {
            seen += c;
            if k < seen {
                return v as f64;
            }
        }
        (hist.len() - 1) as f64
    };
    let (lo, hi) = (rank.floor(), rank.ceil());
    let frac = rank - lo;
    value_at(lo as u64) * (1.0 - frac) + value_at(hi as u64) * frac
}

pub fn run(args: &Args) -> Report {
    let jobs = drives(args.size);
    let cap = max_ticks(args.size);
    let pins = pins::fig5(args.size);
    let mut report = Report::default();

    // Set-up: build the three worlds, and warm up with one drive.
    let (setup_s, ()) = timed_setup(3, || {
        for kind in ScenarioKind::safety_critical() {
            std::hint::black_box(World::new(Scenario::of_kind(kind), sensor(), SEEDS[0]));
        }
        std::hint::black_box(drive(jobs[0].0, jobs[0].1, cap, None).end_time);
    });
    report.set("setup_s", setup_s);

    // The seed picks the order the drives are dispatched in.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    shuffle(&mut order, args.seed);
    let seconds = if args.trace { 0.0 } else { args.seconds };
    let (digest, p50, p90) = timed_batches(&mut report, seconds, |report, _| {
        let t = Instant::now();
        let mut out = par_map(&order, |&j| (j, drive(jobs[j].0, jobs[j].1, cap, None)));
        let secs = t.elapsed().as_secs_f64();
        out.sort_by_key(|(j, _)| *j);
        let drives: Vec<Drive> = out.into_iter().map(|(_, d)| d).collect();
        report.attempted += jobs.len() as u64;
        let ticks = drives.iter().map(|d| d.diffs.ticks).sum();
        let summary = check(report, &jobs, &drives, &pins);
        (Batch { secs, runs: drives.len() as u64, ticks }, summary)
    });
    report.set("peak_rss_mb", crate::report::peak_rss_mb());
    report.digest = digest;
    println!("camera bit diffs: p50 {p50} p90 {p90} of 24 (paper Fig 5b: 5 / 9)");

    if args.trace {
        trace(&mut report, &jobs, cap, digest);
    }
    report
}

/// Digest, camera p50 and p90 of one batch, checked against the pins.
fn check(
    report: &mut Report,
    jobs: &[(ScenarioKind, u64)],
    drives: &[Drive],
    pins: &pins::Fig5Pins,
) -> (u64, f64, f64) {
    report.check(drives.len() == jobs.len(), || {
        format!("{} of {} drives returned", drives.len(), jobs.len())
    });
    let mut digest = Digest::default();
    let mut diffs = FrameDiffs::default();
    for (&(_, seed), d) in jobs.iter().zip(drives) {
        digest.run(seed, d.termination, d.end_time, None);
        diffs.absorb(&d.diffs);
    }
    let digest = digest.value();
    let p50 = hist_percentile(&diffs.camera, 50.0);
    let p90 = hist_percentile(&diffs.camera, 90.0);
    report.check(digest == pins.digest, || {
        format!("results digest {digest:016x} differs from the pinned {:016x}", pins.digest)
    });
    report.check((p50, p90) == (pins.camera_p50, pins.camera_p90), || {
        format!(
            "camera bit diffs p50 {p50} p90 {p90} differ from the pinned {} / {}",
            pins.camera_p50, pins.camera_p90
        )
    });
    (digest, p50, p90)
}

/// Replay every drive sequentially, untraced and then traced.
fn trace(report: &mut Report, jobs: &[(ScenarioKind, u64)], cap: usize, batch_digest: u64) {
    let replay = |tracer: Option<&mut LayerTracer>| {
        let mut tracer = tracer;
        let start = Instant::now();
        let mut digest = Digest::default();
        let mut diffs = FrameDiffs::default();
        for &(kind, seed) in jobs {
            let d = drive(kind, seed, cap, tracer.as_deref_mut());
            digest.run(seed, d.termination, d.end_time, None);
            diffs.absorb(&d.diffs);
        }
        (diffs.ticks as f64 / start.elapsed().as_secs_f64(), digest.value(), diffs)
    };
    let (untraced_tps, untraced_digest, _) = replay(None);
    let mut tracer = LayerTracer::default();
    let (traced_tps, traced_digest, diffs) = with_wall_profile(|| replay(Some(&mut tracer)));
    report.attempted += 2 * jobs.len() as u64;
    for (mode, d) in [("untraced", untraced_digest), ("traced", traced_digest)] {
        report.check(d == batch_digest, || {
            format!("{mode} replay digest {d:016x} differs from the batch's {batch_digest:016x}")
        });
    }
    tracer.fill(report);
    report.set("trace.overhead_frac", traced_tps / untraced_tps);
    report.set("analysis.bitdiff_us", diffs.diff_ns as f64 / diffs.pairs.max(1) as f64 / 1e3);
}
