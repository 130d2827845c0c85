//! The traced run's loop observer: wall-clock phase times, host tick
//! latency, exact work counts, and sensor-kernel replays on the world
//! states the loop visits.

use crate::report::Report;
use diverseav_analysis::percentile;
use diverseav_runtime::{LoopObserver, LoopPhase, TickContext};
use diverseav_simworld::{lidar_scan_into, render_camera_into, Image, RenderScene};
use std::time::{Duration, Instant};

/// Replay the sensor kernels on every `REPLAY_EVERY`-th tick.
const REPLAY_EVERY: u64 = 4;

/// Per-layer accounting for the runs it observes. The observer's own
/// work inside a tick (replays, frame comparison) is timed and removed
/// from that tick's host latency, so `runtime.overhead_us` holds only
/// the program's own overhead: its observers, the flight recorder and
/// the profiling bookkeeping.
#[derive(Default)]
pub struct LayerTracer {
    /// Summed phase times `[sense, driver, detect, step]` (ns).
    phase_ns: [u64; 4],
    /// Host latency of every tick (ns), start of sense to start of the
    /// next sense (or loop end).
    tick_ns: Vec<u64>,
    tick_start: Option<Instant>,
    excluded_ns: u64,
    /// Ticks the driver completed, with their exact work counts.
    ticks: u64,
    gpu_instr: u64,
    cpu_instr: u64,
    /// Cameras whose pixels changed since the previous tick.
    cameras_rendered: u64,
    prev_cameras: Vec<Image>,
    camera_ns: u64,
    camera_renders: u64,
    lidar_ns: u64,
    lidar_scans: u64,
    scratch_image: Option<Image>,
    scratch_lidar: Vec<f32>,
}

impl LayerTracer {
    /// Close the in-flight tick at `end`.
    fn close_tick(&mut self, end: Instant) {
        if let Some(start) = self.tick_start.take() {
            let ns = end.saturating_duration_since(start).as_nanos() as u64;
            self.tick_ns.push(ns.saturating_sub(self.excluded_ns));
        }
        self.excluded_ns = 0;
    }

    /// Write the per-tick layer metrics into `report`.
    pub fn fill(&self, report: &mut Report) {
        let n = self.tick_ns.len().max(1) as f64;
        let us = |ns: u64| ns as f64 / n / 1e3;
        let [sense, driver, detect, step] = self.phase_ns;
        let tick_mean_ns = self.tick_ns.iter().sum::<u64>() as f64 / n;
        let phases_ns = (sense + driver + detect + step) as f64 / n;
        report.set("simworld.sense_us", us(sense));
        report.set("core.driver_us", us(driver));
        report.set("core.detect_us", us(detect));
        report.set("simworld.step_us", us(step));
        report.set("runtime.overhead_us", (tick_mean_ns - phases_ns) / 1e3);
        println!(
            "mean tick {:.1} us = sense {:.1} + driver {:.1} + detect {:.1} + step {:.1} \
             + overhead {:.1} over {} ticks",
            tick_mean_ns / 1e3,
            us(sense),
            us(driver),
            us(detect),
            us(step),
            (tick_mean_ns - phases_ns) / 1e3,
            self.tick_ns.len()
        );
        if !self.tick_ns.is_empty() {
            let ticks: Vec<f64> = self.tick_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            report.set("runtime.tick_p50_us", percentile(&ticks, 50.0));
            report.set("runtime.tick_p99_us", percentile(&ticks, 99.0));
        }
        let ticks = self.ticks.max(1) as f64;
        report.set("simworld.cameras_per_tick", self.cameras_rendered as f64 / ticks);
        report.set("fabric.gpu_instr_per_tick", self.gpu_instr as f64 / ticks);
        report.set("fabric.cpu_instr_per_tick", self.cpu_instr as f64 / ticks);
        let instr = self.gpu_instr + self.cpu_instr;
        if instr > 0 {
            report.set("fabric.ns_per_instr", driver as f64 / instr as f64);
        }
        if self.camera_renders > 0 {
            report.set(
                "simworld.camera_us",
                self.camera_ns as f64 / self.camera_renders as f64 / 1e3,
            );
        }
        if self.lidar_scans > 0 {
            report.set("simworld.lidar_us", self.lidar_ns as f64 / self.lidar_scans as f64 / 1e3);
        }
    }
}

impl LoopObserver for LayerTracer {
    fn wants_phase_timing(&self) -> bool {
        true
    }

    fn on_phase(&mut self, phase: LoopPhase, dur_ns: u64) {
        let slot = match phase {
            LoopPhase::Sense => {
                // A tick starts where its sense phase started.
                let now = Instant::now();
                let start = now.checked_sub(Duration::from_nanos(dur_ns)).unwrap_or(now);
                self.close_tick(start);
                self.tick_start = Some(start);
                0
            }
            LoopPhase::Driver => 1,
            LoopPhase::Detect => 2,
            LoopPhase::Step => 3,
        };
        self.phase_ns[slot] += dur_ns;
    }

    fn on_tick(&mut self, ctx: &TickContext<'_>) {
        let entered = Instant::now();
        self.ticks += 1;
        self.gpu_instr += ctx.work.gpu_instr;
        self.cpu_instr += ctx.work.cpu_instr;

        let cams = &ctx.frame.cameras;
        let changed = if self.prev_cameras.len() == cams.len() {
            cams.iter().zip(&self.prev_cameras).filter(|(c, p)| c.data() != p.data()).count()
        } else {
            cams.len()
        };
        self.cameras_rendered += changed as u64;
        self.prev_cameras.clone_from(cams);

        if self.ticks % REPLAY_EVERY == 1 {
            let world = ctx.world;
            let cfg = world.sensor_config();
            let scene = RenderScene {
                track: &world.scenario().track,
                ego: world.ego_state().pose,
                ego_s: world.ego_s(),
                npcs: world.npcs(),
                frame_seed: ctx.frame.step,
            };
            let image = self.scratch_image.get_or_insert_with(|| Image::new(0, 0));
            for cam in 0..cams.len() {
                let t = Instant::now();
                render_camera_into(cfg, &scene, cam, image);
                self.camera_ns += t.elapsed().as_nanos() as u64;
                self.camera_renders += 1;
                std::hint::black_box(image.data());
            }
            if cfg.enable_lidar {
                let t = Instant::now();
                lidar_scan_into(cfg, &scene, &mut self.scratch_lidar);
                self.lidar_ns += t.elapsed().as_nanos() as u64;
                self.lidar_scans += 1;
                std::hint::black_box(&self.scratch_lidar);
            }
        }
        self.excluded_ns += entered.elapsed().as_nanos() as u64;
    }

    fn on_termination(
        &mut self,
        _world: &diverseav_simworld::World,
        _termination: &diverseav_runtime::Termination,
    ) {
        self.close_tick(Instant::now());
        self.prev_cameras.clear();
    }
}
