//! The traced run: a sample of a workload's own run configurations,
//! replayed untraced and then traced, each replay checked against the
//! result the timed batch produced for the same configuration.

use crate::report::{Digest, Report};
use crate::tracer::LayerTracer;
use diverseav::{Ads, AdsConfig};
use diverseav_faultinj::{run_experiment, run_experiment_observed, RunConfig, RunResult};
use diverseav_runtime::SimLoop;
use diverseav_simworld::World;
use std::time::Instant;

/// Ticks of the agent-step replay: enough to cover every distributor
/// pattern (round robin alternates every tick).
const AGENT_REPLAY_TICKS: usize = 200;

/// One sampled configuration and the digest of its batch result.
pub struct SampledRun {
    /// The configuration, rebuilt exactly as the executor builds it.
    pub cfg: RunConfig,
    /// [`Digest`] of the batch's result for this configuration.
    pub expected: u64,
}

/// Pick `k` distinct indices of `0..n`, chosen by `seed`, in ascending
/// order.
pub fn pick(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in 0..k.min(n) {
        s = splitmix(s);
        let j = i + (s % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}

/// Permute `items` in place, chosen by `seed` (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..items.len()).rev() {
        s = splitmix(s);
        items.swap(i, (s % (i as u64 + 1)) as usize);
    }
}

/// SplitMix64 step.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replay `sample` through `run_experiment` (untraced) and through
/// `run_experiment_observed` with a [`LayerTracer`] under
/// `DIVERSEAV_PROFILE=wall` (traced). Fills the tick-level layer metrics
/// and `trace.overhead_frac`.
pub fn trace_runs(report: &mut Report, sample: &[SampledRun]) {
    let replay = |report: &mut Report, traced: Option<&mut LayerTracer>| -> f64 {
        let mut tracer = traced;
        let start = Instant::now();
        let mut ticks = 0u64;
        for s in sample {
            let r: RunResult = match tracer.as_deref_mut() {
                Some(t) => run_experiment_observed(&s.cfg, &mut [t]),
                None => run_experiment(&s.cfg),
            };
            ticks += r.ticks;
            report.attempted += 1;
            let got = Digest::of([&r]);
            let mode = if tracer.is_some() { "traced" } else { "untraced" };
            report.check(got == s.expected, || {
                format!("{mode} replay of seed {} differs from its batch result", s.cfg.seed)
            });
        }
        ticks as f64 / start.elapsed().as_secs_f64()
    };
    let untraced_tps = replay(report, None);
    let mut tracer = LayerTracer::default();
    let traced_tps = with_wall_profile(|| replay(report, Some(&mut tracer)));
    tracer.fill(report);
    report.set("trace.overhead_frac", traced_tps / untraced_tps);
    if let Some(first) = sample.first() {
        report.set("agent.steps_per_tick", agent_steps_per_tick(&first.cfg));
    }
}

/// Run `f` with `DIVERSEAV_PROFILE=wall`, so the runner's profiling
/// observer and the ADS time the detector on the host clock. Only call
/// while no engine threads are running.
pub fn with_wall_profile<T>(f: impl FnOnce() -> T) -> T {
    let previous = std::env::var_os("DIVERSEAV_PROFILE");
    std::env::set_var("DIVERSEAV_PROFILE", "wall");
    let out = f();
    match previous {
        Some(v) => std::env::set_var("DIVERSEAV_PROFILE", v),
        None => std::env::remove_var("DIVERSEAV_PROFILE"),
    }
    out
}

/// Agent steps per tick: drive `cfg`'s world with an [`Ads`] of the same
/// mode and count the frames its agents processed.
fn agent_steps_per_tick(cfg: &RunConfig) -> f64 {
    let world = World::new(cfg.scenario.clone(), cfg.sensor, cfg.seed);
    let mut ads = Ads::new(AdsConfig::for_mode(cfg.mode, cfg.seed));
    let mut sim = SimLoop::new(world, &mut ads);
    let _ = sim.run_for(AGENT_REPLAY_TICKS, &mut []);
    drop(sim);
    ads.agent_steps().iter().sum::<u64>() as f64 / ads.steps().max(1) as f64
}
