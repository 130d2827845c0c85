//! `campaign_fd_sharded`: the permanent half of a Table-I cell, GPU- and
//! CPU-permanent × GhostCutIn × Duplicate (FD), through the shard
//! executor. One shard per batch is interrupted after its first commit
//! and resumed; the artifacts are read back and merged.

use crate::pins;
use crate::report::{median, timed_batches, timed_setup, Batch, Digest, Report};
use crate::sample::{pick, shuffle, trace_runs, SampledRun};
use crate::{Args, Size};
use diverseav::AgentMode;
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    execute_shard, execute_shard_limited, generate_plan, incident_sidecar_path, merge_artifacts,
    parse_artifact, plan_seed, run_experiment, scenario_for, summarize_merged, Campaign,
    CampaignScale, FaultModelKind, MergedCampaign, PlanConfig, RunConfig, ShardArtifact,
    ShardConfig, ShardRun, ShardSpec, GOLDEN_SEED_BASE, INJECTED_SEED_BASE,
};
use diverseav_obs::metrics;
use diverseav_simworld::{ScenarioKind, SensorConfig, World};
use std::path::{Path, PathBuf};
use std::time::Instant;

const TD: f64 = 2.0;
/// Shards per campaign.
const SHARDS: usize = 2;
/// Runs per committed shard batch.
const SHARD_BATCH: usize = 4;

fn campaign(target: Profile) -> Campaign {
    Campaign {
        scenario: ScenarioKind::GhostCutIn,
        target,
        kind: FaultModelKind::Permanent,
        mode: AgentMode::Duplicate,
    }
}

fn campaigns(size: Size) -> Vec<Campaign> {
    match size {
        Size::Full => vec![campaign(Profile::Gpu), campaign(Profile::Cpu)],
        Size::Tiny => vec![campaign(Profile::Cpu)],
    }
}

fn scale(size: Size) -> CampaignScale {
    CampaignScale {
        n_transient: 16,
        permanent_repeats: 1,
        golden_runs: match size {
            Size::Full => 3,
            Size::Tiny => 1,
        },
        long_route_duration: 30.0,
        training_runs: 1,
    }
}

/// Shard-layer timings of one batch.
#[derive(Default)]
struct ShardTimes {
    execute_s: f64,
    resume_s: f64,
    parse_s: f64,
    merge_s: f64,
    artifact_bytes: u64,
    useful_run_frac: f64,
}

pub fn run(args: &Args, work_dir: &Path) -> Report {
    let campaigns = campaigns(args.size);
    let scale = scale(args.size);
    let pins = pins::fd(args.size);
    let mut report = Report::default();

    // Set-up: build the campaign scenario and world, and warm up with
    // one fault-free FD run of it, three times.
    let (setup_s, ()) = timed_setup(3, || {
        let scenario = scenario_for(ScenarioKind::GhostCutIn, &scale);
        let world = World::new(scenario.clone(), SensorConfig::default(), GOLDEN_SEED_BASE);
        std::hint::black_box(&world);
        let cfg = RunConfig::new(scenario, AgentMode::Duplicate, GOLDEN_SEED_BASE);
        std::hint::black_box(run_experiment(&cfg));
    });
    report.set("setup_s", setup_s);

    let seconds = if args.trace { 0.0 } else { args.seconds };
    let mut times = Vec::new();
    let merged = timed_batches(&mut report, seconds, |report, i| {
        let dir = work_dir.join(format!("batch{i}"));
        let (b, merged, t) = batch(report, &dir, &campaigns, &scale, args.seed ^ i as u64, &pins);
        let _ = std::fs::remove_dir_all(&dir);
        times.push(t);
        (b, merged)
    });
    report.set("peak_rss_mb", crate::report::peak_rss_mb());

    report.set("shard.execute_s", median(times.iter().map(|t| t.execute_s)));
    report.set("shard.resume_s", median(times.iter().map(|t| t.resume_s)));
    report.set("shard.parse_s", median(times.iter().map(|t| t.parse_s)));
    report.set("shard.merge_s", median(times.iter().map(|t| t.merge_s)));
    report.set("shard.artifact_bytes", times[0].artifact_bytes as f64);
    report.set("shard.useful_run_frac", times[0].useful_run_frac);
    let merged = &merged;
    report.digest = digest(merged);
    let injected: Vec<&ShardRun> = merged.iter().flat_map(|m| &m.injected).collect();
    let injected_ticks: u64 = injected.iter().map(|r| r.ticks).sum();
    report.set(
        "faultinj.injected_ticks_per_run",
        injected_ticks as f64 / injected.len().max(1) as f64,
    );
    if args.trace {
        let sample = sample(args.seed, &campaigns, &scale, merged);
        trace_runs(&mut report, &sample);
    }
    report
}

/// One closed batch: every shard of every campaign, one of them killed
/// after its first batch and resumed, then parse and merge.
fn batch(
    report: &mut Report,
    dir: &Path,
    campaigns: &[Campaign],
    scale: &CampaignScale,
    seed: u64,
    pins: &pins::FdPins,
) -> (Batch, Vec<MergedCampaign>, ShardTimes) {
    let mut times = ShardTimes::default();
    let expected: usize = campaigns.len() * scale.golden_runs;
    report.attempted += expected as u64;
    if let Err(e) = std::fs::create_dir_all(dir) {
        report.check(false, || format!("cannot create {}: {e}", dir.display()));
    }
    // The seed picks the order the shards run in; shard 0 of the first
    // campaign is the one interrupted and resumed.
    let mut order: Vec<(usize, usize)> =
        (0..campaigns.len()).flat_map(|c| (0..SHARDS).map(move |i| (c, i))).collect();
    shuffle(&mut order, seed);
    let paths: Vec<PathBuf> = (0..campaigns.len())
        .flat_map(|c| (0..SHARDS).map(move |i| dir.join(format!("c{c}-s{i}.jsonl"))))
        .collect();
    let executed0 = metrics::counter_get("runner.experiments");
    let ticks0 = metrics::counter_get("runtime.ticks");
    let start = Instant::now();

    for (c, index) in order {
        let path = &paths[c * SHARDS + index];
        let cfg = ShardConfig {
            campaign: campaigns[c],
            scale: *scale,
            sensor: SensorConfig::default(),
            spec: ShardSpec { index, count: SHARDS },
            batch_size: SHARD_BATCH,
            guided: None,
        };
        let t = Instant::now();
        if (c, index) == (0, 0) {
            let first = execute_shard_limited(&cfg, path, Some(1));
            times.execute_s += t.elapsed().as_secs_f64();
            report.check(first.as_ref().is_ok_and(|s| !s.complete), || {
                format!("interrupted shard {c}/{index}: {first:?}")
            });
            let t = Instant::now();
            let resumed = execute_shard(&cfg, path);
            times.resume_s += t.elapsed().as_secs_f64();
            report.check(
                resumed.as_ref().is_ok_and(|s| s.complete && s.resumed_batches == 1),
                || format!("resumed shard {c}/{index}: {resumed:?}"),
            );
        } else {
            let status = execute_shard(&cfg, path);
            times.execute_s += t.elapsed().as_secs_f64();
            report.check(status.as_ref().is_ok_and(|s| s.complete), || {
                format!("shard {c}/{index}: {status:?}")
            });
        }
    }

    let t = Instant::now();
    let mut artifacts: Vec<ShardArtifact> = Vec::new();
    for path in &paths {
        match std::fs::read_to_string(path).map_err(Into::into).and_then(|s| parse_artifact(&s)) {
            Ok(a) => artifacts.push(a),
            Err(e) => report.check(false, || format!("{}: {e}", path.display())),
        }
    }
    times.parse_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let merged = match merge_artifacts(&artifacts) {
        Ok(m) => m,
        Err(e) => {
            report.check(false, || format!("merge refused: {e}"));
            Vec::new()
        }
    };
    times.merge_s = t.elapsed().as_secs_f64();
    let secs = start.elapsed().as_secs_f64();

    times.artifact_bytes = paths
        .iter()
        .flat_map(|p| [p.clone(), incident_sidecar_path(p)])
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let committed: usize = merged.iter().map(|m| m.golden.len() + m.injected.len()).sum();
    let executed = metrics::counter_get("runner.experiments") - executed0;
    times.useful_run_frac = committed as f64 / executed.max(1) as f64;
    let ticks = metrics::counter_get("runtime.ticks") - ticks0;

    report.attempted += merged.iter().map(|m| m.manifest.injected_runs as u64).sum::<u64>();
    check(report, &merged, campaigns.len(), scale, pins);
    (Batch { secs, runs: committed as u64, ticks }, merged, times)
}

/// Digest of the merged campaigns, in merge order.
fn digest(merged: &[MergedCampaign]) -> u64 {
    let mut d = Digest::default();
    for r in merged.iter().flat_map(|m| m.golden.iter().chain(&m.injected)) {
        d.run(r.seed, &r.outcome, r.end_time, r.alarm_time);
    }
    d.value()
}

fn check(
    report: &mut Report,
    merged: &[MergedCampaign],
    n_campaigns: usize,
    scale: &CampaignScale,
    pins: &pins::FdPins,
) {
    report.check(merged.len() == n_campaigns, || {
        format!("{} merged campaigns, expected {n_campaigns}", merged.len())
    });
    for m in merged {
        // Exactly-once coverage: run indices are 0..n with no gap or repeat.
        let covered = |runs: &[ShardRun], n: usize| {
            runs.len() == n && runs.iter().enumerate().all(|(i, r)| r.index == i)
        };
        let name = &m.manifest.campaign;
        report.check(covered(&m.golden, scale.golden_runs), || {
            format!("{name}: golden runs not covered exactly once")
        });
        report.check(covered(&m.injected, m.manifest.injected_runs), || {
            format!("{name}: injected runs not covered exactly once")
        });
        let row = summarize_merged(m, TD);
        let pinned = pins.rows.iter().find(|(c, _)| c == name).map(|(_, r)| *r);
        report.check(pinned == Some(row), || {
            format!("{name}: merged row {row:?} differs from the pinned {pinned:?}")
        });
    }
    let d = digest(merged);
    report.check(d == pins.digest, || {
        format!("results digest {d:016x} differs from the pinned {:016x}", pins.digest)
    });
}

/// Per campaign: golden run 0 and two injected runs picked by `seed`,
/// rebuilt exactly as the shard executor builds them.
fn sample(
    seed: u64,
    campaigns: &[Campaign],
    scale: &CampaignScale,
    merged: &[MergedCampaign],
) -> Vec<SampledRun> {
    let scenario = scenario_for(ScenarioKind::GhostCutIn, scale);
    let mut out = Vec::new();
    for campaign in campaigns {
        let Some(m) = merged.iter().find(|m| m.manifest.campaign == campaign.to_string()) else {
            continue;
        };
        let golden = RunConfig::new(scenario.clone(), campaign.mode, GOLDEN_SEED_BASE);
        let plan = generate_plan(
            &run_experiment(&golden),
            &PlanConfig {
                kind: campaign.kind,
                target: campaign.target,
                n_transient: scale.n_transient,
                repeats: scale.permanent_repeats,
                seed: plan_seed(campaign),
            },
        );
        let one = |r: &ShardRun| {
            let mut d = Digest::default();
            d.run(r.seed, &r.outcome, r.end_time, r.alarm_time);
            d.value()
        };
        out.push(SampledRun { cfg: golden, expected: one(&m.golden[0]) });
        for j in pick(seed, m.injected.len().min(plan.len()), 2) {
            let mut cfg =
                RunConfig::new(scenario.clone(), campaign.mode, INJECTED_SEED_BASE + j as u64);
            cfg.fault = Some(plan[j]);
            out.push(SampledRun { cfg, expected: one(&m.injected[j]) });
        }
    }
    out
}
