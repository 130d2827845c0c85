//! `campaign_rr`: one Table-I cell, GPU-transient × LeadSlowdown ×
//! RoundRobin (DiverseAV), with the trained detector attached, through
//! the monolithic executor `run_campaign_cached`.

use crate::pins;
use crate::report::{timed_batches, timed_setup, Batch, Digest, Report};
use crate::sample::{pick, trace_runs, SampledRun};
use crate::{Args, Size};
use diverseav::{AgentMode, DetectorConfig, DetectorModel};
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    collect_training_runs, generate_plan, plan_seed, run_campaign_cached, scenario_for, summarize,
    Campaign, CampaignResult, CampaignScale, FaultModelKind, PlanConfig, RunConfig,
    GOLDEN_SEED_BASE, INJECTED_SEED_BASE,
};
use diverseav_obs::metrics;
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::time::Instant;

/// The paper's best operating point: rolling window 3, threshold 2 m.
const RW: usize = 3;
const TD: f64 = 2.0;

const CAMPAIGN: Campaign = Campaign {
    scenario: ScenarioKind::LeadSlowdown,
    target: Profile::Gpu,
    kind: FaultModelKind::Transient,
    mode: AgentMode::RoundRobin,
};

fn scale(size: Size) -> CampaignScale {
    match size {
        Size::Full => CampaignScale {
            n_transient: 16,
            permanent_repeats: 1,
            golden_runs: 6,
            long_route_duration: 30.0,
            training_runs: 2,
        },
        Size::Tiny => CampaignScale {
            n_transient: 2,
            permanent_repeats: 1,
            golden_runs: 1,
            long_route_duration: 8.0,
            training_runs: 1,
        },
    }
}

pub fn run(args: &Args) -> Report {
    let scale = scale(args.size);
    let pins = pins::rr(args.size);
    let det_cfg = DetectorConfig::default().with_rw(RW);
    let mut report = Report::default();

    // Set-up: collect the fault-free training streams and train the
    // detector, three times.
    let mut train_secs = Vec::new();
    let (setup_s, model) = timed_setup(3, || {
        let runs = collect_training_runs(CAMPAIGN.mode, &scale, SensorConfig::default());
        let t = Instant::now();
        let model = DetectorModel::train(&runs, &det_cfg);
        train_secs.push(t.elapsed().as_secs_f64());
        model
    });
    report.set("setup_s", setup_s);
    report.set("core.detector_train_s", crate::report::median(train_secs));

    let detector = Some((model, det_cfg));
    let expected_runs = (scale.golden_runs + scale.n_transient) as u64;
    let seconds = if args.trace { 0.0 } else { args.seconds };
    let first = timed_batches(&mut report, seconds, |report, _| {
        let golden0 = metrics::phase_get("campaign.golden").wall_secs;
        let injected0 = metrics::phase_get("campaign.injected").wall_secs;
        let ticks0 = metrics::counter_get("runtime.ticks");
        let t = Instant::now();
        let result = run_campaign_cached(
            CAMPAIGN,
            &scale,
            detector.clone(),
            SensorConfig::default(),
            false,
            None,
        );
        let secs = t.elapsed().as_secs_f64();
        let ticks = metrics::counter_get("runtime.ticks") - ticks0;
        let golden_s = metrics::phase_get("campaign.golden").wall_secs - golden0;
        let injected_s = metrics::phase_get("campaign.injected").wall_secs - injected0;
        let runs = (result.golden.len() + result.injected.len()) as u64;
        report.attempted += expected_runs;
        check(report, &result, &scale, &pins);
        (Batch { secs, runs, ticks }, (result, golden_s, injected_s))
    });
    report.set("peak_rss_mb", crate::report::peak_rss_mb());

    let (result, golden_s, injected_s) = &first;
    report.digest = Digest::of(result.golden.iter().chain(&result.injected));
    report.set("faultinj.golden_s", *golden_s);
    report.set("faultinj.injected_s", *injected_s);
    let injected_ticks: u64 = result.injected.iter().map(|r| r.ticks).sum();
    report.set(
        "faultinj.injected_ticks_per_run",
        injected_ticks as f64 / result.injected.len().max(1) as f64,
    );
    if args.trace {
        let sample = sample(args.seed, &scale, result, &detector);
        trace_runs(&mut report, &sample);
    }
    report
}

fn check(report: &mut Report, r: &CampaignResult, scale: &CampaignScale, pins: &pins::RrPins) {
    let missing =
        (scale.golden_runs + scale.n_transient).saturating_sub(r.golden.len() + r.injected.len());
    report.failed += missing as u64;
    if missing > 0 {
        eprintln!("perfbench: CHECK FAILED: {missing} campaign runs missing");
    }
    let digest = Digest::of(r.golden.iter().chain(&r.injected));
    report.check(digest == pins.digest, || {
        format!("results digest {digest:016x} differs from the pinned {:016x}", pins.digest)
    });
    let alarms = r.golden.iter().filter(|g| g.alarm_time.is_some()).count();
    report.check(alarms == 0, || format!("{alarms} golden runs raised an alarm"));
    let row = summarize(r, TD);
    report.check(row == pins.row, || {
        format!("Table-I row {row:?} differs from the pinned {:?}", pins.row)
    });
}

/// Two golden and three injected configurations, picked by `seed`,
/// rebuilt exactly as `run_campaign_cached` builds them.
fn sample(
    seed: u64,
    scale: &CampaignScale,
    result: &CampaignResult,
    detector: &Option<(DetectorModel, DetectorConfig)>,
) -> Vec<SampledRun> {
    let scenario = scenario_for(CAMPAIGN.scenario, scale);
    let plan = generate_plan(
        &result.golden[0],
        &PlanConfig {
            kind: CAMPAIGN.kind,
            target: CAMPAIGN.target,
            n_transient: scale.n_transient,
            repeats: scale.permanent_repeats,
            seed: plan_seed(&CAMPAIGN),
        },
    );
    let mut out = Vec::new();
    let mut push = |i: usize, base: u64, fault, expected| {
        let mut cfg = RunConfig::new(scenario.clone(), CAMPAIGN.mode, base + i as u64);
        cfg.fault = fault;
        cfg.detector = detector.clone();
        out.push(SampledRun { cfg, expected });
    };
    for i in pick(seed, result.golden.len(), 2) {
        push(i, GOLDEN_SEED_BASE, None, Digest::of([&result.golden[i]]));
    }
    for i in pick(seed ^ 1, result.injected.len(), 3) {
        push(i, INJECTED_SEED_BASE, Some(plan[i]), Digest::of([&result.injected[i]]));
    }
    out
}
