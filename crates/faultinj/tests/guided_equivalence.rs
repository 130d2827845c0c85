//! A monolithic guided campaign equals the sharded one.
//!
//! `run_guided_campaign` (every epoch in memory) and the shard path
//! (`execute_shard` per epoch, the merged pilot summary fed to the
//! adaptive epoch, one shard killed at a checkpoint and resumed) both
//! drive the campaign executor, so they must agree bit for bit: the
//! flattened runs, the baseline, the per-epoch summaries and their
//! digests, and the weighted Table-I row.
//!
//! Single-test binary: shard execution reads deltas out of the
//! process-global metrics registry, so a concurrent campaign in this
//! process would pollute them.

use diverseav::AgentMode;
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    execute_shard, execute_shard_limited, guided_epoch_summary, merge_artifacts, parse_artifact,
    run_guided_campaign, summarize_guided, summarize_weighted, Campaign, CampaignScale,
    EpochSummary, FaultModelKind, GuidedConfig, GuidedShardSpec, RunResult, ShardArtifact,
    ShardConfig, ShardRun, ShardSpec, WeightedRow,
};
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::fs;

const TD: f64 = 2.0;
const EPOCHS: usize = 2;
const SHARDS: usize = 2;

const CAMPAIGN: Campaign = Campaign {
    scenario: ScenarioKind::LeadSlowdown,
    target: Profile::Gpu,
    kind: FaultModelKind::Transient,
    mode: AgentMode::RoundRobin,
};

fn tiny_scale() -> CampaignScale {
    CampaignScale {
        n_transient: 6,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 8.0,
        training_runs: 1,
    }
}

/// Every shard of one epoch, each capped at one batch and resumed when
/// the cap stopped it. Returns the parsed artifacts and how many shards
/// were interrupted.
fn run_epoch(epoch: usize, prior: Option<&EpochSummary>) -> (Vec<ShardArtifact>, usize) {
    let mut interrupted = 0;
    let artifacts = (0..SHARDS)
        .map(|index| {
            let cfg = ShardConfig {
                campaign: CAMPAIGN,
                scale: tiny_scale(),
                sensor: SensorConfig::default(),
                spec: ShardSpec { index, count: SHARDS },
                batch_size: 1,
                guided: Some(GuidedShardSpec { epochs: EPOCHS, epoch, prior: prior.cloned() }),
            };
            let path = std::env::temp_dir().join(format!(
                "diverseav-guided-equivalence-{}-e{epoch}s{index}.jsonl",
                std::process::id()
            ));
            let _ = fs::remove_file(&path);
            if !execute_shard_limited(&cfg, &path, Some(1)).expect("capped shard runs").complete {
                interrupted += 1;
                let resumed = execute_shard(&cfg, &path).expect("killed shard resumes");
                assert!(resumed.complete && resumed.resumed_batches >= 1);
            }
            let text = fs::read_to_string(&path).expect("artifact readable");
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(path.with_extension("incidents.jsonl"));
            parse_artifact(&text).expect("artifact parses")
        })
        .collect();
    (artifacts, interrupted)
}

/// Shard-artifact lines of live runs (bit-exact: f64s as bit patterns).
fn lines(kind: &str, runs: &[RunResult]) -> Vec<String> {
    runs.iter().enumerate().map(|(i, r)| ShardRun::from_result(kind, i, r).render_line(0)).collect()
}

fn row_bits(r: &WeightedRow) -> (usize, usize, [u64; 5]) {
    let cells = [r.active, r.hang_crash, r.accidents, r.traj_violations, r.ess];
    (r.budget, r.runs, cells.map(f64::to_bits))
}

#[test]
fn monolithic_guided_campaign_equals_the_sharded_one() {
    let mono = run_guided_campaign(
        CAMPAIGN,
        &tiny_scale(),
        SensorConfig::default(),
        GuidedConfig { epochs: EPOCHS },
    )
    .expect("guided campaign runs");
    assert_eq!(mono.summaries.len(), EPOCHS);

    let (pilot, mut interrupted) = run_epoch(0, None);
    let pilot_merge = merge_artifacts(&pilot).expect("pilot epoch merges as a prefix");
    let prior = guided_epoch_summary(&pilot_merge[0]).expect("pilot summary");
    assert_eq!(prior, mono.summaries[0], "pilot tallies");
    assert_eq!(prior.digest(), mono.summaries[0].digest());

    let (adaptive, n) = run_epoch(1, Some(&prior));
    interrupted += n;
    assert!(interrupted >= 1, "some shard must be killed and resumed");
    let all: Vec<ShardArtifact> = pilot.into_iter().chain(adaptive).collect();
    let merged = merge_artifacts(&all).expect("full guided set merges");
    let m = &merged[0];

    let render =
        |runs: &[ShardRun]| -> Vec<String> { runs.iter().map(|r| r.render_line(0)).collect() };
    assert_eq!(render(&m.golden), lines("golden", &mono.golden));
    assert_eq!(render(&m.injected), lines("injected", &mono.injected));
    assert_eq!(m.baseline, mono.baseline);
    let g = m.guided.as_ref().expect("guided merge");
    assert_eq!((g.epochs, g.budget), (mono.epochs, mono.budget));
    assert_eq!(g.epoch_runs, mono.epoch_runs);
    let full = guided_epoch_summary(m).expect("full summary");
    assert_eq!(full, mono.summaries[EPOCHS - 1]);
    assert_eq!(full.digest(), mono.summaries[EPOCHS - 1].digest());

    let live = summarize_guided(&mono, TD);
    let sharded = summarize_weighted(m, TD).expect("weighted row");
    assert_eq!(row_bits(&live), row_bits(&sharded), "{live:?} vs {sharded:?}");
}
