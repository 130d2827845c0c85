//! The campaign executor: the one place a campaign's runs are planned,
//! configured, and executed.
//!
//! Every campaign follows the paper's Fig 3 flow: golden runs (golden
//! run 0 doubling as the profiling pass), an injection plan drawn from
//! that profile, then the injected runs. The three campaign drivers
//! differ only in how they schedule units and keep results:
//! [`run_campaign_cached`](crate::campaign::run_campaign_cached) runs all
//! units in memory, [`run_guided_campaign`](crate::guided::run_guided_campaign)
//! one guided epoch at a time, and
//! [`execute_shard_limited`](crate::shard::execute_shard_limited) one
//! partition in checkpointed batches. A run is a pure function of its
//! [`RunUnit`], the campaign, and the plan ([`Executor::run`] holds the
//! whole law), so any split of the units over threads, batches, shards,
//! or epochs yields bit-identical runs.

use crate::cache::GoldenSet;
use crate::campaign::{
    plan_seed, scenario_for, Campaign, CampaignScale, GOLDEN_SEED_BASE, INJECTED_SEED_BASE,
};
use crate::exec::par_map;
use crate::guided::{GuidedConfig, GuidedPlanner};
use crate::outcome::mean_trajectory;
use crate::plan::{generate_plan, PlanConfig};
use crate::runner::{run_experiment, FaultSpec, RunConfig, RunResult};
use crate::shard::GuidedShardSpec;
use diverseav::{DetectorConfig, DetectorModel};
use diverseav_simworld::{Scenario, SensorConfig, TrajPoint};

/// One schedulable run of a campaign; ordered golden-major, by index.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RunUnit {
    /// Golden (fault-free) run `i`, seed `GOLDEN_SEED_BASE + i`.
    Golden(usize),
    /// Injected run `i` (global plan index), seed `INJECTED_SEED_BASE + i`.
    Injected(usize),
}

impl RunUnit {
    /// The unit an artifact line names by `kind` and `index`.
    pub fn parse(kind: &str, index: usize) -> Option<RunUnit> {
        match kind {
            "golden" => Some(RunUnit::Golden(index)),
            "injected" => Some(RunUnit::Injected(index)),
            _ => None,
        }
    }

    /// `"golden"` or `"injected"`.
    pub fn kind(self) -> &'static str {
        match self {
            RunUnit::Golden(_) => "golden",
            RunUnit::Injected(_) => "injected",
        }
    }

    /// Index within its kind.
    pub fn index(self) -> usize {
        match self {
            RunUnit::Golden(i) | RunUnit::Injected(i) => i,
        }
    }

    /// The run seed under the engine's seed law.
    pub fn seed(self) -> u64 {
        let base = if self.kind() == "golden" { GOLDEN_SEED_BASE } else { INJECTED_SEED_BASE };
        base.wrapping_add(self.index() as u64)
    }
}

/// The full run set of a campaign, in engine order (golden-major).
pub fn campaign_units(golden_runs: usize, injected_runs: usize) -> Vec<RunUnit> {
    (0..golden_runs).map(RunUnit::Golden).chain((0..injected_runs).map(RunUnit::Injected)).collect()
}

/// Plans and runs the units of one campaign.
pub(crate) struct Executor {
    campaign: Campaign,
    scale: CampaignScale,
    pub scenario: Scenario,
    sensor: SensorConfig,
    detector: Option<(DetectorModel, DetectorConfig)>,
    collect_traces: bool,
    /// The current plan: entry `j` is injected run `plan_start + j`, as
    /// (fault, guided stratum and weight).
    plan: Vec<(FaultSpec, Option<(u64, f64)>)>,
    /// Global injected index of the plan's first run (guided epochs own
    /// contiguous index ranges).
    pub plan_start: usize,
    /// Injected runs in the whole campaign (the guided budget).
    pub plan_total: usize,
}

impl Executor {
    /// An executor for `campaign` with an empty plan (golden units only).
    pub fn new(
        campaign: Campaign,
        scale: &CampaignScale,
        sensor: SensorConfig,
        detector: Option<(DetectorModel, DetectorConfig)>,
        collect_traces: bool,
    ) -> Self {
        Executor {
            scenario: scenario_for(campaign.scenario, scale),
            campaign,
            scale: *scale,
            sensor,
            detector,
            collect_traces,
            plan: Vec::new(),
            plan_start: 0,
            plan_total: 0,
        }
    }

    /// The planned injected units, in index order.
    pub fn planned(&self) -> impl ExactSizeIterator<Item = RunUnit> {
        (self.plan_start..self.plan_start + self.plan.len()).map(RunUnit::Injected)
    }

    /// Draw the injection plan from `profile` (golden run 0): the uniform
    /// enumeration, or one epoch of a guided campaign.
    pub fn set_plan(
        &mut self,
        profile: &RunResult,
        guided: Option<&GuidedShardSpec>,
    ) -> Result<(), String> {
        let (c, scale) = (&self.campaign, &self.scale);
        (self.plan, self.plan_start, self.plan_total) = match guided {
            None => {
                let cfg = PlanConfig {
                    kind: c.kind,
                    target: c.target,
                    n_transient: scale.n_transient,
                    repeats: scale.permanent_repeats,
                    seed: plan_seed(c),
                };
                let runs: Vec<_> =
                    generate_plan(profile, &cfg).into_iter().map(|f| (f, None)).collect();
                let n = runs.len();
                (runs, 0, n)
            }
            Some(g) => {
                let planner =
                    GuidedPlanner::new(profile, c, scale, GuidedConfig { epochs: g.epochs })?;
                let plan = planner.epoch_plan(g.epoch, g.prior.as_ref())?;
                let runs = plan.into_iter().map(|s| (s.spec, Some((s.stratum, s.weight))));
                (runs.collect(), planner.epoch_start(g.epoch), planner.budget)
            }
        };
        Ok(())
    }

    /// Execute one unit under the `RunUnit → RunConfig` law: seed from
    /// the unit, fault, stratum, and weight from the plan, everything
    /// else from the campaign.
    pub fn run(&self, unit: RunUnit) -> RunResult {
        let mut cfg = RunConfig::new(self.scenario.clone(), self.campaign.mode, unit.seed());
        cfg.sensor = self.sensor;
        cfg.detector = self.detector.clone();
        cfg.collect_training = self.collect_traces;
        if let RunUnit::Injected(i) = unit {
            let (fault, guided) = self.plan[i - self.plan_start];
            cfg.fault = Some(fault);
            cfg.stratum = guided.map(|g| g.0);
            cfg.weight = guided.map(|g| g.1);
        }
        run_experiment(&cfg)
    }

    /// Execute `units` on the deterministic parallel engine, mapping each
    /// result through `f`, in unit order. `profile` is golden run 0 when
    /// the caller already ran it; it is reused, not re-run.
    pub fn run_units<T: Send>(
        &self,
        units: &[RunUnit],
        profile: Option<&RunResult>,
        f: impl Fn(RunUnit, RunResult) -> T + Sync,
    ) -> Vec<T> {
        par_map(units, |&unit| match (unit, profile) {
            (RunUnit::Golden(0), Some(p)) => f(unit, p.clone()),
            _ => f(unit, self.run(unit)),
        })
    }

    /// Every injected run of the current plan, in index order.
    pub fn run_plan(&self) -> Vec<RunResult> {
        self.run_units(&self.planned().collect::<Vec<_>>(), None, |_, r| r)
    }

    /// Every golden run, in parallel, plus the violation baseline.
    pub fn golden_set(&self) -> GoldenSet {
        let units = campaign_units(self.scale.golden_runs.max(1), 0);
        let golden = self.run_units(&units, None, |_, r| r);
        let trajectories: Vec<&[TrajPoint]> =
            golden.iter().map(|g| g.trajectory.as_slice()).collect();
        GoldenSet { baseline: mean_trajectory(&trajectories), golden }
    }
}
