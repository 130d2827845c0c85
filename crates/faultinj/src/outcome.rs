//! Run classification and detection-quality metrics: trajectory
//! violations, Table-I outcome classes, precision/recall, and lead
//! detection time.

use crate::guided::{ess, WeightedRow};
use crate::runner::RunResult;
use diverseav_simworld::TrajPoint;

/// Outcome class of one fault-injected run (Table I categories).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Platform-detected hang or crash.
    HangCrash,
    /// The ego vehicle collided.
    Accident,
    /// No accident, but the trajectory diverged ≥ `td` from the baseline.
    TrajViolation,
    /// No observable safety impact.
    Benign,
}

/// Mean trajectory of a set of golden runs (per-index mean over the runs
/// that reached that index) — the paper's baseline trajectory.
pub fn mean_trajectory(runs: &[&[TrajPoint]]) -> Vec<TrajPoint> {
    let max_len = runs.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(max_len);
    for i in 0..max_len {
        let pts: Vec<&TrajPoint> = runs.iter().filter_map(|r| r.get(i)).collect();
        if pts.is_empty() {
            break;
        }
        let n = pts.len() as f64;
        let (sx, sy, st) = pts
            .iter()
            .fold((0.0, 0.0, 0.0), |acc, p| (acc.0 + p.pos.x, acc.1 + p.pos.y, acc.2 + p.t));
        out.push(TrajPoint { t: st / n, pos: diverseav_simworld::Vec2::new(sx / n, sy / n) });
    }
    out
}

/// Maximum positional divergence `δ_pos^{E,B}` between a run's trajectory
/// and the baseline, compared index-aligned over their overlap (§V-B).
pub fn max_traj_divergence(traj: &[TrajPoint], baseline: &[TrajPoint]) -> f64 {
    traj.iter().zip(baseline.iter()).map(|(a, b)| a.pos.dist(b.pos)).fold(0.0, f64::max)
}

/// Time at which the trajectory first diverges ≥ `td` from the baseline.
pub fn first_violation_time(traj: &[TrajPoint], baseline: &[TrajPoint], td: f64) -> Option<f64> {
    traj.iter().zip(baseline.iter()).find(|(a, b)| a.pos.dist(b.pos) >= td).map(|(a, _)| a.t)
}

/// Classify one run against a baseline trajectory with threshold `td`.
pub fn classify(result: &RunResult, baseline: &[TrajPoint], td: f64) -> OutcomeClass {
    let p = RunParts::from(result);
    classify_parts(p.outcome, p.collision, p.trajectory, baseline, td)
}

/// [`classify`] from a run's serialized parts — outcome label
/// (`"completed"` / `"collision"` / `"hang"` / `"crash"`), collision
/// flag, and trajectory — for callers reading runs back from a shard
/// artifact instead of holding a live [`RunResult`]. The label set is
/// exactly `Termination::label()`, so this classifies identically to
/// [`classify`] on the original run.
pub fn classify_parts(
    outcome: &str,
    collision: bool,
    traj: &[TrajPoint],
    baseline: &[TrajPoint],
    td: f64,
) -> OutcomeClass {
    if matches!(outcome, "hang" | "crash") {
        OutcomeClass::HangCrash
    } else if collision {
        OutcomeClass::Accident
    } else if max_traj_divergence(traj, baseline) >= td {
        OutcomeClass::TrajViolation
    } else {
        OutcomeClass::Benign
    }
}

/// The parts of one run that the Table-I and guided-stratum tallies
/// read — from a live [`RunResult`] or a shard-artifact run line.
#[derive(Copy, Clone, Debug)]
pub(crate) struct RunParts<'a> {
    /// `Termination::label()` of the run.
    pub outcome: &'a str,
    /// Whether the ego collided.
    pub collision: bool,
    /// Whether the fault corrupted at least one register or frame.
    pub activated: bool,
    /// Guided stratum code (guided runs only).
    pub stratum: Option<u64>,
    /// Horvitz–Thompson weight (guided runs only).
    pub weight: Option<f64>,
    /// Incident label, if the run flushed its flight recording.
    pub incident: Option<&'a str>,
    /// Recorded ego trajectory.
    pub trajectory: &'a [TrajPoint],
}

impl<'a> From<&'a RunResult> for RunParts<'a> {
    fn from(r: &'a RunResult) -> Self {
        RunParts {
            outcome: r.termination.label(),
            collision: r.has_accident(),
            activated: r.fault_activated,
            stratum: r.stratum,
            weight: r.weight,
            incident: r.incident.map(|k| k.label()),
            trajectory: &r.trajectory,
        }
    }
}

/// The one Table-I tally: each run in order adds its weight (1 unless
/// `weighted`, else its Horvitz–Thompson weight) to its outcome class
/// and, when its fault activated, to `active`. Equal run sequences give
/// bit-equal sums. `budget` is the run count; guided callers override it.
pub(crate) fn tally<'a>(
    runs: impl IntoIterator<Item = RunParts<'a>>,
    baseline: &[TrajPoint],
    td: f64,
    weighted: bool,
) -> WeightedRow {
    let mut row = WeightedRow::default();
    let mut weights = Vec::new();
    for r in runs {
        let w = if weighted { r.weight.expect("weighted tallies need weighted runs") } else { 1.0 };
        weights.push(w);
        if r.activated {
            row.active += w;
        }
        match classify_parts(r.outcome, r.collision, r.trajectory, baseline, td) {
            OutcomeClass::HangCrash => row.hang_crash += w,
            OutcomeClass::Accident => row.accidents += w,
            OutcomeClass::TrajViolation => row.traj_violations += w,
            OutcomeClass::Benign => {}
        }
    }
    (row.budget, row.runs) = (weights.len(), weights.len());
    row.ess = ess(weights.into_iter());
    row
}

/// Confusion counts of the error detector over a set of runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct DetectionEval {
    /// Safety violation, alarm raised.
    pub tp: usize,
    /// No safety violation, alarm raised.
    pub fp: usize,
    /// Safety violation, no alarm.
    pub fn_: usize,
    /// No safety violation, no alarm.
    pub tn: usize,
}

impl DetectionEval {
    /// Precision = TP / (TP + FP); 1.0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall = TP / (TP + FN); 1.0 when nothing was positive.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 = harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Evaluate the detector over fault-injected runs (§V-D).
///
/// Hang/crash runs are excluded: the platform detects those directly and
/// triggers the fail-back system, so they never reach the statistical
/// detector. Ground-truth positive = accident or trajectory violation.
pub fn evaluate_detector(results: &[RunResult], baseline: &[TrajPoint], td: f64) -> DetectionEval {
    let mut eval = DetectionEval::default();
    for r in results {
        if r.termination.is_hang_or_crash() {
            continue;
        }
        let positive = matches!(
            classify(r, baseline, td),
            OutcomeClass::Accident | OutcomeClass::TrajViolation
        );
        let alarmed = r.alarm_time.is_some();
        match (positive, alarmed) {
            (true, true) => eval.tp += 1,
            (false, true) => eval.fp += 1,
            (true, false) => eval.fn_ += 1,
            (false, false) => eval.tn += 1,
        }
    }
    eval
}

/// Lead detection time for one run: violation time (collision, or first
/// trajectory-threshold crossing) minus alarm time (Fig 8). `None` when
/// the run has no alarm or no violation, or the alarm came after.
pub fn lead_detection_time(result: &RunResult, baseline: &[TrajPoint], td: f64) -> Option<f64> {
    let alarm = result.alarm_time?;
    let violation =
        result.collision_time.or_else(|| first_violation_time(&result.trajectory, baseline, td))?;
    (violation > alarm).then_some(violation - alarm)
}

/// Probability that a fault evades detection *and* causes a safety hazard
/// (§VI-A: missed safety hazards / total fault injections).
pub fn missed_hazard_probability(results: &[RunResult], baseline: &[TrajPoint], td: f64) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    // A missed hazard is exactly a detector false negative.
    evaluate_detector(results, baseline, td).fn_ as f64 / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Termination;
    use diverseav::AgentMode;
    use diverseav_simworld::Vec2;

    fn traj(points: &[(f64, f64, f64)]) -> Vec<TrajPoint> {
        points.iter().map(|&(t, x, y)| TrajPoint { t, pos: Vec2::new(x, y) }).collect()
    }

    fn result(traj_pts: Vec<TrajPoint>, collision: Option<f64>, alarm: Option<f64>) -> RunResult {
        RunResult {
            scenario: "t",
            mode: AgentMode::RoundRobin,
            fault: None,
            seed: 0,
            termination: if collision.is_some() {
                Termination::Collision
            } else {
                Termination::Completed
            },
            end_time: traj_pts.last().map(|p| p.t).unwrap_or(0.0),
            collision_time: collision,
            alarm_time: alarm,
            fault_activated: true,
            fault_onset_time: None,
            min_cvip: 5.0,
            red_light_violations: 0,
            ticks: 0,
            deadline_misses: 0,
            incident: None,
            flight: Vec::new(),
            trajectory: traj_pts,
            training: Vec::new(),
            actuation: Vec::new(),
            gpu_dyn_instr: 0,
            cpu_dyn_instr: 0,
            gpu_ops: Vec::new(),
            cpu_ops: Vec::new(),
            stratum: None,
            weight: None,
        }
    }

    #[test]
    fn mean_trajectory_averages() {
        let a = traj(&[(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)]);
        let b = traj(&[(0.0, 0.0, 2.0), (1.0, 4.0, 2.0)]);
        let m = mean_trajectory(&[&a, &b]);
        assert_eq!(m.len(), 2);
        assert!((m[1].pos.x - 3.0).abs() < 1e-12);
        assert!((m[1].pos.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_trajectory_handles_uneven_lengths() {
        let a = traj(&[(0.0, 0.0, 0.0), (1.0, 2.0, 0.0), (2.0, 4.0, 0.0)]);
        let b = traj(&[(0.0, 0.0, 2.0)]);
        let m = mean_trajectory(&[&a, &b]);
        assert_eq!(m.len(), 3);
        assert_eq!(m[2].pos.x, 4.0, "tail averages the surviving run only");
    }

    #[test]
    fn divergence_and_violation_time() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]);
        let run = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 1.5), (2.0, 2.0, 3.0)]);
        assert!((max_traj_divergence(&run, &base) - 3.0).abs() < 1e-12);
        assert_eq!(first_violation_time(&run, &base, 1.0), Some(1.0));
        assert_eq!(first_violation_time(&run, &base, 10.0), None);
    }

    #[test]
    fn classification_priorities() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let benign = result(base.clone(), None, None);
        assert_eq!(classify(&benign, &base, 2.0), OutcomeClass::Benign);
        let crash = RunResult {
            termination: Termination::Trap(diverseav_agent::AgentError {
                fabric: diverseav_fabric::Profile::Cpu,
                trap: diverseav_fabric::Trap::Watchdog,
            }),
            ..result(base.clone(), None, None)
        };
        assert_eq!(classify(&crash, &base, 2.0), OutcomeClass::HangCrash);
        let accident = result(base.clone(), Some(0.5), None);
        assert_eq!(classify(&accident, &base, 2.0), OutcomeClass::Accident);
        let viol = result(traj(&[(0.0, 0.0, 5.0), (1.0, 1.0, 5.0)]), None, None);
        assert_eq!(classify(&viol, &base, 2.0), OutcomeClass::TrajViolation);
    }

    #[test]
    fn classify_parts_agrees_with_classify() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let cases = [
            result(base.clone(), None, None),
            result(base.clone(), Some(0.5), None),
            result(traj(&[(0.0, 0.0, 5.0), (1.0, 1.0, 5.0)]), None, None),
            RunResult {
                termination: Termination::Trap(diverseav_agent::AgentError {
                    fabric: diverseav_fabric::Profile::Gpu,
                    trap: diverseav_fabric::Trap::Watchdog,
                }),
                ..result(base.clone(), None, None)
            },
        ];
        for r in &cases {
            assert_eq!(
                classify_parts(r.termination.label(), r.has_accident(), &r.trajectory, &base, 2.0),
                classify(r, &base, 2.0),
                "parts-based classification must match, outcome {}",
                r.termination.label()
            );
        }
    }

    #[test]
    fn detector_eval_counts_and_scores() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let results = vec![
            result(traj(&[(0.0, 0.0, 9.0)]), Some(0.5), Some(0.2)), // TP
            result(base.clone(), None, Some(0.2)),                  // FP
            result(traj(&[(0.0, 0.0, 9.0)]), Some(0.5), None),      // FN
            result(base.clone(), None, None),                       // TN
        ];
        let eval = evaluate_detector(&results, &base, 2.0);
        assert_eq!((eval.tp, eval.fp, eval.fn_, eval.tn), (1, 1, 1, 1));
        assert!((eval.precision() - 0.5).abs() < 1e-12);
        assert!((eval.recall() - 0.5).abs() < 1e-12);
        assert!((eval.f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_eval_is_perfect() {
        let e = DetectionEval::default();
        assert_eq!(e.precision(), 1.0);
        assert_eq!(e.recall(), 1.0);
        assert_eq!(e.f1(), 1.0);
    }

    #[test]
    fn lead_time_requires_alarm_before_violation() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let r = result(base.clone(), Some(3.0), Some(1.2));
        assert!((lead_detection_time(&r, &base, 2.0).expect("lead") - 1.8).abs() < 1e-12);
        let late = result(base.clone(), Some(1.0), Some(2.0));
        assert_eq!(lead_detection_time(&late, &base, 2.0), None);
        let no_alarm = result(base.clone(), Some(1.0), None);
        assert_eq!(lead_detection_time(&no_alarm, &base, 2.0), None);
    }

    #[test]
    fn missed_hazard_probability_counts_undetected_hazards() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let results = vec![
            result(base.clone(), Some(0.5), None), // missed hazard
            result(base.clone(), Some(0.5), Some(0.1)),
            result(base.clone(), None, None),
            result(base.clone(), None, None),
        ];
        assert!((missed_hazard_probability(&results, &base, 2.0) - 0.25).abs() < 1e-12);
        assert_eq!(missed_hazard_probability(&[], &base, 2.0), 0.0);
    }
}
