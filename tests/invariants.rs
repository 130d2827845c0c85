//! Property-based cross-crate invariants: whatever fault is injected, the
//! system must degrade along the defined failure modes — actuation stays
//! bounded, runs terminate, reproducibility holds.

use diverseav::{Ads, AdsConfig, AgentMode};
use diverseav_fabric::{FaultModel, Op, Profile, ALL_OPS};
use diverseav_faultinj::{
    run_experiment, run_experiment_observed, FaultSpec, RunConfig, SensorFault, SensorFaultKind,
};
use diverseav_runtime::{LoopObserver, SimLoop, TickContext};
use diverseav_simworld::{lead_slowdown, CameraSet, Controls, Scenario, SensorConfig, World};
use proptest::prelude::*;

fn short_scenario() -> Scenario {
    let mut s = lead_slowdown();
    s.duration = 1.5;
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Under ANY single permanent fault, every actuation command the ADS
    /// emits stays within its physical range, and the run terminates in
    /// one of the defined ways (completed / collision / trap).
    #[test]
    fn actuation_is_always_bounded_under_faults(
        op_idx in 0usize..ALL_OPS.len(),
        bit in 0u32..32,
        gpu_target in any::<bool>(),
    ) {
        /// Records the first out-of-range actuation the ADS emits.
        struct Bounds(Option<Controls>);
        impl LoopObserver for Bounds {
            fn on_tick(&mut self, ctx: &TickContext<'_>) {
                let c = ctx.out.controls;
                let ok = (0.0..=1.0).contains(&c.throttle)
                    && (0.0..=1.0).contains(&c.brake)
                    && (-1.0..=1.0).contains(&c.steer);
                if !ok && self.0.is_none() {
                    self.0 = Some(c);
                }
            }
        }
        let world = World::new(short_scenario(), SensorConfig::default(), 99);
        let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 99));
        let profile = if gpu_target { Profile::Gpu } else { Profile::Cpu };
        ads.inject_fault(0, profile, FaultModel::Permanent { op: ALL_OPS[op_idx], mask: 1 << bit });
        let mut bounds = Bounds(None);
        // A trap (the platform-detected path) terminates the loop; any
        // other termination means every emitted actuation was observed.
        SimLoop::new(world, ads).run_observed(&mut [&mut bounds]);
        prop_assert!(bounds.0.is_none(), "actuation out of range: {:?}", bounds.0);
    }

    /// Transient faults at arbitrary sites never corrupt the *recorded*
    /// experiment metadata invariants: activation implies the site was in
    /// range, and the trajectory always starts at the spawn point.
    #[test]
    fn transient_runs_have_consistent_records(site in 0u64..3_000_000, bit in 0u32..32) {
        let mut rc = RunConfig::new(short_scenario(), AgentMode::RoundRobin, 7);
        rc.fault = Some(FaultSpec::Fabric {
            unit: 0,
            profile: Profile::Gpu,
            model: FaultModel::Transient { instr_index: site, mask: 1 << bit },
        });
        let r = run_experiment(&rc);
        prop_assert!(!r.trajectory.is_empty());
        prop_assert!(r.end_time <= 1.5 + 0.026, "one tick of overshoot allowed");
        if r.fault_activated {
            prop_assert!(site < r.gpu_dyn_instr.max(site + 1));
        }
        // Activation accounting: an out-of-range site never activates.
        if site > 200_000_000 {
            prop_assert!(!r.fault_activated);
        }
    }

    /// Identical configurations reproduce identical runs — fault
    /// injection is fully deterministic.
    #[test]
    fn runs_are_reproducible(seed in 0u64..50, bit in 0u32..32) {
        let mut rc = RunConfig::new(short_scenario(), AgentMode::RoundRobin, seed);
        rc.fault = Some(FaultSpec::Fabric {
            unit: 0,
            profile: Profile::Gpu,
            model: FaultModel::Permanent { op: Op::FMul, mask: 1 << bit },
        });
        let a = run_experiment(&rc);
        let b = run_experiment(&rc);
        prop_assert_eq!(a.trajectory, b.trajectory);
        prop_assert_eq!(a.alarm_time, b.alarm_time);
        prop_assert_eq!(a.fault_activated, b.fault_activated);
        prop_assert_eq!(a.gpu_dyn_instr, b.gpu_dyn_instr);
    }
}

#[test]
fn duplicate_mode_unit1_fault_leaves_vehicle_control_clean() {
    // In FD mode the vehicle follows agent 0; a unit-1 fault must only
    // affect the reference stream, never the driven trajectory.
    let mut clean_rc = RunConfig::new(short_scenario(), AgentMode::Duplicate, 5);
    let clean = run_experiment(&clean_rc);
    clean_rc.fault = Some(FaultSpec::Fabric {
        unit: 1,
        profile: Profile::Gpu,
        model: FaultModel::Permanent { op: Op::FAdd, mask: 1 << 30 },
    });
    let faulty = run_experiment(&clean_rc);
    if !faulty.termination.is_hang_or_crash() {
        assert_eq!(clean.trajectory, faulty.trajectory, "unit-1 faults must not steer the car");
    }
}

#[test]
fn widening_the_camera_demand_does_not_change_the_run() {
    // The ADS reads only the center camera, so the loop renders only
    // that one; an observer asking for every camera must see the full
    // suite without changing anything the run records — including the
    // modeled deadline tallies and flight records, which cost the
    // configured suite rather than the rendered pixels.
    struct AllCameras(usize);
    impl LoopObserver for AllCameras {
        fn on_tick(&mut self, ctx: &TickContext<'_>) {
            assert!(ctx.frame.cameras.iter().all(|c| c.width() > 0));
            self.0 += 1;
        }
        fn camera_demand(&self) -> CameraSet {
            CameraSet::ALL
        }
    }
    let faults = [
        None,
        Some(FaultSpec::Sensor(SensorFault { kind: SensorFaultKind::NoiseInflation, seed: 3 })),
        Some(FaultSpec::Sensor(SensorFault { kind: SensorFaultKind::OutlierBurst, seed: 4 })),
        Some(FaultSpec::Fabric {
            unit: 0,
            profile: Profile::Gpu,
            model: FaultModel::Permanent { op: Op::FMul, mask: 1 << 22 },
        }),
    ];
    for mode in [AgentMode::RoundRobin, AgentMode::Duplicate] {
        for fault in faults {
            let mut rc = RunConfig::new(short_scenario(), mode, 17);
            rc.fault = fault;
            let plain = run_experiment(&rc);
            let mut all = AllCameras(0);
            let widened = run_experiment_observed(&rc, &mut [&mut all]);
            assert!(all.0 > 0);
            assert_eq!(plain, widened, "{mode:?} {fault:?}");
        }
    }
}
