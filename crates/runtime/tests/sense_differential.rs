//! Differential test for the zero-allocation sensing path: for every
//! registered scenario, `World::sense_into` must produce frames
//! bit-identical to the allocating `World::sense`, including when the
//! destination buffer is reused across ticks, scenarios, and sensor
//! configurations (the reuse pattern `SimLoop` relies on). A capture
//! that demands only the center camera must match the full capture in
//! everything it renders and leave the RNG stream untouched.

use diverseav_runtime::registry;
use diverseav_simworld::{CameraSet, Controls, SensorConfig, SensorFrame, World};

#[test]
fn sense_into_is_bit_identical_to_sense_for_all_registered_scenarios() {
    // One buffer shared across every scenario/seed/lidar combination so
    // stale state from a previous (differently shaped) frame would show.
    let mut frame = SensorFrame::empty();
    for entry in registry::entries() {
        for seed in [1u64, 77, 0xC0FFEE] {
            for enable_lidar in [false, true] {
                let cfg = SensorConfig { enable_lidar, ..Default::default() };
                let mut fresh = World::new((entry.build)(), cfg, seed);
                let mut reused = World::new((entry.build)(), cfg, seed);
                for tick in 0..8 {
                    let expected = fresh.sense();
                    reused.sense_into(&mut frame, CameraSet::ALL);
                    assert_eq!(
                        expected, frame,
                        "frame mismatch: scenario={} seed={seed} lidar={enable_lidar} tick={tick}",
                        entry.key
                    );
                    // Advance both worlds identically so later frames see
                    // evolved NPC/ego state, not just the spawn scene.
                    let controls = Controls::clamped(0.4, 0.0, 0.02);
                    fresh.step(controls);
                    reused.step(controls);
                }
            }
        }
    }
}

#[test]
fn sense_into_recovers_from_mismatched_buffer_shape() {
    // A buffer previously filled at one camera resolution (with lidar)
    // must be fully reshaped by a world with a different configuration.
    let lidar_cfg =
        SensorConfig { enable_lidar: true, width: 96, height: 64, ..Default::default() };
    let mut donor = World::new(registry::build("ghost-cut-in").expect("builtin"), lidar_cfg, 3);
    let mut frame = SensorFrame::empty();
    donor.sense_into(&mut frame, CameraSet::ALL);
    assert!(frame.lidar.is_some());

    let cfg = SensorConfig::default();
    let mut fresh = World::new(registry::build("lead-slowdown").expect("builtin"), cfg, 9);
    let mut reused = World::new(registry::build("lead-slowdown").expect("builtin"), cfg, 9);
    reused.sense_into(&mut frame, CameraSet::ALL);
    assert_eq!(fresh.sense(), frame, "reshaped buffer must match a fresh frame exactly");
}

#[test]
fn center_only_capture_matches_the_full_capture_and_keeps_the_rng_stream() {
    // Both buffers are reused across every combination, and the demanded
    // buffer alternates between center-only and full captures, so a
    // stale side camera or a demand-dependent RNG draw would show.
    let mut full = SensorFrame::empty();
    let mut demanded = SensorFrame::empty();
    for entry in registry::entries() {
        for seed in [1u64, 77, 0xC0FFEE] {
            for enable_lidar in [false, true] {
                let cfg = SensorConfig { enable_lidar, ..Default::default() };
                let mut reference = World::new((entry.build)(), cfg, seed);
                let mut world = World::new((entry.build)(), cfg, seed);
                for tick in 0..8 {
                    let ctx = format!(
                        "scenario={} seed={seed} lidar={enable_lidar} tick={tick}",
                        entry.key
                    );
                    reference.sense_into(&mut full, CameraSet::ALL);
                    // Every third tick captures the full suite, so the
                    // frames after it prove the demand left no trace.
                    let demand = if tick % 3 == 2 { CameraSet::ALL } else { CameraSet::CENTER };
                    world.sense_into(&mut demanded, demand);
                    if demand == CameraSet::ALL {
                        assert_eq!(full, demanded, "full capture diverged: {ctx}");
                    } else {
                        assert_eq!(demanded.cameras.len(), 3, "{ctx}");
                        assert_eq!(full.cameras[1], demanded.cameras[1], "center: {ctx}");
                        for c in [0, 2] {
                            let cam = &demanded.cameras[c];
                            assert_eq!((cam.width(), cam.height()), (0, 0), "camera {c}: {ctx}");
                            assert!(cam.data().is_empty(), "camera {c}: {ctx}");
                        }
                        assert_eq!(full.gps, demanded.gps, "gps: {ctx}");
                        assert_eq!(full.imu, demanded.imu, "imu: {ctx}");
                        assert_eq!(full.speed.to_bits(), demanded.speed.to_bits(), "speed: {ctx}");
                        assert_eq!(full.lidar, demanded.lidar, "lidar: {ctx}");
                        assert_eq!((full.t, full.step), (demanded.t, demanded.step), "{ctx}");
                    }
                    let controls = Controls::clamped(0.4, 0.0, 0.02);
                    reference.step(controls);
                    world.step(controls);
                }
            }
        }
    }
}
