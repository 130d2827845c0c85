//! Differential gate for the camera rasterizer: `render_camera_into` must
//! produce the same bytes as a frozen reference renderer on every scene.
//!
//! The reference below is the straightforward form of the renderer: it
//! quantizes the sky and ground row by row, then draws each vehicle box
//! over them far to near (ties by NPC index), re-hashing the noise of every
//! box pixel, and rounds with the naive `round → clamp → cast`. The library
//! renderer composites every layer's pre-noise value first and hashes and
//! quantizes each channel once against a shared per-resolution key table;
//! these tests pin that the two agree exactly over random tracks, poses,
//! camera geometry, traffic and resolutions, and on fixed scenes that hit
//! box clipping at every image edge, equal-depth ties and a crowd of more
//! than 128 NPCs.

use diverseav_simworld::{
    front_accident, ghost_cut_in, lead_slowdown, long_route, render_camera, render_camera_into,
    Image, Npc, NpcBehavior, Pose, RenderScene, Scenario, SensorConfig, Track, Vec2, LANE_WIDTH,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_amp(a: u64, b: u64) -> f64 {
    let h = mix(a ^ mix(b));
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

fn quantize(v: f64) -> u8 {
    v.round().clamp(0.0, 255.0) as u8
}

fn marking_at(lat: f64, along: f64, halfwidth: f64) -> bool {
    let right = -LANE_WIDTH / 2.0;
    let mid = LANE_WIDTH / 2.0;
    let leftb = 1.5 * LANE_WIDTH;
    if (lat - right).abs() < halfwidth || (lat - leftb).abs() < halfwidth {
        return true;
    }
    if (lat - mid).abs() < halfwidth {
        return along.rem_euclid(4.0) < 2.0;
    }
    false
}

/// The reference renderer: background strips, then per-NPC overdraw.
fn reference_render(cfg: &SensorConfig, scene: &RenderScene<'_>, cam: usize) -> Image {
    let w = cfg.width;
    let h = cfg.height;
    let mut img = Image::new(w, h);
    let fx = (w as f64 / 2.0) / (cfg.hfov_deg.to_radians() / 2.0).tan();
    let fy = fx;
    let cx = w as f64 / 2.0;
    let cy = h as f64 / 2.0;

    let cam_yaw = scene.ego.heading + cfg.cam_yaws[cam];
    let fwd = Vec2::from_heading(cam_yaw);
    let left = fwd.perp();
    let cam_pos = scene.ego.pos;
    let noise_key = scene.frame_seed ^ ((cam as u64) << 56);
    let noise_amp = cfg.pixel_noise * 2.0;
    let noise = |k: usize, py: usize| {
        let hv = mix(noise_key ^ mix((k * 4096 + py) as u64));
        ((hv >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * noise_amp
    };

    // --- ground & sky ---
    for py in 0..h {
        let yf = py as f64 + 0.5;
        let row = &mut img.data_mut()[py * w * 3..][..w * 3];
        if yf <= cy + 0.5 {
            let t = yf / cy;
            let base = [120.0 + 50.0 * t, 135.0 + 40.0 * t, 150.0 + 30.0 * t];
            for (px, o) in row.chunks_exact_mut(3).enumerate() {
                for ch in 0..3 {
                    o[ch] = quantize(base[ch] + noise(px * 4 + ch, py));
                }
            }
            continue;
        }
        let d = cfg.cam_height * fy / (yf - cy);
        let row_s = scene.ego_s + d * cfg.cam_yaws[cam].cos();
        let c = scene.track.pos_at(row_s.max(0.0));
        let tdir = scene.track.dir_at(row_s.max(0.0));
        let nrm = tdir.perp();
        let row_base = cam_pos + fwd * d;
        let mark_halfwidth = (0.09f64).max(d / fx * 0.5);
        for (px, o) in row.chunks_exact_mut(3).enumerate() {
            let l = -((px as f64 + 0.5) - cx) * d / fx;
            let wp = row_base + left * l;
            let rel = wp - c;
            let lat = nrm.dot(rel);
            let along = row_s + tdir.dot(rel);
            let on_road = (-LANE_WIDTH / 2.0 - 0.3..=1.5 * LANE_WIDTH + 0.3).contains(&lat);
            let base: [f64; 3] = if marking_at(lat, along, mark_halfwidth) {
                [205.0, 205.0, 198.0]
            } else if on_road {
                [56.0, 56.0, 59.0]
            } else {
                [76.0, 94.0, 52.0]
            };
            let cellx = (wp.x * 2.0).floor() as i64 as u64;
            let celly = (wp.y * 2.0).floor() as i64 as u64;
            let tex = hash_amp(cellx, celly) * cfg.texture_amp;
            for ch in 0..3 {
                o[ch] = quantize(base[ch] + tex + noise(px * 4 + ch, py));
            }
        }
    }

    // --- vehicles, far to near (stable sort: ties keep NPC order) ---
    let depth = |i: usize| fwd.dot(scene.npcs[i].pose(scene.track).pos - cam_pos);
    let mut order: Vec<usize> = (0..scene.npcs.len()).collect();
    order.sort_by(|&a, &b| depth(b).partial_cmp(&depth(a)).expect("finite depths"));
    for i in order {
        let npc = &scene.npcs[i];
        let rel = npc.pose(scene.track).pos - cam_pos;
        let f = fwd.dot(rel);
        let l = left.dot(rel);
        if !(1.5..=95.0).contains(&f) {
            continue;
        }
        let px_center = cx - fx * l / f;
        let py_bottom = cy + fy * cfg.cam_height / f;
        let width_px = fx * npc.width / f;
        let height_px = fy * 1.45 / f;
        let x0 = (px_center - width_px / 2.0).floor().max(0.0) as usize;
        let x1 = (px_center + width_px / 2.0).ceil().min(w as f64) as usize;
        let y1 = py_bottom.min(h as f64).max(0.0) as usize;
        let y0 = (py_bottom - height_px).floor().max(0.0) as usize;
        if x0 >= x1 || y0 >= y1 {
            continue;
        }
        let fade = 1.0 / (1.0 + 0.006 * f);
        let shade = npc.shade as f64 * 10.0;
        let base =
            [(38.0 + shade) * fade, (42.0 + shade) * fade, (205.0 + shade).min(235.0) * fade];
        let span_w = (x1 - x0).max(1) as f64;
        for py in y0..y1 {
            let v = ((py as f64 - y0 as f64) / (y1 - y0).max(1) as f64 * 4.0) as usize;
            for px in x0..x1 {
                let u = ((px as f64 - x0 as f64) / span_w * 4.0) as usize;
                let tex = hash_amp(0xCAFE ^ (i as u64) << 8, (u as u64) * 16 + v as u64) * 14.0;
                let mut rgb = [0u8; 3];
                for ch in 0..3 {
                    rgb[ch] = quantize((base[ch] + tex) + noise(px * 4 + ch, py));
                }
                img.set_pixel(px, py, rgb);
            }
        }
    }
    img
}

/// Resolutions exercised on every case, alternating on one thread so the
/// renderer's per-resolution key table is switched between renders; two
/// share a width, so a table looked up by width alone is caught.
const RESOLUTIONS: [(usize, usize); 6] = [(1, 1), (7, 5), (7, 9), (63, 47), (64, 48), (100, 75)];

/// Every scenario track: the three safety-critical scenes (straight) and
/// the three curved long routes.
fn tracks() -> &'static [Scenario] {
    static SCENARIOS: OnceLock<Vec<Scenario>> = OnceLock::new();
    SCENARIOS.get_or_init(|| {
        vec![
            lead_slowdown(),
            ghost_cut_in(),
            front_accident(),
            long_route(0, 60.0),
            long_route(1, 60.0),
            long_route(2, 60.0),
        ]
    })
}

/// Render `scene` on every camera at every resolution with both renderers
/// (the library one into a reused image) and compare the bytes.
fn assert_matches_reference(cfg: &SensorConfig, scene: &RenderScene<'_>) -> Result<(), String> {
    let mut img = Image::new(0, 0);
    for &(width, height) in &RESOLUTIONS {
        let cfg = SensorConfig { width, height, ..*cfg };
        for cam in 0..3 {
            render_camera_into(&cfg, scene, cam, &mut img);
            let want = reference_render(&cfg, scene, cam);
            if img != want {
                let first = img.data().iter().zip(want.data()).position(|(a, b)| a != b);
                return Err(format!(
                    "{width}x{height} camera {cam}: first differing byte {first:?} \
                     (ego {:?}, s {:.2}, {} NPCs, seed {:#x})",
                    scene.ego,
                    scene.ego_s,
                    scene.npcs.len(),
                    scene.frame_seed
                ));
            }
        }
    }
    Ok(())
}

/// Shade of a vehicle-blue pixel: strongly blue over red and green.
fn is_vehicle(rgb: [u8; 3]) -> bool {
    rgb[2] as i32 - (rgb[0] as i32 + rgb[1] as i32) / 2 > 60
}

proptest! {
    /// Random scenes on every track: ego anywhere along the route with a
    /// random lateral offset and heading, random camera geometry, and
    /// 0–12 NPCs ahead, beside, behind and past the 95 m draw range,
    /// some duplicated at the same spot (equal depth, index tie-break).
    #[test]
    fn random_scenes_match_reference(
        track_ix in 0usize..6,
        ego in (0.0f64..1.0, -6.0f64..10.0, -0.8f64..0.8, 0u8..4),
        camera in (0.3f64..2.5, 40.0f64..110.0, 0.0f64..3.0, 0.0f64..20.0),
        npcs in proptest::collection::vec(
            (-30.0f64..130.0, -8.0f64..12.0, 1.0f64..3.5, 0u8..5, 0u8..4),
            0..=12,
        ),
        frame_seed in any::<u64>(),
    ) {
        let scenario = &tracks()[track_ix];
        let track = &scenario.track;
        let (frac, lateral, heading_off, turn) = ego;
        // One case in four looks sideways or backwards along the route.
        let heading_off = heading_off + turn as f64 * std::f64::consts::FRAC_PI_2;
        let ego_s = frac * track.length();
        let pose = track.pose_at(ego_s, lateral);
        let (cam_height, hfov_deg, pixel_noise, texture_amp) = camera;
        let cfg = SensorConfig {
            cam_height,
            hfov_deg,
            pixel_noise,
            texture_amp,
            ..SensorConfig::default()
        };
        let mut traffic: Vec<Npc> = Vec::new();
        for &(ds, lat, width, shade, dup) in &npcs {
            let mut npc = Npc::new(ego_s + ds, lat, 5.0, NpcBehavior::Cruise).with_shade(shade);
            npc.width = width;
            traffic.push(npc);
            // Duplicate in a new shade: the same box at the same depth, so
            // only the index tie-break decides which one shows.
            if dup == 0 && traffic.len() < 12 {
                traffic.push(npc.with_shade((shade + 2) % 5));
            }
        }
        let scene = RenderScene {
            track,
            ego: Pose::new(pose.pos, pose.heading + heading_off),
            ego_s,
            npcs: &traffic,
            frame_seed,
        };
        let result = assert_matches_reference(&cfg, &scene);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

/// Hand-placed boxes clipped at all four image edges, two pairs of
/// overlapping boxes at equal depth, an NPC behind the camera and one past
/// the draw range, under a low camera (boxes reach above the top row) and
/// the default one (near boxes run past the bottom row). The fixture
/// checks that the reference really paints vehicle pixels on each edge of
/// the center camera.
#[test]
fn clipped_and_tied_boxes_match_reference() {
    let track = Track::straight(400.0);
    let npc =
        |s: f64, lat: f64, shade: u8| Npc::new(s, lat, 5.0, NpcBehavior::Cruise).with_shade(shade);
    let traffic = [
        npc(51.7, 0.0, 0),  // close: top edge (low camera), bottom edge
        npc(53.5, 3.2, 1),  // left edge
        npc(53.5, -3.2, 2), // right edge
        npc(60.0, 0.5, 3),  // tie with the next one
        npc(60.0, 0.5, 0),
        npc(75.0, -1.0, 4), // tie with the next one
        npc(75.0, -1.0, 1),
        npc(40.0, 0.0, 2),  // behind the camera
        npc(150.0, 0.0, 3), // past the 95 m draw range
    ];
    let scene = RenderScene {
        track: &track,
        ego: Pose::new(Vec2::new(50.0, 0.0), 0.0),
        ego_s: 50.0,
        npcs: &traffic,
        frame_seed: 0xD1FF,
    };
    for (cam_height, clipped_row) in [(0.4, "top"), (1.5, "bottom")] {
        let cfg = SensorConfig { cam_height, ..SensorConfig::default() };
        let center = reference_render(&cfg, &scene, 1);
        let (w, h) = (center.width(), center.height());
        let row = if clipped_row == "top" { 0 } else { h - 1 };
        assert!((0..h).any(|y| is_vehicle(center.pixel(0, y))), "left edge");
        assert!((0..h).any(|y| is_vehicle(center.pixel(w - 1, y))), "right edge");
        assert!((0..w).any(|x| is_vehicle(center.pixel(x, row))), "{clipped_row} edge");
        assert_matches_reference(&cfg, &scene).unwrap();
        assert_eq!(render_camera(&cfg, &scene, 1), center);
    }
}

/// More than 128 NPCs, pairs of them at equal depth: a crowd large enough
/// that an unstable depth sort without the index tie-break would reorder
/// equal-depth boxes.
#[test]
fn crowded_scene_matches_reference() {
    let scenario = long_route(1, 60.0);
    let ego_s = 80.0;
    // Pairs of neighbours share a spot: equal depth, different paint.
    let traffic: Vec<Npc> = (0..140)
        .map(|k| {
            let spot = k / 2;
            let s = ego_s + 3.0 + (spot / 3) as f64 * 2.0;
            let lat = (spot % 3) as f64 * 2.0 - 2.0;
            Npc::new(s, lat, 5.0, NpcBehavior::Cruise).with_shade((k % 5) as u8)
        })
        .collect();
    let pose = scenario.track.pose_at(ego_s, 0.0);
    let scene = RenderScene {
        track: &scenario.track,
        ego: pose,
        ego_s,
        npcs: &traffic,
        frame_seed: 0xC0FFEE,
    };
    assert_matches_reference(&SensorConfig::default(), &scene).unwrap();
}
