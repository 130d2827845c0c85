//! The Sensorimotor-style autonomous agent.
//!
//! Mirrors the structure of the paper's agent (§IV-A): a High-level Route
//! Planner (supplied by the world as a [`RouteHint`]), a vision-based local
//! planner producing four local waypoints (GPU-fabric kernels), and a
//! Waypoints Tracker + PID control unit (CPU-fabric program). The agent is
//! a black box to DiverseAV: it consumes a [`SensorFrame`] and produces
//! [`Controls`].

use crate::kernels::{
    build_control_program, build_conv_kernel, build_decide_kernel, build_lane_kernel,
    build_mask_kernel, build_rowmax_kernel,
};
use crate::layout::{cpu, out, param, GpuLayout};
use diverseav_fabric::{f32_to_bits, Context, Fabric, Profile, Program, Trap};
use diverseav_simworld::{Controls, RouteHint, SensorFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Abnormal agent termination: a trap on one of the fabrics.
///
/// The campaign manager classifies [`Trap::Watchdog`] as a *hang* and the
/// other traps as a *crash*, both detected by the platform (not by the
/// DiverseAV error detector).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AgentError {
    /// Which fabric trapped.
    pub fabric: Profile,
    /// The trap.
    pub trap: Trap,
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent {} fabric trapped: {}", self.fabric, self.trap)
    }
}

impl Error for AgentError {}

/// Tunable parameters of the agent.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AgentConfig {
    /// Camera image width — must match the sensor configuration.
    pub img_w: usize,
    /// Camera image height — must match the sensor configuration.
    pub img_h: usize,
    /// Camera horizontal FOV (deg) — must match the sensor configuration.
    pub hfov_deg: f64,
    /// Camera mount height (m) — must match the sensor configuration.
    pub cam_height: f64,
    /// Vehicle-mask blueness bias.
    pub bias: f32,
    /// Conv-activation threshold for vehicle presence.
    pub mask_thresh: f32,
    /// Car-following gain (per second).
    pub kd: f32,
    /// Minimum following distance (m).
    pub d_min: f32,
    /// Emergency-stop distance (m).
    pub d_emerg: f32,
    /// Steering gain on lane-centroid pixel error.
    pub ks: f32,
    /// Steering feed-forward gain on curvature.
    pub kc: f32,
    /// Yaw-rate damping gain.
    pub kdy: f32,
    /// Route-following gain on the localization lateral offset.
    pub kl: f32,
    /// Route-following gain on the heading error (damping).
    pub kh: f32,
    /// Gain on the constant-calibration drift pathway (steering trim).
    pub kcal: f32,
    /// Caution gain on the continuous conv-activation evidence sum — a
    /// CNN-like soft regression pathway. Default 0 (ablation knob): with
    /// the discretized planning head it injects frame-to-frame plan noise
    /// that inflates DiverseAV's learned thresholds and masks real faults.
    pub kv: f32,
    /// PID proportional gain.
    pub kp: f32,
    /// PID integral gain.
    pub ki: f32,
    /// Brake mapping gain.
    pub kb: f32,
    /// Desired-speed smoothing factor per received frame.
    pub ema_alpha: f32,
    /// Steering smoothing factor per received frame.
    pub steer_beta: f32,
    /// PID integrator clamp.
    pub integ_clamp: f32,
    /// Std-dev of the per-step compute jitter applied to the mask bias —
    /// models scheduling-dependent nondeterminism inside the perception
    /// stack (can flip marginal detections).
    pub jitter: f64,
    /// Half-width of the uniform per-channel actuation noise — models
    /// timing/rounding nondeterminism at the actuation interface (the
    /// reason the paper's FD-ADS outputs never match bit-for-bit). Kept
    /// below half the actuation quantum so fault-free outputs differ by at
    /// most one quantum.
    pub actuation_jitter: f64,
    /// Actuation command quantization step (CAN-bus style integer
    /// encoding of throttle/brake/steer).
    pub actuation_quantum: f64,
    /// Watchdog budget per GPU kernel thread (instructions).
    pub gpu_thread_budget: u64,
    /// Watchdog budget for the planning-head kernel.
    pub decide_budget: u64,
    /// Watchdog budget for the CPU control program.
    pub cpu_budget: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            img_w: 64,
            img_h: 48,
            hfov_deg: 70.0,
            cam_height: 1.5,
            bias: 0.15,
            mask_thresh: 0.05,
            kd: 0.5,
            d_min: 6.0,
            d_emerg: 5.0,
            ks: 0.012,
            kc: 4.5,
            kdy: 0.05,
            kl: 0.15,
            kh: 1.5,
            kv: 0.0,
            kcal: 1.0,
            kp: 0.30,
            ki: 0.12,
            kb: 1.5,
            ema_alpha: 0.065,
            steer_beta: 0.17,
            integ_clamp: 4.0,
            jitter: 0.0,
            actuation_jitter: 1.5e-3,
            actuation_quantum: 5.0e-3,
            gpu_thread_budget: 400,
            decide_budget: 8_000,
            cpu_budget: 20_000,
        }
    }
}

/// Perception telemetry for debugging and analysis (read back from the GPU
/// output block after a step).
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct PerceptionDebug {
    /// Estimated distance to the closest in-path vehicle (m; huge if none).
    pub distance: f32,
    /// Lane-centroid pixel error.
    pub lat_err_px: f32,
    /// Planned speed (m/s).
    pub v_des: f32,
    /// Feed-forward steering.
    pub steer_ff: f32,
}

/// One GPU kernel launch of the agent's perception pipeline.
#[derive(Copy, Clone, Debug)]
pub struct KernelLaunch<'a> {
    /// Kernel name (`mask`, `conv`, `rowmax`, `lane` or `decide`).
    pub name: &'static str,
    /// The kernel program.
    pub program: &'a Program,
    /// Thread count of the launch.
    pub threads: u32,
    /// Watchdog budget per thread.
    pub budget: u64,
}

/// The compiled fabric programs of an agent (shared, immutable).
#[derive(Clone, Debug)]
struct AgentPrograms {
    mask: Program,
    conv: Program,
    rowmax: Program,
    lane: Program,
    decide: Program,
    control: Program,
}

impl AgentPrograms {
    /// The GPU kernel launches of one step, in execution order.
    fn launches(&self, l: &GpuLayout, cfg: &AgentConfig) -> [KernelLaunch<'_>; 5] {
        let kernel = |name, program, threads: usize, budget| KernelLaunch {
            name,
            program,
            threads: threads as u32,
            budget,
        };
        let b = cfg.gpu_thread_budget;
        [
            kernel("mask", &self.mask, l.w * l.h, b),
            kernel("conv", &self.conv, l.w2 * l.h2, b),
            kernel("rowmax", &self.rowmax, l.h2, b),
            kernel("lane", &self.lane, l.w, b),
            kernel("decide", &self.decide, 1, cfg.decide_budget),
        ]
    }
}

/// A Sensorimotor-style end-to-end agent executing on the compute fabric.
///
/// Each instance owns its private state: fabric memory contexts (image
/// planes, perception intermediates, PID integrator, speed filter) and a
/// jitter RNG. The *processor* (the [`Fabric`]) is passed in at each step,
/// so two agents can time-multiplex one fabric (DiverseAV) or run on
/// dedicated fabrics (the fully-duplicated baseline).
#[derive(Clone, Debug)]
pub struct SensorimotorAgent {
    cfg: AgentConfig,
    layout: GpuLayout,
    programs: AgentPrograms,
    gpu_ctx: Context,
    cpu_ctx: Context,
    jitter_rng: StdRng,
    last_controls: Controls,
    steps: u64,
}

impl SensorimotorAgent {
    /// Create an agent; `seed` controls its private compute jitter.
    pub fn new(cfg: AgentConfig, seed: u64) -> Self {
        let layout = GpuLayout::new(cfg.img_w, cfg.img_h);
        let programs = AgentPrograms {
            mask: build_mask_kernel(&layout),
            conv: build_conv_kernel(&layout),
            rowmax: build_rowmax_kernel(&layout),
            lane: build_lane_kernel(&layout),
            decide: build_decide_kernel(&layout),
            control: build_control_program(cfg.kp, cfg.ki, cfg.kb, cfg.integ_clamp),
        };
        let mut gpu_ctx = Context::new(layout.total);
        let mut cpu_ctx = Context::new(cpu::TOTAL);
        Self::init_lanew(&cfg, &layout, &mut gpu_ctx);
        Self::init_dist_lut(&cfg, &layout, &mut gpu_ctx);
        // Detection history starts at "no vehicle" so the median filter
        // does not hallucinate an obstacle on the first frames.
        gpu_ctx.write_f32(layout.hist, 1.0e6);
        gpu_ctx.write_f32(layout.hist + 1, 1.0e6);
        Self::init_params(&cfg, &layout, &mut gpu_ctx, &mut cpu_ctx);
        SensorimotorAgent {
            cfg,
            layout,
            programs,
            gpu_ctx,
            cpu_ctx,
            jitter_rng: StdRng::seed_from_u64(seed ^ 0xA6E7),
            last_controls: Controls::default(),
            steps: 0,
        }
    }

    /// Camera intrinsics implied by the configuration.
    fn intrinsics(cfg: &AgentConfig) -> (f64, f64, f64) {
        let fx = (cfg.img_w as f64 / 2.0) / (cfg.hfov_deg.to_radians() / 2.0).tan();
        let cx = cfg.img_w as f64 / 2.0;
        let cy = cfg.img_h as f64 / 2.0;
        (fx, cx, cy)
    }

    /// Precompute the in-lane weight mask: 1 for ground pixels whose
    /// flat-ground back-projection lies within the ego lane, else 0.
    fn init_lanew(cfg: &AgentConfig, l: &GpuLayout, ctx: &mut Context) {
        let (fx, cx, cy) = Self::intrinsics(cfg);
        let fy = fx;
        for y in 0..l.h {
            for x in 0..l.w {
                let yf = y as f64 + 0.5;
                let mut w = 0.0f32;
                if yf > cy + 0.2 {
                    let d = cfg.cam_height * fy / (yf - cy);
                    let lat = -((x as f64 + 0.5) - cx) * d / fx;
                    if lat.abs() < 2.2 && d < 70.0 {
                        w = 1.0;
                    }
                }
                ctx.write_f32(l.lanew + y * l.w + x, w);
            }
        }
    }

    /// Precompute the conv-row → ground-distance lookup table.
    fn init_dist_lut(cfg: &AgentConfig, l: &GpuLayout, ctx: &mut Context) {
        let (fx, _, cy) = Self::intrinsics(cfg);
        let fy = fx;
        for y2 in 0..l.h2 {
            let row = 2.0 * y2 as f64 + 1.5;
            let d = if row > cy + 0.3 {
                (cfg.cam_height * fy / (row - cy)).clamp(2.0, 200.0)
            } else {
                200.0
            };
            ctx.write_f32(l.dist + y2, d as f32);
        }
    }

    fn init_params(cfg: &AgentConfig, l: &GpuLayout, gpu: &mut Context, cpu_ctx: &mut Context) {
        gpu.write_f32(l.params + param::BIAS, cfg.bias);
        gpu.write_f32(l.params + param::THRESH, cfg.mask_thresh);
        gpu.write_f32(l.params + param::KD, cfg.kd);
        gpu.write_f32(l.params + param::D_MIN, cfg.d_min);
        gpu.write_f32(l.params + param::D_EMERG, cfg.d_emerg);
        gpu.write_f32(l.params + param::KS, cfg.ks);
        gpu.write_f32(l.params + param::KC, cfg.kc);
        gpu.write_f32(l.params + param::KL, cfg.kl);
        gpu.write_f32(l.params + param::KH, cfg.kh);
        gpu.write_f32(l.params + param::KV, cfg.kv);
        gpu.write_f32(l.params + param::KCAL, cfg.kcal);
        // Calibration reference: the exact f32 checksum the decide kernel
        // computes over the distance LUT (identical op order).
        let mut c0 = 0.0f32;
        for y2 in 0..l.h2 {
            c0 += gpu.read_f32(l.dist + y2) * 0.001f32;
        }
        gpu.write_f32(l.params + param::CAL_REF, c0);
        cpu_ctx.write_f32(cpu::PARAMS, cfg.kp);
        cpu_ctx.write_f32(cpu::PARAMS + 1, cfg.ki);
        cpu_ctx.write_f32(cpu::PARAMS + 2, cfg.kb);
        cpu_ctx.write_f32(cpu::PARAMS + 3, cfg.ema_alpha);
        cpu_ctx.write_f32(cpu::PARAMS + 4, cfg.kdy);
        cpu_ctx.write_f32(cpu::PARAMS + 5, cfg.integ_clamp);
        cpu_ctx.write_f32(cpu::PARAMS + 6, cfg.steer_beta);
    }

    /// The configuration this agent runs with.
    pub fn config(&self) -> &AgentConfig {
        &self.cfg
    }

    /// Controls produced by the most recent successful step.
    pub fn last_controls(&self) -> Controls {
        self.last_controls
    }

    /// Number of frames this agent has processed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Memory footprint `(vram_bytes, ram_bytes)` of the agent's private
    /// state (Table II accounting: GPU context vs CPU context).
    pub fn memory_bytes(&self) -> (usize, usize) {
        (self.gpu_ctx.bytes(), self.cpu_ctx.bytes())
    }

    /// The five GPU kernel launches one [`step`](Self::step) runs on its
    /// GPU context, in order — for replaying the perception pipeline
    /// against [`gpu_context`](Self::gpu_context) outside a step.
    pub fn gpu_launches(&self) -> [KernelLaunch<'_>; 5] {
        self.programs.launches(&self.layout, &self.cfg)
    }

    /// The agent's GPU context: image planes, perception intermediates,
    /// constant tables and parameters as the last step left them.
    pub fn gpu_context(&self) -> &Context {
        &self.gpu_ctx
    }

    /// Perception telemetry from the last step.
    pub fn perception_debug(&self) -> PerceptionDebug {
        let l = &self.layout;
        PerceptionDebug {
            distance: self.gpu_ctx.read_f32(l.out + out::DIST),
            lat_err_px: self.gpu_ctx.read_f32(l.out + out::LAT_ERR),
            v_des: self.gpu_ctx.read_f32(l.out + out::V_DES),
            steer_ff: self.gpu_ctx.read_f32(l.out + out::STEER_FF),
        }
    }

    /// Process one sensor frame into actuation commands.
    ///
    /// `gpu` and `cpu` are the processing elements to execute on; passing
    /// the same fabrics to two agents models DiverseAV's shared-processor
    /// deployment. `dt` is the agent's control period — 1/40 s when the
    /// agent receives every frame, 1/20 s under round-robin distribution;
    /// the controller's filter coefficients adapt so the closed-loop
    /// response is rate-independent (the engineering-margin property §III-D
    /// relies on).
    ///
    /// # Errors
    ///
    /// Returns [`AgentError`] if either fabric traps (crash) or exhausts
    /// its watchdog budget (hang) — typically the manifestation of an
    /// injected fault.
    pub fn step(
        &mut self,
        frame: &SensorFrame,
        hint: RouteHint,
        dt: f64,
        gpu: &mut Fabric,
        cpu_fab: &mut Fabric,
    ) -> Result<Controls, AgentError> {
        let l = self.layout;
        // --- host: upload the center camera image (normalized floats) ---
        let img = &frame.cameras[1];
        debug_assert_eq!(img.width(), l.w);
        debug_assert_eq!(img.height(), l.h);
        // One pass over the interleaved bytes into the three adjacent
        // channel planes.
        let n = l.w * l.h;
        debug_assert!(l.img_g == l.img_r + n && l.img_b == l.img_g + n);
        let (red, green_blue) = self.gpu_ctx.mem[l.img_r..l.img_r + 3 * n].split_at_mut(n);
        let (green, blue) = green_blue.split_at_mut(n);
        for (((px, r), g), b) in img.data().chunks_exact(3).zip(red).zip(green).zip(blue) {
            *r = f32_to_bits(px[0] as f32 / 255.0);
            *g = f32_to_bits(px[1] as f32 / 255.0);
            *b = f32_to_bits(px[2] as f32 / 255.0);
        }
        // Per-step compute jitter on the mask bias (nondeterminism model).
        let jitter: f64 = {
            let u1: f64 = self.jitter_rng.gen_range(1e-12..1.0);
            let u2: f64 = self.jitter_rng.gen();
            self.cfg.jitter * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        self.gpu_ctx.write_f32(l.params + param::BIAS, self.cfg.bias + jitter as f32);
        self.gpu_ctx.write_f32(l.params + param::LIMIT, hint.speed_limit);
        self.gpu_ctx.write_f32(l.params + param::CURV, hint.curvature);
        self.gpu_ctx.write_f32(l.params + param::LAT_OFF, hint.lateral_offset);
        self.gpu_ctx.write_f32(l.params + param::HEAD_ERR, hint.heading_err);

        // --- GPU perception pipeline ---
        for k in self.programs.launches(&l, &self.cfg) {
            gpu.run_kernel(k.program, &mut self.gpu_ctx, k.threads, &[], k.budget)
                .map_err(|trap| AgentError { fabric: Profile::Gpu, trap })?;
        }

        // --- host DMA: waypoints GPU → CPU (stack buffer, no allocation) ---
        let mut wp = [0.0f32; 8];
        self.gpu_ctx.read_slice_f32_into(l.out + out::WP, &mut wp);
        self.cpu_ctx.write_slice_f32(cpu::WP, &wp);
        self.cpu_ctx.write_f32(cpu::SPEED, frame.speed);
        self.cpu_ctx.write_f32(cpu::DT, dt as f32);
        self.cpu_ctx.write_f32(cpu::YAW_RATE, frame.imu.yaw_rate);
        // Rate-adapted smoothing: the configured coefficients are per
        // 40 Hz frame; discretize for this agent's actual period.
        let k = dt * 40.0;
        let alpha_eff = 1.0 - (1.0 - self.cfg.ema_alpha as f64).powf(k);
        let beta_eff = 1.0 - (1.0 - self.cfg.steer_beta as f64).powf(k);
        self.cpu_ctx.write_f32(cpu::PARAMS + 3, alpha_eff as f32);
        self.cpu_ctx.write_f32(cpu::PARAMS + 6, beta_eff as f32);

        if self.steps == 0 {
            // Warm-start the speed filter so the first control period does
            // not slam the brakes from a zero-initialized plan.
            self.cpu_ctx.write_f32(cpu::VDES_EMA, frame.speed);
        }

        // --- CPU control program ---
        cpu_fab
            .run_scalar(&self.programs.control, &mut self.cpu_ctx, self.cfg.cpu_budget)
            .map_err(|trap| AgentError { fabric: Profile::Cpu, trap })?;

        let aj = self.cfg.actuation_jitter;
        let q = self.cfg.actuation_quantum;
        let mut emit = |raw: f32| {
            let noisy = raw as f64 + self.jitter_rng.gen_range(-aj..=aj);
            if q > 0.0 {
                (noisy / q).round() * q
            } else {
                noisy
            }
        };
        let controls = Controls::clamped(
            emit(self.cpu_ctx.read_f32(cpu::OUT_THROTTLE)),
            emit(self.cpu_ctx.read_f32(cpu::OUT_BRAKE)),
            emit(self.cpu_ctx.read_f32(cpu::OUT_STEER)),
        );
        self.last_controls = controls;
        self.steps += 1;
        Ok(controls)
    }
}
