//! Lane-equivalence gate for the lockstep kernel engine.
//!
//! Random kernels — divergent branches, loops, cross-lane memory traffic,
//! watchdog traps, out-of-bounds accesses, and injected transient/permanent
//! faults — must produce identical registers, memory, traps, [`ExecStats`],
//! dynamic-instruction counts, and fault activations under the thread-major
//! reference path (`run_kernel_reference`) and the lockstep strip engine at
//! strip widths {1, 4, 8, 16, 256}. Wide launches (256–3072 threads, every
//! memory class, strip edges and tails, lane distances past 255) and the
//! agent's five real perception kernels under every fault kind hold to the
//! same contract. This is the property the whole engine rests on: strips
//! are an *optimization*, never a semantic change.

use diverseav_agent::layout::param;
use diverseav_agent::{AgentConfig, GpuLayout, SensorimotorAgent};
use diverseav_fabric::{
    Context, Fabric, FaultModel, Profile, Program, ProgramBuilder, Reg, Trap, ALL_OPS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Words of context memory for every generated kernel.
const MEM_WORDS: usize = 64;

/// One generated instruction: an opcode selector plus raw operand fields.
/// `imm` doubles as the branch-target selector so branches can land on any
/// instruction boundary (including backward edges, i.e. loops).
type RandInstr = (u8, u8, u8, u8, u8, u32);

/// Lower a random descriptor list into a program. A label is bound at every
/// instruction boundary (and at end-of-program) so generated branches cover
/// forward jumps, backward loops, and the implicit-halt boundary.
fn build_program(descr: &[RandInstr]) -> Program {
    let n = descr.len();
    let mut b = ProgramBuilder::new();
    let labels: Vec<_> = (0..=n).map(|_| b.new_label()).collect();
    for (i, &(kind, dst, a, b_, c, imm)) in descr.iter().enumerate() {
        b.bind(labels[i]);
        let d = Reg(dst % 8);
        let ra = Reg(a % 8);
        let rb = Reg(b_ % 8);
        let rc = Reg(c % 8);
        let target = labels[(imm as usize) % (n + 1)];
        match kind % 19 {
            0 => b.fadd(d, ra, rb),
            1 => b.fmul(d, ra, rb),
            2 => b.fdiv(d, ra, rb),
            3 => b.iadd(d, ra, rb),
            4 => b.isub(d, ra, rb),
            5 => b.ixor(d, ra, rb),
            6 => b.ishl(d, ra, rb),
            7 => b.ilt(d, ra, rb),
            8 => b.sel(d, ra, rb, rc),
            9 => b.mov(d, ra),
            10 => b.ldimm_i(d, imm),
            11 => b.tid(d),
            // Memory offsets range past MEM_WORDS so some accesses trap.
            12 => b.ld(d, ra, imm % (MEM_WORDS as u32 + 16)),
            13 => b.st(ra, rb, imm % (MEM_WORDS as u32 + 16)),
            14 => b.jz(ra, target),
            15 => b.jnz(ra, target),
            16 => b.i2f(d, ra),
            17 => b.halt(),
            _ => b.jmp(target),
        }
    }
    b.bind(labels[n]);
    b.build()
}

/// Deterministic non-trivial memory image shared by both fabrics.
fn prefill(mem: &mut [u32]) {
    for (i, w) in mem.iter_mut().enumerate() {
        *w = (i as u32).wrapping_mul(0x9E37_79B9).rotate_left(7) ^ 0x5A5A_0001;
    }
}

/// Two fresh GPU fabrics with the same fault armed, and two contexts of
/// `words` words with the same contents (`init`).
fn twins(
    words: usize,
    fault: Option<FaultModel>,
    init: impl Fn(&mut [u32]),
) -> ((Fabric, Context), (Fabric, Context)) {
    let twin = || {
        let mut f = Fabric::new(Profile::Gpu);
        if let Some(m) = fault {
            f.inject(m);
        }
        let mut c = f.new_context(words);
        init(&mut c.mem);
        (f, c)
    };
    (twin(), twin())
}

/// Assert every observable of a lockstep launch matches its reference
/// twin: result or trap, memory and registers, [`ExecStats`], the
/// dynamic-instruction counter, and the fault state.
fn assert_same(
    at: &str,
    (r_ref, f_ref, c_ref): (Result<u64, Trap>, &Fabric, &Context),
    (r_ls, f_ls, c_ls): (Result<u64, Trap>, &Fabric, &Context),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(r_ref, r_ls, "executed count / trap diverged at {}", at);
    prop_assert_eq!(c_ref, c_ls, "memory or registers diverged at {}", at);
    prop_assert_eq!(f_ref.stats(), f_ls.stats(), "ExecStats diverged at {}", at);
    prop_assert_eq!(
        f_ref.dyn_instr_count(),
        f_ls.dyn_instr_count(),
        "dynamic-instruction counter diverged at {}",
        at
    );
    prop_assert_eq!(
        f_ref.fault_state(),
        f_ls.fault_state(),
        "fault activations diverged at {}",
        at
    );
    Ok(())
}

/// Run one kernel launch through the reference path and the lockstep
/// engine at strip width `width` (`None`: [`Fabric::run_kernel`]'s
/// default) over a `words`-word memory initialized by `init`, and assert
/// every observable is bit-identical.
fn assert_launch_equivalent(
    prog: &Program,
    words: usize,
    init: impl Fn(&mut [u32]),
    n_threads: u32,
    budget: u64,
    fault: Option<FaultModel>,
    width: Option<usize>,
) -> Result<(), TestCaseError> {
    let ((mut f_ref, mut c_ref), (mut f_ls, mut c_ls)) = twins(words, fault, init);
    let r_ref = f_ref.run_kernel_reference(prog, &mut c_ref, n_threads, &[], budget);
    let r_ls = match width {
        Some(w) => f_ls.run_kernel_lockstep(prog, &mut c_ls, n_threads, &[], budget, w),
        None => f_ls.run_kernel(prog, &mut c_ls, n_threads, &[], budget),
    };
    let at = match width {
        Some(w) => format!("width {w}"),
        None => "the default strip width".to_string(),
    };
    assert_same(&at, (r_ref, &f_ref, &c_ref), (r_ls, &f_ls, &c_ls))
}

/// [`assert_launch_equivalent`] over the small prefilled memory of the
/// random-kernel generators.
fn assert_equivalent(
    prog: &Program,
    n_threads: u32,
    budget: u64,
    fault: Option<FaultModel>,
    width: usize,
) -> Result<(), TestCaseError> {
    assert_launch_equivalent(prog, MEM_WORDS, prefill, n_threads, budget, fault, Some(width))
}

/// Decode the fault selector drawn by the strategies below.
fn pick_fault(sel: u8, idx: u64, mask: u32) -> Option<FaultModel> {
    match sel % 4 {
        0 => None,
        // Early indices land inside the first batches; later ones exercise
        // the probe/re-run machinery deeper into the stream.
        1 => Some(FaultModel::Transient { instr_index: idx % 64, mask }),
        2 => Some(FaultModel::Transient { instr_index: idx, mask }),
        _ => {
            Some(FaultModel::Permanent { op: ALL_OPS[(idx % ALL_OPS.len() as u64) as usize], mask })
        }
    }
}

proptest! {
    /// Arbitrary kernels over arbitrary thread counts and watchdog budgets,
    /// with and without injected faults, are bit-identical across the
    /// reference path and strip widths 1, 4, 8, 16 and 256.
    #[test]
    fn lockstep_matches_reference_for_random_kernels(
        descr in proptest::collection::vec(
            (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u32..4096),
            1..48,
        ),
        n_threads in 1u32..24,
        budget in 1u64..220,
        fault_sel in 0u8..=255,
        fault_idx in 0u64..2048,
        fault_mask in any::<u32>(),
    ) {
        let prog = build_program(&descr);
        let fault = pick_fault(fault_sel, fault_idx, fault_mask);
        assert_equivalent(&prog, n_threads, budget, fault, 1)?;
        assert_equivalent(&prog, n_threads, budget, fault, 4)?;
        assert_equivalent(&prog, n_threads, budget, fault, 8)?;
        assert_equivalent(&prog, n_threads, budget, fault, 16)?;
        assert_equivalent(&prog, n_threads, budget, fault, 256)?;
    }

    /// Focused generator: guaranteed divergent loops (trip count = tid) with
    /// interleaved shared-memory traffic, swept across transient indices —
    /// the worst case for lane-exact fault realization.
    #[test]
    fn lockstep_transient_sweep_on_divergent_loops(
        n_threads in 2u32..17,
        idx in 0u64..600,
        mask in 1u32..=u32::MAX,
    ) {
        let mut b = ProgramBuilder::new();
        b.tid(Reg(0));
        b.ldimm_i(Reg(1), 1);
        b.ldimm_i(Reg(2), 0);
        let top = b.new_label();
        let out = b.new_label();
        b.bind(top);
        b.jz(Reg(0), out);
        b.iadd(Reg(2), Reg(2), Reg(0));
        b.ld(Reg(3), Reg(2), 0);      // data-dependent shared load
        b.iadd(Reg(2), Reg(2), Reg(3));
        b.isub(Reg(0), Reg(0), Reg(1));
        b.jmp(top);
        b.bind(out);
        b.tid(Reg(4));
        b.st(Reg(4), Reg(2), 8);      // lane-private store
        b.halt();
        let prog = b.build();
        let fault = Some(FaultModel::Transient { instr_index: idx, mask });
        assert_equivalent(&prog, n_threads, 4000, fault, 4)?;
        assert_equivalent(&prog, n_threads, 4000, fault, 8)?;
        assert_equivalent(&prog, n_threads, 4000, fault, 16)?;
        assert_equivalent(&prog, n_threads, 4000, fault, 256)?;
    }

    /// Focused generator: lanes branch on tid parity to two *different*
    /// store instructions that write the same shared word. Min-pc
    /// scheduling executes the lower-pc store site first regardless of
    /// thread order, while thread-major semantics say the highest thread
    /// must win the word — the scheduling-order trap a lockstep engine
    /// without store-conflict rollback gets wrong.
    #[test]
    fn lockstep_divergent_shared_stores_keep_thread_order(
        n_threads in 2u32..24,
        slot in 0u32..4,
        pad in 0usize..4,
    ) {
        let mut b = ProgramBuilder::new();
        b.tid(Reg(0));
        b.ldimm_i(Reg(1), 1);
        b.iand(Reg(2), Reg(0), Reg(1)); // parity
        b.ldimm_i(Reg(4), slot);
        let odd = b.new_label();
        let even = b.new_label();
        b.jnz(Reg(2), odd);
        b.jmp(even);
        b.bind(odd); // lower-pc store site (odd tids)
        b.st(Reg(4), Reg(0), 16); // mem[16 + slot] = tid
        b.halt();
        b.bind(even); // higher-pc store site (even tids)
        for _ in 0..pad {
            b.iadd(Reg(5), Reg(5), Reg(1));
        }
        b.st(Reg(4), Reg(0), 16);
        b.halt();
        let prog = b.build();
        assert_equivalent(&prog, n_threads, 1000, None, 4)?;
        assert_equivalent(&prog, n_threads, 1000, None, 8)?;
        assert_equivalent(&prog, n_threads, 1000, None, 16)?;
        assert_equivalent(&prog, n_threads, 1000, None, 256)?;

        // Thread-major ground truth: the last thread owns the word.
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(MEM_WORDS);
        prefill(&mut ctx.mem);
        f.run_kernel(&prog, &mut ctx, n_threads, &[], 1000).unwrap();
        prop_assert_eq!(ctx.mem[16 + slot as usize], n_threads - 1);
    }
}

/// Words of context memory for the wide-launch kernels: four 4096-word
/// regions and a 512-word tail past which most accesses trap.
const WIDE_WORDS: usize = 4 * 4096 + 512;

/// Thread counts at and around strip edges, up to the agent's 3072-thread
/// mask launch.
const WIDE_EDGES: [u32; 8] = [256, 257, 511, 512, 513, 767, 3071, 3072];

/// One generated wide-kernel step: kind, address-class selector, value
/// register selector, load and store region selectors, and a free
/// selector (branch distance, lane mask).
type WideInstr = (u8, u8, u8, u8, u8, u32);

/// Address registers loads draw from, by selector: mostly contiguous
/// (`r1`, `r5`), then descending, uniform, strided and scattered.
const WIDE_LOAD_ADDR: [u8; 8] = [1, 1, 5, 6, 2, 3, 4, 1];
/// Address registers stores draw from: the same classes, with the always
/// conflicting ones (scattered hash collisions, uniform) rarer so that
/// most strips run to completion.
const WIDE_STORE_ADDR: [u8; 16] = [1, 1, 1, 5, 5, 5, 6, 6, 6, 3, 3, 1, 5, 6, 4, 2];

/// Lower a wide-kernel descriptor. A fixed prologue sets up one address
/// register per memory class:
///
/// - `r1 = tid` (contiguous), `r5 = tid + 1` (contiguous, the next
///   thread's word), `r6 = 4095 - tid` (descending: a gather);
/// - `r2` is never written (uniform zero);
/// - `r3 = (tid * stride) & 4095` (strided; wraps inside a region, so
///   threads `4096 / stride` apart share words);
/// - `r4 = (tid * 0x9E3779B1) >> 20` (scattered).
///
/// Loads mostly read regions 0–1 and stores mostly write regions 2–3, as
/// real kernels read inputs and write outputs; one selector in eight
/// crosses over (a load of written words or a store into read words), and
/// a few accesses go to the tail, where most lanes trap. Most body steps
/// move a word — load through one class, store through another — so
/// values written by one lane reach words other lanes read and every
/// difference shows in memory. The rest load, store, mix the two value
/// registers, or branch forward on lane masks of `tid` so strips diverge.
fn build_wide_program(stride: u32, descr: &[WideInstr]) -> Program {
    let tid = Reg(1);
    let mut b = ProgramBuilder::new();
    b.tid(tid);
    b.ldimm_i(Reg(7), 1);
    b.iadd(Reg(5), tid, Reg(7));
    b.ldimm_i(Reg(7), 4095);
    b.isub(Reg(6), Reg(7), tid);
    b.ldimm_i(Reg(7), stride);
    b.imul(Reg(3), tid, Reg(7));
    b.ldimm_i(Reg(7), 4095);
    b.iand(Reg(3), Reg(3), Reg(7));
    b.ldimm_i(Reg(7), 0x9E37_79B1);
    b.imul(Reg(4), tid, Reg(7));
    b.ldimm_i(Reg(7), 20);
    b.ishr(Reg(4), Reg(4), Reg(7));
    b.i2f(Reg(8), tid);
    // Region offsets: `home` is 0 for loads and 2 for stores.
    let region = |sel: u8, home: u32| -> u32 {
        match sel % 8 {
            _ if sel >= 250 => 4 * 4096,
            7 => 4096 * ((2 - home) + u32::from(sel / 8) % 2),
            _ => 4096 * (home + u32::from(sel) % 2),
        }
    };
    let n = descr.len();
    let labels: Vec<_> = (0..=n).map(|_| b.new_label()).collect();
    for (i, &(kind, modes, v, r1, r2, sel)) in descr.iter().enumerate() {
        b.bind(labels[i]);
        let from = Reg(WIDE_LOAD_ADDR[usize::from(modes % 8)]);
        let to = Reg(WIDE_STORE_ADDR[usize::from(modes / 16)]);
        let (rv, ru) = (Reg(8 + v % 2), Reg(9 - v % 2));
        match kind % 8 {
            0..=2 => {
                b.ld(rv, from, region(r1, 0));
                b.st(to, rv, region(r2, 2));
            }
            3 => b.ld(rv, from, region(r1, 0)),
            4 => b.st(to, rv, region(r2, 2)),
            5 => b.fadd(rv, rv, ru),
            6 => b.ixor(rv, rv, ru),
            _ => {
                // Skip forward when tid & mask is nonzero: lanes of one
                // strip split and reconverge at the target.
                b.ldimm_i(Reg(7), sel % 64);
                b.iand(Reg(7), tid, Reg(7));
                b.jnz(Reg(7), labels[(i + 1 + (sel as usize >> 8) % 4).min(n)]);
            }
        }
    }
    b.bind(labels[n]);
    b.halt();
    b.build()
}

/// Deterministic prefill of the wide-kernel memory.
fn prefill_wide(mem: &mut [u32]) {
    for (i, w) in mem.iter_mut().enumerate() {
        *w = f32::to_bits((i % 1000) as f32 * 0.25 - 31.0);
    }
}

/// A random 64×48-style camera image in the agent's float planes: gray
/// noise, plus (for odd `seed`s) a blue vehicle-like box, so the planning
/// kernel sees both empty roads and detections.
fn random_image(ctx: &mut Context, l: &GpuLayout, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = l.w * l.h;
    let (x0, y0) = (rng.gen_range(0..l.w), rng.gen_range(l.h / 3..l.h));
    let (bw, bh) = (rng.gen_range(2..l.w / 2), rng.gen_range(2..l.h / 3));
    for i in 0..n {
        let (x, y) = (i % l.w, i / l.w);
        let in_box = seed % 2 == 1 && (x0..x0 + bw).contains(&x) && (y0..y0 + bh).contains(&y);
        let [r, g, bl]: [u8; 3] = if in_box {
            [rng.gen_range(0..60), rng.gen_range(0..80), rng.gen_range(150..=255)]
        } else {
            [rng.gen_range(0..=255), rng.gen_range(0..=255), rng.gen_range(0..=255)]
        };
        for (base, byte) in [(l.img_r, r), (l.img_g, g), (l.img_b, bl)] {
            ctx.mem[base + i] = f32::to_bits(byte as f32 / 255.0);
        }
    }
    // The per-step route hint words the planning kernel reads.
    for (slot, v) in [
        (param::LIMIT, rng.gen_range(0.0f32..15.0)),
        (param::CURV, rng.gen_range(-0.05f32..0.05)),
        (param::LAT_OFF, rng.gen_range(-1.0f32..1.0)),
        (param::HEAD_ERR, rng.gen_range(-0.2f32..0.2)),
    ] {
        ctx.mem[l.params + slot] = v.to_bits();
    }
}

proptest! {
    /// Launches of 256–3072 threads — past the width the old 8-bit lane
    /// owner could name — with contiguous, strided, uniform, scattered and
    /// cross-lane-conflicting addresses, divergence, traps, watchdog
    /// budgets and faults, at thread counts on and off strip edges. Every
    /// strip width (narrow, odd, the default, launch-wide) must be
    /// bit-identical to the reference.
    #[test]
    fn wide_launches_match_reference(
        descr in proptest::collection::vec(
            (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u32..4096),
            1..16,
        ),
        stride in 2u32..6,
        edge in 0usize..16,
        n_free in 256u32..=3072,
        tight_budget in 0u8..8,
        fault_sel in 0u8..=255,
        fault_idx in 0u64..200_000,
        fault_mask in any::<u32>(),
    ) {
        let prog = build_wide_program(stride, &descr);
        let n_threads = WIDE_EDGES.get(edge).copied().unwrap_or(n_free);
        // One case in eight runs out of budget partway through the body.
        let budget = if tight_budget == 0 { prog.len() as u64 / 2 } else { 10_000 };
        let fault = match fault_sel % 4 {
            0 => None,
            // Inside the launch's dynamic stream, to hit probe and re-fire.
            1 | 2 => Some(FaultModel::Transient {
                instr_index: fault_idx % (u64::from(n_threads) * prog.len() as u64),
                mask: fault_mask,
            }),
            _ => Some(FaultModel::Permanent {
                op: ALL_OPS[(fault_idx % ALL_OPS.len() as u64) as usize],
                mask: fault_mask,
            }),
        };
        for width in [None, Some(100), Some(255), Some(3072)] {
            assert_launch_equivalent(
                &prog, WIDE_WORDS, prefill_wide, n_threads, budget, fault, width,
            )?;
        }
    }

    /// Focused generator: every thread stores a lane-dependent word, then
    /// reads a word another thread may own and copies it out. The store
    /// goes through a contiguous, strided-and-wrapped (threads `2^k` apart
    /// share a word, `k ≥ 8` included) or XOR-permuted address; the load
    /// through a contiguous `tid + d`, XOR-permuted, descending or uniform
    /// one. Thread-major order decides which value each thread sees — a
    /// later thread's store must stay invisible to an earlier thread — so
    /// every strip that lets lanes meet must roll back, whatever the lane
    /// distance, including distances the old 8-bit lane owner aliased.
    #[test]
    fn wide_cross_lane_memory_order_matches_reference(
        n_threads in 256u32..=3072,
        store_class in 0u8..3,
        load_class in 0u8..4,
        d_sel in 0u32..1024,
        k in 6u32..=12,
        fault_sel in 0u8..=255,
        fault_idx in 0u64..40_000,
        fault_mask in any::<u32>(),
    ) {
        // Half the lane distances are multiples of 256.
        let d = if d_sel < 512 { d_sel.max(1) } else { 256 * (d_sel % 4 + 1) };
        let (tid, addr, val) = (Reg(1), Reg(2), Reg(3));
        let mut b = ProgramBuilder::new();
        b.tid(tid);
        b.ldimm_i(Reg(7), 0x9E37_79B1);
        b.imul(val, tid, Reg(7)); // lane-dependent value
        match store_class {
            0 => b.mov(addr, tid),
            1 => {
                b.ldimm_i(Reg(7), 3);
                b.imul(addr, tid, Reg(7));
                b.ldimm_i(Reg(7), (1 << k) - 1);
                b.iand(addr, addr, Reg(7));
            }
            _ => {
                b.ldimm_i(Reg(7), d);
                b.ixor(addr, tid, Reg(7));
            }
        }
        b.st(addr, val, 0);
        match load_class {
            0 => {
                b.ldimm_i(Reg(7), d);
                b.iadd(addr, tid, Reg(7));
            }
            1 => {
                b.ldimm_i(Reg(7), d);
                b.ixor(addr, tid, Reg(7));
            }
            2 => {
                b.ldimm_i(Reg(7), 4095);
                b.isub(addr, Reg(7), tid);
            }
            _ => b.ldimm_i(addr, d),
        }
        b.ld(val, addr, 0);
        b.st(tid, val, 8192);
        b.halt();
        let prog = b.build();
        let fault = pick_fault(fault_sel, fault_idx, fault_mask);
        for width in [None, Some(100), Some(1000), Some(3072)] {
            assert_launch_equivalent(
                &prog, WIDE_WORDS, prefill_wide, n_threads, 100, fault, width,
            )?;
        }
    }

    /// The agent's five perception kernels (`build_mask_kernel` …
    /// `build_decide_kernel`, at the real thread counts and budgets) on
    /// random images, with no fault, a transient fault anywhere in the
    /// step's dynamic stream, or a permanent fault on any opcode: each
    /// launch through `run_kernel` matches the reference on every
    /// observable, and so does the state the step leaves behind.
    #[test]
    fn agent_kernels_match_reference(
        image_seed in any::<u64>(),
        fault_sel in 0u8..=255,
        fault_idx in 0u64..110_000,
        fault_mask in any::<u32>(),
    ) {
        let cfg = AgentConfig::default();
        let agent = SensorimotorAgent::new(cfg, 1);
        let l = GpuLayout::new(cfg.img_w, cfg.img_h);
        let mut image = agent.gpu_context().clone();
        random_image(&mut image, &l, image_seed);
        let fault = match fault_sel % 3 {
            0 => None,
            1 => Some(FaultModel::Transient { instr_index: fault_idx, mask: fault_mask }),
            _ => Some(FaultModel::Permanent {
                op: ALL_OPS[(fault_idx % ALL_OPS.len() as u64) as usize],
                mask: fault_mask,
            }),
        };
        let ((mut f_ref, mut c_ref), (mut f_ls, mut c_ls)) =
            twins(image.mem.len(), fault, |mem| mem.copy_from_slice(&image.mem));
        for k in agent.gpu_launches() {
            let r_ref = f_ref.run_kernel_reference(k.program, &mut c_ref, k.threads, &[], k.budget);
            let r_ls = f_ls.run_kernel(k.program, &mut c_ls, k.threads, &[], k.budget);
            assert_same(k.name, (r_ref, &f_ref, &c_ref), (r_ls, &f_ls, &c_ls))?;
            if r_ref.is_err() {
                break;
            }
        }
    }
}
