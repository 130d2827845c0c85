//! The fabric interpreter: scalar (CPU-profile) and data-parallel
//! (GPU-profile) execution with trap semantics and fault injection.

use crate::fault::{FaultModel, FaultState};
use crate::isa::{bits_to_f32, f32_to_bits, Instr, Op, Reg, ALL_OPS, NUM_REGS};
use crate::program::Program;
use crate::stats::ExecStats;
use std::cell::RefCell;
use std::error::Error;
use std::fmt;

/// Which processing element a fabric models.
///
/// The profiles share an ISA; the distinction selects the fault-injection
/// *target* (the paper's "CPU vs GPU" injection-site axis) and labels the
/// resource accounting of Table II.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Profile {
    /// Scalar control/glue processor (PinFI target analogue).
    Cpu,
    /// Data-parallel numeric processor (NVBitFI target analogue).
    Gpu,
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Profile::Cpu => write!(f, "CPU"),
            Profile::Gpu => write!(f, "GPU"),
        }
    }
}

/// Abnormal termination of a fabric execution.
///
/// Traps are the fabric-level manifestation of the paper's *crash*
/// (`OutOfBounds`, `InvalidTarget`) and *hang* (`Watchdog`) outcome classes:
/// corrupted address registers fault on access, and corrupted loop counters
/// exhaust the watchdog budget.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Trap {
    /// A load or store addressed memory outside the context.
    OutOfBounds {
        /// The offending word address.
        addr: u32,
    },
    /// A branch targeted an address outside the program.
    InvalidTarget {
        /// The offending target.
        target: u32,
    },
    /// The instruction budget was exhausted (hang detector).
    Watchdog,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfBounds { addr } => write!(f, "out-of-bounds access at word {addr}"),
            Trap::InvalidTarget { target } => write!(f, "invalid branch target {target}"),
            Trap::Watchdog => write!(f, "watchdog budget exhausted"),
        }
    }
}

impl Error for Trap {}

/// An execution context: word-addressed memory plus a persistent scalar
/// register file.
///
/// Each agent owns its own contexts (its *private state*, in the paper's
/// terms) while the [`Fabric`] — the shared processor — owns the fault state
/// and instruction counters.
#[derive(Clone, Debug, PartialEq)]
pub struct Context {
    /// Word-addressed memory (raw 32-bit words).
    pub mem: Vec<u32>,
    /// Scalar register file, persisted across `run_scalar` calls.
    pub regs: [u32; NUM_REGS],
}

impl Context {
    /// Create a context with `words` words of zeroed memory.
    pub fn new(words: usize) -> Self {
        Context { mem: vec![0; words], regs: [0; NUM_REGS] }
    }

    /// Read a register as `f32`.
    #[inline]
    pub fn reg_f(&self, r: Reg) -> f32 {
        bits_to_f32(self.regs[r.idx()])
    }

    /// Read a register as raw `u32`.
    #[inline]
    pub fn reg_i(&self, r: Reg) -> u32 {
        self.regs[r.idx()]
    }

    /// Write a register as `f32`.
    #[inline]
    pub fn set_reg_f(&mut self, r: Reg, v: f32) {
        self.regs[r.idx()] = f32_to_bits(v);
    }

    /// Write a register as raw `u32`.
    #[inline]
    pub fn set_reg_i(&mut self, r: Reg, v: u32) {
        self.regs[r.idx()] = v;
    }

    /// Read memory word `addr` as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range (host-side accessor; fabric-side
    /// accesses trap instead).
    #[inline]
    pub fn read_f32(&self, addr: usize) -> f32 {
        bits_to_f32(self.mem[addr])
    }

    /// Write memory word `addr` as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write_f32(&mut self, addr: usize, v: f32) {
        self.mem[addr] = f32_to_bits(v);
    }

    /// Copy a float slice into memory starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds.
    pub fn write_slice_f32(&mut self, addr: usize, data: &[f32]) {
        for (i, &v) in data.iter().enumerate() {
            self.mem[addr + i] = f32_to_bits(v);
        }
    }

    /// Read `len` floats starting at `addr`.
    ///
    /// Allocates a fresh vector per call; hot readback paths should use
    /// [`read_slice_f32_into`](Self::read_slice_f32_into) instead to keep
    /// the steady state allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds.
    pub fn read_slice_f32(&self, addr: usize, len: usize) -> Vec<f32> {
        self.mem[addr..addr + len].iter().map(|&w| bits_to_f32(w)).collect()
    }

    /// Read `out.len()` floats starting at `addr` into a caller-provided
    /// buffer — the allocation-free counterpart of
    /// [`read_slice_f32`](Self::read_slice_f32) for hot kernel-readback
    /// sites.
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds.
    pub fn read_slice_f32_into(&self, addr: usize, out: &mut [f32]) {
        let src = &self.mem[addr..addr + out.len()];
        for (o, &w) in out.iter_mut().zip(src) {
            *o = bits_to_f32(w);
        }
    }

    /// Memory footprint in bytes (Table II accounting).
    pub fn bytes(&self) -> usize {
        self.mem.len() * 4 + NUM_REGS * 4
    }
}

/// A processing element: interpreter state shared by everything that runs
/// on this "chip" — the dynamic-instruction counter, execution statistics,
/// and at most one injected fault.
///
/// Sharing one `Fabric` between DiverseAV's two agents is what makes a
/// *permanent* fault affect both agents (they time-multiplex the same
/// processor), while a *transient* fault lands in whichever agent happens to
/// execute the targeted dynamic instruction — exactly the paper's §VI-A
/// independence argument.
#[derive(Clone, Debug)]
pub struct Fabric {
    profile: Profile,
    stats: ExecStats,
    fault: Option<FaultState>,
    dyn_counter: u64,
}

/// Widest strip of threads the lockstep engine runs side by side.
///
/// One fetch/decode, one budget compare and — for uniform or contiguous
/// addresses — one bounds and conflict check per memory access are shared
/// by up to this many threads. The strip's register file holds one
/// `STRIP`-word column per register the program names (a few KiB for the
/// agent's kernels, 64 KiB at most), so it stays cache-resident and its
/// size is bounded by the strip, never by the launch.
const STRIP: usize = 256;

/// Store-owner map entries pack the owning lane into the low `LANE_BITS`
/// bits and the strip epoch above them.
const LANE_BITS: u32 = 16;
const LANE_MASK: u64 = (1 << LANE_BITS) - 1;

/// Widest strip the store-owner map can represent.
const MAX_STRIP: usize = 1 << LANE_BITS;

/// Column index of a register the current program never names.
const NO_COL: u8 = u8::MAX;

/// Per-strip memory bookkeeping: an epoch-tagged store-owner map over
/// context memory, conservative load intervals, the strip's store interval
/// and an undo log for rollback. All buffers retain capacity across strips
/// so steady-state kernel launches stay allocation-free.
///
/// Loads are deliberately *not* tracked per word. They only record two
/// address intervals for the strip — `[load_lo, load_hi]` for lane-varying
/// loads and `[uload_lo, uload_hi]` for uniform broadcast loads — and a
/// store landing inside either interval aborts to the exact scalar path
/// instead of consulting a per-word load map. That is strictly more
/// conservative than precise tracking, and aborting is always
/// semantics-preserving (rollback + scalar replay). In exchange the
/// dominant operation of real kernels, the load, costs no map traffic at
/// all. Two intervals instead of one because real layouts put uniform
/// constants (parameter blocks, LUTs) at the far end of memory, past the
/// output planes: one interval would span the outputs and force every
/// store to abort. Kernels that genuinely read and write the same region
/// in one program (the agent's 1-thread planning kernel with its history
/// buffer) simply run scalar.
#[derive(Clone, Debug)]
struct StripMemory {
    /// Current strip epoch; a map entry is valid only if its epoch matches.
    epoch: u32,
    /// Store-owner map: per word, `epoch << LANE_BITS | lane` packed into
    /// one entry so an ownership probe is a single load.
    store_map: Vec<u64>,
    /// Lowest / highest word covered by lane-varying loads this strip
    /// (`lo > hi` when empty).
    load_lo: usize,
    load_hi: usize,
    /// Lowest / highest word covered by uniform broadcast loads.
    uload_lo: usize,
    uload_hi: usize,
    /// Lowest / highest word stored this strip. Owner-map entries of the
    /// current epoch only exist inside it, so loads and stores outside it
    /// skip the per-lane owner probe.
    store_lo: usize,
    store_hi: usize,
    /// `(first word, length)` of every store run this strip, in execution
    /// order; the old words are appended to `undo_words` in the same order.
    undo_runs: Vec<(u32, u32)>,
    undo_words: Vec<u32>,
}

impl Default for StripMemory {
    fn default() -> Self {
        StripMemory {
            epoch: 0,
            store_map: Vec::new(),
            load_lo: usize::MAX,
            load_hi: 0,
            uload_lo: usize::MAX,
            uload_hi: 0,
            store_lo: usize::MAX,
            store_hi: 0,
            undo_runs: Vec::new(),
            undo_words: Vec::new(),
        }
    }
}

thread_local! {
    /// One lockstep scratch per thread, shared by every fabric the thread
    /// drives. Campaigns create fresh fabrics for every run; keeping the
    /// scratch here means those fabrics allocate nothing and the buffers
    /// stay warm from run to run.
    static SCRATCH: RefCell<LockstepScratch> = RefCell::new(LockstepScratch::default());
}

/// Whether all lanes address one word (`uniform`) or lane `l` addresses
/// `a[0] + l` (`contiguous`). A single lane is both.
#[inline]
fn classify(a: &[u32]) -> (bool, bool) {
    let a0 = a[0];
    let mut uniform = true;
    let mut contiguous = true;
    for (l, &x) in a.iter().enumerate() {
        uniform &= x == a0;
        contiguous &= x == a0.wrapping_add(l as u32);
    }
    (uniform, contiguous)
}

impl StripMemory {
    /// Open a new strip epoch over a context of `words` memory words.
    fn begin(&mut self, words: usize) {
        if self.store_map.len() < words {
            self.store_map.resize(words, 0);
        }
        self.undo_runs.clear();
        self.undo_words.clear();
        self.load_lo = usize::MAX;
        self.load_hi = 0;
        self.uload_lo = usize::MAX;
        self.uload_hi = 0;
        self.store_lo = usize::MAX;
        self.store_hi = 0;
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap: stale entries could alias the new epoch, so
                // clear the map once every 2^32 strips.
                self.store_map.fill(0);
                1
            }
        };
    }

    /// Whether `[lo, hi]` intersects this strip's store interval.
    #[inline]
    fn overlaps_stores(&self, lo: usize, hi: usize) -> bool {
        lo <= self.store_hi && self.store_lo <= hi
    }

    /// Whether `[lo, hi]` intersects either load interval of this strip.
    #[inline]
    fn overlaps_loads(&self, lo: usize, hi: usize) -> bool {
        (lo <= self.load_hi && self.load_lo <= hi) || (lo <= self.uload_hi && self.uload_lo <= hi)
    }

    /// Whether another lane than `lane` stored to word `idx` this strip.
    #[inline]
    fn foreign_owner(&self, idx: usize, lane: usize) -> bool {
        let e = self.store_map[idx];
        e >> LANE_BITS == self.epoch as u64 && e & LANE_MASK != lane as u64
    }

    #[inline]
    fn note_load_range(&mut self, lo: usize, hi: usize) {
        self.load_lo = self.load_lo.min(lo);
        self.load_hi = self.load_hi.max(hi);
    }

    #[inline]
    fn note_store_range(&mut self, lo: usize, hi: usize) {
        self.store_lo = self.store_lo.min(lo);
        self.store_hi = self.store_hi.max(hi);
    }

    /// Converged `Ld` of every lane (`a` = address registers, `imm` the
    /// offset) into `val`. Returns `false` to abort the strip: an
    /// out-of-bounds lane (the scalar replay raises the exact trap) or a
    /// read of a word another lane stored this strip.
    fn load(&mut self, mem: &[u32], a: &[u32], imm: u32, val: &mut [u32]) -> bool {
        let w = a.len();
        let (uniform, contiguous) = classify(a);
        let base = a[0].wrapping_add(imm) as usize;
        if uniform {
            // Shared weights, parameter blocks: one bounds check and one
            // broadcast. Any same-strip store to the word aborts — with
            // ≥ 2 lanes reading it that is a guaranteed cross-lane
            // conflict, with one lane merely conservative.
            let Some(&word) = mem.get(base) else { return false };
            if self.store_map[base] >> LANE_BITS == self.epoch as u64 {
                return false;
            }
            self.uload_lo = self.uload_lo.min(base);
            self.uload_hi = self.uload_hi.max(base);
            val.fill(word);
        } else if contiguous {
            // Lane l reads base + l: one bounds check, one interval test
            // and a slice copy. A range that wraps past u32::MAX ends
            // beyond memory and aborts.
            let hi = base + w - 1;
            if hi >= mem.len() {
                return false;
            }
            self.note_load_range(base, hi);
            if self.overlaps_stores(base, hi) && (0..w).any(|l| self.foreign_owner(base + l, l)) {
                return false;
            }
            val.copy_from_slice(&mem[base..=hi]);
        } else {
            // Gather: a hoisted min/max bounds check, then per-lane reads.
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            for &x in a {
                let ad = x.wrapping_add(imm);
                lo = lo.min(ad);
                hi = hi.max(ad);
            }
            let (lo, hi) = (lo as usize, hi as usize);
            if hi >= mem.len() {
                return false;
            }
            self.note_load_range(lo, hi);
            if self.overlaps_stores(lo, hi)
                && a.iter()
                    .enumerate()
                    .any(|(l, &x)| self.foreign_owner(x.wrapping_add(imm) as usize, l))
            {
                return false;
            }
            for (v, &x) in val.iter_mut().zip(a) {
                *v = mem[x.wrapping_add(imm) as usize];
            }
        }
        true
    }

    /// One lane's `Ld` of word `addr` (masked path); `None` aborts.
    #[inline]
    fn load_lane(&mut self, mem: &[u32], addr: u32, lane: usize) -> Option<u32> {
        let idx = addr as usize;
        let &word = mem.get(idx)?;
        if self.foreign_owner(idx, lane) {
            return None;
        }
        self.note_load_range(idx, idx);
        Some(word)
    }

    /// Converged `St` of every lane (`a` = address registers, `b` = values).
    /// Returns `false` to abort the strip: out of bounds, a word some lane
    /// loaded this strip (conservative), or a word another lane stored.
    fn store(&mut self, mem: &mut [u32], a: &[u32], b: &[u32], imm: u32) -> bool {
        let w = a.len();
        let (uniform, contiguous) = classify(a);
        if contiguous {
            // Lane l writes base + l: one bounds check, one interval test,
            // owner tags, and the old slice saved as one undo run.
            let base = a[0].wrapping_add(imm) as usize;
            let hi = base + w - 1;
            if hi >= mem.len() || self.overlaps_loads(base, hi) {
                return false;
            }
            if self.overlaps_stores(base, hi) && (0..w).any(|l| self.foreign_owner(base + l, l)) {
                return false;
            }
            let tag = (self.epoch as u64) << LANE_BITS;
            for (l, e) in self.store_map[base..=hi].iter_mut().enumerate() {
                *e = tag | l as u64;
            }
            self.note_store_range(base, hi);
            self.undo_runs.push((base as u32, w as u32));
            self.undo_words.extend_from_slice(&mem[base..=hi]);
            mem[base..=hi].copy_from_slice(b);
            true
        } else if uniform {
            // Two or more lanes writing one word always conflict.
            false
        } else {
            a.iter()
                .zip(b)
                .enumerate()
                .all(|(l, (&x, &v))| self.store_lane(mem, x.wrapping_add(imm), l, v))
        }
    }

    /// One lane's `St` of `value` to word `addr`; `false` aborts.
    #[inline]
    fn store_lane(&mut self, mem: &mut [u32], addr: u32, lane: usize, value: u32) -> bool {
        let idx = addr as usize;
        if idx >= mem.len() || self.overlaps_loads(idx, idx) || self.foreign_owner(idx, lane) {
            return false;
        }
        self.store_map[idx] = (self.epoch as u64) << LANE_BITS | lane as u64;
        self.note_store_range(idx, idx);
        self.undo_runs.push((addr, 1));
        self.undo_words.push(mem[idx]);
        mem[idx] = value;
        true
    }

    /// Undo every store of the current strip, newest run first.
    fn rollback(&mut self, mem: &mut [u32]) {
        while let Some((addr, len)) = self.undo_runs.pop() {
            let (addr, len) = (addr as usize, len as usize);
            let from = self.undo_words.len() - len;
            mem[addr..addr + len].copy_from_slice(&self.undo_words[from..]);
            self.undo_words.truncate(from);
        }
    }
}

/// Scratch of the lockstep engine: the strip's memory bookkeeping, a
/// compacted column-major register file, per-lane control state, and the
/// strip's deferred instruction accounting. Every buffer is sized to the
/// strip (the owner map to the context) and retained across launches.
#[derive(Debug)]
struct LockstepScratch {
    mem: StripMemory,
    /// Register → column of `regs`, [`NO_COL`] for registers the current
    /// program never names.
    col: [u8; NUM_REGS],
    /// Number of columns the current program needs.
    ncols: usize,
    /// Register columns: lane `l` of column `c` is `regs[c * w + l]` for a
    /// strip of `w` lanes.
    regs: Vec<u32>,
    /// The current step's value vector, one word per lane.
    val: Vec<u32>,
    /// Per-lane pc, liveness and executed-instruction counts (masked path;
    /// `executed` also reports the converged count on a clean exit).
    pc: Vec<u32>,
    live: Vec<bool>,
    active: Vec<bool>,
    executed: Vec<u64>,
    /// Lane-executions per opcode in the current strip; folded into
    /// [`ExecStats`] and the dynamic-instruction counter only on commit.
    op_counts: [u64; ALL_OPS.len()],
}

impl Default for LockstepScratch {
    fn default() -> Self {
        LockstepScratch {
            mem: StripMemory::default(),
            col: [NO_COL; NUM_REGS],
            ncols: 0,
            regs: Vec::new(),
            val: Vec::new(),
            pc: Vec::new(),
            live: Vec::new(),
            active: Vec::new(),
            executed: Vec::new(),
            op_counts: [0; ALL_OPS.len()],
        }
    }
}

impl LockstepScratch {
    /// Give every register `instrs` names a column, in first-use order.
    fn map_registers(&mut self, instrs: &[Instr]) {
        self.col = [NO_COL; NUM_REGS];
        self.ncols = 0;
        for ins in instrs {
            for r in [ins.dst, ins.a, ins.b, ins.c] {
                if self.col[r.idx()] == NO_COL {
                    self.col[r.idx()] = self.ncols as u8;
                    self.ncols += 1;
                }
            }
        }
    }

    /// Reset for a strip of `w` lanes over `words` memory words: zeroed
    /// registers with `args` preloaded, every lane live at pc 0.
    fn begin_strip(&mut self, words: usize, w: usize, args: &[(Reg, u32)]) {
        self.mem.begin(words);
        self.op_counts = [0; ALL_OPS.len()];
        self.regs.clear();
        self.regs.resize(self.ncols * w, 0);
        for &(r, v) in args {
            let c = self.col[r.idx()];
            if c != NO_COL {
                self.regs[c as usize * w..][..w].fill(v);
            }
        }
        // The masked path sets `pc`, `executed` and `active` before
        // reading them; only liveness starts fixed.
        self.val.resize(w, 0);
        self.pc.resize(w, 0);
        self.executed.resize(w, 0);
        self.active.resize(w, false);
        self.live.clear();
        self.live.resize(w, true);
    }

    /// Execute one strip of `w` threads (`t0..t0+w`) in lockstep.
    ///
    /// One instruction is fetched and decoded per step and applied across
    /// the strip's lanes. Until a conditional branch splits them, all lanes
    /// share one pc (the converged path); after a split, each step executes
    /// the smallest pc among live lanes under an active mask, so lanes that
    /// branched apart rejoin at the earliest common point. Cross-lane
    /// memory conflicts, traps, and watchdog exhaustion abort the strip —
    /// the caller rolls back and replays on the scalar path, which keeps
    /// the committed fast path bit-identical to thread-major execution.
    #[allow(clippy::too_many_arguments)]
    fn run_strip(
        &mut self,
        fault: &mut Option<FaultState>,
        prog: &Program,
        mem: &mut [u32],
        t0: u32,
        w: usize,
        args: &[(Reg, u32)],
        budget: u64,
        mode: LaneFault,
    ) -> StripExit {
        self.begin_strip(mem.len(), w, args);
        let instrs = prog.instrs();
        let plen = instrs.len();
        let mut dyn_add = 0u64;

        // --- Converged path ----------------------------------------------
        //
        // Lanes march through one shared pc: one fetch, one budget compare
        // and one accounting add per step, and unmasked value loops. This
        // is the steady state of the agent's straight-line and uniform-loop
        // kernels; only genuinely divergent strips pay for the masked
        // min-pc machinery below.
        let mut cpc = 0usize;
        let mut cexec = 0u64;
        loop {
            let Some(ins) = instrs.get(cpc) else {
                // Falling off the end is an implicit halt with no budget
                // check, exactly as in the scalar interpreter.
                self.executed.fill(cexec);
                return StripExit::Clean { dyn_add };
            };
            if cexec >= budget {
                // The scalar path raises Watchdog here.
                return StripExit::Abort;
            }
            cexec += 1;
            self.op_counts[ins.op.index()] += w as u64;
            dyn_add += w as u64;
            match ins.op {
                Op::Halt => {
                    self.executed.fill(cexec);
                    return StripExit::Clean { dyn_add };
                }
                Op::Jmp => {
                    if ins.imm as usize > plen {
                        // Scalar path raises InvalidTarget.
                        return StripExit::Abort;
                    }
                    cpc = ins.imm as usize;
                    continue;
                }
                Op::Jz | Op::Jnz => {
                    let want_zero = ins.op == Op::Jz;
                    let a = column(&self.regs, &self.col, ins.a, w);
                    let first = (a[0] == 0) == want_zero;
                    if a.iter().all(|&x| ((x == 0) == want_zero) == first) {
                        if !first {
                            cpc += 1;
                        } else if ins.imm as usize > plen {
                            return StripExit::Abort;
                        } else {
                            cpc = ins.imm as usize;
                        }
                        continue;
                    }
                    // Lanes split here: materialize per-lane pcs and fall
                    // through to the masked loop for the rest of the strip.
                    if ins.imm as usize > plen {
                        return StripExit::Abort;
                    }
                    let a = column(&self.regs, &self.col, ins.a, w);
                    for (p, &x) in self.pc.iter_mut().zip(a) {
                        *p = if (x == 0) == want_zero { ins.imm } else { cpc as u32 + 1 };
                    }
                    self.executed.fill(cexec);
                    break;
                }
                Op::St => {
                    let (a, b) = (
                        column(&self.regs, &self.col, ins.a, w),
                        column(&self.regs, &self.col, ins.b, w),
                    );
                    if !self.mem.store(mem, a, b, ins.imm) {
                        return StripExit::Abort;
                    }
                    cpc += 1;
                    continue;
                }
                Op::Ld => {
                    let a = column(&self.regs, &self.col, ins.a, w);
                    if !self.mem.load(mem, a, ins.imm, &mut self.val) {
                        return StripExit::Abort;
                    }
                }
                _ => alu(ins, &self.regs, &self.col, t0, &mut self.val),
            }
            mode.apply(fault, ins.op, &mut self.val, |_| true, |_| cexec);
            let d = self.col[ins.dst.idx()] as usize * w;
            self.regs[d..d + w].copy_from_slice(&self.val);
            cpc += 1;
        }

        // --- Masked path -------------------------------------------------
        loop {
            // Reconvergence point: the minimum pc among live lanes.
            let pc_cur =
                self.pc.iter().zip(&self.live).filter(|&(_, &on)| on).map(|(&p, _)| p).min();
            let Some(pc_cur) = pc_cur else { break };
            for ((a, &p), &on) in self.active.iter_mut().zip(&self.pc).zip(&self.live) {
                *a = on && p == pc_cur;
            }
            let Some(ins) = instrs.get(pc_cur as usize) else {
                // Falling off the end is an implicit halt with no budget
                // check, exactly as in the scalar interpreter.
                for (on, &a) in self.live.iter_mut().zip(&self.active) {
                    *on &= !a;
                }
                continue;
            };
            let mut n_active = 0u64;
            for (e, &a) in self.executed.iter_mut().zip(&self.active) {
                if a && *e >= budget {
                    // The scalar path raises Watchdog here.
                    return StripExit::Abort;
                }
                *e += a as u64;
                n_active += a as u64;
            }
            self.op_counts[ins.op.index()] += n_active;
            dyn_add += n_active;
            let next = pc_cur + 1;

            match ins.op {
                Op::Halt => {
                    for (on, &a) in self.live.iter_mut().zip(&self.active) {
                        *on &= !a;
                    }
                    continue;
                }
                Op::Jmp | Op::Jz | Op::Jnz => {
                    let a = column(&self.regs, &self.col, ins.a, w);
                    for l in (0..w).filter(|&l| self.active[l]) {
                        let taken = match ins.op {
                            Op::Jmp => true,
                            Op::Jz => a[l] == 0,
                            _ => a[l] != 0,
                        };
                        if !taken {
                            self.pc[l] = next;
                        } else if ins.imm as usize > plen {
                            // Scalar path raises InvalidTarget.
                            return StripExit::Abort;
                        } else {
                            self.pc[l] = ins.imm;
                        }
                    }
                    continue;
                }
                Op::St => {
                    let a = column(&self.regs, &self.col, ins.a, w);
                    let b = column(&self.regs, &self.col, ins.b, w);
                    for l in (0..w).filter(|&l| self.active[l]) {
                        if !self.mem.store_lane(mem, a[l].wrapping_add(ins.imm), l, b[l]) {
                            return StripExit::Abort;
                        }
                        self.pc[l] = next;
                    }
                    continue;
                }
                Op::Ld => {
                    let a = column(&self.regs, &self.col, ins.a, w);
                    for l in (0..w).filter(|&l| self.active[l]) {
                        match self.mem.load_lane(mem, a[l].wrapping_add(ins.imm), l) {
                            Some(word) => self.val[l] = word,
                            None => return StripExit::Abort,
                        }
                    }
                }
                _ => alu(ins, &self.regs, &self.col, t0, &mut self.val),
            }
            let (active, executed) = (&self.active, &self.executed);
            mode.apply(fault, ins.op, &mut self.val, |l| active[l], |l| executed[l]);
            let d = self.col[ins.dst.idx()] as usize * w;
            for l in (0..w).filter(|&l| self.active[l]) {
                self.regs[d + l] = self.val[l];
                self.pc[l] = next;
            }
        }
        StripExit::Clean { dyn_add }
    }
}

/// Lanes `0..w` of register `r` in a column-major register file.
#[inline(always)]
fn column<'a>(regs: &'a [u32], col: &[u8; NUM_REGS], r: Reg, w: usize) -> &'a [u32] {
    &regs[col[r.idx()] as usize * w..][..w]
}

/// The strip engine's one value ALU: computes `ins`'s result for every lane
/// (`val.len()` lanes of the column-major `regs`) into `val`, branch-free
/// so each loop autovectorizes. The converged and masked paths both call
/// it for every register-to-register opcode; masked callers discard
/// inactive lanes. Memory and control-flow opcodes are theirs to handle.
#[inline(always)]
fn alu(ins: &Instr, regs: &[u32], col: &[u8; NUM_REGS], t0: u32, val: &mut [u32]) {
    let w = val.len();
    let column = |r: Reg| column(regs, col, r, w);
    let (a, b) = (column(ins.a), column(ins.b));
    macro_rules! map2 {
        ($f:expr) => {
            for ((v, &x), &y) in val.iter_mut().zip(a).zip(b) {
                *v = $f(x, y);
            }
        };
    }
    macro_rules! fmap2 {
        ($f:expr) => {
            map2!(|x, y| f32_to_bits($f(bits_to_f32(x), bits_to_f32(y))))
        };
    }
    macro_rules! map1 {
        ($f:expr) => {
            for (v, &x) in val.iter_mut().zip(a) {
                *v = $f(x);
            }
        };
    }
    macro_rules! fmap1 {
        ($f:expr) => {
            map1!(|x| f32_to_bits($f(bits_to_f32(x))))
        };
    }
    match ins.op {
        Op::FAdd => fmap2!(|x: f32, y: f32| x + y),
        Op::FSub => fmap2!(|x: f32, y: f32| x - y),
        Op::FMul => fmap2!(|x: f32, y: f32| x * y),
        Op::FDiv => fmap2!(|x: f32, y: f32| x / y),
        Op::FMin => fmap2!(|x: f32, y: f32| x.min(y)),
        Op::FMax => fmap2!(|x: f32, y: f32| x.max(y)),
        Op::FAbs => fmap1!(|x: f32| x.abs()),
        Op::FNeg => fmap1!(|x: f32| -x),
        Op::FSqrt => fmap1!(|x: f32| x.sqrt()),
        Op::FFma => {
            let c = column(ins.c);
            for (((v, &x), &y), &z) in val.iter_mut().zip(a).zip(b).zip(c) {
                *v = f32_to_bits(bits_to_f32(x).mul_add(bits_to_f32(y), bits_to_f32(z)));
            }
        }
        Op::IAdd => map2!(|x: u32, y: u32| x.wrapping_add(y)),
        Op::ISub => map2!(|x: u32, y: u32| x.wrapping_sub(y)),
        Op::IMul => map2!(|x: u32, y: u32| x.wrapping_mul(y)),
        Op::IAnd => map2!(|x: u32, y: u32| x & y),
        Op::IOr => map2!(|x: u32, y: u32| x | y),
        Op::IXor => map2!(|x: u32, y: u32| x ^ y),
        Op::IShl => map2!(|x: u32, y: u32| x << (y & 31)),
        Op::IShr => map2!(|x: u32, y: u32| x >> (y & 31)),
        Op::FLt => map2!(|x, y| (bits_to_f32(x) < bits_to_f32(y)) as u32),
        Op::FLe => map2!(|x, y| (bits_to_f32(x) <= bits_to_f32(y)) as u32),
        Op::ILt => map2!(|x: u32, y: u32| (x < y) as u32),
        Op::IEq => map2!(|x: u32, y: u32| (x == y) as u32),
        Op::Sel => {
            let c = column(ins.c);
            for (((v, &x), &y), &z) in val.iter_mut().zip(a).zip(b).zip(c) {
                *v = if x != 0 { y } else { z };
            }
        }
        Op::Mov => val.copy_from_slice(a),
        Op::LdImm => val.fill(ins.imm),
        Op::F2I => map1!(|x| bits_to_f32(x) as u32),
        Op::I2F => map1!(|x| f32_to_bits(x as f32)),
        Op::Tid => {
            for (l, v) in val.iter_mut().enumerate() {
                *v = t0 + l as u32;
            }
        }
        Op::Ld | Op::St | Op::Jmp | Op::Jz | Op::Jnz | Op::Halt => {
            unreachable!("{:?} is not a value op", ins.op)
        }
    }
}

/// Fault realization mode for one lockstep strip.
#[derive(Copy, Clone, Debug)]
enum LaneFault {
    /// No polling this strip: either no fault is armed, a transient fault
    /// targets a dynamic index outside this strip, or this is the probe
    /// pass of a transient fault whose index may land here.
    Inert,
    /// Permanent fault: every active lane executing the target opcode is
    /// corrupted, exactly as every scalar dynamic instance would be.
    Permanent {
        /// Targeted opcode.
        op: Op,
    },
    /// Lane-exact transient pass: only `lane` polls the fault, at its
    /// `local_index`-th executed instruction, reporting the fault's scalar
    /// dynamic index `fire_index` — so the XOR lands on exactly the write
    /// the scalar interpreter would have corrupted.
    Transient { lane: usize, local_index: u64, fire_index: u64 },
}

impl LaneFault {
    /// Corrupt the value vector of a register-writing step: `on(l)` says
    /// whether lane `l` executed it and `nth(l)` is that lane's 1-based
    /// count of executed instructions.
    #[inline]
    fn apply(
        self,
        fault: &mut Option<FaultState>,
        op: Op,
        val: &mut [u32],
        on: impl Fn(usize) -> bool,
        nth: impl Fn(usize) -> u64,
    ) {
        let Some(f) = fault.as_mut() else { return };
        match self {
            LaneFault::Inert => {}
            LaneFault::Permanent { op: target } => {
                if op == target {
                    for (l, v) in val.iter_mut().enumerate() {
                        if on(l) {
                            // Permanent polling ignores the dynamic index.
                            if let Some(m) = f.poll(0, op) {
                                *v ^= m;
                            }
                        }
                    }
                }
            }
            LaneFault::Transient { lane, local_index, fire_index } => {
                if lane < val.len() && on(lane) && nth(lane) - 1 == local_index {
                    if let Some(m) = f.poll(fire_index, op) {
                        val[lane] ^= m;
                    }
                }
            }
        }
    }
}

/// Outcome of one lockstep strip.
#[derive(Copy, Clone)]
enum StripExit {
    /// Every lane ran to completion without traps or cross-lane conflicts.
    /// Memory effects are applied, per-lane instruction counts are in the
    /// scratch's `executed`, and the op accounting is parked in the scratch
    /// until the caller commits it.
    Clean {
        /// Total instructions executed, i.e. the dynamic-counter advance.
        dyn_add: u64,
    },
    /// A trap or a cross-lane memory conflict: the caller rolls back and
    /// re-runs the remaining threads on the scalar reference path, which
    /// reproduces the exact partial state and trap the paper's
    /// thread-major model requires.
    Abort,
}

impl Fabric {
    /// Create a fabric with the given profile.
    pub fn new(profile: Profile) -> Self {
        Fabric { profile, stats: ExecStats::new(), fault: None, dyn_counter: 0 }
    }

    /// The fabric's profile (CPU or GPU).
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// Execution statistics accumulated since the last reset.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Total dynamic instructions executed since the last
    /// [`reset_for_run`](Self::reset_for_run) — the transient fault-site
    /// space for plan generation.
    pub fn dyn_instr_count(&self) -> u64 {
        self.dyn_counter
    }

    /// Allocate an execution context with `words` words of memory.
    pub fn new_context(&self, words: usize) -> Context {
        Context::new(words)
    }

    /// Arm a fault for this fabric. Replaces any previously armed fault.
    pub fn inject(&mut self, model: FaultModel) {
        self.fault = Some(FaultState::new(model));
    }

    /// Remove any armed fault, returning its final state.
    pub fn clear_fault(&mut self) -> Option<FaultState> {
        self.fault.take()
    }

    /// The armed fault's state, if any.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.fault.as_ref()
    }

    /// Reset the dynamic-instruction counter, statistics, and fault state
    /// ahead of a new experimental run.
    pub fn reset_for_run(&mut self) {
        self.stats.reset();
        self.dyn_counter = 0;
        self.fault = None;
    }

    /// Run `prog` in scalar mode using the context's persistent register
    /// file.
    ///
    /// Returns the number of instructions executed.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on out-of-bounds access, invalid branch target,
    /// or when more than `budget` instructions execute (hang).
    pub fn run_scalar(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        budget: u64,
    ) -> Result<u64, Trap> {
        self.stats.record_launch();
        let mut regs = ctx.regs;
        let r = self.exec(prog, &mut regs, &mut ctx.mem, 0, budget);
        ctx.regs = regs;
        r
    }

    /// Launch `prog` as a data-parallel kernel over `n_threads` threads.
    ///
    /// Each thread starts from a zeroed register file with `args` preloaded
    /// and its index available via [`Op::Tid`]; threads share the context's
    /// memory and observe each other in thread order (the fabric models a
    /// time-multiplexed processor, not a parallel machine).
    ///
    /// Execution runs in lockstep strips of up to 256 threads — one
    /// fetch/decode per strip step instead of one per thread — and is
    /// bit-identical to [`run_kernel_reference`](Self::run_kernel_reference):
    /// strips whose lanes touch overlapping memory, trap, or exhaust the
    /// watchdog are rolled back and replayed on the scalar path.
    ///
    /// Returns the total number of instructions executed.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if any thread traps; `budget_per_thread` bounds
    /// each thread's instruction count.
    pub fn run_kernel(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        n_threads: u32,
        args: &[(Reg, u32)],
        budget_per_thread: u64,
    ) -> Result<u64, Trap> {
        self.run_kernel_lockstep(prog, ctx, n_threads, args, budget_per_thread, STRIP)
    }

    /// Thread-major scalar kernel launch — the semantic reference for
    /// [`run_kernel`](Self::run_kernel).
    ///
    /// Runs every thread to completion through the scalar interpreter in
    /// thread order. The lockstep engine must match this path bit for bit
    /// (registers, memory, traps, statistics, dynamic-instruction counter,
    /// and fault activations); `lockstep_differential.rs` and the strip
    /// rollback path both rely on it staying exactly as the paper's
    /// time-multiplexed model specifies.
    pub fn run_kernel_reference(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        n_threads: u32,
        args: &[(Reg, u32)],
        budget_per_thread: u64,
    ) -> Result<u64, Trap> {
        self.stats.record_launch();
        self.finish_scalar(prog, ctx, 0, n_threads, args, budget_per_thread, 0)
    }

    /// Lockstep kernel launch with an explicit strip width, for the
    /// differential tests that sweep it; [`run_kernel`](Self::run_kernel)
    /// is the entry point everything else uses. A width of 1 degenerates
    /// to the scalar path.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] exactly when the reference path would.
    ///
    /// # Panics
    ///
    /// Panics if `strip` is 0 or wider than the store-owner map (65 536).
    #[doc(hidden)]
    pub fn run_kernel_lockstep(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        n_threads: u32,
        args: &[(Reg, u32)],
        budget_per_thread: u64,
        strip: usize,
    ) -> Result<u64, Trap> {
        assert!((1..=MAX_STRIP).contains(&strip), "unsupported strip width {strip}");
        self.stats.record_launch();
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            self.launch_strips(s, prog, ctx, n_threads, args, budget_per_thread, strip)
        })
    }

    /// The strip loop of [`run_kernel_lockstep`](Self::run_kernel_lockstep)
    /// on this thread's scratch.
    #[allow(clippy::too_many_arguments)]
    fn launch_strips(
        &mut self,
        s: &mut LockstepScratch,
        prog: &Program,
        ctx: &mut Context,
        n_threads: u32,
        args: &[(Reg, u32)],
        budget_per_thread: u64,
        strip: usize,
    ) -> Result<u64, Trap> {
        if n_threads >= 2 && strip >= 2 {
            s.map_registers(prog.instrs());
        }
        let mut total = 0u64;
        let mut t0 = 0u32;
        while t0 < n_threads {
            let width = (n_threads - t0).min(strip as u32) as usize;
            if width < 2 {
                // Single-thread strips (tails, 1-thread kernels) take the
                // scalar path directly: it is the reference semantics, and
                // faults poll live against the true dynamic index.
                total =
                    self.finish_scalar(prog, ctx, t0, t0 + 1, args, budget_per_thread, total)?;
                t0 += 1;
                continue;
            }

            let strip_base = self.dyn_counter;
            let snap_fault = self.fault;
            let armed = self.fault.map(|f| f.model());
            // A transient fault whose dynamic index might land in this strip
            // cannot be applied while lanes interleave: the scalar index of
            // each write is only known once per-lane instruction counts are.
            // Run such strips as an unfaulted probe first, then re-run with
            // the injection pinned to the exact lane and local instruction.
            let (mode, probing) = match armed {
                None => (LaneFault::Inert, false),
                Some(FaultModel::Permanent { op, .. }) => (LaneFault::Permanent { op }, false),
                Some(FaultModel::Transient { instr_index, .. }) => {
                    (LaneFault::Inert, instr_index >= strip_base)
                }
            };

            let mut exit = s.run_strip(
                &mut self.fault,
                prog,
                &mut ctx.mem,
                t0,
                width,
                args,
                budget_per_thread,
                mode,
            );
            if let (StripExit::Clean { dyn_add }, Some(FaultModel::Transient { instr_index, .. })) =
                (exit, armed)
            {
                if probing && instr_index < strip_base + dyn_add {
                    // The probe found the target index inside this strip.
                    // Locate the faulted lane from the probe's per-lane
                    // counts: in thread order, lanes before it are
                    // unaffected by the fault, and the faulted lane
                    // executes identically up to the injection point, so
                    // the prefix sums are valid.
                    s.mem.rollback(&mut ctx.mem);
                    let mut local = instr_index - strip_base;
                    let mut lane = 0usize;
                    while lane < width && local >= s.executed[lane] {
                        local -= s.executed[lane];
                        lane += 1;
                    }
                    let mode =
                        LaneFault::Transient { lane, local_index: local, fire_index: instr_index };
                    exit = s.run_strip(
                        &mut self.fault,
                        prog,
                        &mut ctx.mem,
                        t0,
                        width,
                        args,
                        budget_per_thread,
                        mode,
                    );
                }
            }
            match exit {
                StripExit::Clean { dyn_add } => {
                    self.commit_strip(&s.op_counts, dyn_add);
                    total += dyn_add;
                }
                StripExit::Abort => {
                    s.mem.rollback(&mut ctx.mem);
                    self.fault = snap_fault;
                    return self.finish_scalar(
                        prog,
                        ctx,
                        t0,
                        n_threads,
                        args,
                        budget_per_thread,
                        total,
                    );
                }
            }
            t0 += width as u32;
        }
        Ok(total)
    }

    /// Fold the current strip's per-op counts into the statistics and
    /// advance the dynamic-instruction counter. Called exactly once per
    /// committed strip; aborted strips leave both untouched.
    fn commit_strip(&mut self, op_counts: &[u64; ALL_OPS.len()], dyn_add: u64) {
        for &op in ALL_OPS {
            let n = op_counts[op.index()];
            if n > 0 {
                self.stats.record_n(op, n);
            }
        }
        self.dyn_counter += dyn_add;
    }

    /// Run threads `t0..n_threads` through the scalar interpreter in thread
    /// order, accumulating onto `total` — the tail of every rollback and
    /// the whole of [`run_kernel_reference`](Self::run_kernel_reference).
    #[allow(clippy::too_many_arguments)]
    fn finish_scalar(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        t0: u32,
        n_threads: u32,
        args: &[(Reg, u32)],
        budget_per_thread: u64,
        mut total: u64,
    ) -> Result<u64, Trap> {
        for t in t0..n_threads {
            let mut regs = [0u32; NUM_REGS];
            for &(r, v) in args {
                regs[r.idx()] = v;
            }
            total += self.exec(prog, &mut regs, &mut ctx.mem, t, budget_per_thread)?;
        }
        Ok(total)
    }

    #[inline(always)]
    fn exec(
        &mut self,
        prog: &Program,
        regs: &mut [u32; NUM_REGS],
        mem: &mut [u32],
        tid: u32,
        budget: u64,
    ) -> Result<u64, Trap> {
        let instrs = prog.instrs();
        let mut pc = 0usize;
        let mut executed = 0u64;
        loop {
            let Some(ins) = instrs.get(pc) else {
                // Falling off the end is an implicit halt.
                return Ok(executed);
            };
            if executed >= budget {
                return Err(Trap::Watchdog);
            }
            executed += 1;
            self.stats.record(ins.op);
            let dyn_index = self.dyn_counter;
            self.dyn_counter += 1;
            pc += 1;

            let fa = bits_to_f32(regs[ins.a.idx()]);
            let fb = bits_to_f32(regs[ins.b.idx()]);
            let ia = regs[ins.a.idx()];
            let ib = regs[ins.b.idx()];

            let wrote: Option<u32> = match ins.op {
                Op::FAdd => Some(f32_to_bits(fa + fb)),
                Op::FSub => Some(f32_to_bits(fa - fb)),
                Op::FMul => Some(f32_to_bits(fa * fb)),
                Op::FDiv => Some(f32_to_bits(fa / fb)),
                Op::FMin => Some(f32_to_bits(fa.min(fb))),
                Op::FMax => Some(f32_to_bits(fa.max(fb))),
                Op::FAbs => Some(f32_to_bits(fa.abs())),
                Op::FNeg => Some(f32_to_bits(-fa)),
                Op::FSqrt => Some(f32_to_bits(fa.sqrt())),
                Op::FFma => {
                    let fc = bits_to_f32(regs[ins.c.idx()]);
                    Some(f32_to_bits(fa.mul_add(fb, fc)))
                }
                Op::IAdd => Some(ia.wrapping_add(ib)),
                Op::ISub => Some(ia.wrapping_sub(ib)),
                Op::IMul => Some(ia.wrapping_mul(ib)),
                Op::IAnd => Some(ia & ib),
                Op::IOr => Some(ia | ib),
                Op::IXor => Some(ia ^ ib),
                Op::IShl => Some(ia << (ib & 31)),
                Op::IShr => Some(ia >> (ib & 31)),
                Op::FLt => Some((fa < fb) as u32),
                Op::FLe => Some((fa <= fb) as u32),
                Op::ILt => Some((ia < ib) as u32),
                Op::IEq => Some((ia == ib) as u32),
                Op::Sel => {
                    let ic = regs[ins.c.idx()];
                    Some(if ia != 0 { ib } else { ic })
                }
                Op::Mov => Some(ia),
                Op::LdImm => Some(ins.imm),
                Op::Ld => {
                    let addr = ia.wrapping_add(ins.imm);
                    let Some(&w) = mem.get(addr as usize) else {
                        return Err(Trap::OutOfBounds { addr });
                    };
                    Some(w)
                }
                Op::St => {
                    let addr = ia.wrapping_add(ins.imm);
                    let Some(slot) = mem.get_mut(addr as usize) else {
                        return Err(Trap::OutOfBounds { addr });
                    };
                    *slot = ib;
                    None
                }
                Op::Jmp | Op::Jz | Op::Jnz => {
                    let taken = match ins.op {
                        Op::Jmp => true,
                        Op::Jz => ia == 0,
                        _ => ia != 0,
                    };
                    if taken {
                        let target = ins.imm as usize;
                        if target > instrs.len() {
                            return Err(Trap::InvalidTarget { target: ins.imm });
                        }
                        pc = target;
                    }
                    None
                }
                Op::F2I => Some(fa as u32),
                Op::I2F => Some(f32_to_bits(ia as f32)),
                Op::Tid => Some(tid),
                Op::Halt => return Ok(executed),
            };

            if let Some(mut val) = wrote {
                if let Some(fault) = &mut self.fault {
                    if let Some(mask) = fault.poll(dyn_index, ins.op) {
                        val ^= mask;
                    }
                }
                regs[ins.dst.idx()] = val;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn r(i: u8) -> Reg {
        Reg(i)
    }

    fn run(b: ProgramBuilder) -> (Fabric, Context) {
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(64);
        f.run_scalar(&prog, &mut ctx, 10_000).expect("program should not trap");
        (f, ctx)
    }

    #[test]
    fn float_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), 3.0);
        b.ldimm_f(r(1), 4.0);
        b.fmul(r(2), r(0), r(1));
        b.fadd(r(3), r(2), r(1));
        b.fsub(r(4), r(3), r(0));
        b.fdiv(r(5), r(4), r(1));
        b.fsqrt(r(6), r(0));
        b.fneg(r(7), r(6));
        b.fabs(r(8), r(7));
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_f(r(2)), 12.0);
        assert_eq!(ctx.reg_f(r(3)), 16.0);
        assert_eq!(ctx.reg_f(r(4)), 13.0);
        assert_eq!(ctx.reg_f(r(5)), 3.25);
        assert!((ctx.reg_f(r(8)) - 3.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn fma_min_max() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), 2.0);
        b.ldimm_f(r(1), 5.0);
        b.ldimm_f(r(2), 1.0);
        b.ffma(r(3), r(0), r(1), r(2));
        b.fmin(r(4), r(0), r(1));
        b.fmax(r(5), r(0), r(1));
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_f(r(3)), 11.0);
        assert_eq!(ctx.reg_f(r(4)), 2.0);
        assert_eq!(ctx.reg_f(r(5)), 5.0);
    }

    #[test]
    fn integer_ops_and_compares() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 6);
        b.ldimm_i(r(1), 3);
        b.iadd(r(2), r(0), r(1));
        b.isub(r(3), r(0), r(1));
        b.imul(r(4), r(0), r(1));
        b.iand(r(5), r(0), r(1));
        b.ior(r(6), r(0), r(1));
        b.ixor(r(7), r(0), r(1));
        b.ishl(r(8), r(1), r(1));
        b.ishr(r(9), r(0), r(1));
        b.ilt(r(10), r(1), r(0));
        b.ieq(r(11), r(0), r(0));
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_i(r(2)), 9);
        assert_eq!(ctx.reg_i(r(3)), 3);
        assert_eq!(ctx.reg_i(r(4)), 18);
        assert_eq!(ctx.reg_i(r(5)), 2);
        assert_eq!(ctx.reg_i(r(6)), 7);
        assert_eq!(ctx.reg_i(r(7)), 5);
        assert_eq!(ctx.reg_i(r(8)), 24);
        assert_eq!(ctx.reg_i(r(9)), 0);
        assert_eq!(ctx.reg_i(r(10)), 1);
        assert_eq!(ctx.reg_i(r(11)), 1);
    }

    #[test]
    fn select_and_conversions() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 1);
        b.ldimm_i(r(1), 10);
        b.ldimm_i(r(2), 20);
        b.sel(r(3), r(0), r(1), r(2));
        b.ldimm_i(r(4), 0);
        b.sel(r(5), r(4), r(1), r(2));
        b.ldimm_f(r(6), 7.9);
        b.f2i(r(7), r(6));
        b.i2f(r(8), r(7));
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_i(r(3)), 10);
        assert_eq!(ctx.reg_i(r(5)), 20);
        assert_eq!(ctx.reg_i(r(7)), 7);
        assert_eq!(ctx.reg_f(r(8)), 7.0);
    }

    #[test]
    fn f2i_saturates_negative_and_nan() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), -3.0);
        b.f2i(r(1), r(0));
        b.ldimm_f(r(2), f32::NAN);
        b.f2i(r(3), r(2));
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_i(r(1)), 0);
        assert_eq!(ctx.reg_i(r(3)), 0);
    }

    #[test]
    fn memory_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 5);
        b.ldimm_f(r(1), 2.5);
        b.st(r(0), r(1), 2); // mem[7] = 2.5
        b.ld(r(2), r(0), 2);
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_f(r(2)), 2.5);
        assert_eq!(ctx.read_f32(7), 2.5);
    }

    #[test]
    fn out_of_bounds_load_traps() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 1_000_000);
        b.ld(r(1), r(0), 0);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(16);
        let err = f.run_scalar(&prog, &mut ctx, 100).unwrap_err();
        assert_eq!(err, Trap::OutOfBounds { addr: 1_000_000 });
    }

    #[test]
    fn out_of_bounds_store_traps() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 99);
        b.st(r(0), r(0), 0);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(16);
        assert_eq!(f.run_scalar(&prog, &mut ctx, 100).unwrap_err(), Trap::OutOfBounds { addr: 99 });
    }

    #[test]
    fn infinite_loop_hits_watchdog() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top);
        b.jmp(top);
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(4);
        assert_eq!(f.run_scalar(&prog, &mut ctx, 1000).unwrap_err(), Trap::Watchdog);
    }

    #[test]
    fn loop_counts_down() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 10);
        b.ldimm_i(r(1), 1);
        b.ldimm_i(r(2), 0);
        let top = b.new_label();
        b.bind(top);
        b.iadd(r(2), r(2), r(1));
        b.isub(r(0), r(0), r(1));
        b.jnz(r(0), top);
        b.halt();
        let (_, ctx) = run(b);
        assert_eq!(ctx.reg_i(r(2)), 10);
    }

    #[test]
    fn kernel_threads_see_tid_and_share_memory() {
        // mem[tid] = tid as f32 * 2.0
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.i2f(r(1), r(0));
        b.ldimm_f(r(2), 2.0);
        b.fmul(r(3), r(1), r(2));
        b.st(r(0), r(3), 0);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(8);
        f.run_kernel(&prog, &mut ctx, 8, &[], 100).unwrap();
        for t in 0..8 {
            assert_eq!(ctx.read_f32(t), t as f32 * 2.0);
        }
    }

    #[test]
    fn kernel_args_are_preloaded() {
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.st(r(0), r(10), 0); // store arg value at mem[tid]
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(4);
        f.run_kernel(&prog, &mut ctx, 4, &[(r(10), f32_to_bits(9.0))], 100).unwrap();
        assert_eq!(ctx.read_f32(3), 9.0);
    }

    #[test]
    fn transient_fault_corrupts_exactly_one_write() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), 1.0);
        b.ldimm_f(r(1), 1.0); // dynamic index 1 — the injection target
        b.ldimm_f(r(2), 1.0);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Gpu);
        f.inject(FaultModel::Transient { instr_index: 1, mask: 0x0040_0000 });
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(ctx.reg_f(r(0)), 1.0);
        assert_ne!(ctx.reg_f(r(1)), 1.0);
        assert_eq!(ctx.reg_f(r(2)), 1.0);
        assert_eq!(f.fault_state().unwrap().activations(), 1);
    }

    #[test]
    fn permanent_fault_corrupts_every_instance() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), 2.0);
        b.ldimm_f(r(1), 3.0);
        b.fmul(r(2), r(0), r(1));
        b.fmul(r(3), r(0), r(1));
        b.fadd(r(4), r(0), r(1));
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Gpu);
        f.inject(FaultModel::Permanent { op: Op::FMul, mask: 1 });
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_ne!(ctx.reg_f(r(2)), 6.0);
        assert_ne!(ctx.reg_f(r(3)), 6.0);
        assert_eq!(ctx.reg_f(r(4)), 5.0, "FAdd must be unaffected");
        assert_eq!(f.fault_state().unwrap().activations(), 2);
    }

    #[test]
    fn store_is_not_injectable() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 0);
        b.ldimm_f(r(1), 5.0);
        b.st(r(0), r(1), 0);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        f.inject(FaultModel::Permanent { op: Op::St, mask: u32::MAX });
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(ctx.read_f32(0), 5.0, "stores have no destination register");
        assert_eq!(f.fault_state().unwrap().activations(), 0);
    }

    #[test]
    fn dyn_counter_spans_runs_until_reset() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 1);
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(f.dyn_instr_count(), 4);
        f.reset_for_run();
        assert_eq!(f.dyn_instr_count(), 0);
        assert_eq!(f.stats().total(), 0);
        assert!(f.fault_state().is_none());
    }

    #[test]
    fn stats_count_per_op() {
        let mut b = ProgramBuilder::new();
        b.ldimm_f(r(0), 1.0);
        b.fadd(r(1), r(0), r(0));
        b.fadd(r(2), r(1), r(0));
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(f.stats().count(Op::FAdd), 2);
        assert_eq!(f.stats().count(Op::LdImm), 1);
        assert_eq!(f.stats().count(Op::Halt), 1);
        assert_eq!(f.stats().launches(), 1);
    }

    #[test]
    fn falling_off_end_is_implicit_halt() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(0), 7);
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(4);
        let n = f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(n, 1);
        assert_eq!(ctx.reg_i(r(0)), 7);
    }

    #[test]
    fn scalar_registers_persist_across_runs() {
        let mut b = ProgramBuilder::new();
        b.ldimm_i(r(1), 1);
        b.iadd(r(0), r(0), r(1));
        b.halt();
        let prog = b.build();
        let mut f = Fabric::new(Profile::Cpu);
        let mut ctx = f.new_context(4);
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        f.run_scalar(&prog, &mut ctx, 100).unwrap();
        assert_eq!(ctx.reg_i(r(0)), 2);
    }

    #[test]
    fn trap_display_and_error() {
        let t: Box<dyn Error> = Box::new(Trap::Watchdog);
        assert!(t.to_string().contains("watchdog"));
        assert!(Trap::OutOfBounds { addr: 3 }.to_string().contains('3'));
        assert!(Trap::InvalidTarget { target: 9 }.to_string().contains('9'));
    }

    #[test]
    fn context_bytes_accounting() {
        let ctx = Context::new(100);
        assert_eq!(ctx.bytes(), 100 * 4 + NUM_REGS * 4);
    }

    #[test]
    fn read_slice_into_matches_allocating_read() {
        let mut ctx = Context::new(16);
        ctx.write_slice_f32(4, &[1.5, -2.0, 3.25]);
        let mut buf = [0.0f32; 3];
        ctx.read_slice_f32_into(4, &mut buf);
        assert_eq!(buf.as_slice(), ctx.read_slice_f32(4, 3).as_slice());
    }

    /// Run the same kernel through the reference and lockstep paths on two
    /// fresh fabrics and assert every observable matches bit for bit.
    fn assert_lockstep_matches(
        prog: &Program,
        mem_words: usize,
        n_threads: u32,
        budget: u64,
        fault: Option<FaultModel>,
    ) {
        let mut f_ref = Fabric::new(Profile::Gpu);
        let mut f_ls = Fabric::new(Profile::Gpu);
        if let Some(m) = fault {
            f_ref.inject(m);
            f_ls.inject(m);
        }
        let mut ctx_ref = f_ref.new_context(mem_words);
        let mut ctx_ls = f_ls.new_context(mem_words);
        let r_ref = f_ref.run_kernel_reference(prog, &mut ctx_ref, n_threads, &[], budget);
        let r_ls = f_ls.run_kernel(prog, &mut ctx_ls, n_threads, &[], budget);
        assert_eq!(r_ref, r_ls, "result/trap mismatch");
        assert_eq!(ctx_ref, ctx_ls, "memory or registers diverged");
        assert_eq!(f_ref.stats(), f_ls.stats(), "ExecStats diverged");
        assert_eq!(f_ref.dyn_instr_count(), f_ls.dyn_instr_count(), "dyn counter diverged");
        assert_eq!(f_ref.fault_state(), f_ls.fault_state(), "fault state diverged");
    }

    /// tid-dependent loop: lanes iterate different trip counts, so the
    /// batch diverges and must reconverge at the loop exit.
    fn divergent_loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.tid(r(0)); // counter = tid
        b.ldimm_i(r(1), 1);
        b.ldimm_i(r(2), 0); // accumulator
        let top = b.new_label();
        let done = b.new_label();
        b.bind(top);
        b.jz(r(0), done);
        b.iadd(r(2), r(2), r(0));
        b.isub(r(0), r(0), r(1));
        b.jmp(top);
        b.bind(done);
        b.tid(r(3));
        b.st(r(3), r(2), 0); // mem[tid] = sum(1..=tid)
        b.halt();
        b.build()
    }

    #[test]
    fn lockstep_divergent_loop_matches_reference() {
        let prog = divergent_loop_program();
        for n in [1u32, 3, 8, 13, 64] {
            assert_lockstep_matches(&prog, 64, n, 10_000, None);
        }
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(64);
        f.run_kernel(&prog, &mut ctx, 8, &[], 10_000).unwrap();
        for t in 0..8u32 {
            assert_eq!(ctx.mem[t as usize], t * (t + 1) / 2);
        }
    }

    #[test]
    fn lockstep_conflicting_stores_fall_back_to_scalar_order() {
        // Every thread stores its tid to the SAME word: thread-major order
        // means the last thread wins. The batch conflicts and must roll
        // back to the scalar path to preserve that.
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.ldimm_i(r(1), 0);
        b.st(r(1), r(0), 7);
        b.halt();
        let prog = b.build();
        assert_lockstep_matches(&prog, 16, 8, 100, None);
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(16);
        f.run_kernel(&prog, &mut ctx, 8, &[], 100).unwrap();
        assert_eq!(ctx.mem[7], 7, "last thread's store must win");
    }

    #[test]
    fn lockstep_read_after_write_chain_matches_reference() {
        // Thread t reads the word thread t-1 wrote (cross-lane RAW): the
        // lockstep batch must detect the conflict and replay scalar.
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.ld(r(1), r(0), 0); // mem[tid] (written by thread tid-1... races)
        b.ldimm_i(r(2), 1);
        b.iadd(r(1), r(1), r(2));
        b.iadd(r(3), r(0), r(2));
        b.st(r(3), r(1), 0); // mem[tid+1] = mem[tid] + 1
        b.halt();
        let prog = b.build();
        assert_lockstep_matches(&prog, 64, 16, 100, None);
        let mut f = Fabric::new(Profile::Gpu);
        let mut ctx = f.new_context(64);
        f.run_kernel(&prog, &mut ctx, 16, &[], 100).unwrap();
        assert_eq!(ctx.mem[16], 16, "prefix chain requires thread-major order");
    }

    #[test]
    fn lockstep_watchdog_matches_reference() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top);
        b.jmp(top);
        let prog = b.build();
        assert_lockstep_matches(&prog, 4, 8, 50, None);
    }

    #[test]
    fn lockstep_oob_store_matches_reference() {
        // Thread 5 stores out of bounds; earlier threads' stores must land.
        let mut b = ProgramBuilder::new();
        b.tid(r(0));
        b.ldimm_i(r(1), 5);
        b.ieq(r(2), r(0), r(1));
        b.ldimm_i(r(3), 1_000_000);
        b.ldimm_i(r(4), 0);
        b.sel(r(5), r(2), r(3), r(0));
        b.st(r(5), r(0), 0);
        b.halt();
        let prog = b.build();
        assert_lockstep_matches(&prog, 16, 8, 100, None);
    }

    #[test]
    fn lockstep_transient_fault_is_lane_exact() {
        // Sweep the transient target across the whole dynamic stream of a
        // divergent kernel; every index must reproduce the reference run.
        let prog = divergent_loop_program();
        let mut probe = Fabric::new(Profile::Gpu);
        let mut ctx = probe.new_context(64);
        probe.run_kernel_reference(&prog, &mut ctx, 8, &[], 10_000).unwrap();
        let dyn_total = probe.dyn_instr_count();
        for idx in 0..dyn_total {
            let fault = FaultModel::Transient { instr_index: idx, mask: 0x8000_0001 };
            assert_lockstep_matches(&prog, 64, 8, 10_000, Some(fault));
        }
    }

    #[test]
    fn lockstep_permanent_fault_matches_reference() {
        let prog = divergent_loop_program();
        for op in [Op::IAdd, Op::ISub, Op::Tid, Op::St, Op::Ld] {
            let fault = FaultModel::Permanent { op, mask: 0x0000_0101 };
            assert_lockstep_matches(&prog, 64, 8, 10_000, Some(fault));
        }
    }

    #[test]
    fn lockstep_explicit_widths_match() {
        let prog = divergent_loop_program();
        let mut f_ref = Fabric::new(Profile::Gpu);
        let mut ctx_ref = f_ref.new_context(64);
        f_ref.run_kernel_reference(&prog, &mut ctx_ref, 11, &[], 10_000).unwrap();
        for width in [1usize, 4, 8, 16] {
            let mut f = Fabric::new(Profile::Gpu);
            let mut ctx = f.new_context(64);
            f.run_kernel_lockstep(&prog, &mut ctx, 11, &[], 10_000, width).unwrap();
            assert_eq!(ctx, ctx_ref, "width {width} diverged");
            assert_eq!(f.stats(), f_ref.stats(), "width {width} stats diverged");
        }
    }
}
