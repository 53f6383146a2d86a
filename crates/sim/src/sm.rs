//! The per-SM simulation core.
//!
//! [`SmCore`] owns everything one streaming multiprocessor needs to step
//! a cycle — resident warps, block slots, the register scoreboard,
//! functional-unit pipes, the ST² predictor with its Carry Register File,
//! and per-SM activity counters — and nothing shared with other SMs.
//! It reads and writes the global [`MemImage`] directly and keeps its
//! cache transactions in a request list it owns; the driver
//! ([`crate::timed`]) runs every awake core's list against the L2
//! partitions in SM-index order at the end of every cycle.
//!
//! One cycle is three phases, all driven from outside:
//!
//! 1. [`SmCore::step_cycle`] — schedule and issue up to `issue_width`
//!    warp instructions, executing them functionally and queueing one
//!    request per coalesced global segment, with the partition its
//!    address decodes to (scoreboard destinations of in-flight
//!    loads are parked at `u64::MAX`).
//! 2. The driver retires landed fills, then calls
//!    [`SmCore::access_memory`], which runs the requests in issue order
//!    through their [`Partition`]s, and [`SmCore::complete_memory`],
//!    which applies the results: counters, telemetry and the parked
//!    scoreboard entries.
//! 3. [`SmCore::finish_cycle`] — release satisfied block barriers and
//!    retire finished blocks.

use crate::addrdec::AddressDecoder;
use crate::config::{GpuConfig, SchedulerKind};
use crate::exec::{step, ExecEnv, StepHooks, WarpAdderOp, WarpCtx};
use crate::memory::{apply_access_counters, coalesce, AccessResult, MshrView, Partition};
use crate::stats::ActivityCounters;
use st2_core::adder::execute_op_with_sink;
use st2_core::event::OpContext;
use st2_core::predictor::Predictor;
use st2_core::sink::EventSink;
use st2_core::SpeculationConfig;
use st2_isa::{FloatWidth, Inst, IntOp, LaunchConfig, MemImage, Operand, Program, Reg, Space};
use st2_telemetry::{CycleProfile, MemTxn, StallReason, Telemetry};

#[derive(Debug)]
struct BlockSlot {
    shared: MemImage,
    warps_waiting: u32,
}

#[derive(Debug)]
struct TimedWarp {
    ctx: WarpCtx,
    slot: usize,
    reg_ready: Vec<u64>,
    /// Whether the pending write to each register came from a deferred
    /// global load (profiler: distinguishes `MemPending` from
    /// `Scoreboard` stalls). Tracks the *latest* write per register.
    mem_dep: Vec<bool>,
    /// Outstanding ST² mispredict repair cycles charged to this warp:
    /// incremented per mispredicting issue, consumed by the profiler to
    /// reclassify one observed dependency-stall cycle as `AdderRepair`.
    repair_debt: u64,
    waiting_barrier: bool,
    age: u64,
}

/// Number of CRF rows (the paper's 16-row Carry Register File).
const CRF_ROWS: usize = 16;

#[derive(Debug)]
struct SmSpec {
    config: SpeculationConfig,
    predictor: Predictor,
    /// Cycle of the most recent CRF write per row (row = `pc & 0xF`);
    /// `u64::MAX` = never written. A fixed array — not a hash map — keeps
    /// the same-cycle conflict check off the adder hot path's allocator
    /// and hasher.
    row_writes: [u64; CRF_ROWS],
}

impl SmSpec {
    fn new(config: SpeculationConfig) -> Self {
        SmSpec {
            config,
            predictor: Predictor::from_config(&config),
            row_writes: [u64::MAX; CRF_ROWS],
        }
    }

    /// Runs a warp's lane adds through the speculative adders; returns
    /// whether any lane mispredicted (stalling the warp one cycle).
    /// Adder/CRF activity is mirrored into `sink`.
    fn process(
        &mut self,
        op: &WarpAdderOp,
        act: &mut ActivityCounters,
        now: u64,
        sink: &mut dyn EventSink,
    ) -> bool {
        let layout = op.width.layout();
        act.crf_reads += 1; // one row read per warp operation
        sink.crf_read(op.pc);
        let mut any = false;
        for lane in &op.lanes {
            let ctx = OpContext {
                pc: op.pc,
                gtid: lane.gtid as u32,
                ltid: lane.lane,
            };
            let out = execute_op_with_sink(
                &mut self.predictor,
                &self.config,
                layout,
                &ctx,
                lane.a,
                lane.b,
                lane.sub,
                &mut act.adder,
                sink,
            );
            any |= out.mispredicted;
        }
        if any {
            // Mispredicting threads write back their new carries: one CRF
            // row write per warp; same-cycle writes to the same row from
            // different warps contend (random arbitration in hardware).
            let row = (op.pc & 0xF) as usize;
            let conflict = self.row_writes[row] == now;
            if conflict {
                act.crf_conflicts += 1;
            }
            self.row_writes[row] = now;
            act.crf_writes += 1;
            sink.crf_write(op.pc, conflict);
        }
        any
    }
}

/// Functional-unit pool count (dense [`Pool`] indices).
const NUM_POOLS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Alu,
    Fpu,
    Dpu,
    MulDiv,
    Sfu,
    Ldst,
}

impl Pool {
    /// Dense index into the per-SM pipe table. Doubles as the pool code
    /// used in telemetry issue events
    /// (see `st2_telemetry::event::pool_name`).
    fn index(self) -> usize {
        match self {
            Pool::Alu => 0,
            Pool::Fpu => 1,
            Pool::Dpu => 2,
            Pool::MulDiv => 3,
            Pool::Sfu => 4,
            Pool::Ldst => 5,
        }
    }

    fn telemetry_code(self) -> u8 {
        self.index() as u8
    }
}

/// Registers read and written by an instruction (for the scoreboard).
fn inst_regs(inst: &Inst) -> (Vec<Reg>, Option<Reg>) {
    let mut reads = Vec::with_capacity(3);
    let mut push_op = |o: Operand| {
        if let Operand::Reg(r) = o {
            reads.push(r);
        }
    };
    let write = match *inst {
        Inst::Int { d, a, b, .. } | Inst::Float { d, a, b, .. } => {
            push_op(a);
            push_op(b);
            Some(d)
        }
        Inst::Fma { d, a, b, c, .. } => {
            push_op(a);
            push_op(b);
            push_op(c);
            Some(d)
        }
        Inst::Sfu { d, a, .. } | Inst::Cvt { d, a, .. } | Inst::Mov { d, a } => {
            push_op(a);
            Some(d)
        }
        Inst::Ld { d, addr, .. } => {
            reads.push(addr);
            Some(d)
        }
        Inst::St { v, addr, .. } => {
            push_op(v);
            reads.push(addr);
            None
        }
        Inst::Bra { cond, .. } => {
            if let Some(c) = cond {
                reads.push(c.reg);
            }
            None
        }
        Inst::Bar | Inst::Exit => None,
        Inst::Special { d, .. } => Some(d),
    };
    (reads, write)
}

/// Whether an instruction issues a global-memory transaction (the ops
/// gated by MSHR availability; shared-memory ops never leave the SM).
fn is_global_mem(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Ld {
            space: Space::Global,
            ..
        } | Inst::St {
            space: Space::Global,
            ..
        }
    )
}

fn pool_of(inst: &Inst) -> Pool {
    match inst {
        Inst::Int {
            op: IntOp::Mul | IntOp::Div | IntOp::Rem,
            ..
        } => Pool::MulDiv,
        Inst::Int { .. } => Pool::Alu,
        Inst::Float { op, w, .. } => match (op, w) {
            (st2_isa::FloatOp::Mul | st2_isa::FloatOp::Div, _) => Pool::MulDiv,
            (_, FloatWidth::F32) => Pool::Fpu,
            (_, FloatWidth::F64) => Pool::Dpu,
        },
        Inst::Fma {
            w: FloatWidth::F32, ..
        } => Pool::Fpu,
        Inst::Fma {
            w: FloatWidth::F64, ..
        } => Pool::Dpu,
        Inst::Sfu { .. } => Pool::Sfu,
        Inst::Ld { .. } | Inst::St { .. } => Pool::Ldst,
        _ => Pool::Alu,
    }
}

/// One global-memory access in flight between [`SmCore::step_cycle`] and
/// [`SmCore::complete_memory`] (same cycle): which warp issued it, the
/// scoreboard destination to resolve (None for stores, which retire
/// without blocking the warp), and the latest completion among its
/// segments seen so far.
#[derive(Debug, Clone, Copy)]
struct PendingAccess {
    warp: usize,
    dest: Option<Reg>,
    ready_at: u64,
}

/// One coalesced global-memory transaction queued by
/// [`SmCore::step_cycle`]. The issue stage decodes the partition once,
/// for the MSHR credit, and the memory round reuses it.
#[derive(Debug, Clone, Copy)]
struct MemRequest {
    /// Coalesced line address.
    addr: u64,
    /// Index of the issuing access in this cycle's pending list; every
    /// segment of one warp access shares it.
    token: u32,
    /// L2 partition the line address decodes to.
    partition: u32,
    /// Store traffic (write-allocate; never blocks the warp).
    store: bool,
}

/// What one [`SmCore::step_cycle`] call did, aggregated by the driver
/// into the global clock decision.
#[derive(Debug, Clone, Copy)]
pub struct CycleReport {
    /// The SM had resident warps this cycle.
    pub resident: bool,
    /// At least one warp instruction issued.
    pub issued: bool,
    /// Earliest future cycle at which a currently-stalled warp could
    /// issue (`u64::MAX` = no stalled warp); lets the driver fast-forward
    /// idle stretches. Memory stalls always publish a *finite* wake:
    /// `MemPending` reports `ready_at.max(pipe_free)` (load completions
    /// resolve the same cycle the fill lands, via `complete_memory`) and
    /// `MemThrottle` reports the MSHR wake hint — only `Done`/`Barrier`
    /// warps are `u64::MAX`. That exactness is what lets the driver
    /// park the SM until this cycle with no intermediate polling, and
    /// why a machine-wide `next_wake == u64::MAX` means every warp is
    /// finished or barrier-parked (the quiet-machine jump in
    /// `timed.rs`).
    pub next_wake: u64,
}

impl Default for CycleReport {
    fn default() -> Self {
        CycleReport {
            resident: false,
            issued: false,
            next_wake: u64::MAX,
        }
    }
}

/// A self-contained per-SM simulation core. See the module docs for the
/// cycle protocol.
#[derive(Debug)]
pub struct SmCore {
    index: usize,
    cfg: GpuConfig,
    warps: Vec<TimedWarp>,
    slots: Vec<Option<BlockSlot>>,
    pipes: [Vec<u64>; NUM_POOLS],
    spec: Option<SmSpec>,
    last_issued: Option<usize>,
    age_counter: u64,
    act: ActivityCounters,
    pending: Vec<PendingAccess>,
    /// This cycle's global transactions in issue order, and the
    /// partitions' results for them once [`SmCore::access_memory`] ran.
    requests: Vec<MemRequest>,
    results: Vec<AccessResult>,
    /// Routes line addresses to partitions; the issue stage decodes each
    /// request once, here.
    decoder: AddressDecoder,
    /// Per-partition mirror of this SM's free MSHR entries, refreshed by
    /// [`SmCore::complete_memory`] each cycle (so the issue stage can
    /// gate global LD/ST without reading shared hierarchy state
    /// mid-step). Stale by at most the accesses issued since the last
    /// memory round, which the per-segment decrement below accounts for.
    mem_credit: Vec<u32>,
    /// Earliest in-flight fill time across this SM's MSHR slices
    /// (`u64::MAX` when none): the wake hint for `MemThrottle`-stalled
    /// warps, and the unconditional fill wake for the event-driven
    /// driver (sleeping past it would let a retirement change the
    /// credit mirrors behind the frozen report's back).
    mem_wake: u64,
    /// Occupied-MSHR count and any-slice-full flag as of the last
    /// [`SmCore::complete_memory`]: the values the skipped completion
    /// phases of a sleeping SM would keep reproducing (no fill retires
    /// mid-sleep — the driver wakes the core at `mem_wake` — and a
    /// parked SM allocates nothing), replayed by
    /// [`SmCore::replay_parked`].
    last_occupied: u32,
    last_any_full: bool,
    /// Earliest future cycle at which a stalled warp's *stall
    /// classification* — not just its wake time — could change while the
    /// SM is parked: a scoreboard/mem-pending dependency clearing can
    /// hand the warp to a pipe stall, and `AdderRepair` consumes repair
    /// debt every profiled cycle. Bounds how long the frozen
    /// `cycle_profile` stays replayable; `u64::MAX` when nothing can
    /// reclassify before `next_wake`. Only maintained when profiling
    /// (without a collector the profile is never committed).
    stall_stable_until: u64,
    /// Per-cycle profiling scratch, flushed by [`SmCore::commit_profile`]
    /// once the driver knows the cycle's global length.
    cycle_profile: CycleProfile,
    /// Stall reasons of non-issued warps this cycle, scheduler order
    /// (reused buffer for issue-slot attribution).
    stall_scratch: Vec<StallReason>,
}

impl SmCore {
    /// Creates the core for SM `index` with `block_slots` resident-block
    /// slots.
    #[must_use]
    pub fn new(index: usize, cfg: &GpuConfig, block_slots: u32) -> Self {
        SmCore {
            index,
            cfg: *cfg,
            warps: Vec::new(),
            slots: (0..block_slots).map(|_| None).collect(),
            pipes: [
                vec![0u64; cfg.alu_pipes as usize],
                vec![0u64; cfg.fpu_pipes as usize],
                vec![0u64; cfg.dpu_pipes as usize],
                vec![0u64; cfg.muldiv_pipes as usize],
                vec![0u64; cfg.sfu_pipes as usize],
                vec![0u64; cfg.ldst_pipes as usize],
            ],
            spec: cfg.speculation.map(SmSpec::new),
            last_issued: None,
            age_counter: 0,
            act: ActivityCounters::default(),
            pending: Vec::new(),
            requests: Vec::new(),
            results: Vec::new(),
            decoder: AddressDecoder::new(cfg.l1_line, cfg.l2_partitions.max(1)),
            mem_credit: vec![
                (cfg.mshr_entries / cfg.l2_partitions.max(1)).max(1);
                cfg.l2_partitions.max(1) as usize
            ],
            mem_wake: u64::MAX,
            last_occupied: 0,
            last_any_full: false,
            stall_stable_until: u64::MAX,
            cycle_profile: CycleProfile::default(),
            stall_scratch: Vec::new(),
        }
    }

    /// This core's SM index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether no block is resident.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.warps.is_empty()
    }

    /// The per-SM activity accumulated so far.
    #[must_use]
    pub fn activity(&self) -> &ActivityCounters {
        &self.act
    }

    /// Earliest in-flight fill across this SM's MSHR slices
    /// (`u64::MAX` when none), as of the last completion phase. The
    /// event-driven driver never sleeps an SM past this: waking *at*
    /// the earliest fill means no retirement can happen mid-sleep, so
    /// the credit mirrors, occupancy and throttle state stay exactly
    /// what the frozen report and [`SmCore::replay_parked`] assume.
    #[must_use]
    pub fn fill_wake(&self) -> u64 {
        self.mem_wake
    }

    /// Whether a resident-block slot is free. An SM that could admit a
    /// block must stay awake while the grid has blocks left: admission
    /// is SM-index ordered, so a sleeping admissible SM would steal a
    /// different block than the step-everything path hands it.
    #[must_use]
    pub fn has_free_slot(&self) -> bool {
        self.slots.iter().any(Option::is_none)
    }

    /// Earliest cycle a stalled warp's classification could change (see
    /// the field docs); the profiling-mode component of the sleep bound.
    #[must_use]
    pub fn stall_stable_until(&self) -> u64 {
        self.stall_stable_until
    }

    /// Places block `block` into a free slot, materialising its warps.
    /// Returns `false` (without consuming the block) when every slot is
    /// occupied.
    pub fn admit_block(&mut self, block: u32, program: &Program, launch: LaunchConfig) -> bool {
        let Some(slot) = self.slots.iter().position(Option::is_none) else {
            return false;
        };
        let warps_per_block = launch.warps_per_block();
        self.slots[slot] = Some(BlockSlot {
            shared: MemImage::new(program.shared_bytes().max(8)),
            warps_waiting: 0,
        });
        for w in 0..warps_per_block {
            let lanes = (launch.block_dim - w * 32).min(32);
            self.age_counter += 1;
            self.warps.push(TimedWarp {
                ctx: WarpCtx::new(
                    w,
                    block,
                    u64::from(block) * u64::from(launch.block_dim) + u64::from(w) * 32,
                    lanes,
                    program.num_regs(),
                ),
                slot,
                reg_ready: vec![0; usize::from(program.num_regs())],
                mem_dep: vec![false; usize::from(program.num_regs())],
                repair_debt: 0,
                waiting_barrier: false,
                age: self.age_counter,
            });
        }
        true
    }

    /// Schedules and issues up to `issue_width` warp instructions at
    /// cycle `now`, executing them functionally against `global` and
    /// queueing coalesced global-memory transactions on the core's
    /// request list ([`SmCore::has_requests`]).
    pub fn step_cycle(
        &mut self,
        now: u64,
        program: &Program,
        launch: LaunchConfig,
        global: &mut MemImage,
        tele: &mut Telemetry,
    ) -> CycleReport {
        let mut report = CycleReport::default();
        let cfg = self.cfg;
        // Profiling classifies why each warp failed to issue. It reads
        // the same state the issue decision reads and never changes which
        // warps issue, so enabling it cannot perturb timing.
        let profiling = tele.is_enabled();
        self.stall_stable_until = u64::MAX;
        if profiling {
            self.cycle_profile.reset();
        }
        if self.warps.is_empty() {
            if profiling {
                self.cycle_profile.slot_stalls[StallReason::NoBlock.index()] = cfg.issue_width;
            }
            return report;
        }
        report.resident = true;

        // Candidate order per the configured scheduler.
        let mut order: Vec<usize> = (0..self.warps.len()).collect();
        match cfg.scheduler {
            SchedulerKind::Gto => {
                order.sort_by_key(|&i| self.warps[i].age);
                if let Some(last) = self.last_issued {
                    if last < self.warps.len() {
                        order.retain(|&i| i != last);
                        order.insert(0, last);
                    }
                }
            }
            SchedulerKind::RoundRobin => {
                let start = self
                    .last_issued
                    .map(|l| (l + 1) % self.warps.len())
                    .unwrap_or(0);
                order.rotate_left(start);
            }
        }

        let mut issued_this_sm = 0u32;
        for &wi in &order {
            // When profiling, keep scanning past the issue-width cap so
            // every warp-cycle gets a stall attribution; otherwise stop
            // at the cap. Issuing is capped either way, and
            // the extra `next_wake` candidates the profiling scan finds
            // are irrelevant: the clock only fast-forwards on cycles
            // where *no* SM issued, and reaching the cap means we issued.
            if issued_this_sm >= cfg.issue_width && !profiling {
                break;
            }
            // Split-borrow dance: check conditions first. `reason` is the
            // profiler's stall attribution (None when issuable),
            // `consume_repair` flags a dependency stall reclassified as
            // ST² mispredict repair, and `stable` is the earliest cycle
            // this warp's classification could *change* while the SM is
            // parked (`u64::MAX` = not before its wake): dependency
            // stalls reclassify when the register clears, and repair
            // stalls consume debt every profiled cycle so they pin the
            // SM awake. Done/barrier warps need a sibling to issue
            // (impossible while parked), throttle clears with the fill
            // wake, and a pipe stall's transition *is* its wake time.
            let (can_issue, wake, reason, consume_repair, stable) = {
                let w = &self.warps[wi];
                if w.ctx.is_done() {
                    (false, u64::MAX, Some(StallReason::Done), false, u64::MAX)
                } else if w.waiting_barrier {
                    (false, u64::MAX, Some(StallReason::Barrier), false, u64::MAX)
                } else {
                    let pc = w.ctx.stack.pc();
                    let inst = program.fetch(pc).copied().unwrap_or(Inst::Exit);
                    let (reads, write) = inst_regs(&inst);
                    // Track the first register attaining the max ready
                    // time: the binding dependency for stall attribution
                    // (`>` keeps the first among ties — deterministic).
                    let mut ready_at = now;
                    let mut dep_reg: Option<Reg> = None;
                    for r in reads.iter().chain(write.iter()) {
                        let t = w.reg_ready[usize::from(r.0)];
                        if t > ready_at {
                            ready_at = t;
                            dep_reg = Some(*r);
                        }
                    }
                    let pool = pool_of(&inst);
                    let pipe_free = self.pipes[pool.index()]
                        .iter()
                        .copied()
                        .min()
                        .unwrap_or(u64::MAX);
                    // Global LD/ST additionally needs free MSHR
                    // credits: with any partition slice full the memory
                    // subsystem back-pressures the LDST pipe until a
                    // fill retires (conservative — the access might
                    // route elsewhere — but cheap and deterministic).
                    let throttled = is_global_mem(&inst) && self.mem_credit.contains(&0);
                    let at = ready_at.max(pipe_free);
                    if at <= now && !throttled {
                        (true, at, None, false, u64::MAX)
                    } else if ready_at > now {
                        // Register dependency binds (checked before the
                        // pipe: the operand must exist before structural
                        // hazards matter).
                        let on_load = dep_reg
                            .map(|r| w.mem_dep[usize::from(r.0)])
                            .unwrap_or(false);
                        if on_load {
                            (false, at, Some(StallReason::MemPending), false, ready_at)
                        } else if w.repair_debt > 0 {
                            (false, at, Some(StallReason::AdderRepair), true, now + 1)
                        } else {
                            (false, at, Some(StallReason::Scoreboard), false, ready_at)
                        }
                    } else if throttled {
                        (
                            false,
                            self.mem_wake,
                            Some(StallReason::MemThrottle),
                            false,
                            u64::MAX,
                        )
                    } else {
                        (
                            false,
                            at,
                            Some(StallReason::pipe(pool.index())),
                            false,
                            u64::MAX,
                        )
                    }
                }
            };
            if !can_issue {
                if wake != u64::MAX {
                    report.next_wake = report.next_wake.min(wake.max(now + 1));
                }
                if profiling {
                    self.stall_stable_until = self.stall_stable_until.min(stable);
                    if consume_repair {
                        self.warps[wi].repair_debt -= 1;
                    }
                    let reason = reason.unwrap_or(StallReason::Scoreboard);
                    self.stall_scratch.push(reason);
                    if reason != StallReason::Done {
                        let pc = self.warps[wi].ctx.stack.pc();
                        self.cycle_profile.pc_stalls.push((pc, reason));
                    }
                }
                continue;
            }
            if issued_this_sm >= cfg.issue_width {
                // Profiling scan only: ready warp that lost arbitration
                // (every issue slot already taken this cycle).
                self.cycle_profile.eligible_warps += 1;
                let pc = self.warps[wi].ctx.stack.pc();
                self.cycle_profile
                    .pc_stalls
                    .push((pc, StallReason::NotSelected));
                self.stall_scratch.push(StallReason::NotSelected);
                continue;
            }

            // Issue: execute functionally and account timing.
            let slot = self.warps[wi].slot;
            let pc = self.warps[wi].ctx.stack.pc();
            let fetched = program.fetch(pc).copied();
            if fetched.is_none() {
                // Out-of-range PC masked to a clean exit: legal for the
                // fallthrough off the last instruction, but worth
                // counting — a nonzero total on a well-formed program
                // means a control-flow bug upstream.
                self.act.fetch_oob += 1;
                if profiling {
                    self.cycle_profile.fetch_oob += 1;
                }
            }
            let inst = fetched.unwrap_or(Inst::Exit);
            let pool = pool_of(&inst);
            let (_, write) = inst_regs(&inst);
            let info = {
                let shared = &mut self.slots[slot]
                    .as_mut()
                    .expect("warp belongs to a live block")
                    .shared;
                let mut env = ExecEnv {
                    program,
                    launch,
                    global,
                    shared,
                };
                let mut hooks = StepHooks::default();
                step(&mut self.warps[wi].ctx, &mut env, &mut hooks)
            };

            let act = &mut self.act;
            act.mix.add(info.class, u64::from(info.active_threads));
            if matches!(inst, Inst::Fma { .. }) {
                act.fma_ops += u64::from(info.active_threads);
            }
            act.warp_instructions += 1;
            act.regfile_reads += info.reg_reads;
            act.regfile_writes += info.reg_writes;
            if let Some(op) = &info.adder {
                match op.width {
                    st2_core::WidthClass::Int64 => {
                        act.adder_int_ops += op.lanes.len() as u64;
                    }
                    st2_core::WidthClass::Mant24 => {
                        act.adder_f32_ops += op.lanes.len() as u64;
                    }
                    st2_core::WidthClass::Mant53 => {
                        act.adder_f64_ops += op.lanes.len() as u64;
                    }
                }
            }

            // Timing.
            let mut interval = 1u64;
            let mut latency = u64::from(match pool {
                Pool::Alu => cfg.alu_latency,
                Pool::Fpu => cfg.fpu_latency,
                Pool::Dpu => cfg.dpu_latency,
                Pool::MulDiv => match inst {
                    Inst::Int {
                        op: IntOp::Div | IntOp::Rem,
                        ..
                    }
                    | Inst::Float {
                        op: st2_isa::FloatOp::Div,
                        ..
                    } => cfg.div_latency,
                    _ => cfg.mul_latency,
                },
                Pool::Sfu => cfg.sfu_latency,
                Pool::Ldst => 0, // set below (shared) or at completion (global)
            });
            if pool == Pool::Sfu {
                interval = u64::from(cfg.sfu_interval);
            }
            if matches!(
                inst,
                Inst::Int {
                    op: IntOp::Div | IntOp::Rem,
                    ..
                } | Inst::Float {
                    op: st2_isa::FloatOp::Div,
                    ..
                }
            ) {
                interval = 4;
            }

            // ST² speculation: a misprediction adds one recompute cycle
            // to both occupancy (stall) and result latency.
            if let (Some(spec), Some(op)) = (self.spec.as_mut(), info.adder.as_ref()) {
                tele.set_context(self.index, now);
                if spec.process(op, &mut self.act, now, tele) {
                    interval += 1;
                    latency += 1;
                    self.act.stall_cycles += 1;
                    self.warps[wi].repair_debt += 1;
                }
            }

            // Memory timing. Shared memory is SM-local and resolves
            // inline; global transactions are queued on the request list
            // and their worst-case completion time lands on the
            // scoreboard in the completion phase. A fully predicated-off
            // access (every lane masked) touches nothing and is not
            // modeled at all.
            let mut deferred_load = false;
            if let Some(m) = info.mem.as_ref().filter(|m| !m.addrs.is_empty()) {
                match m.space {
                    Space::Shared => {
                        let degree = u64::from(crate::memory::bank_conflict_degree(&m.addrs));
                        self.act.shared_accesses += degree;
                        if degree > 1 {
                            self.act.shared_bank_conflicts += degree - 1;
                        }
                        latency = u64::from(cfg.shared_latency) + degree - 1;
                        interval = degree;
                    }
                    Space::Global => {
                        let segs = coalesce(&m.addrs, cfg.l1_line);
                        let token = self.pending.len() as u32;
                        for &addr in &segs {
                            // Each segment may allocate an MSHR entry in
                            // its partition in the memory round; spend the
                            // credit now so one cycle cannot
                            // oversubscribe a slice (exact state is
                            // re-mirrored at the completion phase).
                            let part = self.decoder.decode(addr);
                            self.mem_credit[part] = self.mem_credit[part].saturating_sub(1);
                            self.requests.push(MemRequest {
                                addr,
                                token,
                                partition: part as u32,
                                store: m.store,
                            });
                        }
                        self.pending.push(PendingAccess {
                            warp: wi,
                            dest: if m.store { None } else { write },
                            ready_at: now,
                        });
                        interval = segs.len() as u64;
                        deferred_load = !m.store;
                    }
                }
                if m.store {
                    // Stores retire without blocking the warp (their
                    // bandwidth and MSHR occupancy are still charged in
                    // the memory round — write-allocate).
                    latency = 0;
                }
            }

            // Occupy the pipe.
            let pipe = self.pipes[pool.index()]
                .iter_mut()
                .min()
                .expect("pools are non-empty");
            *pipe = now + interval;

            // Scoreboard. Global-load destinations are parked until the
            // completion phase supplies the hierarchy latency.
            if let Some(d) = write {
                self.warps[wi].reg_ready[usize::from(d.0)] = if deferred_load {
                    u64::MAX
                } else {
                    now + latency.max(1)
                };
                self.warps[wi].mem_dep[usize::from(d.0)] = deferred_load;
            }

            // Barrier bookkeeping.
            if info.barrier {
                self.warps[wi].waiting_barrier = true;
                if let Some(bs) = self.slots[slot].as_mut() {
                    bs.warps_waiting += 1;
                }
                tele.barrier(self.index, now, wi as u32);
            }

            tele.issue(self.index, now, wi as u32, pc, pool.telemetry_code());
            if profiling {
                self.cycle_profile.issued += 1;
                self.cycle_profile.eligible_warps += 1;
                self.cycle_profile.pc_issued.push(pc);
            }
            self.last_issued = Some(wi);
            issued_this_sm += 1;
            report.issued = true;
        }

        if profiling {
            self.cycle_profile.active_warps = self.warps.len() as u32;
            // Issue-slot attribution: the `issue_width - issued` empty
            // slots are charged to the first non-issued warps' reasons in
            // scheduler order; slots with no stalled warp left to blame
            // had no candidate at all. `NotSelected` entries only exist
            // when every slot issued (empty == 0), so they are never
            // charged to a slot.
            let empty = cfg.issue_width - issued_this_sm;
            let mut charged = 0u32;
            for &r in &self.stall_scratch {
                if charged >= empty {
                    break;
                }
                if r == StallReason::NotSelected {
                    continue;
                }
                self.cycle_profile.slot_stalls[r.index()] += 1;
                charged += 1;
            }
            self.cycle_profile.slot_stalls[StallReason::NoWarp.index()] += empty - charged;
            self.stall_scratch.clear();
        }
        report
    }

    /// Flushes this cycle's profiling scratch into `tele`'s profile
    /// collector, scaled to the `dt` clock ticks the driver decided the
    /// cycle covers (> 1 only when no SM issued and the clock
    /// fast-forwarded to the next wake-up). The driver calls this once
    /// per SM per stepped cycle, before advancing telemetry time; a
    /// disabled collector makes it a no-op.
    pub fn commit_profile(&mut self, dt: u64, tele: &mut Telemetry) {
        tele.profile_commit(self.index, dt, &self.cycle_profile);
    }

    /// Whether this cycle's step queued any global transaction for the
    /// memory round.
    #[must_use]
    pub fn has_requests(&self) -> bool {
        !self.requests.is_empty()
    }

    /// Runs this cycle's queued transactions, in issue order, through
    /// the partitions they decoded to at issue, keeping each result for
    /// [`SmCore::complete_memory`], and flags every partition it
    /// touched in `touched`. Changes partition state only: counters and
    /// telemetry wait for the completion phase.
    pub fn access_memory(&mut self, parts: &mut [Partition], now: u64, touched: &mut [bool]) {
        for req in &self.requests {
            let p = req.partition as usize;
            touched[p] = true;
            self.results
                .push(parts[p].access(self.index, req.addr, now));
        }
    }

    /// Applies this cycle's transactions (issued during
    /// [`SmCore::step_cycle`] at cycle `now` and run through the
    /// partitions by [`SmCore::access_memory`]) in issue order: applies
    /// their counter updates, records per-transaction telemetry, and
    /// resolves parked scoreboard entries to the completion cycles the
    /// partitions computed (MSHR merges, crossbar and bandwidth
    /// queueing, throttle waits included). `views` is this SM's
    /// post-round MSHR slice state in partition-index order; it
    /// refreshes the per-partition credit mirrors, the `MemThrottle`
    /// wake hint and the telemetry occupancy timeline (integrated over
    /// the `dt` clock ticks this cycle covers). The driver calls this
    /// once per SM per cycle — all updates are SM-local, so the call
    /// order across SMs is free; the per-SM issue order is what keeps
    /// runs bit-identical.
    pub fn complete_memory(&mut self, views: &[MshrView], now: u64, dt: u64, tele: &mut Telemetry) {
        debug_assert_eq!(
            self.requests.len(),
            self.results.len(),
            "completion before the memory round"
        );
        // Every request belongs to a pending access, so an empty pending
        // list means there is nothing to apply.
        if !self.pending.is_empty() {
            let xbar = self.cfg.l2_partitions > 1;
            for (q, r) in self.requests.drain(..).zip(self.results.drain(..)) {
                apply_access_counters(&mut self.act, &r, self.cfg.l1_line, q.store, xbar);
                tele.mem_transaction(
                    self.index,
                    now,
                    &MemTxn {
                        addr: q.addr,
                        latency: r.latency,
                        level: r.level(),
                        store: q.store,
                        partition: q.partition,
                        mshr_wait: r.mshr_wait,
                        xbar_wait: r.xbar_wait,
                        l2_wait: r.l2_wait,
                        dram_wait: r.dram_wait,
                        xbar_hop: xbar,
                    },
                );
                let pending = &mut self.pending[q.token as usize];
                pending.ready_at = pending.ready_at.max(r.ready_at);
            }
            for p in self.pending.drain(..) {
                if let Some(d) = p.dest {
                    self.warps[p.warp].reg_ready[usize::from(d.0)] = p.ready_at.max(now + 1);
                }
            }
        }
        // Refresh the issue-gate mirrors. They go stale again as soon as
        // warps issue next cycle, but staleness only delays the
        // back-pressure by the accesses already credited at issue.
        let mut occupied = 0u32;
        let mut earliest = u64::MAX;
        let mut any_full = false;
        for (credit, v) in self.mem_credit.iter_mut().zip(views) {
            *credit = v.free;
            occupied += v.occupied;
            earliest = earliest.min(v.earliest);
            any_full |= v.free == 0;
        }
        if any_full {
            // A slice ends the cycle saturated: further global memory
            // issue is gated until a fill retires.
            self.act.mem_throttle += 1;
        }
        tele.mem_occupancy(self.index, occupied, dt);
        tele.energy_cycles(dt);
        self.mem_wake = earliest;
        self.last_occupied = occupied;
        self.last_any_full = any_full;
    }

    /// Replays the side effects of the driver iterations a sleeping SM
    /// skipped: `iters` completion phases spanning `cycles` clock ticks.
    /// Bit-identical to having run them because nothing they read can
    /// change while the SM sleeps — the core issues nothing (so the
    /// frozen `cycle_profile`, queue and scoreboard are fixed points),
    /// no fill retires before `fill_wake` (so occupancy and the
    /// any-slice-full gate are frozen), and the profile commit is linear
    /// in `dt` for a zero-issue cycle (every accumulator is `+= k * dt`
    /// with `k` from the frozen profile). The throttle counter counts
    /// completion *calls*, not cycles, hence the separate `iters`.
    pub fn replay_parked(&mut self, iters: u64, cycles: u64, tele: &mut Telemetry) {
        if cycles == 0 {
            return;
        }
        if self.last_any_full {
            self.act.mem_throttle += iters;
        }
        tele.mem_occupancy(self.index, self.last_occupied, cycles);
        // The slept span still burns static/leakage power: credit the
        // frozen interval's SM-resident cycles so event-driven runs
        // price energy identically to lockstep.
        tele.energy_cycles(cycles);
        tele.profile_commit(self.index, cycles, &self.cycle_profile);
    }

    /// End-of-cycle bookkeeping: releases block barriers once every
    /// resident warp is waiting or done, and retires fully-finished
    /// blocks (freeing their slots for the next admission).
    pub fn finish_cycle(&mut self) {
        // Release barriers per slot.
        for slot in 0..self.slots.len() {
            let waiting = match &self.slots[slot] {
                Some(bs) => bs.warps_waiting,
                None => continue,
            };
            let done_count = self
                .warps
                .iter()
                .filter(|w| w.slot == slot && w.ctx.is_done())
                .count() as u32;
            let resident = self.warps.iter().filter(|w| w.slot == slot).count() as u32;
            if waiting > 0 && waiting + done_count == resident {
                for w in self.warps.iter_mut().filter(|w| w.slot == slot) {
                    w.waiting_barrier = false;
                }
                if let Some(bs) = self.slots[slot].as_mut() {
                    bs.warps_waiting = 0;
                }
            }
        }
        // Retire finished blocks.
        for slot in 0..self.slots.len() {
            if self.slots[slot].is_some()
                && self.warps.iter().any(|w| w.slot == slot)
                && self
                    .warps
                    .iter()
                    .filter(|w| w.slot == slot)
                    .all(|w| w.ctx.is_done())
            {
                self.warps.retain(|w| w.slot != slot);
                self.slots[slot] = None;
                self.last_issued = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crf_row_conflicts_use_fixed_rows() {
        let mut spec = SmSpec::new(SpeculationConfig::st2());
        assert_eq!(spec.row_writes, [u64::MAX; CRF_ROWS]);
        // Same row (pc & 0xF), same cycle => conflict on the second write.
        spec.row_writes[5] = 40;
        assert_ne!(spec.row_writes[5], u64::MAX);
        assert!(spec.row_writes[5] == 40);
    }

    #[test]
    fn predicated_off_mem_ops_are_not_modeled() {
        use st2_isa::KernelBuilder;
        // One op of each kind in both address spaces.
        let mut k = KernelBuilder::new("masked_mem");
        let zero = k.reg();
        k.mov(zero, Operand::Imm(0));
        let ds = k.reg();
        k.ld_shared_u64(ds, zero, 0);
        k.st_shared_u64(Operand::Imm(1), zero, 0);
        let dg = k.reg();
        k.ld_global_u64(dg, zero, 0);
        k.st_global_u64(Operand::Imm(1), zero, 0);
        let p = k.finish();
        let launch = LaunchConfig::new(1, 32);
        let cfg = GpuConfig::scaled(1);
        let mut core = SmCore::new(0, &cfg, 1);
        assert!(core.admit_block(0, &p, launch));
        // Empty the warp's SIMT mask: the warp still steps through every
        // instruction, but with zero active lanes — the shape a fully
        // predicated-off warp has. (`WarpCtx::new` clamps lanes to >= 1,
        // and the public stack API never leaves a live entry empty, so
        // the test forces the state directly.)
        core.warps[0].ctx.stack.force_mask(0);
        let mut g = MemImage::new(1024);
        let mut parts = Partition::build_all(&cfg);
        let mut touched = vec![false; parts.len()];
        let mut tele = Telemetry::disabled();
        // An empty-mask warp never retires (`Exit` has no lanes to kill),
        // so run a fixed window that covers all five instructions, with
        // the driver's memory round after every step.
        for now in 0..50u64 {
            core.step_cycle(now, &p, launch, &mut g, &mut tele);
            assert!(!core.has_requests(), "zero-lane op queued a transaction");
            core.access_memory(&mut parts, now, &mut touched);
            let views: Vec<MshrView> = parts.iter().map(|part| part.mshr_view(0)).collect();
            core.complete_memory(&views, now, 1, &mut tele);
            core.finish_cycle();
        }
        assert!(!touched.contains(&true), "a partition saw a phantom access");
        let act = core.activity();
        assert_eq!(act.shared_accesses, 0, "phantom shared transaction");
        assert_eq!(act.shared_bank_conflicts, 0);
        assert_eq!(act.l1_accesses, 0, "phantom global transaction");
        assert_eq!(act.mem_throttle, 0);
    }

    #[test]
    fn admit_fills_slots_then_refuses() {
        use st2_isa::KernelBuilder;
        let k = KernelBuilder::new("noop").finish();
        let launch = LaunchConfig::new(4, 64);
        let cfg = GpuConfig::scaled(1);
        let mut core = SmCore::new(0, &cfg, 2);
        assert!(core.is_idle());
        assert!(core.admit_block(0, &k, launch));
        assert!(core.admit_block(1, &k, launch));
        assert!(!core.admit_block(2, &k, launch), "both slots occupied");
        assert!(!core.is_idle());
        assert_eq!(core.warps.len(), 2 * launch.warps_per_block() as usize);
    }
}
