//! The direct-threaded dispatch engine.
//!
//! Instead of a `match` over [`XInsn`], this module dispatches by *call
//! threading*: pre-decode lowers every `XInsn` once into a [`TCell`] — a
//! handler **function pointer** plus its operands packed into one `u64`
//! — and the dispatch loop is nothing but an indirect call per
//! instruction:
//!
//! ```text
//! loop { match (cells[idx].handler)(&mut ctx, cells[idx].operand) { … } }
//! ```
//!
//! # Handler calling convention
//!
//! A handler is `fn(&mut Ctx<'_>, u64) -> Flow`. The [`Ctx`] carries the
//! VM, the executing thread/frame, the [`PreparedCode`], and the quantum
//! bookkeeping (`consumed`/`local_insns`); the `u64` is the cell's packed
//! operand (slot numbers, branch targets, side-table indices, resolved
//! class/slot pairs — see the `pack_*` helpers). A handler "tail-jumps"
//! by returning [`Flow`]:
//!
//! * [`Flow::Next`] — continue at `ctx.next` (pre-set to the following
//!   cell; branch handlers overwrite it with their target index);
//! * [`Flow::Redo`] — the handler quickened itself (rewrote its own cell
//!   to a faster handler); re-dispatch the same cell without recounting
//!   the instruction;
//! * [`Flow::Outer`] — control left the current frame (call, return,
//!   exception, suspension); re-run the frame prologue;
//! * [`Flow::Yield`] — the thread cannot make progress; give the quantum
//!   back to the scheduler.
//!
//! Quickening is a handler-pointer rewrite: a slow handler (e.g.
//! `objects::h_getstatic_slow`) resolves through the same `resolve_*`
//! helpers as the raw interpreter, then `Cell::set`s its own cell to the
//! fast handler with resolved operands and returns `Flow::Redo`.
//!
//! Semantics are intentionally bit-identical to the raw interpreter: the
//! same per-logical-instruction budget accounting, the same flush points
//! into `insns_since_switch`, superinstructions de-fused at quantum
//! boundaries, and the same byte-pc frame suspension. The engine
//! differential suite asserts this against the raw oracle.

pub(crate) mod arith;
pub(crate) mod data;
pub(crate) mod flow;
pub(crate) mod invoke;
pub(crate) mod objects;

use super::xinsn::{TrapKind, XInsn};
use super::{ensure_prepared, EngineKind, PreparedCode};
use crate::ids::{ClassId, MethodRef, ThreadId};
use crate::interp::{
    ensure_initialized, frame_prologue, invoke_fused, invoke_resolved, materialize, unwind,
    InitAction, InvokeAction, Prologue,
};
use crate::vm::{IsolationMode, Thrown, Vm};

/// A handler function: executes one instruction given its packed operand.
pub type Handler = fn(&mut Ctx<'_>, u64) -> Flow;

/// One direct-threaded cell: the handler pointer plus its operands packed
/// into a single word. 16 bytes, `Copy`, so the stream is a dense array
/// and quickening is a single `Cell::set` of the whole cell.
#[derive(Debug, Clone, Copy)]
pub struct TCell {
    /// The instruction's handler.
    pub handler: Handler,
    /// Packed operands (see the `pack_*`/`unpack_*` helpers).
    pub operand: u64,
}

/// What a handler tells the dispatch loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Continue at `ctx.next` (the following cell unless a branch
    /// overwrote it).
    Next,
    /// The cell was rewritten (quickening); re-dispatch it without
    /// recounting the instruction.
    Redo,
    /// Control left the frame; re-run the frame prologue.
    Outer,
    /// The thread cannot make progress; return the consumed count.
    Yield,
}

/// Everything a handler can touch, threaded through the dispatch loop.
pub struct Ctx<'a> {
    /// The VM.
    pub vm: &'a mut Vm,
    /// Executing thread.
    pub tid: ThreadId,
    /// `tid.0 as usize`, hoisted.
    pub t: usize,
    /// Index of the executing frame in the thread's frame stack.
    pub fidx: usize,
    /// The method's prepared streams and side tables.
    pub prepared: &'a PreparedCode,
    /// The instruction budget for this step call.
    pub budget: u32,
    /// Instructions flushed so far this step call.
    pub consumed: u32,
    /// Instructions executed since the last flush.
    pub local_insns: u32,
    /// Index of the cell being executed.
    pub cur: usize,
    /// Index the dispatch loop continues at on [`Flow::Next`].
    pub next: usize,
    /// `IsolationMode::Shared`, hoisted (enables the init-elided forms).
    pub shared_mode: bool,
}

// Hot-path frame helpers as macros so the borrow ends at the statement.
macro_rules! tfr {
    ($c:expr) => {
        $c.vm.threads[$c.t].frames[$c.fidx]
    };
}
macro_rules! tpush {
    ($c:expr, $v:expr) => {
        $crate::engine::handlers::tfr!($c).stack.push($v)
    };
}
macro_rules! tpop {
    ($c:expr) => {
        $crate::engine::handlers::tfr!($c)
            .stack
            .pop()
            .expect("operand stack underflow")
    };
}
/// Unwraps a `Result` or throws its error from the current cell.
macro_rules! tchk {
    ($c:expr, $r:expr) => {
        match $r {
            Ok(v) => v,
            Err(thrown) => return $c.throw(thrown),
        }
    };
}
pub(crate) use {tchk, tfr, tpop, tpush};

impl Ctx<'_> {
    /// Flushes pending instruction counts and records the byte pc of
    /// instruction index `i` as the frame's resume point.
    #[inline]
    pub fn flush_at(&mut self, i: usize) {
        tfr!(self).pc = self.prepared.idx_to_pc[i];
        self.vm.threads[self.t].insns_since_switch += self.local_insns as u64;
        self.consumed += self.local_insns;
        self.local_insns = 0;
    }

    /// Raises a Java exception from the current instruction; handler
    /// ranges match against the faulting instruction's start pc.
    #[cold]
    pub(crate) fn throw(&mut self, thrown: Thrown) -> Flow {
        self.flush_at(self.cur);
        let ex = materialize(self.vm, self.tid, thrown);
        if unwind(self.vm, self.tid, ex) {
            Flow::Outer
        } else {
            Flow::Yield
        }
    }

    /// Redirects dispatch to a branch target, faulting on targets inside
    /// another instruction's operands.
    #[inline]
    pub fn branch_to(&mut self, target: u32) -> Flow {
        if target == super::BAD_TARGET {
            return self.throw(crate::interp::internal_err(
                "branch into the middle of an instruction",
            ));
        }
        if target as usize <= self.cur && self.vm.trace_enabled {
            self.prepared
                .back_edges
                .set(self.prepared.back_edges.get() + 1);
        }
        self.next = target as usize;
        Flow::Next
    }

    /// Rewrites the current cell to the lowering of `x` (the quickening
    /// transition) and re-dispatches it.
    #[inline]
    pub fn requicken(&mut self, x: XInsn) -> Flow {
        self.prepared.threaded[self.cur].set(lower(x));
        Flow::Redo
    }

    /// Performs a call whose target method is already resolved and routes
    /// the outcome.
    pub fn finish_invoke(&mut self, target: MethodRef, arg_slots: u16) -> Flow {
        let insn_pc = self.prepared.idx_to_pc[self.cur] as usize;
        match invoke_resolved(self.vm, self.tid, self.fidx, target, arg_slots, insn_pc) {
            Err(thrown) => self.throw(thrown),
            Ok(InvokeAction::FramePushed | InvokeAction::Suspended) => Flow::Outer,
            Ok(InvokeAction::NativeDone) => {
                if !self.vm.threads[self.t].is_runnable()
                    || self.vm.threads[self.t].pending_exception.is_some()
                {
                    Flow::Outer
                } else {
                    Flow::Next
                }
            }
        }
    }

    /// Calls through a fused call site; the callee frame always pushes,
    /// so control yields back to the prologue.
    pub fn fused_call(&mut self, site: &super::CallSite) -> Flow {
        match invoke_fused(self.vm, self.tid, self.fidx, site) {
            Err(thrown) => self.throw(thrown),
            Ok(()) => Flow::Outer,
        }
    }

    /// The per-execution class-initialization check I-JVM cannot elide in
    /// Isolated mode (paper §3.1). `None` means ready — proceed; `Some`
    /// carries the flow to return (suspension or thrown error).
    pub fn ensure_class_ready(&mut self, class: ClassId) -> Option<Flow> {
        let cur_iso = self.vm.threads[self.t].current_isolate;
        let mi = self.vm.mirror_index(cur_iso);
        let ready = matches!(
            self.vm.classes[class.0 as usize].mirrors.get(mi),
            Some(Some(m)) if m.init == crate::class::InitState::Initialized
        );
        if !ready {
            match ensure_initialized(self.vm, self.tid, class, cur_iso) {
                Err(thrown) => return Some(self.throw(thrown)),
                Ok(InitAction::Ready) => {}
                Ok(InitAction::Suspend) => {
                    tfr!(self).pc = self.prepared.idx_to_pc[self.cur];
                    return Some(Flow::Outer);
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Operand packing
// ---------------------------------------------------------------------

#[inline]
pub(crate) fn pack2(a: u32, b: u32) -> u64 {
    a as u64 | (b as u64) << 32
}
#[inline]
pub(crate) fn lo32(op: u64) -> u32 {
    op as u32
}
#[inline]
pub(crate) fn hi32(op: u64) -> u32 {
    (op >> 32) as u32
}

/// Packs a resolved method target plus arg slots: `class | index << 32 |
/// arg_slots << 48`.
#[inline]
pub(crate) fn pack_method(target: MethodRef, arg_slots: u16) -> u64 {
    target.class.0 as u64 | (target.index as u64) << 32 | (arg_slots as u64) << 48
}
#[inline]
pub(crate) fn unpack_method(op: u64) -> (MethodRef, u16) {
    (
        MethodRef {
            class: ClassId(op as u32),
            index: (op >> 32) as u16,
        },
        (op >> 48) as u16,
    )
}

/// Encodes a [`super::Cmp`] into 3 operand bits.
#[inline]
pub(crate) fn cmp_code(c: super::Cmp) -> u64 {
    use super::Cmp::*;
    match c {
        Eq => 0,
        Ne => 1,
        Lt => 2,
        Ge => 3,
        Gt => 4,
        Le => 5,
    }
}
#[inline]
pub(crate) fn cmp_from(code: u32) -> super::Cmp {
    use super::Cmp::*;
    match code {
        0 => Eq,
        1 => Ne,
        2 => Lt,
        3 => Ge,
        4 => Gt,
        _ => Le,
    }
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// Lowers one [`XInsn`] into its threaded cell: handler pointer + packed
/// operands. Total over every variant (including resolved fast forms, so
/// quickening transitions reuse it: `requicken(XInsn::…)`).
pub fn lower(x: XInsn) -> TCell {
    use XInsn as X;
    let c = |handler: Handler, operand: u64| TCell { handler, operand };
    match x {
        X::Nop => c(data::h_nop, 0),
        // ---- constants ----
        X::AConstNull => c(data::h_aconst_null, 0),
        X::IConst(v) => c(data::h_iconst, v as u32 as u64),
        X::LConst(v) => c(data::h_lconst, v as u64),
        X::FConst(v) => c(data::h_fconst, v.to_bits() as u64),
        X::DConst(v) => c(data::h_dconst, v.to_bits()),
        X::LdcSlow(cp) => c(data::h_ldc_slow, cp as u64),
        X::LdcStr(si) => c(data::h_ldc_str, si as u64),
        // ---- locals ----
        X::Load(n) => c(data::h_load, n as u64),
        X::Store(n) => c(data::h_store, n as u64),
        X::Iinc { slot, delta } => c(data::h_iinc, slot as u64 | (delta as u16 as u64) << 16),
        // ---- superinstructions ----
        X::AddStore { a, b, c: dst } => c(
            flow::h_addstore,
            a as u64 | (b as u64) << 16 | (dst as u64) << 32,
        ),
        X::FusedCmpBr(si) => c(flow::h_fusedcmpbr, si as u64),
        // ---- arrays ----
        X::ArrLoad => c(objects::h_arrload, 0),
        X::ArrStore => c(objects::h_arrstore, 0),
        X::ArrayLength => c(objects::h_arraylength, 0),
        X::NewArray(atype) => c(objects::h_newarray, atype as u64),
        X::ANewArray(cp) => c(objects::h_anewarray, cp as u64),
        // ---- operand stack ----
        X::Pop => c(data::h_pop, 0),
        X::Pop2 => c(data::h_pop2, 0),
        X::Dup => c(data::h_dup, 0),
        X::DupX1 => c(data::h_dup_x1, 0),
        X::DupX2 => c(data::h_dup_x2, 0),
        X::Dup2 => c(data::h_dup2, 0),
        X::Dup2X1 => c(data::h_dup2_x1, 0),
        X::Dup2X2 => c(data::h_dup2_x2, 0),
        X::Swap => c(data::h_swap, 0),
        // ---- arithmetic ----
        X::Iadd => c(arith::h_iadd, 0),
        X::Isub => c(arith::h_isub, 0),
        X::Imul => c(arith::h_imul, 0),
        X::Idiv => c(arith::h_idiv, 0),
        X::Irem => c(arith::h_irem, 0),
        X::Ineg => c(arith::h_ineg, 0),
        X::Ladd => c(arith::h_ladd, 0),
        X::Lsub => c(arith::h_lsub, 0),
        X::Lmul => c(arith::h_lmul, 0),
        X::Ldiv => c(arith::h_ldiv, 0),
        X::Lrem => c(arith::h_lrem, 0),
        X::Lneg => c(arith::h_lneg, 0),
        X::Fadd => c(arith::h_fadd, 0),
        X::Fsub => c(arith::h_fsub, 0),
        X::Fmul => c(arith::h_fmul, 0),
        X::Fdiv => c(arith::h_fdiv, 0),
        X::Frem => c(arith::h_frem, 0),
        X::Fneg => c(arith::h_fneg, 0),
        X::Dadd => c(arith::h_dadd, 0),
        X::Dsub => c(arith::h_dsub, 0),
        X::Dmul => c(arith::h_dmul, 0),
        X::Ddiv => c(arith::h_ddiv, 0),
        X::Drem => c(arith::h_drem, 0),
        X::Dneg => c(arith::h_dneg, 0),
        X::Ishl => c(arith::h_ishl, 0),
        X::Ishr => c(arith::h_ishr, 0),
        X::Iushr => c(arith::h_iushr, 0),
        X::Lshl => c(arith::h_lshl, 0),
        X::Lshr => c(arith::h_lshr, 0),
        X::Lushr => c(arith::h_lushr, 0),
        X::Iand => c(arith::h_iand, 0),
        X::Ior => c(arith::h_ior, 0),
        X::Ixor => c(arith::h_ixor, 0),
        X::Land => c(arith::h_land, 0),
        X::Lor => c(arith::h_lor, 0),
        X::Lxor => c(arith::h_lxor, 0),
        // ---- conversions ----
        X::I2l => c(arith::h_i2l, 0),
        X::I2f => c(arith::h_i2f, 0),
        X::I2d => c(arith::h_i2d, 0),
        X::L2i => c(arith::h_l2i, 0),
        X::L2f => c(arith::h_l2f, 0),
        X::L2d => c(arith::h_l2d, 0),
        X::F2i => c(arith::h_f2i, 0),
        X::F2l => c(arith::h_f2l, 0),
        X::F2d => c(arith::h_f2d, 0),
        X::D2i => c(arith::h_d2i, 0),
        X::D2l => c(arith::h_d2l, 0),
        X::D2f => c(arith::h_d2f, 0),
        X::I2b => c(arith::h_i2b, 0),
        X::I2c => c(arith::h_i2c, 0),
        X::I2s => c(arith::h_i2s, 0),
        // ---- comparisons ----
        X::Lcmp => c(arith::h_lcmp, 0),
        X::Fcmp { nan_is_one } => c(arith::h_fcmp, nan_is_one as u64),
        X::Dcmp { nan_is_one } => c(arith::h_dcmp, nan_is_one as u64),
        // ---- branches ----
        X::If { cmp, target } => c(flow::h_if, target as u64 | cmp_code(cmp) << 32),
        X::IfICmp { cmp, target } => c(flow::h_ificmp, target as u64 | cmp_code(cmp) << 32),
        X::IfACmp { eq, target } => c(flow::h_ifacmp, target as u64 | (eq as u64) << 32),
        X::IfNull { is_null, target } => c(flow::h_ifnull, target as u64 | (is_null as u64) << 32),
        X::Goto(target) => c(flow::h_goto, target as u64),
        X::TableSwitch(si) => c(flow::h_tableswitch, si as u64),
        X::LookupSwitch(si) => c(flow::h_lookupswitch, si as u64),
        // ---- returns ----
        X::Return => c(flow::h_return, 0),
        X::ReturnValue => c(flow::h_return_value, 0),
        // ---- fields ----
        X::GetStatic(cp) => c(objects::h_getstatic_slow, cp as u64),
        X::PutStatic(cp) => c(objects::h_putstatic_slow, cp as u64),
        X::GetStaticR { class, slot } => c(objects::h_getstatic_r, pack2(class.0, slot)),
        X::PutStaticR { class, slot } => c(objects::h_putstatic_r, pack2(class.0, slot)),
        X::GetStaticI { class, slot } => c(objects::h_getstatic_i, pack2(class.0, slot)),
        X::PutStaticI { class, slot } => c(objects::h_putstatic_i, pack2(class.0, slot)),
        X::GetField(cp) => c(objects::h_getfield_slow, cp as u64),
        X::PutField(cp) => c(objects::h_putfield_slow, cp as u64),
        X::GetFieldR(slot) => c(objects::h_getfield_r, slot as u64),
        X::PutFieldR(slot) => c(objects::h_putfield_r, slot as u64),
        // ---- invocation ----
        X::InvokeStatic(cp) => c(invoke::h_invokestatic_slow, cp as u64),
        X::InvokeSpecial(cp) => c(invoke::h_invokespecial_slow, cp as u64),
        X::InvokeStaticR { target, arg_slots } => {
            c(invoke::h_invokestatic_r, pack_method(target, arg_slots))
        }
        X::InvokeStaticI { target, arg_slots } => {
            c(invoke::h_invoke_direct, pack_method(target, arg_slots))
        }
        X::InvokeDirectR { target, arg_slots } => {
            c(invoke::h_invoke_direct, pack_method(target, arg_slots))
        }
        X::InvokeStaticF(si) => c(invoke::h_invokestatic_f, si as u64),
        X::InvokeStaticFI(si) => c(invoke::h_invoke_fused_site, si as u64),
        X::InvokeDirectF(si) => c(invoke::h_invoke_fused_site, si as u64),
        X::InvokeVirtual(cp) => c(invoke::h_invokevirtual_slow, cp as u64),
        X::InvokeVirtualR { vslot, arg_slots } => {
            c(invoke::h_invokevirtual_r, pack2(vslot, arg_slots as u32))
        }
        X::InvokeVirtualF(si) => c(invoke::h_invokevirtual_f, si as u64),
        X::InvokeInterface(site) => c(invoke::h_invokeinterface, site as u64),
        X::InvokeIfaceSlow(cp) => c(invoke::h_invokeiface_slow, cp as u64),
        // ---- objects ----
        X::New(cp) => c(objects::h_new_slow, cp as u64),
        X::NewR(class) => c(objects::h_new_r, class.0 as u64),
        X::NewI(class) => c(objects::h_new_i, class.0 as u64),
        X::Athrow => c(flow::h_athrow, 0),
        X::Checkcast(cp) => c(objects::h_checkcast, cp as u64),
        X::InstanceOf(cp) => c(objects::h_instanceof, cp as u64),
        X::MonitorEnter => c(objects::h_monitorenter, 0),
        X::MonitorExit => c(objects::h_monitorexit, 0),
        // ---- traps ----
        X::Invalid(byte) => c(flow::h_invalid, byte as u64),
        X::Trap(kind) => c(
            flow::h_trap,
            match kind {
                TrapKind::Truncated => 0,
                TrapKind::BadBranch => 1,
                TrapKind::FellOffEnd => 2,
            },
        ),
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// Executes thread `tid` for at most `budget` instructions over the
/// threaded cell stream, returning how many were consumed. Structure and
/// accounting mirror the raw interpreter's `step_thread_raw` exactly.
pub(crate) fn step_thread_threaded(vm: &mut Vm, tid: ThreadId, budget: u32) -> u32 {
    debug_assert_eq!(vm.options.engine, EngineKind::Threaded);
    let t = tid.0 as usize;
    let mut consumed: u32 = 0;

    'outer: while consumed < budget {
        let fidx = match frame_prologue(vm, tid) {
            Prologue::Run(fidx) => fidx,
            Prologue::Redeliver => continue 'outer,
            Prologue::Yield => return consumed,
        };

        let method = vm.threads[t].frames[fidx].method;
        let prepared = ensure_prepared(vm, method);
        let entry_pc = vm.threads[t].frames[fidx].pc;
        // Profiling seed for the JIT tier: count method entries (pc 0 ⇒
        // a fresh invocation, not a resumed frame). Approximate — a
        // frame suspended at pc 0 recounts on resume — and gated on the
        // recorder so untraced dispatch pays nothing.
        if vm.trace_enabled && entry_pc == 0 {
            prepared.hot_count.set(prepared.hot_count.get() + 1);
        }
        let Some(entry_idx) = prepared.index_of_pc(entry_pc) else {
            // Only reachable through malformed hand-crafted code; the raw
            // engine would read garbage here, we fail cleanly.
            let ex = materialize(
                vm,
                tid,
                Thrown::ByName {
                    class_name: "java/lang/VerifyError",
                    message: format!("pc {entry_pc} is not an instruction boundary"),
                },
            );
            if unwind(vm, tid, ex) {
                continue 'outer;
            }
            return consumed;
        };
        let tcells = &prepared.threaded[..];
        let shared_mode = vm.options.isolation == IsolationMode::Shared;
        let mut ctx = Ctx {
            vm,
            tid,
            t,
            fidx,
            prepared: &prepared,
            budget,
            consumed,
            local_insns: 0,
            cur: entry_idx as usize,
            next: entry_idx as usize,
            shared_mode,
        };

        let mut idx = entry_idx as usize;
        loop {
            if ctx.consumed + ctx.local_insns >= budget {
                ctx.flush_at(idx);
                return ctx.consumed;
            }
            ctx.cur = idx;
            ctx.next = idx + 1;
            ctx.local_insns += 1;
            let mut cell = tcells[idx].get();
            loop {
                match (cell.handler)(&mut ctx, cell.operand) {
                    Flow::Next => break,
                    Flow::Redo => cell = tcells[ctx.cur].get(),
                    Flow::Outer => {
                        consumed = ctx.consumed;
                        continue 'outer;
                    }
                    Flow::Yield => return ctx.consumed,
                }
            }
            idx = ctx.next;
        }
    }
    consumed
}

// Re-borrow note: `tcells` and `ctx.prepared` are shared borrows of the
// `Arc<PreparedCode>` owned by the loop iteration, while `ctx.vm` holds
// the exclusive VM borrow — the streams live outside the VM object, so
// handlers can rewrite cells while mutating VM state.

/// Exercises lowering totality: every `XInsn` must have a cell (compile
/// fails otherwise because `lower` has no catch-all arm).
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowering_packs_and_unpacks_methods() {
        let target = MethodRef {
            class: ClassId(0xABCD_1234),
            index: 0x5678,
        };
        let (m, a) = unpack_method(pack_method(target, 0x9ABC));
        assert_eq!(m, target);
        assert_eq!(a, 0x9ABC);
    }

    #[test]
    fn cmp_codes_round_trip() {
        use crate::engine::Cmp;
        for c in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Ge, Cmp::Gt, Cmp::Le] {
            assert_eq!(cmp_from(cmp_code(c) as u32), c);
        }
    }
}
