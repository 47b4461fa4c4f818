//! The pre-decoded execution engine.
//!
//! The raw interpreter ([`crate::interp`]) re-decodes every instruction
//! from classfile bytes on every execution: an `Opcode::from_byte` table
//! lookup plus operand re-reads, branch-offset arithmetic and switch
//! re-alignment, and a constant-pool indirection for every field access
//! and call. This module removes all of that work from the hot path with
//! the classic VM *quickening* design, in three layers:
//!
//! 1. **Pre-decoding** ([`mod@predecode`]) — on a method's first execution its
//!    `Code` bytes are translated once into a dense, fixed-width, immutable
//!    [`XInsn`] stream with fused operands and branch targets resolved to
//!    instruction indices, plus a pc↔index map so exception tables (which
//!    stay byte-addressed) and suspension points keep working.
//! 2. **Threading** ([`handlers::lower`]) — in the same pass each
//!    [`XInsn`] lowers into a [`handlers::TCell`]: a handler function
//!    pointer plus operands packed into one `u64`.
//! 3. **Dispatch and quickening** — `handlers::step_thread_threaded`
//!    drives threads over the cell stream with an indirect call per
//!    instruction. Constant-pool-indexed instructions (`getfield`,
//!    `getstatic`, `invoke*`, `new`, …) start in slow form; the first
//!    execution resolves them and rewrites the *cell* in place to a
//!    direct-operand fast form. The interface-call inline caches the raw
//!    interpreter kept in `RtCp` become per-call-site caches, and string
//!    `ldc` sites gain a per-isolate, GC-epoch-guarded cache.
//!
//! Semantics are identical to the raw interpreter: instruction-budget
//! quanta, CPU-sampling weights, inter-isolate migration on invoke, and
//! `StoppedIsolateException` injection all behave the same, which the
//! differential tests assert with the raw engine as the oracle.
//!
//! The per-method [`PreparedCode`] cache hangs off
//! [`crate::class::RuntimeMethod::prepared`]; it is built lazily and torn
//! down with the owning loader when its isolate is terminated.
//! [`crate::vm::VmOptions::engine`] selects [`EngineKind::Threaded`] (the
//! default) or [`EngineKind::Raw`] (the oracle, kept for §4.4-style
//! ablations and A/B benchmarking).
//!
//! The engine's quantum hook doubles as the parallel scheduler's
//! migration point: when the instruction budget expires, fused
//! superinstructions de-fuse, pending exact CPU is flushable
//! ([`crate::vm::Vm::flush_pending_cpu`]), and control returns to the
//! driver — at which point the whole VM unit may hop to another OS
//! worker ([`crate::sched`]). All engine metadata migrates with it: the
//! interior-mutable caches here are single-VM state (see the `Sync`
//! safety note on [`PreparedCode`]), never shared across units.

pub mod handlers;
pub mod predecode;
pub mod xinsn;

pub use predecode::{predecode, predecode_with};
pub use xinsn::{
    CallSite, Cmp, CmpRhs, FusedCmp, IfaceSite, LdcSite, SwitchTable, TrapKind, VirtSite, XInsn,
    BAD_TARGET,
};

use crate::ids::MethodRef;
use crate::vm::Vm;
use crate::vmrc::VmRc;
use handlers::TCell;
use std::cell::{Cell, RefCell};

/// Which execution engine drives bytecode frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum EngineKind {
    /// Decode classfile bytes on every instruction (the seed interpreter;
    /// kept for ablation and differential testing).
    Raw,
    /// Direct-threaded dispatch (the default): each [`XInsn`] lowers once
    /// into a [`handlers::TCell`] carrying a handler function pointer
    /// plus packed operands, and the dispatch loop is an indirect call
    /// per instruction — no opcode `match` on the hot path. Quickening
    /// rewrites the cell's handler pointer in place.
    #[default]
    Threaded,
}

/// A method's pre-decoded, quickenable instruction stream plus the side
/// tables the stream indexes into.
#[derive(Debug)]
pub struct PreparedCode {
    /// The pre-decoded instruction stream, immutable once built
    /// (quickening rewrites the threaded cells, never this stream). Always
    /// ends with a [`xinsn::TrapKind::FellOffEnd`] guard, so execution
    /// running past the last real instruction faults cleanly without a
    /// per-instruction bounds check.
    pub insns: Box<[XInsn]>,
    /// Instruction index → start byte pc; the trailing guard's entry is
    /// `bytes.len()`, so "the pc after the last instruction" maps too.
    pub idx_to_pc: Box<[u32]>,
    /// Byte pc → instruction index, [`BAD_TARGET`] on non-boundaries.
    pub pc_to_idx: Box<[u32]>,
    /// `tableswitch`/`lookupswitch` payloads.
    pub switches: Box<[SwitchTable]>,
    /// Per-site state of pre-decoded `invokeinterface` instructions.
    pub iface_sites: Box<[IfaceSite]>,
    /// Payloads of [`XInsn::FusedCmpBr`] superinstructions, built by the
    /// pre-decode peephole pass.
    pub fused_cmps: Box<[FusedCmp]>,
    /// Fused call sites, appended when `invokestatic`/`invokespecial`
    /// sites quicken to their `F` forms. `RefCell` because quickening
    /// appends while the stream is shared with executing frames.
    pub call_sites: RefCell<Vec<VmRc<CallSite>>>,
    /// Fused `invokevirtual` sites, appended on first execution.
    pub virt_sites: RefCell<Vec<VirtSite>>,
    /// Quickened string-`ldc` sites, appended when an [`XInsn::LdcSlow`]
    /// over a string constant first executes.
    pub ldc_sites: RefCell<Vec<LdcSite>>,
    /// The direct-threaded cell stream, lowered from `insns` when the
    /// method is pre-decoded. Same length and indexing as `insns`;
    /// quickening rewrites these cells in place while the stream is
    /// shared with executing frames.
    threaded: Box<[Cell<TCell>]>,
    /// Profile counter: method entries at pc 0, bumped by the threaded
    /// engine only while the flight recorder is on
    /// ([`crate::vm::VmOptions::trace`]) — see
    /// [`crate::vm::Vm::top_methods`]. `Cell` like the quickening caches:
    /// interior-mutable, sound because a `Vm` is never shared across
    /// threads.
    pub hot_count: Cell<u64>,
    /// Profile counter: backward branches taken (loop iterations), under
    /// the same gate as `hot_count`.
    pub back_edges: Cell<u64>,
}

impl PreparedCode {
    /// The instruction index executing at byte pc `pc`, if `pc` is an
    /// instruction boundary.
    pub fn index_of_pc(&self, pc: u32) -> Option<u32> {
        match self.pc_to_idx.get(pc as usize) {
            Some(&idx) if idx != BAD_TARGET => Some(idx),
            _ => None,
        }
    }

    /// The start byte pc of instruction `idx`.
    pub fn pc_of_index(&self, idx: u32) -> Option<u32> {
        self.idx_to_pc.get(idx as usize).copied()
    }

    /// Approximate heap footprint, for metadata accounting.
    pub fn metadata_bytes(&self) -> usize {
        self.insns.len() * std::mem::size_of::<XInsn>()
            + self.idx_to_pc.len() * 4
            + self.pc_to_idx.len() * 4
            + self.switches.len() * std::mem::size_of::<SwitchTable>()
            + self.iface_sites.len() * std::mem::size_of::<IfaceSite>()
            + self.fused_cmps.len() * std::mem::size_of::<FusedCmp>()
            + self.call_sites.borrow().len() * std::mem::size_of::<CallSite>()
            + self.virt_sites.borrow().len() * std::mem::size_of::<VirtSite>()
            + self.ldc_sites.borrow().len() * std::mem::size_of::<LdcSite>()
            + self.threaded.len() * std::mem::size_of::<Cell<TCell>>()
    }
}

/// Captures `target`'s frame shape into a [`CallSite`], or `None` when
/// the target cannot take the fused call path (native, `synchronized`, or
/// abstract methods keep the shared `invoke_resolved` path, whose monitor
/// and native dispatch must run per call).
pub(crate) fn build_call_site(vm: &Vm, target: MethodRef) -> Option<VmRc<CallSite>> {
    let class = &vm.classes[target.class.0 as usize];
    let m = &class.methods[target.index as usize];
    if m.access.is_native() || m.synchronized {
        return None;
    }
    let code = m.code.as_ref()?.share();
    let is_system = class.is_system;
    // `None` routes the callee frame to the caller's isolate, exactly as
    // `Vm::make_frame` would (the predicate is shared, so the fused path
    // can never diverge from the raw interpreter's routing).
    let frame_isolate = if vm.frame_executes_in_caller(target) {
        None
    } else {
        Some(class.isolate)
    };
    Some(VmRc::new(CallSite {
        target,
        arg_slots: m.arg_slots,
        max_locals: code.max_locals,
        max_stack: code.max_stack,
        code,
        is_system,
        frame_isolate,
    }))
}

/// Returns `method`'s prepared stream, building and caching it on first
/// use. The cache lives on the [`crate::class::RuntimeMethod`] and is
/// dropped when the owning loader's isolate is terminated.
pub(crate) fn ensure_prepared(vm: &mut Vm, method: MethodRef) -> VmRc<PreparedCode> {
    let class = &vm.classes[method.class.0 as usize];
    let m = &class.methods[method.index as usize];
    if let Some(p) = &m.prepared {
        return p.share();
    }
    let code = m
        .code
        .as_ref()
        .expect("ensure_prepared on non-bytecode method")
        .share();
    let prepared = VmRc::new(predecode_with(
        &code,
        &class.pool,
        vm.options.superinstructions,
    ));
    vm.classes[method.class.0 as usize].methods[method.index as usize].prepared =
        Some(prepared.share());
    prepared
}
