//! Handlers: static and instance fields, allocation, arrays, type tests,
//! and monitors. Slow forms resolve through the shared `resolve_*`
//! helpers and rewrite their cell to the resolved handler (quickening);
//! in `Shared` mode statics and `new` take a second transition to the
//! init-elided handlers (the `*I` forms), modelling the baseline JIT's
//! dropped class-initialization check.

use super::{hi32, lo32, tchk, tfr, tpop, tpush, Ctx, Flow};
use crate::class::{ClassTarget, InitState};
use crate::engine::xinsn::XInsn;
use crate::heap::ObjBody;
use crate::ids::ClassId;
use crate::interp::{
    aioobe, alloc_prim_array, check_not_poisoned, ensure_initialized, internal_err, is_instance,
    npe, resolve_class, resolve_instance_field, resolve_static_field, InitAction,
};
use crate::monitor::{monitor_enter, monitor_exit, EnterResult};
use crate::value::Value;
use crate::vm::Thrown;

// ---- arrays ----

pub(crate) fn h_arrload(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let idx_v = tpop!(c).as_int();
    let arr = tpop!(c);
    let Some(arr) = arr.as_ref() else {
        return c.throw(npe());
    };
    let obj = c.vm.heap.get(arr);
    let len = obj.body.array_len().unwrap_or(0);
    if idx_v < 0 || idx_v as usize >= len {
        return c.throw(aioobe(idx_v, len));
    }
    let i = idx_v as usize;
    let v = match &obj.body {
        ObjBody::ArrInt(a) => Value::Int(a[i]),
        ObjBody::ArrLong(a) => Value::Long(a[i]),
        ObjBody::ArrFloat(a) => Value::Float(a[i]),
        ObjBody::ArrDouble(a) => Value::Double(a[i]),
        ObjBody::ArrRef { data, .. } => data[i],
        ObjBody::ArrByte(a) => Value::Int(a[i] as i32),
        ObjBody::ArrChar(a) => Value::Int(a[i] as i32),
        ObjBody::ArrShort(a) => Value::Int(a[i] as i32),
        ObjBody::ArrBool(a) => Value::Int(a[i] as i32),
        ObjBody::Fields(_) => return c.throw(internal_err("array load on non-array")),
    };
    tpush!(c, v);
    Flow::Next
}

pub(crate) fn h_arrstore(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let v = tpop!(c);
    let idx_v = tpop!(c).as_int();
    let arr = tpop!(c);
    let Some(arr) = arr.as_ref() else {
        return c.throw(npe());
    };
    let obj = c.vm.heap.get_mut(arr);
    let len = obj.body.array_len().unwrap_or(0);
    if idx_v < 0 || idx_v as usize >= len {
        return c.throw(aioobe(idx_v, len));
    }
    let i = idx_v as usize;
    match &mut obj.body {
        ObjBody::ArrInt(a) => a[i] = v.as_int(),
        ObjBody::ArrLong(a) => a[i] = v.as_long(),
        ObjBody::ArrFloat(a) => a[i] = v.as_float(),
        ObjBody::ArrDouble(a) => a[i] = v.as_double(),
        ObjBody::ArrRef { data, .. } => data[i] = v,
        ObjBody::ArrByte(a) => a[i] = v.as_int() as i8,
        ObjBody::ArrChar(a) => a[i] = v.as_int() as u16,
        ObjBody::ArrShort(a) => a[i] = v.as_int() as i16,
        ObjBody::ArrBool(a) => a[i] = (v.as_int() != 0) as u8,
        ObjBody::Fields(_) => return c.throw(internal_err("array store on non-array")),
    }
    Flow::Next
}

pub(crate) fn h_arraylength(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let r = tpop!(c);
    let Some(r) = r.as_ref() else {
        return c.throw(npe());
    };
    let len = c.vm.heap.get(r).body.array_len();
    let Some(len) = len else {
        return c.throw(internal_err("arraylength on non-array"));
    };
    tpush!(c, Value::Int(len as i32));
    Flow::Next
}

pub(crate) fn h_newarray(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let len = tpop!(c).as_int();
    if len < 0 {
        return c.throw(Thrown::ByName {
            class_name: "java/lang/NegativeArraySizeException",
            message: len.to_string(),
        });
    }
    let iso = c.vm.threads[c.t].current_isolate;
    let r = tchk!(c, alloc_prim_array(c.vm, iso, lo32(op) as u8, len as usize));
    tpush!(c, Value::Ref(r));
    Flow::Next
}

pub(crate) fn h_anewarray(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let class_id = tfr!(c).class;
    let target = tchk!(c, resolve_class(c.vm, class_id, lo32(op) as u16));
    let len = tpop!(c).as_int();
    if len < 0 {
        return c.throw(Thrown::ByName {
            class_name: "java/lang/NegativeArraySizeException",
            message: len.to_string(),
        });
    }
    let elem_desc = match &target {
        ClassTarget::Class(cl) => format!("L{};", c.vm.classes[cl.0 as usize].name),
        ClassTarget::Array(d) => d.clone(),
    };
    let iso = c.vm.threads[c.t].current_isolate;
    let size = crate::heap::OBJECT_HEADER_BYTES + len as usize * 8;
    tchk!(c, c.vm.check_heap(size, iso));
    let desc = format!("[{elem_desc}");
    let obj_class = c.vm.well_known.object.expect("bootstrap installed");
    let body = ObjBody::ArrRef {
        elem_desc,
        data: vec![Value::Null; len as usize].into_boxed_slice(),
    };
    let r = c.vm.alloc_raw(obj_class, iso, body, &desc);
    tpush!(c, Value::Ref(r));
    Flow::Next
}

// ---- static fields ----

pub(crate) fn h_getstatic_slow(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let class_id = tfr!(c).class;
    let (class, slot) = tchk!(c, resolve_static_field(c.vm, class_id, lo32(op) as u16));
    c.requicken(XInsn::GetStaticR { class, slot })
}

pub(crate) fn h_putstatic_slow(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let class_id = tfr!(c).class;
    let (class, slot) = tchk!(c, resolve_static_field(c.vm, class_id, lo32(op) as u16));
    c.requicken(XInsn::PutStaticR { class, slot })
}

/// Shared body of the resolved static access handlers. I-JVM cannot
/// quicken away the current-isolate load, mirror indirection, or init
/// state test (paper §3.1) — only the constant-pool resolution.
fn static_r(c: &mut Ctx<'_>, op: u64, is_get: bool) -> Flow {
    let class = ClassId(lo32(op));
    let slot = hi32(op);
    let iso = c.vm.threads[c.t].current_isolate;
    let mi = c.vm.mirror_index(iso);
    let ready_value = match c.vm.classes[class.0 as usize].mirrors.get(mi) {
        Some(Some(m)) if m.init == InitState::Initialized => Some(m.statics[slot as usize]),
        _ => None,
    };
    let hit = if let Some(v) = ready_value {
        if is_get {
            tpush!(c, v);
        } else {
            let v = tpop!(c);
            c.vm.classes[class.0 as usize].mirrors[mi]
                .as_mut()
                .expect("checked above")
                .statics[slot as usize] = v;
        }
        true
    } else {
        false
    };
    if !hit {
        c.flush_at(c.next);
        match ensure_initialized(c.vm, c.tid, class, iso) {
            Err(thrown) => return c.throw(thrown),
            Ok(InitAction::Ready) => {}
            Ok(InitAction::Suspend) => {
                // Re-execute this instruction once <clinit> ran.
                tfr!(c).pc = c.prepared.idx_to_pc[c.cur];
                return Flow::Outer;
            }
        }
        if is_get {
            let v = c.vm.classes[class.0 as usize].mirrors[mi]
                .as_ref()
                .expect("mirror created by ensure_initialized")
                .statics[slot as usize];
            tpush!(c, v);
        } else {
            let v = tpop!(c);
            c.vm.classes[class.0 as usize].mirrors[mi]
                .as_mut()
                .expect("mirror created by ensure_initialized")
                .statics[slot as usize] = v;
        }
    }
    if c.shared_mode {
        // Baseline fast path: the JIT removes the init check once the
        // class is initialized.
        c.prepared.threaded[c.cur].set(super::lower(if is_get {
            XInsn::GetStaticI { class, slot }
        } else {
            XInsn::PutStaticI { class, slot }
        }));
    }
    Flow::Next
}

pub(crate) fn h_getstatic_r(c: &mut Ctx<'_>, op: u64) -> Flow {
    static_r(c, op, true)
}

pub(crate) fn h_putstatic_r(c: &mut Ctx<'_>, op: u64) -> Flow {
    static_r(c, op, false)
}

pub(crate) fn h_getstatic_i(c: &mut Ctx<'_>, op: u64) -> Flow {
    let v = c.vm.classes[lo32(op) as usize].mirrors[0]
        .as_ref()
        .expect("fast entries only exist after init")
        .statics[hi32(op) as usize];
    tpush!(c, v);
    Flow::Next
}

pub(crate) fn h_putstatic_i(c: &mut Ctx<'_>, op: u64) -> Flow {
    let v = tpop!(c);
    c.vm.classes[lo32(op) as usize].mirrors[0]
        .as_mut()
        .expect("fast entries only exist after init")
        .statics[hi32(op) as usize] = v;
    Flow::Next
}

// ---- instance fields ----

pub(crate) fn h_getfield_slow(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let class_id = tfr!(c).class;
    let slot = tchk!(c, resolve_instance_field(c.vm, class_id, lo32(op) as u16));
    c.requicken(XInsn::GetFieldR(slot))
}

pub(crate) fn h_putfield_slow(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let class_id = tfr!(c).class;
    let slot = tchk!(c, resolve_instance_field(c.vm, class_id, lo32(op) as u16));
    c.requicken(XInsn::PutFieldR(slot))
}

pub(crate) fn h_getfield_r(c: &mut Ctx<'_>, op: u64) -> Flow {
    let r = tpop!(c);
    let Some(r) = r.as_ref() else {
        return c.throw(npe());
    };
    let obj = c.vm.heap.get(r);
    let ObjBody::Fields(fields) = &obj.body else {
        return c.throw(internal_err("getfield on array"));
    };
    let v = fields[lo32(op) as usize];
    tpush!(c, v);
    Flow::Next
}

pub(crate) fn h_putfield_r(c: &mut Ctx<'_>, op: u64) -> Flow {
    let v = tpop!(c);
    let r = tpop!(c);
    let Some(r) = r.as_ref() else {
        return c.throw(npe());
    };
    let obj = c.vm.heap.get_mut(r);
    let ObjBody::Fields(fields) = &mut obj.body else {
        return c.throw(internal_err("putfield on array"));
    };
    fields[lo32(op) as usize] = v;
    Flow::Next
}

// ---- objects ----

pub(crate) fn h_new_slow(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let class_id = tfr!(c).class;
    let target = tchk!(c, resolve_class(c.vm, class_id, lo32(op) as u16));
    let ClassTarget::Class(new_class) = target else {
        return c.throw(internal_err("new on array type"));
    };
    c.requicken(XInsn::NewR(new_class))
}

pub(crate) fn h_new_r(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let new_class = ClassId(lo32(op));
    let iso = c.vm.threads[c.t].current_isolate;
    tchk!(c, check_not_poisoned(c.vm, c.tid, new_class));
    if let Some(f) = c.ensure_class_ready(new_class) {
        return f;
    }
    if c.shared_mode {
        c.prepared.threaded[c.cur].set(super::lower(XInsn::NewI(new_class)));
    }
    let r = tchk!(c, c.vm.alloc_instance(new_class, iso));
    tpush!(c, Value::Ref(r));
    Flow::Next
}

/// Baseline fast path: init check elided, as a JIT would after first
/// execution.
pub(crate) fn h_new_i(c: &mut Ctx<'_>, op: u64) -> Flow {
    let iso = c.vm.threads[c.t].current_isolate;
    let r = tchk!(c, c.vm.alloc_instance(ClassId(lo32(op)), iso));
    tpush!(c, Value::Ref(r));
    Flow::Next
}

pub(crate) fn h_checkcast(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let class_id = tfr!(c).class;
    let target = tchk!(c, resolve_class(c.vm, class_id, lo32(op) as u16));
    let v = *tfr!(c).stack.last().expect("checkcast on empty stack");
    if let Value::Ref(r) = v {
        if !is_instance(c.vm, r, &target) {
            let from = c.vm.classes[c.vm.heap.get(r).class.0 as usize].name.clone();
            return c.throw(Thrown::ByName {
                class_name: "java/lang/ClassCastException",
                message: format!("{from} cannot be cast"),
            });
        }
    }
    Flow::Next
}

pub(crate) fn h_instanceof(c: &mut Ctx<'_>, op: u64) -> Flow {
    c.flush_at(c.next);
    let class_id = tfr!(c).class;
    let target = tchk!(c, resolve_class(c.vm, class_id, lo32(op) as u16));
    let v = tpop!(c);
    let res = match v {
        Value::Ref(r) => is_instance(c.vm, r, &target) as i32,
        _ => 0,
    };
    tpush!(c, Value::Int(res));
    Flow::Next
}

// ---- monitors ----

pub(crate) fn h_monitorenter(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let v = *tfr!(c).stack.last().expect("monitorenter on empty stack");
    let Some(r) = v.as_ref() else {
        tpop!(c);
        return c.throw(npe());
    };
    c.flush_at(c.next);
    match monitor_enter(c.vm, c.tid, r) {
        EnterResult::Acquired => {
            tpop!(c);
            Flow::Next
        }
        EnterResult::Blocked => {
            // Retry the monitorenter when rescheduled.
            tfr!(c).pc = c.prepared.idx_to_pc[c.cur];
            Flow::Yield
        }
    }
}

pub(crate) fn h_monitorexit(c: &mut Ctx<'_>, _op: u64) -> Flow {
    let v = tpop!(c);
    let Some(r) = v.as_ref() else {
        return c.throw(npe());
    };
    c.flush_at(c.next);
    tchk!(c, monitor_exit(c.vm, c.tid, r));
    Flow::Next
}
