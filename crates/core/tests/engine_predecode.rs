//! Golden tests for the pre-decoder: classfile bytes → `XInsn` stream
//! (fused and unfused), plus property tests for the pc↔index maps.

use ijvm_classfile::{AccessFlags, ClassBuilder, ClassFile, Opcode};
use ijvm_core::class::CodeBody;
use ijvm_core::engine::{
    predecode, predecode_with, Cmp, CmpRhs, FusedCmp, PreparedCode, SwitchTable, TrapKind, XInsn,
    BAD_TARGET,
};
use proptest::prelude::*;

const STATIC: AccessFlags = AccessFlags(AccessFlags::PUBLIC.0 | AccessFlags::STATIC.0);

/// Builds a one-class file and pre-decodes `method`'s code with the
/// superinstruction peephole enabled (the production default).
fn predecode_method(cf: &ClassFile, method: &str) -> PreparedCode {
    predecode_method_with(cf, method, true)
}

fn predecode_method_with(cf: &ClassFile, method: &str, fuse: bool) -> PreparedCode {
    let m = cf
        .methods
        .iter()
        .find(|m| cf.pool.utf8_at(m.name).unwrap() == method)
        .expect("method exists");
    let code = m.code.as_ref().expect("method has code");
    let body = CodeBody {
        max_stack: code.max_stack,
        max_locals: code.max_locals,
        bytes: code.code.clone(),
        handlers: code.exception_table.clone(),
    };
    predecode_with(&body, &cf.pool, fuse)
}

fn build_class(build: impl FnOnce(&mut ClassBuilder)) -> ClassFile {
    let mut cb = ClassBuilder::new("G", "java/lang/Object", AccessFlags::PUBLIC);
    build(&mut cb);
    cb.build().expect("builds")
}

/// The decoded stream minus the fell-off-end guard every stream ends
/// with (asserted separately in `streams_end_with_guard`).
fn body_insns(p: &PreparedCode) -> Vec<XInsn> {
    let all: Vec<XInsn> = p.insns.to_vec();
    assert_eq!(*all.last().unwrap(), XInsn::Trap(TrapKind::FellOffEnd));
    all[..all.len() - 1].to_vec()
}

/// The arithmetic-loop classfile shared by the fused/unfused goldens:
/// `static int sum(int n) { int acc = 0; for (i = 0; i < n; i++) acc += i; return acc; }`
fn arithmetic_loop_class() -> ClassFile {
    build_class(|cb| {
        let mut m = cb.method("sum", "(I)I", STATIC);
        let head = m.new_label();
        let exit = m.new_label();
        m.const_int(0); // acc
        m.istore(1);
        m.const_int(0); // i
        m.istore(2);
        m.bind(head);
        m.iload(2);
        m.iload(0);
        m.branch(Opcode::IfIcmpge, exit);
        m.iload(1);
        m.iload(2);
        m.op(Opcode::Iadd);
        m.istore(1);
        m.iinc(2, 1);
        m.goto(head);
        m.bind(exit);
        m.iload(1);
        m.op(Opcode::Ireturn);
        m.done().unwrap();
    })
}

#[test]
fn golden_arithmetic_loop_unfused() {
    let cf = arithmetic_loop_class();
    let p = predecode_method_with(&cf, "sum", false);
    let insns = body_insns(&p);
    // Every *load/*store family collapses to typeless Load/Store; the
    // loop-head branch targets are instruction indices.
    assert_eq!(
        insns,
        vec![
            XInsn::IConst(0),
            XInsn::Store(1),
            XInsn::IConst(0),
            XInsn::Store(2),
            XInsn::Load(2), // index 4 == loop head
            XInsn::Load(0),
            XInsn::IfICmp {
                cmp: Cmp::Ge,
                target: 13
            },
            XInsn::Load(1),
            XInsn::Load(2),
            XInsn::Iadd,
            XInsn::Store(1),
            XInsn::Iinc { slot: 2, delta: 1 },
            XInsn::Goto(4),
            XInsn::Load(1), // index 13 == loop exit
            XInsn::ReturnValue,
        ]
    );
    assert!(p.fused_cmps.is_empty());
}

#[test]
fn golden_arithmetic_loop_fused() {
    // The same loop with the peephole on: the loop-head compare fuses to
    // FusedCmpBr (Load+Load+IfICmp) and the accumulate body to AddStore
    // (Load+Load+Iadd+Store). Fusion is non-destructive: only the first
    // cell of each pattern is rewritten; the tails keep their original
    // instructions so mid-pattern branch targets and resume pcs work.
    let cf = arithmetic_loop_class();
    let p = predecode_method(&cf, "sum");
    let insns = body_insns(&p);
    assert_eq!(
        insns,
        vec![
            XInsn::IConst(0),
            XInsn::Store(1),
            XInsn::IConst(0),
            XInsn::Store(2),
            XInsn::FusedCmpBr(0), // index 4 == loop head, fused width 3
            XInsn::Load(0),       // pattern tail, intact
            XInsn::IfICmp {
                cmp: Cmp::Ge,
                target: 13
            },
            XInsn::AddStore { a: 1, b: 2, c: 1 }, // fused width 4
            XInsn::Load(2),                       // pattern tail, intact
            XInsn::Iadd,
            XInsn::Store(1),
            XInsn::Iinc { slot: 2, delta: 1 },
            XInsn::Goto(4),
            XInsn::Load(1), // index 13 == loop exit
            XInsn::ReturnValue,
        ]
    );
    assert_eq!(
        p.fused_cmps.as_ref(),
        &[FusedCmp {
            slot: 2,
            rhs: CmpRhs::Local(0),
            cmp: Cmp::Ge,
            target: 13,
        }]
    );
    // The pc↔index maps are identical to the unfused stream's.
    let unfused = predecode_method_with(&cf, "sum", false);
    assert_eq!(p.idx_to_pc, unfused.idx_to_pc);
    assert_eq!(p.pc_to_idx, unfused.pc_to_idx);
}

#[test]
fn golden_load_const_compare_fuses() {
    // while (i < 100) { i++; }  — the Load+IConst+IfICmp family.
    let cf = build_class(|cb| {
        let mut m = cb.method("spin", "()I", STATIC);
        let head = m.new_label();
        let exit = m.new_label();
        m.const_int(0);
        m.istore(0);
        m.bind(head);
        m.iload(0);
        m.const_int(100);
        m.branch(Opcode::IfIcmpge, exit);
        m.iinc(0, 1);
        m.goto(head);
        m.bind(exit);
        m.iload(0);
        m.op(Opcode::Ireturn);
        m.done().unwrap();
    });
    let p = predecode_method(&cf, "spin");
    let insns = body_insns(&p);
    let XInsn::FusedCmpBr(si) = insns[2] else {
        panic!(
            "expected fused compare at the loop head, got {:?}",
            insns[2]
        );
    };
    assert_eq!(
        p.fused_cmps[si as usize],
        FusedCmp {
            slot: 0,
            rhs: CmpRhs::Const(100),
            cmp: Cmp::Ge,
            target: 7,
        }
    );
    // Tail cells keep the original instructions.
    assert_eq!(insns[3], XInsn::IConst(100));
    assert!(matches!(insns[4], XInsn::IfICmp { .. }));
}

#[test]
fn golden_numeric_ldc_folds_to_immediates() {
    let cf = build_class(|cb| {
        let mut m = cb.method("k", "()D", STATIC);
        m.const_int(123_456_789); // too wide for sipush: goes through ldc
        m.op(Opcode::Pop);
        m.const_long(1 << 40);
        m.op(Opcode::Pop);
        m.const_float(2.5);
        m.op(Opcode::Pop);
        m.const_double(6.25);
        m.op(Opcode::Dreturn);
        m.done().unwrap();
    });
    let p = predecode_method(&cf, "k");
    let insns = body_insns(&p);
    assert_eq!(
        insns,
        vec![
            XInsn::IConst(123_456_789),
            XInsn::Pop,
            XInsn::LConst(1 << 40),
            XInsn::Pop,
            XInsn::FConst(2.5),
            XInsn::Pop,
            XInsn::DConst(6.25),
            XInsn::ReturnValue,
        ]
    );
}

#[test]
fn golden_pool_indexed_ops_start_in_slow_form() {
    let cf = build_class(|cb| {
        cb.field("counter", "I", STATIC);
        let mut m = cb.method("touch", "(LG;)V", STATIC);
        m.getstatic("G", "counter", "I");
        m.op(Opcode::Pop);
        m.aload(0);
        m.getfield("G", "x", "I");
        m.op(Opcode::Pop);
        m.aload(0);
        m.invokestatic("G", "touch", "(LG;)V");
        m.new_object("G");
        m.op(Opcode::Pop);
        m.op(Opcode::Return);
        m.done().unwrap();
    });
    let p = predecode_method(&cf, "touch");
    let insns = body_insns(&p);
    assert!(
        matches!(insns[0], XInsn::GetStatic(cp) if cp != 0),
        "{:?}",
        insns[0]
    );
    assert!(matches!(insns[3], XInsn::GetField(_)), "{:?}", insns[3]);
    assert!(matches!(insns[6], XInsn::InvokeStatic(_)), "{:?}", insns[6]);
    assert!(matches!(insns[7], XInsn::New(_)), "{:?}", insns[7]);
}

#[test]
fn golden_interface_sites_carry_arg_slots() {
    let cf = build_class(|cb| {
        let mut m = cb.method("call", "(Ljava/lang/Object;II)I", STATIC);
        m.aload(0);
        m.iload(1);
        m.iload(2);
        m.invokeinterface("Calc", "apply", "(II)I");
        m.op(Opcode::Ireturn);
        m.done().unwrap();
    });
    let p = predecode_method(&cf, "call");
    let insns = body_insns(&p);
    let XInsn::InvokeInterface(site) = insns[3] else {
        panic!("expected pre-decoded interface site, got {:?}", insns[3]);
    };
    let site = &p.iface_sites[site as usize];
    assert_eq!(&*site.name, "apply");
    assert_eq!(&*site.descriptor, "(II)I");
    assert_eq!(site.arg_slots, 3); // receiver + two ints
    assert!(site.cache.get().is_none(), "cache starts cold");
}

#[test]
fn golden_switches_unpack_into_side_tables() {
    let cf = build_class(|cb| {
        let mut m = cb.method("sel", "(I)I", STATIC);
        let (a, b, def) = (m.new_label(), m.new_label(), m.new_label());
        m.iload(0);
        m.tableswitch(def, 5, &[a, b]);
        m.bind(a);
        m.const_int(1);
        m.op(Opcode::Ireturn);
        m.bind(b);
        m.const_int(2);
        m.op(Opcode::Ireturn);
        m.bind(def);
        m.const_int(-1);
        m.op(Opcode::Ireturn);
        m.done().unwrap();

        let mut m = cb.method("lsel", "(I)I", STATIC);
        let (a, def) = (m.new_label(), m.new_label());
        m.iload(0);
        m.lookupswitch(def, &[(-1000, a), (9999, a)]);
        m.bind(a);
        m.const_int(7);
        m.op(Opcode::Ireturn);
        m.bind(def);
        m.const_int(-1);
        m.op(Opcode::Ireturn);
        m.done().unwrap();
    });

    let p = predecode_method(&cf, "sel");
    let XInsn::TableSwitch(si) = p.insns[1] else {
        panic!("expected tableswitch, got {:?}", p.insns[1]);
    };
    let SwitchTable::Table {
        default,
        low,
        targets,
    } = &p.switches[si as usize]
    else {
        panic!("expected table payload");
    };
    assert_eq!(*low, 5);
    assert_eq!(targets.len(), 2);
    assert_eq!(targets[0], 2); // index of `const_int(1)`
    assert_eq!(targets[1], 4);
    assert_eq!(*default, 6);

    let p = predecode_method(&cf, "lsel");
    let XInsn::LookupSwitch(si) = p.insns[1] else {
        panic!("expected lookupswitch, got {:?}", p.insns[1]);
    };
    let SwitchTable::Lookup { default, pairs } = &p.switches[si as usize] else {
        panic!("expected lookup payload");
    };
    assert_eq!(pairs.len(), 2);
    assert_eq!(pairs[0].0, -1000);
    assert_eq!(pairs[1].0, 9999);
    assert_eq!(pairs[0].1, pairs[1].1, "both keys share one arm");
    assert_ne!(*default, pairs[0].1);
}

#[test]
fn invalid_opcode_becomes_trap_instruction() {
    // 0xba (invokedynamic) is rejected by the decoder; the raw engine
    // advances one byte and throws at execution time — the pre-decoder
    // mirrors that with a one-byte Invalid instruction.
    let body = CodeBody {
        max_stack: 1,
        max_locals: 0,
        bytes: vec![
            0x03, /* iconst_0 */
            0xba, 0x03, 0xac, /* ireturn */
        ],
        handlers: Vec::new(),
    };
    let pool = ijvm_classfile::ConstPool::new();
    let p = predecode(&body, &pool);
    let insns = body_insns(&p);
    assert_eq!(
        insns,
        vec![
            XInsn::IConst(0),
            XInsn::Invalid(0xba),
            XInsn::IConst(0),
            XInsn::ReturnValue
        ]
    );
}

#[test]
fn streams_end_with_guard() {
    // Code with no terminal return: execution must land on the guard and
    // fault instead of running off the stream.
    let body = CodeBody {
        max_stack: 1,
        max_locals: 0,
        bytes: vec![Opcode::Iconst0 as u8, Opcode::Pop as u8],
        handlers: Vec::new(),
    };
    let pool = ijvm_classfile::ConstPool::new();
    let p = predecode(&body, &pool);
    assert_eq!(*p.insns.last().unwrap(), XInsn::Trap(TrapKind::FellOffEnd));
    // The one-past-the-end pc resolves to the guard, so a frame suspended
    // exactly there resumes into the clean fault.
    assert_eq!(p.index_of_pc(2), Some(2));
    assert_eq!(p.pc_of_index(2), Some(2));
}

// ---------------------------------------------------------------------
// pc↔index properties
// ---------------------------------------------------------------------

/// Assembles a random but well-formed code array from a pool-free opcode
/// menu, returning the bytes (always terminated by `return`).
fn assemble(ops: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for &op in ops {
        match op % 11 {
            0 => bytes.push(Opcode::Iconst0 as u8),
            1 => bytes.extend_from_slice(&[Opcode::Bipush as u8, op]),
            2 => bytes.extend_from_slice(&[Opcode::Sipush as u8, op, op.wrapping_add(1)]),
            3 => bytes.extend_from_slice(&[Opcode::Iload as u8, op % 4]),
            4 => bytes.push(Opcode::Dup as u8),
            5 => bytes.extend_from_slice(&[Opcode::Iinc as u8, op % 4, 1]),
            6 => bytes.push(Opcode::Iadd as u8),
            7 => bytes.extend_from_slice(&[Opcode::Istore as u8, op % 4]),
            // A short forward branch; the offset may or may not land on
            // an instruction boundary, exercising both the fused and the
            // BAD_TARGET (left unfused) compare-and-branch paths.
            8 => bytes.extend_from_slice(&[Opcode::IfIcmplt as u8, 0, 3 + op % 8]),
            9 => bytes.extend_from_slice(&[Opcode::IfIcmpge as u8, 0, 3 + op % 8]),
            _ => bytes.push(Opcode::Nop as u8),
        }
    }
    bytes.push(Opcode::Return as u8);
    bytes
}

proptest! {
    #[test]
    fn pc_index_round_trips_over_arbitrary_code(ops in proptest::collection::vec(any::<u8>(), 0..200)) {
        let bytes = assemble(&ops);
        let body = CodeBody { max_stack: 8, max_locals: 4, bytes: bytes.clone(), handlers: Vec::new() };
        let pool = ijvm_classfile::ConstPool::new();
        let p = predecode(&body, &pool);

        // Boundary pcs round-trip through both maps.
        let mut boundaries = 0usize;
        for pc in 0..bytes.len() as u32 {
            if let Some(idx) = p.index_of_pc(pc) {
                boundaries += 1;
                prop_assert_eq!(p.pc_of_index(idx), Some(pc));
            }
        }
        // +1: the fell-off-end guard appended after the last real insn.
        prop_assert_eq!(boundaries + 1, p.insns.len());

        // idx_to_pc is strictly increasing and ends with the code length.
        for w in p.idx_to_pc.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert_eq!(p.idx_to_pc.last().copied(), Some(bytes.len() as u32));

        // Non-boundary pcs never map.
        let bound_set: std::collections::HashSet<u32> =
            (0..bytes.len() as u32).filter(|&pc| p.index_of_pc(pc).is_some()).collect();
        for pc in 0..bytes.len() as u32 {
            if !bound_set.contains(&pc) {
                prop_assert_eq!(p.index_of_pc(pc), None);
            }
        }
        let _ = BAD_TARGET; // referenced to keep the API surface exercised
    }

    #[test]
    fn fusion_preserves_maps_and_targets(ops in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Fusion only rewrites cells: stream length, pc↔index maps and
        // side tables other than `fused_cmps` are byte-identical, every
        // fused target is a real instruction boundary, and the pattern
        // tails keep their original (de-fuseable) instructions.
        let bytes = assemble(&ops);
        let body = CodeBody { max_stack: 8, max_locals: 4, bytes, handlers: Vec::new() };
        let pool = ijvm_classfile::ConstPool::new();
        let fused = predecode_with(&body, &pool, true);
        let plain = predecode_with(&body, &pool, false);

        prop_assert_eq!(fused.insns.len(), plain.insns.len());
        prop_assert_eq!(&fused.idx_to_pc, &plain.idx_to_pc);
        prop_assert_eq!(&fused.pc_to_idx, &plain.pc_to_idx);

        for (i, &insn) in fused.insns.iter().enumerate() {
            match insn {
                XInsn::AddStore { a, b, c } => {
                    // The fused head must shadow exactly the plain pattern,
                    // and the tail cells must be untouched.
                    prop_assert_eq!(plain.insns[i], XInsn::Load(a));
                    prop_assert_eq!(fused.insns[i + 1], XInsn::Load(b));
                    prop_assert_eq!(fused.insns[i + 2], XInsn::Iadd);
                    prop_assert_eq!(fused.insns[i + 3], XInsn::Store(c));
                }
                XInsn::FusedCmpBr(si) => {
                    let fc = fused.fused_cmps[si as usize];
                    prop_assert_eq!(plain.insns[i], XInsn::Load(fc.slot));
                    match fc.rhs {
                        CmpRhs::Const(k) => {
                            prop_assert_eq!(fused.insns[i + 1], XInsn::IConst(k))
                        }
                        CmpRhs::Local(s) => {
                            prop_assert_eq!(fused.insns[i + 1], XInsn::Load(s))
                        }
                    }
                    let XInsn::IfICmp { cmp, target } = fused.insns[i + 2] else {
                        prop_assert!(false, "fused tail lost its IfICmp");
                        unreachable!();
                    };
                    prop_assert_eq!(fc.cmp, cmp);
                    prop_assert_eq!(fc.target, target);
                    // Fused branch targets are valid instruction indices.
                    prop_assert!(fc.target != BAD_TARGET);
                    prop_assert!(fused.pc_of_index(fc.target).is_some());
                }
                other => prop_assert_eq!(other, plain.insns[i]),
            }
        }
    }
}
