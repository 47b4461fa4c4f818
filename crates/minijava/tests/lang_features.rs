//! Second wave of language tests: compound assignment targets, char
//! arithmetic, exception hierarchies, interface arrays, clinit ordering,
//! string methods, nested control flow.

use ijvm_core::prelude::*;
use ijvm_minijava::{compile_to_bytes, CompileEnv};

fn run_int(source: &str, class: &str, method: &str, args: Vec<Value>) -> i32 {
    let mut vm = ijvm_jsl::boot(VmOptions::isolated());
    let iso = vm.create_isolate("lang");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(source, &CompileEnv::new()).unwrap() {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let cid = vm.load_class(loader, class).unwrap();
    let desc = format!("({})I", "I".repeat(args.len()));
    match vm.call_static(cid, method, &desc, args) {
        Ok(Some(Value::Int(v))) => v,
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn compound_assignment_on_fields_and_arrays() {
    let src = r#"
        class Acc {
            static int total;
            int local;
            static int f(int n) {
                total = 5;
                total += n;       // static compound
                total *= 2;
                Acc a = new Acc();
                a.local = 3;
                a.local += total; // instance compound
                int[] xs = new int[4];
                xs[1] = 10;
                xs[1] += a.local; // array compound
                xs[1] <<= 1;
                return xs[1];
            }
        }
    "#;
    // total = (5+7)*2 = 24; a.local = 3+24 = 27; xs[1] = (10+27)<<1 = 74
    assert_eq!(run_int(src, "Acc", "f", vec![Value::Int(7)]), 74);
}

#[test]
fn increment_decrement_on_every_lvalue_kind() {
    let src = r#"
        class Inc {
            static int counter;
            static int f(int n) {
                int i = n;
                i++;
                i++;
                i--;
                counter = 10;
                counter++;
                int[] xs = new int[2];
                xs[0] = 100;
                xs[0]++;
                xs[0]++;
                return i + counter + xs[0];
            }
        }
    "#;
    assert_eq!(run_int(src, "Inc", "f", vec![Value::Int(1)]), 2 + 11 + 102);
}

#[test]
fn char_arithmetic_and_comparisons() {
    let src = r#"
        class Chars {
            static int f(int n) {
                char c = 'a';
                char upper = (char) (c - 32);
                int count = 0;
                String s = "Hello World";
                for (int i = 0; i < s.length(); i++) {
                    char x = s.charAt(i);
                    if (x >= 'A' && x <= 'Z') count++;
                }
                return upper * 1000 + count;
            }
        }
    "#;
    assert_eq!(
        run_int(src, "Chars", "f", vec![Value::Int(0)]),
        ('A' as i32) * 1000 + 2
    );
}

#[test]
fn exception_subtyping_catches_subclasses() {
    let src = r#"
        class Sub {
            static int f(int kind) {
                try {
                    if (kind == 0) throw new NullPointerException("npe");
                    if (kind == 1) throw new ArithmeticException("ae");
                    throw new IllegalStateException("ise");
                } catch (RuntimeException e) {
                    String m = e.getMessage();
                    return m.length();
                }
            }
        }
    "#;
    assert_eq!(run_int(src, "Sub", "f", vec![Value::Int(0)]), 3);
    assert_eq!(run_int(src, "Sub", "f", vec![Value::Int(1)]), 2);
    assert_eq!(run_int(src, "Sub", "f", vec![Value::Int(2)]), 3);
}

#[test]
fn catch_clauses_are_tried_in_order() {
    let src = r#"
        class Order {
            static int f(int kind) {
                try {
                    if (kind == 0) throw new NullPointerException();
                    throw new RuntimeException();
                } catch (NullPointerException e) {
                    return 1;
                } catch (RuntimeException e) {
                    return 2;
                }
            }
        }
    "#;
    assert_eq!(run_int(src, "Order", "f", vec![Value::Int(0)]), 1);
    assert_eq!(run_int(src, "Order", "f", vec![Value::Int(1)]), 2);
}

#[test]
fn nested_try_rethrow_crosses_frames() {
    let src = r#"
        class Frames {
            static int inner() {
                try {
                    int[] xs = new int[1];
                    return xs[9];
                } catch (NullPointerException e) {
                    return -1; // wrong handler: must not catch AIOOBE
                }
            }
            static int f(int n) {
                try {
                    return inner();
                } catch (ArrayIndexOutOfBoundsException e) {
                    return 55;
                }
            }
        }
    "#;
    assert_eq!(run_int(src, "Frames", "f", vec![Value::Int(0)]), 55);
}

#[test]
fn interface_arrays_and_polymorphic_sum() {
    let src = r#"
        interface Pricer { int price(int qty); }
        class Flat implements Pricer {
            int rate;
            Flat(int r) { rate = r; }
            public int price(int qty) { return rate * qty; }
        }
        class Tiered implements Pricer {
            public int price(int qty) {
                if (qty > 10) return qty * 2;
                return qty * 3;
            }
        }
        class Shop {
            static int f(int qty) {
                Pricer[] ps = new Pricer[3];
                ps[0] = new Flat(5);
                ps[1] = new Tiered();
                ps[2] = new Flat(1);
                int sum = 0;
                for (int i = 0; i < ps.length; i++) sum += ps[i].price(qty);
                return sum;
            }
        }
    "#;
    // qty=12: 60 + 24 + 12 = 96
    assert_eq!(run_int(src, "Shop", "f", vec![Value::Int(12)]), 96);
}

#[test]
fn clinit_dependency_chain_runs_in_order() {
    let src = r#"
        class A {
            static int base = 7;
        }
        class B {
            static int derived = A.base * 3;
        }
        class C {
            static int f(int n) { return B.derived + A.base; }
        }
    "#;
    assert_eq!(run_int(src, "C", "f", vec![Value::Int(0)]), 28);
}

#[test]
fn string_methods_compose() {
    let src = r#"
        class Text {
            static int f(int n) {
                String s = "component isolation";
                String head = s.substring(0, 9);
                int space = s.indexOf(' ');
                String inDoc = head + "/" + s.substring(space + 1, s.length());
                if (!inDoc.equals("component/isolation")) return -1;
                return inDoc.length() * 100 + space;
            }
        }
    "#;
    assert_eq!(run_int(src, "Text", "f", vec![Value::Int(0)]), 19 * 100 + 9);
}

#[test]
fn boolean_bit_operators_do_not_short_circuit() {
    let src = r#"
        class Bools {
            static int calls;
            static boolean touch() { calls++; return false; }
            static int f(int n) {
                calls = 0;
                boolean a = touch() & touch();  // both evaluate
                boolean b = touch() && touch(); // short-circuits after first
                if (a | b) return -1;
                return calls;
            }
        }
    "#;
    assert_eq!(run_int(src, "Bools", "f", vec![Value::Int(0)]), 3);
}

#[test]
fn nested_loops_with_labelless_break_continue() {
    let src = r#"
        class Grid {
            static int f(int n) {
                int hits = 0;
                for (int y = 0; y < n; y++) {
                    for (int x = 0; x < n; x++) {
                        if (x == y) continue;
                        if (x + y > n) break;
                        hits++;
                    }
                }
                return hits;
            }
        }
    "#;
    let reference = |n: i32| {
        let mut hits = 0;
        for y in 0..n {
            for x in 0..n {
                if x == y {
                    continue;
                }
                if x + y > n {
                    break;
                }
                hits += 1;
            }
        }
        hits
    };
    assert_eq!(run_int(src, "Grid", "f", vec![Value::Int(8)]), reference(8));
}

#[test]
fn long_and_double_locals_round_trip_through_calls() {
    let src = r#"
        class Mix {
            static long lmul(long a, long b) { return a * b; }
            static double half(double d) { return d / 2.0; }
            static int f(int n) {
                long big = lmul(1L << 20, n);
                double d = half(big);
                return (int) ((long) d >> 10);
            }
        }
    "#;
    let expect = ((((1i64 << 20) * 6) as f64 / 2.0) as i64 >> 10) as i32;
    assert_eq!(run_int(src, "Mix", "f", vec![Value::Int(6)]), expect);
}

#[test]
fn three_level_inheritance_with_overrides() {
    let src = r#"
        class Base {
            int tag() { return 1; }
            int describe() { return tag() * 10; }
        }
        class Mid extends Base {
            int tag() { return 2; }
        }
        class Leaf extends Mid {
            int tag() { return 3; }
            int describe() { return tag() * 100; }
        }
        class Drive {
            static int f(int n) {
                Base[] xs = new Base[3];
                xs[0] = new Base();
                xs[1] = new Mid();
                xs[2] = new Leaf();
                int sum = 0;
                for (int i = 0; i < xs.length; i++) sum += xs[i].describe();
                return sum;
            }
        }
    "#;
    // 10 + 20 + 300 = 330 (describe inherited by Mid calls overridden tag)
    assert_eq!(run_int(src, "Drive", "f", vec![Value::Int(0)]), 330);
}

#[test]
fn object_equals_and_hashcode_defaults() {
    let src = r#"
        class Id {
            static int f(int n) {
                Object a = new Object();
                Object b = new Object();
                int r = 0;
                if (a.equals(a)) r += 1;
                if (!a.equals(b)) r += 2;
                if (a.hashCode() == a.hashCode()) r += 4;
                if (a.hashCode() != b.hashCode()) r += 8;
                return r;
            }
        }
    "#;
    assert_eq!(run_int(src, "Id", "f", vec![Value::Int(0)]), 15);
}

#[test]
fn compile_errors_carry_useful_messages() {
    for (src, needle) in [
        (
            "class C { static int f() { return g(); } }",
            "no applicable overload",
        ),
        ("class C { static int f() { return x; } }", "unknown name"),
        (
            "class C { static void f() { Unknown u = null; } }",
            "unknown type",
        ),
        (
            "class C { static int f() { boolean b = true; return b + 1; } }",
            "bad operands",
        ),
        (
            "class C { static void f() { break; } }",
            "break outside loop",
        ),
        (
            "class C { static int f(int x) { int x = 2; return x; } }",
            "duplicate variable",
        ),
        (
            "class C { void f() { this.g(); } } class D {}",
            "no applicable overload",
        ),
    ] {
        let err = compile_to_bytes(src, &CompileEnv::new()).unwrap_err();
        assert!(
            err.message.contains(needle),
            "source {src:?} should fail with {needle:?}, got: {err}"
        );
    }
}

/// Same-arity overloads each compile against their own signature, in
/// either declaration order — the shape of a service handler serving
/// both `handle(int)` and `handle(Object)` from one class.
#[test]
fn same_arity_overloads_compile_in_either_order() {
    let src = r#"
        class Box { int v; }
        class IntFirst {
            int handle(int x) { return x + 1; }
            Object handle(Object o) { Box b = (Box) o; b.v = b.v * 2; return b; }
        }
        class ObjFirst {
            Object handle(Object o) { Box b = (Box) o; b.v = b.v * 3; return b; }
            int handle(int x) { return x + 2; }
        }
        class T {
            static int f(int n) {
                IntFirst a = new IntFirst();
                ObjFirst b = new ObjFirst();
                Box x = new Box();
                x.v = n;
                Box y = (Box) a.handle(x);
                Box z = (Box) b.handle(y);
                return a.handle(n) * 10000 + b.handle(n) * 100 + z.v;
            }
        }
    "#;
    // a.handle(5) = 6, b.handle(5) = 7, (5 * 2) * 3 = 30.
    assert_eq!(run_int(src, "T", "f", vec![Value::Int(5)]), 60730);
}
