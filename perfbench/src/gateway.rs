//! The `gateway` workload: the paper's home-gateway paint scenario on one
//! `Framework`.
//!
//! An epoch boots the paint demo (`PaintDemo::boot`: a canvas and a shape
//! bundle) and then runs a fixed script of [`DRAGS`] drag gestures and
//! [`LIFECYCLES`] lifecycle operations in a seeded order. A drag is one
//! `Canvas.drag(shape, 200)` call: 200 inter-bundle calls canvas → shape.
//! A lifecycle operation compiles a third-party bundle from source,
//! installs it, loads its activator, starts it (it allocates and pins
//! memory through a registered service), kills it, collects, and checks
//! that the bundle's isolate was reclaimed.
//!
//! Lifecycle operations get dearer as bundles accumulate (isolates and
//! classes are never unloaded), so an epoch is a fixed *count* of
//! operations, never a duration, and the framework is never reset inside
//! an epoch. Epochs repeat, each on a fresh framework, until the run's
//! seconds are up.

use crate::report::{percentiles, Config, Report};
use crate::stats::{median, peak_rss_mb, Rng};
use crate::trace::Tracer;
use ijvm_core::ids::{ClassId, IsolateId};
use ijvm_core::isolate::IsolateState;
use ijvm_core::value::Value;
use ijvm_core::vm::{IsolationMode, RunOutcome};
use ijvm_minijava::CompileEnv;
use ijvm_osgi::{BundleDescriptor, Framework};
use ijvm_workloads::PaintDemo;
use std::time::Instant;

/// Drag gestures per epoch.
const DRAGS: usize = 3000;
/// Lifecycle operations per epoch.
const LIFECYCLES: usize = 1000;
/// An extra framework boot (dropped at once) runs after every this many
/// script operations, so `setup_s` samples the whole run.
const SETUP_EVERY: u64 = 200;
/// Motion steps per drag: one inter-bundle call each.
const STEPS: i32 = 200;
/// Ints a third-party bundle allocates and pins when started. Fixed, so
/// the instructions of a lifecycle operation do not depend on the seed.
const PIXELS: u32 = 16_384;

const THIRD_PARTY_SRC: &str = r#"
    class Square implements ShapeService {
        int[] pixels; int moves;
        Square(int n, int salt) {
            pixels = new int[n];
            for (int i = 0; i < n; i++) pixels[i] = i * salt;
        }
        public int moveTo(int x, int y) { moves = moves + 1; return moves; }
    }
    class Activator {
        static Square kept;
        static void start(BundleContext ctx) {
            kept = new Square(PIXELS, SALT);
            ctx.registerService("SERVICE", kept);
        }
    }
"#;

#[derive(Clone, Copy, PartialEq)]
enum Step {
    Drag,
    Lifecycle { salt: u32 },
}

/// The seeded script of one epoch.
fn script(rng: &mut Rng) -> Vec<Step> {
    let mut steps = vec![Step::Drag; DRAGS];
    for _ in 0..LIFECYCLES {
        steps.push(Step::Lifecycle {
            salt: rng.range(1, 1_000),
        });
    }
    rng.shuffle(&mut steps);
    steps
}

struct Gateway {
    demo: PaintDemo,
    canvas_class: ClassId,
    canvas_iso: IsolateId,
    shape_iso: IsolateId,
    drags: i32,
    installed: usize,
    /// Class-file bytes of the last compiled third-party bundle.
    bytes_emitted: usize,
}

fn boot(tracer: &mut Tracer) -> Gateway {
    let mut demo = tracer.span("osgi.boot", |_| PaintDemo::boot(IsolationMode::Isolated));
    let (canvas, shape) = (demo.canvas, demo.shape);
    let canvas_loader = demo.fw.bundle(canvas).expect("canvas installed").loader;
    let canvas_class = tracer.span("vm.load", |_| {
        demo.fw
            .vm_mut()
            .load_class(canvas_loader, "canvas/Canvas")
            .expect("canvas class")
    });
    Gateway {
        canvas_iso: demo.fw.bundle(canvas).expect("canvas installed").isolate,
        shape_iso: demo.fw.bundle(shape).expect("shape installed").isolate,
        demo,
        canvas_class,
        drags: 0,
        installed: 0,
        bytes_emitted: 0,
    }
}

/// What a drag observed.
struct DragOutcome {
    ok: bool,
    insns: u64,
    switches: u64,
}

/// The k-th drag of S steps must return k·S (the shape counts its moves)
/// and enter the shape bundle exactly S times.
fn drag(g: &mut Gateway, tracer: &mut Tracer, wrong_reference: bool) -> DragOutcome {
    g.drags += 1;
    let fw = &mut g.demo.fw;
    let Some(service) = fw.get_service("shape.circle") else {
        return DragOutcome {
            ok: false,
            insns: 0,
            switches: 0,
        };
    };
    let calls_before = fw.vm().isolate_stats(g.shape_iso).map_or(0, |s| s.calls_in);
    let (v0, m0) = (fw.vm().vclock(), fw.vm().migrations());
    let out = tracer.span("engine.call", |_| {
        fw.vm_mut().call_static_as(
            g.canvas_class,
            "drag",
            "(Lshape/ShapeService;I)I",
            vec![Value::Ref(service), Value::Int(STEPS)],
            g.canvas_iso,
        )
    });
    let calls_in = fw.vm().isolate_stats(g.shape_iso).map_or(0, |s| s.calls_in) - calls_before;
    let mut expected = g.drags * STEPS;
    if wrong_reference {
        expected += 1;
    }
    DragOutcome {
        ok: matches!(out, Ok(Some(Value::Int(v))) if v == expected) && calls_in == STEPS as u64,
        insns: fw.vm().vclock() - v0,
        switches: fw.vm().migrations() - m0,
    }
}

/// Install → load → start → kill → collect → reclaim check. Returns
/// whether every step succeeded and the bundle was reclaimed.
fn lifecycle(g: &mut Gateway, tracer: &mut Tracer, salt: u32, wrong_reference: bool) -> bool {
    g.installed += 1;
    let package = format!("tp{}", g.installed);
    let service = format!("thirdparty.{}", g.installed);
    let src = THIRD_PARTY_SRC
        .replace("PIXELS", &PIXELS.to_string())
        .replace("SALT", &salt.to_string())
        .replace("SERVICE", &service);
    let fw = &mut g.demo.fw;
    let shape = g.demo.shape;

    let mut cenv = CompileEnv::in_package(&package);
    ijvm_osgi::classes::osgi_signatures(&mut cenv.env);
    let imported = fw.bundle(shape).expect("shape installed").classes.clone();
    for (_, bytes) in &imported {
        let Ok(cf) = tracer.span("classfile.parse", |_| {
            ijvm_classfile::reader::read_class(bytes)
        }) else {
            return false;
        };
        if cenv.import_class_file(&cf).is_err() {
            return false;
        }
    }
    let Ok(classes) = tracer.span("minijava.compile", |_| {
        ijvm_minijava::compile_to_bytes(&src, &cenv)
    }) else {
        return false;
    };
    g.bytes_emitted = classes.iter().map(|(_, b)| b.len()).sum();
    let activator = format!("{package}/Activator");
    let desc = BundleDescriptor {
        symbolic_name: format!("thirdparty-{}", g.installed),
        classes,
        activator: Some(activator.clone()),
        imports: vec![shape],
    };
    let Ok(id) = tracer.span("osgi.install", |_| fw.install_bundle(desc)) else {
        return false;
    };
    let (iso, loader) = {
        let b = fw.bundle(id).expect("just installed");
        (b.isolate, b.loader)
    };
    if tracer
        .span("vm.load", |_| fw.vm_mut().load_class(loader, &activator))
        .is_err()
    {
        return false;
    }
    let started = tracer.span("osgi.start", |_| fw.start_bundle(id));
    let registered = fw.get_service(&service).is_some();
    let allocated = fw.vm().isolate_stats(iso).map_or(0, |s| s.allocated_bytes);
    let killed = tracer.span("osgi.kill", |_| fw.kill_bundle(id)).is_ok();
    tracer.span("gc.collect", |_| fw.vm_mut().collect_garbage(None));
    reclaimed(fw, iso, wrong_reference)
        && killed
        && registered
        && allocated >= u64::from(PIXELS) * 4
        && matches!(started, Ok(RunOutcome::Idle))
}

/// The bundle's isolate is `Dead` and holds no live bytes.
fn reclaimed(fw: &Framework, iso: IsolateId, wrong_reference: bool) -> bool {
    let dead = fw.vm().isolate_state(iso).ok() == Some(IsolateState::Dead);
    let live = fw
        .vm()
        .isolate_stats(iso)
        .map_or(u64::MAX, |s| s.live_bytes);
    let want_live = u64::from(wrong_reference);
    dead && live == want_live
}

/// Runs epochs until `cfg.seconds` have passed (at least one). In the
/// traced run, operations alternate untraced and traced.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Report {
    let mut rng = Rng::new(cfg.seed, "gateway");
    let mut report = Report {
        scheduler: "none (one VM)".to_owned(),
        ..Report::default()
    };
    let mut setup_s = Vec::new();
    let (mut drag_us, mut drag_traced_us, mut life_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut drag_insns, mut life_insns, mut switches) = (Vec::new(), Vec::new(), Vec::new());
    let (mut kills, mut reclaims) = (0u64, 0u64);
    let (mut script_s, mut ops) = (0.0f64, 0u64);
    let mut gc_per_op = Vec::new();
    let mut last = None;
    // Lifecycle times of the first and last tenth of each epoch: the growth.
    let (mut life_first_ms, mut life_last_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut epoch = 0usize;
    while epoch < 1 || started.elapsed().as_secs_f64() < cfg.seconds {
        tracer.set_on(cfg.trace);
        let steps = script(&mut rng);
        let t = Instant::now();
        let mut g = tracer.op("op.setup", boot);
        setup_s.push(t.elapsed().as_secs_f64());

        let script_start = Instant::now();
        let gc0 = g.demo.fw.vm().gc_count();
        let mut lifecycles = 0;
        for step in steps {
            let traced = cfg.trace && ops % 2 == 1;
            tracer.set_on(traced);
            let t = Instant::now();
            let v0 = g.demo.fw.vm().vclock();
            match step {
                Step::Drag => {
                    let d = tracer.op("op.drag", |t| drag(&mut g, t, cfg.wrong_reference));
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    if traced {
                        drag_traced_us.push(us);
                    } else {
                        drag_us.push(us);
                    }
                    drag_insns.push(d.insns as f64);
                    switches.push(d.switches as f64);
                    report.failed += u64::from(!d.ok);
                }
                Step::Lifecycle { salt } => {
                    let ok = tracer.op("op.lifecycle", |t| {
                        lifecycle(&mut g, t, salt, cfg.wrong_reference)
                    });
                    if !traced {
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        life_ms.push(ms);
                        if lifecycles < LIFECYCLES / 10 {
                            life_first_ms.push(ms);
                        } else if lifecycles >= LIFECYCLES - LIFECYCLES / 10 {
                            life_last_ms.push(ms);
                        }
                    }
                    lifecycles += 1;
                    life_insns.push((g.demo.fw.vm().vclock() - v0) as f64);
                    kills += 1;
                    reclaims += u64::from(ok);
                    report.failed += u64::from(!ok);
                }
            }
            report.attempted += 1;
            ops += 1;
            if ops % SETUP_EVERY == 0 {
                tracer.set_on(cfg.trace);
                let t = Instant::now();
                tracer.op("op.setup", boot);
                setup_s.push(t.elapsed().as_secs_f64());
                script_s -= t.elapsed().as_secs_f64();
            }
        }
        script_s += script_start.elapsed().as_secs_f64();
        gc_per_op.push((g.demo.fw.vm().gc_count() - gc0) as f64 / (DRAGS + LIFECYCLES) as f64);
        last = Some(g);
        epoch += 1;
    }
    tracer.set_on(cfg.trace);

    let [p50, p90, p99] = percentiles(&drag_us);
    let life_p50 = median(&life_ms);
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("latency_p90_ms", p90 / 1e3, "ms");
    report.e2e("ops_per_s", ops as f64 / script_s, "1/s");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    report.named("drag_p50_us", p50, "us");
    report.named("drag_p90_us", p90, "us");
    report.named("drag_p99_us", p99, "us");
    report.named("lifecycle_p50_ms", life_p50, "ms");
    report.named("lifecycle_first_p50_ms", median(&life_first_ms), "ms");
    report.named("lifecycle_last_p50_ms", median(&life_last_ms), "ms");
    report.named("epochs", epoch as f64, "count");

    if cfg.trace {
        let g = last.expect("at least one epoch");
        let vm = g.demo.fw.vm();
        // Per-operation vclock deltas: pure counts, so they repeat exactly.
        report.layer(
            "engine.insns",
            median(&drag_insns) + median(&life_insns),
            "count",
        );
        report.layer("engine.switches_per_drag", median(&switches), "count");
        report.layer("gc.collections", median(&gc_per_op), "count");
        report.layer("gc.heap_bytes", vm.heap_used() as f64, "bytes");
        report.layer("vm.isolates_live", vm.isolate_count() as f64, "count");
        report.layer("vm.classes_loaded", vm.class_count() as f64, "count");
        report.layer(
            "osgi.reclaimed_ratio",
            reclaims as f64 / kills.max(1) as f64,
            "ratio",
        );
        report.layer("minijava.bytes_emitted", g.bytes_emitted as f64, "bytes");
        report.layer(
            "trace_overhead",
            median(&drag_traced_us) / p50 - 1.0,
            "ratio",
        );
        report.layers_from_spans(tracer);
    }
    report
}
