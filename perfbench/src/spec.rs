//! The `spec` workload: the seven SPEC JVM98 analogues
//! (`ijvm_workloads::spec::all()`) called repeatedly in one `Isolated` VM,
//! the paper's Fig. 2 traffic.
//!
//! A pass calls every analogue its weighted number of times, interleaved
//! round-robin, so drift of the shared machine spreads over all seven.
//! The weights give each analogue a comparable share of a pass (350–490
//! ms on a 2-vCPU Intel Xeon guest); mpegaudio, whose single call takes
//! about 650 ms at its pinned scale, runs once per pass. Every call
//! uses the analogue's pinned `scale` and is checked against its
//! committed `expected` checksum. After each pass the VM collects
//! garbage, as a SPEC harness does between iterations.

use crate::report::{Config, Report};
use crate::stats::{geomean, median, peak_rss_mb, quantile, Rng};
use crate::trace::Tracer;
use ijvm_core::ids::{ClassId, IsolateId};
use ijvm_core::value::Value;
use ijvm_core::vm::{Vm, VmOptions};
use ijvm_minijava::CompileEnv;
use ijvm_workloads::spec::Workload;
use std::time::Instant;

/// Calls per pass, by analogue name.
const REPEATS: [(&str, u32); 7] = [
    ("compress", 3),
    ("jess", 80),
    ("db", 30),
    ("javac", 4),
    ("mpegaudio", 1),
    ("mtrt", 13),
    ("jack", 130),
];

/// A fresh set-up (its VM dropped) runs after every this many calls, so
/// `setup_s` samples the whole run rather than one instant of it.
const SETUP_EVERY: u64 = 25;

fn repeats(name: &str) -> u32 {
    REPEATS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(1, |(_, r)| *r)
}

/// Boots the VM and loads every analogue's entry class into one isolate.
/// Returns the VM, the isolate, the entry classes and the bytes the
/// compiler emitted.
fn setup(tracer: &mut Tracer, programs: &[Workload]) -> (Vm, IsolateId, Vec<ClassId>, usize) {
    let mut vm = tracer.span("jsl.boot", |_| ijvm_jsl::boot(VmOptions::isolated()));
    let iso = vm.create_isolate("spec");
    let loader = vm.loader_of(iso).expect("isolate exists");
    let mut bytes_emitted = 0usize;
    let mut entries = Vec::new();
    for w in programs {
        let classes = tracer.span("minijava.compile", |_| {
            ijvm_minijava::compile_to_bytes(w.source, &CompileEnv::new())
                .expect("analogue compiles")
        });
        for (_, bytes) in &classes {
            bytes_emitted += bytes.len();
            tracer.span("classfile.parse", |_| {
                ijvm_classfile::reader::read_class(bytes).expect("emitted class parses")
            });
        }
        let class = tracer.span("vm.load", |_| {
            for (name, bytes) in classes {
                vm.add_class_bytes(loader, &name, bytes);
            }
            vm.load_class(loader, w.entry_class)
                .expect("entry class loads")
        });
        entries.push(class);
    }
    (vm, iso, entries, bytes_emitted)
}

/// Per-analogue samples.
#[derive(Default)]
struct Samples {
    wall_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    insns: Vec<f64>,
    ns_per_insn: Vec<f64>,
}

/// Runs the workload for `cfg.seconds` (at least one whole pass; two in
/// the traced run, where each analogue alternates untraced and traced
/// calls).
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Report {
    // The seed sets the order of the analogues inside the round-robin.
    let mut programs = ijvm_workloads::spec::all();
    Rng::new(cfg.seed, "spec").shuffle(&mut programs);
    let mut report = Report {
        scheduler: "none (one VM)".to_owned(),
        ..Report::default()
    };

    let t = Instant::now();
    let (mut vm, iso, entries, bytes_emitted) = tracer.op("op.setup", |t| setup(t, &programs));
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let max_repeat = REPEATS.iter().map(|(_, r)| *r).max().unwrap_or(1);
    let mut samples: Vec<Samples> = programs.iter().map(|_| Samples::default()).collect();
    let (mut calls, mut gcs) = (0u64, 0u64);
    let mut heap_after_gc = Vec::new();
    let min_passes = if cfg.trace { 2 } else { 1 };
    let started = Instant::now();
    let mut setup_in_loop = 0.0;
    let mut pass = 0usize;
    'passes: loop {
        let gc_before = vm.gc_count();
        for r in 0..max_repeat {
            for (i, w) in programs.iter().enumerate() {
                if r >= repeats(w.name) {
                    continue;
                }
                if pass >= min_passes && started.elapsed().as_secs_f64() >= cfg.seconds {
                    break 'passes;
                }
                let expected = if cfg.wrong_reference {
                    w.expected.wrapping_add(1)
                } else {
                    w.expected
                };
                let traced = cfg.trace && samples[i].insns.len() % 2 == 1;
                tracer.set_on(traced);
                let v0 = vm.vclock();
                let t = Instant::now();
                let out = tracer.op("op.call", |t| {
                    t.span("engine.call", |_| {
                        vm.call_static_as(entries[i], "run", "(I)I", vec![Value::Int(w.scale)], iso)
                    })
                });
                let wall_ns = t.elapsed().as_nanos() as f64;
                let insns = (vm.vclock() - v0) as f64;
                report.attempted += 1;
                calls += 1;
                if !matches!(out, Ok(Some(Value::Int(v))) if v == expected) {
                    report.failed += 1;
                }
                let s = &mut samples[i];
                if traced {
                    s.traced_ms.push(wall_ns / 1e6);
                } else {
                    s.wall_ms.push(wall_ns / 1e6);
                }
                s.insns.push(insns);
                s.ns_per_insn.push(wall_ns / insns.max(1.0));
                if calls % SETUP_EVERY == 0 {
                    tracer.set_on(cfg.trace);
                    let t = Instant::now();
                    tracer.op("op.setup", |t| setup(t, &programs));
                    setup_s.push(t.elapsed().as_secs_f64());
                    setup_in_loop += t.elapsed().as_secs_f64();
                }
            }
        }
        tracer.set_on(cfg.trace);
        tracer.op("op.gc", |t| {
            t.span("gc.collect", |_| vm.collect_garbage(None))
        });
        gcs += vm.gc_count() - gc_before;
        heap_after_gc.push(vm.heap_used() as f64);
        pass += 1;
    }
    let wall = started.elapsed().as_secs_f64() - setup_in_loop;
    tracer.set_on(cfg.trace);

    let p50s: Vec<f64> = samples.iter().map(|s| median(&s.wall_ms)).collect();
    let p90s: Vec<f64> = samples.iter().map(|s| quantile(&s.wall_ms, 0.9)).collect();
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("latency_p90_ms", geomean(&p90s), "ms");
    report.e2e("ops_per_s", calls as f64 / wall, "1/s");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    for (w, p50) in programs.iter().zip(&p50s) {
        report.named(&format!("spec.{}_ms", w.name), *p50, "ms");
    }
    report.named("passes", pass as f64, "count");

    if cfg.trace {
        // One call of each analogue: a pure count, so it repeats exactly.
        let insns: f64 = samples.iter().map(|s| median(&s.insns)).sum();
        report.layer("engine.insns", insns, "count");
        for (w, s) in programs.iter().zip(&samples) {
            report.layer(
                &format!("engine.ns_per_insn.{}", w.name),
                median(&s.ns_per_insn),
                "ns",
            );
        }
        let untraced = geomean(&p50s);
        let traced = geomean(
            &samples
                .iter()
                .map(|s| median(&s.traced_ms))
                .collect::<Vec<_>>(),
        );
        report.layer("trace_overhead", traced / untraced - 1.0, "ratio");
        report.layer("gc.collections", gcs as f64 / pass.max(1) as f64, "count");
        report.layer("gc.heap_bytes", median(&heap_after_gc), "bytes");
        report.layer("vm.isolates_live", vm.isolate_count() as f64, "count");
        report.layer("vm.classes_loaded", vm.class_count() as f64, "count");
        report.layer("minijava.bytes_emitted", bytes_emitted as f64, "bytes");
        report.layers_from_spans(tracer);
    }
    report
}
