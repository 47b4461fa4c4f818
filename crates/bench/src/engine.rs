//! Execution-engine comparison: raw vs threaded.
//!
//! Runs the Figure 1 micro-benchmarks (plus a field-access loop and a
//! deep call chain) on the same VM configuration with only [`EngineKind`]
//! varied, so the measured delta isolates exactly the dispatch cost the
//! threaded engine removes: per-instruction opcode table lookups, operand
//! re-reads, branch-offset arithmetic, constant-pool indirections and the
//! opcode `match` itself (an indirect handler call per instruction).

use crate::micro::{run_once_with, Micro};
use ijvm_core::engine::EngineKind;
use ijvm_core::vm::VmOptions;
use std::time::Duration;

/// One benchmark measured under both engines.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Wall time under [`EngineKind::Raw`].
    pub raw: Duration,
    /// Wall time under [`EngineKind::Threaded`].
    pub threaded: Duration,
    /// Guest instructions executed (identical under both engines).
    pub insns: u64,
}

impl EngineRow {
    /// How many times faster the threaded engine runs than raw (>1 is
    /// faster).
    pub fn threaded_speedup(&self) -> f64 {
        self.raw.as_secs_f64() / self.threaded.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// The benchmarks compared: the four Figure 1 micros. Their loop bodies
/// cover calls, allocation, instance-field access (`Remote.step` reads
/// `this`), and static access.
pub const ENGINE_MICROS: [Micro; 4] = Micro::ALL;

/// The engines compared, in row-field order.
const ENGINES: [EngineKind; 2] = [EngineKind::Raw, EngineKind::Threaded];

/// Measures one micro under all engines, alternating `runs` rounds and
/// keeping the fastest time per engine (minimum is robust against
/// scheduler and frequency noise).
pub fn compare_engines(micro: Micro, iterations: i32, runs: u32) -> EngineRow {
    let mut best = [Duration::MAX; 2];
    let mut insns = 0;
    for _ in 0..runs.max(1) {
        let mut seen = [0u64; 2];
        for (i, &engine) in ENGINES.iter().enumerate() {
            let (d, n) =
                run_once_with(micro, VmOptions::isolated().with_engine(engine), iterations);
            best[i] = best[i].min(d);
            seen[i] = n;
        }
        assert!(
            seen.iter().all(|&n| n == seen[0]),
            "engines must execute identical instruction streams"
        );
        insns = seen[0];
    }
    EngineRow {
        name: micro.name(),
        raw: best[0],
        threaded: best[1],
        insns,
    }
}

/// The acceptance workload for the dispatch engines: a tight loop of
/// instance-field reads/writes and integer arithmetic, where dispatch
/// overhead dominates (no allocation, no calls, no statics).
pub(crate) const ARITH_FIELD_SRC: &str = r#"
    class Vec2 {
        int x;
        int y;
        Vec2(int x, int y) { this.x = x; this.y = y; }
    }
    class ArithField {
        static int spin(int n) {
            Vec2 v = new Vec2(1, 2);
            int acc = 0;
            for (int i = 0; i < n; i++) {
                v.x = v.x + i;
                v.y = v.y ^ (v.x >> 3);
                acc += (v.x & 65535) + (v.y % 8191) - i * 3;
            }
            return acc;
        }
    }
"#;

/// The call-path acceptance workload: a three-deep static call chain with
/// multi-argument frames, where frame setup/teardown (locals carving,
/// allocation, metadata reads) dominates — exactly what the frame pool
/// and the fused invoke forms attack.
const DEEP_CALL_SRC: &str = r#"
    class DeepCall {
        static int leaf(int a, int b, int c) { return a + b * 2 - c; }
        static int mid(int a, int b) { return leaf(a, b, a - b) + leaf(b, a, 1); }
        static int spin(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                acc += mid(i, acc & 1023);
            }
            return acc;
        }
    }
"#;

/// Runs a one-class `spin(I)I` workload once under `engine`, returning
/// wall time and guest instructions (after a warm-up run that pays class
/// loading, pre-decoding and quickening).
fn run_spin_class(src: &str, entry: &str, engine: EngineKind, iterations: i32) -> (Duration, u64) {
    run_spin_class_with(
        src,
        entry,
        VmOptions::isolated().with_engine(engine),
        iterations,
    )
}

/// [`run_spin_class`] with full [`VmOptions`] control — the trace
/// overhead rows re-run the arithmetic loop with only the flight
/// recorder toggled.
pub(crate) fn run_spin_class_with(
    src: &str,
    entry: &str,
    options: VmOptions,
    iterations: i32,
) -> (Duration, u64) {
    use ijvm_core::value::Value;
    let mut vm = ijvm_jsl::boot(options);
    let iso = vm.create_isolate("bench");
    let loader = vm.loader_of(iso).unwrap();
    let compiled = ijvm_minijava::compile_to_bytes(src, &ijvm_minijava::CompileEnv::new()).unwrap();
    for (name, bytes) in compiled {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, entry).unwrap();
    vm.call_static_as(
        class,
        "spin",
        "(I)I",
        vec![Value::Int((iterations / 10).max(8))],
        iso,
    )
    .expect("warmup run");
    let before = vm.vclock();
    let start = std::time::Instant::now();
    vm.call_static_as(class, "spin", "(I)I", vec![Value::Int(iterations)], iso)
        .expect("measured run");
    (start.elapsed(), vm.vclock() - before)
}

/// Runs the arithmetic/field-access loop once under `engine`.
pub fn run_arith_field(engine: EngineKind, iterations: i32) -> (Duration, u64) {
    run_spin_class(ARITH_FIELD_SRC, "ArithField", engine, iterations)
}

/// Runs the deep static call chain once under `engine`.
pub fn run_deep_call(engine: EngineKind, iterations: i32) -> (Duration, u64) {
    run_spin_class(DEEP_CALL_SRC, "DeepCall", engine, iterations)
}

/// Measures a one-class `spin` workload under all engines.
fn compare_spin_class(
    name: &'static str,
    src: &str,
    entry: &str,
    iterations: i32,
    runs: u32,
) -> EngineRow {
    let mut best = [Duration::MAX; 2];
    let mut insns = 0;
    for _ in 0..runs.max(1) {
        let mut seen = [0u64; 2];
        for (i, &engine) in ENGINES.iter().enumerate() {
            let (d, n) = run_spin_class(src, entry, engine, iterations);
            best[i] = best[i].min(d);
            seen[i] = n;
        }
        assert!(
            seen.iter().all(|&n| n == seen[0]),
            "engines must execute identical instruction streams"
        );
        insns = seen[0];
    }
    EngineRow {
        name,
        raw: best[0],
        threaded: best[1],
        insns,
    }
}

/// Measures the arithmetic/field-access loop under all engines.
pub fn compare_arith_field(iterations: i32, runs: u32) -> EngineRow {
    compare_spin_class(
        "arith+field loop",
        ARITH_FIELD_SRC,
        "ArithField",
        iterations,
        runs,
    )
}

/// Measures the deep static call chain under all engines.
pub fn compare_deep_call(iterations: i32, runs: u32) -> EngineRow {
    compare_spin_class(
        "deep call chain",
        DEEP_CALL_SRC,
        "DeepCall",
        iterations,
        runs,
    )
}

/// The full engine-comparison dataset: the arithmetic/field-access loop
/// first, then the four Figure 1 micros (the intra-/inter-isolate call
/// micros are the rows the call fast path is judged on), then the deep
/// call chain.
pub fn engine_comparison(iterations: i32, runs: u32) -> Vec<EngineRow> {
    let mut rows = vec![compare_arith_field(iterations, runs)];
    rows.extend(
        ENGINE_MICROS
            .iter()
            .map(|&m| compare_engines(m, iterations, runs)),
    );
    rows.push(compare_deep_call(iterations, runs));
    rows
}

/// Pretty-prints the comparison.
pub fn print_engine_table(rows: &[EngineRow]) {
    println!("\n== Execution engine: raw vs threaded (Isolated mode) ==");
    println!(
        "{:<22} {:>12} {:>12} {:>8} {:>14}",
        "benchmark", "raw", "threaded", "t-spd", "guest insns"
    );
    for r in rows {
        println!(
            "{:<22} {:>12} {:>12} {:>7.2}x {:>14}",
            r.name,
            format!("{:.3?}", r.raw),
            format!("{:.3?}", r.threaded),
            r.threaded_speedup(),
            r.insns,
        );
    }
}

/// Serializes the rows as the `BENCH_engine.json` document (hand-rolled:
/// the workspace builds offline, without serde). Each row carries the
/// threaded-vs-raw ratio (`threaded_speedup`), on which the CI bench
/// gate enforces a floor. When supplied, the parallel-scheduler
/// scalability report and the cross-unit call-cost report are appended
/// as the `"parallel"` and `"cross_unit"` sections the gate also reads,
/// and the flight-recorder overhead report as the `"trace"` section
/// (trace-on vs trace-off ratios, gated as ceilings). The saturation report (plus, when
/// measured, the unit-count scaling sweep) lands in the `"saturation"`
/// section, whose flat ratio the gate reads as a ceiling. The
/// checkpoint/restore cost model lands in the `"checkpoint"` section,
/// whose `restore_speedup` the gate reads as a floor.
#[allow(clippy::too_many_arguments)]
pub fn to_json(
    rows: &[EngineRow],
    iterations: i32,
    parallel: Option<&crate::parallel::ScalingReport>,
    cross_unit: Option<&crate::xunit::CrossUnitReport>,
    trace: Option<&crate::trace::TraceOverheadReport>,
    saturation: Option<&crate::saturation::SaturationReport>,
    sat_scaling: Option<&crate::saturation::SaturationScaling>,
    checkpoint: Option<&crate::checkpoint::CheckpointReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_raw_vs_threaded\",\n");
    out.push_str("  \"mode\": \"Isolated\",\n");
    out.push_str(&format!("  \"iterations\": {iterations},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"raw_ns\": {}, \"threaded_ns\": {}, \"threaded_speedup\": {:.4}, \"guest_insns\": {}}}{}\n",
            r.name,
            r.raw.as_nanos(),
            r.threaded.as_nanos(),
            r.threaded_speedup(),
            r.insns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let mut sections: Vec<String> = Vec::new();
    if let Some(report) = parallel {
        sections.push(crate::parallel::scaling_to_json(report));
    }
    if let Some(report) = cross_unit {
        sections.push(crate::xunit::cross_unit_to_json(report));
    }
    if let Some(report) = trace {
        sections.push(crate::trace::trace_to_json(report));
    }
    if let Some(report) = saturation {
        sections.push(crate::saturation::saturation_to_json(report, sat_scaling));
    }
    if let Some(report) = checkpoint {
        sections.push(crate::checkpoint::checkpoint_to_json(report));
    }
    if sections.is_empty() {
        out.push_str("  ]\n}\n");
    } else {
        out.push_str("  ],\n");
        out.push_str(&sections.join(",\n"));
        out.push_str("\n}\n");
    }
    out
}
