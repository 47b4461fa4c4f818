//! What one workload run reports, and the metric names shared by all
//! workloads.

use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `latency_p90_ms` or `osgi.kill_ms`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `count`.
    pub unit: &'static str,
}

/// Settings of one run, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the measured loop runs for.
    pub seconds: f64,
    /// The traced run: spans on, per-layer metrics out.
    pub trace: bool,
    /// Self-test: check outputs against a deliberately wrong reference.
    pub wrong_reference: bool,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (calls, drags, lifecycles, requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The end-to-end metrics every workload reports (the ones
    /// `BENCHMARK.json` lists as `end_to_end`).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end metrics (`spec.jess_ms`,
    /// `drag_p99_us`, `rpc_p50_us`, ...).
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Scheduler the workload ran under.
    pub scheduler: String,
}

impl Report {
    /// Appends an end-to-end metric shared by all workloads.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(metric(name, value, unit));
    }

    /// Appends one of the workload's own end-to-end metrics.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(metric(name, value, unit));
    }

    /// Appends a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(metric(name, value, unit));
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Adds the per-layer metrics read off the span recorder — every
    /// `PER_LAYER` time metric named `<span>_<unit>` is the median self
    /// time of one span `<span>` — plus the unattributed share and the
    /// fail ratio.
    pub fn layers_from_spans(&mut self, tracer: &Tracer) {
        for (name, unit) in PER_LAYER {
            let ns_per_unit = match unit {
                "s" => 1e9,
                "ms" => 1e6,
                "us" => 1e3,
                _ => continue,
            };
            let span = name
                .strip_suffix(unit)
                .and_then(|n| n.strip_suffix('_'))
                .expect("time metrics are named <span>_<unit>");
            let value = median(&tracer.self_times(span)) / ns_per_unit;
            self.layer(name, value, unit);
        }
        self.layer("unattributed_share", tracer.unattributed_share(), "ratio");
        self.layer("fail_ratio", self.fail_ratio(), "ratio");
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in `BENCHMARK.json` order. A traced run of any
/// workload reports all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("engine.insns", "count"),
    ("engine.ns_per_insn.compress", "ns"),
    ("engine.ns_per_insn.jess", "ns"),
    ("engine.ns_per_insn.db", "ns"),
    ("engine.ns_per_insn.javac", "ns"),
    ("engine.ns_per_insn.mpegaudio", "ns"),
    ("engine.ns_per_insn.mtrt", "ns"),
    ("engine.ns_per_insn.jack", "ns"),
    ("engine.switches_per_drag", "count"),
    ("gc.collections", "count"),
    ("gc.collect_ms", "ms"),
    ("gc.heap_bytes", "bytes"),
    ("jsl.boot_ms", "ms"),
    ("minijava.compile_ms", "ms"),
    ("minijava.bytes_emitted", "bytes"),
    ("classfile.parse_us", "us"),
    ("vm.load_ms", "ms"),
    ("vm.isolates_live", "count"),
    ("vm.classes_loaded", "count"),
    ("osgi.boot_ms", "ms"),
    ("osgi.install_ms", "ms"),
    ("osgi.start_ms", "ms"),
    ("osgi.kill_ms", "ms"),
    ("osgi.reclaimed_ratio", "ratio"),
    ("wire.encode_ns_per_byte", "ns"),
    ("wire.decode_ns_per_byte", "ns"),
    ("wire.request_bytes", "bytes"),
    ("sched.run_s", "s"),
    ("sched.slices", "count"),
    ("sched.steals", "count"),
    ("sched.migrations", "count"),
    ("sched.dispatches", "count"),
    ("sched.unit_parks", "count"),
    ("sched.unit_unparks", "count"),
    ("port.calls_sent", "count"),
    ("port.posts_sent", "count"),
    ("port.replies_delivered", "count"),
    ("port.quota_parks", "count"),
    ("port.quota_unparks", "count"),
    ("port.mailbox_high_water", "count"),
    ("port.call_latency_p99_ticks", "ticks"),
    ("checkpoint.capture_ms", "ms"),
    ("checkpoint.image_bytes", "bytes"),
    ("checkpoint.restore_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
    ("fail_ratio", "ratio"),
];

/// The 50th, 90th and 99th percentiles of `samples`.
pub fn percentiles(samples: &[f64]) -> [f64; 3] {
    [0.5, 0.9, 0.99].map(|q| quantile(samples, q))
}
