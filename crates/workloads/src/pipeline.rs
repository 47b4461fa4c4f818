//! Two-unit pipeline scenarios over the cluster's inter-unit service
//! layer ([`ijvm_core::port`]): a *driver* unit streams work items
//! through the `stage` service a *worker* unit exports, with every
//! argument and result deep-copied across the unit boundary and charged
//! to its sender. The cross-unit Table 1 row (`crates/bench`) and the
//! `examples` are built on this scenario; it is also the smallest
//! realistic "distributed OSGi" shape — two bundle groups on two cores
//! calling each other.

use ijvm_core::prelude::*;
use ijvm_core::sched::UnitHandle;
use ijvm_minijava::{compile_to_bytes, CompileEnv};

/// Mini-Java for the worker unit: exports `stage`, a salted mixing step.
pub const STAGE_SRC: &str = r#"
    class Stage {
        int handle(int x) { return (x * 31 + 7) % 65536; }
    }
    class Boot {
        static int start(int n) {
            Service.export("stage", new Stage());
            return n;
        }
    }
"#;

/// Mini-Java for the driver unit: streams `n` items through `stage` and
/// folds the results into a checksum.
pub const DRIVER_SRC: &str = r#"
    class Driver {
        static int drive(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                acc = (acc + Service.call("stage", acc + i)) % 1000000007;
            }
            return acc;
        }
    }
"#;

/// The observable outcome of one pipeline run, identical across
/// scheduler modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineOutcome {
    /// The driver's folded checksum.
    pub checksum: i32,
    /// Exact CPU charged to the driver's workload isolate (interpreted
    /// instructions plus its sender-pays request-copy charges).
    pub driver_cpu_exact: u64,
    /// Exact CPU charged to the worker's workload isolate (handler
    /// instructions plus its reply-copy charges).
    pub worker_cpu_exact: u64,
    /// Quantum slices the two units consumed, `(driver, worker)`.
    pub slices: (u64, u64),
}

/// Builds one ready-to-submit unit VM around a `(I)I` entry method.
pub fn build_unit(src: &str, entry: &str, method: &str, arg: i32, options: &VmOptions) -> Vm {
    let mut vm = ijvm_jsl::boot(options.clone());
    let iso = vm.create_isolate("unit");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(src, &CompileEnv::new()).expect("pipeline source") {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, entry).expect("entry class");
    let index = vm.class(class).find_method(method, "(I)I").expect("entry");
    let mref = ijvm_core::ids::MethodRef { class, index };
    vm.spawn_thread(method, mref, vec![Value::Int(arg)], iso)
        .expect("spawn entry thread");
    vm
}

/// Assembles the two-unit pipeline on a fresh cluster. Returns the
/// cluster plus the `(driver, worker)` handles.
pub fn build_pipeline(
    kind: SchedulerKind,
    items: i32,
    options: &VmOptions,
) -> (Cluster, UnitHandle, UnitHandle) {
    let mut cluster = Cluster::builder()
        .vm_options(options.clone())
        .scheduler(kind)
        .build();
    let driver = cluster.submit(build_unit(DRIVER_SRC, "Driver", "drive", items, options));
    let worker = cluster.submit(build_unit(STAGE_SRC, "Boot", "start", 1, options));
    (cluster, driver, worker)
}

/// Runs the pipeline to completion under `kind` and reports the
/// scheduler-mode-independent observables.
pub fn run_pipeline(kind: SchedulerKind, items: i32) -> PipelineOutcome {
    let options = VmOptions::isolated();
    let (cluster, driver, worker) = build_pipeline(kind, items, &options);
    let outcome = cluster.run();
    let driver_vm = &outcome.unit(&driver).vm;
    let worker_vm = &outcome.unit(&worker).vm;
    let checksum = driver_vm
        .thread_result(ijvm_core::ids::ThreadId(0))
        .map(|v| v.as_int())
        .expect("driver finished");
    PipelineOutcome {
        checksum,
        driver_cpu_exact: driver_vm.isolate_stats(IsolateId(0)).unwrap().cpu_exact,
        worker_cpu_exact: worker_vm.isolate_stats(IsolateId(0)).unwrap().cpu_exact,
        slices: (
            outcome.unit(&driver).report.slices,
            outcome.unit(&worker).report.slices,
        ),
    }
}

/// The checksum the pipeline must produce for `items`, computed host-side
/// with Java `int` semantics: wrapping `+`/`*` and truncating `%`.
pub fn expected_checksum(items: i32) -> i32 {
    let mut acc = 0i32;
    for i in 0..items {
        let staged = acc.wrapping_add(i).wrapping_mul(31).wrapping_add(7) % 65536;
        acc = acc.wrapping_add(staged) % 1_000_000_007;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_is_correct_and_mode_independent() {
        // 2000 items overflow Java `int` in the fold, which a host
        // reference computed in wider arithmetic gets wrong.
        assert_eq!(expected_checksum(2000), 69278008);
        for items in [64, 2000] {
            let oracle = run_pipeline(SchedulerKind::Deterministic, items);
            assert_eq!(oracle.checksum, expected_checksum(items));
            assert!(oracle.driver_cpu_exact > 0 && oracle.worker_cpu_exact > 0);
            for workers in [1usize, 2] {
                let parallel = run_pipeline(SchedulerKind::Parallel(workers), items);
                assert_eq!(
                    oracle, parallel,
                    "Parallel({workers}) diverged at {items} items"
                );
            }
        }
    }
}
