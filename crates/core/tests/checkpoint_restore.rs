//! Checkpoint/restore differential tests: a unit checkpointed at a
//! quantum boundary must produce the *same image bytes* under the
//! deterministic oracle and the parallel scheduler at any worker
//! count, the checkpoint itself must not perturb the run, and a
//! restored unit must resume to a final state bit-identical to the
//! uninterrupted run — same per-thread results, console output,
//! virtual clock and per-isolate exact CPU, both in-VM and in the
//! cluster aggregate.
//!
//! The engine under test crosses with the CI differential matrix:
//! `IJVM_DIFF_ENGINE` selects the engine/fusion lane and
//! `IJVM_DIFF_ISOLATION` the isolation mode, so every engine lane also
//! exercises checkpointing. One test additionally restores a raw-engine
//! image under the threaded engine, fused and unfused: images carry no
//! prepared code, so restore *must* re-derive it lazily — if it ever
//! serialized quickening state, the cross-engine resume would diverge.

use ijvm_core::engine::EngineKind;
use ijvm_core::prelude::*;
use ijvm_core::sched::UnitHandle;
use ijvm_minijava::{compile_to_bytes, CompileEnv};
use proptest::prelude::*;
use std::sync::OnceLock;

mod common;
use common::{isolation_lane, lane_options};

/// One unit of a scenario.
struct UnitSpec {
    src: String,
    entry: &'static str,
    method: &'static str,
    /// One entry thread per element, each with this `(I)I` argument.
    thread_args: Vec<i32>,
}

fn build_vm_with(spec: &UnitSpec, options: VmOptions) -> (Vm, Vec<ThreadId>) {
    let mut vm = ijvm_jsl::boot(options);
    let iso = vm.create_isolate("unit");
    let loader = vm.loader_of(iso).unwrap();
    for (name, bytes) in compile_to_bytes(&spec.src, &CompileEnv::new()).unwrap() {
        vm.add_class_bytes(loader, &name, bytes);
    }
    let class = vm.load_class(loader, spec.entry).unwrap();
    let index = vm.class(class).find_method(spec.method, "(I)I").unwrap();
    let mref = MethodRef { class, index };
    let tids = spec
        .thread_args
        .iter()
        .map(|&n| {
            vm.spawn_thread("entry", mref, vec![Value::Int(n)], iso)
                .unwrap()
        })
        .collect();
    (vm, tids)
}

fn build_vm(spec: &UnitSpec, quantum: u32) -> (Vm, Vec<ThreadId>) {
    build_vm_with(spec, lane_options(quantum))
}

/// Everything compared across scheduler modes / restore paths for one
/// finished unit.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<Result<Option<String>, String>>,
    outcome: RunOutcome,
    vclock: u64,
    console: Vec<String>,
    cpu_exact: Vec<u64>,
    cpu_sampled: Vec<u64>,
    allocated_objects: Vec<u64>,
    /// Cluster-aggregate exact CPU per isolate — must equal `cpu_exact`
    /// even for restored units, whose pre-checkpoint CPU is flushed
    /// into the aggregate on their first accounting sweep.
    aggregate_cpu: Vec<u64>,
}

fn observe(outcome: &mut ClusterOutcome, tids: &[Vec<ThreadId>]) -> Vec<Observed> {
    let accounts = &outcome.accounts;
    let mut observed = Vec::new();
    for (u, unit_outcome) in outcome.units.iter_mut().enumerate() {
        let report = unit_outcome.report;
        let vm = &mut unit_outcome.vm;
        let snaps = vm.metrics().isolates;
        observed.push(Observed {
            results: tids[u]
                .iter()
                .map(|&tid| {
                    vm.thread_outcome(tid)
                        .map(|v| v.map(|v| v.to_string()))
                        .map_err(|e| e.to_string())
                })
                .collect(),
            outcome: report.outcome,
            vclock: vm.vclock(),
            console: vm.take_console(),
            cpu_exact: snaps.iter().map(|s| s.stats.cpu_exact).collect(),
            cpu_sampled: snaps.iter().map(|s| s.stats.cpu_sampled).collect(),
            allocated_objects: snaps.iter().map(|s| s.stats.allocated_objects).collect(),
            aggregate_cpu: (0..vm.isolate_count())
                .map(|i| accounts.cpu_exact(report.id, IsolateId(i as u16)))
                .collect(),
        });
    }
    observed
}

const MODES: [SchedulerKind; 4] = [
    SchedulerKind::Deterministic,
    SchedulerKind::Parallel(1),
    SchedulerKind::Parallel(2),
    SchedulerKind::Parallel(4),
];

/// A self-contained two-thread compute workload that spans many slices
/// at quantum 200 / slice 400: loops, allocation (string building in
/// `println`) and interleaved green threads.
fn compute_unit() -> UnitSpec {
    UnitSpec {
        src: r#"
            class Work {
                static int busy(int n) {
                    int acc = 7;
                    for (int i = 0; i < n; i++) {
                        acc = acc * 31 + i;
                        if (i % 64 == 0) println("tick " + i + " " + acc);
                    }
                    return acc;
                }
            }
        "#
        .to_owned(),
        entry: "Work",
        method: "busy",
        thread_args: vec![520, 521],
    }
}

const QUANTUM: u32 = 200;
const SLICE: u64 = 400;

/// Runs `spec` alone under `kind`; optionally checkpoints at
/// `after_slices`; returns (observed, image-if-requested).
fn run_single(
    spec: &UnitSpec,
    kind: SchedulerKind,
    checkpoint_after: Option<u64>,
) -> (Vec<Observed>, Option<UnitImage>) {
    let mut cluster = Cluster::builder()
        .scheduler(kind)
        .slice(SLICE)
        .vm_options(lane_options(QUANTUM))
        .build();
    let (vm, tids) = build_vm(spec, QUANTUM);
    let handle = cluster.submit(vm);
    let ticket = checkpoint_after.map(|n| handle.checkpoint_at(n));
    let mut outcome = cluster.run();
    let observed = observe(&mut outcome, &[tids]);
    let image = ticket.map(|t| {
        t.wait()
            .expect("compute unit is quiescent at every boundary")
    });
    (observed, image)
}

/// Resumes `image` under `kind` and observes the finished unit,
/// optionally restoring with `restore_options` instead of the lane's.
fn resume_single(
    image: &UnitImage,
    kind: SchedulerKind,
    tids: &[ThreadId],
    restore_options: Option<VmOptions>,
) -> Vec<Observed> {
    let mut cluster = Cluster::builder()
        .scheduler(kind)
        .slice(SLICE)
        .vm_options(restore_options.unwrap_or_else(|| lane_options(QUANTUM)))
        .build();
    cluster
        .submit_image(image, ijvm_jsl::install_natives)
        .expect("image restores under matching hard options");
    let mut outcome = cluster.run();
    observe(&mut outcome, &[tids.to_vec()])
}

/// The tentpole acceptance test: checkpoint → restore → resume
/// mid-run is bit-identical to the uninterrupted run — results,
/// console, vclock and exact CPU — under Deterministic and
/// Parallel(1,2,4), the image bytes are identical in every mode, and
/// taking the checkpoint does not perturb the donor run.
#[test]
fn mid_run_checkpoint_restore_is_bit_identical_across_modes() {
    let spec = compute_unit();
    let (_, tids) = build_vm(&spec, QUANTUM); // tids are positional; same every build
    let (baseline, _) = run_single(&spec, SchedulerKind::Deterministic, None);
    assert_eq!(
        baseline[0].aggregate_cpu, baseline[0].cpu_exact,
        "cluster aggregate must match in-VM exact CPU"
    );
    assert!(
        baseline[0].console.len() > 8,
        "workload should span many slices: {:?}",
        baseline[0].console
    );

    let mut oracle_image: Option<UnitImage> = None;
    for kind in MODES {
        // Uninterrupted run matches the oracle in this mode.
        let (plain, _) = run_single(&spec, kind, None);
        assert_eq!(baseline, plain, "{kind:?} diverged uninterrupted");

        // Checkpointing mid-run does not perturb the donor.
        let (with_ckpt, image) = run_single(&spec, kind, Some(3));
        assert_eq!(baseline, with_ckpt, "{kind:?} perturbed by checkpoint");

        // The image bytes are identical in every scheduler mode.
        let image = image.unwrap();
        match &oracle_image {
            None => oracle_image = Some(image.clone()),
            Some(oracle) => assert_eq!(
                oracle.as_bytes(),
                image.as_bytes(),
                "{kind:?} produced different image bytes than the oracle"
            ),
        }

        // Restoring and resuming under every mode reaches the same
        // final state as the uninterrupted run.
        for resume_kind in MODES {
            let resumed = resume_single(&image, resume_kind, &tids[..], None);
            assert_eq!(
                baseline, resumed,
                "capture under {kind:?}, resume under {resume_kind:?} diverged"
            );
        }
    }
}

/// A checkpoint filed past the unit's lifetime settles at unit
/// completion with the final image ("at slice N or completion,
/// whichever comes first"); restoring it yields an already-finished
/// unit with the full observable history intact.
#[test]
fn checkpoint_past_completion_settles_with_final_image() {
    let spec = compute_unit();
    let (_, tids) = build_vm(&spec, QUANTUM);
    let (baseline, image) = run_single(&spec, SchedulerKind::Deterministic, Some(u64::MAX));
    let image = image.unwrap();
    let resumed = resume_single(&image, SchedulerKind::Deterministic, &tids[..], None);
    assert_eq!(
        baseline, resumed,
        "final image must replay to the final state"
    );
    assert_eq!(resumed[0].outcome, RunOutcome::Idle);
}

fn echo_server() -> UnitSpec {
    UnitSpec {
        src: r#"
            class Echo {
                int handle(int x) { return x * 3 + 7; }
            }
            class Boot {
                static int start(int n) {
                    Service.export("echo", new Echo());
                    println("echo up");
                    return n;
                }
            }
        "#
        .to_owned(),
        entry: "Boot",
        method: "start",
        thread_args: vec![1],
    }
}

fn pinging_client(calls: i32) -> UnitSpec {
    UnitSpec {
        src: r#"
            class Client {
                static int drive(int n) {
                    int acc = 0;
                    for (int i = 0; i < n; i++) {
                        acc += Service.call("echo", i);
                    }
                    return acc;
                }
            }
        "#
        .to_owned(),
        entry: "Client",
        method: "drive",
        thread_args: vec![calls],
    }
}

/// Crash-restart with in-flight traffic: a server checkpointed while a
/// client drives it is captured only once every cross-unit call has
/// drained to a boundary (the delivery point retries non-quiescent
/// captures), the image bytes agree across scheduler modes, and
/// `submit_image` re-exports the service under its **original** name —
/// a fresh client in a fresh cluster reaches `echo` without the server
/// re-running class initialization.
#[test]
fn restored_server_re_exports_service_under_original_name() {
    let calls = 24;
    let mut oracle_image: Option<UnitImage> = None;
    for kind in MODES {
        let mut cluster = Cluster::builder()
            .scheduler(kind)
            .slice(SLICE)
            .vm_options(lane_options(QUANTUM))
            .build();
        let server = echo_server();
        let client = pinging_client(calls);
        let (server_vm, _) = build_vm(&server, QUANTUM);
        let (client_vm, _) = build_vm(&client, QUANTUM);
        let server_handle = cluster.submit(server_vm);
        cluster.submit(client_vm);
        // Huge slice bound: the ticket settles when the cluster stalls,
        // i.e. after all in-flight calls drained.
        let ticket = server_handle.checkpoint_at(u64::MAX);
        cluster.run();
        let image = ticket.wait().expect("drained server is quiescent");
        match &oracle_image {
            None => oracle_image = Some(image),
            Some(oracle) => assert_eq!(
                oracle.as_bytes(),
                image.as_bytes(),
                "{kind:?} captured different server image bytes"
            ),
        }
    }
    let image = oracle_image.unwrap();

    // Crash-restart: fresh cluster, fresh client, same service name.
    let calls2 = 48;
    let mut cluster = Cluster::builder()
        .scheduler(SchedulerKind::Deterministic)
        .slice(SLICE)
        .vm_options(lane_options(QUANTUM))
        .build();
    let restored = cluster
        .submit_image(&image, ijvm_jsl::install_natives)
        .expect("server image restores");
    let _ = &restored;
    let (client_vm, client_tids) = build_vm(&pinging_client(calls2), QUANTUM);
    cluster.submit(client_vm);
    let mut outcome = cluster.run();
    let server_tids = vec![ThreadId(0)];
    let observed = observe(&mut outcome, &[server_tids, client_tids]);
    let expect: i64 = (0..calls2 as i64).map(|i| i * 3 + 7).sum();
    assert_eq!(
        observed[1].results[0],
        Ok(Some(expect.to_string())),
        "fresh client must reach the restored service under its original name"
    );
    // Class init did not re-run on restore: the boot marker was printed
    // exactly once, before the checkpoint.
    let markers = observed[0]
        .console
        .iter()
        .filter(|l| *l == "echo up")
        .count();
    assert_eq!(markers, 1, "restore must not re-run <clinit>/boot code");
}

/// A warmed service unit whose `<clinit>` is expensive and observable:
/// `Table.sum` is computed by a static initializer that also prints a
/// marker, so a fork that re-ran class init would both duplicate the
/// marker and recompute the table.
fn warmed_server_spec() -> UnitSpec {
    UnitSpec {
        src: r#"
            class Table {
                static int sum = fill();
                static int fill() {
                    int s = 0;
                    for (int i = 0; i < 500; i++) s += i * i;
                    println("warm-init");
                    return s;
                }
            }
            class Svc {
                int handle(int x) { return x + Table.sum; }
            }
            class Boot {
                static int start(int n) {
                    Service.export("svc", new Svc());
                    return Table.sum;
                }
            }
        "#
        .to_owned(),
        entry: "Boot",
        method: "start",
        thread_args: vec![1],
    }
}

fn table_sum() -> i64 {
    (0..500i64).map(|i| i * i).sum()
}

/// Boots and warms the server once, runs it to idle *unattached*, and
/// captures its image directly via [`Vm::checkpoint`].
fn warmed_server_image(options: VmOptions) -> UnitImage {
    let (mut vm, tids) = build_vm_with(&warmed_server_spec(), options);
    assert_eq!(vm.run(None), RunOutcome::Idle, "warmup must finish");
    assert_eq!(
        vm.thread_outcome(tids[0]).unwrap().unwrap().to_string(),
        table_sum().to_string(),
        "warmup computed the table"
    );
    vm.checkpoint().expect("idle warmed unit is quiescent")
}

/// Snapshot-fork scale-out: one warmed image forked as N units serves N
/// clients under renamed services `svc#k`, without re-running class
/// initialization in any clone (asserted via the `<clinit>` side-effect
/// marker), bit-identically across scheduler modes.
#[test]
fn fork_n_serves_renamed_services_without_reinit() {
    let image = warmed_server_image(lane_options(QUANTUM));
    let n = 4usize;
    let calls = 12;
    let sum = table_sum();
    let expect_client: i64 = (0..calls as i64).map(|i| i + sum).sum();

    let mut oracle: Option<Vec<Observed>> = None;
    for kind in MODES {
        let mut cluster = Cluster::builder()
            .scheduler(kind)
            .slice(SLICE)
            .vm_options(lane_options(QUANTUM))
            .build();
        let forks = cluster
            .submit_image_n(&image, n, ijvm_jsl::install_natives)
            .expect("warmed image forks");
        assert_eq!(forks.len(), n);
        let mut tids: Vec<Vec<ThreadId>> = (0..n).map(|_| vec![ThreadId(0)]).collect();
        let mut client_handles: Vec<UnitHandle> = Vec::new();
        for k in 0..n {
            let spec = UnitSpec {
                src: format!(
                    r#"
                    class Client {{
                        static int drive(int n) {{
                            int acc = 0;
                            for (int i = 0; i < n; i++) {{
                                acc += Service.call("svc#{k}", i);
                            }}
                            return acc;
                        }}
                    }}
                    "#
                ),
                entry: "Client",
                method: "drive",
                thread_args: vec![calls],
            };
            let (vm, client_tids) = build_vm(&spec, QUANTUM);
            client_handles.push(cluster.submit(vm));
            tids.push(client_tids);
        }
        let mut outcome = cluster.run();
        let observed = observe(&mut outcome, &tids);
        for k in 0..n {
            let fork = &observed[k];
            // The warmup result survived the fork: statics were
            // restored, not re-initialized.
            assert_eq!(
                fork.results[0],
                Ok(Some(table_sum().to_string())),
                "fork {k}: warmup thread result must survive the fork"
            );
            let markers = fork.console.iter().filter(|l| *l == "warm-init").count();
            assert_eq!(markers, 1, "fork {k} re-ran <clinit> ({kind:?})");
            let client = &observed[n + k];
            assert_eq!(
                client.results[0],
                Ok(Some(expect_client.to_string())),
                "client {k} must reach svc#{k} ({kind:?})"
            );
        }
        match &oracle {
            None => oracle = Some(observed),
            Some(oracle) => assert_eq!(
                oracle, &observed,
                "{kind:?} diverged from the deterministic oracle"
            ),
        }
    }
}

/// Satellite-2 regression: a checkpoint captured under the **raw**
/// engine restores and resumes under the threaded engine, fused and
/// unfused (soft option — the image carries no prepared code), and the
/// resumed run is bit-identical to the uninterrupted raw run. This is
/// exactly the "restore rebuilds `PreparedCode` lazily" guarantee: the
/// restored unit re-quickens from scratch and still passes the engine
/// differential.
#[test]
fn cross_engine_restore_requickens_lazily() {
    let mut raw = match isolation_lane() {
        IsolationMode::Shared => VmOptions::shared(),
        IsolationMode::Isolated => VmOptions::isolated(),
    }
    .with_engine(EngineKind::Raw)
    .with_superinstructions(false);
    raw.quantum = QUANTUM;

    let spec = compute_unit();
    let (_, tids) = build_vm_with(&spec, raw.clone());

    // Donor run under the raw engine, checkpointed mid-run.
    let mut cluster = Cluster::builder()
        .scheduler(SchedulerKind::Deterministic)
        .slice(SLICE)
        .vm_options(raw.clone())
        .build();
    let (vm, _) = build_vm_with(&spec, raw.clone());
    let handle = cluster.submit(vm);
    let ticket = handle.checkpoint_at(3);
    let mut outcome = cluster.run();
    let baseline = observe(&mut outcome, std::slice::from_ref(&tids));
    let image = ticket.wait().expect("compute unit quiescent at boundary");

    for fuse in [false, true] {
        let restore_options = raw
            .clone()
            .with_engine(EngineKind::Threaded)
            .with_superinstructions(fuse);
        let resumed = resume_single(
            &image,
            SchedulerKind::Deterministic,
            &tids[..],
            Some(restore_options),
        );
        assert_eq!(
            baseline, resumed,
            "raw-engine image resumed under the threaded engine (fuse={fuse}) diverged"
        );
    }
}

/// Restore-then-terminate: a restored unit is a first-class citizen of
/// isolate termination. Killing its workload isolate stops its threads
/// and reclaims its heap exactly as it would in a never-checkpointed
/// unit killed at the same execution point — the restored unit's slice
/// counter restarts at zero, so a baseline kill at slice 4 and a
/// restored-from-slice-3 kill at slice 1 land on the identical quantum
/// boundary and must observe bit-identical aftermath, live-heap stats
/// included.
#[test]
fn restore_then_terminate_reclaims_everything() {
    if isolation_lane() == IsolationMode::Shared {
        return;
    }
    let spec = compute_unit();
    let (_, tids) = build_vm(&spec, QUANTUM);

    // Baseline: plain unit, killed at its 4th slice boundary.
    let mut cluster = Cluster::builder()
        .scheduler(SchedulerKind::Deterministic)
        .slice(SLICE)
        .vm_options(lane_options(QUANTUM))
        .build();
    let (vm, _) = build_vm(&spec, QUANTUM);
    let handle = cluster.submit(vm);
    handle.terminate_at(IsolateId(0), 4);
    let mut outcome = cluster.run();
    let baseline = observe(&mut outcome, std::slice::from_ref(&tids));
    let baseline_live = {
        let snaps = outcome.units[0].vm.metrics().isolates;
        (snaps[0].stats.live_objects, snaps[0].stats.live_bytes)
    };

    // Donor: same workload, checkpointed at slice 3, left unkilled.
    let (_, image) = run_single(&spec, SchedulerKind::Deterministic, Some(3));
    let image = image.unwrap();

    // Restored: resumed from the slice-3 image, killed one slice in —
    // the same absolute execution point as the baseline kill.
    let mut cluster = Cluster::builder()
        .scheduler(SchedulerKind::Deterministic)
        .slice(SLICE)
        .vm_options(lane_options(QUANTUM))
        .build();
    let handle = cluster
        .submit_image(&image, ijvm_jsl::install_natives)
        .expect("image restores");
    handle.terminate_at(IsolateId(0), 1);
    let mut outcome = cluster.run();
    let observed = observe(&mut outcome, std::slice::from_ref(&tids));
    assert_eq!(
        baseline, observed,
        "terminating a restored unit must match terminating a plain one"
    );
    let vm = &outcome.units[0].vm;
    assert_ne!(
        vm.isolate_state(IsolateId(0)).unwrap(),
        IsolateState::Active,
        "restored unit's workload isolate must be terminable"
    );
    for (i, result) in observed[0].results.iter().enumerate() {
        let err = result
            .as_ref()
            .expect_err("threads of a terminated isolate cannot produce results");
        assert!(
            err.contains("StoppedIsolateException"),
            "thread {i}: expected StoppedIsolateException, got {err}"
        );
    }
    // Termination ran a full collection: only the handful of
    // host-rooted objects (thread mirrors, the in-flight exceptions)
    // survive, identically to the never-checkpointed baseline.
    let snaps = vm.metrics().isolates;
    let live = (snaps[0].stats.live_objects, snaps[0].stats.live_bytes);
    assert_eq!(
        live, baseline_live,
        "restore must not leak heap past termination"
    );
    assert!(
        live.0 < snaps[0].stats.allocated_objects,
        "termination should have reclaimed workload objects: {live:?} live of {} allocated",
        snaps[0].stats.allocated_objects
    );
}

/// A small but fully populated donor image for hostile-input tests.
fn fuzz_image_bytes() -> &'static [u8] {
    static IMG: OnceLock<Vec<u8>> = OnceLock::new();
    IMG.get_or_init(|| warmed_server_image(lane_options(QUANTUM)).into_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every single-byte corruption of a valid image is rejected by
    /// validation — header, section table and per-section checksums
    /// between them cover every byte — and never panics.
    #[test]
    fn corrupted_images_are_rejected(pos in 0usize..1 << 20, mask in 1u8..=255u8) {
        let mut bytes = fuzz_image_bytes().to_vec();
        let i = pos % bytes.len();
        bytes[i] ^= mask;
        prop_assert!(
            UnitImage::from_bytes(bytes).is_err(),
            "flipping byte {i} went undetected"
        );
    }

    /// Every strict prefix of a valid image is rejected without a
    /// panic — no count field causes a blind allocation or over-read.
    #[test]
    fn truncated_images_are_rejected(len in 0usize..1 << 20) {
        let bytes = fuzz_image_bytes();
        let l = len % bytes.len();
        prop_assert!(
            UnitImage::from_bytes(bytes[..l].to_vec()).is_err(),
            "truncating to {l} bytes went undetected"
        );
    }
}
