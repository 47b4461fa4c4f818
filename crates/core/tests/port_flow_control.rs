//! Flow-control and future-pipelining differential tests: guest programs
//! using `Service.post` futures and quota-bounded mailboxes must behave
//! bit-identically under the deterministic cluster scheduler (the
//! oracle) and the parallel work-stealing scheduler at any worker count.
//!
//! The determinism argument for the flood scenarios is subtler than the
//! ping-pong corpus in `port_messaging.rs`: the *number of park/retry
//! cycles* a quota-parked sender goes through is schedule-dependent, but
//! none of those cycles execute guest code or charge CPU — the payload
//! is serialized and charged exactly once, at the first send attempt —
//! so every guest-visible observation (results, console, vclock,
//! per-isolate exact CPU) converges to the same fixpoint in every mode.
//! Trace counters like `quota_parks` ARE schedule-dependent and are only
//! asserted against the deterministic oracle.
//!
//! Crosses with the CI differential matrix via `IJVM_DIFF_ENGINE` /
//! `IJVM_DIFF_ISOLATION` exactly like `port_messaging.rs`.

use ijvm_core::prelude::*;
use ijvm_core::sched::UnitHandle;
use ijvm_minijava::{compile_to_bytes, CompileEnv};

mod common;
use common::{isolation_lane, lane_options};

/// One unit of a scenario: a minijava program with `(I)I` entry threads.
struct UnitSpec {
    src: String,
    entry: &'static str,
    method: &'static str,
    thread_args: Vec<i32>,
}

fn build_vm(spec: &UnitSpec, quantum: u32, trace: bool) -> (Vm, Vec<ThreadId>) {
    let mut options = lane_options(quantum);
    if trace {
        options.trace = TraceConfig::Full;
    }
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

/// Everything compared across scheduler modes for one finished unit.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<Result<Option<String>, String>>,
    outcome: RunOutcome,
    vclock: u64,
    console: Vec<String>,
    cpu_exact: Vec<u64>,
    aggregate_cpu: Vec<u64>,
}

/// Runs a scenario under `kind` with a per-unit mailbox quota, returning
/// per-unit observations plus the aggregate metrics when tracing is on.
fn run_scenario(
    specs: &[UnitSpec],
    kind: SchedulerKind,
    quantum: u32,
    slice: u64,
    quota: Option<(u32, u64)>,
    trace: bool,
    kills: &[(usize, IsolateId, u64)],
) -> (Vec<Observed>, Option<ClusterMetrics>) {
    let mut builder = Cluster::builder().scheduler(kind).slice(slice);
    if let Some((msgs, bytes)) = quota {
        builder = builder.mailbox_quota(msgs, bytes);
    }
    let mut cluster = builder.build();
    let mut handles: Vec<UnitHandle> = Vec::new();
    let mut tids = Vec::new();
    for spec in specs {
        let (vm, unit_tids) = build_vm(spec, quantum, trace);
        handles.push(cluster.submit(vm));
        tids.push(unit_tids);
    }
    for &(u, iso, min_slices) in kills {
        handles[u].terminate_at(iso, min_slices);
    }
    let mut outcome = cluster.run();
    assert_eq!(outcome.units.len(), specs.len(), "every unit must finish");
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
            aggregate_cpu: (0..vm.isolate_count())
                .map(|i| accounts.cpu_exact(report.id, IsolateId(i as u16)))
                .collect(),
        });
    }
    (observed, outcome.metrics)
}

/// Runs a scenario under the oracle and every worker count, asserting
/// bit-identical observations, and returns the oracle's observations
/// plus its (traced) metrics for schedule-*independent* assertions.
fn assert_modes_agree(
    specs: &[UnitSpec],
    quantum: u32,
    slice: u64,
    quota: Option<(u32, u64)>,
    kills: &[(usize, IsolateId, u64)],
) -> (Vec<Observed>, ClusterMetrics) {
    let (oracle, metrics) = run_scenario(
        specs,
        SchedulerKind::Deterministic,
        quantum,
        slice,
        quota,
        true,
        kills,
    );
    for (u, o) in oracle.iter().enumerate() {
        assert_eq!(
            o.aggregate_cpu, o.cpu_exact,
            "unit {u}: cluster aggregate diverged from in-VM exact CPU"
        );
    }
    for workers in [1usize, 2, 4] {
        let (parallel, _) = run_scenario(
            specs,
            SchedulerKind::Parallel(workers),
            quantum,
            slice,
            quota,
            false,
            kills,
        );
        assert_eq!(
            oracle, parallel,
            "Parallel({workers}) diverged from the deterministic oracle"
        );
    }
    (oracle, metrics.expect("oracle ran with tracing on"))
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

/// The headline acceptance scenario: one green thread pipelines 64
/// in-flight `Service.post` calls before touching a single result, then
/// harvests them all — bit-identical across modes, with the oracle's
/// trace showing all 64 requests in flight at once (the victim's
/// single mailbox drain observed all 64 at one quantum boundary).
#[test]
fn pipelines_64_posts_from_one_thread_across_modes() {
    let n = 64;
    let client = UnitSpec {
        src: r#"
            class Client {
                static int drive(int n) {
                    Future[] fs = new Future[n];
                    for (int i = 0; i < n; i++) {
                        fs[i] = Service.post("echo", i);
                    }
                    int acc = 0;
                    for (int i = 0; i < n; i++) {
                        acc += fs[i].get();
                    }
                    return acc;
                }
            }
        "#
        .to_owned(),
        entry: "Client",
        method: "drive",
        thread_args: vec![n],
    };
    let specs = vec![client, echo_server()];
    // A slice generous enough that the client issues all 64 posts in
    // its first quantum, so they are simultaneously in flight.
    let (oracle, metrics) = assert_modes_agree(&specs, 20_000, 40_000, None, &[]);
    let expect: i64 = (0..n as i64).map(|i| i * 3 + 7).sum();
    assert_eq!(
        oracle[0].results[0],
        Ok(Some(expect.to_string())),
        "client harvested every pipelined reply"
    );
    assert_eq!(metrics.totals.posts_sent, n as u64);
    assert_eq!(metrics.totals.futures_resolved, n as u64);
    assert_eq!(metrics.totals.calls_served, n as u64);
    assert!(
        metrics.totals.mailbox_high_water >= n as u64,
        "the server observed all {n} posts queued at one boundary \
         (high water {})",
        metrics.totals.mailbox_high_water
    );
}

/// A future cancelled while its request is in flight: the cancel wins
/// (the reply cannot arrive mid-slice), the late reply is dropped on
/// the floor, `get` on the cancelled future throws, and a later
/// uncancelled post still resolves normally.
#[test]
fn future_cancelled_in_flight_across_modes() {
    let client = UnitSpec {
        src: r#"
            class Client {
                static int drive(int n) {
                    int acc = 0;
                    Future a = Service.post("echo", 100);
                    if (a.cancel()) acc += 1;      // wins: reply in flight
                    if (a.isDone()) acc += 2;      // cancelled counts as done
                    if (a.cancel()) acc += 4;      // second cancel loses
                    try {
                        acc += a.get();
                    } catch (IllegalStateException e) {
                        acc += 8;                  // get on cancelled throws
                    }
                    Future b = Service.post("echo", n);
                    acc += b.get() * 1000;
                    return acc;
                }
            }
        "#
        .to_owned(),
        entry: "Client",
        method: "drive",
        thread_args: vec![5],
    };
    let specs = vec![client, echo_server()];
    let (oracle, metrics) = assert_modes_agree(&specs, 2_000, 4_000, None, &[]);
    let expect = 1 + 2 + 8 + (5 * 3 + 7) * 1000;
    assert_eq!(oracle[0].results[0], Ok(Some(expect.to_string())));
    assert_eq!(metrics.totals.futures_cancelled, 1);
    // The cancelled request was still served — its reply just found no
    // pending future to resolve.
    assert_eq!(metrics.totals.calls_served, 2);
    assert_eq!(metrics.totals.futures_resolved, 1);
}

/// Floods `messages` oneways at "sink" — after a blocking handshake
/// call that forces the export to exist (and the pump to have cycled
/// once) before the flood begins, so the flood hits quota admission in
/// every mode rather than racing the export as quota-exempt unresolved
/// requests.
fn oneway_flooder(messages: i32) -> UnitSpec {
    UnitSpec {
        src: r#"
            class Flooder {
                static int drive(int n) {
                    int ack = Service.call("sink", 0 - 1);
                    for (int i = 0; i < n; i++) {
                        Port.send("sink", i);
                    }
                    return n + ack;
                }
            }
        "#
        .to_owned(),
        entry: "Flooder",
        method: "drive",
        thread_args: vec![messages],
    }
}

/// Oneway flood against a slow pump with a 4-message quota: the victim's
/// mailbox stays bounded (no drain ever observes more than the quota),
/// the flooder is parked (and charged for every payload exactly once),
/// yet every message is eventually delivered — all guest-visible state
/// bit-identical across modes even though the park/retry cycle count is
/// schedule-dependent.
#[test]
fn oneway_flood_bounded_by_quota_across_modes() {
    let n = 96;
    let quota = 4u32;
    let sink = UnitSpec {
        src: r#"
            class Sink {
                static int served;
                int handle(int x) {
                    if (x < 0) return 0;                    // handshake
                    int w = 0;
                    for (int i = 0; i < 200; i++) w += i;   // slow pump
                    Sink.served += 1;
                    if (Sink.served % 32 == 0) println("served " + Sink.served);
                    return w;
                }
            }
            class Boot {
                static int start(int n) {
                    Service.export("sink", new Sink());
                    return n;
                }
            }
        "#
        .to_owned(),
        entry: "Boot",
        method: "start",
        thread_args: vec![1],
    };
    let specs = vec![oneway_flooder(n), sink];
    let (oracle, metrics) = assert_modes_agree(&specs, 2_000, 4_000, Some((quota, 1 << 20)), &[]);
    assert_eq!(oracle[0].results[0], Ok(Some(n.to_string())));
    assert_eq!(
        oracle[1].console,
        vec!["served 32", "served 64", "served 96"],
        "every flooded message was eventually served, in order"
    );
    assert_eq!(metrics.totals.oneways_sent, n as u64);
    assert!(
        metrics.totals.quota_parks > 0,
        "the flooder must have been parked by flow control"
    );
    assert_eq!(
        metrics.totals.quota_parks, metrics.totals.quota_unparks,
        "every park was eventually released by the drain path"
    );
    assert!(
        metrics.totals.mailbox_high_water <= quota as u64,
        "the victim's mailbox stayed bounded by its quota \
         (high water {}, quota {quota})",
        metrics.totals.mailbox_high_water
    );
    // Sender-pays held while parked: the flooder's exact CPU includes
    // one serialize charge per message (an int payload is 5 wire bytes).
    if isolation_lane() == IsolationMode::Isolated {
        let per_msg = ijvm_core::port::MSG_BASE_COST + 5;
        let flooder = &oracle[0];
        assert!(
            flooder.cpu_exact[0] >= n as u64 * per_msg,
            "flooder paid for every payload copy"
        );
    }
}

/// A sink whose pump blocks forever (its handler calls a service nobody
/// exports), so the flooder quota-parks permanently: the cluster must
/// still wrap up — quota-parked senders do not hang quiescence.
fn blocked_sink() -> UnitSpec {
    UnitSpec {
        src: r#"
            class Sink {
                int handle(int x) {
                    if (x < 0) return 0;   // handshake
                    return Service.call("never-exported", x);
                }
            }
            class Boot {
                static int start(int n) {
                    Service.export("sink", new Sink());
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

#[test]
fn quiescence_with_quota_parked_sender_across_modes() {
    let specs = vec![oneway_flooder(64), blocked_sink()];
    let (oracle, metrics) = assert_modes_agree(&specs, 2_000, 4_000, Some((4, 1 << 20)), &[]);
    // The flooder is still mid-flood, parked on quota; the sink's pump
    // is blocked on an export that never happens. Wrap-up finishes both
    // with their blocked outcomes instead of hanging.
    assert_eq!(oracle[0].outcome, RunOutcome::Blocked);
    assert_eq!(oracle[1].outcome, RunOutcome::Blocked);
    assert!(metrics.totals.quota_parks > 0);
}

/// Quota exhaustion with a parked sender that is then terminated: the
/// kill lands at a quantum boundary after the system reached its parked
/// fixpoint, revocation drops the pending send deterministically, and
/// the flooder's unit finishes while the victim stays blocked.
#[test]
fn quota_parked_sender_terminated_across_modes() {
    if isolation_lane() == IsolationMode::Shared {
        return; // no isolate termination in the shared lane
    }
    let specs = vec![oneway_flooder(64), blocked_sink()];
    // Deliver the kill to the flooder's isolate once it has run 2
    // slices — by then it is quota-parked at the deterministic fixpoint
    // in every mode.
    let kills = [(0usize, IsolateId(0), 2u64)];
    let (oracle, _) = assert_modes_agree(&specs, 2_000, 4_000, Some((4, 1 << 20)), &kills);
    assert!(
        oracle[0].results[0].is_err(),
        "the flooder thread died with its isolate: {:?}",
        oracle[0].results[0]
    );
    assert_eq!(
        oracle[1].outcome,
        RunOutcome::Blocked,
        "victim still blocked"
    );
}

/// A sharded pipelining client for the downsized saturation lane:
/// handshakes with its echo shard (so the export exists before the
/// windows start and quota parking deterministically engages), then
/// drives `n` windows of 16 pipelined posts each.
fn sat_client(shard: usize, windows: i32) -> UnitSpec {
    UnitSpec {
        src: format!(
            r#"
            class Client {{
                static int drive(int n) {{
                    int ack = Service.call("echo{shard}", 0 - 1);
                    int acc = 0;
                    Future[] fs = new Future[16];
                    for (int w = 0; w < n; w++) {{
                        for (int i = 0; i < 16; i++) {{
                            fs[i] = Service.post("echo{shard}", i);
                        }}
                        for (int i = 0; i < 16; i++) {{
                            acc += fs[i].get();
                        }}
                    }}
                    return acc + ack;
                }}
            }}
            "#
        ),
        entry: "Client",
        method: "drive",
        thread_args: vec![windows],
    }
}

/// A sharded echo server; `x < 0` is the handshake arm.
fn sat_server(shard: usize) -> UnitSpec {
    UnitSpec {
        src: format!(
            r#"
            class Echo {{
                int handle(int x) {{ if (x < 0) return 0; return x + 1; }}
            }}
            class Boot {{
                static int start(int n) {{
                    Service.export("echo{shard}", new Echo());
                    return n;
                }}
            }}
            "#
        ),
        entry: "Boot",
        method: "start",
        thread_args: vec![1],
    }
}

/// The downsized copy of the bench saturation topology (the full one —
/// 200 units, ~10⁶ posts — lives in `ijvm-bench::saturation` and is
/// latency-gated by `bench_gate`): six pipelining clients striped over
/// two echo shards, windows of 16 futures, a quota far below the
/// offered load. Every scheduler mode must converge to the same
/// fixpoint: same sums, same vclocks, same exact sender-pays CPU.
#[test]
fn downsized_saturation_lane_across_modes() {
    let servers = 2usize;
    let clients = 6usize;
    let windows = 3;
    let mut specs: Vec<UnitSpec> = (0..servers).map(sat_server).collect();
    specs.extend((0..clients).map(|c| sat_client(c % servers, windows)));
    let (oracle, metrics) = assert_modes_agree(&specs, 5_000, 10_000, Some((4, 1 << 20)), &[]);
    // Each window echoes back 1..=16: per client, windows × 136.
    let expect = (windows as i64) * (1..=16).sum::<i64>();
    for c in 0..clients {
        assert_eq!(
            oracle[servers + c].results[0],
            Ok(Some(expect.to_string())),
            "client {c} harvested every windowed reply"
        );
    }
    let messages = (clients as u64) * (windows as u64) * 16;
    assert_eq!(metrics.totals.posts_sent, messages);
    assert_eq!(metrics.totals.futures_resolved, messages);
    assert_eq!(
        metrics.totals.calls_served,
        messages + clients as u64,
        "every post plus one handshake call per client was served"
    );
    assert!(
        metrics.totals.quota_parks > 0,
        "the offered load exceeded the quota, so senders parked"
    );
    assert!(
        metrics.totals.call_latency.count() >= messages,
        "the flight recorder timed every round trip"
    );
}
