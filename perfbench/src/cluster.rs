//! The `cluster` workload: 256 units under `SchedulerKind::Parallel(2)`
//! with mailbox quotas engaged.
//!
//! Each round builds a fresh cluster. One echo server is booted, warmed
//! and checkpointed, and [`SERVERS`] clones are forked from that image
//! (`Cluster::submit_image_n`). The other units are clients: half make
//! blocking `Service.call`s with seeded-length `int[]` payloads (the
//! object-graph `wire` path), half pipeline windows of [`WINDOW`]
//! `Service.post` futures with scalar payloads (quota parking and the
//! future path). Every client is a closed loop.
//!
//! Guest `System.nanoTime` reads the vclock, so call clients time their
//! round trips with the benchmark's own `perfbench/Wall` class, whose
//! natives read the host clock.

use crate::report::{percentiles, Config, Report};
use crate::stats::{median, peak_rss_mb, Rng};
use crate::trace::Tracer;
use ijvm_classfile::{AccessFlags, ClassBuilder, ClassFile};
use ijvm_core::checkpoint::UnitImage;
use ijvm_core::ids::{IsolateId, MethodRef, ThreadId};
use ijvm_core::natives::NativeResult;
use ijvm_core::sched::{Cluster, ClusterOutcome, SchedulerKind, UnitHandle};
use ijvm_core::trace::{ClusterMetrics, TraceConfig};
use ijvm_core::value::Value;
use ijvm_core::vm::{RunOutcome, Vm, VmOptions};
use ijvm_minijava::CompileEnv;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Echo servers forked from one warmed image.
const SERVERS: usize = 32;
/// Client units (half call clients, half post clients).
const CLIENTS: usize = 224;
/// Scheduler workers.
const WORKERS: usize = 2;
/// Blocking calls per call client per round.
const CALLS: i32 = 120;
/// Windows per post client per round.
const WINDOWS: i32 = 24;
/// Futures a post client keeps in flight per window.
const WINDOW: i32 = 16;
/// Per-unit mailbox quota: below the ~3.5 post clients × 16 futures a
/// server would otherwise have queued, so senders park.
const QUOTA_MSGS: u32 = 32;
const QUOTA_BYTES: u64 = 1 << 20;
/// Bounds of the seeded `int[]` payload lengths.
const LEN_LO: i32 = 4;
const LEN_SPAN: i32 = 60;

const SERVER_SRC: &str = r#"
    class Echo {
        int handle(int x) { return x * 7 + 3; }
    }
    class EchoArray {
        Object handle(Object o) {
            int[] a = (int[]) o;
            int[] r = new int[a.length];
            for (int j = 0; j < a.length; j++) r[j] = a[j] * 3 + j;
            return r;
        }
    }
    class Boot {
        static int start(int n) {
            Echo e = new Echo();
            int warm = 0;
            for (int i = 0; i < n; i++) warm = warm + e.handle(i);
            Service.export("echo", e);
            Service.export("echoa", new EchoArray());
            return warm;
        }
    }
"#;

const CLIENT_SRC: &str = r#"
    class CallClient {
        static int[] payload(int len, int s) {
            int[] a = new int[len];
            for (int j = 0; j < len; j++) {
                s = s * 1103515245 + 12345;
                a[j] = s >>> 7;
            }
            return a;
        }
        static int drive(int n, int server, int seed) {
            String svc = "echoa#" + server;
            int acc = 17;
            int s = seed;
            for (int i = 0; i < n; i++) {
                s = s * 1103515245 + 12345;
                int len = LEN_LO + (s >>> 16) % LEN_SPAN;
                int[] a = payload(len, s);
                long t0 = Wall.now();
                int[] r = (int[]) Service.call(svc, a);
                Wall.rtt(t0);
                for (int j = 0; j < r.length; j++) acc = acc * 31 + r[j];
            }
            return acc;
        }
    }
    class PostClient {
        static int drive(int windows, int server, int seed) {
            String svc = "echo#" + server;
            Future[] fs = new Future[WINDOW];
            int acc = 17;
            int s = seed;
            for (int w = 0; w < windows; w++) {
                for (int i = 0; i < WINDOW; i++) {
                    s = s * 1103515245 + 12345;
                    fs[i] = Service.post(svc, s >>> 4);
                }
                for (int i = 0; i < WINDOW; i++) acc = acc * 31 + fs[i].get();
            }
            return acc;
        }
    }
"#;

/// Warm-up iterations the server runs before it is checkpointed.
const WARM: i32 = 2000;

fn lcg(s: i32) -> i32 {
    s.wrapping_mul(1103515245).wrapping_add(12345)
}

/// Host reference for `CallClient.payload`: Java `int` arithmetic.
fn payload(len: i32, mut s: i32) -> Vec<i32> {
    (0..len)
        .map(|_| {
            s = lcg(s);
            ((s as u32) >> 7) as i32
        })
        .collect()
}

fn call_len(s: i32) -> i32 {
    LEN_LO + (((s as u32) >> 16) as i32).wrapping_rem(LEN_SPAN)
}

/// Host reference for `CallClient.drive` against the echo server.
fn call_checksum(n: i32, seed: i32) -> i32 {
    let mut acc = 17i32;
    let mut s = seed;
    for _ in 0..n {
        s = lcg(s);
        for (j, a) in payload(call_len(s), s).into_iter().enumerate() {
            let r = a.wrapping_mul(3).wrapping_add(j as i32);
            acc = acc.wrapping_mul(31).wrapping_add(r);
        }
    }
    acc
}

/// Host reference for `PostClient.drive` against the echo server.
fn post_checksum(windows: i32, seed: i32) -> i32 {
    let mut acc = 17i32;
    let mut s = seed;
    for _ in 0..windows {
        let mut xs = Vec::with_capacity(WINDOW as usize);
        for _ in 0..WINDOW {
            s = lcg(s);
            xs.push(((s as u32) >> 4) as i32);
        }
        for x in xs {
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(x.wrapping_mul(7).wrapping_add(3));
        }
    }
    acc
}

/// The `perfbench/Wall` class: `now()` reads the host clock in ns since
/// the process's clock epoch, `rtt(t0)` records `now() - t0`.
fn wall_class() -> ClassFile {
    let public_static = AccessFlags(AccessFlags::PUBLIC.0 | AccessFlags::STATIC.0);
    let mut cb = ClassBuilder::new("perfbench/Wall", "java/lang/Object", AccessFlags::PUBLIC);
    cb.native_method("now", "()J", public_static);
    cb.native_method("rtt", "(J)V", public_static);
    cb.build().expect("the Wall class is well formed")
}

fn install_wall(vm: &mut Vm, wall: &ClassFile, epoch: Instant, sink: Arc<Mutex<Vec<u32>>>) {
    vm.register_native(
        "perfbench/Wall",
        "now",
        "()J",
        Arc::new(move |_, _, _| {
            NativeResult::Return(Some(Value::Long(epoch.elapsed().as_nanos() as i64)))
        }),
    );
    vm.register_native(
        "perfbench/Wall",
        "rtt",
        "(J)V",
        Arc::new(move |_, _, args| {
            let now = epoch.elapsed().as_nanos() as i64;
            let t0 = match args.first() {
                Some(Value::Long(t)) => *t,
                _ => now,
            };
            let rtt = u32::try_from(now - t0).unwrap_or(u32::MAX);
            sink.lock().expect("rtt sink poisoned").push(rtt);
            NativeResult::Return(None)
        }),
    );
    vm.install_system_class(wall).expect("Wall installs");
}

/// One client's seeded parameters and its host-side reference.
struct ClientPlan {
    kind: ClientKind,
    server: usize,
    seed: i32,
    expected: i32,
}

#[derive(Clone, Copy, PartialEq)]
enum ClientKind {
    Call,
    Post,
}

impl ClientPlan {
    fn requests(&self) -> u64 {
        match self.kind {
            ClientKind::Call => CALLS as u64,
            ClientKind::Post => (WINDOWS * WINDOW) as u64,
        }
    }
}

/// Seeds every client: kind, server striping and payload seed.
fn plan(rng: &mut Rng, wrong_reference: bool) -> Vec<ClientPlan> {
    // Each server gets the same number of clients; which ones is seeded.
    let mut servers: Vec<usize> = (0..CLIENTS).map(|c| c % SERVERS).collect();
    rng.shuffle(&mut servers);
    servers
        .into_iter()
        .enumerate()
        .map(|(c, server)| {
            let kind = if c % 2 == 0 {
                ClientKind::Call
            } else {
                ClientKind::Post
            };
            let seed = rng.guest_int();
            let mut expected = match kind {
                ClientKind::Call => call_checksum(CALLS, seed),
                ClientKind::Post => post_checksum(WINDOWS, seed),
            };
            if wrong_reference {
                expected = expected.wrapping_add(1);
            }
            ClientPlan {
                kind,
                server,
                seed,
                expected,
            }
        })
        .collect()
}

/// Compiled classes shared by every unit of a round.
struct Classes {
    server: Vec<(String, Vec<u8>)>,
    client: Vec<(String, Vec<u8>)>,
    wall: ClassFile,
    bytes_emitted: usize,
}

fn compile(tracer: &mut Tracer) -> Classes {
    let wall = wall_class();
    let client_src = CLIENT_SRC
        .replace("LEN_LO", &LEN_LO.to_string())
        .replace("LEN_SPAN", &LEN_SPAN.to_string())
        .replace("WINDOW", &WINDOW.to_string());
    let server = tracer.span("minijava.compile", |_| {
        ijvm_minijava::compile_to_bytes(SERVER_SRC, &CompileEnv::new()).expect("server compiles")
    });
    let client = tracer.span("minijava.compile", |_| {
        let mut cenv = CompileEnv::new();
        cenv.import_class_file(&wall).expect("Wall imports");
        ijvm_minijava::compile_to_bytes(&client_src, &cenv).expect("clients compile")
    });
    for (_, bytes) in server.iter().chain(&client) {
        tracer.span("classfile.parse", |_| {
            ijvm_classfile::reader::read_class(bytes).expect("emitted class parses")
        });
    }
    let bytes_emitted = server.iter().chain(&client).map(|(_, b)| b.len()).sum();
    Classes {
        server,
        client,
        wall,
        bytes_emitted,
    }
}

fn boot_unit(tracer: &mut Tracer, options: &VmOptions) -> (Vm, IsolateId) {
    let mut vm = tracer.span("jsl.boot", |_| ijvm_jsl::boot(options.clone()));
    let iso = vm.create_isolate("unit");
    (vm, iso)
}

fn load(
    tracer: &mut Tracer,
    vm: &mut Vm,
    iso: IsolateId,
    classes: &[(String, Vec<u8>)],
    entry: &str,
) -> ijvm_core::ids::ClassId {
    tracer.span("vm.load", |_| {
        let loader = vm.loader_of(iso).expect("isolate exists");
        for (name, bytes) in classes {
            vm.add_class_bytes(loader, name, bytes.clone());
        }
        vm.load_class(loader, entry).expect("entry class loads")
    })
}

fn spawn(vm: &mut Vm, class: ijvm_core::ids::ClassId, method: &str, desc: &str, args: Vec<Value>) {
    let index = vm
        .class(class)
        .find_method(method, desc)
        .expect("entry method");
    vm.spawn_thread(method, MethodRef { class, index }, args, IsolateId(0))
        .expect("entry thread spawns");
}

/// A round's built cluster plus what the checks need.
struct Built {
    cluster: Cluster,
    clients: Vec<(UnitHandle, Arc<Mutex<Vec<u32>>>)>,
    image_bytes: usize,
    bytes_emitted: usize,
}

fn build(tracer: &mut Tracer, plans: &[ClientPlan], options: &VmOptions, epoch: Instant) -> Built {
    let classes = compile(tracer);

    // One warmed server, checkpointed and forked.
    let (mut server, iso) = boot_unit(tracer, options);
    let boot = load(tracer, &mut server, iso, &classes.server, "Boot");
    spawn(&mut server, boot, "start", "(I)I", vec![Value::Int(WARM)]);
    assert_eq!(server.run(None), RunOutcome::Idle, "server warms to idle");
    let image = tracer.span("checkpoint.capture", |_| {
        server.checkpoint().expect("idle server checkpoints")
    });
    let image = image.into_bytes();
    let image_bytes = image.len();
    let mut cluster = Cluster::builder()
        .vm_options(options.clone())
        .scheduler(SchedulerKind::Parallel(WORKERS))
        .mailbox_quota(QUOTA_MSGS, QUOTA_BYTES)
        .build();
    // Decode the bytes as a receiving node would (validating them), then
    // fork the clones.
    tracer.span("checkpoint.restore", |_| {
        let image = UnitImage::from_bytes(image).expect("image decodes");
        cluster
            .submit_image_n(&image, SERVERS, ijvm_jsl::install_natives)
            .expect("image forks")
    });

    let mut clients = Vec::with_capacity(plans.len());
    for p in plans {
        let (mut vm, iso) = boot_unit(tracer, options);
        let sink = Arc::new(Mutex::new(Vec::with_capacity(CALLS as usize)));
        install_wall(&mut vm, &classes.wall, epoch, Arc::clone(&sink));
        let (entry, n) = match p.kind {
            ClientKind::Call => ("CallClient", CALLS),
            ClientKind::Post => ("PostClient", WINDOWS),
        };
        let class = load(tracer, &mut vm, iso, &classes.client, entry);
        let args = vec![
            Value::Int(n),
            Value::Int(p.server as i32),
            Value::Int(p.seed),
        ];
        spawn(&mut vm, class, "drive", "(III)I", args);
        clients.push((cluster.submit(vm), sink));
    }
    Built {
        cluster,
        clients,
        image_bytes,
        bytes_emitted: classes.bytes_emitted,
    }
}

/// Checks every client against its host reference; returns the number
/// of failed requests. An unfinished client fails all its requests.
fn check(
    outcome: &ClusterOutcome,
    clients: &[(UnitHandle, Arc<Mutex<Vec<u32>>>)],
    plans: &[ClientPlan],
) -> u64 {
    clients
        .iter()
        .zip(plans)
        .filter(|((h, _), p)| {
            let got = outcome.unit(h).vm.thread_result(ThreadId(0));
            got != Some(Value::Int(p.expected))
        })
        .map(|(_, p)| p.requests())
        .sum()
}

/// Encodes and decodes the first call client's request payloads on its
/// finished VM through `wire::serialize_value` / `deserialize_value`,
/// inside `wire.encode` / `wire.decode` spans. Returns the bytes encoded
/// and the payload count.
fn measure_wire(vm: &mut Vm, plan: &ClientPlan, tracer: &mut Tracer) -> (u64, u64) {
    let loader = vm.loader_of(IsolateId(0)).expect("isolate exists");
    let class = vm
        .find_class(loader, "CallClient")
        .expect("client class loaded");
    let (mut bytes, mut buf) = (0u64, Vec::new());
    let mut s = plan.seed;
    for _ in 0..CALLS {
        s = lcg(s);
        let args = vec![Value::Int(call_len(s)), Value::Int(s)];
        let payload = vm
            .call_static_as(class, "payload", "(II)[I", args, IsolateId(0))
            .expect("payload builds")
            .expect("payload returns");
        buf.clear();
        tracer.span("wire.encode", |_| {
            ijvm_core::wire::serialize_value(vm, payload, &mut buf)
        });
        tracer.span("wire.decode", |_| {
            ijvm_core::wire::deserialize_value(vm, &buf, IsolateId(0), loader).expect("decodes")
        });
        bytes += buf.len() as u64;
    }
    (bytes, CALLS as u64)
}

fn add_port_metrics(report: &mut Report, m: &ClusterMetrics, slices: u64) {
    let t = &m.totals;
    report.layer("sched.slices", slices as f64, "count");
    report.layer("sched.steals", m.steals as f64, "count");
    report.layer("sched.migrations", m.migrations as f64, "count");
    report.layer("sched.dispatches", m.dispatches as f64, "count");
    report.layer("sched.unit_parks", m.unit_parks as f64, "count");
    report.layer("sched.unit_unparks", m.unit_unparks as f64, "count");
    report.layer("port.calls_sent", t.calls_sent as f64, "count");
    report.layer("port.posts_sent", t.posts_sent as f64, "count");
    report.layer(
        "port.replies_delivered",
        t.replies_delivered as f64,
        "count",
    );
    report.layer("port.quota_parks", t.quota_parks as f64, "count");
    report.layer("port.quota_unparks", t.quota_unparks as f64, "count");
    report.layer(
        "port.mailbox_high_water",
        t.mailbox_high_water as f64,
        "count",
    );
    report.layer(
        "port.call_latency_p99_ticks",
        t.call_latency.quantile(0.99) as f64,
        "ticks",
    );
}

/// Runs the workload: rounds until `cfg.seconds` have passed (at least
/// three). In the traced run, rounds alternate untraced and traced.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Report {
    let mut rng = Rng::new(cfg.seed, "cluster");
    let epoch = Instant::now();
    let mut report = Report {
        scheduler: format!("Parallel({WORKERS})"),
        ..Report::default()
    };
    let mut setup_s = Vec::new();
    let mut rtts_us: Vec<f64> = Vec::new();
    let mut rtts_traced_us: Vec<f64> = Vec::new();
    let (mut requests, mut run_wall) = (0u64, 0.0f64);
    let mut last_metrics: Option<(ClusterMetrics, u64)> = None;
    let mut wire: Option<(u64, u64)> = None;
    let mut insns = Vec::new();
    let (mut image_bytes, mut bytes_emitted) = (0, 0);
    // Σ over the units at wrap-up: collections, heap bytes, isolates, classes.
    let mut unit_totals = [0u64; 4];
    let started = Instant::now();
    let mut round = 0usize;
    while round < 3 || started.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && round % 2 == 1;
        tracer.set_on(traced);
        let plans = plan(&mut rng, cfg.wrong_reference);
        let mut options = VmOptions::isolated();
        if traced {
            options = options.with_trace(TraceConfig::Full);
        }
        let t = Instant::now();
        let built = tracer.op("op.setup", |t| build(t, &plans, &options, epoch));
        setup_s.push(t.elapsed().as_secs_f64());
        image_bytes = built.image_bytes;
        bytes_emitted = built.bytes_emitted;

        let t = Instant::now();
        let mut outcome = tracer.op("op.run", |t| t.span("sched.run", |_| built.cluster.run()));
        let wall = t.elapsed().as_secs_f64();

        let failed = check(&outcome, &built.clients, &plans);
        let round_requests: u64 = plans.iter().map(ClientPlan::requests).sum();
        report.attempted += round_requests;
        report.failed += failed;
        requests += round_requests;
        run_wall += wall;
        let lats = if traced {
            &mut rtts_traced_us
        } else {
            &mut rtts_us
        };
        for (_, sink) in &built.clients {
            lats.extend(
                sink.lock()
                    .expect("rtt sink")
                    .iter()
                    .map(|ns| f64::from(*ns) / 1e3),
            );
        }
        let client_insns: u64 = built
            .clients
            .iter()
            .map(|(h, _)| outcome.unit(h).vm.vclock())
            .sum();
        insns.push(client_insns as f64 / round_requests as f64);
        unit_totals = outcome.units.iter().fold([0; 4], |acc, u| {
            let vm = &u.vm;
            [
                acc[0] + vm.gc_count(),
                acc[1] + vm.heap_used() as u64,
                acc[2] + vm.isolate_count() as u64,
                acc[3] + vm.class_count() as u64,
            ]
        });
        if traced {
            let slices = outcome.units.iter().map(|u| u.report.slices).sum();
            last_metrics = outcome.metrics.take().map(|m| (m, slices));
            if wire.is_none() {
                // Client 0 is a call client (clients alternate call, post).
                let vm = &mut outcome.unit_mut(&built.clients[0].0).vm;
                wire = Some(tracer.op("op.wire", |t| measure_wire(vm, &plans[0], t)));
            }
        }
        drop(outcome);
        round += 1;
    }
    tracer.set_on(cfg.trace);

    let [p50, p90, p99] = percentiles(&rtts_us);
    let msgs_per_s = requests as f64 / run_wall;
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("latency_p90_ms", p90 / 1e3, "ms");
    report.e2e("ops_per_s", msgs_per_s, "1/s");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    report.named("rpc_p50_us", p50, "us");
    report.named("rpc_p90_us", p90, "us");
    report.named("rpc_p99_us", p99, "us");
    report.named("msgs_per_s", msgs_per_s, "1/s");
    report.named("rpc_samples", rtts_us.len() as f64, "count");

    if cfg.trace {
        let untraced = median(&rtts_us);
        let traced = median(&rtts_traced_us);
        report.layer("trace_overhead", traced / untraced - 1.0, "ratio");
        report.layer("engine.insns", median(&insns), "count");
        report.layer("checkpoint.image_bytes", image_bytes as f64, "bytes");
        report.layer("minijava.bytes_emitted", bytes_emitted as f64, "bytes");
        report.layer("gc.collections", unit_totals[0] as f64, "count");
        report.layer("gc.heap_bytes", unit_totals[1] as f64, "bytes");
        report.layer("vm.isolates_live", unit_totals[2] as f64, "count");
        report.layer("vm.classes_loaded", unit_totals[3] as f64, "count");
        if let Some((m, slices)) = &last_metrics {
            add_port_metrics(&mut report, m, *slices);
        }
        if let Some((bytes, payloads)) = wire {
            let per_byte = |span| tracer.self_times(span).iter().sum::<f64>() / bytes as f64;
            report.layer("wire.encode_ns_per_byte", per_byte("wire.encode"), "ns");
            report.layer("wire.decode_ns_per_byte", per_byte("wire.decode"), "ns");
            report.layer(
                "wire.request_bytes",
                bytes as f64 / payloads as f64,
                "bytes",
            );
        }
        report.layers_from_spans(tracer);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_references_use_java_int_semantics() {
        // Overflowing products must wrap, not widen.
        assert_eq!(
            lcg(i32::MAX),
            i32::MAX.wrapping_mul(1103515245).wrapping_add(12345)
        );
        assert!(payload(8, -5).iter().all(|v| *v >= 0), ">>> is unsigned");
        assert!((LEN_LO..LEN_LO + LEN_SPAN).contains(&call_len(-1)));
        assert_ne!(call_checksum(3, 1), call_checksum(3, 2));
        assert_ne!(post_checksum(2, 1), post_checksum(2, 2));
    }
}
