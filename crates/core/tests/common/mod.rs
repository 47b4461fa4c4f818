//! Lane selection shared by the cluster differential suites
//! (`port_messaging`, `port_flow_control`, `port_scaling`,
//! `checkpoint_restore`), so the CI differential matrix crosses with
//! every suite the same way:
//!
//! * `IJVM_DIFF_ENGINE` — `threaded`, `threaded-nofuse`, `parallel`,
//!   `parallel-nofuse` or `raw` (the same values as
//!   `engine_differential.rs`; the cluster is always involved here, so
//!   the `parallel*` lanes map to their engines), unset for `threaded`;
//! * `IJVM_DIFF_ISOLATION` — `shared` or `isolated`, unset for
//!   `isolated` (messaging works in both modes, accounting only exists
//!   in isolated).
//!
//! Any other value panics, so a stale lane name cannot pass vacuously
//! by falling back to the default.

use ijvm_core::engine::EngineKind;
use ijvm_core::prelude::*;

/// Reads `var`, treating an empty value as unset.
fn lane_var(var: &str) -> Option<String> {
    std::env::var(var).ok().filter(|v| !v.is_empty())
}

/// Engine/fusion lane selected by `IJVM_DIFF_ENGINE`.
fn engine_lane() -> (EngineKind, bool) {
    match lane_var("IJVM_DIFF_ENGINE").as_deref() {
        None | Some("threaded") | Some("parallel") => (EngineKind::Threaded, true),
        Some("threaded-nofuse") | Some("parallel-nofuse") => (EngineKind::Threaded, false),
        Some("raw") => (EngineKind::Raw, true),
        Some(other) => panic!("bad IJVM_DIFF_ENGINE {other:?}"),
    }
}

/// Isolation lane selected by `IJVM_DIFF_ISOLATION`.
pub fn isolation_lane() -> IsolationMode {
    match lane_var("IJVM_DIFF_ISOLATION").as_deref() {
        None | Some("isolated") => IsolationMode::Isolated,
        Some("shared") => IsolationMode::Shared,
        Some(other) => panic!("bad IJVM_DIFF_ISOLATION {other:?}"),
    }
}

/// VM options for the selected lane with the given quantum.
pub fn lane_options(quantum: u32) -> VmOptions {
    let (engine, fuse) = engine_lane();
    let mut options = match isolation_lane() {
        IsolationMode::Shared => VmOptions::shared(),
        IsolationMode::Isolated => VmOptions::isolated(),
    }
    .with_engine(engine)
    .with_superinstructions(fuse);
    options.quantum = quantum;
    options
}
