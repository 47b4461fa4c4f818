//! A/B comparison of the execution engines: the raw byte interpreter vs
//! the direct-threaded handler dispatch, on identical bytecode and VM
//! configuration. Writes the rows as JSON (default `BENCH_engine.json`;
//! pass a path as the first argument, as the CI bench gate does to keep
//! the committed baseline intact).

use ijvm_bench::checkpoint::{measure_checkpoint, print_checkpoint};
use ijvm_bench::engine::{engine_comparison, print_engine_table, to_json};
use ijvm_bench::parallel::{measure_scaling, print_scaling_table};
use ijvm_bench::saturation::{
    measure_saturation, measure_saturation_scaling, print_saturation, print_saturation_scaling,
    SAT_CLIENTS, SAT_SERVERS, SAT_WINDOWS,
};
use ijvm_bench::trace::{measure_trace_overhead, print_trace_overhead};
use ijvm_bench::xunit::{measure_cross_unit_ratio, print_cross_unit};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_owned());
    let iterations = 200_000;
    let runs = 5;
    println!(
        "Execution engine comparison — raw vs threaded ({iterations} iterations, best of {runs})"
    );
    let rows = engine_comparison(iterations, runs);
    print_engine_table(&rows);
    let scaling = measure_scaling(8, 150_000, 3);
    print_scaling_table(&scaling);
    let cross_unit = measure_cross_unit_ratio(4_000, 3);
    print_cross_unit(&cross_unit);
    let trace = measure_trace_overhead(iterations, 4_000, 3);
    print_trace_overhead(&trace);
    let saturation = measure_saturation(SAT_CLIENTS, SAT_SERVERS, SAT_WINDOWS);
    print_saturation(&saturation);
    let sat_scaling = measure_saturation_scaling();
    print_saturation_scaling(&sat_scaling);
    let checkpoint = measure_checkpoint(8, 3);
    print_checkpoint(&checkpoint);
    let json = to_json(
        &rows,
        iterations,
        Some(&scaling),
        Some(&cross_unit),
        Some(&trace),
        Some(&saturation),
        Some(&sat_scaling),
        Some(&checkpoint),
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("\ncould not write {path}: {e}");
            std::process::exit(1);
        }
    }
}
