//! The §3.3.1 clustering scenario: a multi-clustered machine with shared
//! memory inside each cluster and message passing between clusters.
//! Extrapolation answers "how big should the clusters be for this
//! program?" without the machine existing.
//!
//! ```text
//! cargo run --release --example clustered_machine
//! ```

use perf_extrap::prelude::*;

fn main() {
    let n_threads = 16;

    // Sort exchanges whole blocks at partner distances 2^j: small
    // distances stay inside a cluster, large ones cross the machine.
    let traces = translate(
        &Bench::Sort.trace(n_threads, Scale::Small),
        TranslateOptions::default(),
    )
    .unwrap();
    let params = machine::default_distributed();
    let flat = Extrapolator::new(params.clone())
        .run(&traces)
        .unwrap()
        .exec_time();

    println!(
        "Sort, {n_threads} processors, distributed machine: {:.3} ms (flat network)\n",
        flat.as_ms()
    );
    println!(
        "{:>14} {:>12} {:>12}",
        "cluster size", "time [ms]", "vs flat"
    );
    for cluster_size in [1usize, 2, 4, 8, 16] {
        let pred = extrapolate_clustered(
            &traces,
            &params,
            ClusterParams {
                cluster_size,
                ..ClusterParams::default()
            },
        )
        .unwrap();
        println!(
            "{:>14} {:>12.3} {:>11.1}%",
            cluster_size,
            pred.exec_time().as_ms(),
            (1.0 - pred.exec_time().as_ns() as f64 / flat.as_ns() as f64) * 100.0
        );
    }

    println!(
        "\nShared-memory islands absorb the short-distance exchanges; the\n\
         remaining inter-cluster messages still pay full message-passing\n\
         costs.  The curve quantifies how much locality each cluster size\n\
         captures — a design question extrapolation answers from one\n\
         uniprocessor measurement."
    );
}
