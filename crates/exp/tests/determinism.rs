//! The tentpole guarantee: sweeping a figure grid on a worker pool is
//! **byte-identical** to the serial path — same predictions, same CSV
//! bytes, no matter the worker count or scheduling interleavings.

use extrap_exp::experiments::{self, Harness};
use extrap_exp::render_csv;
use extrap_workloads::Scale;

fn csv_of(h: &Harness) -> String {
    let (speedups, times) = experiments::fig4(h).expect("fig4 runs");
    let (f5_times, f5_speedups) = experiments::fig5(h).expect("fig5 runs");
    let mut out = render_csv(&speedups);
    out.push_str(&render_csv(&times));
    out.push_str(&render_csv(&f5_times));
    out.push_str(&render_csv(&f5_speedups));
    out
}

#[test]
fn eight_workers_render_byte_identical_csv() {
    let serial = csv_of(&Harness::serial(Scale::Tiny));
    for workers in [2, 8] {
        let parallel = csv_of(&Harness::new(Scale::Tiny, workers));
        assert_eq!(
            serial, parallel,
            "CSV output with {workers} workers differs from serial"
        );
    }
    assert!(serial.lines().count() > 20, "sanity: CSV is non-trivial");
}

/// The figure sweeps run `MetricsOnly` over compiled programs; the
/// classic full-record trace path must predict the exact same numbers.
#[test]
fn figure_sweeps_match_the_classic_full_record_path() {
    use extrap_core::{machine, CompiledProgram, Extrapolator, RecordMode};
    use extrap_workloads::Bench;

    let h = Harness::serial(Scale::Tiny);
    let params = machine::cm5();
    for n in [2usize, 8] {
        // What the sweep engine computes (compiled + scratch + lean).
        let via_harness = experiments::predict(&h, Bench::Grid, n, &params).expect("predict");
        // The same job, classic path: translate → compile → run, Full.
        let set = extrap_trace::translate(&Bench::Grid.trace(n, Scale::Tiny), Default::default())
            .expect("translate");
        let program = CompiledProgram::compile(&set).expect("compile");
        let classic = Extrapolator::new(params.clone())
            .run(&program)
            .expect("classic run");
        assert_eq!(classic.per_thread, via_harness.per_thread);
        assert_eq!(classic.exec_time(), via_harness.exec_time());
        assert_eq!(classic.events_dispatched, via_harness.events_dispatched);
        // And MetricsOnly over the same compiled program: same numbers,
        // no trace.
        let mut lean_params = params.clone();
        lean_params.record_mode = RecordMode::MetricsOnly;
        let lean = Extrapolator::new(lean_params)
            .run(h.cache().get(Bench::Grid, n).expect("trace").program())
            .expect("lean run");
        assert_eq!(lean.per_thread, classic.per_thread);
        assert!(lean.predicted.threads.is_empty());
    }
}

#[test]
fn shared_cache_translates_each_key_once_across_figures() {
    let h = Harness::new(Scale::Tiny, 8);
    // fig4 and fig5 both touch Grid at every processor count; the
    // second figure must reuse the first one's translations.
    experiments::fig4(&h).expect("fig4 runs");
    let after_fig4 = h.cache().translations();
    experiments::fig5(&h).expect("fig5 runs");
    assert_eq!(
        h.cache().translations(),
        after_fig4,
        "fig5 re-translated traces fig4 already produced"
    );
    assert_eq!(h.cache().translations(), h.cache().len());
}
