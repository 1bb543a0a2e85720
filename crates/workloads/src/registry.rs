//! The benchmark registry: Table 2 of the paper as a runnable suite.

use crate::{cyclic, embar, grid, mgrid, poisson, sort, sparse};
use extrap_trace::ProgramTrace;

/// Problem scale for suite runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Scale {
    /// Minimal sizes for fast tests.
    Tiny,
    /// Sizes for quick experiment runs.
    #[default]
    Small,
    /// Sizes approximating the paper's workloads.
    Paper,
}

impl Scale {
    /// The accepted names, for usage errors.
    pub const VALID: &'static str = "tiny, small, paper";

    /// The scale named `name` (`tiny`, `small` or `paper`).
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The name [`parse`](Scale::parse) reads back.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

/// The pC++ benchmark suite (Table 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Bench {
    /// NAS "embarrassingly parallel" benchmark.
    Embar,
    /// Cyclic reduction computation.
    Cyclic,
    /// NAS random sparse conjugate gradient benchmark.
    Sparse,
    /// Poisson equation on a two-dimensional grid.
    Grid,
    /// NAS multigrid solver benchmark.
    Mgrid,
    /// Fast Poisson solver.
    Poisson,
    /// Bitonic sort module.
    Sort,
}

impl Bench {
    /// Every benchmark, in Table 2 order.
    pub fn all() -> [Bench; 7] {
        [
            Bench::Embar,
            Bench::Cyclic,
            Bench::Sparse,
            Bench::Grid,
            Bench::Mgrid,
            Bench::Poisson,
            Bench::Sort,
        ]
    }

    /// The benchmark named `name`, ignoring case and surrounding
    /// whitespace (`grid`, ` Mgrid`); any other name is an error that
    /// quotes it.
    pub fn parse(name: &str) -> Result<Bench, String> {
        Bench::all()
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name.trim()))
            .ok_or_else(|| format!("unknown benchmark {name:?}; see `extrap benches`"))
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Bench::Embar => "Embar",
            Bench::Cyclic => "Cyclic",
            Bench::Sparse => "Sparse",
            Bench::Grid => "Grid",
            Bench::Mgrid => "Mgrid",
            Bench::Poisson => "Poisson",
            Bench::Sort => "Sort",
        }
    }

    /// Table 2 description.
    pub fn description(&self) -> &'static str {
        match self {
            Bench::Embar => "NAS \"embarrassingly parallel\" benchmark",
            Bench::Cyclic => "Cyclic reduction computation",
            Bench::Sparse => "NAS random sparse conjugate gradient benchmark",
            Bench::Grid => "Poisson equation on a two dimensional grid",
            Bench::Mgrid => "NAS multigrid solver benchmark",
            Bench::Poisson => "Fast Poisson solver",
            Bench::Sort => "Bitonic sort module",
        }
    }

    /// Runs the benchmark on `n_threads` at the given scale and returns
    /// the instrumented 1-processor trace.
    pub fn trace(&self, n_threads: usize, scale: Scale) -> ProgramTrace {
        match self {
            Bench::Embar => {
                let pairs = match scale {
                    Scale::Tiny => 50_000,
                    Scale::Small => 200_000,
                    Scale::Paper => 1_000_000,
                };
                embar::run(
                    n_threads,
                    &embar::EmbarConfig {
                        pairs,
                        seed: 271_828,
                    },
                )
                .0
            }
            Bench::Cyclic => {
                let (log2_size, batch) = match scale {
                    Scale::Tiny => (8, 16),
                    Scale::Small => (12, 64),
                    Scale::Paper => (13, 128),
                };
                cyclic::run(n_threads, &cyclic::CyclicConfig { log2_size, batch }).0
            }
            Bench::Sparse => {
                let (n, nnz, iters) = match scale {
                    Scale::Tiny => (256, 8, 4),
                    Scale::Small => (4_096, 16, 10),
                    Scale::Paper => (8_192, 24, 12),
                };
                sparse::run(
                    n_threads,
                    &sparse::SparseConfig {
                        n,
                        nnz_per_row: nnz,
                        iters,
                        seed: 1_618,
                    },
                )
                .0
            }
            Bench::Grid => {
                let (size, iters): (usize, usize) = match scale {
                    Scale::Tiny => (80, 10),
                    Scale::Small => (80, 40),
                    Scale::Paper => (160, 100),
                };
                // Grid needs a size divisible by the thread grid's side;
                // rounding up leaves every size that already divides alone.
                let side = pcpp_rt::distribution::isqrt(n_threads);
                grid::run(
                    n_threads,
                    &grid::GridConfig {
                        size: size.next_multiple_of(side),
                        iters,
                        fused: true,
                    },
                )
                .0
            }
            Bench::Mgrid => {
                let (log2_size, cycles, width) = match scale {
                    Scale::Tiny => (6, 2, 4),
                    Scale::Small => (10, 3, 16),
                    Scale::Paper => (11, 4, 32),
                };
                mgrid::run(
                    n_threads,
                    &mgrid::MgridConfig {
                        log2_size,
                        cycles,
                        smooth: 2,
                        width,
                    },
                )
                .0
            }
            Bench::Poisson => {
                let size = match scale {
                    Scale::Tiny => 24,
                    Scale::Small => 64,
                    Scale::Paper => 96,
                };
                poisson::run(n_threads, &poisson::PoissonConfig { size }).0
            }
            Bench::Sort => {
                let total_keys = match scale {
                    Scale::Tiny => 1 << 13,
                    Scale::Small => 1 << 18,
                    Scale::Paper => 1 << 20,
                };
                sort::run(
                    n_threads,
                    &sort::SortConfig {
                        total_keys,
                        seed: 31_415,
                    },
                )
                .0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_trace_at_tiny_scale() {
        for bench in Bench::all() {
            for threads in [1, 4] {
                let trace = bench.trace(threads, Scale::Tiny);
                assert!(
                    trace.records.len() >= 4,
                    "{} produced a trivial trace",
                    bench.name()
                );
                let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
                assert!(ts.makespan().as_ns() > 0, "{}", bench.name());
            }
        }
    }

    #[test]
    fn names_and_descriptions_are_stable() {
        assert_eq!(Bench::all().len(), 7);
        assert_eq!(Bench::Embar.name(), "Embar");
        assert!(Bench::Sparse.description().contains("conjugate gradient"));
    }

    #[test]
    fn names_parse_back() {
        for bench in Bench::all() {
            assert_eq!(Bench::parse(bench.name()), Ok(bench));
        }
        assert_eq!(Bench::parse(" mGRID "), Ok(Bench::Mgrid));
        assert_eq!(
            Bench::parse("matmul").unwrap_err(),
            "unknown benchmark \"matmul\"; see `extrap benches`"
        );
        for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
        assert_eq!(Scale::parse("Tiny"), None);
    }

    #[test]
    fn grid_traces_at_any_thread_count() {
        // 1024 threads form a 32x32 grid, which 80 does not divide; the
        // size rounds up to 96 instead of panicking.
        let trace = Bench::Grid.trace(1024, Scale::Tiny);
        assert_eq!(trace.n_threads, 1024);
    }

    #[test]
    fn grid_size_divides_all_experiment_thread_grids() {
        // The experiment harness uses 1..32 processors; Grid's sizes must
        // divide by floor(sqrt(n)) for each.
        for scale_size in [40usize, 80, 160] {
            for n in [1usize, 2, 4, 8, 16, 32] {
                let s = pcpp_rt::distribution::isqrt(n);
                assert_eq!(scale_size % s, 0, "size {scale_size} threads {n}");
            }
        }
    }
}
