//! The virtual clock's work model.
//!
//! Benchmarks charge abstract work units (floating-point operations,
//! integer/memory operations, per-element access overheads) and the work
//! model converts them to virtual nanoseconds of the *measurement host*.
//! The default host is calibrated to the paper's Sun 4 (≈1.136 scalar
//! MFLOPS), so virtual execution times land in the same regime as the
//! paper's measurements.

use extrap_time::DurationNs;

/// Conversion from abstract work to host time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkModel {
    /// Cost of one floating-point operation.
    pub flop: DurationNs,
    /// Cost of one integer/logic operation.
    pub int_op: DurationNs,
    /// Cost of one memory access (load or store) not overlapped with
    /// arithmetic.
    pub mem_op: DurationNs,
    /// Fixed overhead per collection-element access (index math, bounds
    /// and ownership checks in the runtime).
    pub elem_access: DurationNs,
}

impl Default for WorkModel {
    fn default() -> WorkModel {
        WorkModel::sun4()
    }
}

impl WorkModel {
    /// The paper's measurement host: a Sun 4 rated at 1.1360 MFLOPS by a
    /// simple floating-point benchmark (§3.3.1), i.e. ≈880 ns per flop.
    pub fn sun4() -> WorkModel {
        WorkModel {
            flop: DurationNs(880),
            int_op: DurationNs(120),
            mem_op: DurationNs(150),
            elem_access: DurationNs(400),
        }
    }

    /// A convenient fast host (1 ns per op) for tests that want small
    /// round numbers.
    pub fn unit() -> WorkModel {
        WorkModel {
            flop: DurationNs(1),
            int_op: DurationNs(1),
            mem_op: DurationNs(1),
            elem_access: DurationNs(1),
        }
    }

    /// Host time for `n` flops.
    pub fn flops(&self, n: u64) -> DurationNs {
        self.flop * n
    }

    /// Host time for `n` integer ops.
    pub fn int_ops(&self, n: u64) -> DurationNs {
        self.int_op * n
    }

    /// Host time for `n` memory ops.
    pub fn mem_ops(&self, n: u64) -> DurationNs {
        self.mem_op * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_accumulates_linearly() {
        let m = WorkModel::unit();
        assert_eq!(m.flops(10), DurationNs(10));
        assert_eq!(m.int_ops(3), DurationNs(3));
        assert_eq!(m.mem_ops(7), DurationNs(7));
    }
}
