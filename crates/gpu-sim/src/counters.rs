//! Performance counters accumulated by simulated kernels.
//!
//! Kernels account their own work through [`crate::kernel::BlockCtx`];
//! the executor aggregates per-block counters and feeds them to the
//! timing model. Counting is explicit (a kernel that forgets to call
//! `ctx.flops(..)` gets a too-optimistic time) — exactly like annotating
//! a real kernel for a roofline analysis.

use std::ops::AddAssign;

/// Work performed by a kernel (or one block of it).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PerfCounters {
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes moved through on-chip shared memory (reads + writes).
    pub shared_bytes: u64,
    /// Bytes read from global device memory.
    pub global_read_bytes: u64,
    /// Bytes written to global device memory.
    pub global_write_bytes: u64,
    /// Global atomic operations.
    pub atomic_ops: u64,
}

impl PerfCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total global memory traffic in bytes.
    #[inline]
    pub fn global_bytes(&self) -> u64 {
        self.global_read_bytes + self.global_write_bytes
    }

    /// Arithmetic intensity: FLOPs per byte of global traffic, the
    /// x-axis of a roofline plot. Returns 0 when the kernel touched no
    /// global memory (all traffic stayed on-chip).
    #[inline]
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.global_bytes();
        if bytes == 0 {
            return 0.0;
        }
        self.flops as f64 / bytes as f64
    }

    /// `true` when nothing was counted (e.g. an empty launch).
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

impl From<PerfCounters> for tsp_trace::KernelCounters {
    fn from(c: PerfCounters) -> Self {
        tsp_trace::KernelCounters {
            flops: c.flops,
            shared_bytes: c.shared_bytes,
            global_read_bytes: c.global_read_bytes,
            global_write_bytes: c.global_write_bytes,
            atomic_ops: c.atomic_ops,
        }
    }
}

impl AddAssign for PerfCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.flops += rhs.flops;
        self.shared_bytes += rhs.shared_bytes;
        self.global_read_bytes += rhs.global_read_bytes;
        self.global_write_bytes += rhs.global_write_bytes;
        self.atomic_ops += rhs.atomic_ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates_all_fields() {
        let mut a = PerfCounters {
            flops: 1,
            shared_bytes: 2,
            global_read_bytes: 3,
            global_write_bytes: 4,
            atomic_ops: 5,
        };
        a += a;
        assert_eq!(
            a,
            PerfCounters {
                flops: 2,
                shared_bytes: 4,
                global_read_bytes: 6,
                global_write_bytes: 8,
                atomic_ops: 10,
            }
        );
        assert_eq!(a.global_bytes(), 14);
    }

    #[test]
    fn arithmetic_intensity_is_flops_per_global_byte() {
        let c = PerfCounters {
            flops: 320,
            shared_bytes: 999,
            global_read_bytes: 24,
            global_write_bytes: 8,
            atomic_ops: 1,
        };
        assert!((c.arithmetic_intensity() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_intensity_is_zero_safe() {
        // No global traffic at all: defined as 0, not a division by zero.
        let c = PerfCounters {
            flops: 1_000_000,
            shared_bytes: 4096,
            ..Default::default()
        };
        assert_eq!(c.arithmetic_intensity(), 0.0);
        assert_eq!(PerfCounters::default().arithmetic_intensity(), 0.0);
    }

    #[test]
    fn converts_to_trace_counters_field_for_field() {
        let c = PerfCounters {
            flops: 1,
            shared_bytes: 2,
            global_read_bytes: 3,
            global_write_bytes: 4,
            atomic_ops: 5,
        };
        let t: tsp_trace::KernelCounters = c.into();
        assert_eq!(
            (
                t.flops,
                t.shared_bytes,
                t.global_read_bytes,
                t.global_write_bytes,
                t.atomic_ops
            ),
            (1, 2, 3, 4, 5)
        );
        assert_eq!(t.arithmetic_intensity(), c.arithmetic_intensity());
    }

    #[test]
    fn zero_detection() {
        assert!(PerfCounters::new().is_zero());
        let c = PerfCounters {
            flops: 1,
            ..Default::default()
        };
        assert!(!c.is_zero());
    }
}
