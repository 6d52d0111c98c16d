//! On-device segment reversal for the device-resident pipeline.
//!
//! The paper's Algorithm 2 applies the chosen 2-opt move on the *host*
//! and re-uploads the whole ordered coordinate array every sweep. With
//! the coordinates resident on the device, the move `(i, j)` can instead
//! be applied in place by reversing the position range `[i+1, j]` —
//! `len/2` independent word swaps, striped across the grid. The swaps
//! touch `2 · len` words of global traffic (each word is read once and
//! written once) and need no shared memory and no atomics; with the
//! roofline model this prices at roughly `launch overhead + one global
//! latency + traffic/bandwidth`, far below the per-sweep PCIe upload it
//! replaces once `n` is in the thousands.
//!
//! Wrap-around segments (`from + len > n`) are supported so the kernel
//! is a complete mirror of [`Tour::reverse_segment_wrapping`]; the 2-opt
//! engine only ever issues in-bounds segments.
//!
//! [`Tour::reverse_segment_wrapping`]: tsp_core::Tour::reverse_segment_wrapping

use gpu_sim::{AtomicDeviceBuffer, BlockCtx, Kernel};

/// Reverses `len` consecutive positions starting at `from` (mod the
/// buffer length) of a resident coordinate array of packed
/// [`Point::to_device_word`] words.
///
/// [`Point::to_device_word`]: tsp_core::Point::to_device_word
pub struct SegmentReversalKernel<'a> {
    /// Resident route-ordered coordinates, one packed point per word.
    pub coords: &'a AtomicDeviceBuffer,
    /// First position of the segment.
    pub from: usize,
    /// Segment length in positions (may wrap past the end).
    pub len: usize,
}

impl SegmentReversalKernel<'_> {
    /// Number of element swaps the reversal performs.
    #[inline]
    pub fn swaps(&self) -> usize {
        self.len / 2
    }
}

impl Kernel for SegmentReversalKernel<'_> {
    fn shared_bytes(&self) -> usize {
        0
    }

    fn num_phases(&self) -> usize {
        1
    }

    fn label(&self) -> &str {
        "2opt-reverse"
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let n = self.coords.len();
        if n == 0 || self.len <= 1 {
            return;
        }
        debug_assert!(self.from < n, "segment start out of range");
        debug_assert!(self.len <= n, "segment longer than the tour");
        let swaps = self.swaps() as u64;
        blk.for_each_thread(|ctx| {
            let stride = ctx.total_threads();
            let mut k = ctx.global_thread_id();
            let mut done = 0u64;
            while k < swaps {
                let a = (self.from + k as usize) % n;
                let b = (self.from + self.len - 1 - k as usize) % n;
                let wa = self.coords.load(a);
                let wb = self.coords.load(b);
                self.coords.store(a, wb);
                self.coords.store(b, wa);
                done += 1;
                k += stride;
            }
            // Each swap reads two 8-byte words and writes two back.
            ctx.global_read(done * 16);
            ctx.global_write(done * 16);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{spec, Device, LaunchConfig};
    use tsp_core::{Point, Tour};

    fn points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f32 * 3.0 + 0.5, (n - i) as f32 * 7.0))
            .collect()
    }

    /// Run the kernel and return the resident points, alongside the
    /// host-side reference reversal applied to the same data.
    fn reverse_on_device(
        n: usize,
        from: usize,
        len: usize,
        cfg: LaunchConfig,
    ) -> (Vec<Point>, Vec<Point>) {
        let dev = Device::new(spec::gtx_680_cuda());
        let pts = points(n);
        let words: Vec<u64> = pts.iter().map(|p| p.to_device_word()).collect();
        let buf = dev.alloc_atomic(n, 0).unwrap();
        dev.upload_atomic(&buf, &words).unwrap();
        let k = SegmentReversalKernel {
            coords: &buf,
            from,
            len,
        };
        dev.launch(cfg, &k).unwrap();
        let got: Vec<Point> = buf
            .to_vec()
            .into_iter()
            .map(Point::from_device_word)
            .collect();

        // Reference: permute position indices with the Tour primitive,
        // then gather.
        let mut order = Tour::identity(n);
        order.reverse_segment_wrapping(from, len);
        let want: Vec<Point> = order.as_slice().iter().map(|&c| pts[c as usize]).collect();
        (got, want)
    }

    fn assert_points_bit_equal(got: &[Point], want: &[Point], ctxt: &str) {
        assert_eq!(got.len(), want.len(), "{ctxt}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.x.to_bits(), w.x.to_bits(), "{ctxt}");
            assert_eq!(g.y.to_bits(), w.y.to_bits(), "{ctxt}");
        }
    }

    #[test]
    fn matches_host_reversal_in_bounds() {
        for (n, from, len) in [(10, 2, 5), (10, 0, 10), (7, 3, 4), (100, 17, 60)] {
            let (got, want) = reverse_on_device(n, from, len, LaunchConfig::new(4, 32));
            assert_points_bit_equal(&got, &want, &format!("n={n} from={from} len={len}"));
        }
    }

    #[test]
    fn matches_host_reversal_with_wraparound() {
        for (n, from, len) in [(10, 8, 5), (6, 4, 4), (9, 5, 9)] {
            let (got, want) = reverse_on_device(n, from, len, LaunchConfig::new(4, 32));
            assert_points_bit_equal(&got, &want, &format!("n={n} from={from} len={len}"));
        }
    }

    #[test]
    fn degenerate_segments_are_noops() {
        for len in [0, 1] {
            let (got, want) = reverse_on_device(12, 5, len, LaunchConfig::new(2, 8));
            assert_points_bit_equal(&got, &want, &format!("len={len}"));
        }
    }

    #[test]
    fn result_is_independent_of_launch_geometry() {
        let (reference, _) = reverse_on_device(64, 10, 40, LaunchConfig::new(1, 1));
        for cfg in [
            LaunchConfig::new(1, 64),
            LaunchConfig::new(8, 32),
            LaunchConfig::new(32, 1024),
        ] {
            let (got, _) = reverse_on_device(64, 10, 40, cfg);
            assert_points_bit_equal(&got, &reference, &format!("{cfg:?}"));
        }
    }

    #[test]
    fn traffic_counts_two_words_per_swap_each_way() {
        let dev = Device::new(spec::gtx_680_cuda());
        let n = 1000;
        let words: Vec<u64> = points(n).iter().map(|p| p.to_device_word()).collect();
        let buf = dev.alloc_atomic(n, 0).unwrap();
        dev.upload_atomic(&buf, &words).unwrap();
        let k = SegmentReversalKernel {
            coords: &buf,
            from: 1,
            len: n - 1,
        };
        let profile = dev.launch(LaunchConfig::new(8, 256), &k).unwrap();
        let c = profile.counters;
        let swaps = ((n - 1) / 2) as u64;
        assert_eq!(c.global_read_bytes, swaps * 16);
        assert_eq!(c.global_write_bytes, swaps * 16);
        assert_eq!(c.atomic_ops, 0);
        assert_eq!(c.shared_bytes, 0);
        assert!(profile.seconds > 0.0);
    }
}
