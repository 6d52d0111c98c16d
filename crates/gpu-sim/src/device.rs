//! The device façade: allocation, transfers and kernel launches.

use crate::counters::PerfCounters;
use crate::error::SimError;
use crate::kernel::{BlockCtx, Kernel, LaunchConfig};
use crate::memory::{AtomicDeviceBuffer, DeviceBuffer, MemoryPool, DEFAULT_BUFFER_LABEL};
use crate::metrics::DeviceTelemetry;
use crate::profile::{KernelProfile, TransferProfile};
use crate::spec::DeviceSpec;
use crate::stream::EngineClass;
use crate::stream::{self, EventId, QueuedOp, StreamId, StreamReport, StreamTable};
use crate::timing;
use parking_lot::Mutex;
use std::sync::Arc;
use tsp_prof::Profiler;
use tsp_telemetry::Telemetry;
use tsp_trace::{Recorder, TraceEvent};

/// A simulated compute device.
///
/// Kernels execute *functionally* (real results, bit-exact and
/// deterministic) while time is *modeled* from the work counters — see
/// [`crate::timing`]. Each block is one host call of
/// [`Kernel::run_block`], made in block order on the launching thread.
/// A `Device` is shared: launches from different host threads (service
/// lanes, `DevicePool` jobs) run concurrently.
pub struct Device {
    spec: DeviceSpec,
    index: u32,
    pool: Arc<MemoryPool>,
    recorder: Recorder,
    telemetry: Option<DeviceTelemetry>,
    prof: Profiler,
    streams: Mutex<StreamTable>,
}

impl Device {
    /// Bring up a device with the given spec.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_index(spec, 0)
    }

    /// Bring up a device carrying a pool index, used to label its stream
    /// trace tracks (`DevicePool` numbers its devices this way).
    pub fn with_index(spec: DeviceSpec, index: u32) -> Self {
        let pool = MemoryPool::new(spec.global_mem_bytes);
        Device {
            spec,
            index,
            pool,
            recorder: Recorder::disabled(),
            telemetry: None,
            prof: Profiler::detached(),
            streams: Mutex::new(StreamTable::default()),
        }
    }

    /// This device's index within its pool (0 for standalone devices).
    #[inline]
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Attach the device-side observation sinks (detached handles cost
    /// one branch per site). `recorder` gets the kernel, transfer and
    /// stream events, plus one [`TraceEvent::Device`] describing this
    /// device right away; `telemetry` gets launch, transfer and
    /// synchronize metrics labeled with this device's pool index, and
    /// the `tsp_device_mem_*` gauges; `prof` gets a leaf span per launch
    /// and transfer, and every allocation, release and upload of this
    /// device's memory pool in its ledger.
    pub fn attach(&mut self, recorder: &Recorder, telemetry: &Telemetry, prof: &Profiler) {
        recorder.record_with(|| TraceEvent::Device(self.spec.trace_info()));
        self.recorder = recorder.clone();
        self.telemetry = telemetry.registry().map(|r| {
            let t = DeviceTelemetry::register(r, self.index);
            let (live, peak) = t.mem_gauges();
            self.pool.attach_mem_gauges(live, peak);
            t
        });
        self.pool.attach_ledger(prof, self.index);
        self.prof = prof.clone();
    }

    /// The attached recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The device's specification.
    #[inline]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Bytes currently allocated on the device.
    pub fn allocated_bytes(&self) -> u64 {
        self.pool.allocated()
    }

    /// High-water mark of bytes allocated on the device, tracked
    /// unconditionally over its lifetime.
    pub fn peak_allocated_bytes(&self) -> u64 {
        self.pool.peak_bytes()
    }

    /// Pre-reserve `bytes` as a serving arena on this device. While
    /// installed, every buffer allocation is satisfied inside the arena
    /// with no per-buffer ledger traffic — the seam the slot-pooled
    /// serving layer uses to reach zero steady-state device
    /// allocations. See [`MemoryPool::install_arena`].
    ///
    /// [`MemoryPool::install_arena`]: crate::memory::MemoryPool::install_arena
    pub fn install_arena(&self, bytes: u64) -> Result<(), SimError> {
        self.pool.install_arena(bytes)
    }

    /// Tear the serving arena down (journals the matching free). Call
    /// after every arena buffer has been dropped.
    pub fn uninstall_arena(&self) {
        self.pool.uninstall_arena()
    }

    /// Installed arena bytes (0 when no arena is installed).
    pub fn arena_capacity(&self) -> u64 {
        self.pool.arena_capacity()
    }

    /// Arena bytes currently handed out to live buffers.
    pub fn arena_live(&self) -> u64 {
        self.pool.arena_live()
    }

    /// High-water mark of arena bytes handed out.
    pub fn arena_peak_bytes(&self) -> u64 {
        self.pool.arena_peak_bytes()
    }

    /// Allocate a device buffer holding `data` (no transfer modeled; use
    /// [`Device::copy_to_device`] when the H2D cost matters).
    pub fn alloc<T: Copy>(&self, data: Vec<T>) -> Result<DeviceBuffer<T>, SimError> {
        self.alloc_labeled(data, DEFAULT_BUFFER_LABEL)
    }

    /// [`Device::alloc`] journaled in the memory ledger under `label`.
    pub fn alloc_labeled<T: Copy>(
        &self,
        data: Vec<T>,
        label: &'static str,
    ) -> Result<DeviceBuffer<T>, SimError> {
        DeviceBuffer::new_labeled(data, self.pool.clone(), label)
    }

    /// Allocate an atomic buffer of `len` 64-bit words, each initialised
    /// to `init`.
    pub fn alloc_atomic(&self, len: usize, init: u64) -> Result<AtomicDeviceBuffer, SimError> {
        self.alloc_atomic_labeled(len, init, DEFAULT_BUFFER_LABEL)
    }

    /// [`Device::alloc_atomic`] journaled in the memory ledger under
    /// `label`.
    pub fn alloc_atomic_labeled(
        &self,
        len: usize,
        init: u64,
        label: &'static str,
    ) -> Result<AtomicDeviceBuffer, SimError> {
        AtomicDeviceBuffer::new(len, init, self.pool.clone(), label)
    }

    /// Copy host data to a fresh device buffer, modeling the PCIe cost —
    /// step 1 of the paper's Algorithm 2 ("Copy the tour and the
    /// coordinates to the GPU global memory").
    pub fn copy_to_device<T: Copy>(
        &self,
        data: &[T],
    ) -> Result<(DeviceBuffer<T>, TransferProfile), SimError> {
        self.copy_to_device_labeled(data, DEFAULT_BUFFER_LABEL)
    }

    /// [`Device::copy_to_device`] journaled in the memory ledger under
    /// `label`.
    pub fn copy_to_device_labeled<T: Copy>(
        &self,
        data: &[T],
        label: &'static str,
    ) -> Result<(DeviceBuffer<T>, TransferProfile), SimError> {
        self.copy_in(None, data, label)
    }

    /// Model a host→device copy of an existing allocation's refresh.
    pub fn h2d_profile(&self, bytes: u64) -> TransferProfile {
        TransferProfile {
            seconds: timing::h2d_time(&self.spec, bytes),
            bytes,
        }
    }

    /// Refresh an existing atomic allocation from the host, modeling the
    /// PCIe cost — the upload path of a device-resident pipeline, where
    /// the coordinate buffer is allocated once and only *re-filled* when
    /// the host's copy of the data diverges from the device's.
    pub fn upload_atomic(
        &self,
        buf: &AtomicDeviceBuffer,
        words: &[u64],
    ) -> Result<TransferProfile, SimError> {
        buf.overwrite(words)?;
        self.transfer(None, Some(buf.label()), buf.bytes())
    }

    /// Read an atomic buffer back to the host, modeling the D2H cost —
    /// step 6 of the paper's Algorithm 2 ("Read the result").
    pub fn copy_from_device(&self, buf: &AtomicDeviceBuffer) -> (Vec<u64>, TransferProfile) {
        let profile = self
            .transfer(None, None, buf.bytes())
            .expect("only a stream handle can be rejected");
        (buf.to_vec(), profile)
    }

    /// Model a device→host copy of `bytes`.
    pub fn d2h_profile(&self, bytes: u64) -> TransferProfile {
        TransferProfile {
            seconds: timing::d2h_time(&self.spec, bytes),
            bytes,
        }
    }

    /// Launch a kernel, executing every block functionally and returning
    /// the modeled profile.
    ///
    /// # Errors
    /// * [`SimError::SharedMemExceeded`] — the kernel's declared shared
    ///   footprint exceeds the per-block limit (this is the error that
    ///   forces the §IV.B division scheme for big instances);
    /// * [`SimError::InvalidLaunch`] — zero-sized grid/block or a block
    ///   larger than the hardware limit.
    pub fn launch<K: Kernel>(
        &self,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<KernelProfile, SimError> {
        self.launch_inner(cfg, kernel, None, None)
    }

    /// [`Device::launch`] with a per-launch profiler label, overriding
    /// [`Kernel::label`] for this launch only.
    pub fn launch_labeled<K: Kernel>(
        &self,
        cfg: LaunchConfig,
        kernel: &K,
        label: &str,
    ) -> Result<KernelProfile, SimError> {
        self.launch_inner(cfg, kernel, Some(label), None)
    }

    // ---- Streams -------------------------------------------------------

    /// Create a new stream on this device. Streams live for the device's
    /// lifetime; ops submitted with the `_on` methods queue on them and
    /// are laid onto the device's engines by [`Device::synchronize`].
    pub fn create_stream(&self) -> StreamId {
        let mut table = self.streams.lock();
        table.queues.push(Vec::new());
        StreamId(table.queues.len() - 1)
    }

    /// Streams created on this device so far.
    pub fn stream_count(&self) -> usize {
        self.streams.lock().queues.len()
    }

    fn check_stream(table: &StreamTable, stream: StreamId) -> Result<(), SimError> {
        if stream.0 >= table.queues.len() {
            return Err(SimError::InvalidStream {
                index: stream.0,
                count: table.queues.len(),
            });
        }
        Ok(())
    }

    fn enqueue(&self, stream: StreamId, op: QueuedOp) -> Result<(), SimError> {
        let mut table = self.streams.lock();
        Self::check_stream(&table, stream)?;
        table.queues[stream.0].push(op);
        Ok(())
    }

    /// [`Device::launch`] on a stream: the kernel executes functionally
    /// right now (results are schedule-independent), but its modeled time
    /// queues on `stream` and is only placed on the device timeline by
    /// [`Device::synchronize`]. The returned profile carries the op's
    /// *duration*; its position in time is the scheduler's business.
    pub fn launch_on<K: Kernel>(
        &self,
        stream: StreamId,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<KernelProfile, SimError> {
        self.launch_inner(cfg, kernel, None, Some(stream))
    }

    /// [`Device::launch_on`] with a per-launch label.
    pub fn launch_labeled_on<K: Kernel>(
        &self,
        stream: StreamId,
        cfg: LaunchConfig,
        kernel: &K,
        label: &str,
    ) -> Result<KernelProfile, SimError> {
        self.launch_inner(cfg, kernel, Some(label), Some(stream))
    }

    /// [`Device::copy_to_device`] on a stream.
    pub fn copy_to_device_on<T: Copy>(
        &self,
        stream: StreamId,
        data: &[T],
    ) -> Result<(DeviceBuffer<T>, TransferProfile), SimError> {
        self.copy_to_device_on_labeled(stream, data, DEFAULT_BUFFER_LABEL)
    }

    /// [`Device::copy_to_device_on`] journaled in the memory ledger
    /// under `label`.
    pub fn copy_to_device_on_labeled<T: Copy>(
        &self,
        stream: StreamId,
        data: &[T],
        label: &'static str,
    ) -> Result<(DeviceBuffer<T>, TransferProfile), SimError> {
        self.copy_in(Some(stream), data, label)
    }

    /// [`Device::upload_atomic`] on a stream.
    pub fn upload_atomic_on(
        &self,
        stream: StreamId,
        buf: &AtomicDeviceBuffer,
        words: &[u64],
    ) -> Result<TransferProfile, SimError> {
        buf.overwrite(words)?;
        self.transfer(Some(stream), Some(buf.label()), buf.bytes())
    }

    /// [`Device::copy_from_device`] on a stream. Unlike the serial
    /// variant this is fallible: the stream handle is validated.
    pub fn copy_from_device_on(
        &self,
        stream: StreamId,
        buf: &AtomicDeviceBuffer,
    ) -> Result<(Vec<u64>, TransferProfile), SimError> {
        let profile = self.transfer(Some(stream), None, buf.bytes())?;
        Ok((buf.to_vec(), profile))
    }

    /// Record an event at the current tail of `stream`. The event fires
    /// (for [`Device::wait_event`] purposes) when all work submitted to
    /// the stream before this call has finished.
    pub fn record_event(&self, stream: StreamId) -> Result<EventId, SimError> {
        let mut table = self.streams.lock();
        Self::check_stream(&table, stream)?;
        let id = table.n_events;
        table.n_events += 1;
        table.queues[stream.0].push(QueuedOp::Record(id));
        Ok(EventId(id))
    }

    /// Make `stream` wait for `event` before running anything submitted
    /// after this call. Events are scoped to one `synchronize` epoch: a
    /// handle from before the last synchronize is rejected.
    pub fn wait_event(&self, stream: StreamId, event: EventId) -> Result<(), SimError> {
        let mut table = self.streams.lock();
        Self::check_stream(&table, stream)?;
        if event.0 >= table.n_events {
            return Err(SimError::InvalidStream {
                index: event.0,
                count: table.n_events,
            });
        }
        table.queues[stream.0].push(QueuedOp::Wait(event.0));
        Ok(())
    }

    /// Drain every stream: run the deterministic overlap scheduler over
    /// all queued ops, emit [`TraceEvent::StreamOp`]/
    /// [`TraceEvent::StreamSync`] on the attached recorder, and return
    /// the resolved schedule. Streams survive (and keep their ids);
    /// queued ops and events are consumed.
    pub fn synchronize(&self) -> StreamReport {
        let taken = {
            let mut table = self.streams.lock();
            let n = table.queues.len();
            let taken = std::mem::take(&mut *table);
            table.queues = vec![Vec::new(); n];
            taken
        };
        let report = stream::schedule(self.index, &self.spec, taken);
        if self.recorder.is_enabled() && !report.ops.is_empty() {
            for e in report.trace_events() {
                self.recorder.record(e);
            }
        }
        if let Some(t) = &self.telemetry {
            if !report.ops.is_empty() {
                t.sync(&report);
            }
        }
        report
    }

    /// Allocate a buffer for `data` and upload it (serially, or queued
    /// on `stream`).
    fn copy_in<T: Copy>(
        &self,
        stream: Option<StreamId>,
        data: &[T],
        label: &'static str,
    ) -> Result<(DeviceBuffer<T>, TransferProfile), SimError> {
        let buf = self.alloc_labeled(data.to_vec(), label)?;
        let profile = self.transfer(stream, Some(label), buf.bytes())?;
        Ok((buf, profile))
    }

    /// Model one PCIe transfer of `bytes` — an upload into the buffer
    /// labeled `upload` in the memory ledger, or a readback when `None`
    /// — and report it: a serial copy records its `H2d`/`D2h` event now,
    /// a streamed one queues on `stream` for the scheduler; telemetry,
    /// the profiler and (for uploads) the ledger see both alike.
    fn transfer(
        &self,
        stream: Option<StreamId>,
        upload: Option<&'static str>,
        bytes: u64,
    ) -> Result<TransferProfile, SimError> {
        let (seconds, engine, label, event) = match upload {
            Some(_) => {
                let seconds = timing::h2d_time(&self.spec, bytes);
                let event = TraceEvent::H2d { bytes, seconds };
                (seconds, EngineClass::CopyH2d, "H2D", event)
            }
            None => {
                let seconds = timing::d2h_time(&self.spec, bytes);
                let event = TraceEvent::D2h { bytes, seconds };
                (seconds, EngineClass::CopyD2h, "D2H", event)
            }
        };
        match stream {
            Some(s) => {
                let label = label.into();
                self.enqueue(
                    s,
                    QueuedOp::Exec {
                        engine,
                        label,
                        seconds,
                        bytes,
                    },
                )?;
            }
            None => self.recorder.record(event),
        }
        if let Some(t) = &self.telemetry {
            match upload {
                Some(_) => t.h2d(bytes, seconds),
                None => t.d2h(bytes, seconds),
            }
        }
        if let Some(label) = upload {
            self.pool.note_upload(bytes, label);
        }
        self.prof
            .leaf(if upload.is_some() { "h2d" } else { "d2h" }, seconds);
        Ok(TransferProfile { seconds, bytes })
    }

    fn launch_inner<K: Kernel>(
        &self,
        cfg: LaunchConfig,
        kernel: &K,
        label: Option<&str>,
        stream: Option<StreamId>,
    ) -> Result<KernelProfile, SimError> {
        if let Some(s) = stream {
            Self::check_stream(&self.streams.lock(), s)?;
        }
        if cfg.grid_dim == 0 || cfg.block_dim == 0 {
            return Err(SimError::InvalidLaunch(format!(
                "grid {} x block {} must both be nonzero",
                cfg.grid_dim, cfg.block_dim
            )));
        }
        if cfg.block_dim > self.spec.max_threads_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "block dim {} exceeds device limit {}",
                cfg.block_dim, self.spec.max_threads_per_block
            )));
        }
        let requested = kernel.shared_bytes();
        if requested > self.spec.shared_mem_per_block {
            return Err(SimError::SharedMemExceeded {
                requested,
                limit: self.spec.shared_mem_per_block,
            });
        }

        // Blocks run one after another on the calling thread. A launch
        // is typically well under a millisecond of host work, so fanning
        // it out would cost a thread hand-off per launch and tie its wall
        // time to whichever core is slowest at that moment; callers that
        // want host parallelism (service lanes, `DevicePool::run` jobs) run
        // whole launches concurrently instead.
        let phases = kernel.num_phases() as u32;
        let mut block_times = Vec::with_capacity(cfg.grid_dim as usize);
        let mut total = PerfCounters::new();
        for block_idx in 0..cfg.grid_dim {
            let mut counters = PerfCounters::new();
            kernel.run_block(&mut BlockCtx {
                block_idx,
                block_dim: cfg.block_dim,
                grid_dim: cfg.grid_dim,
                counters: &mut counters,
            });
            block_times.push(timing::block_time(&self.spec, &counters, phases));
            total += counters;
        }
        let seconds = timing::kernel_time(&self.spec, &block_times);
        if let Some(t) = &self.telemetry {
            t.kernel(seconds);
        }
        if self.prof.is_enabled() {
            let resolved = label.unwrap_or_else(|| kernel.label());
            self.prof.leaf(&format!("kernel:{resolved}"), seconds);
        }
        if let Some(s) = stream {
            // Streamed launches defer their timing to the scheduler; the
            // serialized recorder event doesn't apply.
            let resolved = label.unwrap_or_else(|| kernel.label()).to_string();
            self.enqueue(
                s,
                QueuedOp::Exec {
                    engine: EngineClass::Compute,
                    label: resolved,
                    seconds,
                    bytes: 0,
                },
            )?;
        } else {
            self.recorder.record_with(|| TraceEvent::Kernel {
                label: label.unwrap_or_else(|| kernel.label()).to_string(),
                seconds,
                grid_dim: cfg.grid_dim,
                block_dim: cfg.block_dim,
                counters: total.into(),
            });
        }
        Ok(KernelProfile {
            seconds,
            counters: total,
            config: cfg,
        })
    }
}

impl Drop for Device {
    /// A device dropped while buffers are still live is a leak: those
    /// buffers hold their own `Arc<MemoryPool>` so the accounting stays
    /// sound, but nothing can ever free the device's view of that
    /// memory. Journal it so `tsp-inspect mem` can flag it.
    fn drop(&mut self) {
        let live = self.pool.allocated();
        if live > 0 {
            self.pool.note_leak(live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::gtx_680_cuda;

    /// A toy kernel: phase 0 stages `data` into shared memory
    /// cooperatively; phase 1 sums squares of the staged values into a
    /// global atomic (one add per thread-strided element).
    struct SumSquares<'a> {
        data: &'a DeviceBuffer<u32>,
        out: &'a AtomicDeviceBuffer,
    }

    impl Kernel for SumSquares<'_> {
        fn shared_bytes(&self) -> usize {
            self.data.len() * 4
        }

        fn num_phases(&self) -> usize {
            2
        }

        fn run_block(&self, blk: &mut BlockCtx<'_>) {
            let n = self.data.len() as u64;
            let stride = blk.total_threads();
            let mut shared = vec![0u32; self.data.len()];
            blk.for_each_thread(|ctx| {
                let mut k = ctx.global_thread_id();
                while k < n {
                    shared[k as usize] = self.data.as_slice()[k as usize];
                    ctx.global_read(4);
                    ctx.shared_bytes(4);
                    k += stride;
                }
            });
            blk.for_each_thread(|ctx| {
                let mut local = 0u64;
                let mut k = ctx.global_thread_id();
                let mut evals = 0u64;
                while k < n {
                    let v = shared[k as usize] as u64;
                    local += v * v;
                    evals += 1;
                    k += stride;
                }
                ctx.shared_bytes(evals * 4);
                ctx.flops(evals * 2);
                if local > 0 {
                    self.out.fetch_add(0, local);
                    ctx.atomics(1);
                }
            });
        }
    }

    #[test]
    fn functional_result_is_exact() {
        let dev = Device::new(gtx_680_cuda());
        let data: Vec<u32> = (1..=100).collect();
        let (buf, _) = dev.copy_to_device(&data).unwrap();
        let out = dev.alloc_atomic(1, 0).unwrap();
        let kernel = SumSquares {
            data: &buf,
            out: &out,
        };
        let profile = dev.launch(LaunchConfig::new(4, 32), &kernel).unwrap();
        let expected: u64 = (1..=100u64).map(|v| v * v).sum();
        assert_eq!(out.load(0), expected);
        assert!(profile.seconds > 0.0);
        assert_eq!(profile.counters.flops, 200);
        assert_eq!(profile.counters.global_read_bytes, 400);
    }

    #[test]
    fn result_is_independent_of_launch_geometry() {
        let dev = Device::new(gtx_680_cuda());
        let data: Vec<u32> = (1..=1000).collect();
        let (buf, _) = dev.copy_to_device(&data).unwrap();
        let expected: u64 = (1..=1000u64).map(|v| v * v).sum();
        for (g, b) in [(1, 1), (1, 128), (7, 33), (16, 1024)] {
            let out = dev.alloc_atomic(1, 0).unwrap();
            let kernel = SumSquares {
                data: &buf,
                out: &out,
            };
            dev.launch(LaunchConfig::new(g, b), &kernel).unwrap();
            assert_eq!(out.load(0), expected, "geometry {g}x{b}");
        }
    }

    #[test]
    fn shared_mem_limit_is_enforced() {
        let dev = Device::new(gtx_680_cuda());
        let data = vec![0u32; 20_000]; // 80 kB > 48 kB shared
        let (buf, _) = dev.copy_to_device(&data).unwrap();
        let out = dev.alloc_atomic(1, 0).unwrap();
        let kernel = SumSquares {
            data: &buf,
            out: &out,
        };
        let err = dev.launch(LaunchConfig::new(1, 32), &kernel).unwrap_err();
        assert!(matches!(err, SimError::SharedMemExceeded { .. }));
    }

    #[test]
    fn invalid_launches_are_rejected() {
        let dev = Device::new(gtx_680_cuda());
        let data = vec![1u32; 8];
        let (buf, _) = dev.copy_to_device(&data).unwrap();
        let out = dev.alloc_atomic(1, 0).unwrap();
        let kernel = SumSquares {
            data: &buf,
            out: &out,
        };
        assert!(dev.launch(LaunchConfig::new(0, 32), &kernel).is_err());
        assert!(dev.launch(LaunchConfig::new(1, 0), &kernel).is_err());
        assert!(dev.launch(LaunchConfig::new(1, 4096), &kernel).is_err());
    }

    #[test]
    fn upload_atomic_refreshes_in_place_and_prices_the_copy() {
        let dev = Device::new(gtx_680_cuda());
        let buf = dev.alloc_atomic(4, 0).unwrap();
        let before = dev.allocated_bytes();
        let prof = dev.upload_atomic(&buf, &[1, 2, 3, 4]).unwrap();
        assert_eq!(buf.to_vec(), vec![1, 2, 3, 4]);
        // No new allocation: the refresh reuses the resident buffer.
        assert_eq!(dev.allocated_bytes(), before);
        assert_eq!(prof.bytes, 32);
        // Costs exactly what a fresh H2D copy of the same bytes costs.
        assert_eq!(prof.seconds, dev.h2d_profile(32).seconds);
        // Length mismatches are rejected without touching the buffer.
        assert!(dev.upload_atomic(&buf, &[9]).is_err());
        assert_eq!(buf.to_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn recorder_captures_device_transfers_and_kernels() {
        let mut dev = Device::new(gtx_680_cuda());
        let rec = Recorder::enabled();
        dev.attach(&rec, &Telemetry::detached(), &Profiler::detached());
        let data: Vec<u32> = (1..=64).collect();
        let (buf, h2d) = dev.copy_to_device(&data).unwrap();
        let out = dev.alloc_atomic(1, 0).unwrap();
        let kernel = SumSquares {
            data: &buf,
            out: &out,
        };
        let profile = dev.launch(LaunchConfig::new(2, 32), &kernel).unwrap();
        let (_, d2h) = dev.copy_from_device(&out);

        let events = rec.events();
        assert!(matches!(events[0], TraceEvent::Device(_)));
        assert!(matches!(events[1], TraceEvent::H2d { bytes, seconds }
                if bytes == 256 && seconds == h2d.seconds));
        match &events[2] {
            TraceEvent::Kernel {
                label,
                seconds,
                grid_dim,
                block_dim,
                counters,
            } => {
                assert_eq!(label, "kernel"); // SumSquares keeps the default
                assert_eq!(*seconds, profile.seconds);
                assert_eq!((*grid_dim, *block_dim), (2, 32));
                assert_eq!(counters.flops, profile.counters.flops);
                assert_eq!(
                    counters.global_read_bytes,
                    profile.counters.global_read_bytes
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(events[3], TraceEvent::D2h { bytes, seconds }
                if bytes == 8 && seconds == d2h.seconds));
    }

    #[test]
    fn launch_labeled_overrides_kernel_label() {
        let mut dev = Device::new(gtx_680_cuda());
        let rec = Recorder::enabled();
        dev.attach(&rec, &Telemetry::detached(), &Profiler::detached());
        let data = vec![1u32; 8];
        let (buf, _) = dev.copy_to_device(&data).unwrap();
        let out = dev.alloc_atomic(1, 0).unwrap();
        let kernel = SumSquares {
            data: &buf,
            out: &out,
        };
        dev.launch_labeled(LaunchConfig::new(1, 8), &kernel, "custom-pass")
            .unwrap();
        assert!(rec.events().iter().any(|e| matches!(
            e,
            TraceEvent::Kernel { label, .. } if label == "custom-pass"
        )));
    }

    #[test]
    fn streamed_ops_defer_timing_to_synchronize() {
        let mut dev = Device::new(gtx_680_cuda());
        let rec = Recorder::enabled();
        dev.attach(&rec, &Telemetry::detached(), &Profiler::detached());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        assert_eq!((s0.index(), s1.index()), (0, 1));

        let data: Vec<u32> = (1..=64).collect();
        let (b0, h2d) = dev.copy_to_device_on(s0, &data).unwrap();
        let (b1, _) = dev.copy_to_device_on(s1, &data).unwrap();
        let o0 = dev.alloc_atomic(1, 0).unwrap();
        let o1 = dev.alloc_atomic(1, 0).unwrap();
        let k0 = SumSquares {
            data: &b0,
            out: &o0,
        };
        let k1 = SumSquares {
            data: &b1,
            out: &o1,
        };
        let p0 = dev.launch_on(s0, LaunchConfig::new(2, 32), &k0).unwrap();
        dev.launch_labeled_on(s1, LaunchConfig::new(2, 32), &k1, "shard-1")
            .unwrap();

        // Functional results are available immediately, before sync.
        let expected: u64 = (1..=64u64).map(|v| v * v).sum();
        assert_eq!(o0.load(0), expected);
        assert_eq!(o1.load(0), expected);
        // No legacy Kernel/H2d events were recorded for streamed ops.
        assert!(!rec
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Kernel { .. } | TraceEvent::H2d { .. })));

        let report = dev.synchronize();
        assert_eq!(report.streams, 2);
        assert_eq!(report.ops.len(), 4);
        let expected_busy = 2.0 * h2d.seconds + 2.0 * p0.seconds;
        assert!((report.busy_seconds - expected_busy).abs() < 1e-15);
        // The two streams overlap: copies serialize on the H2D engine but
        // hide behind the other stream's compute.
        assert!(report.wall_seconds < report.busy_seconds);
        assert!(report.overlap() > 0.0);
        // The per-launch label survives into the schedule.
        assert!(report.ops.iter().any(|o| o.label == "shard-1"));
        // Synchronize emitted the stream events on the recorder.
        let events = rec.events();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::StreamOp { .. }))
                .count(),
            4
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::StreamSync { streams: 2, .. })));
        // Queues drained; a second sync is a no-op.
        let empty = dev.synchronize();
        assert_eq!(empty.ops.len(), 0);
    }

    #[test]
    fn stream_schedule_matches_events_and_rejects_foreign_handles() {
        let dev = Device::new(gtx_680_cuda());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        let data = vec![1u32; 8];
        let (buf, _) = dev.copy_to_device_on(s0, &data).unwrap();
        let out = dev.alloc_atomic(1, 0).unwrap();
        let kernel = SumSquares {
            data: &buf,
            out: &out,
        };
        let ev = dev.record_event(s0).unwrap();
        dev.wait_event(s1, ev).unwrap();
        dev.launch_on(s1, LaunchConfig::new(1, 8), &kernel).unwrap();
        let report = dev.synchronize();
        // s1's kernel cannot start before s0's copy (the event) finishes.
        let copy_end = report.ops[0].start_seconds + report.ops[0].seconds;
        let kernel_op = report
            .ops
            .iter()
            .find(|o| o.label == "kernel")
            .expect("kernel scheduled");
        assert!(kernel_op.start_seconds >= copy_end);

        // Foreign/invalid handles are rejected, not silently accepted.
        let bogus = StreamId(7);
        assert!(matches!(
            dev.launch_on(bogus, LaunchConfig::new(1, 8), &kernel),
            Err(SimError::InvalidStream { index: 7, count: 2 })
        ));
        assert!(dev.copy_to_device_on(bogus, &data).is_err());
        assert!(dev.record_event(bogus).is_err());
        // Events are scoped to a synchronize epoch.
        assert!(dev.wait_event(s1, ev).is_err());
    }

    #[test]
    fn telemetry_counts_launches_and_transfers_exactly() {
        let mut dev = Device::new(gtx_680_cuda());
        let telemetry = Telemetry::attached();
        dev.attach(&Recorder::disabled(), &telemetry, &Profiler::detached());
        let data: Vec<u32> = (1..=64).collect();
        let (buf, h2d) = dev.copy_to_device(&data).unwrap();
        let out = dev.alloc_atomic(1, 0).unwrap();
        let kernel = SumSquares {
            data: &buf,
            out: &out,
        };
        let profile = dev.launch(LaunchConfig::new(2, 32), &kernel).unwrap();
        let (_, d2h) = dev.copy_from_device(&out);

        let reg = telemetry.registry().unwrap();
        let dev0: [(&str, &str); 1] = [("device", "0")];
        assert_eq!(
            reg.counter_value_with("tsp_gpu_kernel_launches_total", &dev0),
            Some(1.0)
        );
        // Histogram sum carries the exact modeled seconds.
        assert_eq!(
            reg.histogram_totals_with("tsp_gpu_kernel_seconds", &dev0),
            Some((profile.seconds, 1))
        );
        assert_eq!(
            reg.counter_value_with("tsp_gpu_h2d_bytes_total", &dev0),
            Some(256.0)
        );
        assert_eq!(
            reg.histogram_totals_with("tsp_gpu_h2d_seconds", &dev0),
            Some((h2d.seconds, 1))
        );
        assert_eq!(
            reg.histogram_totals_with("tsp_gpu_d2h_seconds", &dev0),
            Some((d2h.seconds, 1))
        );
    }

    #[test]
    fn telemetry_counts_streamed_work_and_sync_occupancy() {
        let mut dev = Device::new(gtx_680_cuda());
        let telemetry = Telemetry::attached();
        dev.attach(&Recorder::disabled(), &telemetry, &Profiler::detached());
        let s0 = dev.create_stream();
        let data: Vec<u32> = (1..=64).collect();
        let (buf, _) = dev.copy_to_device_on(s0, &data).unwrap();
        let out = dev.alloc_atomic(1, 0).unwrap();
        let kernel = SumSquares {
            data: &buf,
            out: &out,
        };
        dev.launch_on(s0, LaunchConfig::new(2, 32), &kernel)
            .unwrap();
        let report = dev.synchronize();

        let reg = telemetry.registry().unwrap();
        let dev0: [(&str, &str); 1] = [("device", "0")];
        // Streamed launches and copies still count at submit time…
        assert_eq!(
            reg.counter_value_with("tsp_gpu_kernel_launches_total", &dev0),
            Some(1.0)
        );
        assert_eq!(
            reg.counter_value_with("tsp_gpu_h2d_transfers_total", &dev0),
            Some(1.0)
        );
        // …and the synchronize reports schedule-level occupancy.
        assert_eq!(
            reg.counter_value_with("tsp_gpu_stream_ops_total", &dev0),
            Some(2.0)
        );
        assert_eq!(
            reg.counter_value_with("tsp_gpu_stream_busy_seconds_total", &dev0),
            Some(report.busy_seconds)
        );
        assert_eq!(
            reg.counter_value_with("tsp_gpu_stream_wall_seconds_total", &dev0),
            Some(report.wall_seconds)
        );
        assert_eq!(
            reg.gauge_value_with("tsp_gpu_stream_overlap", &dev0),
            Some(report.overlap())
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let dev = Device::new(gtx_680_cuda());
        assert!(!dev.recorder().is_enabled());
        let data = vec![1u32; 8];
        let (buf, _) = dev.copy_to_device(&data).unwrap();
        let out = dev.alloc_atomic(1, 0).unwrap();
        let kernel = SumSquares {
            data: &buf,
            out: &out,
        };
        dev.launch(LaunchConfig::new(1, 8), &kernel).unwrap();
        assert!(dev.recorder().is_empty());
    }

    #[test]
    fn allocation_accounting_via_device() {
        let dev = Device::new(gtx_680_cuda());
        assert_eq!(dev.allocated_bytes(), 0);
        let buf = dev.alloc(vec![0u64; 100]).unwrap();
        assert_eq!(dev.allocated_bytes(), 800);
        drop(buf);
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    fn bigger_work_costs_more_modeled_time() {
        let dev = Device::new(gtx_680_cuda());
        let small: Vec<u32> = (0..512).collect();
        let large: Vec<u32> = (0..4096).collect();
        let (bs, _) = dev.copy_to_device(&small).unwrap();
        let (bl, _) = dev.copy_to_device(&large).unwrap();
        let os = dev.alloc_atomic(1, 0).unwrap();
        let ol = dev.alloc_atomic(1, 0).unwrap();
        let ps = dev
            .launch(
                LaunchConfig::new(8, 64),
                &SumSquares {
                    data: &bs,
                    out: &os,
                },
            )
            .unwrap();
        let pl = dev
            .launch(
                LaunchConfig::new(8, 64),
                &SumSquares {
                    data: &bl,
                    out: &ol,
                },
            )
            .unwrap();
        assert!(pl.seconds > ps.seconds);
    }
}
