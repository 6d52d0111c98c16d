//! A pool of simulated devices with a work-stealing submit queue.
//!
//! [`DevicePool`] owns N devices, each with S streams, and flattens them
//! into `N × S` *lanes*: lane `l` is stream `l / N` of device `l % N`,
//! so consecutive lanes land on different devices and a job batch spreads
//! across the pool before it starts doubling up streams.
//!
//! [`DevicePool::run`] executes a batch of independent jobs over the
//! lanes with host-side work stealing: worker threads repeatedly claim
//! the next unclaimed *lane* (not job) from a shared atomic counter and
//! run all of that lane's jobs in order. Stealing whole lanes keeps every
//! stream's op sequence in program order regardless of which host thread
//! executes it — and since the stream scheduler's output depends only on
//! those per-stream sequences (see [`crate::stream`]), the modeled
//! timelines and all functional results are bit-identical run to run, no
//! matter how the OS schedules the workers.

use crate::device::Device;
use crate::metrics::PoolTelemetry;
use crate::spec::DeviceSpec;
use crate::stream::{StreamId, StreamReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tsp_prof::Profiler;
use tsp_telemetry::Telemetry;
use tsp_trace::Recorder;

/// A fixed set of simulated devices sharing a work queue.
pub struct DevicePool {
    devices: Vec<Arc<Device>>,
    streams: Vec<Vec<StreamId>>,
    streams_per_device: usize,
    telemetry: Option<PoolTelemetry>,
}

impl DevicePool {
    /// Build a pool over the given specs, creating `streams_per_device`
    /// streams on each device. Device `i` gets pool index `i` (visible in
    /// its stream trace tracks).
    ///
    /// # Panics
    /// When `specs` is empty or `streams_per_device` is 0 — an empty pool
    /// cannot run anything, so this is a configuration error.
    pub fn new(specs: Vec<DeviceSpec>, streams_per_device: usize) -> Self {
        assert!(!specs.is_empty(), "a DevicePool needs at least one device");
        assert!(
            streams_per_device > 0,
            "a DevicePool needs at least one stream per device"
        );
        let devices: Vec<Arc<Device>> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Arc::new(Device::with_index(spec, i as u32)))
            .collect();
        let streams = devices
            .iter()
            .map(|d| (0..streams_per_device).map(|_| d.create_stream()).collect())
            .collect();
        DevicePool {
            devices,
            streams,
            streams_per_device,
            telemetry: None,
        }
    }

    /// A pool of `devices` identical devices (the multi-GPU scaling
    /// configuration of the paper's dual-GPU boards, generalized).
    pub fn homogeneous(spec: DeviceSpec, devices: usize, streams_per_device: usize) -> Self {
        Self::new(vec![spec; devices], streams_per_device)
    }

    /// Attach the device-side observation sinks to every device (see
    /// [`Device::attach`]) and, with a telemetry registry, one job
    /// counter per lane (labeled `device`/`stream`), so a scrape shows
    /// pool lane utilization. Must be called before the pool is used
    /// (the devices are still exclusively owned here).
    pub fn attach(&mut self, recorder: &Recorder, telemetry: &Telemetry, prof: &Profiler) {
        for d in &mut self.devices {
            Arc::get_mut(d)
                .expect("attach must be called before the pool is shared")
                .attach(recorder, telemetry, prof);
        }
        self.telemetry = telemetry.registry().map(|r| {
            let lanes: Vec<(u32, usize)> = (0..self.lanes())
                .map(|l| {
                    let (d, s) = self.lane(l);
                    (d.index(), s.index())
                })
                .collect();
            PoolTelemetry::register(r, &lanes)
        });
    }

    /// Devices in the pool.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Streams per device.
    pub fn streams_per_device(&self) -> usize {
        self.streams_per_device
    }

    /// Total lanes (`devices × streams_per_device`).
    pub fn lanes(&self) -> usize {
        self.devices.len() * self.streams_per_device
    }

    /// The devices, in pool-index order.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// Lane `l` → (device `l % N`, stream `l / N` of that device).
    pub fn lane(&self, lane: usize) -> (&Arc<Device>, StreamId) {
        let n = self.devices.len();
        (&self.devices[lane % n], self.streams[lane % n][lane / n])
    }

    /// Run `jobs` independent jobs across the pool's lanes with
    /// work-stealing host threads. Job `j` runs on lane `j % lanes()` —
    /// a fixed assignment, so results and modeled schedules do not depend
    /// on thread timing. Returns one result per job, in job order.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &Arc<Device>, StreamId) -> T + Sync,
    {
        let lanes = self.lanes();
        let slots: Vec<parking_lot::Mutex<Option<T>>> =
            (0..jobs).map(|_| parking_lot::Mutex::new(None)).collect();
        let next_lane = AtomicUsize::new(0);
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(lanes)
            .max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let lane = next_lane.fetch_add(1, Ordering::Relaxed);
                    if lane >= lanes {
                        break;
                    }
                    let (device, stream) = self.lane(lane);
                    let mut job = lane;
                    while job < jobs {
                        *slots[job].lock() = Some(f(job, device, stream));
                        if let Some(t) = &self.telemetry {
                            t.job(lane);
                        }
                        job += lanes;
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every job ran exactly once"))
            .collect()
    }

    /// Synchronize every device, in pool-index order, returning one
    /// [`StreamReport`] per device.
    pub fn synchronize(&self) -> Vec<StreamReport> {
        self.devices.iter().map(|d| d.synchronize()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::gtx_680_cuda;

    #[test]
    fn lanes_spread_devices_first() {
        let pool = DevicePool::homogeneous(gtx_680_cuda(), 2, 2);
        assert_eq!(pool.lanes(), 4);
        let ids: Vec<(u32, usize)> = (0..4)
            .map(|l| {
                let (d, s) = pool.lane(l);
                (d.index(), s.index())
            })
            .collect();
        // Devices alternate before streams repeat.
        assert_eq!(ids, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn run_returns_results_in_job_order_and_is_deterministic() {
        let pool = DevicePool::homogeneous(gtx_680_cuda(), 2, 2);
        let out = pool.run(10, |job, device, stream| {
            (job, device.index(), stream.index())
        });
        let expected: Vec<(usize, u32, usize)> = (0..10)
            .map(|j| {
                let (d, s) = pool.lane(j % 4);
                (j, d.index(), s.index())
            })
            .collect();
        assert_eq!(out, expected);
        // Rerunning yields the identical assignment.
        let again = pool.run(10, |job, device, stream| {
            (job, device.index(), stream.index())
        });
        assert_eq!(again, expected);
    }

    #[test]
    fn synchronize_reports_per_device() {
        let pool = DevicePool::homogeneous(gtx_680_cuda(), 3, 1);
        let reports = pool.synchronize();
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.device, i as u32);
        }
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_is_rejected() {
        DevicePool::new(vec![], 1);
    }

    #[test]
    fn telemetry_counts_jobs_per_lane() {
        let mut pool = DevicePool::homogeneous(gtx_680_cuda(), 2, 2);
        let telemetry = Telemetry::attached();
        pool.attach(&Recorder::disabled(), &telemetry, &Profiler::detached());
        // 10 jobs over 4 lanes: lanes 0,1 run 3 jobs, lanes 2,3 run 2.
        pool.run(10, |job, _, _| job);
        let reg = telemetry.registry().unwrap();
        let jobs = |device: &str, stream: &str| {
            reg.counter_value_with(
                "tsp_pool_lane_jobs_total",
                &[("device", device), ("stream", stream)],
            )
        };
        assert_eq!(jobs("0", "0"), Some(3.0));
        assert_eq!(jobs("1", "0"), Some(3.0));
        assert_eq!(jobs("0", "1"), Some(2.0));
        assert_eq!(jobs("1", "1"), Some(2.0));
        // Every device got the per-device bundle too.
        for device in ["0", "1"] {
            let live = reg.gauge_value_with("tsp_device_mem_live_bytes", &[("device", device)]);
            assert_eq!(live, Some(0.0), "device {device}");
        }
    }
}
