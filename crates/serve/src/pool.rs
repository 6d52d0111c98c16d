//! The slot pool: fixed pre-allocated device arenas plus a free-index
//! allocator striped across [`DevicePool`] lanes.
//!
//! In the spirit of wasmtime's pooling allocator, all device memory
//! the service will ever use is reserved **once** at boot: each device
//! gets one arena sized `streams × slot_bytes`, journaled to the
//! `tsp-prof` ledger as a single labeled allocation. Every concurrent
//! solve then leases a *slot* — an index that maps 1:1 onto a
//! `(device, stream)` lane — and all of its buffer churn is absorbed
//! by the arena: the ledger shows **zero steady-state allocations**
//! once the pool is warm, which is exactly the property the smoke
//! bench asserts.
//!
//! The allocator itself is a Mutex'd free list with a lease bitmap
//! (double-release is a hard error, not a silent corruption) and a
//! Condvar for blocking acquisition; an occupancy gauge tracks live
//! leases when telemetry is attached.

use gpu_sim::{Device, DevicePool, DeviceSpec, SimError, StreamId, StreamReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use tsp_prof::Profiler;
use tsp_telemetry::{Gauge, Telemetry};
use tsp_trace::Recorder;

/// A Mutex'd free-index allocator with a lease bitmap and blocking
/// acquisition. Indices are dense `0..capacity`.
#[derive(Debug)]
pub struct SlotIndexAllocator {
    state: Mutex<AllocState>,
    available: Condvar,
}

#[derive(Debug)]
struct AllocState {
    /// LIFO free list (popping yields the lowest index first at boot).
    free: Vec<u32>,
    /// `leased[i]` iff slot `i` is out; catches double-releases.
    leased: Vec<bool>,
}

impl SlotIndexAllocator {
    /// An allocator over `slots` dense indices, all free.
    pub fn new(slots: u32) -> SlotIndexAllocator {
        SlotIndexAllocator {
            state: Mutex::new(AllocState {
                free: (0..slots).rev().collect(),
                leased: vec![false; slots as usize],
            }),
            available: Condvar::new(),
        }
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.state.lock().unwrap().leased.len()
    }

    /// Currently leased slot count.
    pub fn leased(&self) -> usize {
        self.state
            .lock()
            .unwrap()
            .leased
            .iter()
            .filter(|&&l| l)
            .count()
    }

    /// Lease a slot if one is free.
    pub fn try_acquire(&self) -> Option<u32> {
        let mut state = self.state.lock().unwrap();
        let slot = state.free.pop()?;
        state.leased[slot as usize] = true;
        Some(slot)
    }

    /// Lease a slot, blocking until one frees up.
    pub fn acquire(&self) -> u32 {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(slot) = state.free.pop() {
                state.leased[slot as usize] = true;
                return slot;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    /// Return a lease. Releasing an out-of-range or un-leased slot is
    /// an error — the caller's bookkeeping is broken, and silently
    /// accepting it would hand the same lane to two jobs.
    pub fn release(&self, slot: u32) -> Result<(), String> {
        let mut state = self.state.lock().unwrap();
        let Some(leased) = state.leased.get_mut(slot as usize) else {
            return Err(format!("slot {slot} is out of range"));
        };
        if !*leased {
            return Err(format!("slot {slot} is not leased (double release?)"));
        }
        *leased = false;
        state.free.push(slot);
        drop(state);
        self.available.notify_one();
        Ok(())
    }
}

/// The serving-side device pool: a [`DevicePool`] whose lanes are
/// leased through a [`SlotIndexAllocator`], with one pre-installed
/// arena per device absorbing all per-solve buffer traffic.
pub struct SlotPool {
    pool: DevicePool,
    allocator: SlotIndexAllocator,
    occupancy: Option<Gauge>,
    slot_bytes: u64,
    arenas_installed: AtomicBool,
}

impl std::fmt::Debug for SlotPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotPool")
            .field("lanes", &self.pool.lanes())
            .field("slot_bytes", &self.slot_bytes)
            .field("leased", &self.allocator.leased())
            .finish()
    }
}

impl SlotPool {
    /// Build the pool and warm it up: attach the observability sinks
    /// first (so the arena reservations themselves are journaled),
    /// then install one arena of `streams × slot_bytes` per device.
    /// Fails with the device's own OOM error when `slot_bytes` is
    /// oversubscribed against the spec's memory.
    pub fn new(
        spec: DeviceSpec,
        devices: usize,
        streams: usize,
        slot_bytes: u64,
        telemetry: &Telemetry,
        prof: &Profiler,
    ) -> Result<SlotPool, SimError> {
        let mut pool = DevicePool::homogeneous(spec, devices, streams);
        pool.attach(&Recorder::disabled(), telemetry, prof);
        for device in pool.devices() {
            device.install_arena(streams as u64 * slot_bytes)?;
        }
        let occupancy = telemetry.registry().map(|r| {
            r.gauge(
                "tsp_serve_slot_occupancy",
                "Device slots currently leased to running solves",
            )
        });
        if let Some(gauge) = &occupancy {
            gauge.set(0.0);
        }
        Ok(SlotPool {
            allocator: SlotIndexAllocator::new(pool.lanes() as u32),
            pool,
            occupancy,
            slot_bytes,
            arenas_installed: AtomicBool::new(true),
        })
    }

    /// Total lanes (= slots).
    pub fn lanes(&self) -> usize {
        self.pool.lanes()
    }

    /// Bytes budgeted per slot.
    pub fn slot_bytes(&self) -> u64 {
        self.slot_bytes
    }

    /// Currently leased slots.
    pub fn occupancy(&self) -> usize {
        self.allocator.leased()
    }

    /// The devices behind the lanes (for ledger/arena introspection).
    pub fn devices(&self) -> &[Arc<Device>] {
        self.pool.devices()
    }

    /// Lease a lane, blocking until one frees up.
    pub fn acquire(&self) -> SlotLease<'_> {
        let slot = self.allocator.acquire();
        self.lease(slot)
    }

    /// Lease a lane if one is free.
    pub fn try_acquire(&self) -> Option<SlotLease<'_>> {
        self.allocator.try_acquire().map(|slot| self.lease(slot))
    }

    fn lease(&self, slot: u32) -> SlotLease<'_> {
        if let Some(gauge) = &self.occupancy {
            gauge.set(self.allocator.leased() as f64);
        }
        SlotLease { pool: self, slot }
    }

    fn release(&self, slot: u32) {
        self.allocator
            .release(slot)
            .expect("SlotLease releases each slot exactly once");
        if let Some(gauge) = &self.occupancy {
            gauge.set(self.allocator.leased() as f64);
        }
    }

    /// Drain every stream and collect the per-stream modeled
    /// schedules (wall/busy/overlap).
    pub fn synchronize(&self) -> Vec<StreamReport> {
        self.pool.synchronize()
    }

    /// Tear the arenas back down, journaling the matching frees so
    /// the ledger balances end-to-end. Idempotent; called by `Drop`.
    pub fn release_arenas(&self) {
        if !self.arenas_installed.swap(false, Ordering::SeqCst) {
            return;
        }
        for device in self.pool.devices() {
            device.uninstall_arena();
        }
    }
}

impl Drop for SlotPool {
    fn drop(&mut self) {
        self.release_arenas();
    }
}

/// An exclusive lease on one `(device, stream)` lane; returned to the
/// allocator on drop.
#[derive(Debug)]
pub struct SlotLease<'a> {
    pool: &'a SlotPool,
    slot: u32,
}

impl SlotLease<'_> {
    /// The leased slot index (= lane index).
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The lane's device.
    pub fn device(&self) -> &Arc<Device> {
        self.pool.pool.lane(self.slot as usize).0
    }

    /// Pool index of the lane's device (lane `l` → device
    /// `l % device_count`, mirroring [`DevicePool::lane`]).
    ///
    /// [`DevicePool::lane`]: gpu_sim::DevicePool::lane
    pub fn device_index(&self) -> usize {
        self.slot as usize % self.pool.pool.device_count()
    }

    /// The lane's stream on that device.
    pub fn stream(&self) -> StreamId {
        self.pool.pool.lane(self.slot as usize).1
    }
}

impl Drop for SlotLease<'_> {
    fn drop(&mut self) {
        self.pool.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_hands_out_each_slot_once() {
        let alloc = SlotIndexAllocator::new(3);
        let a = alloc.try_acquire().unwrap();
        let b = alloc.try_acquire().unwrap();
        let c = alloc.try_acquire().unwrap();
        assert_eq!(alloc.try_acquire(), None);
        let mut got = [a, b, c];
        got.sort_unstable();
        assert_eq!(got, [0, 1, 2]);
        assert_eq!(alloc.leased(), 3);
        alloc.release(b).unwrap();
        assert_eq!(alloc.try_acquire(), Some(b));
    }

    #[test]
    fn double_release_is_a_hard_error() {
        let alloc = SlotIndexAllocator::new(2);
        let slot = alloc.try_acquire().unwrap();
        alloc.release(slot).unwrap();
        assert!(alloc.release(slot).is_err());
        assert!(alloc.release(99).is_err());
        // The failed releases must not have corrupted the free list.
        assert_eq!(alloc.capacity(), 2);
        assert_eq!(alloc.leased(), 0);
    }

    #[test]
    fn leases_map_onto_distinct_lanes_and_release_on_drop() {
        let prof = Profiler::detached();
        let telemetry = Telemetry::attached();
        let pool = SlotPool::new(
            gpu_sim::spec::gtx_680_cuda(),
            2,
            2,
            1 << 20,
            &telemetry,
            &prof,
        )
        .unwrap();
        assert_eq!(pool.lanes(), 4);
        {
            let leases: Vec<_> = (0..4).map(|_| pool.try_acquire().unwrap()).collect();
            assert!(pool.try_acquire().is_none());
            assert_eq!(pool.occupancy(), 4);
            let registry = telemetry.registry().unwrap();
            assert_eq!(registry.gauge_value("tsp_serve_slot_occupancy"), Some(4.0));
            // Every lease owns a distinct lane.
            let mut lanes: Vec<u32> = leases.iter().map(|l| l.slot()).collect();
            lanes.sort_unstable();
            assert_eq!(lanes, vec![0, 1, 2, 3]);
        }
        assert_eq!(pool.occupancy(), 0);
        assert_eq!(
            telemetry
                .registry()
                .unwrap()
                .gauge_value("tsp_serve_slot_occupancy"),
            Some(0.0)
        );
        pool.release_arenas();
    }

    #[test]
    fn arenas_install_once_per_device_and_balance_on_teardown() {
        let prof = Profiler::attached();
        let telemetry = Telemetry::detached();
        {
            let _pool = SlotPool::new(
                gpu_sim::spec::gtx_680_cuda(),
                2,
                2,
                1 << 20,
                &telemetry,
                &prof,
            )
            .unwrap();
        }
        let report = prof.memory_report();
        assert!(report.balanced(), "arena teardown must balance the ledger");
        for device in &report.devices {
            assert_eq!(device.allocs, 1, "exactly the arena install");
            assert_eq!(device.frees, 1, "exactly the arena teardown");
        }
    }
}
