//! Modeled device/stream scaling of sharded ILS multistart — a
//! follow-on experiment the paper motivates but does not run (§VI
//! discusses multi-GPU division of the pair space; this measures the
//! orthogonal axis: many independent chains sharded over a pool).
//!
//! A fixed batch of ILS chains runs over every pool shape in
//! `devices × streams`. Chains are bit-identical across shapes (same
//! per-chain seeds), so tour quality is constant and only the modeled
//! schedule moves: devices divide the chains, streams overlap one
//! chain's transfers with another's kernels on the same device. The
//! instance is small enough to be transfer-bound on the PCIe link,
//! which is exactly where streams pay off.

use crate::common::render_table;
use gpu_sim::{spec, DevicePool};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tsp_2opt::GpuTwoOpt;
use tsp_core::Tour;
use tsp_ils::{IlsOptions, ShardedMultistart};
use tsp_trace::json::Json;
use tsp_tsplib::{generate, Style};

/// Pool shapes swept: device counts × streams per device.
pub const DEVICES: &[usize] = &[1, 2, 4, 8];
/// Streams per device swept.
pub const STREAMS: &[usize] = &[1, 2, 4];

/// One pool shape's modeled outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Simulated devices in the pool.
    pub devices: usize,
    /// Streams per device.
    pub streams: usize,
    /// Independent ILS chains sharded over the pool.
    pub shards: usize,
    /// Modeled makespan of the slowest device, seconds.
    pub wall_seconds: f64,
    /// Total modeled busy time over all engines of all devices.
    pub busy_seconds: f64,
    /// Fraction of busy time hidden by stream/copy-engine overlap.
    pub overlap: f64,
    /// Chains per modeled second of wall time.
    pub throughput: f64,
    /// Wall-time speedup vs the 1 device × 1 stream baseline.
    pub speedup: f64,
}

/// Run `shards` chains (each `iterations` ILS kicks on an `n`-city
/// uniform instance) over every shape in [`DEVICES`] × [`STREAMS`].
pub fn compute(n: usize, shards: usize, iterations: u64, seed: u64) -> Vec<Row> {
    let inst = generate("fig-scaling", n, Style::Uniform, seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let starts: Vec<Tour> = (0..shards).map(|_| Tour::random(n, &mut rng)).collect();
    let opts = IlsOptions::new()
        .with_max_iterations(iterations)
        .with_seed(seed);

    let mut rows = Vec::new();
    let mut baseline = None;
    for &devices in DEVICES {
        for &streams in STREAMS {
            let pool = DevicePool::homogeneous(spec::gtx_680_cuda(), devices, streams);
            let out = ShardedMultistart::new(pool)
                .run(
                    |device, stream| GpuTwoOpt::on_stream(device.clone(), stream),
                    &inst,
                    starts.clone(),
                    opts.clone(),
                )
                .expect("generated instances are coordinate-based");
            let wall = out.modeled_makespan_seconds();
            let base = *baseline.get_or_insert(wall);
            rows.push(Row {
                devices,
                streams,
                shards,
                wall_seconds: wall,
                busy_seconds: out.busy_seconds(),
                overlap: out.overlap(),
                throughput: shards as f64 / wall,
                speedup: base / wall,
            });
        }
    }
    rows
}

/// Fixed-width text table.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}", r.devices, r.streams),
                crate::common::fmt_time(r.wall_seconds),
                crate::common::fmt_time(r.busy_seconds),
                format!("{:.1}%", r.overlap * 100.0),
                format!("{:.0}", r.throughput),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    render_table(
        &["pool", "wall", "busy", "overlap", "chains/s", "speedup"],
        &body,
    )
}

/// CSV with one row per pool shape.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from("devices,streams,shards,wall_s,busy_s,overlap,throughput,speedup\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.devices,
            r.streams,
            r.shards,
            r.wall_seconds,
            r.busy_seconds,
            r.overlap,
            r.throughput,
            r.speedup
        ));
    }
    out
}

/// The `BENCH_scaling.json` document: experiment header plus one
/// object per pool shape.
pub fn to_json(rows: &[Row]) -> String {
    let entries: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut o = Json::obj();
            o.set("devices", Json::from(r.devices as f64))
                .set("streams", Json::from(r.streams as f64))
                .set("shards", Json::from(r.shards as f64))
                .set("wall_seconds", Json::from(r.wall_seconds))
                .set("busy_seconds", Json::from(r.busy_seconds))
                .set("overlap", Json::from(r.overlap))
                .set("throughput", Json::from(r.throughput))
                .set("speedup", Json::from(r.speedup));
            o
        })
        .collect();
    let mut doc = Json::obj();
    doc.set("experiment", Json::from("sharded multistart scaling"))
        .set("device", Json::from("GeForce GTX 680 (CUDA)"))
        .set("rows", Json::Arr(entries));
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rows: &[Row], devices: usize, streams: usize) -> &Row {
        rows.iter()
            .find(|r| r.devices == devices && r.streams == streams)
            .expect("shape present")
    }

    #[test]
    fn two_devices_nearly_double_throughput_and_streams_overlap() {
        let rows = compute(96, 16, 2, 0x2013);
        let serial = row(&rows, 1, 1);
        let dual = row(&rows, 2, 1);
        let streamed = row(&rows, 1, 2);

        // Devices divide the chains: ≥ 1.8x modeled throughput 1 → 2.
        assert!(
            dual.throughput >= 1.8 * serial.throughput,
            "1 -> 2 devices scaled only {:.2}x",
            dual.throughput / serial.throughput
        );
        // Streams overlap transfer with compute on the one device.
        assert!(serial.overlap == 0.0, "serial schedule cannot overlap");
        assert!(streamed.overlap > 0.0, "2 streams must overlap");
        assert!(streamed.wall_seconds < serial.wall_seconds);

        // Chains are bit-identical across shapes, so the submitted work
        // is constant: total busy time must match the baseline.
        for r in &rows {
            assert!(
                (r.busy_seconds - serial.busy_seconds).abs() < 1e-9 * serial.busy_seconds,
                "{}x{} busy {} vs baseline {}",
                r.devices,
                r.streams,
                r.busy_seconds,
                serial.busy_seconds
            );
        }
    }

    #[test]
    fn json_document_parses_and_carries_every_row() {
        let rows = compute(64, 4, 1, 3);
        let doc = tsp_trace::json::parse(&to_json(&rows)).expect("valid JSON");
        let arr = doc
            .get("rows")
            .and_then(tsp_trace::json::Json::as_array)
            .expect("rows array");
        assert_eq!(arr.len(), rows.len());
        assert_eq!(arr.len(), DEVICES.len() * STREAMS.len());
        for e in arr {
            assert!(e.get("wall_seconds").and_then(Json::as_f64).unwrap() > 0.0);
        }
    }
}
