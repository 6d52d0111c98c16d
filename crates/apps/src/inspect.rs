//! Search introspection over flight recordings — the library half of
//! the `tsp-inspect` binary.
//!
//! Everything here renders from the recording alone: no solver is
//! re-run. Sweep events carry the applied `(i, j, delta)` moves (the
//! heatmap and timeline), the event stream re-derives tour snapshots
//! through [`TourReconstructor`], and the acceptance/kick events drive
//! the stall report.
//!
//! [`TourReconstructor`]: tsp_replay::TourReconstructor

use std::fmt;
use tsp_core::Instance;
use tsp_replay::{tour_at_iteration, Recording, ReplayEvent};
use tsp_serve::{RequestSpan, Stage};
use tsp_telemetry::{parse_alerts_jsonl, AlertState, AlertTransition};

/// Aggregate the applied moves of `chain` into a `buckets × buckets`
/// grid over the `(i, j)` candidate matrix, each cell summing the
/// improvement magnitude `|delta|` of the moves that landed in it.
/// Rows index `i`, columns `j`; only the `j > i` triangle is ever
/// populated, mirroring the kernels' candidate space.
pub fn heatmap_grid(recording: &Recording, chain: u64, buckets: usize) -> Vec<Vec<f64>> {
    assert!(buckets > 0, "at least one bucket");
    let n = recording.header.n.max(1);
    let mut grid = vec![vec![0.0f64; buckets]; buckets];
    let scale = |pos: u32| -> usize {
        let b = (pos as usize * buckets) / n;
        b.min(buckets - 1)
    };
    for event in recording.chain_events(chain) {
        if let ReplayEvent::Sweep { i, j, delta, .. } = event {
            grid[scale(i)][scale(j)] += f64::from(delta.unsigned_abs());
        }
    }
    grid
}

/// Render a heatmap grid as text, one shaded character per cell,
/// scaled to the hottest cell.
pub fn render_heatmap_text(grid: &[Vec<f64>]) -> String {
    const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let max = grid
        .iter()
        .flatten()
        .copied()
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut out = String::new();
    for row in grid {
        for &cell in row {
            let level = ((cell / max) * (SHADES.len() - 1) as f64).round() as usize;
            out.push(SHADES[level.min(SHADES.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

/// Render a heatmap grid as a plain-text PGM (P2) image, 8-bit grey,
/// scaled to the hottest cell.
pub fn render_heatmap_pgm(grid: &[Vec<f64>]) -> String {
    let h = grid.len();
    let w = grid.first().map_or(0, Vec::len);
    let max = grid
        .iter()
        .flatten()
        .copied()
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut out = format!("P2\n{w} {h}\n255\n");
    for row in grid {
        let line: Vec<String> = row
            .iter()
            .map(|&cell| (((cell / max) * 255.0).round() as u32).min(255).to_string())
            .collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out
}

/// Render the chain's incumbent tour after `iteration` as an SVG
/// drawing (closed polyline over the instance coordinates). The tour
/// is reconstructed from the event log; `inst` only supplies the
/// coordinates, and must match the recording's digest-checked instance.
pub fn tour_svg(
    recording: &Recording,
    chain: u64,
    iteration: u64,
    inst: &Instance,
) -> Result<String, String> {
    if !inst.is_coordinate_based() {
        return Err("SVG rendering needs a coordinate-based instance".into());
    }
    if inst.len() != recording.header.n {
        return Err(format!(
            "instance has {} cities but the recording was taken on {}",
            inst.len(),
            recording.header.n
        ));
    }
    let tour = tour_at_iteration(recording, chain, iteration)?;
    let pts: Vec<(f32, f32)> = tour
        .as_slice()
        .iter()
        .map(|&c| {
            let p = inst.point(c as usize);
            (p.x, p.y)
        })
        .collect();
    let (mut min_x, mut min_y, mut max_x, mut max_y) = (f32::MAX, f32::MAX, f32::MIN, f32::MIN);
    for &(x, y) in &pts {
        min_x = min_x.min(x);
        min_y = min_y.min(y);
        max_x = max_x.max(x);
        max_y = max_y.max(y);
    }
    let pad = ((max_x - min_x).max(max_y - min_y) * 0.02).max(1.0);
    let (w, h) = (max_x - min_x + 2.0 * pad, max_y - min_y + 2.0 * pad);
    let mut path = String::new();
    for (k, &(x, y)) in pts.iter().enumerate() {
        let cmd = if k == 0 { 'M' } else { 'L' };
        path.push_str(&format!("{cmd}{} {} ", x - min_x + pad, y - min_y + pad));
    }
    path.push('Z');
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {w} {h}\" width=\"800\">\n\
         <title>{} chain {chain} iteration {iteration}</title>\n\
         <path d=\"{path}\" fill=\"none\" stroke=\"#1f4e79\" stroke-width=\"{}\"/>\n",
        recording.header.instance_name,
        (w.max(h) / 400.0).max(0.5),
    );
    let r = (w.max(h) / 250.0).max(0.75);
    for &(x, y) in &pts {
        svg.push_str(&format!(
            "<circle cx=\"{}\" cy=\"{}\" r=\"{r}\" fill=\"#c0392b\"/>\n",
            x - min_x + pad,
            y - min_y + pad
        ));
    }
    svg.push_str("</svg>\n");
    Ok(svg)
}

/// Render parsed collapsed-stack lines (`tsp_prof::parse_collapsed`
/// output) as a top-`top` table: weight, share of the total, and the
/// call path — the text half of `tsp-inspect flame`.
pub fn render_flame(stacks: &[(String, u64)], top: usize) -> String {
    let total: u64 = stacks.iter().map(|(_, w)| w).sum();
    if total == 0 {
        return "flamegraph: no stacks with nonzero weight\n".into();
    }
    let mut sorted: Vec<&(String, u64)> = stacks.iter().collect();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut out = format!(
        "{} stacks, total weight {total} ns (modeled)\n\
         weight ns       share   path\n",
        stacks.len()
    );
    for (path, weight) in sorted.into_iter().take(top) {
        out.push_str(&format!(
            "{weight:<15} {:>5.1}%  {path}\n",
            *weight as f64 / total as f64 * 100.0
        ));
    }
    out
}

/// One row of the move-delta timeline: an ILS iteration's descended
/// candidate and the acceptance verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// ILS iteration (0 = the initial descent, always "accepted").
    pub iteration: u64,
    /// Tour length of the descended candidate.
    pub length: i64,
    /// Whether the acceptance criterion took it.
    pub accepted: bool,
}

/// The candidate-length timeline of a chain, one point per iteration.
pub fn timeline(recording: &Recording, chain: u64) -> Vec<TimelinePoint> {
    let mut points = Vec::new();
    for event in recording.chain_events(chain) {
        match event {
            ReplayEvent::DescentEnd {
                iteration: 0,
                length,
                ..
            } => points.push(TimelinePoint {
                iteration: 0,
                length,
                accepted: true,
            }),
            ReplayEvent::Acceptance {
                iteration,
                candidate_length,
                accepted,
                ..
            } => points.push(TimelinePoint {
                iteration,
                length: candidate_length,
                accepted,
            }),
            _ => {}
        }
    }
    points
}

/// Render a timeline as text: a sparkline over candidate lengths (low
/// = better) and a per-iteration table of length / verdict.
pub fn render_timeline(points: &[TimelinePoint]) -> String {
    if points.is_empty() {
        return "timeline: no iterations recorded\n".into();
    }
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let min = points.iter().map(|p| p.length).min().unwrap();
    let max = points.iter().map(|p| p.length).max().unwrap();
    let span = (max - min).max(1) as f64;
    let mut out = String::from("candidate length per iteration (▁ = best seen):\n  ");
    for p in points {
        let level = (((p.length - min) as f64 / span) * (BARS.len() - 1) as f64).round() as usize;
        out.push(BARS[level.min(BARS.len() - 1)]);
    }
    out.push('\n');
    out.push_str(&format!(
        "  {} iterations, lengths {min}..{max}\n",
        points.len()
    ));
    for p in points {
        out.push_str(&format!(
            "  iter {:>5}  length {:>10}  {}\n",
            p.iteration,
            p.length,
            if p.accepted { "accepted" } else { "rejected" }
        ));
    }
    out
}

/// Stall and data-quality findings over one chain of a recording.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnomalyReport {
    /// Iterations inspected (excluding the initial descent).
    pub iterations: u64,
    /// Longest run of consecutive iterations without improving the
    /// best-known length.
    pub longest_plateau: u64,
    /// Plateau threshold the report was built with.
    pub plateau_threshold: u64,
    /// Acceptance rate over the trailing quarter of the run.
    pub trailing_acceptance_rate: f64,
    /// Acceptance rate over the whole run.
    pub acceptance_rate: f64,
    /// Coordinates that are NaN or infinite (needs an instance).
    pub bad_coordinates: usize,
    /// Pairs of cities sharing bit-identical coordinates (needs an
    /// instance; only counted when an instance is supplied).
    pub duplicate_coordinates: usize,
}

impl AnomalyReport {
    /// `true` when the chain plateaued past the threshold.
    pub fn plateaued(&self) -> bool {
        self.longest_plateau >= self.plateau_threshold && self.plateau_threshold > 0
    }

    /// `true` when acceptances collapsed in the trailing window (under
    /// 10% late in a run that accepted at twice that rate overall).
    pub fn acceptance_collapsed(&self) -> bool {
        self.iterations >= 8
            && self.trailing_acceptance_rate < 0.1
            && self.acceptance_rate >= 2.0 * self.trailing_acceptance_rate
    }

    /// `true` when anything in the report warrants attention.
    pub fn any(&self) -> bool {
        self.plateaued()
            || self.acceptance_collapsed()
            || self.bad_coordinates > 0
            || self.duplicate_coordinates > 0
    }
}

impl fmt::Display for AnomalyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "anomaly report ({} iterations):", self.iterations)?;
        if self.plateaued() {
            writeln!(
                f,
                "  PLATEAU: {} consecutive non-improving iterations (threshold {})",
                self.longest_plateau, self.plateau_threshold
            )?;
        } else {
            writeln!(
                f,
                "  plateau: longest non-improving run {} (threshold {})",
                self.longest_plateau, self.plateau_threshold
            )?;
        }
        if self.acceptance_collapsed() {
            writeln!(
                f,
                "  ACCEPTANCE COLLAPSE: trailing rate {:.3} vs overall {:.3}",
                self.trailing_acceptance_rate, self.acceptance_rate
            )?;
        } else {
            writeln!(
                f,
                "  acceptance: trailing rate {:.3}, overall {:.3}",
                self.trailing_acceptance_rate, self.acceptance_rate
            )?;
        }
        if self.bad_coordinates > 0 {
            writeln!(
                f,
                "  BAD COORDINATES: {} NaN/infinite",
                self.bad_coordinates
            )?;
        }
        if self.duplicate_coordinates > 0 {
            writeln!(
                f,
                "  DEGENERATE COORDINATES: {} duplicated city position pair(s)",
                self.duplicate_coordinates
            )?;
        }
        if !self.any() {
            writeln!(f, "  no anomalies")?;
        }
        Ok(())
    }
}

/// Scan one chain for stalls (no-improvement plateaus, acceptance-rate
/// collapse) and, when an instance is supplied, for NaN/degenerate
/// coordinates.
pub fn detect_anomalies(
    recording: &Recording,
    chain: u64,
    inst: Option<&Instance>,
    plateau_threshold: u64,
) -> AnomalyReport {
    let points = timeline(recording, chain);
    let mut report = AnomalyReport {
        plateau_threshold,
        ..AnomalyReport::default()
    };

    let mut best = i64::MAX;
    let mut run = 0u64;
    let mut accepted_total = 0u64;
    let iters: Vec<&TimelinePoint> = points.iter().filter(|p| p.iteration > 0).collect();
    // Seed the best from the initial descent when present.
    if let Some(initial) = points.iter().find(|p| p.iteration == 0) {
        best = initial.length;
    }
    for p in &iters {
        if p.accepted && p.length < best {
            best = p.length;
            run = 0;
        } else {
            run += 1;
            report.longest_plateau = report.longest_plateau.max(run);
        }
        if p.accepted {
            accepted_total += 1;
        }
    }
    report.iterations = iters.len() as u64;
    if !iters.is_empty() {
        report.acceptance_rate = accepted_total as f64 / iters.len() as f64;
        let window = (iters.len() / 4).max(1);
        let tail = &iters[iters.len() - window..];
        report.trailing_acceptance_rate =
            tail.iter().filter(|p| p.accepted).count() as f64 / window as f64;
    }

    if let Some(inst) = inst {
        if inst.is_coordinate_based() {
            let pts: Vec<(u32, u32)> = (0..inst.len())
                .map(|c| {
                    let p = inst.point(c);
                    report.bad_coordinates += usize::from(!p.x.is_finite() || !p.y.is_finite());
                    (p.x.to_bits(), p.y.to_bits())
                })
                .collect();
            let mut sorted = pts;
            sorted.sort_unstable();
            report.duplicate_coordinates = sorted.windows(2).filter(|w| w[0] == w[1]).count();
        }
    }
    report
}

/// Collect every `<dir>/<job>/request.json` span a serve run left
/// behind, sorted by job id — the data source of `tsp-inspect serve`.
pub fn serve_spans(dir: &std::path::Path) -> Result<Vec<RequestSpan>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut spans = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path().join("request.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // not a job dir, or the span was never written
        };
        spans.push(RequestSpan::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    if spans.is_empty() {
        return Err(format!(
            "{}: no <job>/request.json artifacts (was the service run with request spans on?)",
            dir.display()
        ));
    }
    spans.sort_by(|a, b| a.job_id.cmp(&b.job_id));
    Ok(spans)
}

/// The bar glyph for the stage window *ending* at `stage`: queue wait,
/// lease wait, the solve itself, artifact writing, or bookkeeping.
fn stage_glyph(stage: Stage) -> char {
    match stage {
        Stage::Dequeued => 'q',
        Stage::Leased => 'l',
        Stage::Artifacts => 's',
        Stage::Done | Stage::Failed | Stage::Cancelled | Stage::Expired => 'a',
        Stage::Rejected => 'x',
        _ => '.',
    }
}

/// Render serve-request spans as a per-request waterfall: one row per
/// job with its lane, terminal state, end-to-end wall time and trace
/// id, plus a stage bar on a shared time axis (`q` queue wait, `l`
/// lease wait, `s` solve, `a` artifacts/terminal bookkeeping, `x`
/// rejected) — the text half of `tsp-inspect serve`.
pub fn render_serve_waterfall(spans: &[RequestSpan]) -> String {
    const BAR: f64 = 40.0;
    let max_e2e = spans
        .iter()
        .filter_map(RequestSpan::end_to_end_seconds)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut out = format!(
        "{} request span(s), time axis 0..{:.3}s\n\
         job           tenant      lane   state      e2e(s)  modeled(s)  trace            waterfall\n",
        spans.len(),
        max_e2e
    );
    for span in spans {
        let lane = span
            .stage(Stage::Leased)
            .and_then(|s| Some(format!("d{}/s{}", s.device?, s.stream?)))
            .unwrap_or_else(|| "-".into());
        let state = span
            .terminal()
            .map_or("open", |s| s.stage.as_str())
            .to_string();
        let e2e = span
            .end_to_end_seconds()
            .map_or("-".into(), |s| format!("{s:.4}"));
        let modeled = span
            .modeled_seconds()
            .map_or("-".into(), |s| format!("{s:.4}"));
        let trace = if span.trace_id.is_empty() {
            "-".to_string()
        } else {
            span.trace_id.chars().take(16).collect()
        };
        // Walk the adjacent stamp windows, growing the bar to each
        // window's end position so rounding never drifts off-axis.
        let mut bar = String::new();
        for w in span.stages.windows(2) {
            let end = ((w[1].wall_seconds / max_e2e) * BAR).round() as usize;
            while bar.len() < end.min(BAR as usize) {
                bar.push(stage_glyph(w[1].stage));
            }
        }
        out.push_str(&format!(
            "{:<13} {:<11} {:<6} {:<9} {:>7}  {:>10}  {:<16} |{bar}\n",
            span.job_id, span.tenant, lane, state, e2e, modeled, trace
        ));
    }
    out
}

/// Load the alert journal behind `path`: either an `alerts.jsonl`
/// file directly, or a serve artifacts directory containing one —
/// the data source of `tsp-inspect alerts`.
pub fn load_alert_transitions(path: &std::path::Path) -> Result<Vec<AlertTransition>, String> {
    let file = if path.is_dir() {
        path.join("alerts.jsonl")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    parse_alerts_jsonl(&text).map_err(|e| format!("{}: {e}", file.display()))
}

/// The display key of an alert instance: `rule{k=v,…}`.
fn instance_key(rule: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return rule.to_string();
    }
    let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{rule}{{{}}}", labels.join(","))
}

/// Render an alert journal as a human-readable firing timeline: every
/// state transition in evaluation order, then the derived *firing
/// intervals* per alert instance (open intervals mean the journal
/// ends with the alert still firing) — the text half of
/// `tsp-inspect alerts`. Pure over the artifact: no service, registry
/// or clock is consulted.
pub fn render_alert_timeline(transitions: &[AlertTransition]) -> String {
    if transitions.is_empty() {
        return "no alert transitions (a healthy run)\n".to_string();
    }
    let mut rules: Vec<&str> = transitions.iter().map(|t| t.rule.as_str()).collect();
    rules.sort_unstable();
    rules.dedup();
    let mut out = format!(
        "{} alert transition(s) across {} rule(s), window {:.3}s..{:.3}s\n",
        transitions.len(),
        rules.len(),
        transitions.first().map(|t| t.seconds).unwrap_or(0.0),
        transitions.last().map(|t| t.seconds).unwrap_or(0.0),
    );
    out.push_str("   seconds  severity  transition            alert\n");
    for tr in transitions {
        out.push_str(&format!(
            "{:>10.3}  {:<8}  {:<8} -> {:<8}  {}={}\n",
            tr.seconds,
            tr.severity.as_str(),
            tr.from.as_str(),
            tr.to.as_str(),
            instance_key(&tr.rule, &tr.labels),
            tr.value,
        ));
    }
    // Firing intervals per instance, in first-fired order. An
    // interval opens on a `-> firing` transition and closes on the
    // next transition away from it.
    let mut intervals: Vec<(String, f64, Option<f64>)> = Vec::new();
    for tr in transitions {
        let key = instance_key(&tr.rule, &tr.labels);
        if tr.to == AlertState::Firing {
            intervals.push((key, tr.seconds, None));
        } else if tr.from == AlertState::Firing {
            if let Some(open) = intervals
                .iter_mut()
                .rev()
                .find(|(k, _, end)| *k == key && end.is_none())
            {
                open.2 = Some(tr.seconds);
            }
        }
    }
    out.push_str("firing intervals:\n");
    if intervals.is_empty() {
        out.push_str("  (none — nothing ever fired)\n");
    }
    for (key, start, end) in &intervals {
        match end {
            Some(end) => out.push_str(&format!(
                "  {key}: {start:.3}s..{end:.3}s ({:.3}s firing)\n",
                end - start
            )),
            None => out.push_str(&format!("  {key}: {start:.3}s.. (STILL FIRING)\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp::prelude::{Construction, FlightRecorder, IlsOptions, Solver};
    use tsp_tsplib::{generate, Style};

    fn recorded(n: usize, iters: u64) -> (Instance, Recording) {
        let inst = generate("inspect", n, Style::Uniform, 5);
        let flight = FlightRecorder::attached();
        let solver = Solver::builder()
            .construction(Construction::Random(9))
            .ils(
                IlsOptions::default()
                    .with_max_iterations(iters)
                    .with_seed(3),
            )
            .observe(tsp::twoopt::Observer::none().with_flight(flight))
            .build();
        solver.run(&inst).unwrap();
        let recording = solver.recording(&inst).unwrap();
        (inst, recording)
    }

    #[test]
    fn alert_timeline_renders_transitions_and_firing_intervals() {
        let journal = concat!(
            "{\"seconds\":1.25,\"rule\":\"LaneStalled\",\"severity\":\"critical\",",
            "\"labels\":{\"lane\":\"0\"},\"from\":\"inactive\",\"to\":\"firing\",\"value\":0.3}\n",
            "{\"seconds\":2,\"rule\":\"QueueAgeSlo\",\"severity\":\"warning\",",
            "\"from\":\"inactive\",\"to\":\"pending\",\"value\":31.5}\n",
            "{\"seconds\":3.5,\"rule\":\"LaneStalled\",\"severity\":\"critical\",",
            "\"labels\":{\"lane\":\"0\"},\"from\":\"firing\",\"to\":\"resolved\",\"value\":0}\n",
            "{\"seconds\":4,\"rule\":\"QueueAgeSlo\",\"severity\":\"warning\",",
            "\"from\":\"pending\",\"to\":\"firing\",\"value\":40}\n",
        );
        let transitions = parse_alerts_jsonl(journal).unwrap();
        let text = render_alert_timeline(&transitions);
        assert!(
            text.contains("4 alert transition(s) across 2 rule(s)"),
            "{text}"
        );
        assert!(text.contains("LaneStalled{lane=0}"), "{text}");
        // The lane-stall interval closed; the queue-age one did not.
        assert!(
            text.contains("LaneStalled{lane=0}: 1.250s..3.500s (2.250s firing)"),
            "{text}"
        );
        assert!(
            text.contains("QueueAgeSlo: 4.000s.. (STILL FIRING)"),
            "{text}"
        );
        // A healthy run renders the explicit no-alerts line.
        assert!(render_alert_timeline(&[]).contains("healthy run"));
    }

    #[test]
    fn flame_table_ranks_by_weight_and_shows_shares() {
        let stacks = vec![
            ("solve;descent;sweep;kernel:dense".to_string(), 750u64),
            ("solve;descent;sweep;h2d".to_string(), 250u64),
        ];
        let text = render_flame(&stacks, 10);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("total weight 1000"));
        assert!(lines[2].contains("kernel:dense") && lines[2].contains("75.0%"));
        assert!(lines[3].contains("h2d") && lines[3].contains("25.0%"));
        // Top-N truncation.
        assert_eq!(render_flame(&stacks, 1).lines().count(), 3);
        assert!(render_flame(&[], 5).contains("no stacks"));
    }

    #[test]
    fn heatmap_counts_every_applied_move() {
        let (_, rec) = recorded(48, 6);
        let moves = rec
            .chain_events(0)
            .iter()
            .filter(|e| matches!(e, ReplayEvent::Sweep { .. }))
            .count();
        assert!(moves > 0);
        let grid = heatmap_grid(&rec, 0, 8);
        let total: f64 = grid.iter().flatten().sum();
        assert!(total > 0.0);
        // Moves live strictly in the upper triangle (j > i buckets or
        // the diagonal when both land in one bucket).
        for (r, row) in grid.iter().enumerate() {
            for (c, &cell) in row.iter().enumerate() {
                if c < r {
                    assert_eq!(cell, 0.0, "move bucketed below the diagonal at ({r},{c})");
                }
            }
        }
        let text = render_heatmap_text(&grid);
        assert_eq!(text.lines().count(), 8);
        let pgm = render_heatmap_pgm(&grid);
        assert!(pgm.starts_with("P2\n8 8\n255\n"));
        assert!(pgm.lines().count() == 3 + 8);
    }

    #[test]
    fn svg_renders_without_rerunning_the_solver() {
        let (inst, rec) = recorded(32, 4);
        let svg = tour_svg(&rec, 0, 0, &inst).unwrap();
        assert!(svg.starts_with("<svg"));
        // One circle per city plus the closed tour path.
        assert_eq!(svg.matches("<circle").count(), 32);
        assert!(svg.contains("Z\""));
    }

    #[test]
    fn timeline_tracks_iterations() {
        let (_, rec) = recorded(40, 5);
        let points = timeline(&rec, 0);
        assert_eq!(points.len(), 6); // initial descent + 5 iterations
        assert_eq!(points[0].iteration, 0);
        assert!(points[0].accepted);
        let text = render_timeline(&points);
        assert!(text.contains("6 iterations"));
    }

    #[test]
    fn plateau_is_flagged_on_a_stalled_chain() {
        // A tiny instance stalls fast: Better-only acceptance on 16
        // cities finds its best quickly and then rejects for the rest
        // of the run — a seeded plateau.
        let inst = generate("stall", 16, Style::Uniform, 11);
        let flight = FlightRecorder::attached();
        let solver = Solver::builder()
            .construction(Construction::Random(2))
            .ils(
                IlsOptions::default()
                    .with_max_iterations(30u64)
                    .with_seed(4),
            )
            .observe(tsp::twoopt::Observer::none().with_flight(flight))
            .build();
        solver.run(&inst).unwrap();
        let rec = solver.recording(&inst).unwrap();
        let report = detect_anomalies(&rec, 0, Some(&inst), 10);
        assert!(report.plateaued(), "{report}");
        assert!(report.any());
        assert!(report.to_string().contains("PLATEAU"));
        assert_eq!(report.bad_coordinates, 0);
    }

    #[test]
    fn serve_waterfall_renders_lanes_stages_and_trace_ids() {
        let mut done = RequestSpan::new("job-00000000", "dispatch");
        done.trace_id = "0af7651916cd43dd8448eb211c80319c".into();
        done.run_id = "00ff00ff00ff00ff".into();
        done.stamp(Stage::Received, 0.0, 0.0);
        done.stamp(Stage::Admitted, 0.001, 0.0);
        done.stamp(Stage::Queued, 0.001, 0.0);
        done.stamp(Stage::Dequeued, 0.010, 0.0);
        done.stamp_lease(0.012, 1, 0);
        done.stamp(Stage::Solving, 0.013, 0.0);
        done.stamp(Stage::Artifacts, 0.090, 0.004);
        done.stamp(Stage::Done, 0.100, 0.004);
        let mut rejected = RequestSpan::new("job-00000001", "burst");
        rejected.stamp(Stage::Received, 0.0, 0.0);
        rejected.stamp(Stage::Rejected, 0.002, 0.0);

        let dir = std::env::temp_dir().join(format!(
            "tsp-inspect-serve-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for span in [&done, &rejected] {
            let job_dir = dir.join(&span.job_id);
            std::fs::create_dir_all(&job_dir).unwrap();
            std::fs::write(job_dir.join("request.json"), span.to_json().to_string()).unwrap();
        }
        // A stray non-job directory is skipped, not an error.
        std::fs::create_dir_all(dir.join("not-a-job")).unwrap();

        let spans = serve_spans(&dir).unwrap();
        assert_eq!(spans, vec![done, rejected]);
        let rendered = render_serve_waterfall(&spans);
        assert!(rendered.contains("2 request span(s)"), "{rendered}");
        assert!(rendered.contains("d1/s0"), "lane column: {rendered}");
        assert!(rendered.contains("0af7651916cd43dd"), "trace: {rendered}");
        assert!(
            rendered.contains('q') && rendered.contains('s'),
            "{rendered}"
        );
        assert!(rendered.contains("rejected"), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_spans_reports_an_empty_directory() {
        let dir = std::env::temp_dir().join(format!(
            "tsp-inspect-serve-empty-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(serve_spans(&dir).unwrap_err().contains("request.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degenerate_coordinates_are_reported() {
        use tsp_core::{Metric, Point};
        let (_, rec) = recorded(32, 2);
        // An instance with a duplicated city (valid geometry, zero
        // distance between the twins).
        let mut pts: Vec<Point> = (0..32)
            .map(|i| Point::new(i as f32, (i % 7) as f32))
            .collect();
        pts[5] = pts[4];
        let degenerate = Instance::new("twins", Metric::Euc2d, pts).unwrap();
        let report = detect_anomalies(&rec, 0, Some(&degenerate), 1000);
        assert_eq!(report.duplicate_coordinates, 1);
        assert!(report.any());
        assert!(report.to_string().contains("DEGENERATE"));
    }
}
