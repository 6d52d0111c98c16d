//! TSPLIB95 file parser.
//!
//! Supports the symmetric-TSP subset a 2-opt solver consumes:
//!
//! * header keywords `NAME`, `TYPE`, `COMMENT`, `DIMENSION`,
//!   `EDGE_WEIGHT_TYPE`, `EDGE_WEIGHT_FORMAT`, `NODE_COORD_TYPE`,
//!   `DISPLAY_DATA_TYPE` (both `KEY: value` and `KEY : value` forms);
//! * `NODE_COORD_SECTION` for all coordinate metrics;
//! * `EDGE_WEIGHT_SECTION` for `EXPLICIT` instances in `FULL_MATRIX`,
//!   `UPPER_ROW`, `UPPER_DIAG_ROW` and `LOWER_DIAG_ROW` formats;
//! * `DISPLAY_DATA_SECTION` (attached as display coordinates);
//! * `EOF` terminator (optional, per the many real files that omit it).

use crate::error::TsplibError;
use std::collections::HashMap;
use tsp_core::{ExplicitMatrix, Instance, Metric, Point};

/// Supported explicit edge-weight layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeWeightFormat {
    /// Square matrix, row by row.
    FullMatrix,
    /// Strict upper triangle, row by row.
    UpperRow,
    /// Upper triangle including diagonal.
    UpperDiagRow,
    /// Lower triangle including diagonal.
    LowerDiagRow,
}

impl EdgeWeightFormat {
    fn from_keyword(kw: &str) -> Option<Self> {
        Some(match kw {
            "FULL_MATRIX" => EdgeWeightFormat::FullMatrix,
            "UPPER_ROW" => EdgeWeightFormat::UpperRow,
            "UPPER_DIAG_ROW" => EdgeWeightFormat::UpperDiagRow,
            "LOWER_DIAG_ROW" => EdgeWeightFormat::LowerDiagRow,
            _ => return None,
        })
    }
}

/// Parse TSPLIB text into an [`Instance`].
pub fn parse(text: &str) -> Result<Instance, TsplibError> {
    let mut header: HashMap<String, String> = HashMap::new();
    let mut coords: Vec<(usize, f64, f64)> = Vec::new();
    let mut display: Vec<(usize, f64, f64)> = Vec::new();
    let mut weights: Vec<i32> = Vec::new();

    #[derive(PartialEq)]
    enum Section {
        Header,
        NodeCoords,
        EdgeWeights,
        DisplayData,
        Skip,
    }
    let mut section = Section::Header;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line == "EOF" {
            break;
        }
        // Section markers.
        match line {
            "NODE_COORD_SECTION" => {
                section = Section::NodeCoords;
                continue;
            }
            "EDGE_WEIGHT_SECTION" => {
                section = Section::EdgeWeights;
                continue;
            }
            "DISPLAY_DATA_SECTION" => {
                section = Section::DisplayData;
                continue;
            }
            // Sections we accept but ignore.
            "FIXED_EDGES_SECTION" | "TOUR_SECTION" | "EDGE_DATA_SECTION" => {
                section = Section::Skip;
                continue;
            }
            _ => {}
        }

        match section {
            Section::Header => {
                let (key, value) = line.split_once(':').ok_or_else(|| TsplibError::Syntax {
                    line: lineno + 1,
                    message: format!("expected `KEY: value`, got `{line}`"),
                })?;
                header.insert(key.trim().to_uppercase(), value.trim().to_string());
            }
            Section::NodeCoords => {
                coords.push(parse_coord_line(line, lineno + 1)?);
            }
            Section::DisplayData => {
                display.push(parse_coord_line(line, lineno + 1)?);
            }
            Section::EdgeWeights => {
                for tok in line.split_whitespace() {
                    let w: i64 = tok.parse().map_err(|_| TsplibError::Syntax {
                        line: lineno + 1,
                        message: format!("invalid weight `{tok}`"),
                    })?;
                    weights.push(w as i32);
                }
            }
            Section::Skip => {}
        }
    }

    let name = header
        .get("NAME")
        .cloned()
        .unwrap_or_else(|| "unnamed".to_string());
    let dimension: usize = header
        .get("DIMENSION")
        .ok_or(TsplibError::MissingKeyword("DIMENSION"))?
        .parse()
        .map_err(|_| TsplibError::Invalid("DIMENSION is not an integer".into()))?;
    let ewt = header
        .get("EDGE_WEIGHT_TYPE")
        .ok_or(TsplibError::MissingKeyword("EDGE_WEIGHT_TYPE"))?;
    let metric = Metric::from_keyword(ewt)
        .ok_or_else(|| TsplibError::UnsupportedEdgeWeightType(ewt.clone()))?;

    if let Some(t) = header.get("TYPE") {
        let t = t.trim();
        if t != "TSP" && t != "STSP" {
            return Err(TsplibError::UnsupportedType(t.to_string()));
        }
    }

    let instance = if metric == Metric::Explicit {
        let fmt_kw = header
            .get("EDGE_WEIGHT_FORMAT")
            .ok_or(TsplibError::MissingKeyword("EDGE_WEIGHT_FORMAT"))?;
        let fmt = EdgeWeightFormat::from_keyword(fmt_kw)
            .ok_or_else(|| TsplibError::UnsupportedEdgeWeightFormat(fmt_kw.clone()))?;
        let matrix = match fmt {
            EdgeWeightFormat::FullMatrix => ExplicitMatrix::from_full(dimension, weights),
            EdgeWeightFormat::UpperRow => ExplicitMatrix::from_upper_row(dimension, &weights),
            EdgeWeightFormat::UpperDiagRow => {
                ExplicitMatrix::from_upper_diag_row(dimension, &weights)
            }
            EdgeWeightFormat::LowerDiagRow => {
                ExplicitMatrix::from_lower_diag_row(dimension, &weights)
            }
        }
        .map_err(|e| TsplibError::Invalid(e.to_string()))?;
        let display_points = if display.is_empty() {
            None
        } else {
            Some(collect_points(display, dimension)?)
        };
        Instance::from_matrix(name, matrix, display_points)
            .map_err(|e| TsplibError::Invalid(e.to_string()))?
    } else {
        if coords.len() != dimension {
            return Err(TsplibError::Invalid(format!(
                "DIMENSION is {dimension} but NODE_COORD_SECTION has {} entries",
                coords.len()
            )));
        }
        let points = collect_points(coords, dimension)?;
        Instance::new(name, metric, points).map_err(|e| TsplibError::Invalid(e.to_string()))?
    };

    let instance = match header.get("COMMENT") {
        Some(c) => instance.with_comment(c.clone()),
        None => instance,
    };
    Ok(instance)
}

fn parse_coord_line(line: &str, lineno: usize) -> Result<(usize, f64, f64), TsplibError> {
    let mut it = line.split_whitespace();
    let err = |msg: &str| TsplibError::Syntax {
        line: lineno,
        message: msg.to_string(),
    };
    let id: usize = it
        .next()
        .ok_or_else(|| err("missing node id"))?
        .parse()
        .map_err(|_| err("node id is not an integer"))?;
    let x: f64 = it
        .next()
        .ok_or_else(|| err("missing x coordinate"))?
        .parse()
        .map_err(|_| err("x is not a number"))?;
    let y: f64 = it
        .next()
        .ok_or_else(|| err("missing y coordinate"))?
        .parse()
        .map_err(|_| err("y is not a number"))?;
    Ok((id, x, y))
}

fn collect_points(
    entries: Vec<(usize, f64, f64)>,
    dimension: usize,
) -> Result<Vec<Point>, TsplibError> {
    let mut points = vec![None; dimension];
    for (id, x, y) in entries {
        if id == 0 || id > dimension {
            return Err(TsplibError::Invalid(format!(
                "node id {id} out of range 1..={dimension}"
            )));
        }
        if points[id - 1].is_some() {
            return Err(TsplibError::Invalid(format!("node id {id} appears twice")));
        }
        points[id - 1] = Some(Point::new(x as f32, y as f32));
    }
    points
        .into_iter()
        .enumerate()
        .map(|(i, p)| p.ok_or_else(|| TsplibError::Invalid(format!("node id {} missing", i + 1))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SQUARE: &str = "\
NAME: square4
TYPE: TSP
COMMENT: unit test square
DIMENSION: 4
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 0.0 10.0
3 10.0 10.0
4 10.0 0.0
EOF
";

    #[test]
    fn parses_euclidean_instance() {
        let inst = parse(SQUARE).unwrap();
        assert_eq!(inst.name(), "square4");
        assert_eq!(inst.len(), 4);
        assert_eq!(inst.metric(), Metric::Euc2d);
        assert_eq!(inst.comment(), "unit test square");
        assert_eq!(inst.dist(0, 1), 10);
        assert_eq!(inst.dist(0, 2), 14);
    }

    #[test]
    fn parses_header_with_spaced_colon() {
        let text = SQUARE.replace("NAME:", "NAME :");
        let inst = parse(&text).unwrap();
        assert_eq!(inst.name(), "square4");
    }

    #[test]
    fn parses_explicit_full_matrix() {
        let text = "\
NAME: m3
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 1 2
1 0 3
2 3 0
EOF
";
        let inst = parse(text).unwrap();
        assert_eq!(inst.dist(0, 1), 1);
        assert_eq!(inst.dist(1, 2), 3);
        assert!(!inst.is_coordinate_based());
    }

    #[test]
    fn parses_explicit_lower_diag_row_multiline() {
        let text = "\
NAME: bays3-like
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: LOWER_DIAG_ROW
EDGE_WEIGHT_SECTION
0
5 0
7 9
0
EOF
";
        let inst = parse(text).unwrap();
        assert_eq!(inst.dist(0, 1), 5);
        assert_eq!(inst.dist(2, 0), 7);
        assert_eq!(inst.dist(2, 1), 9);
    }

    #[test]
    fn rejects_missing_dimension() {
        let err = parse("NAME: x\nEDGE_WEIGHT_TYPE: EUC_2D\n").unwrap_err();
        assert!(matches!(err, TsplibError::MissingKeyword("DIMENSION")));
    }

    #[test]
    fn rejects_unknown_metric() {
        let text = SQUARE.replace("EUC_2D", "XRAY1");
        let err = parse(&text).unwrap_err();
        assert!(matches!(err, TsplibError::UnsupportedEdgeWeightType(_)));
    }

    #[test]
    fn rejects_non_tsp_type() {
        let text = SQUARE.replace("TYPE: TSP", "TYPE: CVRP");
        let err = parse(&text).unwrap_err();
        assert!(matches!(err, TsplibError::UnsupportedType(_)));
    }

    #[test]
    fn rejects_coordinate_count_mismatch() {
        let text = SQUARE.replace("DIMENSION: 4", "DIMENSION: 5");
        let err = parse(&text).unwrap_err();
        assert!(matches!(err, TsplibError::Invalid(_)));
    }

    #[test]
    fn rejects_duplicate_node_ids() {
        let text = SQUARE.replace("2 0.0 10.0", "1 0.0 10.0");
        let err = parse(&text).unwrap_err();
        assert!(matches!(err, TsplibError::Invalid(_)));
    }

    #[test]
    fn rejects_coordinates_past_the_f32_range() {
        // 1e39 parses as an f64 but is infinite once stored as f32.
        for bad in ["2 1e39 10.0", "2 0.0 -1e39", "2 NaN 10.0", "2 inf 10.0"] {
            let text = SQUARE.replace("2 0.0 10.0", bad);
            let err = parse(&text).unwrap_err();
            assert!(
                matches!(&err, TsplibError::Invalid(msg) if msg.contains("city 1 has a non-finite coordinate")),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn rejects_garbage_coordinates() {
        let text = SQUARE.replace("2 0.0 10.0", "2 zero ten");
        let err = parse(&text).unwrap_err();
        assert!(matches!(err, TsplibError::Syntax { .. }));
    }

    #[test]
    fn works_without_eof_marker() {
        let text = SQUARE.replace("EOF\n", "");
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn one_based_ids_in_any_order() {
        let text = "\
NAME: shuffled
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
3 2.0 0.0
1 0.0 0.0
2 1.0 0.0
";
        let inst = parse(text).unwrap();
        assert_eq!(inst.point(0), Point::new(0.0, 0.0));
        assert_eq!(inst.point(2), Point::new(2.0, 0.0));
    }
}
