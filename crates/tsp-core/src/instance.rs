//! A TSP instance: a set of cities plus a distance function.

use crate::error::CoreError;
use crate::matrix::ExplicitMatrix;
use crate::metric::Metric;
use crate::point::Point;

/// A (symmetric) TSP instance.
///
/// An instance is either *coordinate-based* (points + a [`Metric`]
/// formula — the only kind the paper's GPU kernels handle, since staging
/// coordinates in shared memory is the whole trick) or *explicit*
/// (a materialised distance matrix, the LUT of the paper's Table I).
#[derive(Debug, Clone)]
pub struct Instance {
    name: String,
    comment: String,
    metric: Metric,
    points: Vec<Point>,
    matrix: Option<ExplicitMatrix>,
}

impl Instance {
    /// Create a coordinate-based instance.
    ///
    /// # Errors
    /// Fails when `metric` is [`Metric::Explicit`] (use
    /// [`Instance::from_matrix`]) or fewer than 3 points are given.
    pub fn new(
        name: impl Into<String>,
        metric: Metric,
        points: Vec<Point>,
    ) -> Result<Self, CoreError> {
        if metric == Metric::Explicit {
            return Err(CoreError::MissingCoordinates);
        }
        if points.len() < 3 {
            return Err(CoreError::InstanceTooSmall {
                n: points.len(),
                min: 3,
            });
        }
        if let Some(city) = points
            .iter()
            .position(|p| !(p.x.is_finite() && p.y.is_finite()))
        {
            return Err(CoreError::NonFiniteCoordinate { city });
        }
        Ok(Instance {
            name: name.into(),
            comment: String::new(),
            metric,
            points,
            matrix: None,
        })
    }

    /// Create an explicit-matrix instance. Points may optionally be
    /// attached as display coordinates.
    pub fn from_matrix(
        name: impl Into<String>,
        matrix: ExplicitMatrix,
        display_points: Option<Vec<Point>>,
    ) -> Result<Self, CoreError> {
        if matrix.len() < 3 {
            return Err(CoreError::InstanceTooSmall {
                n: matrix.len(),
                min: 3,
            });
        }
        if let Some(p) = &display_points {
            if p.len() != matrix.len() {
                return Err(CoreError::InvalidMatrix(format!(
                    "display coordinates ({}) do not match matrix size ({})",
                    p.len(),
                    matrix.len()
                )));
            }
        }
        Ok(Instance {
            name: name.into(),
            comment: String::new(),
            metric: Metric::Explicit,
            points: display_points.unwrap_or_default(),
            matrix: Some(matrix),
        })
    }

    /// Attach a free-form comment (TSPLIB `COMMENT`).
    pub fn with_comment(mut self, comment: impl Into<String>) -> Self {
        self.comment = comment.into();
        self
    }

    /// Instance name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instance comment.
    #[inline]
    pub fn comment(&self) -> &str {
        &self.comment
    }

    /// Number of cities.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.matrix {
            Some(m) => m.len(),
            None => self.points.len(),
        }
    }

    /// `true` when the instance has no cities (never constructible through
    /// the public API, but kept for slice-like ergonomics).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The metric in force.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// City coordinates (empty for explicit instances without display data).
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The explicit matrix, if any.
    #[inline]
    pub fn matrix(&self) -> Option<&ExplicitMatrix> {
        self.matrix.as_ref()
    }

    /// `true` when the GPU kernels can run this instance (they need
    /// coordinates; the whole point of the paper is *not* shipping an
    /// O(n²) LUT to the device).
    #[inline]
    pub fn is_coordinate_based(&self) -> bool {
        self.matrix.is_none()
    }

    /// Distance between cities `i` and `j`.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> i32 {
        match &self.matrix {
            Some(m) => m.get(i, j),
            None => self.metric.dist(&self.points[i], &self.points[j]),
        }
    }

    /// Coordinates of city `i`.
    ///
    /// # Panics
    /// Panics when the instance is explicit and has no display coordinates.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Instance {
        Instance::new(
            "square4",
            Metric::Euc2d,
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 10.0),
                Point::new(10.0, 10.0),
                Point::new(10.0, 0.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn coordinate_instance_basics() {
        let inst = square();
        assert_eq!(inst.len(), 4);
        assert_eq!(inst.dist(0, 1), 10);
        assert_eq!(inst.dist(0, 2), 14); // sqrt(200) = 14.14 -> 14
        assert!(inst.is_coordinate_based());
    }

    #[test]
    fn rejects_tiny_instances() {
        let err = Instance::new("p", Metric::Euc2d, vec![Point::new(0.0, 0.0)]).unwrap_err();
        assert!(matches!(err, CoreError::InstanceTooSmall { .. }));
    }

    #[test]
    fn rejects_non_finite_coordinates_naming_the_first_bad_city() {
        let mut pts = vec![Point::new(0.0, 0.0); 5];
        pts[3] = Point::new(1.0, f32::NAN);
        pts[4] = Point::new(f32::INFINITY, 0.0);
        let err = Instance::new("p", Metric::Euc2d, pts.clone()).unwrap_err();
        assert_eq!(err, CoreError::NonFiniteCoordinate { city: 3 });
        pts[3] = Point::new(1.0, 1.0);
        let err = Instance::new("p", Metric::Euc2d, pts).unwrap_err();
        assert_eq!(err, CoreError::NonFiniteCoordinate { city: 4 });
    }

    #[test]
    fn rejects_explicit_metric_without_matrix() {
        let err = Instance::new("p", Metric::Explicit, vec![Point::default(); 5]).unwrap_err();
        assert_eq!(err, CoreError::MissingCoordinates);
    }

    #[test]
    fn explicit_instance_dispatches_to_matrix() {
        let m = ExplicitMatrix::from_upper_row(3, &[7, 9, 11]).unwrap();
        let inst = Instance::from_matrix("m3", m, None).unwrap();
        assert_eq!(inst.dist(0, 1), 7);
        assert_eq!(inst.dist(1, 2), 11);
        assert_eq!(inst.dist(2, 0), 9);
        assert!(!inst.is_coordinate_based());
        assert_eq!(inst.metric(), Metric::Explicit);
    }

    #[test]
    fn display_points_must_match_matrix_size() {
        let m = ExplicitMatrix::from_upper_row(3, &[1, 1, 1]).unwrap();
        let err = Instance::from_matrix("m3", m, Some(vec![Point::default(); 2])).unwrap_err();
        assert!(matches!(err, CoreError::InvalidMatrix(_)));
    }

    #[test]
    fn comment_is_preserved() {
        let inst = square().with_comment("four corners");
        assert_eq!(inst.comment(), "four corners");
        assert_eq!(inst.name(), "square4");
    }
}
