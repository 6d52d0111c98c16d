//! Error type shared by the core TSP data structures.

use std::fmt;

/// Errors raised by core TSP operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The instance has fewer cities than the operation requires.
    InstanceTooSmall {
        /// Number of cities in the instance.
        n: usize,
        /// Minimum number of cities required.
        min: usize,
    },
    /// A tour is not a permutation of `0..n`.
    InvalidTour(String),
    /// A city index is out of range.
    CityOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of cities in the instance.
        n: usize,
    },
    /// An explicit distance matrix had the wrong shape or entries.
    InvalidMatrix(String),
    /// The metric requires coordinates but the instance has none.
    MissingCoordinates,
    /// A city's coordinate is infinite or NaN (e.g. a value past the
    /// `f32` range); `city` is the first such city.
    NonFiniteCoordinate {
        /// Index of the first offending city.
        city: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InstanceTooSmall { n, min } => {
                write!(f, "instance has {n} cities but at least {min} are required")
            }
            CoreError::InvalidTour(msg) => write!(f, "invalid tour: {msg}"),
            CoreError::CityOutOfRange { index, n } => {
                write!(
                    f,
                    "city index {index} out of range for instance of size {n}"
                )
            }
            CoreError::InvalidMatrix(msg) => write!(f, "invalid distance matrix: {msg}"),
            CoreError::MissingCoordinates => {
                write!(
                    f,
                    "metric requires node coordinates but the instance has none"
                )
            }
            CoreError::NonFiniteCoordinate { city } => {
                write!(f, "city {city} has a non-finite coordinate")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = CoreError::InstanceTooSmall { n: 2, min: 4 };
        assert_eq!(
            e.to_string(),
            "instance has 2 cities but at least 4 are required"
        );
        let e = CoreError::CityOutOfRange { index: 9, n: 5 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("5"));
        let e = CoreError::NonFiniteCoordinate { city: 7 };
        assert_eq!(e.to_string(), "city 7 has a non-finite coordinate");
    }
}
