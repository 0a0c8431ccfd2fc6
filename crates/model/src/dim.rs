//! The three packing dimensions.

/// A dimension of the space-time container: chip columns (`X`), chip rows
/// (`Y`), or execution time (`Time`).
///
/// The packing-class solver treats the dimensions symmetrically except that
/// precedence constraints live in [`Dim::Time`].
///
/// # Example
///
/// ```
/// use recopack_model::Dim;
///
/// assert_eq!(Dim::ALL.len(), 3);
/// assert_eq!(Dim::Time.index(), 2);
/// assert_eq!(Dim::ALL[Dim::X.index()], Dim::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dim {
    /// Chip columns (spatial width).
    X,
    /// Chip rows (spatial height).
    Y,
    /// Execution time (clock cycles).
    Time,
}

impl Dim {
    /// All three dimensions, in index order.
    pub const ALL: [Dim; 3] = [Dim::X, Dim::Y, Dim::Time];

    /// Dense index `0..3` (X = 0, Y = 1, Time = 2).
    pub const fn index(self) -> usize {
        match self {
            Dim::X => 0,
            Dim::Y => 1,
            Dim::Time => 2,
        }
    }

    /// The other two dimensions, in index order.
    pub const fn others(self) -> [Dim; 2] {
        match self {
            Dim::X => [Dim::Y, Dim::Time],
            Dim::Y => [Dim::X, Dim::Time],
            Dim::Time => [Dim::X, Dim::Y],
        }
    }
}

impl std::fmt::Display for Dim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dim::X => write!(f, "x"),
            Dim::Y => write!(f, "y"),
            Dim::Time => write!(f, "t"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for d in Dim::ALL {
            assert_eq!(Dim::ALL[d.index()], d);
        }
    }

    #[test]
    fn others_are_complementary() {
        for d in Dim::ALL {
            let [a, b] = d.others();
            assert_ne!(a, d);
            assert_ne!(b, d);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Dim::X.to_string(), "x");
        assert_eq!(Dim::Y.to_string(), "y");
        assert_eq!(Dim::Time.to_string(), "t");
    }
}
