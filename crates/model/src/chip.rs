//! The reconfigurable chip.

/// A reconfigurable FPGA: a rectangular array of `width × height` identical
/// cells (paper §2.2, "the reconfigurable chip consists of an array of
/// `h_x · h_y` cells").
///
/// # Example
///
/// ```
/// use recopack_model::Chip;
///
/// let chip = Chip::square(32);
/// assert_eq!((chip.width(), chip.height()), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Chip {
    width: u64,
    height: u64,
}

impl Chip {
    /// Creates a `width × height` chip.
    pub fn new(width: u64, height: u64) -> Self {
        Self { width, height }
    }

    /// Creates a square `side × side` chip — the shape optimized by the
    /// base-minimization problem (BMP / MinA&FindS).
    pub fn square(side: u64) -> Self {
        Self::new(side, side)
    }

    /// Number of cell columns.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Number of cell rows.
    pub fn height(&self) -> u64 {
        self.height
    }
}

impl std::fmt::Display for Chip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_and_rectangular() {
        assert_eq!(Chip::square(16), Chip::new(16, 16));
        let chip = Chip::new(3, 4);
        assert_eq!((chip.width(), chip.height()), (3, 4));
    }

    #[test]
    fn display_format() {
        assert_eq!(Chip::new(64, 32).to_string(), "64x32");
    }
}
