//! Free-space management for the chip: the placed rectangles and
//! bottom-left queries over their corners.

/// The occupied part of a `width × height` chip, kept as the list of placed
/// rectangles, with bottom-left placement queries.
///
/// Memory and query time grow with the number of placed rectangles, not
/// with the chip area: a 10⁹-wide chip costs what a 10-wide one does. A
/// query tries candidate positions in ascending `(y, x)` order over
/// `y ∈ {0} ∪ {top edges}` and `x ∈ {0} ∪ {right edges}`. The lowest, then
/// leftmost, free position always lies on such a corner (DESIGN.md,
/// "Corner candidates and the Pareto staircase"), so the answer is the one
/// a scan of every cell would give.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeSpace {
    width: u64,
    height: u64,
    placed: Vec<Rect>,
}

/// A placed rectangle: origin `(x, y)`, size `w × h`, inside the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rect {
    x: u64,
    y: u64,
    w: u64,
    h: u64,
}

/// Whether the half-open intervals `[a, a + la)` and `[b, b + lb)` share a
/// point; an empty interval shares none.
fn intersects(a: u64, la: u64, b: u64, lb: u64) -> bool {
    a.max(b) < (a + la).min(b + lb)
}

impl FreeSpace {
    /// Creates an empty chip.
    pub fn new(width: u64, height: u64) -> Self {
        Self {
            width,
            height,
            placed: Vec::new(),
        }
    }

    /// Whether the rectangle at `(x, y)` of size `w × h` lies inside the
    /// chip and overlaps no placed rectangle.
    pub fn fits(&self, x: u64, y: u64, w: u64, h: u64) -> bool {
        x <= self.width
            && w <= self.width - x
            && y <= self.height
            && h <= self.height - y
            && !self
                .placed
                .iter()
                .any(|r| intersects(x, w, r.x, r.w) && intersects(y, h, r.y, r.h))
    }

    /// Bottom-left position for a `w × h` rectangle: smallest `y`, then
    /// smallest `x`, at which it fits. `None` when nothing fits.
    pub fn find_position(&self, w: u64, h: u64) -> Option<(u64, u64)> {
        if w == 0 || h == 0 || w > self.width || h > self.height {
            return None;
        }
        let y_max = self.height - h;
        let mut y = 0;
        loop {
            if let Some(x) = self.leftmost_in_band(y, w, h) {
                return Some((x, y));
            }
            // The next candidate row is the lowest top edge above `y`.
            y = self
                .placed
                .iter()
                .map(|r| r.y + r.h)
                .filter(|&top| top > y && top <= y_max)
                .min()?;
        }
    }

    /// Smallest `x` at which a `w × h` rectangle fits with its bottom edge
    /// at `y`. Each rectangle overlapping the candidate blocks every
    /// position up to its right edge, so the candidate jumps to the
    /// rightmost such edge until nothing overlaps.
    fn leftmost_in_band(&self, y: u64, w: u64, h: u64) -> Option<u64> {
        let x_max = self.width - w;
        let mut x = 0;
        loop {
            let blocked_to = self
                .placed
                .iter()
                .filter(|r| intersects(x, w, r.x, r.w) && intersects(y, h, r.y, r.h))
                .map(|r| r.x + r.w)
                .max();
            match blocked_to {
                None => return Some(x),
                Some(right) if right <= x_max => x = right,
                Some(_) => return None,
            }
        }
    }

    /// Marks the rectangle as occupied.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the rectangle leaves the chip or
    /// overlaps a placed one — double-booking is a caller bug.
    pub fn occupy(&mut self, x: u64, y: u64, w: u64, h: u64) {
        debug_assert!(
            self.fits(x, y, w, h),
            "rectangle {w}x{h} at ({x},{y}) double-booked or off the chip"
        );
        self.placed.push(Rect { x, y, w, h });
    }

    /// Frees a rectangle placed earlier by [`occupy`](Self::occupy) with
    /// the same arguments.
    ///
    /// # Panics
    ///
    /// Panics if no such rectangle is placed.
    pub fn release(&mut self, x: u64, y: u64, w: u64, h: u64) {
        let at = self
            .placed
            .iter()
            .position(|&r| r == Rect { x, y, w, h })
            .unwrap_or_else(|| panic!("rectangle {w}x{h} at ({x},{y}) is not placed"));
        self.placed.swap_remove(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bottom_left_prefers_low_y_then_low_x() {
        let mut s = FreeSpace::new(6, 4);
        s.occupy(0, 0, 3, 1);
        assert_eq!(s.find_position(3, 1), Some((3, 0)));
        s.occupy(3, 0, 3, 1);
        assert_eq!(s.find_position(3, 1), Some((0, 1)));
    }

    #[test]
    fn oversized_requests_fail() {
        let s = FreeSpace::new(4, 4);
        assert_eq!(s.find_position(5, 1), None);
        assert_eq!(s.find_position(1, 5), None);
        assert_eq!(s.find_position(0, 1), None);
    }

    #[test]
    fn release_restores_space() {
        let mut s = FreeSpace::new(4, 4);
        s.occupy(0, 0, 4, 4);
        assert_eq!(s.find_position(1, 1), None);
        s.release(0, 0, 4, 4);
        assert_eq!(s.find_position(4, 4), Some((0, 0)));
    }

    #[test]
    #[should_panic(expected = "is not placed")]
    fn releasing_an_unplaced_rectangle_panics() {
        let mut s = FreeSpace::new(4, 4);
        s.occupy(0, 0, 2, 2);
        s.release(0, 0, 1, 1);
    }

    #[test]
    fn fits_respects_partial_occupancy() {
        let mut s = FreeSpace::new(4, 4);
        s.occupy(1, 1, 2, 2);
        assert!(s.fits(0, 0, 1, 4));
        assert!(!s.fits(0, 0, 2, 2));
        assert!(s.fits(3, 0, 1, 4));
        assert!(!s.fits(3, 3, 2, 1));
        assert!(s.fits(1, 1, 0, 0), "an empty rectangle overlaps nothing");
        assert!(!s.fits(u64::MAX, 0, 2, 1), "far off the chip");
    }

    #[test]
    fn a_billion_wide_chip_costs_no_more_than_a_small_one() {
        let side = 1_000_000_000;
        let mut s = FreeSpace::new(side, side);
        s.occupy(0, 0, side - 1, 2);
        assert_eq!(s.find_position(2, 2), Some((0, 2)));
        assert_eq!(s.find_position(1, 2), Some((side - 1, 0)));
        s.occupy(side - 1, 0, 1, 1);
        assert_eq!(s.find_position(1, 1), Some((side - 1, 1)));
        assert_eq!(s.find_position(side, side - 2), Some((0, 2)));
        assert_eq!(s.find_position(side, side - 1), None);
    }

    /// The cell grid the free-space manager replaced, as a test oracle:
    /// every cell is a flag, and a query tries every position in row-major
    /// order. A summed-area table makes each `fits` O(1).
    struct CellGrid {
        width: u64,
        height: u64,
        cells: Vec<bool>,
    }

    impl CellGrid {
        fn new(width: u64, height: u64) -> Self {
            Self {
                width,
                height,
                cells: vec![false; (width * height) as usize],
            }
        }

        fn set(&mut self, x: u64, y: u64, w: u64, h: u64, value: bool) {
            for yy in y..y + h {
                for xx in x..x + w {
                    self.cells[(yy * self.width + xx) as usize] = value;
                }
            }
        }

        fn summed_area(&self) -> Vec<u64> {
            let stride = self.width as usize + 1;
            let mut sums = vec![0u64; stride * (self.height as usize + 1)];
            for y in 0..self.height as usize {
                for x in 0..self.width as usize {
                    let cell = u64::from(self.cells[y * self.width as usize + x]);
                    sums[(y + 1) * stride + x + 1] =
                        cell + sums[y * stride + x + 1] + sums[(y + 1) * stride + x]
                            - sums[y * stride + x];
                }
            }
            sums
        }

        fn fits_with(&self, sums: &[u64], x: u64, y: u64, w: u64, h: u64) -> bool {
            if x + w > self.width || y + h > self.height {
                return false;
            }
            let stride = self.width as usize + 1;
            let at = |x: u64, y: u64| sums[y as usize * stride + x as usize];
            at(x + w, y + h) + at(x, y) - at(x, y + h) - at(x + w, y) == 0
        }

        fn fits(&self, x: u64, y: u64, w: u64, h: u64) -> bool {
            self.fits_with(&self.summed_area(), x, y, w, h)
        }

        fn find_position(&self, w: u64, h: u64) -> Option<(u64, u64)> {
            if w == 0 || h == 0 || w > self.width || h > self.height {
                return None;
            }
            let sums = self.summed_area();
            (0..=self.height - h)
                .flat_map(|y| (0..=self.width - w).map(move |x| (x, y)))
                .find(|&(x, y)| self.fits_with(&sums, x, y, w, h))
        }
    }

    /// Seeded random occupy / release / `find_position` / `fits` sequences,
    /// on chips whose sides straddle the 64- and 128-cell word boundaries.
    #[test]
    fn agrees_with_a_cell_grid_on_random_sequences() {
        const SIDES: [u64; 7] = [1, 63, 64, 65, 127, 128, 129];
        let mut rng = StdRng::seed_from_u64(0xF5EE);
        for width in SIDES {
            for height in SIDES {
                let mut space = FreeSpace::new(width, height);
                let mut grid = CellGrid::new(width, height);
                let mut placed: Vec<(u64, u64, u64, u64)> = Vec::new();
                for step in 0..60 {
                    let ctx = format!("{width}x{height} step {step}");
                    // Sizes from empty to one past the chip, biased small.
                    let w = rng.gen_range(0..=(width / 3).max(1) + 1).min(width + 1);
                    let h = rng.gen_range(0..=(height / 3).max(1) + 1).min(height + 1);
                    let found = space.find_position(w, h);
                    assert_eq!(found, grid.find_position(w, h), "{ctx}: find {w}x{h}");
                    let x = rng.gen_range(0..=width);
                    let y = rng.gen_range(0..=height);
                    let fits = space.fits(x, y, w, h);
                    assert_eq!(
                        fits,
                        grid.fits(x, y, w, h),
                        "{ctx}: fits {w}x{h} at ({x},{y})"
                    );
                    match rng.gen_range(0..4) {
                        // Release one placed rectangle.
                        0 if !placed.is_empty() => {
                            let (x, y, w, h) = placed.swap_remove(rng.gen_range(0..placed.len()));
                            space.release(x, y, w, h);
                            grid.set(x, y, w, h, false);
                        }
                        // Occupy at a random free spot, leaving irregular holes.
                        1 if fits && w > 0 && h > 0 => {
                            space.occupy(x, y, w, h);
                            grid.set(x, y, w, h, true);
                            placed.push((x, y, w, h));
                        }
                        // Occupy bottom-left, as the list scheduler does.
                        _ => {
                            if let Some((x, y)) = found {
                                space.occupy(x, y, w, h);
                                grid.set(x, y, w, h, true);
                                placed.push((x, y, w, h));
                            }
                        }
                    }
                }
            }
        }
    }
}
