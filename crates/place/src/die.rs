/// A 2-D location in micrometres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate, µm.
    pub x: f32,
    /// Vertical coordinate, µm.
    pub y: f32,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f32, y: f32) -> Point {
        Point { x, y }
    }

    /// Manhattan distance to `other`.
    pub fn manhattan(self, other: Point) -> f32 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

/// The rectangular placement region, anchored at the origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Die {
    /// Width in µm.
    pub width: f32,
    /// Height in µm.
    pub height: f32,
}

impl Die {
    /// Creates a die of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive.
    pub fn new(width: f32, height: f32) -> Die {
        assert!(
            width > 0.0 && height > 0.0,
            "die dimensions must be positive"
        );
        Die { width, height }
    }

    /// A square die sized for `num_cells` cells of `cell_area` µm² at the
    /// given utilization.
    pub fn for_cells(num_cells: usize, cell_area: f32, utilization: f32) -> Die {
        let area = (num_cells.max(1) as f32 * cell_area / utilization).max(1.0);
        let side = area.sqrt();
        Die::new(side, side)
    }

    /// Distances from `p` to the four boundaries in the fixed feature order
    /// `[left, bottom, right, top]` (paper Table 2).
    pub fn boundary_distances(&self, p: Point) -> [f32; 4] {
        [p.x, p.y, self.width - p.x, self.height - p.y]
    }

    /// Clamps a point into the die.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.height))
    }

    /// Whether `p` lies inside (inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= 0.0 && p.y >= 0.0 && p.x <= self.width && p.y <= self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_distances_sum() {
        let die = Die::new(100.0, 50.0);
        let d = die.boundary_distances(Point::new(30.0, 20.0));
        assert_eq!(d, [30.0, 20.0, 70.0, 30.0]);
        assert_eq!(d[0] + d[2], 100.0);
        assert_eq!(d[1] + d[3], 50.0);
    }

    #[test]
    fn for_cells_scales_with_count() {
        let small = Die::for_cells(100, 5.0, 0.7);
        let large = Die::for_cells(10_000, 5.0, 0.7);
        assert!(large.width > small.width * 5.0);
    }

    #[test]
    fn clamp_and_contains() {
        let die = Die::new(10.0, 10.0);
        let p = die.clamp(Point::new(-5.0, 20.0));
        assert_eq!(p, Point::new(0.0, 10.0));
        assert!(die.contains(p));
        assert!(!die.contains(Point::new(11.0, 0.0)));
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Point::new(1.0, 2.0).manhattan(Point::new(4.0, 0.0)), 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_die_rejected() {
        let _ = Die::new(0.0, 5.0);
    }
}
