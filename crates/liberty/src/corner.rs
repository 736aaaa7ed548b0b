use std::fmt;

/// One of the four STA corner combinations: early/late × rise/fall.
///
/// Everything timing-valued in the workspace is stored as `[f32; 4]`
/// indexed by [`Corner::index`], in the fixed order
/// `EarlyRise, EarlyFall, LateRise, LateFall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Corner {
    /// Minimum-delay analysis, rising transition.
    EarlyRise,
    /// Minimum-delay analysis, falling transition.
    EarlyFall,
    /// Maximum-delay analysis, rising transition.
    LateRise,
    /// Maximum-delay analysis, falling transition.
    LateFall,
}

impl Corner {
    /// All corners in storage order.
    pub const ALL: [Corner; 4] = [
        Corner::EarlyRise,
        Corner::EarlyFall,
        Corner::LateRise,
        Corner::LateFall,
    ];

    /// Storage index, 0..4.
    pub fn index(self) -> usize {
        match self {
            Corner::EarlyRise => 0,
            Corner::EarlyFall => 1,
            Corner::LateRise => 2,
            Corner::LateFall => 3,
        }
    }

    /// Whether this is an early (min-delay) corner.
    pub fn is_early(self) -> bool {
        matches!(self, Corner::EarlyRise | Corner::EarlyFall)
    }

    /// Whether this is a rising-transition corner.
    pub fn is_rise(self) -> bool {
        matches!(self, Corner::EarlyRise | Corner::LateRise)
    }

    /// The corner with the same early/late mode but opposite transition;
    /// used for inverting arcs where an input rise produces an output fall.
    pub fn flipped_transition(self) -> Corner {
        match self {
            Corner::EarlyRise => Corner::EarlyFall,
            Corner::EarlyFall => Corner::EarlyRise,
            Corner::LateRise => Corner::LateFall,
            Corner::LateFall => Corner::LateRise,
        }
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Corner::EarlyRise => "early/rise",
            Corner::EarlyFall => "early/fall",
            Corner::LateRise => "late/rise",
            Corner::LateFall => "late/fall",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_storage_order() {
        for (i, c) in Corner::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn early_and_rise_classification() {
        assert!(Corner::EarlyRise.is_early());
        assert!(!Corner::LateFall.is_early());
        assert!(Corner::LateRise.is_rise());
        assert!(!Corner::EarlyFall.is_rise());
    }

    #[test]
    fn flip_preserves_mode() {
        for c in Corner::ALL {
            let f = c.flipped_transition();
            assert_eq!(c.is_early(), f.is_early());
            assert_ne!(c.is_rise(), f.is_rise());
        }
    }
}
