//! The benchmark table (paper Table 1).

/// Which side of the paper's fixed 14/7 split a design belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// One of the 14 training designs.
    Train,
    /// One of the 7 held-out test designs.
    Test,
}

/// Target statistics for one benchmark at `scale = 1.0` (Table 1 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkSpec {
    /// Design name from the paper.
    pub name: &'static str,
    /// Target pin count.
    pub nodes: usize,
    /// Target net-edge count.
    pub net_edges: usize,
    /// Target cell-edge count.
    pub cell_edges: usize,
    /// Target endpoint count.
    pub endpoints: usize,
    /// Train/test membership.
    pub split: Split,
}

/// All 21 designs in the paper's Table 1 order: the first 14 are the
/// training set, the last 7 the test set.
pub const BENCHMARKS: [BenchmarkSpec; 21] = [
    BenchmarkSpec {
        name: "blabla",
        nodes: 55568,
        net_edges: 39853,
        cell_edges: 35689,
        endpoints: 1614,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "usb_cdc_core",
        nodes: 7406,
        net_edges: 5200,
        cell_edges: 4869,
        endpoints: 630,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "BM64",
        nodes: 38458,
        net_edges: 27843,
        cell_edges: 25334,
        endpoints: 1800,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "salsa20",
        nodes: 78486,
        net_edges: 57737,
        cell_edges: 52895,
        endpoints: 3710,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "aes128",
        nodes: 211045,
        net_edges: 148997,
        cell_edges: 138457,
        endpoints: 5696,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "wbqspiflash",
        nodes: 9672,
        net_edges: 6798,
        cell_edges: 6454,
        endpoints: 323,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "cic_decimator",
        nodes: 3131,
        net_edges: 2232,
        cell_edges: 2102,
        endpoints: 130,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "aes256",
        nodes: 290955,
        net_edges: 207414,
        cell_edges: 189262,
        endpoints: 11200,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "des",
        nodes: 60541,
        net_edges: 44478,
        cell_edges: 41845,
        endpoints: 2048,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "aes_cipher",
        nodes: 59777,
        net_edges: 42671,
        cell_edges: 41411,
        endpoints: 660,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "picorv32a",
        nodes: 58676,
        net_edges: 43047,
        cell_edges: 40208,
        endpoints: 1920,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "zipdiv",
        nodes: 4398,
        net_edges: 3102,
        cell_edges: 2913,
        endpoints: 181,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "genericfir",
        nodes: 38827,
        net_edges: 28845,
        cell_edges: 25013,
        endpoints: 3811,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "usb",
        nodes: 3361,
        net_edges: 2406,
        cell_edges: 2189,
        endpoints: 344,
        split: Split::Train,
    },
    BenchmarkSpec {
        name: "jpeg_encoder",
        nodes: 238216,
        net_edges: 176737,
        cell_edges: 167960,
        endpoints: 4422,
        split: Split::Test,
    },
    BenchmarkSpec {
        name: "usbf_device",
        nodes: 66345,
        net_edges: 46241,
        cell_edges: 42226,
        endpoints: 4404,
        split: Split::Test,
    },
    BenchmarkSpec {
        name: "aes192",
        nodes: 234211,
        net_edges: 165350,
        cell_edges: 152910,
        endpoints: 8096,
        split: Split::Test,
    },
    BenchmarkSpec {
        name: "xtea",
        nodes: 10213,
        net_edges: 7151,
        cell_edges: 6882,
        endpoints: 423,
        split: Split::Test,
    },
    BenchmarkSpec {
        name: "spm",
        nodes: 1121,
        net_edges: 765,
        cell_edges: 700,
        endpoints: 129,
        split: Split::Test,
    },
    BenchmarkSpec {
        name: "y_huff",
        nodes: 48216,
        net_edges: 33689,
        cell_edges: 30612,
        endpoints: 2391,
        split: Split::Test,
    },
    BenchmarkSpec {
        name: "synth_ram",
        nodes: 25910,
        net_edges: 19024,
        cell_edges: 16782,
        endpoints: 2112,
        split: Split::Test,
    },
];

impl BenchmarkSpec {
    /// Looks a benchmark up by name.
    pub fn by_name(name: &str) -> Option<&'static BenchmarkSpec> {
        BENCHMARKS.iter().find(|b| b.name == name)
    }

    /// The training subset in table order.
    pub fn train() -> impl Iterator<Item = &'static BenchmarkSpec> {
        BENCHMARKS.iter().filter(|b| b.split == Split::Train)
    }

    /// The test subset in table order.
    pub fn test() -> impl Iterator<Item = &'static BenchmarkSpec> {
        BENCHMARKS.iter().filter(|b| b.split == Split::Test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_counts_match_paper() {
        assert_eq!(BenchmarkSpec::train().count(), 14);
        assert_eq!(BenchmarkSpec::test().count(), 7);
    }

    #[test]
    fn totals_match_table1() {
        let train: usize = BenchmarkSpec::train().map(|b| b.nodes).sum();
        let test: usize = BenchmarkSpec::test().map(|b| b.nodes).sum();
        assert_eq!(train, 920_301);
        assert_eq!(test, 624_232);
        let train_ep: usize = BenchmarkSpec::train().map(|b| b.endpoints).sum();
        let test_ep: usize = BenchmarkSpec::test().map(|b| b.endpoints).sum();
        assert_eq!(train_ep, 34_067);
        assert_eq!(test_ep, 21_977);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            BenchmarkSpec::by_name("usbf_device").unwrap().endpoints,
            4404
        );
        assert!(BenchmarkSpec::by_name("nonexistent").is_none());
    }
}
