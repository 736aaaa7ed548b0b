//! Codec micro-benchmarks for the inference server's wire protocol:
//! request parsing and reply rendering, no socket. Emits
//! `BENCH_serve.json` (collected by `scripts/bench.sh`).
//!
//! Request round trips and handler latency are measured end to end by
//! `perfbench serve_eco`; this suite keeps only the codec rows it does
//! not time on their own.

use tp_bench::micro::{black_box, Suite};
use tp_serve::protocol;

fn main() {
    let mut suite = Suite::new("serve");

    let line = r#"{"op":"move_pins","design":"spm","moves":[{"pin":5,"x":12.5,"y":-3.25},{"pin":9,"x":0.125,"y":7.75}],"id":42}"#;
    suite.bench("codec/parse_request", || {
        protocol::parse_request(black_box(line)).expect("valid")
    });
    let values: Vec<f32> = (0..64).map(|i| i as f32 * 0.37 - 11.0).collect();
    suite.bench("codec/render_f32x64", || {
        protocol::f32_array(black_box(&values))
    });

    suite.finish();
}
