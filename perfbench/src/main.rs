//! The repository benchmark: four single-process workloads timed through
//! the public functions of the workspace crates, each checking its own
//! outputs, with a traced mode that splits the time by layer.
//!
//! ```text
//! perfbench --workload <label_flow|train_epoch|infer_full|serve_eco>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics when
//! `--trace 0`, the per-layer metrics when `--trace 1`. Lines before it
//! echo the configuration and the output digests.

mod harness;
mod infer_full;
mod label_flow;
mod serve_eco;
mod train_epoch;

use harness::{result_line, Outcome, END_TO_END, PER_LAYER};

/// Generator seed of every netlist. The netlists stay fixed so that each
/// `--seed` measures the same circuits; the seed varies their placement
/// and the ECO moves, which change every output digest.
pub const NETLIST_SEED: u64 = 1;

/// Workload names, in the order the self-test runs them.
const WORKLOADS: [&str; 4] = ["label_flow", "train_epoch", "infer_full", "serve_eco"];

/// Everything a workload reads besides its inputs.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Input seed: drives placement and ECO moves.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The seconds-long sizes of the self-test.
    pub tiny: bool,
    /// Flip the reference digest, so every check must fail.
    pub corrupt_reference: bool,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Generator scale of `label_flow`.
    pub flow_scale: f64,
    /// Generator scale of `train_epoch`.
    pub train_scale: f64,
    /// Generator scale of `infer_full`.
    pub infer_scale: f64,
    /// Generator scale of `serve_eco`.
    pub serve_scale: f64,
    /// Warm-up forwards of `infer_full`.
    pub infer_warmup: usize,
    /// Warm-up seconds of `serve_eco`.
    pub serve_warmup: f64,
}

impl Settings {
    fn new(seed: u64, seconds: f64, trace: bool, tiny: bool) -> Settings {
        if tiny {
            return Settings {
                seed,
                seconds: 0.3,
                trace,
                tiny,
                corrupt_reference: false,
                setup_reps: 2,
                flow_scale: 0.01,
                train_scale: 0.004,
                infer_scale: 0.02,
                serve_scale: 0.02,
                infer_warmup: 1,
                serve_warmup: 0.1,
            };
        }
        Settings {
            seed,
            seconds,
            trace,
            tiny,
            corrupt_reference: false,
            setup_reps: 5,
            flow_scale: 0.25,
            train_scale: 1.0 / 32.0,
            infer_scale: 1.0,
            serve_scale: 0.25,
            infer_warmup: 2,
            serve_warmup: 1.0,
        }
    }
}

/// Clears every inherited `TP_*` knob and pins one worker thread, so no
/// result depends on the caller's environment or core count.
fn pin_environment() {
    let inherited: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("TP_"))
        .collect();
    for k in inherited {
        std::env::remove_var(k);
    }
    std::env::set_var("TP_THREADS", "1");
    tp_par::set_threads(1);
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
            }),
            None => Some(head),
        }
        .unwrap_or_else(|| "unknown".into()),
        None => "unknown".into(),
    }
}

fn run(workload: &str, s: &Settings) -> Outcome {
    let mut out = match workload {
        "label_flow" => label_flow::run(s),
        "train_epoch" => train_epoch::run(s),
        "infer_full" => infer_full::run(s),
        "serve_eco" => serve_eco::run(s),
        other => unreachable!("unknown workload {other}"),
    };
    let common = [
        ("workload", workload.to_string()),
        ("seed", s.seed.to_string()),
        ("seconds", s.seconds.to_string()),
        ("trace", s.trace.to_string()),
        ("setup_reps", s.setup_reps.to_string()),
        (
            "TP_THREADS",
            std::env::var("TP_THREADS").unwrap_or_default(),
        ),
        ("threads", tp_par::threads().to_string()),
        (
            "partition_nodes",
            tp_partition::partition_nodes().to_string(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("commit", commit()),
    ];
    let mut config: Vec<(String, String)> = common
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    config.append(&mut out.config);
    out.config = config;
    out
}

/// Prints the echo lines and the result line.
fn report(out: &Outcome, trace: bool) {
    for (k, v) in &out.config {
        println!("# config {k} = {v}");
    }
    for (k, v) in &out.digests {
        println!("# digest {k} = {v}");
    }
    let p = &out.untraced;
    println!(
        "# samples {} ops over {:.3} s, tail = p{:.2}; setup {:.3?} s; error_rate {} ({} of {})",
        p.op_s.len(),
        p.wall_s,
        harness::tail_percentile(p.op_s.len()),
        out.setup_s,
        out.error_rate(),
        out.failed,
        out.attempted
    );
    println!(
        "# op_ms p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
        1e3 * harness::percentile(&p.op_s, 50.0),
        1e3 * harness::percentile(&p.op_s, 90.0),
        1e3 * harness::percentile(&p.op_s, 95.0),
        1e3 * harness::percentile(&p.op_s, 99.0),
        1e3 * harness::percentile(&p.op_s, 100.0),
    );
    if p.op_s.len() <= 100 {
        let ms: Vec<String> = p.op_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        println!("# op_ms {}", ms.join(" "));
    }
    println!("{}", result_line(out, trace));
}

/// Runs every workload at its tiny size, traced and untraced, and asserts
/// that each prints every metric with its unit and passes its checks; then
/// asserts that a corrupted reference digest makes each report failures.
fn self_test() {
    let manifest = std::fs::read_to_string("BENCHMARK.json").ok();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(m) = &manifest {
            assert!(
                m.contains(&format!("\"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
            assert!(
                m.contains(&format!("\"{unit}\"")),
                "BENCHMARK.json lacks unit {unit}"
            );
        }
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let s = Settings::new(7, 0.3, trace, true);
            let out = run(workload, &s);
            let line = result_line(&out, trace);
            let expected = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in expected {
                let field = format!("\"{name}\": {{\"value\": ");
                assert!(
                    line.contains(&field),
                    "{workload}: {name} missing in {line}"
                );
                assert!(
                    line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: unit {unit} missing"
                );
            }
            assert!(out.failed == 0 && out.attempted > 0, "{workload}: {line}");
            println!(
                "self-test {workload} trace={trace}: ok ({} checks)",
                out.attempted
            );
        }
        let mut s = Settings::new(7, 0.3, false, true);
        s.corrupt_reference = true;
        let out = run(workload, &s);
        assert!(
            out.error_rate() > 0.0,
            "{workload}: corrupted reference went unnoticed"
        );
        println!(
            "self-test {workload} corrupted reference: error_rate {}",
            out.error_rate()
        );
    }
    println!("self-test passed");
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --self-test",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    pin_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    // The child-process modes the workloads spawn.
    let mut child = None;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage("missing value"))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value().to_string()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => trace = value() == "1",
            "--tiny" => {
                tiny = true;
                i += 1;
                continue;
            }
            "--reference-forward" => {
                child = Some(infer_full::reference_forward as fn(&Settings));
                i += 1;
                continue;
            }
            "--serve-setup-only" => {
                child = Some(serve_eco::setup_only as fn(&Settings));
                i += 1;
                continue;
            }
            "--self-test" => {
                self_test();
                return;
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let settings = Settings::new(seed, seconds, trace, tiny);
    if let Some(child) = child {
        child(&settings);
        return;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let out = run(&workload, &settings);
    report(&out, trace);
}
