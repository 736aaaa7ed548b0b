//! Micro-benchmarks for model inference: the timer-inspired GNN (the
//! Table-5 "Our GNN" runtime column), its two stages separately, the GCNII
//! baseline, and the learned LUT-interpolation module.

use tp_baselines::{Gcnii, GcniiConfig, NormalizedGraph};
use tp_bench::micro::Suite;
use tp_data::{Dataset, DatasetConfig, DesignGraph};
use tp_gen::GeneratorConfig;
use tp_gnn::{LutModule, ModelConfig, NetEmbed, PropPlan, TimingGnn};
use tp_liberty::Library;
use tp_nn::Module;
use tp_rng::StdRng;
use tp_tensor::Tensor;

fn design(scale: f64) -> DesignGraph {
    let library = Library::synthetic_sky130(1);
    let ds = Dataset::build_suite(
        &library,
        &DatasetConfig {
            generator: GeneratorConfig {
                scale,
                seed: 1,
                depth: None,
            },
            ..Default::default()
        },
    );
    ds.by_name("usbf_device").expect("suite member").clone()
}

fn bench_gnn_inference(suite: &mut Suite, d: &DesignGraph) {
    let plan = PropPlan::build(d);
    let model = TimingGnn::new(&ModelConfig::default());
    suite.bench("gnn_inference/usbf_device@0.02", || model.forward(d, &plan));
}

fn bench_net_embedding(suite: &mut Suite, d: &DesignGraph) {
    let model = NetEmbed::new(12, &[32, 32], 1);
    suite.bench("net_embedding/usbf_device@0.02", || model.embed(d));
}

fn bench_gcnii(suite: &mut Suite, d: &DesignGraph) {
    let graph = NormalizedGraph::build(d);
    for layers in [4usize, 8, 16] {
        let model = Gcnii::new(&GcniiConfig {
            layers,
            dim: 24,
            ..Default::default()
        });
        suite.bench(&format!("gcnii_forward/{layers}_layers"), || {
            model.forward(d, &graph)
        });
    }
}

fn bench_lut_module(suite: &mut Suite, d: &DesignGraph) {
    let mut rng = StdRng::seed_from_u64(3);
    let lut = LutModule::new(20, &[32, 32], &mut rng);
    let e = d.num_cell_edges().min(2048);
    let idx: Vec<usize> = (0..e).collect();
    let ef = d.cell_edge_features.gather_rows(&idx);
    let x = Tensor::ones(&[e, 20]);
    suite.bench(&format!("lut_interp/{e}_arcs"), || lut.forward(&x, &ef));
    // The training step's use: a taped forward, then its backward into the
    // coefficient MLPs.
    let params = lut.parameters();
    suite.bench(&format!("lut_interp/{e}_arcs/fwd_bwd"), || {
        let loss = lut.forward(&x, &ef).sum();
        params.iter().for_each(Tensor::zero_grad);
        loss.backward();
        loss.item()
    });
}

fn main() {
    let mut suite = Suite::new("models");
    let d = design(0.02);
    bench_gnn_inference(&mut suite, &d);
    bench_net_embedding(&mut suite, &d);
    bench_gcnii(&mut suite, &d);
    bench_lut_module(&mut suite, &d);
    suite.finish();
}
