//! Facade crate re-exporting the whole TimingPredict reproduction workspace.
pub use tp_baselines as baselines;
pub use tp_data as data;
pub use tp_gen as gen;
pub use tp_gnn as gnn;
pub use tp_graph as graph;
pub use tp_liberty as liberty;
pub use tp_nn as nn;
pub use tp_obs as obs;
pub use tp_par as par;
pub use tp_partition as partition;
pub use tp_place as place;
pub use tp_rng as rng;
pub use tp_route as route;
pub use tp_scenarios as scenarios;
pub use tp_serve as serve;
pub use tp_sta as sta;
pub use tp_tensor as tensor;
