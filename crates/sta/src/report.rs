use tp_graph::{CellEdgeId, Circuit, NetEdgeId, PinId};
use tp_liberty::Corner;

/// Results of an STA run: per-pin arrival/slew/required/slack and per-edge
/// delays, all `[f32; 4]` indexed by [`Corner::index`].
#[derive(Debug, Clone)]
pub struct TimingReport {
    pub(crate) at: Vec<[f32; 4]>,
    pub(crate) slew: Vec<[f32; 4]>,
    pub(crate) rat: Vec<[f32; 4]>,
    pub(crate) net_edge_delay: Vec<[f32; 4]>,
    pub(crate) cell_edge_delay: Vec<[f32; 4]>,
    pub(crate) endpoints: Vec<PinId>,
}

impl TimingReport {
    /// Arrival times at `pin`.
    pub fn arrival(&self, pin: PinId) -> [f32; 4] {
        self.at[pin.index()]
    }

    /// Transition times at `pin`.
    pub fn slew(&self, pin: PinId) -> [f32; 4] {
        self.slew[pin.index()]
    }

    /// Required arrival times at `pin`.
    pub fn required(&self, pin: PinId) -> [f32; 4] {
        self.rat[pin.index()]
    }

    /// Per-corner slack at `pin`: `RAT − AT` at late corners, `AT − RAT` at
    /// early corners (positive = met).
    pub fn slack(&self, pin: PinId) -> [f32; 4] {
        let i = pin.index();
        let mut s = [0.0f32; 4];
        for c in Corner::ALL {
            let k = c.index();
            s[k] = if c.is_early() {
                self.at[i][k] - self.rat[i][k]
            } else {
                self.rat[i][k] - self.at[i][k]
            };
        }
        s
    }

    /// Wire delay of one net edge per corner.
    pub fn net_edge_delay(&self, e: NetEdgeId) -> [f32; 4] {
        self.net_edge_delay[e.index()]
    }

    /// Cell-arc delay of one cell edge per corner — the ground truth for
    /// the paper's auxiliary cell-delay task (Eq. 5).
    pub fn cell_edge_delay(&self, e: CellEdgeId) -> [f32; 4] {
        self.cell_edge_delay[e.index()]
    }

    /// All timing endpoints considered by this run.
    pub fn endpoints(&self) -> &[PinId] {
        &self.endpoints
    }

    /// Worst setup slack per endpoint (min over late corners).
    pub fn setup_slack(&self, endpoint: PinId) -> f32 {
        let s = self.slack(endpoint);
        s[Corner::LateRise.index()].min(s[Corner::LateFall.index()])
    }

    /// Worst negative setup slack over all endpoints (WNS; positive when
    /// all constraints are met).
    pub fn wns_setup(&self) -> f32 {
        self.endpoints
            .iter()
            .map(|&e| self.setup_slack(e))
            .fold(f32::INFINITY, f32::min)
    }

    /// Total negative setup slack over all endpoints (TNS, ≤ 0).
    pub fn tns_setup(&self) -> f32 {
        self.endpoints
            .iter()
            .map(|&e| self.setup_slack(e).min(0.0))
            .sum()
    }

    /// Maximum arrival time anywhere (late corners) — the critical path
    /// delay.
    pub fn critical_path_delay(&self) -> f32 {
        self.at
            .iter()
            .map(|a| a[Corner::LateRise.index()].max(a[Corner::LateFall.index()]))
            .fold(0.0, f32::max)
    }

    /// The "net delay to root pin" pin feature of Table 2: for a net sink
    /// this is the wire delay from its net's driver; drivers get 0.
    pub fn net_delay_to_root(&self, circuit: &Circuit, pin: PinId) -> [f32; 4] {
        let pd = circuit.pin(pin);
        if let Some(net) = pd.net {
            let nd = circuit.net(net);
            if let Some(pos) = nd.sinks.iter().position(|&s| s == pin) {
                return self.net_edge_delay[nd.edges[pos].index()];
            }
        }
        [0.0; 4]
    }

    /// Number of pins covered.
    pub fn num_pins(&self) -> usize {
        self.at.len()
    }
}
