use tp_route::RoutingConfig;

/// Timing constraints and boundary conditions for an STA run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaConfig {
    /// Clock period, ns. Endpoint late required time is
    /// `clock_period − setup_time`.
    pub clock_period: f32,
    /// Setup margin at endpoints, ns.
    pub setup_time: f32,
    /// Hold requirement at endpoints, ns (early required time).
    pub hold_time: f32,
    /// Arrival time asserted at primary inputs, ns.
    pub input_delay: f32,
    /// Clock-to-Q delay of registers, ns (arrival at register outputs).
    pub clk_to_q: f32,
    /// Transition time asserted at startpoints, ns.
    pub input_slew: f32,
    /// Wire parasitics used when the engine routes internally.
    pub routing: RoutingConfig,
}

impl Default for StaConfig {
    fn default() -> Self {
        StaConfig {
            clock_period: 2.0,
            setup_time: 0.05,
            hold_time: 0.02,
            input_delay: 0.1,
            clk_to_q: 0.08,
            input_slew: 0.02,
            routing: RoutingConfig::default(),
        }
    }
}

impl StaConfig {
    /// Returns the config with a different clock period (builder style).
    pub fn with_clock_period(mut self, period: f32) -> StaConfig {
        self.clock_period = period;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = StaConfig::default();
        assert!(c.clock_period > c.setup_time);
        assert!(c.hold_time < c.clock_period);
        assert!(c.input_slew > 0.0);
    }

    #[test]
    fn builder_overrides_period() {
        assert_eq!(
            StaConfig::default().with_clock_period(5.0).clock_period,
            5.0
        );
    }
}
