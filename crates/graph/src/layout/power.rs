//! Per-port power model and the power-per-bandwidth figure of merit (Table II).
//!
//! Following the paper's update of the Abts et al. methodology to a Mellanox SB7800
//! (InfiniBand EDR, 100 Gb/s) class switch: a port driving an electrical cable draws
//! ~3.76 W, while a port driving an optical cable draws ~25% more, ~4.72 W. Every link
//! occupies a port at both ends.

use crate::layout::wiring::WiringStats;

/// The per-port power model.
#[derive(Clone, Copy, Debug)]
pub struct PowerModel {
    /// Watts per port driving an electrical link.
    pub electrical_port_w: f64,
    /// Watts per port driving an optical link.
    pub optical_port_w: f64,
    /// Link data rate in Gb/s (used for the power-per-bandwidth metric).
    pub link_rate_gbps: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            electrical_port_w: 3.76,
            optical_port_w: 4.72,
            link_rate_gbps: 100.0,
        }
    }
}

/// Aggregated power figures for a placed topology.
#[derive(Clone, Debug)]
pub struct PowerSummary {
    /// Total switch-port power in watts (both ends of every link).
    pub total_power_w: f64,
    /// Power attributable to electrical ports.
    pub electrical_power_w: f64,
    /// Power attributable to optical ports.
    pub optical_power_w: f64,
    /// Bisection bandwidth in Gb/s used for the efficiency metric.
    pub bisection_bandwidth_gbps: f64,
    /// Power per unit of bisection bandwidth, mW per Gb/s.
    pub mw_per_gbps: f64,
}

impl PowerModel {
    /// Compute the power summary from wiring statistics and a bisection bandwidth in links.
    pub fn summarize(&self, wiring: &WiringStats, bisection_links: u64) -> PowerSummary {
        let electrical_power_w = wiring.electrical_links as f64 * 2.0 * self.electrical_port_w;
        let optical_power_w = wiring.optical_links as f64 * 2.0 * self.optical_port_w;
        let total_power_w = electrical_power_w + optical_power_w;
        let bisection_bandwidth_gbps = bisection_links as f64 * self.link_rate_gbps;
        let mw_per_gbps = if bisection_bandwidth_gbps > 0.0 {
            total_power_w * 1000.0 / bisection_bandwidth_gbps
        } else {
            f64::INFINITY
        };
        PowerSummary {
            total_power_w,
            electrical_power_w,
            optical_power_w,
            bisection_bandwidth_gbps,
            mw_per_gbps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiring(electrical: usize, optical: usize) -> WiringStats {
        WiringStats {
            links: electrical + optical,
            mean_wire_m: 5.0,
            max_wire_m: 20.0,
            total_wire_m: 5.0 * (electrical + optical) as f64,
            electrical_links: electrical,
            optical_links: optical,
        }
    }

    #[test]
    fn power_adds_both_port_ends() {
        let m = PowerModel::default();
        let s = m.summarize(&wiring(10, 0), 100);
        assert!((s.total_power_w - 10.0 * 2.0 * 3.76).abs() < 1e-9);
        let s2 = m.summarize(&wiring(0, 10), 100);
        assert!((s2.total_power_w - 10.0 * 2.0 * 4.72).abs() < 1e-9);
        assert!(s2.total_power_w > s.total_power_w);
    }

    #[test]
    fn efficiency_metric_scaling() {
        let m = PowerModel::default();
        // 304 bisection links at 100 Gb/s = 30.4 Tb/s.
        let s = m.summarize(&wiring(249, 758), 304);
        assert!((s.bisection_bandwidth_gbps - 30_400.0).abs() < 1e-9);
        assert!(s.mw_per_gbps > 0.0);
        // Zero bisection bandwidth yields an infinite (useless) efficiency.
        let z = m.summarize(&wiring(1, 1), 0);
        assert!(z.mw_per_gbps.is_infinite());
    }

    #[test]
    fn optical_ports_cost_25_percent_more() {
        let m = PowerModel::default();
        assert!((m.optical_port_w / m.electrical_port_w - 1.2553).abs() < 0.01);
    }
}
