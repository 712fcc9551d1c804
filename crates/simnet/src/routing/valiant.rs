//! Valiant randomized routing.

use super::{Router, RoutingCtx, RoutingState};

/// Valiant routing: route minimally to a uniformly random intermediate router
/// (excluding source and destination), then minimally to the destination. Load is
/// spread at the cost of up to doubled path length, so `2d + 1` virtual channels
/// are required on a diameter-`d` topology.
#[derive(Clone, Copy, Debug, Default)]
pub struct Valiant;

impl Router for Valiant {
    fn name(&self) -> &str {
        "valiant"
    }

    fn vcs_for_diameter(&self, diameter: u32) -> usize {
        2 * diameter as usize + 1
    }

    fn reads_remote_occupancy(&self) -> bool {
        false
    }

    fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize {
        if ctx.hops() == 0 && state.intermediate.is_none() {
            state.intermediate = ctx.sample_intermediate();
        }
        let target = state.current_target(ctx.dst());
        ctx.best_minimal_port(target)
    }
}
