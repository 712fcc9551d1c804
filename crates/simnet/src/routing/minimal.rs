//! Adaptive minimal routing.

use super::{Router, RoutingCtx, RoutingState};

/// Adaptive minimal routing: each hop picks the least-occupied port among all
/// shortest-path next hops (random tie-break), so paths never exceed the source's
/// distance to the destination.
#[derive(Clone, Copy, Debug, Default)]
pub struct Minimal;

impl Router for Minimal {
    fn name(&self) -> &str {
        "minimal"
    }

    fn reads_remote_occupancy(&self) -> bool {
        false
    }

    fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize {
        let target = state.current_target(ctx.dst());
        ctx.best_minimal_port(target)
    }
}
