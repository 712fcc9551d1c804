//! UGAL — Universal Globally-Adaptive Load-balanced routing, in its local (UGAL-L)
//! and global (UGAL-G) variants.
//!
//! Both make one decision at the source router: stay minimal, or detour through a
//! random intermediate à la Valiant. The decision compares congestion-weighted path
//! lengths, `cost = congestion × hops`; the variants differ only in the congestion
//! signal. UGAL-L sees the local output-queue depths; UGAL-G additionally sees the
//! downstream routers' buffer occupancy — the idealized global link-state the
//! literature grants UGAL-G.

use super::{Router, RoutingCtx, RoutingState};
use crate::config::UGAL_THRESHOLD;
use spectralfly_graph::csr::VertexId;

/// The congestion estimate for sending through `port`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Signal {
    /// Local output-queue depth only.
    Local,
    /// Local queue depth plus the downstream router's total buffer occupancy.
    Global,
}

fn congestion(ctx: &RoutingCtx<'_>, port: usize, signal: Signal) -> f64 {
    let local = ctx.queue_len(port) as f64;
    match signal {
        Signal::Local => local,
        Signal::Global => local + ctx.router_occupancy(ctx.port_target(port)) as f64,
    }
}

/// Shared source-routing decision; per-hop behaviour after the decision is adaptive
/// minimal toward the current target.
fn ugal_route(ctx: &mut RoutingCtx<'_>, state: &mut RoutingState, signal: Signal) -> usize {
    let dst = ctx.dst();
    if ctx.hops() == 0 && state.intermediate.is_none() {
        let min_port = ctx.best_minimal_port(dst);
        let d_min = ctx.dist(ctx.router(), dst) as f64;
        let cost_min = (congestion(ctx, min_port, signal) + 1.0) * d_min;
        if let Some(inter) = ctx.sample_intermediate() {
            let val_port = ctx.best_minimal_port(inter);
            let d_val = detour_len(ctx, inter, dst);
            let cost_val = (congestion(ctx, val_port, signal) + 1.0) * d_val;
            if cost_val + UGAL_THRESHOLD < cost_min {
                state.intermediate = Some(inter);
                return val_port;
            }
        }
        return min_port;
    }
    let target = state.current_target(dst);
    ctx.best_minimal_port(target)
}

fn detour_len(ctx: &RoutingCtx<'_>, inter: VertexId, dst: VertexId) -> f64 {
    ctx.dist(ctx.router(), inter) as f64 + ctx.dist(inter, dst) as f64
}

/// UGAL-L: at the source router, choose between the minimal path and a Valiant path
/// using local output-queue occupancy weighted by path length.
#[derive(Clone, Copy, Debug, Default)]
pub struct UgalL;

impl Router for UgalL {
    fn name(&self) -> &str {
        "ugal-l"
    }

    fn vcs_for_diameter(&self, diameter: u32) -> usize {
        2 * diameter as usize + 1
    }

    fn reads_remote_occupancy(&self) -> bool {
        false
    }

    fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize {
        ugal_route(ctx, state, Signal::Local)
    }
}

/// UGAL-G: like UGAL-L, but the congestion estimate adds the candidate next-hop
/// routers' total buffer occupancy — global queue state a real deployment would
/// obtain from link-state exchange, which this simulator reads directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct UgalG;

impl Router for UgalG {
    fn name(&self) -> &str {
        "ugal-g"
    }

    fn vcs_for_diameter(&self, diameter: u32) -> usize {
        2 * diameter as usize + 1
    }

    fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize {
        ugal_route(ctx, state, Signal::Global)
    }
}
