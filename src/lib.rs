//! # SkyWalker
//!
//! A from-scratch Rust reproduction of *SkyWalker: A Locality-Aware
//! Cross-Region Load Balancer for LLM Inference* (Xia et al., EuroSys
//! '26) — the load balancer itself plus every substrate its evaluation
//! depends on.
//!
//! ## Crate map
//!
//! | Crate | Provides |
//! |---|---|
//! | `skywalker-sim` | deterministic discrete-event engine, seeded RNG |
//! | `skywalker-net` | regions, WAN latency model, DNS, wire codec |
//! | `skywalker-replica` | continuous-batching replica with radix KV cache |
//! | `skywalker-workload` | WildChat/Arena/ToT-style trace generators |
//! | `skywalker-core` | the balancer: the open [`RoutingPolicy`](core::RoutingPolicy) trait and its four built-ins, selective pushing, trie, ring, controller |
//! | `skywalker-fleet` | the elastic fleet control plane: the open [`FleetPlan`] trait, [`ScheduledPlan`], [`ChaosPlan`], [`ThresholdAutoscaler`] |
//! | `skywalker-cost` | reserved/on-demand provisioning cost model |
//! | `skywalker-metrics` | histograms, request tracking, time series, the `BENCH_*.json` serializer |
//! | `skywalker-live` | real TCP balancer/replica servers on localhost |
//! | `skywalker-lab` | the parallel experiment lab: deterministic multi-threaded sweeps over scenario grids |
//! | `skywalker-trace` | run tracer: span recording, per-request bottleneck attribution, flamegraph-style reports, run diffs (`docs/tracing.md`) |
//! | `skywalker-telemetry` | streaming metrics plane: mergeable quantile sketches, labeled registry, ring series, Prometheus/JSON/markdown export (`docs/telemetry.md`) |
//! | this crate | the [`fabric`] with [`ScenarioBuilder`], the preset [`scenarios`], and [`P2cLocal`] — a custom policy built on the open surface |
//!
//! `skywalker-lab` sits *above* this facade (it consumes [`Scenario`]
//! and [`run_scenario`]), so it is not re-exported here — depend on it
//! directly; [`fig8_recipe`] and [`diurnal_recipe`] below are shaped
//! for its `SweepSpec::cell`.
//!
//! ## Quickstart
//!
//! Scenarios are assembled with a fluent builder: pick a deployment
//! shape (or start from a [`SystemKind`] preset), a fleet, a workload,
//! and optionally a custom routing policy, then run it:
//!
//! ```
//! use skywalker::{run_scenario, FabricConfig, P2cLocalFactory, Scenario};
//! use skywalker::scenarios::{balanced_fleet, Workload};
//!
//! // A small ToT run on SkyWalker's per-region deployment shape, but
//! // routed by a policy the paper never shipped: power-of-two-choices
//! // with locality weighting, plugged in from outside the core crate.
//! let scenario = Scenario::builder()
//!     .replicas(balanced_fleet())
//!     .workload(Workload::Tot, 0.02, 7)
//!     .policy_factory(P2cLocalFactory::new(7))
//!     .build()
//!     .expect("fleet and workload are both set");
//! let summary = run_scenario(&scenario, &FabricConfig::default());
//! assert!(summary.report.completed > 0);
//! println!(
//!     "{}: {:.0} tok/s, p50 TTFT {:.3}s",
//!     summary.label, summary.report.throughput_tps, summary.report.ttft.p50
//! );
//! ```
//!
//! The paper's seven systems remain available as presets — each is now a
//! thin wrapper over the same builder. The system-comparison loop below
//! is `examples/quickstart.rs` in miniature (run the real thing with
//! `cargo run --release --example quickstart`), compiled here so the
//! front-door code can never rot:
//!
//! ```
//! use skywalker::{fig8_scenario, run_scenario, FabricConfig, SystemKind, Workload};
//!
//! for system in [SystemKind::RoundRobin, SystemKind::SglRouter, SystemKind::SkyWalker] {
//!     let scenario = fig8_scenario(system, Workload::Arena, 0.02, 42);
//!     let s = run_scenario(&scenario, &FabricConfig::default());
//!     assert!(s.report.completed > 0);
//!     println!(
//!         "{:<14} {:>8.0} tok/s  TTFT p50 {:>6.2}s  hit {:>5.1}%  fwd {}",
//!         system.label(),
//!         s.report.throughput_tps,
//!         s.report.ttft.p50,
//!         100.0 * s.replica_hit_rate,
//!         s.forwarded,
//!     );
//! }
//! ```
//!
//! To run a whole *grid* of such cells — policy × workload × fleet ×
//! seed — in parallel with bit-identical results at any thread count,
//! hand [`fig8_recipe`] (or any closure building a [`Scenario`]) to
//! `skywalker_lab::SweepSpec`; see `examples/sweep.rs` and
//! `docs/architecture.md`.
//!
//! ## Extending
//!
//! All four experiment axes are open:
//!
//! - **Routing**: implement [`RoutingPolicy`](core::RoutingPolicy) (one
//!   required method) and a [`PolicyFactory`](core::PolicyFactory), hand
//!   the factory to [`ScenarioBuilder::policy_factory`], and the same
//!   implementation runs in the simulator and behind the live TCP
//!   servers. Recipe in `docs/extending.md`; [`P2cLocal`] is the worked
//!   example.
//! - **Traffic**: implement [`TrafficSource`] —
//!   a lazy stream of client arrivals the fabric pulls as simulated time
//!   advances — and hand it to [`ScenarioBuilder::traffic_source`]. The
//!   paper's four workloads are presets over the same trait
//!   ([`Workload::source`]); recipe in `docs/workloads.md`;
//!   [`RagCorpusSource`] and [`FlashCrowdSource`] are the worked
//!   examples, both living outside the workload crate.
//! - **Fleet**: implement [`FleetPlan`] — a stream of joins, drains,
//!   crashes, and balancer flaps the fabric polls with a live
//!   [`FleetObservation`] as simulated time advances — and hand it to
//!   [`ScenarioBuilder::fleet_plan`]. [`ScheduledPlan`], [`ChaosPlan`],
//!   and [`ThresholdAutoscaler`] are the built-ins; recipe in
//!   `docs/fleet.md`; [`PredictiveAutoscaler`] (diurnal-aware
//!   pre-provisioning) is the worked example outside the fleet crate.
//! - **Serving engine**: implement [`BatchPolicy`] (per-iteration
//!   admission order, prefill chunking, preemption) and/or
//!   [`KvEvictor`] (which unpinned prefix-cache state dies under
//!   memory pressure), bundle them in an [`EngineSpec`], and hand it
//!   to [`ScenarioBuilder::engine`] — every replica, including mid-run
//!   fleet joins, runs a clone. [`FcfsBatch`] + [`LruEvictor`] are the
//!   (byte-identical-to-history) defaults; recipe in `docs/replica.md`;
//!   [`ShortestPromptFirst`] is the worked example outside the replica
//!   crate, and `examples/engine_shootout.rs` races engines under the
//!   [`memory_pressure_scenario`] preset.
//!
//! And once cells exist on any axis, `skywalker-lab` sweeps their cross
//! product — policy × workload × fleet × seed — across OS threads with
//! bit-identical results at any worker count (`examples/sweep.rs`;
//! determinism rules in `docs/architecture.md`).

pub mod autoscale;
pub mod fabric;
mod p2c;
pub mod scenarios;
mod sjf;
pub mod sources;

pub use autoscale::{PredictiveAutoscaler, PredictiveConfig};
pub use fabric::{
    run_scenario, Deployment, FabricConfig, FaultEvent, FleetSummary, ReplicaPlacement, RunSummary,
    Scenario, ScenarioBuilder, ScenarioError, StopReason, SystemKind, TransferSummary,
};
pub use p2c::{P2cLocal, P2cLocalFactory};
pub use scenarios::{
    balanced_fleet, disagg_engine, disagg_recipe, disagg_scenario, diurnal_recipe,
    diurnal_reference_predictive, diurnal_reference_reactive, equal_cost_lite_fleet,
    fig10_diurnal_scenario, fig10_scenario, fig8_recipe, fig8_scenario, fig9_scenario, l4_fleet,
    lite_fleet, memory_pressure_recipe, memory_pressure_scenario, trio_diurnal_profiles,
    unbalanced_fleet, workload_clients, DisaggWorkload, Workload, L4_LITE, L4_PRESSURE, REGIONS,
};
pub use sjf::ShortestPromptFirst;
pub use skywalker_fleet::{
    AutoscalerConfig, ChaosConfig, ChaosPlan, FleetCommand, FleetEvent, FleetObservation,
    FleetPlan, MergePlan, ScheduledPlan, ThresholdAutoscaler,
};
pub use skywalker_replica::{
    BatchPlan, BatchPolicy, EngineSpec, EvictCandidate, EvictRank, FcfsBatch, KvEvictor,
    LruEvictor, NoEvict, PendingView, PrefixAwareEvictor, ReplicaRole, RunningView, StepView,
    TieredEvictor,
};
pub use skywalker_telemetry::{
    markdown_table, prometheus_text, MetricsRegistry, MetricsSnapshot, QuantileSketch, RingSeries,
    TelemetryConfig, TelemetrySummary,
};
pub use skywalker_trace::{
    Attribution, BottleneckReport, Phase, TraceConfig, TraceDiff, TraceSummary,
};
pub use sources::{DiurnalSource, FlashCrowdSource, RagCorpusConfig, RagCorpusSource};
pub use workload::{
    ArrivalSchedule, ClientEvent, ClientListSource, ConversationSource, MergeSource, TotSource,
    TrafficSource,
};

// Re-export the member crates under stable names so downstream users can
// depend on `skywalker` alone.
pub use skywalker_core as core;
pub use skywalker_cost as cost;
pub use skywalker_fleet as fleet;
pub use skywalker_metrics as metrics;
pub use skywalker_net as net;
pub use skywalker_replica as replica;
pub use skywalker_sim as sim;
pub use skywalker_telemetry as telemetry;
pub use skywalker_trace as trace;
pub use skywalker_workload as workload;
