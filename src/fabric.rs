//! The multi-region deployment fabric: a discrete-event simulation wiring
//! clients, DNS, load balancers, the wide-area network, replicas, and the
//! controller into one reproducible world.
//!
//! This is the substrate on which every end-to-end experiment of the
//! paper runs (§5): the same [`RegionalBalancer`] / [`Replica`] state
//! machines the live TCP mode uses, driven here by a virtual clock. One
//! [`Scenario`] describes a deployment (which system, where the replicas
//! are, who the clients are, what faults to inject); [`run_scenario`]
//! plays it out and returns a [`RunSummary`] with the paper's metrics:
//! service throughput, TTFT and end-to-end latency distributions,
//! KV-cache hit rate, and load-balance diagnostics.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use skywalker_core::{
    BalancerConfig, ControlAction, Controller, Decision, LbId, PolicyFactory, PolicyKind, PushMode,
    RegionalBalancer, RoutingConstraint,
};
use skywalker_fleet::{
    FleetCommand, FleetEvent, FleetObservation, FleetPlan, LbObservation, MergePlan,
    ReplicaObservation, ScheduledPlan,
};
use skywalker_metrics::{peak_gap, RequestTracker, RunReport, TimeSeries};
use skywalker_net::{DnsResolver, Endpoint, LatencyModel, Region};
use skywalker_replica::{
    output_token, BatchPolicy, Completion, EngineSpec, GpuProfile, KvEvictor, Replica, ReplicaId,
    ReplicaRole, ReplicaStats, Request, RequestId, StepOutcome,
};
use skywalker_sim::{DetRng, Engine, EntryKey, Scheduler, SimDuration, SimTime, World};
use skywalker_telemetry::{MetricsRegistry, RingSeries, TelemetryConfig, TelemetrySummary};
use skywalker_trace::{TraceConfig, TraceEventKind, TraceRecorder, TraceSummary};
use skywalker_workload::{ClientEvent, ClientListSource, ClientSpec, TrafficSource};

/// Which serving system to deploy — the seven systems of Fig. 8 plus the
/// region-local baseline of Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// GKE Gateway: per-region entry, least-connection spill across
    /// clusters, no LLM awareness.
    GkeGateway,
    /// Round robin behind one centralized balancer.
    RoundRobin,
    /// Least load behind one centralized balancer.
    LeastLoad,
    /// Consistent hashing behind one centralized balancer.
    ConsistentHash,
    /// SGLang Router: cache-aware policy, blind pushing, centralized.
    SglRouter,
    /// SkyWalker-CH: geo-distributed, ring hashing, SP-P.
    SkyWalkerCh,
    /// SkyWalker: geo-distributed, prefix trees, SP-P.
    SkyWalker,
    /// Region-local: per-region balancer, no cross-region forwarding.
    RegionLocal,
}

impl SystemKind {
    /// All seven systems of the Fig. 8 comparison, in the paper's order.
    pub const FIG8: [SystemKind; 7] = [
        SystemKind::GkeGateway,
        SystemKind::RoundRobin,
        SystemKind::LeastLoad,
        SystemKind::ConsistentHash,
        SystemKind::SglRouter,
        SystemKind::SkyWalkerCh,
        SystemKind::SkyWalker,
    ];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::GkeGateway => "GKE Gateway",
            SystemKind::RoundRobin => "RR",
            SystemKind::LeastLoad => "LL",
            SystemKind::ConsistentHash => "CH",
            SystemKind::SglRouter => "SGL",
            SystemKind::SkyWalkerCh => "SkyWalker-CH",
            SystemKind::SkyWalker => "SkyWalker",
            SystemKind::RegionLocal => "Region-Local",
        }
    }

    /// A [`ScenarioBuilder`] preconfigured with this system's label and
    /// deployment shape — the FIG8 presets are thin wrappers over the
    /// builder.
    pub fn builder(&self) -> ScenarioBuilder {
        Scenario::builder().system(*self)
    }

    /// The deployment shape this system uses.
    pub fn deployment(&self) -> Deployment {
        match self {
            SystemKind::GkeGateway => Deployment::PerRegion {
                policy: PolicyKind::LeastLoad,
                push: PushMode::Outstanding { max: 8 },
                forward: true,
                tau: 8,
                constraint: RoutingConstraint::Unrestricted,
            },
            SystemKind::RoundRobin => Deployment::centralized(PolicyKind::RoundRobin),
            SystemKind::LeastLoad => Deployment::centralized(PolicyKind::LeastLoad),
            SystemKind::ConsistentHash => Deployment::centralized(PolicyKind::ConsistentHash),
            SystemKind::SglRouter => Deployment::centralized(PolicyKind::CacheAware),
            SystemKind::SkyWalkerCh => Deployment::PerRegion {
                policy: PolicyKind::ConsistentHash,
                push: PushMode::Pending,
                forward: true,
                tau: 4,
                constraint: RoutingConstraint::Unrestricted,
            },
            SystemKind::SkyWalker => Deployment::PerRegion {
                policy: PolicyKind::CacheAware,
                push: PushMode::Pending,
                forward: true,
                tau: 4,
                constraint: RoutingConstraint::Unrestricted,
            },
            SystemKind::RegionLocal => Deployment::PerRegion {
                policy: PolicyKind::CacheAware,
                push: PushMode::Pending,
                forward: false,
                tau: 4,
                constraint: RoutingConstraint::Unrestricted,
            },
        }
    }
}

/// Deployment shape: where balancers sit and how they behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// One balancer in `lb_region` fronting every replica everywhere —
    /// the naive global coordinator of Fig. 1(b).
    Centralized {
        /// Where the single balancer runs (the paper deploys it in the
        /// US).
        lb_region: Region,
        /// Placement policy.
        policy: PolicyKind,
        /// Admission discipline.
        push: PushMode,
    },
    /// One balancer per region that hosts replicas or clients —
    /// SkyWalker's shape (Fig. 1(c)), also used for region-local and
    /// gateway baselines.
    PerRegion {
        /// Placement policy (both layers).
        policy: PolicyKind,
        /// Admission discipline.
        push: PushMode,
        /// Whether cross-region forwarding is enabled.
        forward: bool,
        /// Peer queue buffer τ.
        tau: u32,
        /// Regulatory constraint.
        constraint: RoutingConstraint,
    },
}

impl Deployment {
    fn centralized(policy: PolicyKind) -> Self {
        Deployment::Centralized {
            lb_region: Region::UsEast,
            policy,
            push: PushMode::Blind,
        }
    }
}

/// A replica to deploy.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaPlacement {
    /// Region hosting the replica.
    pub region: Region,
    /// GPU/model profile.
    pub profile: GpuProfile,
}

/// Take a balancer down (or bring it back) at a point in time — the §4.2
/// failure-recovery drills.
///
/// This is the legacy closed schedule, kept as a convenience: the
/// fabric turns a `Vec<FaultEvent>` into a [`ScheduledPlan`] of
/// [`FleetEvent::LbDown`]/[`FleetEvent::LbUp`] commands (pinned
/// byte-identical by `tests/failover.rs`). New code — and anything
/// beyond balancer flaps, like replica churn or autoscaling — should
/// use [`ScenarioBuilder::fleet_plan`] directly.
#[derive(Debug, Clone, Copy)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// Index of the balancer (by creation order) to affect.
    pub lb_index: u32,
    /// True = crash, false = recover.
    pub down: bool,
}

/// One experiment: a deployment shape, a policy, a fleet, a traffic
/// source, faults.
///
/// Build one with [`Scenario::builder`] (any combination of deployment,
/// custom [`PolicyFactory`], fleet, workload or [`TrafficSource`],
/// faults, and constraint), or with [`Scenario::new`] for a preset
/// [`SystemKind`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display label for experiment tables.
    pub label: String,
    /// The preset this scenario was derived from, if any. Custom-built
    /// scenarios have `None` here — nothing in the fabric dispatches on
    /// it.
    pub system: Option<SystemKind>,
    /// The deployment shape to run.
    pub deployment: Deployment,
    /// Builds the routing policies for every balancer. `None` runs the
    /// built-in [`PolicyKind`] named by the deployment.
    pub policy_factory: Option<Arc<dyn PolicyFactory>>,
    /// The replica fleet.
    pub replicas: Vec<ReplicaPlacement>,
    /// Serving role per replica, indexed like `replicas`. Shorter
    /// vectors are padded with [`ReplicaRole::Colocated`], so an empty
    /// vector (the default) is the classical colocated fleet.
    /// [`ReplicaRole::PrefillOnly`] replicas hand every request off to
    /// a decode-capable peer after the prompt phase;
    /// [`ReplicaRole::DecodeOnly`] replicas are invisible to the
    /// balancers and accept only those handoffs.
    pub roles: Vec<ReplicaRole>,
    /// The client traffic. Each run clones the source, so the same
    /// scenario can be replayed any number of times; pre-materialized
    /// populations ride along as a [`ClientListSource`].
    pub traffic: Box<dyn TrafficSource>,
    /// Balancer fault injections — the legacy closed schedule, applied
    /// as a [`ScheduledPlan`] alongside (and merged with) `fleet_plan`.
    pub faults: Vec<FaultEvent>,
    /// The fleet control plane: a streaming plan the fabric polls for
    /// joins, drains, crashes, and balancer flaps as sim time advances.
    /// `None` runs a static fleet (plus whatever `faults` injects).
    pub fleet_plan: Option<Box<dyn FleetPlan>>,
    /// The serving engine every replica runs (batch policy + KV
    /// evictor), cloned per replica — including replicas a fleet plan
    /// joins mid-run. `None` runs the default engine (`FcfsBatch` +
    /// `LruEvictor`, the historical behavior).
    pub engine: Option<EngineSpec>,
}

impl Scenario {
    /// A fault-free scenario with the system's standard deployment.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` or `clients` is empty — use
    /// [`Scenario::builder`] and handle [`ScenarioError`] to validate
    /// dynamic inputs.
    pub fn new(
        system: SystemKind,
        replicas: Vec<ReplicaPlacement>,
        clients: Vec<ClientSpec>,
    ) -> Self {
        system
            .builder()
            .replicas(replicas)
            .clients(clients)
            .build()
            .expect("Scenario::new requires a non-empty fleet and client population")
    }

    /// An empty builder: configure deployment, policy, fleet, workload,
    /// faults, and constraints fluently, then [`ScenarioBuilder::build`].
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Overrides the deployment shape (ablation studies).
    pub fn with_deployment(mut self, deployment: Deployment) -> Self {
        self.deployment = deployment;
        self
    }

    /// Materializes the clients a fresh copy of the traffic source would
    /// emit by `until` — inspection/testing helper (e.g. expected-request
    /// accounting). The run itself never calls this; it pulls from the
    /// source incrementally. With `until = SimTime::MAX` an *unbounded*
    /// source will generate without returning — pass a bounded horizon
    /// for open-ended feeds.
    pub fn clients_until(&self, until: SimTime) -> Vec<ClientSpec> {
        let mut source = self.traffic.clone();
        let mut rng = DetRng::for_component(0, "scenario/clients-until");
        source
            .next_batch(until, &mut rng)
            .into_iter()
            .map(|e| e.spec)
            .collect()
    }
}

/// Why [`ScenarioBuilder::build`] refused to assemble a scenario.
/// Validation happens up front so a bad configuration fails with a clear
/// error instead of deadlocking or panicking deep inside the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioError {
    /// No replicas were configured — there is nothing to route to.
    EmptyFleet,
    /// No traffic was configured, or the provided source was already
    /// exhausted — there is nothing to run.
    NoTraffic,
    /// The role assignment puts a prefill-only replica in a region with
    /// no decode-capable replica (colocated or decode-only): every
    /// handoff from that region would have nowhere to land.
    NoDecodeCapacity,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::EmptyFleet => {
                write!(f, "scenario has no replicas: set ScenarioBuilder::replicas")
            }
            ScenarioError::NoTraffic => write!(
                f,
                "scenario has no traffic: set ScenarioBuilder::clients, ::workload, \
                 or ::traffic_source with a non-exhausted source"
            ),
            ScenarioError::NoDecodeCapacity => write!(
                f,
                "scenario has a region with prefill-only replicas and no decode-capable \
                 replica: add a Colocated or DecodeOnly peer there, or adjust \
                 ScenarioBuilder::roles"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Fluent construction of a [`Scenario`] — the open counterpart of the
/// [`SystemKind`] presets. Custom systems (own deployment shape, own
/// [`PolicyFactory`], own [`TrafficSource`]) plug in here without
/// touching the fabric.
///
/// ```
/// use skywalker::fabric::{Deployment, Scenario};
/// use skywalker::scenarios::{balanced_fleet, Workload};
/// use skywalker::core::{PolicyKind, PushMode, RoutingConstraint};
///
/// let scenario = Scenario::builder()
///     .deployment(Deployment::PerRegion {
///         policy: PolicyKind::CacheAware,
///         push: PushMode::Pending,
///         forward: true,
///         tau: 4,
///         constraint: RoutingConstraint::Unrestricted,
///     })
///     .replicas(balanced_fleet())
///     .workload(Workload::Tot, 0.02, 7)
///     .constraint(RoutingConstraint::ContinentLocal)
///     .label("custom-tot")
///     .build()
///     .expect("fleet and workload are both set");
/// assert_eq!(scenario.label, "custom-tot");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    label: Option<String>,
    system: Option<SystemKind>,
    deployment: Option<Deployment>,
    policy_factory: Option<Arc<dyn PolicyFactory>>,
    replicas: Vec<ReplicaPlacement>,
    roles: Vec<ReplicaRole>,
    traffic: Option<Box<dyn TrafficSource>>,
    faults: Vec<FaultEvent>,
    fleet_plan: Option<Box<dyn FleetPlan>>,
    constraint: Option<RoutingConstraint>,
    engine: Option<EngineSpec>,
}

impl ScenarioBuilder {
    /// Starts from a preset: adopts the system's deployment shape and
    /// label (both still overridable by later calls).
    pub fn system(mut self, system: SystemKind) -> Self {
        self.system = Some(system);
        self
    }

    /// Sets the display label (defaults to the preset's label, then the
    /// policy factory's, then `"custom"`).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the deployment shape explicitly.
    pub fn deployment(mut self, deployment: Deployment) -> Self {
        self.deployment = Some(deployment);
        self
    }

    /// Installs a custom policy factory: every balancer's local and
    /// remote policies come from it instead of the deployment's built-in
    /// [`PolicyKind`].
    pub fn policy_factory(mut self, factory: impl PolicyFactory + 'static) -> Self {
        self.policy_factory = Some(Arc::new(factory));
        self
    }

    /// As [`ScenarioBuilder::policy_factory`], for an already-shared
    /// factory.
    pub fn policy_factory_arc(mut self, factory: Arc<dyn PolicyFactory>) -> Self {
        self.policy_factory = Some(factory);
        self
    }

    /// Sets the replica fleet.
    pub fn replicas(mut self, replicas: Vec<ReplicaPlacement>) -> Self {
        self.replicas = replicas;
        self
    }

    /// Assigns serving roles to the fleet, indexed like
    /// [`ScenarioBuilder::replicas`]; missing entries default to
    /// [`ReplicaRole::Colocated`]. [`ScenarioBuilder::build`] rejects
    /// assignments that leave a region's prefill-only replicas with no
    /// decode-capable target ([`ScenarioError::NoDecodeCapacity`]).
    pub fn roles(mut self, roles: Vec<ReplicaRole>) -> Self {
        self.roles = roles;
        self
    }

    /// Sets the closed-loop client population directly, adapted through
    /// a [`ClientListSource`] (every client arrives at `t = 0`, in
    /// vector order). See also `ScenarioBuilder::workload` (defined
    /// alongside the workload generators) for the paper's populations by
    /// name, and [`ScenarioBuilder::traffic_source`] for streaming
    /// arrivals.
    pub fn clients(self, clients: Vec<ClientSpec>) -> Self {
        self.traffic_source(Box::new(ClientListSource::new(clients)))
    }

    /// Installs a streaming [`TrafficSource`]: the fabric pulls client
    /// arrivals from it as simulated time advances instead of ingesting
    /// a pre-materialized population. Any external implementation plugs
    /// in here — the workload counterpart of
    /// [`ScenarioBuilder::policy_factory`].
    pub fn traffic_source(mut self, source: Box<dyn TrafficSource>) -> Self {
        self.traffic = Some(source);
        self
    }

    /// Replaces the fault schedule. Faults run as a [`ScheduledPlan`]
    /// of balancer flaps, merged with any [`ScenarioBuilder::fleet_plan`].
    pub fn faults(mut self, faults: Vec<FaultEvent>) -> Self {
        self.faults = faults;
        self
    }

    /// Appends one fault injection.
    pub fn fault(mut self, fault: FaultEvent) -> Self {
        self.faults.push(fault);
        self
    }

    /// Installs a fleet control plane: the fabric polls the plan as
    /// simulated time advances and applies its joins, drains, crashes,
    /// and balancer flaps mid-run. Any external [`FleetPlan`]
    /// implementation plugs in here — the fleet counterpart of
    /// [`ScenarioBuilder::policy_factory`] and
    /// [`ScenarioBuilder::traffic_source`].
    pub fn fleet_plan(mut self, plan: Box<dyn FleetPlan>) -> Self {
        self.fleet_plan = Some(plan);
        self
    }

    /// Applies a regulatory routing constraint to the deployment. Only
    /// meaningful for per-region shapes (a centralized balancer never
    /// forwards, so there is nothing to constrain).
    pub fn constraint(mut self, constraint: RoutingConstraint) -> Self {
        self.constraint = Some(constraint);
        self
    }

    /// Installs a serving engine: every replica (initial fleet and
    /// mid-run joins alike) runs a clone of this batch policy + KV
    /// evictor pair. The engine counterpart of
    /// [`ScenarioBuilder::policy_factory`],
    /// [`ScenarioBuilder::traffic_source`], and
    /// [`ScenarioBuilder::fleet_plan`] — any external [`BatchPolicy`] or
    /// [`KvEvictor`] implementation plugs in here.
    pub fn engine(mut self, engine: EngineSpec) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Replaces only the batch policy of the engine (keeping the
    /// current — or default — evictor).
    pub fn batch_policy(mut self, batch: Box<dyn BatchPolicy>) -> Self {
        self.engine.get_or_insert_with(EngineSpec::default).batch = batch;
        self
    }

    /// Replaces only the KV evictor of the engine (keeping the current
    /// — or default — batch policy).
    pub fn kv_evictor(mut self, evictor: Box<dyn KvEvictor>) -> Self {
        self.engine.get_or_insert_with(EngineSpec::default).evictor = evictor;
        self
    }

    /// Assembles and validates the scenario. Defaults: SkyWalker's
    /// deployment shape if none was set, no faults, built-in policies.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyFleet`] without replicas;
    /// [`ScenarioError::NoTraffic`] without a client population or with
    /// an already-exhausted traffic source.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        if self.replicas.is_empty() {
            return Err(ScenarioError::EmptyFleet);
        }
        let traffic = self.traffic.ok_or(ScenarioError::NoTraffic)?;
        if traffic.is_exhausted() {
            return Err(ScenarioError::NoTraffic);
        }
        let role_of = |roles: &[ReplicaRole], i: usize| roles.get(i).copied().unwrap_or_default();
        for (i, p) in self.replicas.iter().enumerate() {
            if role_of(&self.roles, i) != ReplicaRole::PrefillOnly {
                continue;
            }
            let has_decode = self
                .replicas
                .iter()
                .enumerate()
                .any(|(j, q)| q.region == p.region && role_of(&self.roles, j).decodes());
            if !has_decode {
                return Err(ScenarioError::NoDecodeCapacity);
            }
        }
        let mut deployment = self
            .deployment
            .or_else(|| self.system.map(|s| s.deployment()))
            .unwrap_or_else(|| SystemKind::SkyWalker.deployment());
        if let Some(c) = self.constraint {
            if let Deployment::PerRegion { constraint, .. } = &mut deployment {
                *constraint = c;
            }
        }
        let label = self
            .label
            .or_else(|| self.system.map(|s| s.label().to_string()))
            .or_else(|| self.policy_factory.as_ref().map(|f| f.label()))
            .unwrap_or_else(|| "custom".to_string());
        Ok(Scenario {
            label,
            system: self.system,
            deployment,
            policy_factory: self.policy_factory,
            replicas: self.replicas,
            roles: self.roles,
            traffic,
            faults: self.faults,
            fleet_plan: self.fleet_plan,
            engine: self.engine,
        })
    }
}

/// Fabric-wide timing knobs.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Root seed for all randomness.
    pub seed: u64,
    /// Wide-area latency model.
    pub net: LatencyModel,
    /// Selective-pushing probe interval (the paper uses 100 ms, §4.1).
    pub probe_interval: SimDuration,
    /// LB → controller heartbeat interval.
    pub heartbeat_interval: SimDuration,
    /// Controller failure-detection timeout.
    pub controller_timeout: SimDuration,
    /// Client retry delay after losing a request to a dead balancer.
    pub retry_delay: SimDuration,
    /// How far ahead the fabric polls the scenario's [`TrafficSource`]
    /// for upcoming client arrivals. Arrivals keep their exact instants
    /// regardless — this only batches the pull; smaller is more polls,
    /// larger is bigger batches. Clamped to at least one millisecond so
    /// the poll loop always advances virtual time at a sane rate.
    pub traffic_poll_interval: SimDuration,
    /// How often the fabric polls the scenario's [`FleetPlan`] with a
    /// fresh [`FleetObservation`]. Scheduled commands keep their exact
    /// instants regardless (the poll looks one interval ahead); this
    /// sets the control plane's reaction latency for *reactive* plans
    /// (autoscalers). Clamped to at least one millisecond.
    pub fleet_poll_interval: SimDuration,
    /// Hard stop; the run ends even if clients are unfinished.
    pub deadline: SimTime,
    /// Memory bound of the balancer routing tries, in tokens.
    pub trie_max_tokens: usize,
    /// Hit-ratio threshold of the cache-aware policy (§5.1: 0.5).
    pub affinity_threshold: f64,
    /// Load-gap override of the cache-aware policy: beyond this many
    /// outstanding requests between the most and least loaded candidate,
    /// affinity yields to shortest-queue routing (the SGLang router's
    /// default is 32).
    pub balance_abs_threshold: u32,
    /// Span tracing for bottleneck attribution. `None` (the default)
    /// records nothing; `Some` attaches a [`TraceRecorder`] and the run
    /// returns a [`TraceSummary`]. Tracing is observation-only — it
    /// never reads clocks, draws randomness, or changes scheduling, so
    /// outcomes are byte-identical either way (pinned by the
    /// golden-digest gate).
    pub trace: Option<TraceConfig>,
    /// Streaming metrics sampling. `None` (the default) records nothing;
    /// `Some` attaches a labeled [`MetricsRegistry`] fed on a sim-time
    /// cadence and the run returns a [`TelemetrySummary`]. Like tracing,
    /// telemetry is observation-only — enabling it at any cadence leaves
    /// run outcomes byte-identical (pinned by the golden-digest gate).
    pub telemetry: Option<TelemetryConfig>,
}

impl FabricConfig {
    /// This config with span tracing enabled at the default capacity.
    pub fn traced(mut self) -> Self {
        self.trace = Some(TraceConfig::default());
        self
    }

    /// This config with telemetry sampling enabled every `interval` of
    /// sim time (default ring capacity).
    pub fn telemetry(mut self, interval: SimDuration) -> Self {
        self.telemetry = Some(TelemetryConfig::every(interval));
        self
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            seed: 0xD1CE,
            net: LatencyModel::default_wan(),
            probe_interval: SimDuration::from_millis(100),
            heartbeat_interval: SimDuration::from_millis(500),
            controller_timeout: SimDuration::from_secs(2),
            retry_delay: SimDuration::from_secs(1),
            traffic_poll_interval: SimDuration::from_millis(500),
            fleet_poll_interval: SimDuration::from_millis(500),
            deadline: SimTime::from_secs(4 * 3600),
            trie_max_tokens: 1 << 22,
            affinity_threshold: 0.5,
            balance_abs_threshold: 32,
            trace: None,
            telemetry: None,
        }
    }
}

/// Results of one scenario run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Display label of the scenario that ran.
    pub label: String,
    /// The preset the scenario was derived from, if any.
    pub system: Option<SystemKind>,
    /// Client-observed metrics (throughput, TTFT, E2E, hit rate).
    pub report: RunReport,
    /// Virtual time when the run ended.
    pub end_time: SimTime,
    /// How the run ended: drained, or cut off at the deadline.
    pub stop: StopReason,
    /// Simulation events the engine delivered over the run.
    pub events_delivered: u64,
    /// Aggregated per-replica engine statistics.
    pub replica_stats: Vec<ReplicaStats>,
    /// Prefix-cache hit rate measured at the replicas.
    pub replica_hit_rate: f64,
    /// The serving engine's display label (e.g. `"fcfs+lru"`).
    pub engine_label: String,
    /// Running decodes preempted by batch policies, fleet-wide.
    pub preempted: u64,
    /// Block-rounded KV tokens reclaimed by cache eviction, fleet-wide.
    pub evicted_tokens: u64,
    /// Block-rounded KV tokens demoted GPU→host by tiered caches,
    /// fleet-wide (zero without a [`TieredEvictor`](crate::TieredEvictor)).
    pub demoted_tokens: u64,
    /// Block-rounded KV tokens promoted host→GPU on cache hits,
    /// fleet-wide (zero without a [`TieredEvictor`](crate::TieredEvictor)).
    pub promoted_tokens: u64,
    /// Disaggregated prefill→decode KV handoffs (zero without
    /// [`ReplicaRole::PrefillOnly`] replicas).
    pub transfers: TransferSummary,
    /// Iterations with chunked prefill active, fleet-wide.
    pub chunked_steps: u64,
    /// Requests forwarded across regions.
    pub forwarded: u64,
    /// Max/min ratio of per-replica dispatch counts (load imbalance).
    pub dispatch_imbalance: f64,
    /// Max/min ratio of per-replica *peak outstanding* requests — the
    /// paper's "variance in outstanding request counts".
    pub outstanding_imbalance: f64,
    /// Peak outstanding requests observed per replica (probe-sampled).
    pub peak_outstanding: Vec<u32>,
    /// Largest balancer-side queue observed across all balancers.
    pub peak_lb_queue: usize,
    /// Requests still queued at balancers when the run ended — zero for a
    /// drained run, the balancer share of the backlog for one cut at its
    /// deadline.
    pub lb_backlog: u64,
    /// High-water mark of the simulation engine's pending-event count —
    /// the event-queue depth capacity planning keys off when scaling
    /// client populations.
    pub peak_events: usize,
    /// Max/min ratio of per-replica peak KV utilization (Fig. 4b).
    pub kv_peak_gap: f64,
    /// Per-replica KV-utilization traces.
    pub kv_series: Vec<TimeSeries>,
    /// Fleet elasticity: per-region fleet-size traces and churn
    /// counters.
    pub fleet: FleetSummary,
    /// The recorded span trace, when [`FabricConfig::trace`] was set.
    /// Feed it to `skywalker_trace::Attribution` for the per-request
    /// bottleneck breakdown.
    pub trace: Option<TraceSummary>,
    /// The streaming-metrics summary, when [`FabricConfig::telemetry`]
    /// was set: the final registry snapshot plus the per-tick dashboard
    /// series.
    pub telemetry: Option<TelemetrySummary>,
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Nothing could generate further work: the traffic source ran dry
    /// and every client finished, or the event queue emptied.
    Drained,
    /// The run was cut off at [`FabricConfig::deadline`] with events
    /// still queued.
    Deadline,
}

impl RunSummary {
    /// Mean requests-per-second completed.
    pub fn request_rate(&self) -> f64 {
        let secs = self.end_time.as_secs_f64();
        if secs > 0.0 {
            self.report.completed as f64 / secs
        } else {
            0.0
        }
    }
}

/// What the disaggregated KV-transfer plane did over one run: handoff
/// counts and token volumes across the prefill→decode boundary. A run
/// without prefill-only replicas shows all zeros. Conservation law:
/// `started == landed + aborted + in_transfer()` at every instant, and
/// a drained run ends with `in_transfer() == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferSummary {
    /// Handoffs shipped by prefill replicas.
    pub started: u64,
    /// Handoffs that landed at a decode replica.
    pub landed: u64,
    /// Handoffs abandoned because every decode target died in flight
    /// (the request was rerouted or failed, never stranded).
    pub aborted: u64,
    /// KV tokens shipped (prompt + first token, per handoff).
    pub tokens_sent: u64,
    /// KV tokens that landed.
    pub tokens_landed: u64,
    /// KV tokens abandoned in flight.
    pub tokens_aborted: u64,
}

impl TransferSummary {
    /// Handoffs still on the wire when the run ended (shipped, neither
    /// landed nor aborted) — nonzero only for deadline-truncated runs.
    pub fn in_transfer(&self) -> u64 {
        self.started - self.landed - self.aborted
    }

    /// KV tokens still on the wire when the run ended.
    pub fn tokens_in_transfer(&self) -> u64 {
        self.tokens_sent - self.tokens_landed - self.tokens_aborted
    }
}

/// What the fleet did over one run: per-region serving-replica traces
/// plus scale/failure counters. A static fleet shows flat traces and
/// zero counters.
#[derive(Debug, Clone, Default)]
pub struct FleetSummary {
    /// Serving (live, non-draining) replica count over time, one series
    /// per region that ever hosted a replica. Each series has a point
    /// at `t = 0` and at the run end, so time-weighted means are well
    /// defined.
    pub sizes: Vec<(Region, TimeSeries)>,
    /// Replicas that joined mid-run.
    pub joins: u64,
    /// Replicas drained (gracefully decommissioned).
    pub drains: u64,
    /// Replicas crashed.
    pub crashes: u64,
    /// Serving replicas at the end of the run.
    pub final_replicas: u32,
}

impl FleetSummary {
    /// The fleet-size trace of one region.
    pub fn series(&self, region: Region) -> Option<&TimeSeries> {
        self.sizes
            .iter()
            .find(|(r, _)| *r == region)
            .map(|(_, s)| s)
    }

    /// Time-weighted mean serving-replica count across all regions —
    /// the "replica-seconds per second" a static fleet would need to
    /// match this run's capacity (the equal-cost comparison).
    pub fn mean_total(&self) -> f64 {
        self.sizes.iter().map(|(_, s)| s.time_weighted_mean()).sum()
    }

    /// Peak total serving-replica count observed at any single record
    /// point, per region, summed. (Regions peak at different times, so
    /// this upper-bounds the instantaneous total.)
    pub fn peak_total(&self) -> f64 {
        self.sizes.iter().map(|(_, s)| s.peak()).sum()
    }

    /// True if the fleet ever changed size.
    pub fn is_elastic(&self) -> bool {
        self.joins + self.drains + self.crashes > 0
    }
}

// ---------------------------------------------------------------------------
// The simulation world
// ---------------------------------------------------------------------------

enum Ev {
    /// Poll the traffic source for arrivals up to one poll interval
    /// ahead; reschedules itself while the source has more to give.
    TrafficPoll,
    /// A client emitted by the traffic source comes online.
    ClientArrive {
        spec: ClientSpec,
    },
    IssueStage {
        client: usize,
    },
    Retry {
        client: usize,
        req: Request,
    },
    LbReceive {
        lb: u32,
        req: Request,
        hops: u8,
    },
    LbDispatch {
        lb: u32,
    },
    ReplicaReceive {
        replica: u32,
        req: Request,
    },
    ReplicaKick {
        replica: u32,
    },
    IterationDone {
        replica: u32,
        first_tokens: Vec<RequestId>,
        completions: Vec<Completion>,
    },
    /// The end of a [`DecodeSpan`]: the `IterationDone` of its last
    /// iteration, carrying that iteration's outcome.
    SpanDone {
        replica: u32,
    },
    /// A disaggregated KV handoff lands at its decode replica: the
    /// modeled interconnect delay has elapsed since the prefill side
    /// shipped it. `req` is the decode leg (prompt + first token,
    /// remaining output budget, `output_offset = 1`).
    KvTransfer {
        to: u32,
        req: Request,
    },
    DeliverFirstToken {
        req: RequestId,
    },
    DeliverCompletion {
        client: usize,
        completion: Completion,
    },
    ProbeTick,
    /// Sample the authoritative fabric state into the metrics plane;
    /// reschedules itself every telemetry interval. Read-only against
    /// the simulation: it writes the registry and ring series, never the
    /// scheduler state, RNG streams, or any component.
    TelemetryTick,
    PeerStatus {
        to: u32,
        from: u32,
        avail: u32,
        qlen: u32,
    },
    HeartbeatTick,
    ControllerTick,
    /// Poll the scenario's [`FleetPlan`] with a fresh observation;
    /// reschedules itself while the plan has more to give.
    FleetPoll,
    /// Apply one fleet change at its exact instant.
    FleetApply {
        event: FleetEvent,
    },
}

struct ClientState {
    spec: ClientSpec,
    program_idx: usize,
    stage_idx: usize,
    inflight: u32,
    finished: bool,
}

/// Which leg of a disaggregated request is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DisaggStage {
    /// Running the prompt phase on a prefill-only replica.
    Prefill,
    /// Shipped (or shipping) to a decode replica.
    Decode,
}

/// Fabric-side bookkeeping for one disaggregated request, alive from
/// the prefill-replica intercept until the decode leg's completion is
/// delivered (or the request terminally fails).
#[derive(Debug, Clone)]
struct DisaggMeta {
    /// The request exactly as the client issued it; failure paths
    /// restore it so retries re-enter the pipeline unmodified.
    orig: Request,
    /// Current leg.
    stage: DisaggStage,
    /// Prompt tokens the prefill leg served from its prefix cache —
    /// the cache credit the client's completion reports.
    cached_at_prefill: u32,
}

/// Lifecycle of a deployed replica, as the fabric tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaHealth {
    /// Serving normally.
    Active,
    /// No new dispatch; finishing in-flight work.
    Draining,
    /// Drained to idle; permanently out of service.
    Retired,
    /// Killed; its in-flight work was failed/rerouted.
    Crashed,
}

/// A coalesced run of pure decode iterations on one replica (see
/// [`Replica::pure_span`]): one engine entry, the span end, stands in for
/// the `IterationDone` + `ReplicaKick` pair the per-iteration model
/// delivers at each internal boundary.
///
/// Boundary 0 is the real kick that opened the span; boundary `j ≥ 1` is
/// `first + (j - 1) * step`, where the per-iteration model delivers the
/// previous iteration's `IterationDone` and steps again. The iterations
/// stepped at boundaries `1..boundaries` only advance private decode
/// tokens and are fast-forwarded when the replica is next accessed. The
/// one stepped at the last boundary completes a request: with
/// `final_step` it is a real `step()`, run lazily the same way, and the
/// span end at `boundary(boundaries) + step` delivers its outcome;
/// without, it is pure too and the span end is an empty iteration.
///
/// Every `IterationDone` of the chain would have been filed at the
/// previous boundary, and each boundary's kick runs in the order its
/// `IterationDone` arrived, so the whole chain shares the sequence number
/// the opening kick reserved: the entry for boundary `j` sorts as
/// `(boundary(j), boundary(j - 1), seq)`.
#[derive(Debug)]
struct DecodeSpan {
    /// Boundary 0: the instant of the opening kick.
    opened: SimTime,
    /// Boundary 1: when the opening kick's own iteration ends.
    first: SimTime,
    /// Duration of every iteration stepped at boundaries `1..=boundaries`.
    step: SimDuration,
    /// Internal boundaries (≥ 1).
    boundaries: u32,
    /// Boundaries already applied to the replica.
    applied: u32,
    /// Whether the iteration at the last boundary completes a request.
    final_step: bool,
    /// The sequence number the opening kick reserved.
    seq: u64,
    /// Outcome of the final step, once run.
    outcome: Option<StepOutcome>,
    /// No internal boundary before this instant is still to be checked
    /// by [`World::before_instant`].
    watch: SimTime,
}

impl DecodeSpan {
    fn boundary(&self, j: u32) -> SimTime {
        if j == 0 {
            self.opened
        } else {
            self.first + self.step * u64::from(j - 1)
        }
    }

    /// Internal boundaries strictly before `t`.
    fn reached(&self, t: SimTime) -> u32 {
        if t <= self.first {
            return 0;
        }
        let past = (t.as_micros() - self.first.as_micros() - 1) / self.step.as_micros() + 1;
        past.min(u64::from(self.boundaries)) as u32
    }

    /// The key boundary `j`'s `IterationDone` has in the per-iteration
    /// model; the span end's is `done_key(boundaries + 1)`.
    fn done_key(&self, j: u32) -> EntryKey {
        EntryKey {
            at: self.boundary(j),
            sched: self.boundary(j - 1),
            seq: self.seq,
        }
    }
}

/// The fabric's streaming metrics plane: a labeled registry fed at event
/// sites (TTFT sketches) and on the telemetry tick (gauges, cumulative
/// counters), plus ring-buffered dashboard series sampled every tick.
struct TelemetryPlane {
    cfg: TelemetryConfig,
    registry: MetricsRegistry,
    /// Total live-balancer queue depth per tick.
    queue_depth: RingSeries,
    /// Sketch-P90 TTFT (seconds) per tick.
    ttft_p90: RingSeries,
    /// Fleet-wide replica prefix-cache hit ratio per tick.
    hit_ratio: RingSeries,
    /// Serving (active) replica count per tick.
    serving_replicas: RingSeries,
    /// Mean KV utilization across serving replicas per tick.
    kv_utilization: RingSeries,
    /// Sampling passes taken (every tick plus one final flush).
    ticks: u64,
}

impl TelemetryPlane {
    fn new(cfg: TelemetryConfig) -> Self {
        let cap = cfg.ring_capacity;
        TelemetryPlane {
            cfg,
            registry: MetricsRegistry::new(),
            queue_depth: RingSeries::new("queue_depth", cap),
            ttft_p90: RingSeries::new("ttft_p90_seconds", cap),
            hit_ratio: RingSeries::new("hit_ratio", cap),
            serving_replicas: RingSeries::new("serving_replicas", cap),
            kv_utilization: RingSeries::new("kv_utilization", cap),
            ticks: 0,
        }
    }

    fn into_summary(self) -> TelemetrySummary {
        TelemetrySummary {
            interval: self.cfg.interval,
            ticks: self.ticks,
            snapshot: self.registry.snapshot(),
            series: vec![
                self.hit_ratio,
                self.kv_utilization,
                self.queue_depth,
                self.serving_replicas,
                self.ttft_p90,
            ],
        }
    }
}

struct Fabric {
    cfg: FabricConfig,
    rng: DetRng,
    lbs: Vec<RegionalBalancer>,
    lb_alive: Vec<bool>,
    replicas: Vec<Replica>,
    replica_region: Vec<Region>,
    replica_stepping: Vec<bool>,
    /// Open decode span per replica (indexed like `replicas`). A replica
    /// with a span is stepping.
    spans: Vec<Option<DecodeSpan>>,
    /// No open span has an unchecked internal boundary before this
    /// instant.
    span_watch: SimTime,
    /// Serving role per replica (indexed like `replicas`; mid-run joins
    /// are always [`ReplicaRole::Colocated`]).
    replica_role: Vec<ReplicaRole>,
    /// In-flight disaggregated requests by id (deterministic map: the
    /// lint budget treats `BTreeMap` iteration as ordered).
    disagg: BTreeMap<u64, DisaggMeta>,
    /// KV-handoff accounting across the prefill→decode boundary.
    transfers: TransferSummary,
    clients: Vec<ClientState>,
    dns: DnsResolver,
    controller: Controller,
    tracker: RequestTracker,
    /// The scenario's traffic stream, pulled as sim time advances.
    source: Box<dyn TrafficSource>,
    /// Cached `source.is_exhausted()` — part of the stop condition.
    source_exhausted: bool,
    /// Arrivals pulled from the source but not yet come online.
    pending_arrivals: usize,
    /// Randomness stream handed to the source (separate from the
    /// network stream, so sources cannot perturb latency sampling).
    traffic_rng: DetRng,
    /// RequestId → issuing client.
    req_client: HashMap<u64, usize>, // det-allow(D02): lookup-only — keyed by request id, never iterated
    /// RequestId → balancer that dispatched it locally.
    req_lb: HashMap<u64, u32>, // det-allow(D02): lookup-only — keyed by request id, never iterated
    kv_series: Vec<TimeSeries>,
    peak_outstanding: Vec<u32>,
    active_clients: usize,
    forward_enabled: bool,
    /// The scenario's fleet control plane (faults merged in), polled as
    /// sim time advances.
    plan: Option<Box<dyn FleetPlan>>,
    /// Randomness stream handed to the plan (separate from the network
    /// stream, so plans cannot perturb latency sampling).
    fleet_rng: DetRng,
    /// The serving engine cloned into every replica.
    engine: EngineSpec,
    /// Lifecycle of each deployed replica (indexed like `replicas`).
    replica_health: Vec<ReplicaHealth>,
    /// Per-region serving-replica traces.
    fleet_sizes: BTreeMap<Region, TimeSeries>,
    joins: u64,
    drains: u64,
    crashes: u64,
    /// Requests already given their one post-crash reroute.
    rerouted_once: HashSet<u64>, // det-allow(D02): membership-only — insert/contains, never iterated
    /// Span recorder, attached when [`FabricConfig::trace`] is set.
    tracer: Option<TraceRecorder>,
    /// Streaming metrics plane, attached when [`FabricConfig::telemetry`]
    /// is set.
    telemetry: Option<TelemetryPlane>,
    /// Per-replica cumulative evicted-token counts at the last trace
    /// point, for emitting per-iteration eviction deltas (indexed like
    /// `replicas`; only consulted while tracing).
    last_evicted: Vec<u64>,
    /// Scratch for [`Ev::ProbeTick`]'s per-balancer replica walk, reused
    /// across ticks instead of allocating a fresh id list per balancer.
    probe_ids: Vec<ReplicaId>,
    /// Scratch for the peer-status fan-out assembled on every probe tick.
    probe_statuses: Vec<(u32, Region, u32, u32)>,
    /// Reused [`FleetObservation`] handed to the fleet plan each poll;
    /// its vecs keep their capacity between polls.
    obs_scratch: FleetObservation,
    /// Scratch for [`Fabric::record_fleet`]'s per-region counts, kept
    /// sorted by region (the same order the `BTreeMap` build iterated).
    fleet_counts: Vec<(Region, f64)>,
}

impl Fabric {
    /// The one way to a replica's state: applies every boundary of its
    /// open span strictly before `now`, where the per-iteration model
    /// would already have stepped it.
    fn replica_at(&mut self, i: usize, now: SimTime) -> &mut Replica {
        if let Some(span) = self.spans[i].as_mut() {
            let reached = span.reached(now);
            if reached > span.applied {
                let pure = span.boundaries - u32::from(span.final_step);
                let skip = reached.min(pure) - span.applied.min(pure);
                self.replicas[i].fast_forward(skip);
                if span.final_step && reached == span.boundaries {
                    let out = self.replicas[i].step();
                    debug_assert_eq!(out.duration, span.step, "the final step is a decode step");
                    span.outcome = Some(out);
                }
                span.applied = reached;
            }
        }
        &mut self.replicas[i]
    }

    /// [`Fabric::replica_at`] for the whole fleet, ahead of fleet-wide
    /// reads.
    fn fleet_at(&mut self, now: SimTime) {
        for i in 0..self.replicas.len() {
            self.replica_at(i, now);
        }
    }

    /// Ends replica `i`'s span at `now`, ahead of a change to its state
    /// (an enqueue, a KV landing, a crash) that the next boundary's kick
    /// must see: the span end is cancelled and the next boundary's
    /// `IterationDone` is filed under the span's key. A span whose last
    /// boundary has passed keeps its end, which is that boundary's
    /// `IterationDone`.
    fn cut_span(&mut self, i: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.replica_at(i, now);
        let Some(span) = self.spans[i].take_if(|s| s.applied < s.boundaries) else {
            return;
        };
        sched.cancel(span.done_key(span.boundaries + 1));
        sched.file_as_of(
            span.done_key(span.applied + 1),
            Ev::IterationDone {
                replica: i as u32,
                first_tokens: Vec::new(),
                completions: Vec::new(),
            },
        );
    }

    /// After a real kick stepped replica `i` at `now` into `out`: when that
    /// iteration emits nothing and the replica is pure from there on,
    /// opens a [`DecodeSpan`] in place of the iteration's
    /// `IterationDone`. Returns `false` (filing nothing) otherwise.
    fn open_span(
        &mut self,
        i: usize,
        now: SimTime,
        out: &StepOutcome,
        sched: &mut Scheduler<Ev>,
    ) -> bool {
        if !out.first_tokens.is_empty() || !out.completions.is_empty() {
            return false;
        }
        let Some(pure) = self.replicas[i].pure_span() else {
            return false;
        };
        // The completing step runs lazily only where running it late is
        // unobservable: untraced (its evictions would be recorded out of
        // order) and untiered (its KV extension could promote host blocks
        // and lengthen the step).
        let final_step = self.tracer.is_none() && self.replicas[i].cache().host_budget() == 0;
        let boundaries = pure.iterations - u32::from(!final_step);
        if boundaries == 0 || pure.step == SimDuration::ZERO {
            return false;
        }
        let first = now + out.duration;
        let span = DecodeSpan {
            opened: now,
            first,
            step: pure.step,
            boundaries,
            applied: 0,
            final_step,
            seq: sched.reserve_seq(),
            outcome: None,
            watch: first,
        };
        sched.file_as_of(
            span.done_key(boundaries + 1),
            Ev::SpanDone { replica: i as u32 },
        );
        self.span_watch = self.span_watch.min(first);
        self.spans[i] = Some(span);
        true
    }

    fn lb_endpoint(i: u32, region: Region) -> Endpoint {
        Endpoint { region, lb_id: i }
    }

    /// Records one span event if tracing is on. Observation-only by
    /// construction: the recorder is fed, nothing is read back.
    #[inline]
    fn trace(&mut self, at: SimTime, kind: TraceEventKind) {
        if let Some(rec) = self.tracer.as_mut() {
            rec.record(at, kind);
        }
    }

    /// Samples the authoritative fabric state into the metrics plane.
    /// No-op when telemetry is off. Observation-only by construction:
    /// reads balancer/replica state, writes only the registry and ring
    /// series — never the scheduler, the RNG streams, or any component.
    fn telemetry_sample(&mut self, now: SimTime) {
        if self.telemetry.is_none() {
            return;
        }
        self.fleet_at(now);
        let mut plane = self.telemetry.take().expect("checked above");
        plane.ticks += 1;
        let reg = &mut plane.registry;

        // Balancer plane: live queue depths plus the cumulative routing
        // counters the balancers already track exactly.
        let mut total_queue = 0u64;
        for (li, lb) in self.lbs.iter().enumerate() {
            if !self.lb_alive[li] {
                continue;
            }
            let stats = lb.stats();
            let labels = [("region", lb.region().name())];
            reg.set_gauge("skywalker_lb_queue_depth", &labels, lb.queue_len() as f64);
            reg.counter_at_least("skywalker_lb_received_total", &labels, stats.received);
            reg.counter_at_least(
                "skywalker_lb_dispatched_local_total",
                &labels,
                stats.dispatched_local,
            );
            reg.counter_at_least("skywalker_lb_forwarded_total", &labels, stats.forwarded);
            total_queue += lb.queue_len() as u64;
        }

        // Replica plane: serving count, KV pressure, cache effectiveness.
        let mut serving = 0u64;
        let mut kv_sum = 0.0;
        let mut prompt = 0u64;
        let mut cached = 0u64;
        let mut completed = 0u64;
        for (ri, r) in self.replicas.iter().enumerate() {
            if self.replica_health[ri] == ReplicaHealth::Active {
                serving += 1;
                kv_sum += r.kv_utilization();
            }
            let stats = r.stats();
            prompt += stats.prompt_tokens;
            cached += stats.cached_prompt_tokens;
            completed += stats.completed;
        }
        let kv_mean = if serving > 0 {
            kv_sum / serving as f64
        } else {
            0.0
        };
        let hit = if prompt > 0 {
            cached as f64 / prompt as f64
        } else {
            0.0
        };
        reg.set_gauge("skywalker_serving_replicas", &[], serving as f64);
        reg.set_gauge("skywalker_kv_utilization_mean", &[], kv_mean);
        reg.set_gauge("skywalker_replica_hit_ratio", &[], hit);
        reg.counter_at_least("skywalker_replica_completed_total", &[], completed);

        // Disaggregation plane: cumulative handoff counts and volume
        // (flat zeros — and no extra series — on colocated fleets).
        if self.transfers.started > 0 {
            reg.counter_at_least("skywalker_kv_transfers_total", &[], self.transfers.started);
            reg.counter_at_least(
                "skywalker_kv_transfer_tokens_total",
                &[],
                self.transfers.tokens_sent,
            );
        }

        let ttft_p90 = reg
            .sketch("skywalker_ttft_seconds", &[])
            .map(|s| s.quantile(0.90))
            .unwrap_or(0.0);

        plane.queue_depth.record(now, total_queue as f64);
        plane.ttft_p90.record(now, ttft_p90);
        plane.hit_ratio.record(now, hit);
        plane.serving_replicas.record(now, serving as f64);
        plane.kv_utilization.record(now, kv_mean);

        self.telemetry = Some(plane);
    }

    fn issue_request(
        &mut self,
        client_idx: usize,
        req: Request,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        record_arrival: bool,
    ) {
        let region = self.clients[client_idx].spec.region;
        if record_arrival {
            self.tracker.arrival(req.id.0, now, req.prompt.len() as u64);
            self.req_client.insert(req.id.0, client_idx);
        }
        self.trace(now, TraceEventKind::Issued { req: req.id.0 });
        let Some(ep) = self.dns.resolve(region) else {
            // Total outage: retry later.
            self.trace(now, TraceEventKind::RetryWait { req: req.id.0 });
            sched.after(
                self.cfg.retry_delay,
                Ev::Retry {
                    client: client_idx,
                    req,
                },
            );
            return;
        };
        let delay = self
            .cfg
            .net
            .sample_one_way(region, ep.region, &mut self.rng);
        sched.after(
            delay,
            Ev::LbReceive {
                lb: ep.lb_id,
                req,
                hops: 0,
            },
        );
    }

    fn route_decisions(
        &mut self,
        lb: u32,
        decisions: Vec<Decision>,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let lb_region = self.lbs[lb as usize].region();
        for d in decisions {
            match d {
                Decision::Local { req, replica } => {
                    self.req_lb.insert(req.id.0, lb);
                    self.trace(
                        now,
                        TraceEventKind::Dispatched {
                            req: req.id.0,
                            lb,
                            replica: replica.0,
                        },
                    );
                    let delay = self.cfg.net.sample_one_way(
                        lb_region,
                        self.replica_region[replica.0 as usize],
                        &mut self.rng,
                    );
                    sched.after(
                        delay,
                        Ev::ReplicaReceive {
                            replica: replica.0,
                            req,
                        },
                    );
                }
                Decision::Forward { req, peer, hops } => {
                    self.trace(
                        now,
                        TraceEventKind::Forwarded {
                            req: req.id.0,
                            from: lb,
                        },
                    );
                    let delay = self.cfg.net.sample_one_way(
                        lb_region,
                        self.lbs[peer.0 as usize].region(),
                        &mut self.rng,
                    );
                    sched.after(
                        delay,
                        Ev::LbReceive {
                            lb: peer.0,
                            req,
                            hops,
                        },
                    );
                }
            }
        }
    }

    /// Marks one in-flight request of `client` finished and, if its stage
    /// drained, schedules the next stage (or retires the client).
    fn request_finished(&mut self, client_idx: usize, sched: &mut Scheduler<Ev>) {
        {
            let c = &mut self.clients[client_idx];
            c.inflight = c.inflight.saturating_sub(1);
            if c.finished || c.inflight > 0 {
                return;
            }
            // Advance to the next stage, skipping empty programs.
            if let Some(p) = c.spec.programs.get(c.program_idx) {
                c.stage_idx += 1;
                if c.stage_idx >= p.stages.len() {
                    c.program_idx += 1;
                    c.stage_idx = 0;
                }
            }
            while c
                .spec
                .programs
                .get(c.program_idx)
                .is_some_and(|p| p.stages.is_empty())
            {
                c.program_idx += 1;
            }
            if c.spec.programs.get(c.program_idx).is_none() {
                c.finished = true;
            }
        }
        if self.clients[client_idx].finished {
            self.active_clients -= 1;
            self.maybe_stop(sched);
        } else {
            sched.after(SimDuration::ZERO, Ev::IssueStage { client: client_idx });
        }
    }

    /// Ends the run once nothing can generate further work: the source
    /// has no more arrivals, none are in flight to admission, and every
    /// admitted client has finished.
    fn maybe_stop(&self, sched: &mut Scheduler<Ev>) {
        if self.source_exhausted && self.pending_arrivals == 0 && self.active_clients == 0 {
            sched.stop();
        }
    }

    fn apply_control_actions(
        &mut self,
        actions: Vec<ControlAction>,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        for action in actions {
            match action {
                ControlAction::LbFailed(id) => {
                    let region = self.lbs[id.0 as usize].region();
                    self.dns.mark_unhealthy(Self::lb_endpoint(id.0, region));
                    for (j, lb) in self.lbs.iter_mut().enumerate() {
                        if j as u32 != id.0 {
                            lb.set_peer_alive(id, false);
                        }
                    }
                    // Requests stuck in the dead balancer's queue are
                    // lost; their clients retry elsewhere.
                    let lost = self.lbs[id.0 as usize].drain_queue();
                    for req in lost {
                        if let Some(&client) = self.req_client.get(&req.id.0) {
                            self.trace(now, TraceEventKind::RetryWait { req: req.id.0 });
                            sched.after(self.cfg.retry_delay, Ev::Retry { client, req });
                        }
                    }
                }
                ControlAction::LbRecovered(id) => {
                    let region = self.lbs[id.0 as usize].region();
                    self.dns.mark_healthy(Self::lb_endpoint(id.0, region));
                    for (j, lb) in self.lbs.iter_mut().enumerate() {
                        if j as u32 != id.0 {
                            lb.set_peer_alive(id, true);
                        }
                    }
                }
                ControlAction::Reassign { replica, from, to } => {
                    self.lbs[from.0 as usize].remove_replica(replica);
                    // Preserve the replica's true region: a re-homed
                    // replica is remote to its adoptive balancer, and
                    // locality-aware policies should see that.
                    let region = self.replica_region[replica.0 as usize];
                    self.lbs[to.0 as usize].add_replica_in(replica, region);
                    sched.at(now, Ev::LbDispatch { lb: to.0 });
                }
            }
        }
    }

    /// Assembles the control-plane snapshot handed to the fleet plan into
    /// a caller-provided (reused) observation.
    fn observe_into(&self, now: SimTime, obs: &mut FleetObservation) {
        obs.now = now;
        obs.replicas.clear();
        obs.replicas
            .extend(self.replicas.iter().enumerate().filter_map(
                |(i, r)| match self.replica_health[i] {
                    ReplicaHealth::Active | ReplicaHealth::Draining => Some(ReplicaObservation {
                        id: ReplicaId(i as u32),
                        region: self.replica_region[i],
                        pending: r.pending_len() as u32,
                        running: r.running_len() as u32,
                        kv_utilization: r.kv_utilization(),
                        draining: self.replica_health[i] == ReplicaHealth::Draining,
                    }),
                    ReplicaHealth::Retired | ReplicaHealth::Crashed => None,
                },
            ));
        obs.balancers.clear();
        obs.balancers
            .extend(self.lbs.iter().enumerate().map(|(i, lb)| LbObservation {
                index: i as u32,
                region: lb.region(),
                queue: lb.queue_len() as u32,
                outstanding: lb.outstanding(),
                alive: self.lb_alive[i],
            }));
    }

    /// Appends the current per-region serving-replica counts to the
    /// fleet-size traces.
    fn record_fleet(&mut self, now: SimTime) {
        let mut counts = std::mem::take(&mut self.fleet_counts);
        counts.clear();
        // Seeded from the (region-sorted) trace map so regions that lost
        // every replica still record an explicit zero.
        counts.extend(self.fleet_sizes.keys().map(|r| (*r, 0.0)));
        for (i, &region) in self.replica_region.iter().enumerate() {
            if self.replica_health[i] == ReplicaHealth::Active {
                match counts.binary_search_by(|(r, _)| r.cmp(&region)) {
                    Ok(slot) => counts[slot].1 += 1.0,
                    Err(slot) => counts.insert(slot, (region, 1.0)),
                }
            }
        }
        for &(region, count) in &counts {
            self.fleet_sizes
                .entry(region)
                .or_insert_with(|| TimeSeries::new(format!("fleet/{region:?}")))
                .record(now, count);
        }
        self.fleet_counts = counts;
    }

    /// The balancer a joining replica in `region` attaches to: the
    /// balancer fronting that region if one exists, else the nearest by
    /// RTT (covers centralized deployments and joins into regions with
    /// no balancer of their own).
    fn home_lb_for(&self, region: Region) -> usize {
        self.lbs
            .iter()
            .position(|lb| lb.region() == region)
            .unwrap_or_else(|| {
                (0..self.lbs.len())
                    .min_by_key(|&i| (self.cfg.net.rtt(region, self.lbs[i].region()), i))
                    .expect("a scenario always deploys at least one balancer")
            })
    }

    /// Strips disagg bookkeeping off a failing or retrying request,
    /// returning the original client request so it re-enters the
    /// pipeline unmodified. A request with no disagg meta passes
    /// through untouched.
    fn restore_original(&mut self, req: Request) -> Request {
        match self.disagg.remove(&req.id.0) {
            Some(meta) => meta.orig,
            None => req,
        }
    }

    /// The decode replica a prefill handoff ships to: Active,
    /// decode-capable, preferring the prefill's own region, ranked by
    /// tier-weighted prefix residency (GPU-resident matches count
    /// double vs host-demoted ones — promoting costs a transfer), then
    /// the shortest queue, then the lowest id. Falls back to any region
    /// when the home region lost its decode capacity mid-run; `None`
    /// only when the whole fleet did.
    fn pick_decode_target(&self, region: Region, prompt: &[u32]) -> Option<usize> {
        let candidate = |i: usize| {
            self.replica_health[i] == ReplicaHealth::Active && self.replica_role[i].decodes()
        };
        let score = |i: usize| {
            let (gpu, host) = self.replicas[i].cache().matched_tokens_tiered(prompt);
            let load = self.replicas[i].pending_len() + self.replicas[i].running_len();
            (std::cmp::Reverse(gpu * 2 + host), load, i)
        };
        (0..self.replicas.len())
            .filter(|&i| candidate(i) && self.replica_region[i] == region)
            .min_by_key(|&i| score(i))
            .or_else(|| {
                (0..self.replicas.len())
                    .filter(|&i| candidate(i))
                    .min_by_key(|&i| score(i))
            })
    }

    /// Starts the prefill→decode handoff for a prefill-leg completion
    /// on `from`: builds the decode leg, picks its target, emits the
    /// [`TraceEventKind::KvTransfer`] span, and schedules the landing
    /// after the modeled interconnect delay.
    fn start_handoff(
        &mut self,
        from: u32,
        c: &Completion,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let id = c.id.0;
        let orig = {
            let meta = self
                .disagg
                .get_mut(&id)
                .expect("prefill stage implies meta");
            meta.stage = DisaggStage::Decode;
            meta.cached_at_prefill = c.cached_prompt_tokens;
            meta.orig.clone()
        };
        // The decode leg replays the prompt plus the first token the
        // prefill replica produced — exactly the KV state the transfer
        // ships — and `output_offset = 1` keeps its generated token
        // ids identical to the colocated stream.
        let mut prompt = orig.prompt.clone();
        prompt.push(output_token(id, 0));
        let leg2 = Request {
            id: orig.id,
            session_key: orig.session_key.clone(),
            prompt,
            target_output_tokens: orig.target_output_tokens - 1,
            output_offset: 1,
        };
        let tokens = leg2.prompt.len() as u64;
        let region = self.replica_region[from as usize];
        self.fleet_at(now);
        match self.pick_decode_target(region, &leg2.prompt) {
            Some(to) => {
                self.trace(
                    now,
                    TraceEventKind::KvTransfer {
                        req: id,
                        from,
                        to: to as u32,
                        tokens,
                    },
                );
                self.transfers.started += 1;
                self.transfers.tokens_sent += tokens;
                let delay = self.replicas[from as usize]
                    .profile()
                    .kv_transfer_time(tokens);
                sched.after(
                    delay,
                    Ev::KvTransfer {
                        to: to as u32,
                        req: leg2,
                    },
                );
            }
            None => {
                // Every decode target died since build-time validation:
                // treat the request like a crash casualty.
                let orig = self.restore_original(leg2);
                self.fail_or_reroute(orig, now, sched);
            }
        }
    }

    /// Gives a crash casualty its one reroute, or counts it failed.
    fn fail_or_reroute(&mut self, req: Request, now: SimTime, sched: &mut Scheduler<Ev>) {
        // A disagg leg retries (and is accounted) as the original
        // client request.
        let req = self.restore_original(req);
        let id = req.id.0;
        let client = self.req_client.get(&id).copied();
        if let Some(client) = client {
            if self.rerouted_once.insert(id) {
                sched.at(now, Ev::Retry { client, req });
                return;
            }
        }
        self.trace(now, TraceEventKind::Failed { req: id });
        self.tracker.failure(id);
        if let Some(client) = client {
            self.request_finished(client, sched);
        }
    }

    /// Delivers one finished iteration of `replica`: streams its first
    /// tokens and completions (or ships prefill legs), then kicks the
    /// replica again unless it crashed meanwhile.
    fn iteration_done(
        &mut self,
        replica: u32,
        first_tokens: Vec<RequestId>,
        completions: Vec<Completion>,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let i = replica as usize;
        self.replica_stepping[i] = false;
        // Outputs of an iteration that finished before a crash
        // landed still stream out (crash granularity is the
        // iteration boundary); the still-running remainder was
        // already failed by the crash itself.
        let crashed = self.replica_health[i] == ReplicaHealth::Crashed;
        let r_region = self.replica_region[i];
        for id in first_tokens {
            self.trace(now, TraceEventKind::FirstToken { req: id.0, replica });
            // The decode leg of a disaggregated request re-emits
            // a first token when its (cache-warm) prefill pass
            // finishes; the client already got theirs from the
            // prefill replica.
            if self
                .disagg
                .get(&id.0)
                .is_some_and(|m| m.stage == DisaggStage::Decode)
            {
                continue;
            }
            if let Some(&client) = self.req_client.get(&id.0) {
                let delay = self.cfg.net.sample_one_way(
                    r_region,
                    self.clients[client].spec.region,
                    &mut self.rng,
                );
                sched.after(delay, Ev::DeliverFirstToken { req: id });
            }
        }
        for c in completions {
            self.trace(
                now,
                TraceEventKind::ReplicaDone {
                    req: c.id.0,
                    replica,
                },
            );
            let stage = self.disagg.get(&c.id.0).map(|m| m.stage);
            if stage == Some(DisaggStage::Prefill) {
                // Prefill leg done: credit the dispatching
                // balancer (the decode leg is invisible to it)
                // and ship the KV state instead of delivering.
                if let Some(&lb) = self.req_lb.get(&c.id.0) {
                    self.lbs[lb as usize].on_replica_complete(ReplicaId(replica));
                    sched.at(now, Ev::LbDispatch { lb });
                }
                self.req_lb.remove(&c.id.0);
                self.start_handoff(replica, &c, now, sched);
                continue;
            }
            let completion = if stage == Some(DisaggStage::Decode) {
                // Decode leg done: rewrite the completion to the
                // client's view — the original prompt length,
                // the prefill leg's cache credit, both legs'
                // generated tokens. (No balancer owns this leg;
                // `req_lb` was dropped at the handoff.)
                let meta = self.disagg.remove(&c.id.0).expect("stage implies meta");
                Completion {
                    id: c.id,
                    prompt_tokens: meta.orig.prompt_len(),
                    cached_prompt_tokens: meta.cached_at_prefill,
                    generated_tokens: c.generated_tokens + 1,
                }
            } else {
                if let Some(&lb) = self.req_lb.get(&c.id.0) {
                    self.lbs[lb as usize].on_replica_complete(ReplicaId(replica));
                    sched.at(now, Ev::LbDispatch { lb });
                }
                c
            };
            if let Some(&client) = self.req_client.get(&completion.id.0) {
                let delay = self.cfg.net.sample_one_way(
                    r_region,
                    self.clients[client].spec.region,
                    &mut self.rng,
                );
                sched.after(delay, Ev::DeliverCompletion { client, completion });
            }
        }
        if !crashed {
            if self.replica_health[i] == ReplicaHealth::Draining && self.replicas[i].is_idle() {
                self.replica_health[i] = ReplicaHealth::Retired;
            }
            sched.at(now, Ev::ReplicaKick { replica });
        }
    }

    /// Applies one fleet change at its effective instant.
    fn apply_fleet_event(&mut self, event: FleetEvent, now: SimTime, sched: &mut Scheduler<Ev>) {
        match event {
            FleetEvent::LbDown { lb } => {
                let Some(alive) = self.lb_alive.get_mut(lb as usize) else {
                    return;
                };
                *alive = false;
                // A crashed balancer loses its queue immediately; the
                // controller notices the silence within its timeout.
                let lost = self.lbs[lb as usize].drain_queue();
                for req in lost {
                    if let Some(&client) = self.req_client.get(&req.id.0) {
                        self.trace(now, TraceEventKind::RetryWait { req: req.id.0 });
                        sched.after(self.cfg.retry_delay, Ev::Retry { client, req });
                    }
                }
            }
            FleetEvent::LbUp { lb } => {
                if let Some(alive) = self.lb_alive.get_mut(lb as usize) {
                    *alive = true;
                }
            }
            FleetEvent::ReplicaJoin { region, profile } => {
                let rid = ReplicaId(self.replicas.len() as u32);
                self.replicas.push(Replica::with_engine(
                    rid,
                    profile,
                    self.engine.batch.clone(),
                    self.engine.evictor.clone(),
                ));
                self.replica_region.push(region);
                self.replica_stepping.push(false);
                self.spans.push(None);
                // Joins are always colocated: the fleet plan vocabulary
                // has no role axis (yet), and a colocated joiner is a
                // valid decode target either way.
                self.replica_role.push(ReplicaRole::Colocated);
                self.replica_health.push(ReplicaHealth::Active);
                self.kv_series
                    .push(TimeSeries::new(format!("replica-{}/kv", rid.0)));
                self.peak_outstanding.push(0);
                self.last_evicted.push(0);
                let home = self.home_lb_for(region);
                self.lbs[home].add_replica_in(rid, region);
                // Home is the regional balancer even if currently down:
                // the controller's next check re-homes the replica to a
                // survivor, and recovery hands it back.
                self.controller.register_replica(rid, LbId(home as u32));
                self.joins += 1;
                self.record_fleet(now);
                sched.at(now, Ev::LbDispatch { lb: home as u32 });
            }
            FleetEvent::ReplicaDrain { replica } => {
                let i = replica.0 as usize;
                if self
                    .replica_health
                    .get(i)
                    .is_none_or(|h| *h != ReplicaHealth::Active)
                {
                    return; // unknown, already draining, or dead: no-op
                }
                if let Some(holder) = self.controller.holder(replica) {
                    self.lbs[holder.0 as usize].remove_replica(replica);
                }
                self.controller.deregister_replica(replica);
                let idle = self.replica_at(i, now).is_idle() && !self.replica_stepping[i];
                self.replica_health[i] = if idle {
                    ReplicaHealth::Retired
                } else {
                    ReplicaHealth::Draining
                };
                self.drains += 1;
                self.record_fleet(now);
            }
            FleetEvent::ReplicaCrash { replica } => {
                let i = replica.0 as usize;
                let Some(&health) = self.replica_health.get(i) else {
                    return;
                };
                if matches!(health, ReplicaHealth::Retired | ReplicaHealth::Crashed) {
                    return;
                }
                if let Some(holder) = self.controller.holder(replica) {
                    self.lbs[holder.0 as usize].remove_replica(replica);
                }
                self.controller.deregister_replica(replica);
                self.replica_health[i] = ReplicaHealth::Crashed;
                self.crashes += 1;
                self.record_fleet(now);
                self.cut_span(i, now, sched);
                let lost = self.replicas[i].fail_all();
                for req in lost {
                    self.fail_or_reroute(req, now, sched);
                }
            }
        }
    }
}

impl World for Fabric {
    type Event = Ev;

    /// Turns every span with an internal boundary at `at` back into
    /// per-iteration events, so an instant where anything is delivered
    /// never hides a boundary: each kick there runs in its true order
    /// among the instant's other events, lockstep replicas included.
    fn before_instant(&mut self, at: SimTime, sched: &mut Scheduler<Ev>) {
        if at < self.span_watch {
            return;
        }
        let mut watch = SimTime::MAX;
        for i in 0..self.spans.len() {
            let Some(span) = self.spans[i].as_mut() else {
                continue;
            };
            // Step the watch boundary by boundary rather than dividing:
            // delivered instants are usually closer together than a step.
            while span.watch < at {
                span.watch += span.step;
                if span.watch > span.boundary(span.boundaries) {
                    span.watch = SimTime::MAX;
                }
            }
            if span.watch == at {
                self.cut_span(i, at, sched);
            } else {
                watch = watch.min(span.watch);
            }
        }
        self.span_watch = watch;
    }

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::TrafficPoll => {
                // Pull one poll interval ahead so every arrival can be
                // scheduled at its exact instant instead of being
                // quantized to poll boundaries.
                let horizon = now + self.cfg.traffic_poll_interval;
                let events = self.source.next_batch(horizon, &mut self.traffic_rng);
                for ClientEvent { at, spec } in events {
                    self.pending_arrivals += 1;
                    sched.at(at, Ev::ClientArrive { spec });
                }
                self.source_exhausted = self.source.is_exhausted();
                if self.source_exhausted {
                    self.maybe_stop(sched);
                } else {
                    sched.after(self.cfg.traffic_poll_interval, Ev::TrafficPoll);
                }
            }
            Ev::ClientArrive { spec } => {
                self.pending_arrivals -= 1;
                let idx = self.clients.len();
                self.clients.push(ClientState {
                    spec,
                    program_idx: 0,
                    stage_idx: 0,
                    inflight: 0,
                    finished: false,
                });
                self.active_clients += 1;
                sched.at(now, Ev::IssueStage { client: idx });
            }
            Ev::IssueStage { client } => {
                let reqs = {
                    let c = &self.clients[client];
                    c.spec
                        .programs
                        .get(c.program_idx)
                        .and_then(|p| p.stages.get(c.stage_idx))
                        .cloned()
                };
                let Some(reqs) = reqs else {
                    // Empty client (no programs at all).
                    if !self.clients[client].finished {
                        self.clients[client].finished = true;
                        self.active_clients -= 1;
                        self.maybe_stop(sched);
                    }
                    return;
                };
                self.clients[client].inflight = reqs.len() as u32;
                for req in reqs {
                    self.issue_request(client, req, sched, now, true);
                }
            }
            Ev::Retry { client, req } => {
                self.tracker.retry(req.id.0);
                self.issue_request(client, req, sched, now, false);
            }
            Ev::LbReceive { lb, req, hops } => {
                if !self.lb_alive[lb as usize] {
                    // Connection refused: the client retries via DNS.
                    if let Some(&client) = self.req_client.get(&req.id.0) {
                        self.trace(now, TraceEventKind::RetryWait { req: req.id.0 });
                        sched.after(self.cfg.retry_delay, Ev::Retry { client, req });
                    }
                    return;
                }
                // `hops` counts forwards already taken, so the chain
                // length through this balancer is one longer.
                self.tracker.record_hops(req.id.0, hops.saturating_add(1));
                self.trace(
                    now,
                    TraceEventKind::LbQueued {
                        req: req.id.0,
                        lb,
                        hops,
                    },
                );
                self.lbs[lb as usize].submit(req, hops);
                sched.at(now, Ev::LbDispatch { lb });
            }
            Ev::LbDispatch { lb } => {
                if !self.lb_alive[lb as usize] {
                    return;
                }
                let decisions = self.lbs[lb as usize].dispatch();
                self.route_decisions(lb, decisions, now, sched);
            }
            Ev::ReplicaReceive { replica, req } => {
                let i = replica as usize;
                match self.replica_health[i] {
                    ReplicaHealth::Crashed => {
                        // Landed on a corpse (dispatched before the
                        // crash): treat like the rest of its in-flight
                        // cohort.
                        self.fail_or_reroute(req, now, sched);
                        return;
                    }
                    ReplicaHealth::Retired => {
                        // Raced a drain completion in transit: the
                        // replica still owes this request service.
                        self.replica_health[i] = ReplicaHealth::Draining;
                    }
                    ReplicaHealth::Active | ReplicaHealth::Draining => {}
                }
                // A prefill-only replica runs the prompt phase and the
                // first token, then hands off: intercept fresh requests
                // into a one-token prefill leg. Single-token requests
                // finish at the first token anyway, so they run whole.
                let req = if self.replica_role[i] == ReplicaRole::PrefillOnly
                    && req.target_output_tokens > 1
                {
                    let mut leg1 = req.clone();
                    leg1.target_output_tokens = 1;
                    self.disagg.insert(
                        req.id.0,
                        DisaggMeta {
                            orig: req,
                            stage: DisaggStage::Prefill,
                            cached_at_prefill: 0,
                        },
                    );
                    leg1
                } else {
                    req
                };
                self.trace(
                    now,
                    TraceEventKind::ReplicaQueued {
                        req: req.id.0,
                        replica,
                    },
                );
                self.cut_span(i, now, sched);
                self.replicas[i].enqueue(req);
                sched.at(now, Ev::ReplicaKick { replica });
            }
            Ev::ReplicaKick { replica } => {
                let i = replica as usize;
                if self.replica_stepping[i] || self.replica_health[i] == ReplicaHealth::Crashed {
                    return;
                }
                loop {
                    if self.replicas[i].is_idle() {
                        return;
                    }
                    let out = self.replicas[i].step();
                    if self.tracer.is_some() {
                        for id in &out.admitted {
                            self.trace(now, TraceEventKind::Admitted { req: id.0, replica });
                        }
                        for id in &out.preempted {
                            self.trace(now, TraceEventKind::Preempted { req: id.0, replica });
                        }
                        let evicted = self.replicas[i].cache().evicted_tokens();
                        if evicted > self.last_evicted[i] {
                            let tokens = evicted - self.last_evicted[i];
                            self.last_evicted[i] = evicted;
                            self.trace(now, TraceEventKind::Evicted { replica, tokens });
                        }
                        if out.worked()
                            && out.admitted.is_empty()
                            && self.replicas[i].pending_len() > 0
                        {
                            // A whole iteration ran without room to admit
                            // the waiting head: pending requests are
                            // stalled on KV memory, not on compute.
                            self.trace(
                                now,
                                TraceEventKind::ReplicaStall {
                                    replica,
                                    until: now + out.duration,
                                },
                            );
                        }
                    }
                    if out.worked() {
                        self.replica_stepping[i] = true;
                        if !self.open_span(i, now, &out, sched) {
                            sched.after(
                                out.duration,
                                Ev::IterationDone {
                                    replica,
                                    first_tokens: out.first_tokens,
                                    completions: out.completions,
                                },
                            );
                        }
                        return;
                    }
                    if out.progressed() {
                        // A zero-duration step that still changed state
                        // (a preemption emptied the batch): the
                        // requeued request is servable — step again
                        // rather than misread this as a stuck head.
                        continue;
                    }
                    // Head request can never fit: fail it and keep going.
                    let Some(dropped) = self.replicas[i].pop_pending_head() else {
                        return;
                    };
                    let dropped = self.restore_original(dropped);
                    self.trace(now, TraceEventKind::Failed { req: dropped.id.0 });
                    self.tracker.failure(dropped.id.0);
                    if let Some(&lb) = self.req_lb.get(&dropped.id.0) {
                        self.lbs[lb as usize].on_replica_complete(ReplicaId(replica));
                    }
                    if let Some(&client) = self.req_client.get(&dropped.id.0) {
                        self.request_finished(client, sched);
                    }
                }
            }
            Ev::IterationDone {
                replica,
                first_tokens,
                completions,
            } => self.iteration_done(replica, first_tokens, completions, now, sched),
            Ev::SpanDone { replica } => {
                let i = replica as usize;
                self.replica_at(i, now);
                let span = self.spans[i]
                    .take()
                    .expect("a span end belongs to an open span");
                let out = span.outcome.unwrap_or_default();
                self.iteration_done(replica, out.first_tokens, out.completions, now, sched);
            }
            Ev::KvTransfer { to, req } => {
                let tokens = req.prompt.len() as u64;
                let target = match self.replica_health[to as usize] {
                    // A retired/draining target raced the transfer in
                    // flight; it still owes this landing service (the
                    // receive path below un-retires it).
                    ReplicaHealth::Active | ReplicaHealth::Draining | ReplicaHealth::Retired => {
                        Some(to as usize)
                    }
                    // The decode side died with the KV on the wire:
                    // re-ship to a survivor (the extra hop is not
                    // re-billed — the prefill side streams to the new
                    // target in the same window).
                    ReplicaHealth::Crashed => {
                        self.fleet_at(now);
                        self.pick_decode_target(self.replica_region[to as usize], &req.prompt)
                    }
                };
                let Some(to) = target else {
                    self.transfers.aborted += 1;
                    self.transfers.tokens_aborted += tokens;
                    self.fail_or_reroute(req, now, sched);
                    return;
                };
                self.transfers.landed += 1;
                self.transfers.tokens_landed += tokens;
                self.cut_span(to, now, sched);
                // The shipped KV state materializes in the decode
                // replica's prefix cache, so admission skips the
                // re-prefill; a failed prewarm (cache too small) just
                // means the decode replica recomputes.
                self.replicas[to].prewarm(&req.prompt);
                sched.at(
                    now,
                    Ev::ReplicaReceive {
                        replica: to as u32,
                        req,
                    },
                );
            }
            Ev::DeliverFirstToken { req } => {
                self.trace(now, TraceEventKind::FirstTokenDelivered { req: req.0 });
                self.tracker.first_token(req.0, now);
                if self.telemetry.is_some() {
                    let arrived = self.tracker.arrival_time(req.0);
                    let region = self
                        .req_client
                        .get(&req.0)
                        .map(|&c| self.clients[c].spec.region);
                    if let (Some(arrived), Some(plane)) = (arrived, self.telemetry.as_mut()) {
                        let ttft = now.saturating_since(arrived).as_secs_f64();
                        plane.registry.observe("skywalker_ttft_seconds", &[], ttft);
                        if let Some(region) = region {
                            plane.registry.observe(
                                "skywalker_region_ttft_seconds",
                                &[("region", region.name())],
                                ttft,
                            );
                        }
                    }
                }
            }
            Ev::DeliverCompletion { client, completion } => {
                self.trace(
                    now,
                    TraceEventKind::Delivered {
                        req: completion.id.0,
                    },
                );
                self.tracker.completion(
                    completion.id.0,
                    now,
                    u64::from(completion.generated_tokens),
                    u64::from(completion.cached_prompt_tokens),
                );
                self.request_finished(client, sched);
            }
            Ev::ProbeTick => {
                self.fleet_at(now);
                let mut ids = std::mem::take(&mut self.probe_ids);
                for (li, lb) in self.lbs.iter_mut().enumerate() {
                    if !self.lb_alive[li] {
                        continue;
                    }
                    ids.clear();
                    lb.replica_ids_into(&mut ids);
                    for &rid in &ids {
                        let r = &self.replicas[rid.0 as usize];
                        lb.on_replica_probe(
                            rid,
                            r.pending_len() as u32,
                            r.running_len() as u32,
                            r.kv_utilization(),
                        );
                        if let Some(state) = lb.replica_state(rid) {
                            let p = &mut self.peak_outstanding[rid.0 as usize];
                            *p = (*p).max(state.outstanding);
                        }
                    }
                }
                self.probe_ids = ids;
                for (ri, r) in self.replicas.iter().enumerate() {
                    if self.replica_health[ri] != ReplicaHealth::Crashed {
                        self.kv_series[ri].record(now, r.kv_utilization());
                    }
                }
                if self.forward_enabled {
                    let mut statuses = std::mem::take(&mut self.probe_statuses);
                    statuses.clear();
                    statuses.extend(
                        self.lbs
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| self.lb_alive[*i])
                            .map(|(i, lb)| {
                                let (avail, qlen) = lb.status();
                                (i as u32, lb.region(), avail, qlen)
                            }),
                    );
                    for (to, lb) in self.lbs.iter().enumerate() {
                        if !self.lb_alive[to] {
                            continue;
                        }
                        for &(from, from_region, avail, qlen) in &statuses {
                            if from == to as u32 {
                                continue;
                            }
                            let delay = self.cfg.net.sample_one_way(
                                lb.region(),
                                from_region,
                                &mut self.rng,
                            );
                            sched.after(
                                delay,
                                Ev::PeerStatus {
                                    to: to as u32,
                                    from,
                                    avail,
                                    qlen,
                                },
                            );
                        }
                    }
                    self.probe_statuses = statuses;
                }
                for li in 0..self.lbs.len() {
                    if self.lb_alive[li] {
                        sched.at(now, Ev::LbDispatch { lb: li as u32 });
                    }
                }
                sched.after(self.cfg.probe_interval, Ev::ProbeTick);
            }
            Ev::TelemetryTick => {
                self.telemetry_sample(now);
                if let Some(plane) = &self.telemetry {
                    sched.after(plane.cfg.interval, Ev::TelemetryTick);
                }
            }
            Ev::PeerStatus {
                to,
                from,
                avail,
                qlen,
            } => {
                if self.lb_alive[to as usize] {
                    self.lbs[to as usize].on_peer_probe(LbId(from), avail, qlen);
                    sched.at(now, Ev::LbDispatch { lb: to });
                }
            }
            Ev::HeartbeatTick => {
                for li in 0..self.lbs.len() {
                    if self.lb_alive[li] {
                        let actions = self.controller.heartbeat(LbId(li as u32), now);
                        self.apply_control_actions(actions, now, sched);
                    }
                }
                sched.after(self.cfg.heartbeat_interval, Ev::HeartbeatTick);
            }
            Ev::ControllerTick => {
                let actions = self.controller.check(now);
                self.apply_control_actions(actions, now, sched);
                sched.after(self.cfg.heartbeat_interval, Ev::ControllerTick);
            }
            Ev::FleetPoll => {
                if self.plan.is_none() {
                    return;
                }
                let mut obs = std::mem::replace(
                    &mut self.obs_scratch,
                    FleetObservation {
                        now: SimTime::ZERO,
                        replicas: Vec::new(),
                        balancers: Vec::new(),
                    },
                );
                self.fleet_at(now);
                self.observe_into(now, &mut obs);
                // Look one poll interval ahead so every scheduled
                // command can fire at its exact instant instead of
                // being quantized to poll boundaries.
                let horizon = now + self.cfg.fleet_poll_interval;
                let mut plan = self.plan.take().expect("checked above");
                let commands = plan.next_events(horizon, &obs, &mut self.fleet_rng);
                let done = plan.is_done();
                self.plan = Some(plan);
                self.obs_scratch = obs;
                for FleetCommand { at, event } in commands {
                    sched.at(at, Ev::FleetApply { event });
                }
                if !done {
                    sched.after(self.cfg.fleet_poll_interval, Ev::FleetPoll);
                }
            }
            Ev::FleetApply { event } => {
                self.apply_fleet_event(event, now, sched);
            }
        }
    }
}

/// Runs one scenario to completion (all clients done, or the deadline).
pub fn run_scenario(scenario: &Scenario, cfg: &FabricConfig) -> RunSummary {
    let deployment = scenario.deployment;
    // Custom factory if the scenario carries one, else the deployment's
    // built-in policy kind (PolicyKind itself implements PolicyFactory).
    let default_kind = match deployment {
        Deployment::Centralized { policy, .. } | Deployment::PerRegion { policy, .. } => policy,
    };
    let factory: &dyn PolicyFactory = scenario.policy_factory.as_deref().unwrap_or(&default_kind);

    // Each run pulls from a fresh copy of the traffic source, so the
    // same scenario replays identically any number of times.
    let mut source = scenario.traffic.clone();
    let mut traffic_rng = DetRng::for_component(cfg.seed, "fabric/traffic");

    // The fleet control plane: the legacy fault schedule rides along as
    // a ScheduledPlan of balancer flaps, merged with any custom plan.
    // Each run polls a fresh clone, like the traffic source.
    let fault_plan: Option<Box<dyn FleetPlan>> = (!scenario.faults.is_empty()).then(|| {
        Box::new(
            ScheduledPlan::new(
                scenario
                    .faults
                    .iter()
                    .map(|f| {
                        FleetCommand::new(
                            f.at,
                            if f.down {
                                FleetEvent::LbDown { lb: f.lb_index }
                            } else {
                                FleetEvent::LbUp { lb: f.lb_index }
                            },
                        )
                    })
                    .collect(),
            )
            .with_label("faults"),
        ) as Box<dyn FleetPlan>
    });
    let plan: Option<Box<dyn FleetPlan>> = match (fault_plan, scenario.fleet_plan.clone()) {
        (Some(f), Some(p)) => Some(Box::new(MergePlan::new(vec![f, p]))),
        (Some(f), None) => Some(f),
        (None, p) => p,
    };

    // Decide balancer placement. Client regions come from the source's
    // declaration, so every region that may ever see an arrival has a
    // balancer before the run starts.
    let mut lb_regions: Vec<Region> = Vec::new();
    match deployment {
        Deployment::Centralized { lb_region, .. } => lb_regions.push(lb_region),
        Deployment::PerRegion { .. } => {
            for p in &scenario.replicas {
                if !lb_regions.contains(&p.region) {
                    lb_regions.push(p.region);
                }
            }
            for region in source.regions() {
                if !lb_regions.contains(&region) {
                    lb_regions.push(region);
                }
            }
        }
    }

    let mut lbs: Vec<RegionalBalancer> = Vec::new();
    let mut dns = DnsResolver::new(cfg.net.clone());
    let mut controller = Controller::new(cfg.net.clone(), cfg.controller_timeout);
    let forward_enabled = matches!(deployment, Deployment::PerRegion { forward: true, .. });
    for (i, &region) in lb_regions.iter().enumerate() {
        let bcfg = match deployment {
            Deployment::Centralized { policy, push, .. } => BalancerConfig {
                region,
                policy,
                push_mode: push,
                tau: 0,
                trie_max_tokens: cfg.trie_max_tokens,
                affinity_threshold: cfg.affinity_threshold,
                balance_abs_threshold: cfg.balance_abs_threshold,
                max_hops: 0,
                constraint: RoutingConstraint::Unrestricted,
            },
            Deployment::PerRegion {
                policy,
                push,
                forward,
                tau,
                constraint,
            } => BalancerConfig {
                region,
                policy,
                push_mode: push,
                tau,
                trie_max_tokens: cfg.trie_max_tokens,
                affinity_threshold: cfg.affinity_threshold,
                balance_abs_threshold: cfg.balance_abs_threshold,
                max_hops: u8::from(forward),
                constraint,
            },
        };
        lbs.push(RegionalBalancer::with_factory(
            LbId(i as u32),
            bcfg,
            factory,
        ));
        dns.advertise(Endpoint {
            region,
            lb_id: i as u32,
        });
        controller.register_lb(LbId(i as u32), region);
    }
    if forward_enabled {
        for i in 0..lbs.len() {
            for j in 0..lbs.len() {
                if i != j {
                    let (jid, jregion) = (LbId(j as u32), lbs[j].region());
                    lbs[i].add_peer(jid, jregion);
                }
            }
        }
    }

    // The serving engine, cloned into every replica (`None` = the
    // default FCFS + LRU, i.e. the historical hardcoded loop).
    let engine = scenario.engine.clone().unwrap_or_default();

    // Replicas attach to the balancer of their region (or the single
    // centralized balancer). Decode-only replicas are never advertised
    // to any balancer or the controller: the only path to them is a
    // prefill handoff.
    let mut replicas: Vec<Replica> = Vec::new();
    let mut replica_region: Vec<Region> = Vec::new();
    let replica_role: Vec<ReplicaRole> = (0..scenario.replicas.len())
        .map(|i| scenario.roles.get(i).copied().unwrap_or_default())
        .collect();
    for (i, p) in scenario.replicas.iter().enumerate() {
        let rid = ReplicaId(i as u32);
        replicas.push(Replica::with_engine(
            rid,
            p.profile,
            engine.batch.clone(),
            engine.evictor.clone(),
        ));
        replica_region.push(p.region);
        if replica_role[i] == ReplicaRole::DecodeOnly {
            continue;
        }
        let home = match deployment {
            Deployment::Centralized { .. } => 0usize,
            Deployment::PerRegion { .. } => lb_regions
                .iter()
                .position(|r| *r == p.region)
                .expect("replica region has a balancer"),
        };
        lbs[home].add_replica_in(rid, p.region);
        controller.register_replica(rid, LbId(home as u32));
    }

    let n_replicas = replicas.len();
    // Admit the t = 0 cohort before the engine starts: their first
    // stages are scheduled ahead of every tick event, which keeps a
    // pre-materialized population bit-identical to the legacy eager
    // path. Later arrivals stream in through `Ev::TrafficPoll`.
    let initial = source.next_batch(SimTime::ZERO, &mut traffic_rng);
    let source_exhausted = source.is_exhausted();
    let active_clients = initial.len();
    // A zero poll interval would re-enqueue `Ev::TrafficPoll` at the
    // same instant forever; clamp so the poll loop always advances (and
    // a sub-millisecond interval buys nothing — arrivals are scheduled
    // at their exact instants via the look-ahead either way).
    let mut world_cfg = cfg.clone();
    world_cfg.traffic_poll_interval = world_cfg
        .traffic_poll_interval
        .max(SimDuration::from_millis(1));
    world_cfg.fleet_poll_interval = world_cfg
        .fleet_poll_interval
        .max(SimDuration::from_millis(1));
    // A zero telemetry interval would re-enqueue `Ev::TelemetryTick` at
    // the same instant forever; clamp like the poll intervals.
    if let Some(t) = world_cfg.telemetry.as_mut() {
        t.interval = t.interval.max(SimDuration::from_millis(1));
    }
    let telemetry_plane = world_cfg.telemetry.map(TelemetryPlane::new);
    let mut fleet_sizes: BTreeMap<Region, TimeSeries> = BTreeMap::new();
    for p in &scenario.replicas {
        fleet_sizes
            .entry(p.region)
            .or_insert_with(|| TimeSeries::new(format!("fleet/{:?}", p.region)));
    }
    let mut world = Fabric {
        cfg: world_cfg,
        rng: DetRng::for_component(cfg.seed, "fabric/net"),
        lb_alive: vec![true; lbs.len()],
        lbs,
        replicas,
        replica_region,
        replica_stepping: vec![false; n_replicas],
        spans: (0..n_replicas).map(|_| None).collect(),
        span_watch: SimTime::MAX,
        replica_role,
        disagg: BTreeMap::new(),
        transfers: TransferSummary::default(),
        clients: initial
            .into_iter()
            .map(|ev| ClientState {
                spec: ev.spec,
                program_idx: 0,
                stage_idx: 0,
                inflight: 0,
                finished: false,
            })
            .collect(),
        dns,
        controller,
        tracker: RequestTracker::new(),
        source,
        source_exhausted,
        pending_arrivals: 0,
        traffic_rng,
        req_client: HashMap::new(),
        req_lb: HashMap::new(),
        kv_series: (0..n_replicas)
            .map(|i| TimeSeries::new(format!("replica-{i}/kv")))
            .collect(),
        peak_outstanding: vec![0; n_replicas],
        active_clients,
        forward_enabled,
        plan,
        fleet_rng: DetRng::for_component(cfg.seed, "fabric/fleet"),
        engine,
        replica_health: vec![ReplicaHealth::Active; n_replicas],
        fleet_sizes,
        joins: 0,
        drains: 0,
        crashes: 0,
        rerouted_once: HashSet::new(),
        tracer: cfg.trace.map(TraceRecorder::new),
        telemetry: telemetry_plane,
        last_evicted: vec![0; n_replicas],
        probe_ids: Vec::new(),
        probe_statuses: Vec::new(),
        obs_scratch: FleetObservation {
            now: SimTime::ZERO,
            replicas: Vec::new(),
            balancers: Vec::new(),
        },
        fleet_counts: Vec::new(),
    };
    world.record_fleet(SimTime::ZERO);

    let mut engine: Engine<Ev> = Engine::new();
    for c in 0..world.clients.len() {
        engine.schedule(SimTime::ZERO, Ev::IssueStage { client: c });
    }
    // A defensively-constructed scenario can hold an empty source (the
    // builder rejects them); skip the self-perpetuating ticks so the run
    // terminates immediately instead of idling to the deadline.
    let has_traffic = !world.clients.is_empty() || !world.source_exhausted;
    if has_traffic {
        engine.schedule(SimTime::ZERO, Ev::ProbeTick);
        engine.schedule(SimTime::ZERO, Ev::HeartbeatTick);
        engine.schedule(SimTime::ZERO + cfg.heartbeat_interval, Ev::ControllerTick);
        if !world.source_exhausted {
            engine.schedule(SimTime::ZERO, Ev::TrafficPoll);
        }
        if world.plan.is_some() {
            engine.schedule(SimTime::ZERO, Ev::FleetPoll);
        }
        if world.telemetry.is_some() {
            engine.schedule(SimTime::ZERO, Ev::TelemetryTick);
        }
    }

    let stats = engine.run_until(&mut world, cfg.deadline);
    let stop = if stats.stopped_early || engine.pending() == 0 {
        StopReason::Drained
    } else {
        StopReason::Deadline
    };
    // A run cut at its deadline also ran every span boundary up to it:
    // the per-iteration model delivered events there.
    let caught_up = match stop {
        StopReason::Drained => stats.end_time,
        StopReason::Deadline => cfg.deadline + SimDuration::from_micros(1),
    };
    let end =
        world
            .spans
            .iter()
            .flatten()
            .fold(stats.end_time, |end, s| match s.reached(caught_up) {
                0 => end,
                j => end.max(s.boundary(j)),
            });
    world.fleet_at(caught_up);
    world.record_fleet(end);
    // One final flush so the summary snapshot reflects the end state even
    // when the run ends between ticks (no-op with telemetry off).
    world.telemetry_sample(end);

    let report = world.tracker.report(end);
    let replica_stats: Vec<ReplicaStats> = world.replicas.iter().map(|r| r.stats()).collect();
    let prompt_tokens: u64 = replica_stats.iter().map(|s| s.prompt_tokens).sum();
    let cached_tokens: u64 = replica_stats.iter().map(|s| s.cached_prompt_tokens).sum();
    let forwarded: u64 = world.lbs.iter().map(|l| l.stats().forwarded).sum();

    let mut dispatch_counts: BTreeMap<u32, u64> = BTreeMap::new();
    for lb in &world.lbs {
        for (rid, n) in lb.dispatch_counts() {
            *dispatch_counts.entry(rid.0).or_insert(0) += n;
        }
    }
    let imbalance = |vals: Vec<f64>| -> f64 {
        let max = vals.iter().copied().fold(f64::MIN, f64::max);
        let min = vals.iter().copied().fold(f64::MAX, f64::min);
        if vals.len() < 2 || min <= 0.0 {
            1.0
        } else {
            max / min
        }
    };
    let dispatch_imbalance = imbalance(
        (0..world.replicas.len())
            .map(|i| *dispatch_counts.get(&(i as u32)).unwrap_or(&0) as f64)
            .collect(),
    );
    let outstanding_imbalance = imbalance(
        world
            .peak_outstanding
            .iter()
            .map(|&v| f64::from(v))
            .collect(),
    );
    let peak_lb_queue = world
        .lbs
        .iter()
        .map(|l| l.stats().peak_queue)
        .max()
        .unwrap_or(0);
    let lb_backlog = world.lbs.iter().map(|l| l.queue_len() as u64).sum();
    let series_refs: Vec<&TimeSeries> = world.kv_series.iter().collect();
    let kv_peak_gap = peak_gap(&series_refs);
    let final_replicas = world
        .replica_health
        .iter()
        .filter(|h| **h == ReplicaHealth::Active)
        .count() as u32;
    let fleet = FleetSummary {
        sizes: world.fleet_sizes.into_iter().collect(),
        joins: world.joins,
        drains: world.drains,
        crashes: world.crashes,
        final_replicas,
    };

    let preempted: u64 = replica_stats.iter().map(|s| s.preempted).sum();
    let evicted_tokens: u64 = replica_stats.iter().map(|s| s.evicted_tokens).sum();
    let chunked_steps: u64 = replica_stats.iter().map(|s| s.chunked_steps).sum();
    let demoted_tokens: u64 = replica_stats.iter().map(|s| s.demoted_tokens).sum();
    let promoted_tokens: u64 = replica_stats.iter().map(|s| s.promoted_tokens).sum();

    RunSummary {
        label: scenario.label.clone(),
        system: scenario.system,
        report,
        end_time: end,
        stop,
        events_delivered: stats.delivered,
        replica_hit_rate: if prompt_tokens > 0 {
            cached_tokens as f64 / prompt_tokens as f64
        } else {
            0.0
        },
        engine_label: world.engine.label(),
        preempted,
        evicted_tokens,
        chunked_steps,
        demoted_tokens,
        promoted_tokens,
        transfers: world.transfers,
        replica_stats,
        forwarded,
        dispatch_imbalance,
        outstanding_imbalance,
        peak_outstanding: world.peak_outstanding,
        peak_lb_queue,
        lb_backlog,
        peak_events: engine.peak_pending(),
        kv_peak_gap,
        kv_series: world.kv_series,
        fleet,
        trace: world.tracer.map(TraceRecorder::into_summary),
        telemetry: world.telemetry.map(TelemetryPlane::into_summary),
    }
}
