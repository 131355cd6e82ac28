//! Decode-span coalescing against the per-iteration model it replaces.
//!
//! The fabric stands one engine entry in for a replica's whole run of
//! pure decode iterations (see `DecodeSpan` in `src/fabric.rs`). Every
//! cell here runs twice: once with the engine as configured, whose
//! `FcfsBatch` declares `BatchPolicy::pure_decode` and so coalesces, and
//! once with the same batch policy behind [`PerIteration`], a wrapper
//! that forwards `plan` and `label` but leaves the declaration at its
//! default, so every iteration is a real `ReplicaKick` + `IterationDone`
//! pair. Every `RunSummary` field must match exactly, trace and
//! telemetry summaries included, except the two that count the
//! simulator's own work (`events_delivered`, `peak_events`).
//!
//! The cells cover each way an observation or a state change can meet a
//! span: probes, telemetry ticks and fleet polls reading replicas
//! mid-span; arrivals, KV handoffs and crashes cutting one; runs cut at
//! their deadline between boundaries; replicas in lockstep; and a
//! profile whose step divides the probe interval, so delivered instants
//! land on span boundaries all the time.

use skywalker::net::LatencyModel;
use skywalker::replica::{GpuProfile, KvConfig, Request};
use skywalker::sim::{SimDuration, SimTime};
use skywalker::workload::{ClientSpec, Program};
use skywalker::{
    balanced_fleet, disagg_scenario, fig10_diurnal_scenario, fig10_scenario, fig8_scenario,
    fig9_scenario, lite_fleet, memory_pressure_scenario, run_scenario, AutoscalerConfig, BatchPlan,
    BatchPolicy, ChaosConfig, ChaosPlan, DisaggWorkload, EngineSpec, FabricConfig, FaultEvent,
    FcfsBatch, FlashCrowdSource, LruEvictor, PrefixAwareEvictor, RunSummary, Scenario, StepView,
    SystemKind, ThresholdAutoscaler, TieredEvictor, Workload, L4_LITE, REGIONS,
};

/// The per-iteration reference: the wrapped policy's plans, without its
/// `pure_decode` declaration.
#[derive(Debug, Clone)]
struct PerIteration(Box<dyn BatchPolicy>);

impl BatchPolicy for PerIteration {
    fn plan(&mut self, view: &StepView<'_>) -> BatchPlan {
        self.0.plan(view)
    }

    fn label(&self) -> String {
        self.0.label()
    }
}

fn per_iteration(scenario: &Scenario) -> Scenario {
    let mut reference = scenario.clone();
    let engine = reference.engine.take().unwrap_or_default();
    reference.engine = Some(EngineSpec::new(
        Box::new(PerIteration(engine.batch)),
        engine.evictor,
    ));
    reference
}

/// Every field of a summary that must not depend on coalescing, by name.
/// The destructure is exhaustive: a new `RunSummary` field does not
/// compile here until it is classified.
fn observable(s: RunSummary) -> Vec<(&'static str, String)> {
    let RunSummary {
        label,
        system,
        report,
        end_time,
        stop,
        events_delivered: _,
        replica_stats,
        replica_hit_rate,
        engine_label,
        preempted,
        evicted_tokens,
        demoted_tokens,
        promoted_tokens,
        transfers,
        chunked_steps,
        forwarded,
        dispatch_imbalance,
        outstanding_imbalance,
        peak_outstanding,
        peak_lb_queue,
        lb_backlog,
        peak_events: _,
        kv_peak_gap,
        kv_series,
        fleet,
        trace,
        telemetry,
    } = s;
    vec![
        ("label", label),
        ("system", format!("{system:?}")),
        ("report", format!("{report:?}")),
        ("end_time", format!("{end_time:?}")),
        ("stop", format!("{stop:?}")),
        ("replica_stats", format!("{replica_stats:?}")),
        ("replica_hit_rate", format!("{replica_hit_rate:?}")),
        ("engine_label", engine_label),
        ("preempted", preempted.to_string()),
        ("evicted_tokens", evicted_tokens.to_string()),
        ("demoted_tokens", demoted_tokens.to_string()),
        ("promoted_tokens", promoted_tokens.to_string()),
        ("transfers", format!("{transfers:?}")),
        ("chunked_steps", chunked_steps.to_string()),
        ("forwarded", forwarded.to_string()),
        ("dispatch_imbalance", format!("{dispatch_imbalance:?}")),
        (
            "outstanding_imbalance",
            format!("{outstanding_imbalance:?}"),
        ),
        ("peak_outstanding", format!("{peak_outstanding:?}")),
        ("peak_lb_queue", peak_lb_queue.to_string()),
        ("lb_backlog", lb_backlog.to_string()),
        ("kv_peak_gap", format!("{kv_peak_gap:?}")),
        ("kv_series", format!("{kv_series:?}")),
        ("fleet", format!("{fleet:?}")),
        ("trace", format!("{trace:?}")),
        ("telemetry", format!("{telemetry:?}")),
    ]
}

/// What one parity run saw: delivered events on both sides.
struct Parity {
    coalesced: u64,
    reference: u64,
}

fn assert_parity(tag: &str, scenario: &Scenario, cfg: &FabricConfig) -> Parity {
    let fast = run_scenario(scenario, cfg);
    let slow = run_scenario(&per_iteration(scenario), cfg);
    let parity = Parity {
        coalesced: fast.events_delivered,
        reference: slow.events_delivered,
    };
    for ((name, got), (_, want)) in observable(fast).into_iter().zip(observable(slow)) {
        assert!(
            got == want,
            "{tag}: `{name}` differs from the per-iteration model\n coalesced: {}\n reference: {}",
            excerpt(&got, &want),
            excerpt(&want, &got),
        );
    }
    parity
}

/// The neighbourhood of the first difference, so a mismatch in a large
/// trace stays readable.
fn excerpt(a: &str, b: &str) -> String {
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    let mut from = at.saturating_sub(120);
    while !a.is_char_boundary(from) {
        from -= 1;
    }
    let mut to = (at + 120).min(a.len());
    while !a.is_char_boundary(to) {
        to += 1;
    }
    format!("…{}…", &a[from..to])
}

/// A profile where every iteration costs a multiple of 20 ms: with a
/// zero-latency network, every event lands on the 20 ms grid, so probes
/// (every 100 ms), arrivals and other replicas' boundaries keep hitting
/// span boundaries.
const GRID: GpuProfile = GpuProfile {
    name: "grid-20ms",
    prefill_base_us: 20_000,
    prefill_per_token_us: 0.0,
    chunk_base_us: 20_000,
    decode_base_us: 20_000,
    decode_per_request_us: 0.0,
    kv: KvConfig {
        capacity_tokens: 4_096,
        block_tokens: 16,
    },
    max_batch_size: 4,
    kv_transfer_us_per_token: 0.0,
};

/// [`GRID`] with a step that grows by 20 ms per running request, so
/// replicas with different batch sizes step at different rates yet still
/// land on the grid: span ends of different step lengths meet at one
/// instant, as do span ends and probe ticks.
const GRID_SCALED: GpuProfile = GpuProfile {
    name: "grid-20ms-scaled",
    decode_per_request_us: 20_000.0,
    ..GRID
};

/// A 7 ms grid, coprime to the 100 ms probe interval, whose step grows by 7 ms per
/// running request: spans of different lengths meet at one instant
/// without a probe tick landing on their boundaries first.
const GRID7: GpuProfile = GpuProfile {
    name: "grid-7ms-scaled",
    prefill_base_us: 7_000,
    chunk_base_us: 7_000,
    decode_base_us: 7_000,
    decode_per_request_us: 7_000.0,
    ..GRID
};

/// Three one-request clients X, Y, Z on two [`GRID7`] replicas behind a
/// round-robin balancer, on a zero-latency network. X's and Z's requests
/// share replica 0 (batch 2, 21 ms steps) and Y's runs alone on replica
/// 1 (14 ms steps). Replica 1 opens its span at 21 ms, replica 0 at
/// 28 ms; X finishes at `7 + 21 * x` ms and Y at `7 + 14 * y` ms, the
/// same instant when `2 y = 3 x`, with replica 0's last boundary 7 ms
/// before replica 1's. Each completion issues that client's second
/// request, and round robin places them by issue order.
fn meeting(x: u32, y: u32, z: u32) -> Scenario {
    let client = |name: &str, id: u64, output: u32, follow: u32| {
        let prompt = |id: u64, len: u32| (0..len).map(|t| id as u32 * 100 + t).collect();
        ClientSpec {
            region: REGIONS[0],
            user: name.to_string(),
            programs: vec![Program {
                stages: vec![
                    vec![Request::new(id, name, prompt(id, 16), output)],
                    vec![Request::new(id + 10, name, prompt(id + 10, follow), 3)],
                ],
            }],
        }
    };
    SystemKind::RoundRobin
        .builder()
        .replicas(
            (0..2)
                .map(|_| skywalker::ReplicaPlacement {
                    region: REGIONS[0],
                    profile: GRID7,
                })
                .collect(),
        )
        .clients(vec![
            client("x", 1, x, 8),
            client("y", 2, y, 40),
            client("z", 3, z, 16),
        ])
        .build()
        .expect("fleet and clients are set")
}

/// `clients` clients in one region, each running `stages` stages of
/// `fanout` requests of `prompt` tokens. Request `i` asks for
/// `output + i % spread` tokens.
fn uniform_clients(
    clients: u32,
    stages: u32,
    fanout: u32,
    prompt: u32,
    output: u32,
    spread: u32,
) -> Vec<ClientSpec> {
    let mut id = 0u64;
    (0..clients)
        .map(|c| {
            let stages = (0..stages)
                .map(|st| {
                    (0..fanout)
                        .map(|f| {
                            id += 1;
                            // Distinct prompts per request: a shared
                            // system prefix, then a unique tail.
                            let tokens = (0..prompt)
                                .map(|t| {
                                    if t < prompt / 2 {
                                        t
                                    } else {
                                        1_000 * c + 100 * st + f + t
                                    }
                                })
                                .collect();
                            let output = output + (id % u64::from(spread)) as u32;
                            Request::new(id, format!("c{c}"), tokens, output)
                        })
                        .collect()
                })
                .collect();
            ClientSpec {
                region: REGIONS[0],
                user: format!("c{c}"),
                programs: vec![Program { stages }],
            }
        })
        .collect()
}

fn zero_net() -> FabricConfig {
    FabricConfig {
        net: LatencyModel::zero(),
        ..FabricConfig::default()
    }
}

fn with_seed(cfg: FabricConfig, seed: u64) -> FabricConfig {
    FabricConfig { seed, ..cfg }
}

fn engines() -> Vec<(&'static str, EngineSpec)> {
    vec![
        ("fcfs", EngineSpec::default()),
        (
            "chunked",
            EngineSpec::new(Box::new(FcfsBatch::chunked(64)), Box::new(LruEvictor)),
        ),
        (
            "preempt",
            EngineSpec::new(
                Box::new(FcfsBatch::new().with_preemption(0.9)),
                Box::new(LruEvictor),
            ),
        ),
        (
            "prefix-aware",
            EngineSpec::new(Box::new(FcfsBatch::new()), Box::new(PrefixAwareEvictor)),
        ),
        (
            "tiered",
            EngineSpec::new(
                Box::new(FcfsBatch::new()),
                Box::new(TieredEvictor::new(Box::new(LruEvictor), 4_096)),
            ),
        ),
    ]
}

fn chaos(seed: u64) -> Box<ChaosPlan> {
    Box::new(ChaosPlan::new(
        ChaosConfig {
            mtbf: SimDuration::from_secs(15),
            mttr: SimDuration::from_secs(10),
            min_live_per_region: 1,
            ..ChaosConfig::default()
        },
        seed,
    ))
}

/// Every cell: a tag, a scenario and the fabric config it runs under.
fn cells() -> Vec<(String, Scenario, FabricConfig)> {
    let mut cells = Vec::new();
    let mut add = |tag: String, scenario: Scenario, cfg: FabricConfig| {
        cells.push((tag, scenario, cfg));
    };

    // Every Fig. 8 preset × workload, across seeds, some traced and some
    // sampled by telemetry.
    for system in SystemKind::FIG8 {
        for workload in Workload::ALL {
            for seed in [3u64, 8, 21] {
                let cfg = match seed {
                    8 => FabricConfig::default().traced(),
                    21 => FabricConfig::default().telemetry(SimDuration::from_millis(250)),
                    _ => FabricConfig::default(),
                };
                add(
                    format!("fig8/{}/{}/{seed}", system.label(), workload.label()),
                    fig8_scenario(system, workload, 0.02, seed),
                    with_seed(cfg, seed),
                );
            }
        }
    }

    // Fig. 9 (one region, pushing vs not) and Fig. 10 (three regions).
    for system in [SystemKind::SkyWalker, SystemKind::RoundRobin] {
        for seed in [4u64, 9] {
            add(
                format!("fig9/{}/{seed}", system.label()),
                fig9_scenario(system, 4, 48, seed),
                with_seed(FabricConfig::default(), seed),
            );
            add(
                format!("fig10/{}/{seed}", system.label()),
                fig10_scenario(system, 6, 0.02, seed),
                with_seed(FabricConfig::default().traced(), seed),
            );
        }
    }

    // The diurnal day, short, drained and cut mid-day.
    for seed in [2u64, 5, 13] {
        let day = fig10_diurnal_scenario(
            SystemKind::SkyWalker,
            2,
            SimDuration::from_secs(240),
            0.02,
            seed,
        );
        add(
            format!("diurnal/{seed}"),
            day.clone(),
            with_seed(
                FabricConfig::default().telemetry(SimDuration::from_secs(1)),
                seed,
            ),
        );
        add(
            format!("diurnal/deadline/{seed}"),
            day,
            FabricConfig {
                seed,
                deadline: SimTime::from_micros(60_000_000 + 7_919 * seed),
                ..FabricConfig::default()
            },
        );
    }

    // Serving engines under memory pressure: preemptive (never
    // coalesces), chunked, prefix-aware and tiered caches.
    for (name, engine) in engines() {
        for seed in [6u64, 17] {
            let cfg = if seed == 17 {
                FabricConfig::default().traced()
            } else {
                FabricConfig::default()
            };
            add(
                format!("memory/{name}/{seed}"),
                memory_pressure_scenario(engine.clone(), 0.3, seed),
                with_seed(cfg, seed),
            );
        }
    }

    // Disaggregated prefill/decode: KV handoffs land on decode replicas
    // mid-span, and the decode target pick reads their caches — with the
    // preset's tiered cache and with an untiered one, whose spans end in
    // a lazily run completing step.
    for workload in DisaggWorkload::ALL {
        for disagg in [false, true] {
            for seed in [3u64, 19, 40] {
                let scenario = disagg_scenario(workload, disagg, 0.3, seed);
                let mut untiered = disagg_scenario(workload, disagg, 0.6, seed);
                untiered.engine = None;
                let tag = format!("disagg/{}/{disagg}/{seed}", workload.label());
                add(
                    tag.clone(),
                    scenario,
                    with_seed(FabricConfig::default(), seed),
                );
                add(
                    format!("{tag}/untiered"),
                    untiered,
                    with_seed(FabricConfig::default(), seed),
                );
            }
        }
    }

    // Chaos: crashes cut spans and fail their batches.
    for (name, engine) in engines().into_iter().take(3) {
        for seed in [5u64, 23, 47, 88] {
            let scenario = SystemKind::SkyWalker
                .builder()
                .replicas(balanced_fleet())
                .clients(skywalker::workload_clients(Workload::WildChat, 0.05, seed))
                .fleet_plan(chaos(seed))
                .engine(engine.clone())
                .build()
                .expect("fleet and clients are set");
            add(
                format!("chaos/{name}/{seed}"),
                scenario,
                with_seed(FabricConfig::default(), seed),
            );
        }
    }
    for seed in [5u64, 61] {
        let mut scenario = disagg_scenario(DisaggWorkload::DecodeHeavy, true, 0.3, seed);
        scenario.fleet_plan = Some(chaos(seed));
        add(
            format!("chaos/disagg/{seed}"),
            scenario,
            with_seed(FabricConfig::default(), seed),
        );
    }

    // Autoscaling: a flash crowd forces joins and drains; every fleet
    // poll observes replicas mid-span.
    for seed in [11u64, 12, 29, 30] {
        let source = FlashCrowdSource::new(
            vec![(REGIONS[0], 2), (REGIONS[1], 2)],
            REGIONS[0],
            10,
            SimTime::from_secs(8),
            seed,
        );
        let autoscaler = ThresholdAutoscaler::new(AutoscalerConfig {
            min_per_region: 1,
            max_per_region: 4,
            scale_out_load: 2.0,
            scale_in_load: 0.5,
            cooldown: SimDuration::from_secs(8),
            provision_delay: SimDuration::from_secs(4),
            profile: L4_LITE,
        });
        let scenario = SystemKind::SkyWalker
            .builder()
            .replicas(lite_fleet(&[(REGIONS[0], 1), (REGIONS[1], 1)]))
            .traffic_source(Box::new(source))
            .fleet_plan(Box::new(autoscaler))
            .build()
            .expect("fleet and traffic are set");
        add(
            format!("autoscale/{seed}"),
            scenario,
            with_seed(
                FabricConfig::default().telemetry(SimDuration::from_millis(500)),
                seed,
            ),
        );
    }

    // Balancer faults: a balancer dies and recovers mid-run.
    for seed in [2u64, 14, 33, 52] {
        let mut scenario = fig8_scenario(SystemKind::SkyWalker, Workload::Arena, 0.03, seed);
        scenario.faults = vec![
            FaultEvent {
                at: SimTime::from_secs(3),
                lb_index: (seed % 3) as u32,
                down: true,
            },
            FaultEvent {
                at: SimTime::from_secs(9),
                lb_index: (seed % 3) as u32,
                down: false,
            },
        ];
        add(
            format!("lb-faults/{seed}"),
            scenario,
            with_seed(FabricConfig::default(), seed),
        );
    }

    // Runs cut at their deadline, between and on span boundaries.
    for seed in [3u64, 7, 12] {
        for deadline_us in [2_000_000u64, 4_321_987, 6_500_000, 9_999_999, 15_000_000] {
            add(
                format!("deadline/{seed}/{deadline_us}"),
                fig8_scenario(SystemKind::SkyWalker, Workload::WildChat, 0.03, seed),
                FabricConfig {
                    seed,
                    deadline: SimTime::from_micros(deadline_us),
                    ..FabricConfig::default()
                },
            );
        }
    }

    // Lockstep: a zero-latency network and uniform requests start every
    // replica's spans together, so span ends tie on instant and on
    // scheduling instant.
    for (replicas, clients, output) in [
        (2u32, 4u32, 9u32),
        (3, 6, 16),
        (4, 4, 33),
        (4, 16, 12),
        (6, 12, 25),
        (1, 3, 40),
        (3, 3, 7),
        (5, 20, 18),
    ] {
        for stages in [1u32, 3] {
            let scenario = SystemKind::SkyWalker
                .builder()
                .replicas(lite_fleet(&[(REGIONS[0], replicas)]))
                .clients(uniform_clients(clients, stages, 1, 48, output, 1))
                .build()
                .expect("fleet and clients are set");
            add(
                format!("lockstep/{replicas}x{clients}/{output}/{stages}"),
                scenario,
                zero_net(),
            );
        }
    }

    // Forced coincidences: every step is a multiple of 20 ms, which
    // divides the 100 ms probe interval, on a zero-latency network. The
    // deadline cells also cut the run on a grid instant (1.3 s).
    for (profile, replicas, clients, fanout, output) in [
        (GRID, 1u32, 2u32, 1u32, 7u32),
        (GRID, 2, 4, 1, 12),
        (GRID, 2, 3, 2, 20),
        (GRID, 3, 6, 2, 9),
        (GRID, 4, 10, 1, 31),
        (GRID, 2, 8, 3, 5),
        (GRID, 5, 5, 1, 64),
        (GRID_SCALED, 2, 5, 1, 13),
        (GRID_SCALED, 3, 7, 2, 21),
        (GRID_SCALED, 2, 24, 1, 15),
        (GRID_SCALED, 3, 30, 2, 11),
        (GRID, 2, 24, 2, 17),
    ] {
        for (variant, cfg) in [
            ("plain", zero_net()),
            ("traced", zero_net().traced()),
            (
                "telemetry",
                zero_net().telemetry(SimDuration::from_millis(100)),
            ),
            (
                "deadline",
                FabricConfig {
                    deadline: SimTime::from_millis(1_300),
                    ..zero_net()
                },
            ),
        ] {
            let scenario = SystemKind::SkyWalker
                .builder()
                .replicas(
                    (0..replicas)
                        .map(|_| skywalker::ReplicaPlacement {
                            region: REGIONS[0],
                            profile,
                        })
                        .collect(),
                )
                .clients(uniform_clients(clients, 3, fanout, 40, output, 1))
                .build()
                .expect("fleet and clients are set");
            add(
                format!(
                    "{}/{replicas}x{clients}x{fanout}/{output}/{variant}",
                    profile.name
                ),
                scenario,
                cfg,
            );
        }
    }

    // Span ends of different step lengths meeting at one instant, where
    // the replica that opened its span first has the shorter step, so
    // its last boundary is the later one: the per-iteration model
    // delivers the other replica's completion first. See `meeting`.
    for (first, second) in [(4u32, 6u32), (6, 9), (8, 12), (10, 15)] {
        for long in [30u32, 41] {
            add(
                format!("meet/{first}-{second}/{long}"),
                meeting(first, second, long),
                zero_net(),
            );
        }
    }

    cells
}

#[test]
fn coalesced_runs_match_the_per_iteration_model() {
    let cells = cells();
    assert!(cells.len() >= 200, "only {} cells", cells.len());
    let (mut coalesced, mut reference) = (0u64, 0u64);
    for (tag, scenario, cfg) in &cells {
        let p = assert_parity(tag, scenario, cfg);
        assert!(
            p.coalesced <= p.reference,
            "{tag}: coalescing delivered more events ({} > {})",
            p.coalesced,
            p.reference
        );
        coalesced += p.coalesced;
        reference += p.reference;
    }
    // The suite is only a check of coalescing if coalescing happened.
    assert!(
        coalesced * 10 < reference * 7,
        "coalescing removed too little: {coalesced} of {reference} events delivered"
    );
}
