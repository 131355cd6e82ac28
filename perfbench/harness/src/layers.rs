//! The traced run: per-layer metrics, measured from outside by timing
//! calls into each crate's public functions and by reading the run's
//! `RunSummary` and span attribution.

use std::hint::black_box;
use std::time::Instant;

use skywalker::core::{BalancerConfig, Decision, LbId, RegionalBalancer, RouteTrie};
use skywalker::net::{Message, Region};
use skywalker::replica::{GpuProfile, PrefixCache, Replica, ReplicaId, Request};
use skywalker::sim::{DetRng, Engine, Scheduler, SimDuration, SimTime, World};
use skywalker::{run_scenario, Attribution, FabricConfig, Phase, RunSummary, TelemetryConfig};

use crate::sim::{self, Inputs};
use crate::stats::{median, peak_rss_bytes, rss_bytes, secs_since, Metrics};
use crate::{check, CheckFailed, Workload};

/// Replicas behind the standalone balancer replay.
const ROUTE_REPLICAS: u32 = 8;
/// Operations per timing sample of the microbenchmarks.
const CODEC_OPS: usize = 20_000;
/// Events delivered by the event-queue benchmark.
const QUEUE_EVENTS: u64 = 2_000_000;

/// The per-layer metrics. Returns the generated inputs and how many of
/// the issued requests failed or were left unfinished.
pub fn sim_layers(
    workload: Workload,
    seed: u64,
    metrics: &mut Metrics,
) -> Result<(Inputs, u64), CheckFailed> {
    // Memory first, while this process has done nothing else: resident
    // growth of one untraced run per request it tracked. That run also
    // warms the allocator; the timed untraced run is the next one.
    let t = Instant::now();
    let scenario = sim::build_scenario(workload, seed);
    let build_s = secs_since(t);
    let cfg = FabricConfig::default();
    let rss_before = rss_bytes()?;
    let first = run_scenario(&scenario, &cfg);
    let r = &first.report;
    let tracked = r.completed + r.failed + r.in_flight;
    metrics.put(
        "fabric.rss_bytes_per_req",
        peak_rss_bytes()?.saturating_sub(rss_before) as f64 / tracked.max(1) as f64,
        "bytes",
    );
    drop(first);

    // Input generation: the scenario build plus a pull of the whole
    // traffic stream.
    let t = Instant::now();
    let inputs = Inputs::from_scenario(workload, scenario);
    let pull_s = secs_since(t);
    metrics.put(
        "workload.gen_ns_per_req",
        (build_s + pull_s) * 1e9 / inputs.issued as f64,
        "ns",
    );

    // Untraced, traced, telemetry and untraced again: same outcome,
    // measured overhead. The base is the mean of the two untraced runs,
    // so a drift in host speed cancels to first order.
    let (base, base_s) = sim::checked_run(&inputs, &cfg, None, "first")?;
    let digest = sim::digest(&base);
    let (attribution, traced_s) = sim::traced_run(&inputs, &digest)?;
    let mut telemetry_cfg = cfg.clone();
    telemetry_cfg.telemetry = Some(TelemetryConfig::default());
    let (_, telemetry_s) = sim::checked_run(&inputs, &telemetry_cfg, Some(&digest), "telemetry")?;
    let (_, again_s) = sim::checked_run(&inputs, &cfg, Some(&digest), "repeat")?;
    let base_s = (base_s + again_s) / 2.0;
    metrics.put("trace.overhead_share", traced_s / base_s - 1.0, "share");
    metrics.put(
        "telemetry.overhead_share",
        telemetry_s / base_s - 1.0,
        "share",
    );

    trace_phases(&attribution, metrics);
    summary_layers(&base, metrics);
    let requests = &inputs.requests;
    route_layers(requests, metrics);
    replica_layers(inputs.profile, requests, metrics);
    queue_layer(base.peak_events, metrics);
    codec_layer(requests, metrics)?;
    eprintln!(
        "sim layers {}: untraced {base_s:.3} s, traced {traced_s:.3} s, telemetry {telemetry_s:.3} s; {}",
        workload.name(),
        sim::ending(&inputs.scenario, &base)
    );
    let failed = base.report.failed + base.report.in_flight;
    Ok((inputs, failed))
}

/// Mean simulated seconds per completed request in each phase.
fn trace_phases(a: &Attribution, metrics: &mut Metrics) {
    metrics.put("trace.dropped_events", a.dropped_events as f64, "count");
    let done: Vec<_> = a.completed().collect();
    let per_req = |phase: Phase| {
        let total: f64 = done.iter().map(|r| r.phases.get(phase).as_secs_f64()).sum();
        total / done.len().max(1) as f64
    };
    for (name, phase) in [
        ("trace.lb_queue_s", Phase::LbQueue),
        ("trace.kv_stall_s", Phase::KvStall),
        ("trace.admission_wait_s", Phase::AdmissionWait),
        ("trace.forward_net_s", Phase::ForwardNet),
        ("trace.dispatch_net_s", Phase::DispatchNet),
        ("trace.prefill_s", Phase::Prefill),
        ("trace.decode_s", Phase::Decode),
    ] {
        metrics.put(name, per_req(phase), "s");
    }
}

/// Layer counters the fabric already reports in its summary.
fn summary_layers(s: &RunSummary, metrics: &mut Metrics) {
    let completed = s.report.completed.max(1) as f64;
    metrics.put("core.lb_queue_peak", s.peak_lb_queue as f64, "count");
    metrics.put(
        "core.forwarded_share",
        s.forwarded as f64 / completed,
        "share",
    );
    metrics.put(
        "core.outstanding_imbalance",
        s.outstanding_imbalance,
        "ratio",
    );
    metrics.put("replica.hit_rate", s.replica_hit_rate, "share");
    metrics.put("replica.evicted_tokens", s.evicted_tokens as f64, "tokens");
    metrics.put("replica.preempted", s.preempted as f64, "count");
    metrics.put("sim.events_peak", s.peak_events as f64, "count");
    metrics.put("cost.replica_s", sim::replica_seconds(s), "s");
}

/// The balancer on its own: `submit` + `dispatch` per request against a
/// fixed replica set whose oldest in-flight request completes whenever
/// the in-flight count reaches twice the replica count, plus the route
/// trie's `best_match` over the same prompts.
fn route_layers(requests: &[Request], metrics: &mut Metrics) {
    let mut lb = RegionalBalancer::new(LbId(0), BalancerConfig::skywalker(Region::UsEast));
    for i in 0..ROUTE_REPLICAS {
        lb.add_replica(ReplicaId(i));
    }
    let mut inflight = std::collections::VecDeque::new();
    // Owned copies made up front, so the timed loop only routes.
    let batch = requests.to_vec();
    let t = Instant::now();
    for r in batch {
        lb.submit(r, 0);
        for d in lb.dispatch() {
            if let Decision::Local { replica, .. } = d {
                inflight.push_back(replica);
            }
        }
        while inflight.len() >= 2 * ROUTE_REPLICAS as usize {
            let rid = inflight.pop_front().expect("non-empty");
            lb.on_replica_complete(rid);
            lb.on_replica_probe(rid, 0, 0, 0.0);
        }
    }
    let route_s = secs_since(t);
    metrics.put(
        "core.route_ns_per_req",
        route_s * 1e9 / requests.len() as f64,
        "ns",
    );

    let mut trie = RouteTrie::new(1 << 22);
    let mut matched = 0usize;
    let mut tokens = 0usize;
    let mut match_s = 0.0;
    for (i, r) in requests.iter().enumerate() {
        let t = Instant::now();
        let m = black_box(trie.best_match(&r.prompt, |_| true));
        match_s += secs_since(t);
        matched += m.map_or(0, |m| m.matched);
        tokens += r.prompt.len();
        trie.insert(&r.prompt, ReplicaId(i as u32 % ROUTE_REPLICAS));
    }
    metrics.put(
        "core.trie_match_ns",
        match_s * 1e9 / requests.len() as f64,
        "ns",
    );
    metrics.put(
        "core.prefix_match_share",
        matched as f64 / tokens.max(1) as f64,
        "share",
    );
}

/// One replica on its own: requests fed so that about eight wait at any
/// time, stepped until idle; and the prefix cache's `acquire` over the
/// same prompts.
fn replica_layers(profile: GpuProfile, requests: &[Request], metrics: &mut Metrics) {
    let mut replica = Replica::new(ReplicaId(0), profile);
    let mut next = 0;
    let mut steps = 0u64;
    let mut batch = 0u64;
    let mut step_s = 0.0;
    loop {
        while next < requests.len() && replica.pending_len() < 8 {
            replica.enqueue(requests[next].clone());
            next += 1;
        }
        if next == requests.len() && replica.is_idle() {
            break;
        }
        let t = Instant::now();
        let out = black_box(replica.step());
        step_s += secs_since(t);
        if !out.worked() {
            // Head request can never fit: drop it, as the replica server does.
            replica.pop_pending_head();
            continue;
        }
        steps += 1;
        batch += replica.running_len() as u64 + out.completions.len() as u64;
    }
    metrics.put("replica.step_ns", step_s * 1e9 / steps.max(1) as f64, "ns");
    metrics.put(
        "replica.batch_mean",
        batch as f64 / steps.max(1) as f64,
        "requests",
    );

    // Every call is timed and counted, refused ones too.
    let mut cache = PrefixCache::new(profile.kv);
    let mut acquire_s = 0.0;
    for r in requests {
        let t = Instant::now();
        let got = black_box(cache.acquire(&r.prompt));
        acquire_s += secs_since(t);
        if let Ok((lease, _)) = got {
            cache.complete(lease, &[]);
        }
    }
    metrics.put(
        "replica.kv_acquire_ns",
        acquire_s * 1e9 / requests.len().max(1) as f64,
        "ns",
    );
}

/// A world whose every event schedules one successor, so the queue holds
/// its depth while `QUEUE_EVENTS` are delivered.
struct Churn {
    rng: DetRng,
    delivered: u64,
}

impl World for Churn {
    type Event = u32;

    fn handle(&mut self, _now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
        self.delivered += 1;
        if self.delivered >= QUEUE_EVENTS {
            sched.stop();
            return;
        }
        let delay = SimDuration::from_micros(self.rng.range(1, 1_000_000));
        sched.after(delay, event);
    }
}

/// `sim::Engine` with a no-op world, held at the run's peak depth.
fn queue_layer(depth: usize, metrics: &mut Metrics) {
    let mut rng = DetRng::for_component(1, "perfbench/queue");
    let mut engine: Engine<u32> = Engine::new();
    for i in 0..depth.max(1) {
        let at = SimTime::from_micros(rng.range(0, 1_000_000));
        engine.schedule(at, i as u32);
    }
    let mut world = Churn { rng, delivered: 0 };
    let t = Instant::now();
    let stats = engine.run(&mut world);
    let s = secs_since(t);
    black_box(stats);
    metrics.put(
        "sim.queue_ns_per_event",
        s * 1e9 / world.delivered as f64,
        "ns",
    );
}

/// `Message::encode` / `decode` of an `Infer` frame at the workload's
/// median prompt size.
fn codec_layer(requests: &[Request], metrics: &mut Metrics) -> Result<(), CheckFailed> {
    let lens: Vec<f64> = requests.iter().map(|r| r.prompt.len() as f64).collect();
    let len = median(&lens) as usize;
    let r = requests
        .iter()
        .find(|r| r.prompt.len() == len)
        .expect("the median is one of the lengths");
    let msg = Message::Infer {
        request_id: r.id.0,
        session_key: r.session_key.clone(),
        prompt: r.prompt.clone(),
        max_new_tokens: r.target_output_tokens,
        hops: 0,
    };
    let t = Instant::now();
    let mut bytes = Vec::new();
    for _ in 0..CODEC_OPS {
        bytes = black_box(black_box(&msg).encode());
    }
    let encode_s = secs_since(t);
    let t = Instant::now();
    for _ in 0..CODEC_OPS {
        let _ = black_box(Message::decode(black_box(&bytes)));
    }
    let decode_s = secs_since(t);
    check(Message::decode(&bytes).ok() == Some(msg), || {
        "an Infer frame does not survive encode and decode".to_string()
    })?;
    metrics.put("net.encode_ns", encode_s * 1e9 / CODEC_OPS as f64, "ns");
    metrics.put("net.decode_ns", decode_s * 1e9 / CODEC_OPS as f64, "ns");
    Ok(())
}
