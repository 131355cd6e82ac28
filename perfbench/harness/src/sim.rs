//! The simulated workloads: each one's scenario, its generated inputs,
//! and the end-to-end `sim_*` metrics with their output checks.

use std::time::{Duration, Instant};

use skywalker::cost::{replica_seconds_cost, Pricing};
use skywalker::replica::{GpuProfile, Request};
use skywalker::sim::{DetRng, SimDuration, SimTime};
use skywalker::workload::{ClientSpec, Program};
use skywalker::{
    fig10_diurnal_scenario, fig9_scenario, run_scenario, Attribution, FabricConfig, RunSummary,
    Scenario, SystemKind, TraceConfig,
};

use crate::stats::{median, secs_since, Metrics};
use crate::{check, CheckFailed, Workload};

/// The simulated TTFT limit behind `sim_slo_share`: an interactive 2 s
/// where the fleet keeps up, a minute on the saturated ToT run, whose
/// TTFT is mostly LB queueing (a 2 s limit there counts only the
/// requests issued before the queue formed).
fn slo_ttft(workload: Workload) -> SimDuration {
    match workload {
        Workload::DiurnalServed => SimDuration::from_secs(2),
        Workload::TotPushing => SimDuration::from_secs(60),
    }
}

/// `diurnal-served`: replicas per region, compressed day, and scale.
const DIURNAL_PER_REGION: u32 = 12;
const DIURNAL_DAY_S: u64 = 2_400;
const DIURNAL_SCALE: f64 = 0.1;

/// `tot-pushing`: the Fig. 9 fleet and closed-loop client count.
const TOT_REPLICAS: u32 = 16;
const TOT_CLIENTS: u32 = 1_024;

/// A workload's generated inputs: the scenario the fabric runs and the
/// requests the standalone layer measurements replay.
pub struct Inputs {
    pub workload: Workload,
    pub scenario: Scenario,
    /// Requests the scenario's traffic issues before the deadline.
    pub issued: u64,
    /// The first clients' requests, interleaved round-robin across
    /// clients so a user's turns are spread over the replay.
    pub requests: Vec<Request>,
    /// The replica hardware the workload's fleet runs.
    pub profile: GpuProfile,
}

/// Builds the workload's scenario (the measured set-up step).
pub fn build_scenario(workload: Workload, seed: u64) -> Scenario {
    match workload {
        Workload::DiurnalServed => fig10_diurnal_scenario(
            SystemKind::SkyWalker,
            DIURNAL_PER_REGION,
            SimDuration::from_secs(DIURNAL_DAY_S),
            DIURNAL_SCALE,
            seed,
        ),
        Workload::TotPushing => {
            fig9_scenario(SystemKind::SkyWalker, TOT_REPLICAS, TOT_CLIENTS, seed)
        }
    }
}

/// Requests kept from the traffic stream for the layer replays.
const REPLAY_POOL: usize = 6_000;

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        Inputs::from_scenario(workload, build_scenario(workload, seed))
    }

    /// Pulls a fresh copy of the scenario's traffic through
    /// `TrafficSource::next_batch` in the fabric's poll steps, counting
    /// every request and keeping the first clients for the layer replays.
    /// Clients are not all held at once, so the pull's footprint stays
    /// that of the fabric's own streaming.
    pub fn from_scenario(workload: Workload, scenario: Scenario) -> Inputs {
        let cfg = FabricConfig::default();
        let mut source = scenario.traffic.clone();
        let mut rng = DetRng::for_component(0, "perfbench/inputs");
        let mut now = SimTime::ZERO;
        let mut issued = 0u64;
        let mut kept = Vec::new();
        let mut kept_requests = 0;
        while !source.is_exhausted() && now <= cfg.deadline {
            for ev in source.next_batch(now, &mut rng) {
                let n = ev.spec.total_requests();
                issued += n as u64;
                if kept_requests < REPLAY_POOL {
                    kept_requests += n;
                    kept.push(ev.spec);
                }
            }
            now += cfg.traffic_poll_interval;
        }
        let requests = interleave(&kept);
        let profile = scenario.replicas[0].profile;
        Inputs {
            workload,
            scenario,
            issued,
            requests,
            profile,
        }
    }
}

/// Every request of `clients`, taking one request per client in turn.
fn interleave(clients: &[ClientSpec]) -> Vec<Request> {
    let mut lanes: Vec<_> = clients
        .iter()
        .map(|c| c.programs.iter().flat_map(Program::requests))
        .collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for lane in &mut lanes {
            if let Some(r) = lane.next() {
                out.push(r.clone());
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

/// Whether a balancer ever queued as many requests as the fleet has
/// replicas: the run fell behind its demand.
fn saturated(scenario: &Scenario, s: &RunSummary) -> bool {
    s.peak_lb_queue >= scenario.replicas.len()
}

/// How a run ended, checked against the issued count. `diurnal-served`
/// must also keep up: a balancer backlog there fails the run.
pub fn check_accounting(inputs: &Inputs, s: &RunSummary) -> Result<(), CheckFailed> {
    let workload = inputs.workload;
    let r = &s.report;
    let drained = s.end_time < FabricConfig::default().deadline && r.in_flight == 0;
    check(drained, || {
        format!(
            "{} did not drain: ended at {:.0} s with {} in flight",
            workload.name(),
            s.end_time.as_secs_f64(),
            r.in_flight
        )
    })?;
    check(
        r.completed + r.failed + r.in_flight == inputs.issued,
        || {
            format!(
                "completed {} + failed {} + in flight {} != issued {}",
                r.completed, r.failed, r.in_flight, inputs.issued
            )
        },
    )?;
    check(
        workload != Workload::DiurnalServed || !saturated(&inputs.scenario, s),
        || {
            format!(
                "{} fell behind: {}",
                workload.name(),
                ending(&inputs.scenario, s)
            )
        },
    )
}

/// The deterministic `sim_*` metrics of one run and its request
/// accounting, rendered exactly; any two runs of one seed must agree on
/// it byte for byte, observers on or off. (The event-queue peak is left
/// out: a telemetry tick is one more pending event.)
pub fn digest(s: &RunSummary) -> String {
    let r = &s.report;
    format!(
        "completed={} failed={} in_flight={} end_us={} ttft_p50={:?} ttft_p99={:?} ttft_n={} \
         tok_per_s={:?} cost_per_mtok={:?} forwarded={}",
        r.completed,
        r.failed,
        r.in_flight,
        s.end_time.as_micros(),
        r.ttft.p50,
        r.ttft.p99,
        r.ttft.count,
        r.throughput_tps,
        cost_per_mtok(s),
        s.forwarded,
    )
}

/// Replica-seconds the fleet was up over the run.
pub fn replica_seconds(s: &RunSummary) -> f64 {
    s.fleet.mean_total() * s.end_time.as_secs_f64()
}

/// Reserved-instance cost of the run per million served tokens.
pub fn cost_per_mtok(s: &RunSummary) -> f64 {
    let tokens = (s.report.prompt_tokens + s.report.generated_tokens) as f64;
    replica_seconds_cost(replica_seconds(s), Pricing::P5_48XLARGE) / (tokens / 1e6)
}

/// Runs the workload's scenario once under `cfg` and returns the summary
/// and the host seconds it took. The run must pass
/// [`check_accounting`] and, given the digest of an earlier run of the
/// same inputs, reproduce it; `what` names the run in the mismatch.
pub fn checked_run(
    inputs: &Inputs,
    cfg: &FabricConfig,
    expect: Option<&str>,
    what: &str,
) -> Result<(RunSummary, f64), CheckFailed> {
    let t = Instant::now();
    let s = run_scenario(&inputs.scenario, cfg);
    let host_s = secs_since(t);
    check_accounting(inputs, &s)?;
    if let Some(expect) = expect {
        let d = digest(&s);
        check(d == expect, || {
            format!("{what} run differs from the first:\n  {expect}\n  {d}")
        })?;
    }
    Ok((s, host_s))
}

/// Timed repeats per run, however short the budget.
const MIN_TIMED_RUNS: usize = 3;

/// Builds the scenario repeatedly and returns the median build time.
pub fn median_setup_s(workload: Workload, seed: u64, repeats: usize) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            let s = build_scenario(workload, seed);
            let dt = secs_since(t);
            drop(std::hint::black_box(s));
            dt
        })
        .collect();
    median(&times)
}

/// Repeats the workload's untraced run for `budget`,
/// checks every run, and records the `sim_*` metrics except
/// `sim_slo_share`, which needs per-request TTFTs from the traced run.
/// Returns the first run's digest and how many issued requests failed or
/// were left unfinished.
pub fn end_to_end(
    inputs: &Inputs,
    budget: Duration,
    metrics: &mut Metrics,
) -> Result<(String, u64), CheckFailed> {
    let workload = inputs.workload;
    let cfg = FabricConfig::default();
    let start = Instant::now();
    // The first run is the reference the repeats must reproduce. It also
    // pays the allocator's first touch of the run's memory, so it is not
    // timed.
    let (s, _) = checked_run(inputs, &cfg, None, "first")?;
    let r = &s.report;
    eprintln!(
        "sim {}: issued {}, {} TTFT samples; {}",
        workload.name(),
        inputs.issued,
        r.ttft.count,
        ending(&inputs.scenario, &s)
    );
    metrics.put("sim_ttft_p50_s", r.ttft.p50, "s");
    metrics.put("sim_ttft_p99_s", r.ttft.p99, "s");
    metrics.put("sim_tok_per_s", r.throughput_tps, "tok/s");
    metrics.put("sim_cost_per_mtok", cost_per_mtok(&s), "usd/Mtok");
    let completed = r.completed as f64;
    let failed = r.failed + r.in_flight;
    let digest = digest(&s);
    // Only the first run's summary is kept, so no two are alive at once
    // and the memory peak stays one run's.
    drop(s);
    let mut host = Vec::new();
    while host.len() < MIN_TIMED_RUNS || start.elapsed() < budget {
        host.push(checked_run(inputs, &cfg, Some(&digest), "repeat")?.1);
    }
    eprintln!("sim {}: host s per run {host:.3?}", workload.name());
    metrics.put("sim_req_per_host_s", completed / median(&host), "1/s");
    Ok((digest, failed))
}

/// How a drained run ended: *saturated* if a balancer ever queued as
/// many requests as the fleet has replicas, otherwise *served*.
pub fn ending(scenario: &Scenario, s: &RunSummary) -> String {
    let label = if saturated(scenario, s) {
        "saturated"
    } else {
        "served"
    };
    format!(
        "drained at {:.0} s sim, peak LB queue {} ({label})",
        s.end_time.as_secs_f64(),
        s.peak_lb_queue
    )
}

/// Runs the scenario once more, traced with a buffer large enough that no
/// event is dropped. The run must reproduce `digest` and trace every
/// issued request; returns its attribution and host seconds.
pub fn traced_run(inputs: &Inputs, digest: &str) -> Result<(Attribution, f64), CheckFailed> {
    let mut cfg = FabricConfig::default();
    let capacity = (inputs.issued as usize * 32).max(TraceConfig::default().capacity);
    cfg.trace = Some(TraceConfig::with_capacity(capacity));
    let (s, host_s) = checked_run(inputs, &cfg, Some(digest), "traced")?;
    let attribution = Attribution::from_summary(s.trace.as_ref().expect("tracing was enabled"));
    check(attribution.dropped_events == 0, || {
        format!("trace dropped {} events", attribution.dropped_events)
    })?;
    check(attribution.requests.len() as u64 == inputs.issued, || {
        format!(
            "trace saw {} requests, {} issued",
            attribution.requests.len(),
            inputs.issued
        )
    })?;
    Ok((attribution, host_s))
}

/// Share of the issued requests whose simulated TTFT met the workload's
/// limit; failed and unfinished requests count as misses.
pub fn slo_share(inputs: &Inputs, attribution: &Attribution) -> f64 {
    let limit = slo_ttft(inputs.workload);
    let met = attribution
        .completed()
        .filter(|r| r.ttft.as_ref().is_some_and(|t| t.ttft <= limit))
        .count();
    met as f64 / inputs.issued as f64
}
