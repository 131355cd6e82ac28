//! A mock inference replica served over TCP.
//!
//! The server wraps the same [`Replica`] state machine the simulator
//! uses, but drives it with wall-clock time: a stepper thread executes
//! continuous-batching iterations and sleeps for each iteration's
//! (scaled) duration, so queueing, batching, and prefix-cache effects are
//! observable through real sockets. The wire surface is the handful of
//! [`Message`]s a balancer needs: `Infer`, `ProbeReplica`, and the
//! response stream `FirstToken` / `Completed`.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use skywalker_net::{read_frame, write_frame, Message};
use skywalker_replica::{GpuProfile, Replica, ReplicaId, Request, StepOutcome};
use skywalker_telemetry::{prometheus_text, MetricsRegistry};

use crate::scrape::{is_ascii_scrape, serve_ascii_scrape};
use crate::sync::Mutex;

struct Shared {
    replica: Mutex<Replica>,
    /// request id → writer channel of the connection that submitted it.
    routes: Mutex<HashMap<u64, Sender<Message>>>,
    shutdown: AtomicBool,
    /// Wall seconds per simulated second (0.05 = 20× faster than real).
    time_scale: f64,
}

impl Shared {
    /// Renders the replica's current state as a Prometheus exposition.
    fn metrics_text(&self) -> String {
        let (id, pending, running, kv, stats) = {
            let r = self.replica.lock();
            (
                r.id(),
                r.pending_len(),
                r.running_len(),
                r.kv_utilization(),
                r.stats(),
            )
        };
        let id = format!("{}", id.0);
        let labels = [("replica", id.as_str())];
        let mut reg = MetricsRegistry::new();
        reg.inc("skywalker_replica_admitted_total", &labels, stats.admitted);
        reg.inc(
            "skywalker_replica_completed_total",
            &labels,
            stats.completed,
        );
        reg.inc(
            "skywalker_replica_prompt_tokens_total",
            &labels,
            stats.prompt_tokens,
        );
        reg.inc(
            "skywalker_replica_cached_prompt_tokens_total",
            &labels,
            stats.cached_prompt_tokens,
        );
        reg.inc(
            "skywalker_replica_generated_tokens_total",
            &labels,
            stats.generated_tokens,
        );
        reg.set_gauge("skywalker_replica_pending", &labels, pending as f64);
        reg.set_gauge("skywalker_replica_running", &labels, running as f64);
        reg.set_gauge("skywalker_kv_utilization", &labels, kv);
        reg.set_gauge("skywalker_replica_hit_ratio", &labels, stats.hit_rate());
        prometheus_text(&reg.snapshot())
    }
}

/// A running replica server bound to 127.0.0.1.
pub struct ReplicaServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ReplicaServer {
    /// Binds to an ephemeral localhost port and starts serving.
    ///
    /// `time_scale` compresses virtual time: 1.0 is real time, 0.05 runs
    /// 20× faster (useful for tests; latency *ratios* are preserved).
    pub fn spawn(id: ReplicaId, profile: GpuProfile, time_scale: f64) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            replica: Mutex::new(Replica::new(id, profile)),
            routes: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            time_scale: time_scale.max(1e-6),
        });

        let mut threads = Vec::new();
        // Stepper: runs the continuous batch against the wall clock.
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || stepper(shared)));
        }
        // Acceptor.
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { break };
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || connection(shared, stream));
                }
            }));
        }
        Ok(ReplicaServer {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current pending-queue depth (test observability).
    pub fn pending_len(&self) -> usize {
        self.shared.replica.lock().pending_len()
    }

    /// Cumulative prefix-cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.shared.replica.lock().stats().hit_rate()
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Unblock the acceptor.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// What the stepper does after one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterStep {
    /// The iteration did work or changed state: publish its outcome.
    Publish,
    /// Nothing is queued or running: nap briefly.
    Nap,
    /// The pending head can never be admitted: reject it so the queue
    /// cannot wedge.
    DropHead,
}

/// Decides what follows an iteration. `idle` must be read under the
/// same replica lock as the step: a request enqueued in between would
/// otherwise be taken for an unadmittable head. A zero-duration step
/// that still `progressed()` (a preemption emptied the batch) leaves a
/// servable head, so it is never a reason to drop one.
fn after_step(out: &StepOutcome, idle: bool) -> AfterStep {
    if out.progressed() {
        AfterStep::Publish
    } else if idle {
        AfterStep::Nap
    } else {
        AfterStep::DropHead
    }
}

fn stepper(shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        // Step, decide and drop an unadmittable head under one lock.
        let (out, next, dropped) = {
            let mut r = shared.replica.lock();
            let out = r.step();
            let next = after_step(&out, r.is_idle());
            let dropped = match next {
                AfterStep::DropHead => r.pop_pending_head(),
                AfterStep::Publish | AfterStep::Nap => None,
            };
            (out, next, dropped)
        };
        match next {
            AfterStep::Publish => {}
            AfterStep::Nap => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            AfterStep::DropHead => {
                if let Some(req) = dropped {
                    let route = shared.routes.lock().remove(&req.id.0);
                    if let Some(tx) = route {
                        let _ = tx.send(Message::Reject {
                            request_id: req.id.0,
                            reason: "request exceeds replica KV capacity".to_string(),
                        });
                    }
                }
                continue;
            }
        }
        // Let the iteration "run" in scaled wall time, then publish its
        // results.
        let wall = out.duration.as_secs_f64() * shared.time_scale;
        std::thread::sleep(Duration::from_secs_f64(wall));
        let routes = shared.routes.lock();
        for id in &out.first_tokens {
            if let Some(tx) = routes.get(&id.0) {
                let _ = tx.send(Message::FirstToken { request_id: id.0 });
            }
        }
        drop(routes);
        let mut routes = shared.routes.lock();
        for c in &out.completions {
            if let Some(tx) = routes.remove(&c.id.0) {
                let _ = tx.send(Message::Completed {
                    request_id: c.id.0,
                    generated: c.generated_tokens,
                    cached_prompt_tokens: c.cached_prompt_tokens,
                });
            }
        }
    }
}

fn connection(shared: Arc<Shared>, stream: TcpStream) {
    // Every replica connection is inbound, so the scrape peek is safe
    // here: a framed peer's first byte is a length prefix ≤ 0x01.
    if is_ascii_scrape(&stream) {
        serve_ascii_scrape(stream, &shared.metrics_text());
        return;
    }
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<Message>();
    // Writer: serializes everything sent to this peer.
    let mut writer = stream;
    let writer_thread = std::thread::spawn(move || {
        while let Ok(msg) = rx.recv() {
            if matches!(msg, Message::Shutdown) || write_frame(&mut writer, &msg).is_err() {
                break;
            }
        }
    });

    while let Ok(msg) = read_frame(&mut reader) {
        match msg {
            Message::Infer {
                request_id,
                session_key,
                prompt,
                max_new_tokens,
                ..
            } => {
                shared.routes.lock().insert(request_id, tx.clone());
                shared.replica.lock().enqueue(Request::new(
                    request_id,
                    session_key,
                    prompt,
                    max_new_tokens,
                ));
            }
            Message::ProbeReplica => {
                let (pending, running, kv) = {
                    let r = shared.replica.lock();
                    (
                        r.pending_len() as u32,
                        r.running_len() as u32,
                        (r.kv_utilization() * 1000.0) as u16,
                    )
                };
                let _ = tx.send(Message::ReplicaStatus {
                    pending,
                    running,
                    kv_utilization_ppt: kv,
                });
            }
            Message::MetricsRequest => {
                let _ = tx.send(Message::MetricsText {
                    text: shared.metrics_text(),
                });
            }
            Message::Shutdown => break,
            _ => {} // Ignore anything a replica should not receive.
        }
    }
    let _ = tx.send(Message::Shutdown);
    let _ = writer_thread.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use skywalker_net::read_frame;

    fn connect(addr: SocketAddr) -> TcpStream {
        TcpStream::connect(addr).expect("connect")
    }

    #[test]
    fn after_step_drops_only_a_stuck_head() {
        use skywalker_replica::RequestId;

        let nothing = StepOutcome::default();
        assert_eq!(after_step(&nothing, true), AfterStep::Nap);
        assert_eq!(after_step(&nothing, false), AfterStep::DropHead);
        let mut r = Replica::new(ReplicaId(0), GpuProfile::L4_LLAMA_8B);
        r.enqueue(Request::new(1, "u", vec![1, 2, 3], 4));
        let worked = r.step();
        assert!(worked.worked());
        assert_eq!(after_step(&worked, r.is_idle()), AfterStep::Publish);
        // A zero-duration preemption leaves a servable head requeued.
        let preempted = StepOutcome {
            preempted: vec![RequestId(7)],
            ..StepOutcome::default()
        };
        assert!(!preempted.worked());
        assert_eq!(after_step(&preempted, false), AfterStep::Publish);
    }

    #[test]
    fn infer_round_trip() {
        let srv = ReplicaServer::spawn(ReplicaId(0), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let mut conn = connect(srv.addr());
        write_frame(
            &mut conn,
            &Message::Infer {
                request_id: 1,
                session_key: "u".into(),
                prompt: vec![1, 2, 3],
                max_new_tokens: 4,
                hops: 0,
            },
        )
        .unwrap();
        let first = read_frame(&mut conn).unwrap();
        assert_eq!(first, Message::FirstToken { request_id: 1 });
        let done = read_frame(&mut conn).unwrap();
        match done {
            Message::Completed {
                request_id,
                generated,
                ..
            } => {
                assert_eq!(request_id, 1);
                assert_eq!(generated, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn probe_reports_status() {
        let srv = ReplicaServer::spawn(ReplicaId(1), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let mut conn = connect(srv.addr());
        write_frame(&mut conn, &Message::ProbeReplica).unwrap();
        match read_frame(&mut conn).unwrap() {
            Message::ReplicaStatus { pending, .. } => assert_eq!(pending, 0),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn concurrent_clients_served() {
        let srv = ReplicaServer::spawn(ReplicaId(2), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let addr = srv.addr();
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut conn = connect(addr);
                    write_frame(
                        &mut conn,
                        &Message::Infer {
                            request_id: i,
                            session_key: format!("u{i}"),
                            prompt: vec![i as u32; 8],
                            max_new_tokens: 3,
                            hops: 0,
                        },
                    )
                    .unwrap();
                    loop {
                        match read_frame(&mut conn).unwrap() {
                            Message::Completed { request_id, .. } => {
                                assert_eq!(request_id, i);
                                break;
                            }
                            Message::FirstToken { request_id } => {
                                assert_eq!(request_id, i)
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        srv.shutdown();
    }

    #[test]
    fn oversized_request_rejected() {
        let srv = ReplicaServer::spawn(ReplicaId(3), GpuProfile::L4_LLAMA_8B, 0.001).unwrap();
        let mut conn = connect(srv.addr());
        // Prompt bigger than the whole KV capacity.
        write_frame(
            &mut conn,
            &Message::Infer {
                request_id: 9,
                session_key: "u".into(),
                prompt: vec![7; 60_000],
                max_new_tokens: 1,
                hops: 0,
            },
        )
        .unwrap();
        match read_frame(&mut conn).unwrap() {
            Message::Reject { request_id, .. } => assert_eq!(request_id, 9),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }
}
