//! Open-loop socket load generation against a replica set.
//!
//! This extends tivserve's Zipf workload generator
//! ([`tivserve::loadgen::generate`] produces the batches; the pure
//! replayability that the in-process equivalence tests rely on carries
//! over unchanged) from closed-loop in-process calls to **open-loop
//! wire traffic**: batches are sent at pre-scheduled arrival times
//! regardless of whether earlier answers have come back, the way real
//! client populations behave. Latency is measured from the *scheduled*
//! time, not the send time, so queueing delay — the thing closed-loop
//! generators structurally cannot see — shows up in the tail
//! percentiles, and a generator that falls behind its own schedule
//! reports that too ([`GateLoadReport::late_batches`],
//! [`GateLoadReport::max_lag_us`]) instead of silently measuring a
//! slower workload than asked for.
//!
//! One connection per replica; a writer paces sends on the ring
//! ([`HashRing`]) while one reader thread per replica drains responses,
//! so a replica stalling never blocks measurement of the others.

use crate::client::GateClient;
use crate::front::HashRing;
use crate::proto::{encode_request, Request, Response};
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tivserve::loadgen::{LoadReport, LoadSpec, ObservePath, QueryBatch};

/// The measured outcome of an open-loop wire run: the shared
/// [`LoadReport`] core (counts, observation accounting, percentiles —
/// computed by the one constructor in `tivserve::loadgen`) plus what
/// only an open-loop wire client can see: schedule adherence and
/// error frames.
#[derive(Clone, Copy, Debug)]
pub struct GateLoadReport {
    /// The shared measurement core. Batch latency is measured from the
    /// *scheduled* send time to the last involved replica's answer.
    pub load: LoadReport,
    /// Replicas the traffic was spread over.
    pub replicas: usize,
    /// Batches whose actual send started after their scheduled time
    /// (the generator itself was backpressured).
    pub late_batches: usize,
    /// Worst send lag behind schedule, microseconds.
    pub max_lag_us: f64,
    /// Error frames received instead of answers (0 in a healthy run).
    pub error_frames: usize,
}

impl fmt::Display for GateLoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "gate load: {} queries in {} batches over {} replicas, {:.2}s",
            self.load.queries, self.load.batches, self.replicas, self.load.elapsed_s
        )?;
        writeln!(
            f,
            "  qps {:.0}  p50 {:.0}us  p99 {:.0}us  p999 {:.0}us",
            self.load.qps, self.load.p50_us, self.load.p99_us, self.load.p999_us
        )?;
        writeln!(
            f,
            "  late batches {}  max lag {:.0}us  error frames {}",
            self.late_batches, self.max_lag_us, self.error_frames
        )?;
        write!(
            f,
            "  observations {} = delivered {} + undelivered {}",
            self.load.observations,
            self.load.observations_delivered(),
            self.load.observations_undelivered
        )
    }
}

/// One pre-encoded send: which replica, which batch, the wire bytes,
/// and how many answers it will produce.
struct PlannedSend {
    replica: usize,
    frame: Vec<u8>,
}

/// Plays `batches` against the replicas at `addrs`, open loop, paced
/// at `spec.target_qps` (0 = unpaced back-to-back sends).
///
/// Observations ride along exactly as in the closed-loop generator:
/// delivered to `observe` at their batch's send point, with failures
/// counted, never silently dropped.
pub fn run_open_loop(
    addrs: &[SocketAddr],
    batches: &[QueryBatch],
    spec: LoadSpec,
    observe: ObservePath<'_>,
) -> io::Result<GateLoadReport> {
    assert!(!addrs.is_empty(), "open loop needs at least one replica");
    let ring = HashRing::new(addrs.len());

    // Pre-encode every frame and pre-compute the schedule so the timed
    // loop does nothing but pacing and writes.
    let mut plans: Vec<Vec<PlannedSend>> = Vec::with_capacity(batches.len());
    let mut schedule_s: Vec<f64> = Vec::with_capacity(batches.len());
    let mut expected_per_replica = vec![0usize; addrs.len()];
    let mut queries = 0usize;
    let mut cum_queries = 0usize;
    for (bi, batch) in batches.iter().enumerate() {
        schedule_s.push(if spec.target_qps > 0.0 {
            cum_queries as f64 / spec.target_qps
        } else {
            0.0
        });
        cum_queries += batch.pairs.len();
        queries += batch.pairs.len();
        let mut owned: Vec<Vec<(u32, u32)>> = vec![Vec::new(); addrs.len()];
        for &(a, c) in &batch.pairs {
            let pair = (a as u32, c as u32);
            owned[ring.replica_for(pair)].push(pair);
        }
        let mut sends = Vec::new();
        for (replica, pairs) in owned.into_iter().enumerate() {
            if pairs.is_empty() {
                continue;
            }
            expected_per_replica[replica] += 1;
            sends.push(PlannedSend {
                replica,
                frame: encode_request(&Request::Estimate { id: bi as u32, pairs }),
            });
        }
        plans.push(sends);
    }

    // One connection per replica; readers drain on cloned fds.
    let mut writers = Vec::with_capacity(addrs.len());
    let mut readers = Vec::with_capacity(addrs.len());
    for (&addr, &expected) in addrs.iter().zip(&expected_per_replica) {
        let writer = GateClient::connect(addr)?;
        let mut reader = GateClient::from_stream(writer.try_clone_stream()?);
        // tivlint: allow(pool-discipline, "loadgen reader threads are measurement harness, one per replica socket; latency aggregation is order-independent")
        readers.push(std::thread::spawn(move || -> io::Result<Vec<(u32, Instant, bool)>> {
            let mut seen = Vec::with_capacity(expected);
            for _ in 0..expected {
                let resp = reader.recv()?;
                let err = matches!(resp, Response::Error { .. });
                seen.push((resp.id(), Instant::now(), err));
            }
            Ok(seen)
        }));
        writers.push(writer);
    }

    // The paced send loop.
    let mut observations = 0usize;
    let mut undelivered = 0usize;
    let mut late_batches = 0usize;
    let mut max_lag = Duration::ZERO;
    let start = Instant::now();
    for (bi, sends) in plans.iter().enumerate() {
        let scheduled = Duration::from_secs_f64(schedule_s[bi]);
        let now = start.elapsed();
        if now < scheduled {
            std::thread::sleep(scheduled - now);
        } else if spec.target_qps > 0.0 && now > scheduled {
            late_batches += 1;
            max_lag = max_lag.max(now - scheduled);
        }
        if let ObservePath::Channel(tx) = &observe {
            for &obs in &batches[bi].observations {
                if tx.observe(obs).is_err() {
                    undelivered += 1;
                }
            }
        }
        observations += batches[bi].observations.len();
        for send in sends {
            writers[send.replica].send_bytes(&send.frame)?;
        }
    }

    // Gather completions; a batch completes when its last involved
    // replica answered.
    let mut completion: Vec<Option<Duration>> = vec![None; batches.len()];
    let mut error_frames = 0usize;
    for reader in readers {
        let seen = reader.join().expect("reader thread panicked")?;
        for (id, at, err) in seen {
            if err {
                error_frames += 1;
            }
            let done = at.duration_since(start);
            let slot = &mut completion[id as usize];
            *slot = Some(slot.map_or(done, |prev| prev.max(done)));
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    let mut latencies_us: Vec<f64> = Vec::with_capacity(batches.len());
    for (bi, done) in completion.iter().enumerate() {
        if let Some(done) = done {
            let scheduled = Duration::from_secs_f64(schedule_s[bi]);
            latencies_us.push(done.saturating_sub(scheduled).as_secs_f64() * 1e6);
        }
    }

    Ok(GateLoadReport {
        load: LoadReport::from_latencies(
            queries,
            batches.len(),
            observations,
            undelivered,
            elapsed_s,
            latencies_us,
        ),
        replicas: addrs.len(),
        late_batches,
        max_lag_us: max_lag.as_secs_f64() * 1e6,
        error_frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::testutil::small_builder;
    use tivserve::epoch::{spawn_with, FeedSender};
    use tivserve::loadgen::{generate, WorkloadConfig};

    fn workload(queries: usize) -> WorkloadConfig {
        WorkloadConfig { queries, batch: 16, observe_frac: 0.2, ..WorkloadConfig::default() }
    }

    #[test]
    fn unpaced_run_answers_everything() {
        let (_builder, snap, serve_cfg) = small_builder();
        let matrix = snap.matrix().clone();
        let set = Deployment::new(snap, serve_cfg).replicas(2).spawn().expect("spawn");
        let batches = generate(&workload(200), &matrix);
        let report = run_open_loop(&set.addrs(), &batches, LoadSpec::default(), ObservePath::Drop)
            .expect("run");
        assert_eq!(report.load.queries, 200);
        assert_eq!(report.load.batches, batches.len());
        assert_eq!(report.error_frames, 0);
        assert!(report.load.qps > 0.0);
        assert!(report.load.p50_us <= report.load.p99_us);
        assert!(report.load.p99_us <= report.load.p999_us);
        // Unpaced mode has no schedule to fall behind.
        assert_eq!(report.late_batches, 0);
        assert_eq!(report.max_lag_us, 0.0);
        set.shutdown().expect("shutdown");
    }

    #[test]
    fn observation_accounting_balances_with_a_live_channel() {
        let (builder, snap, serve_cfg) = small_builder();
        let matrix = snap.matrix().clone();
        let set = Deployment::new(snap, serve_cfg).spawn().expect("spawn");
        // The engine is spawned here, not through `.publisher(..)`, so
        // the builder comes back from `join` for the accounting below.
        let service = set.service(0).expect("replica up");
        let stream = spawn_with(builder, 50, move |snapshot| {
            service.publish(snapshot);
        });
        let tx = stream.sender();
        let batches = generate(&workload(150), &matrix);
        let sent: usize = batches.iter().map(|b| b.observations.len()).sum();
        assert!(sent > 0, "workload must carry observations for this test");
        let report =
            run_open_loop(&set.addrs(), &batches, LoadSpec::default(), ObservePath::Channel(&tx))
                .expect("run");
        drop(tx);
        let builder = stream.join();
        // sent == delivered + undelivered, and a live channel loses none.
        assert_eq!(report.load.observations, sent);
        assert_eq!(report.load.observations_undelivered, 0);
        assert_eq!(report.load.observations_delivered(), sent);
        assert_eq!(builder.ingested_total(), sent as u64);
        set.shutdown().expect("shutdown");
    }

    #[test]
    fn dead_publisher_shows_up_as_undelivered_not_silence() {
        let (_builder, snap, serve_cfg) = small_builder();
        let matrix = snap.matrix().clone();
        let set = Deployment::new(snap, serve_cfg).spawn().expect("spawn");
        // A dead publisher from the generator's point of view is a
        // feed with no engine behind it.
        let tx = FeedSender::disconnected();
        let batches = generate(&workload(100), &matrix);
        let sent: usize = batches.iter().map(|b| b.observations.len()).sum();
        assert!(sent > 0);
        let report =
            run_open_loop(&set.addrs(), &batches, LoadSpec::default(), ObservePath::Channel(&tx))
                .expect("run");
        assert_eq!(report.load.observations, sent);
        assert_eq!(report.load.observations_undelivered, sent, "every send hit a closed feed");
        assert_eq!(report.load.observations_delivered(), 0);
        assert_eq!(
            report.load.observations_delivered() + report.load.observations_undelivered,
            sent
        );
        set.shutdown().expect("shutdown");
    }

    #[test]
    fn paced_run_respects_the_schedule_shape() {
        let (_builder, snap, serve_cfg) = small_builder();
        let matrix = snap.matrix().clone();
        let set = Deployment::new(snap, serve_cfg).spawn().expect("spawn");
        let batches = generate(&workload(60), &matrix);
        // A generous rate the tiny service can trivially sustain: the
        // run should take about queries/qps seconds.
        let spec = LoadSpec { target_qps: 2000.0, ..LoadSpec::default() };
        let report = run_open_loop(&set.addrs(), &batches, spec, ObservePath::Drop).expect("run");
        assert!(report.load.elapsed_s >= 60.0 / 2000.0 * 0.5, "pacing was ignored: {report}");
        assert_eq!(report.load.queries, 60);
        set.shutdown().expect("shutdown");
    }
}
