//! The open-loop ladder: paced sends on the one generator thread.
//!
//! Independent users do not wait for each other, so queueing only shows
//! under an open loop: batches go out on a fixed schedule whether or not
//! earlier answers are back, latency runs from the **scheduled** send
//! (a stall delays every batch behind it and each of them says so), and
//! the generator reports how late it ran itself. One thread does it all:
//! it busy-waits on the schedule, writes due frames and drains a
//! non-blocking socket in the same loop. The ladder feeds per-layer
//! queue-wait metrics only — tails do not gate on this box.

use crate::stats;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tivgate::proto::{self, FrameStep};

/// The send schedule and its lateness accounting: batch `i` is due at
/// `i * interval_ns`.
#[derive(Debug)]
pub struct Pacer {
    interval_ns: u64,
    count: usize,
    next: usize,
    /// Sends that started a whole interval or more behind schedule (the
    /// next batch was already due: the schedule slipped a slot).
    pub late: usize,
    /// Worst send lag behind schedule.
    pub max_lag_ns: u64,
}

impl Pacer {
    /// `count` sends at `rate` per second.
    pub fn new(rate: f64, count: usize) -> Pacer {
        Pacer { interval_ns: (1e9 / rate) as u64, count, next: 0, late: 0, max_lag_ns: 0 }
    }

    /// When batch `i` is due, ns after the schedule's origin.
    pub fn due_ns(&self, i: usize) -> u64 {
        i as u64 * self.interval_ns
    }

    /// The next batch to send if one is due at `now_ns`, accounting its
    /// lag. Call until `None`: after a stall several are due at once.
    pub fn due(&mut self, now_ns: u64) -> Option<usize> {
        if self.next >= self.count || self.due_ns(self.next) > now_ns {
            return None;
        }
        let lag = now_ns - self.due_ns(self.next);
        self.max_lag_ns = self.max_lag_ns.max(lag);
        self.late += usize::from(lag >= self.interval_ns);
        self.next += 1;
        Some(self.next - 1)
    }

    /// True once every batch has been handed out.
    #[cfg(test)]
    pub fn done(&self) -> bool {
        self.next >= self.count
    }

    /// Late sends as a share of all sends so far.
    pub fn late_share(&self) -> f64 {
        self.late as f64 / self.next.max(1) as f64
    }
}

/// One rung of the ladder, measured.
#[derive(Debug)]
pub struct Rung {
    /// Latency from the scheduled send to the answer, µs, per batch.
    pub lat_us: Vec<f64>,
    /// Share of sends that ran a slot or more late.
    pub late_share: f64,
    /// Worst send lag, µs.
    pub max_lag_us: f64,
    /// Batches sent.
    pub attempted: u64,
    /// Batches never answered (or answered with an error frame).
    pub failed: u64,
}

impl Rung {
    /// Median latency from the scheduled send, µs.
    pub fn p50_us(&self) -> f64 {
        stats::median(&self.lat_us)
    }

    /// 99th-percentile latency from the scheduled send, µs.
    pub fn p99_us(&self) -> f64 {
        stats::quantile(&self.lat_us, 0.99)
    }
}

/// Sends `frames` (cycling) to `addr` at `rate` per second for
/// `seconds`, open loop, on the calling thread. Frame `i` must carry
/// request id `i` — that is how an answer finds its schedule slot.
pub fn run_rung(addr: SocketAddr, frames: &[Vec<u8>], rate: f64, seconds: f64) -> io::Result<Rung> {
    let count = ((rate * seconds) as usize).min(frames.len());
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut pacer = Pacer::new(rate, count);
    let mut lat_us = Vec::with_capacity(count);
    let mut refused = 0usize;
    let mut inbox: Vec<u8> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    // A frame the socket took only part of: (frame index, bytes written).
    let mut partial: Option<(usize, usize)> = None;
    let origin = Instant::now();
    let give_up = Duration::from_secs_f64(seconds + 2.0);
    let mut answered = 0usize;
    while answered + refused < count && origin.elapsed() < give_up {
        let now_ns = origin.elapsed().as_nanos() as u64;
        // Writes: finish a partial frame first, then everything due.
        loop {
            let (index, written) = match partial.take() {
                Some(p) => p,
                None => match pacer.due(now_ns) {
                    Some(i) => (i, 0),
                    None => break,
                },
            };
            match stream.write(&frames[index][written..]) {
                Ok(n) if written + n == frames[index].len() => {}
                Ok(n) => {
                    partial = Some((index, written + n));
                    break;
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    partial = Some((index, written));
                    break;
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {
                    partial = Some((index, written));
                }
                Err(e) => return Err(e),
            }
        }
        // Reads: whatever has arrived.
        match stream.read(&mut scratch) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => inbox.extend_from_slice(&scratch[..n]),
            Err(ref e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) => {}
            Err(e) => return Err(e),
        }
        let mut consumed_total = 0;
        while let FrameStep::Frame { body, consumed } = proto::next_frame(&inbox[consumed_total..])
        {
            consumed_total += consumed;
            let seen_ns = origin.elapsed().as_nanos() as u64;
            match proto::decode_response(&body) {
                Ok(resp) if !matches!(resp, proto::Response::Error { .. }) => {
                    let due = pacer.due_ns(resp.id() as usize);
                    lat_us.push(seen_ns.saturating_sub(due) as f64 / 1e3);
                    answered += 1;
                }
                _ => refused += 1,
            }
        }
        inbox.drain(..consumed_total);
        std::hint::spin_loop();
    }
    Ok(Rung {
        lat_us,
        late_share: pacer.late_share(),
        max_lag_us: pacer.max_lag_ns as f64 / 1e3,
        attempted: count as u64,
        // Refused with an error frame, or lost by the deadline.
        failed: (count - answered) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_on_time_generator_is_never_late() {
        // 1000/s: one batch per ms; the clock is polled every 100 µs.
        let mut p = Pacer::new(1000.0, 50);
        let mut sent = Vec::new();
        let mut now = 0u64;
        while !p.done() {
            while let Some(i) = p.due(now) {
                sent.push((i, now));
            }
            now += 100_000;
        }
        assert_eq!(sent.len(), 50);
        assert!(sent.iter().all(|&(i, t)| t == p.due_ns(i)), "each sent exactly when due");
        assert_eq!(p.late, 0);
        assert_eq!(p.late_share(), 0.0);
        assert_eq!(p.max_lag_ns, 0);
    }

    #[test]
    fn a_stalled_clock_shows_up_as_late_sends_and_lag() {
        // Same schedule, but the "clock" stalls for 10 ms after the 20th
        // send (a descheduled generator): the batches that came due
        // during the stall all go out at once, late.
        let mut p = Pacer::new(1000.0, 50);
        let mut now = 0u64;
        let mut sends = 0;
        while !p.done() {
            while p.due(now).is_some() {
                sends += 1;
            }
            now += if sends == 20 && now < 25_000_000 { 10_000_000 } else { 100_000 };
        }
        assert_eq!(sends, 50);
        // Batches 20..=29 came due during the stall; the one due exactly
        // when it ended is on time, the nine before it are a slot or more
        // behind.
        assert_eq!(p.late, 9);
        assert!((p.late_share() - 9.0 / 50.0).abs() < 1e-12);
        // Batch 20 was due at 20 ms and left at 29 ms.
        assert!(p.max_lag_ns >= 9_000_000, "max lag {} ns", p.max_lag_ns);
    }

    #[test]
    fn latency_is_measured_from_the_schedule_not_from_the_send() {
        let p = Pacer::new(4000.0, 10);
        assert_eq!(p.due_ns(0), 0);
        assert_eq!(p.due_ns(4), 1_000_000);
        // A batch scheduled at 1 ms, sent late at 3 ms and answered at
        // 3.2 ms waited 2.2 ms as far as its user is concerned.
        let answered_ns = 3_200_000u64;
        assert_eq!(answered_ns - p.due_ns(4), 2_200_000);
    }
}
