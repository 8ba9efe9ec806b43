//! The closed-loop client: `CONNECTIONS` connections, one thread each.
//!
//! Each connection writes a window of `WINDOW` requests, then reads the
//! `WINDOW` responses before writing more, like an ingester or a
//! dashboard that waits for its replies. A request's latency runs from
//! the write of its window to the arrival of its own response line, so
//! it includes queueing inside the window.
//!
//! The measured time is cut into equal slices. Between slices both
//! connections finish their window and meet at a barrier, so nothing is
//! in flight when the tracing flag changes.

use crate::stats::{now_ns, LatHist};
use crate::trace::{Call, ClientSpan};
use crate::workload::{OpStream, Workload, CONNECTIONS, WINDOW};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// What one connection saw.
#[derive(Default)]
pub struct ConnResult {
    /// Requests written (the stream prefix the oracle regenerates).
    pub sent: u64,
    /// Sequence numbers of requests answered `busy` or `err`, or left
    /// unanswered by a dropped connection.
    pub failed: Vec<u64>,
    pub dropped: bool,
    pub first_error: Option<String>,
    pub acked_updates: u64,
    pub slices: Vec<SliceStats>,
    /// Client spans of the requests in traced slices.
    pub traced: Vec<ClientSpan>,
}

/// What one connection saw in one slice.
#[derive(Default)]
pub struct SliceStats {
    pub acked: u64,
    pub update_lat: LatHist,
    pub query_lat: LatHist,
}

/// The outcome of the measured window.
pub struct Traffic {
    pub conns: Vec<ConnResult>,
    /// Wall seconds of each slice, from release to the last arrival.
    pub slice_s: Vec<f64>,
}

impl Traffic {
    pub fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed.len() as u64).sum()
    }

    pub fn acked(&self) -> u64 {
        self.conns
            .iter()
            .flat_map(|c| &c.slices)
            .map(|s| s.acked)
            .sum()
    }

    pub fn acked_updates(&self) -> u64 {
        self.conns.iter().map(|c| c.acked_updates).sum()
    }

    /// Acknowledged requests per second over the slices `pick` selects.
    pub fn ops_per_s(&self, pick: impl Fn(usize) -> bool) -> f64 {
        let mut acked = 0u64;
        let mut secs = 0.0;
        for (s, &dur) in self.slice_s.iter().enumerate() {
            if pick(s) {
                secs += dur;
                acked += self.conns.iter().map(|c| c.slices[s].acked).sum::<u64>();
            }
        }
        crate::stats::ratio(acked as f64, secs)
    }

    /// Slice `s` of both connections merged.
    pub fn slice(&self, s: usize) -> SliceStats {
        let mut all = SliceStats::default();
        for c in &self.conns {
            all.acked += c.slices[s].acked;
            all.update_lat.merge(&c.slices[s].update_lat);
            all.query_lat.merge(&c.slices[s].query_lat);
        }
        all
    }
}

/// Drives the closed loop for `slices` slices of `slice_secs` each;
/// `on_slice(k)` runs while both connections wait at the barrier before
/// slice `k`, and `traced(k)` says whether the client records spans in
/// slice `k`.
pub fn drive(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    slice_secs: f64,
    slices: usize,
    traced: &(dyn Fn(usize) -> bool + Sync),
    on_slice: &(dyn Fn(usize) + Sync),
) -> Traffic {
    let barrier = Barrier::new(CONNECTIONS);
    let marks: Mutex<Vec<(u64, u64)>> = Mutex::new(vec![(0, 0); slices]);
    let slice_ns = (slice_secs * 1e9) as u64;
    let conns = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (barrier, marks) = (&barrier, &marks);
                scope.spawn(move || {
                    let mut stream = OpStream::new(workload, seed, conn);
                    let mut res = ConnResult {
                        slices: (0..slices).map(|_| SliceStats::default()).collect(),
                        ..ConnResult::default()
                    };
                    let mut io = match connect(addr) {
                        Ok(io) => Some(io),
                        Err(e) => {
                            res.dropped = true;
                            res.first_error = Some(e);
                            None
                        }
                    };
                    let mut wire = Vec::with_capacity(WINDOW * 32);
                    let mut line = String::new();
                    let mut window = Vec::with_capacity(WINDOW);
                    for slice in 0..slices {
                        let leader = barrier.wait().is_leader();
                        if leader {
                            on_slice(slice);
                            marks.lock().expect("slice marks lock")[slice].0 = now_ns();
                        }
                        barrier.wait();
                        let start = marks.lock().expect("slice marks lock")[slice].0;
                        let trace = traced(slice);
                        while let Some((writer, reader)) = io.as_mut() {
                            if now_ns() >= start + slice_ns {
                                break;
                            }
                            wire.clear();
                            window.clear();
                            for _ in 0..WINDOW {
                                let op = stream.next_op();
                                op.write_wire(&mut wire);
                                window.push(op);
                            }
                            let first_seq = res.sent;
                            res.sent += WINDOW as u64;
                            let sent_ns = now_ns();
                            if let Err(e) = writer.write_all(&wire) {
                                res.first_error.get_or_insert(format!("write: {e}"));
                                res.failed.extend(first_seq..res.sent);
                                res.dropped = true;
                                io = None;
                                break;
                            }
                            for (i, op) in window.iter().enumerate() {
                                line.clear();
                                let n = reader.read_line(&mut line);
                                let recv_ns = now_ns();
                                if !matches!(n, Ok(k) if k > 0) {
                                    res.first_error
                                        .get_or_insert(format!("read: {n:?} (connection dropped)"));
                                    res.failed.extend(first_seq + i as u64..res.sent);
                                    res.dropped = true;
                                    break;
                                }
                                let reply = line.trim_end();
                                let ok = if op.is_update() {
                                    reply == "ok"
                                } else {
                                    reply.parse::<i64>().is_ok()
                                };
                                if !ok {
                                    res.first_error
                                        .get_or_insert(format!("{op:?} answered {reply:?}"));
                                    res.failed.push(first_seq + i as u64);
                                    continue;
                                }
                                let lat = recv_ns - sent_ns;
                                let stats = &mut res.slices[slice];
                                if op.is_update() {
                                    res.acked_updates += 1;
                                    stats.update_lat.record(lat);
                                } else {
                                    stats.query_lat.record(lat);
                                }
                                stats.acked += 1;
                                if trace {
                                    res.traced.push(ClientSpan {
                                        call: Call::of(op),
                                        sent_ns,
                                        recv_ns,
                                    });
                                }
                            }
                            if res.dropped {
                                io = None;
                            }
                        }
                        if barrier.wait().is_leader() {
                            marks.lock().expect("slice marks lock")[slice].1 = now_ns();
                        }
                    }
                    res
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let slice_s = marks
        .into_inner()
        .expect("slice marks lock")
        .iter()
        .map(|&(a, b)| b.saturating_sub(a) as f64 / 1e9)
        .collect();
    Traffic { conns, slice_s }
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    // A stuck server must not hang the run past its time limit.
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    let r = s.try_clone().map_err(|e| e.to_string())?;
    Ok((s, BufReader::new(r)))
}
