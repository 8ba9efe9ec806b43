//! Benchmark-side spans around the backend, and their join with the
//! client's request spans.
//!
//! The server calls its backend from worker threads. [`TracedBackend`]
//! delegates every call to the real backend and, while tracing is on,
//! records a span per call into a per-thread list. A worker runs one
//! connection to completion, in request order, so the k-th span of a
//! worker thread belongs to the k-th traced request of the connection
//! that worker serves: the pair (connection, sequence) is the request
//! id that joins client and backend spans.

use crate::stats::now_ns;
use crate::workload::Op;
use ddc_serve::{BackendError, BackendHealth, ServeBackend};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// What a request was, as the backend saw it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Call {
    pub update: bool,
    pub point: [i64; 2],
}

impl Call {
    pub fn of(op: &Op) -> Self {
        match *op {
            Op::Update { p, .. } => Call {
                update: true,
                point: p,
            },
            Op::Prefix { p } => Call {
                update: false,
                point: p,
            },
            Op::Range { lo, .. } => Call {
                update: false,
                point: lo,
            },
        }
    }
}

#[derive(Copy, Clone, Debug)]
pub struct BackendSpan {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
}

type SpanList = Arc<Mutex<Vec<BackendSpan>>>;

/// Delegates to the real backend, recording spans while `on` is set.
pub struct TracedBackend {
    inner: Arc<dyn ServeBackend>,
    on: AtomicBool,
    /// One list per worker thread, in first-call order.
    lists: Mutex<Vec<SpanList>>,
}

thread_local! {
    static MY_LIST: std::cell::RefCell<Option<SpanList>> = const { std::cell::RefCell::new(None) };
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn ServeBackend>) -> Self {
        Self {
            inner,
            on: AtomicBool::new(false),
            lists: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off. Callers switch only while no request
    /// is in flight (between closed-loop windows).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Takes every worker's spans, one list per worker thread.
    pub fn take(&self) -> Vec<Vec<BackendSpan>> {
        let lists = self.lists.lock().expect("span registry lock poisoned");
        lists
            .iter()
            .map(|l| std::mem::take(&mut *l.lock().expect("span list lock poisoned")))
            .filter(|l| !l.is_empty())
            .collect()
    }

    fn timed<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.on.load(Ordering::SeqCst) {
            return f();
        }
        let start_ns = now_ns();
        let r = f();
        let end_ns = now_ns();
        let list = MY_LIST.with(|slot| {
            Arc::clone(slot.borrow_mut().get_or_insert_with(|| {
                let list = SpanList::default();
                self.lists
                    .lock()
                    .expect("span registry lock poisoned")
                    .push(Arc::clone(&list));
                list
            }))
        });
        list.lock()
            .expect("span list lock poisoned")
            .push(BackendSpan {
                call,
                start_ns,
                end_ns,
            });
        r
    }
}

fn point2(p: &[i64]) -> [i64; 2] {
    [
        p.first().copied().unwrap_or(i64::MIN),
        p.get(1).copied().unwrap_or(i64::MIN),
    ]
}

impl ServeBackend for TracedBackend {
    fn ndim(&self) -> usize {
        self.inner.ndim()
    }

    fn update(&self, point: &[i64], delta: i64) -> Result<(), BackendError> {
        let call = Call {
            update: true,
            point: point2(point),
        };
        self.timed(call, || self.inner.update(point, delta))
    }

    fn query(&self, lo: &[i64], hi: &[i64]) -> Result<i64, BackendError> {
        let call = Call {
            update: false,
            point: point2(lo),
        };
        self.timed(call, || self.inner.query(lo, hi))
    }

    fn prefix(&self, point: &[i64]) -> Result<i64, BackendError> {
        let call = Call {
            update: false,
            point: point2(point),
        };
        self.timed(call, || self.inner.prefix(point))
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn health(&self) -> BackendHealth {
        self.inner.health()
    }
}

/// A traced request as the client saw it.
#[derive(Copy, Clone, Debug)]
pub struct ClientSpan {
    pub call: Call,
    /// When the request's window was written.
    pub sent_ns: u64,
    /// When the request's own response line arrived.
    pub recv_ns: u64,
}

/// One joined request: client latency and the backend span inside it.
#[derive(Copy, Clone, Debug)]
pub struct Joined {
    pub update: bool,
    pub client_ns: u64,
    pub backend_ns: u64,
}

/// Joins each connection's client spans with the backend spans of the
/// worker that served it. Fails unless every traced request has exactly
/// one backend span, of the same call, lying inside the client span.
pub fn join(
    clients: &[Vec<ClientSpan>],
    workers: &[Vec<BackendSpan>],
) -> Result<Vec<Joined>, String> {
    let busy: Vec<&Vec<ClientSpan>> = clients.iter().filter(|c| !c.is_empty()).collect();
    if busy.len() != workers.len() {
        return Err(format!(
            "{} traced connections but {} traced workers",
            busy.len(),
            workers.len()
        ));
    }
    let mut joined = Vec::new();
    let mut used = vec![false; workers.len()];
    for conn in busy {
        let w = (0..workers.len())
            .find(|&w| {
                !used[w] && workers[w].len() == conn.len() && workers[w][0].call == conn[0].call
            })
            .ok_or("a connection's spans match no worker's spans")?;
        used[w] = true;
        for (seq, (c, b)) in conn.iter().zip(&workers[w]).enumerate() {
            if c.call != b.call {
                return Err(format!(
                    "request {seq}: client sent {:?}, backend ran {:?}",
                    c.call, b.call
                ));
            }
            if b.start_ns < c.sent_ns || b.end_ns > c.recv_ns {
                return Err(format!(
                    "request {seq}: backend span lies outside the client span"
                ));
            }
            joined.push(Joined {
                update: c.call.update,
                client_ns: c.recv_ns - c.sent_ns,
                backend_ns: b.end_ns - b.start_ns,
            });
        }
    }
    Ok(joined)
}
