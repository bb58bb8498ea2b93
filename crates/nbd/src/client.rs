//! The NBD client block device.
//!
//! Requests are served strictly one at a time: send the header (and write
//! payload), block until the reply (and read payload) returns, complete,
//! then start the next queued request — the blocking transfer mode the
//! paper contrasts with HPBD's asynchronous design (§6.2).

use crate::proto::{NbdCmd, NbdReply, NbdRequest, REPLY_SIZE};
use crate::NbdServer;
use blockdev::{BlockDevice, DeviceHealth, FaultKind, IoError, IoOp, IoRequest};
use bytes::Bytes;
use netmodel::Transport;
use simcore::{Engine, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use tcpsim::TcpConn;

struct ClientInner {
    engine: Engine,
    /// The connection, owned here. Each continuation it stores (the
    /// reset handler and the reply receives) holds the device weakly.
    conn: TcpConn,
    /// The server at the far end. Nothing else holds it, so dropping the
    /// device frees its server too.
    _server: NbdServer,
    capacity: u64,
    queue: RefCell<VecDeque<IoRequest>>,
    /// The single blocking-mode request currently on the wire. Held here
    /// (not moved into the recv continuation) so a connection reset can
    /// fail it: tcpsim drops pending continuations on reset, and a request
    /// captured by one would vanish without ever completing.
    inflight: RefCell<Option<IoRequest>>,
    /// Lifecycle part index of the in-flight request (one at a time, so a
    /// plain cell is enough).
    inflight_part: Cell<u16>,
    busy: Cell<bool>,
    /// Set on TCP reset or shutdown; the device stops serving for good
    /// (Linux 2.4 NBD has no reconnect path — the paper's baseline simply
    /// loses its device when the connection dies).
    failed: Cell<bool>,
    next_handle: Cell<u64>,
    name: String,
    ctr_requests: simtrace::LazyCounter,
}

/// The NBD block device. Clone shares the device.
#[derive(Clone)]
pub struct NbdClient {
    inner: Rc<ClientInner>,
}

impl NbdClient {
    /// Wrap an established connection to `server` as a block device of
    /// `capacity` bytes.
    pub fn new(
        engine: Engine,
        conn: TcpConn,
        server: NbdServer,
        capacity: u64,
        transport: Transport,
    ) -> NbdClient {
        let client = NbdClient {
            inner: Rc::new(ClientInner {
                ctr_requests: engine.metrics().lazy_counter("nbd.requests"),
                engine,
                conn,
                _server: server,
                capacity,
                queue: RefCell::new(VecDeque::new()),
                inflight: RefCell::new(None),
                inflight_part: Cell::new(0),
                busy: Cell::new(false),
                failed: Cell::new(false),
                next_handle: Cell::new(1),
                name: format!("nbd0-{}", transport.label()),
            }),
        };
        let weak = Rc::downgrade(&client.inner);
        client.inner.conn.set_reset_handler(move || {
            if let Some(inner) = weak.upgrade() {
                NbdClient { inner }.on_reset();
            }
        });
        client
    }

    /// A receive continuation that runs `body` on the device if it still
    /// exists: the connection the device owns stores it, so a strong
    /// capture would be a cycle.
    fn weak(&self, body: impl FnOnce(&NbdClient, Bytes) + 'static) -> impl FnOnce(Bytes) {
        let weak = Rc::downgrade(&self.inner);
        move |data| {
            if let Some(inner) = weak.upgrade() {
                body(&NbdClient { inner }, data);
            }
        }
    }

    /// Start the next queued request if the single in-flight slot is free.
    fn pump(&self) {
        let inner = &self.inner;
        if inner.busy.get() || inner.failed.get() {
            return;
        }
        let Some(req) = inner.queue.borrow_mut().pop_front() else {
            return;
        };
        inner.busy.set(true);
        let handle = inner.next_handle.get();
        inner.next_handle.set(handle + 1);
        let started = inner.engine.now();
        inner.ctr_requests.inc();
        if let Some(ctx) = req.lifecycle() {
            // One attempt, one part: time before here is queue wait, the
            // stretch from Posted to ReplyReceived is the blocking transfer.
            let part = ctx.alloc_part();
            inner.inflight_part.set(part);
            ctx.mark(part, 0, simtrace::MarkKind::Posted, started.as_nanos());
        }

        let header = NbdRequest::new(
            match req.op() {
                IoOp::Read => NbdCmd::Read,
                IoOp::Write => NbdCmd::Write,
            },
            handle,
            req.offset(),
            req.len() as u32,
        );
        inner.conn.send(header.encode());
        if req.op() == IoOp::Write {
            inner.conn.send(Bytes::from(req.gather()));
        }

        let op = req.op();
        let len = req.len();
        *inner.inflight.borrow_mut() = Some(req);

        // Block on the reply header, then (for reads) the payload.
        let on_reply = move |this: &NbdClient, raw| this.on_reply(raw, handle, op, len, started);
        inner.conn.recv(REPLY_SIZE, self.weak(on_reply));
    }

    /// The reply header of request `handle` arrived.
    fn on_reply(&self, raw: Bytes, handle: u64, op: IoOp, len: u64, started: SimTime) {
        let engine = self.inner.engine.clone();
        let span_done = move |ok: bool| {
            engine.span(
                "nbd",
                match op {
                    IoOp::Read => "request_read",
                    IoOp::Write => "request_write",
                },
                started.as_nanos(),
                engine.now().as_nanos(),
                &[("handle", handle), ("bytes", len), ("ok", ok as u64)],
            );
            let us = (engine.now().since(started).as_nanos() / 1_000) as f64;
            engine.metrics().observe(
                match op {
                    IoOp::Read => "nbd.swap_in_latency_us",
                    IoOp::Write => "nbd.swap_out_latency_us",
                },
                us,
            );
        };
        let reply = match NbdReply::decode(raw) {
            Ok(reply) => reply,
            Err(_) => {
                // Stream corruption: the device cannot trust anything
                // that follows, so fail the request.
                span_done(false);
                self.finish(Err(IoError::DeviceError("corrupt NBD reply")));
                return;
            }
        };
        assert_eq!(reply.handle(), handle, "NBD reply out of order");
        if reply.error() != 0 {
            span_done(false);
            self.finish(Err(IoError::DeviceError("nbd server error")));
            return;
        }
        match op {
            IoOp::Write => {
                span_done(true);
                self.finish(Ok(()));
            }
            IoOp::Read => {
                let on_payload = move |this: &NbdClient, data: Bytes| {
                    if let Some(req) = this.inner.inflight.borrow().as_ref() {
                        req.scatter(&data);
                    }
                    span_done(true);
                    this.finish(Ok(()));
                };
                self.inner.conn.recv(len as usize, self.weak(on_payload));
            }
        }
    }

    fn finish(&self, result: Result<(), IoError>) {
        let Some(req) = self.inner.inflight.borrow_mut().take() else {
            return; // a reset already failed this request
        };
        if let Some(ctx) = req.lifecycle() {
            let part = self.inner.inflight_part.get();
            let now = self.inner.engine.now().as_nanos();
            ctx.mark(part, 0, simtrace::MarkKind::ReplyReceived, now);
            ctx.mark(part, 0, simtrace::MarkKind::Done, now);
        }
        req.complete(result);
        self.inner.busy.set(false);
        // Next request, from the event loop.
        let this = self.clone();
        self.inner
            .engine
            .schedule_at(self.inner.engine.now(), move || this.pump());
    }

    /// The connection died under us. Fail the in-flight request and
    /// everything queued behind it with [`FaultKind::Reset`], and refuse
    /// all future submissions: the paper-era NBD driver has no reconnect.
    /// Runs from the event loop (tcpsim defers the handler), so completing
    /// requests directly preserves callback-after-return ordering.
    fn on_reset(&self) {
        let inner = &self.inner;
        if inner.failed.replace(true) {
            return;
        }
        inner.engine.metrics().inc("nbd.resets");
        inner.engine.instant("nbd", "reset", &[]);
        let inflight = inner.inflight.borrow_mut().take();
        if let Some(req) = inflight {
            req.complete(Err(IoError::Fault(FaultKind::Reset)));
        }
        inner.busy.set(false);
        let queued: Vec<IoRequest> = inner.queue.borrow_mut().drain(..).collect();
        for req in queued {
            req.complete(Err(IoError::Fault(FaultKind::Reset)));
        }
    }
}

impl BlockDevice for NbdClient {
    fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    fn name(&self) -> &str {
        &self.inner.name
    }

    fn submit(&self, req: IoRequest) {
        let inner = &self.inner;
        if inner.failed.get() {
            let engine = inner.engine.clone();
            engine.schedule_at(engine.now(), move || {
                req.complete(Err(IoError::Fault(FaultKind::Reset)))
            });
            return;
        }
        if req.offset() + req.len() > inner.capacity {
            let engine = inner.engine.clone();
            engine.schedule_at(engine.now(), move || req.complete(Err(IoError::OutOfRange)));
            return;
        }
        inner.queue.borrow_mut().push_back(req);
        self.pump();
    }

    fn shutdown(&self) {
        self.inner.failed.set(true);
    }

    fn health(&self) -> DeviceHealth {
        if self.inner.failed.get() || self.inner.conn.is_reset() {
            DeviceHealth::Failed
        } else {
            DeviceHealth::Healthy
        }
    }
}
