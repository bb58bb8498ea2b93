//! The NBD server daemon.
//!
//! Memory-backed (the paper's NBD server exports a RamDisk so that the
//! comparison with HPBD isolates the network path). Serves requests
//! sequentially off the stream: read header → (for writes) read payload →
//! touch the store (memcpy cost) → send reply (+ payload for reads).

use crate::proto::{NbdCmd, NbdReply, NbdRequest, REQUEST_SIZE};
use blockdev::Storage;
use bytes::Bytes;
use netmodel::{Calibration, Node};
use simcore::Engine;
use std::cell::RefCell;
use std::rc::Rc;
use tcpsim::TcpConn;

struct ServerInner {
    engine: Engine,
    cal: Rc<Calibration>,
    node: Node,
    storage: Storage,
    /// The connections it serves, owned here. The receive each one holds
    /// names the server weakly and its connection by index.
    conns: RefCell<Vec<TcpConn>>,
}

/// An NBD memory server. Clone shares the instance.
#[derive(Clone)]
pub struct NbdServer {
    inner: Rc<ServerInner>,
}

impl NbdServer {
    /// Create a server on `node` exporting `capacity` bytes of RamDisk.
    pub fn new(engine: Engine, cal: Rc<Calibration>, node: Node, capacity: u64) -> NbdServer {
        NbdServer {
            inner: Rc::new(ServerInner {
                engine,
                cal,
                node,
                storage: Storage::new(capacity),
                conns: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Start the serve loop on `conn`. Runs for as long as the server is
    /// held.
    pub fn serve(&self, conn: TcpConn) {
        let conn_idx = self.inner.conns.borrow().len();
        self.inner.conns.borrow_mut().push(conn);
        self.await_request(conn_idx);
    }

    fn conn(&self, conn_idx: usize) -> TcpConn {
        self.inner.conns.borrow()[conn_idx].clone()
    }

    /// Receive `n` bytes on connection `conn_idx`, then run `body` on the
    /// server if it still exists: the connection the server owns stores
    /// the continuation, so a strong capture would be a cycle.
    fn recv(&self, conn_idx: usize, n: usize, body: impl FnOnce(&NbdServer, Bytes) + 'static) {
        let weak = Rc::downgrade(&self.inner);
        self.conn(conn_idx).recv(n, move |data| {
            if let Some(inner) = weak.upgrade() {
                body(&NbdServer { inner }, data);
            }
        });
    }

    fn await_request(&self, conn_idx: usize) {
        self.recv(conn_idx, REQUEST_SIZE, move |this, raw| {
            // A corrupt header means the stream framing is lost; stop
            // serving this connection rather than misread payloads.
            if let Ok(request) = NbdRequest::decode(raw) {
                this.dispatch(conn_idx, request);
            }
        });
    }

    fn dispatch(&self, conn_idx: usize, request: NbdRequest) {
        let inner = &self.inner;
        let ok = inner
            .storage
            .in_range(request.offset(), request.len() as u64);
        match request.cmd() {
            NbdCmd::Write => {
                // Payload follows the header on the stream.
                self.recv(conn_idx, request.len() as usize, move |this, data| {
                    if !ok {
                        // EIO-style.
                        this.conn(conn_idx)
                            .send(NbdReply::new(request.handle(), 5).encode());
                        this.await_request(conn_idx);
                        return;
                    }
                    // memcpy payload -> store, charged to the server CPU.
                    let inner = &this.inner;
                    let copy = inner.cal.memcpy_time(data.len() as u64);
                    let (_, t) = inner.node.cpu().reserve(inner.engine.now(), copy);
                    let this = this.clone();
                    inner.engine.schedule_at(t, move || {
                        this.inner.storage.write_at(request.offset(), &data);
                        this.conn(conn_idx)
                            .send(NbdReply::new(request.handle(), 0).encode());
                        this.await_request(conn_idx);
                    });
                });
            }
            NbdCmd::Read => {
                if !ok {
                    self.conn(conn_idx)
                        .send(NbdReply::new(request.handle(), 5).encode());
                    self.await_request(conn_idx);
                    return;
                }
                let mut data = vec![0u8; request.len() as usize];
                inner.storage.read_at(request.offset(), &mut data);
                let copy = inner.cal.memcpy_time(request.len() as u64);
                let (_, t) = inner.node.cpu().reserve(inner.engine.now(), copy);
                let this = self.clone();
                inner.engine.schedule_at(t, move || {
                    let conn = this.conn(conn_idx);
                    conn.send(NbdReply::new(request.handle(), 0).encode());
                    conn.send(Bytes::from(data));
                    this.await_request(conn_idx);
                });
            }
        }
    }
}
