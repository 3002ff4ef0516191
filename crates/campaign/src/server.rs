//! The daemon: an accept loop speaking the [`crate::proto`] frame
//! protocol over TCP or a Unix socket, dispatching onto a
//! [`CampaignHub`].
//!
//! Address syntax (shared with [`crate::Client`]): `tcp:HOST:PORT` binds
//! TCP (`tcp:127.0.0.1:0` picks an ephemeral port — the bound address is
//! reported back); anything else is a Unix socket path. A stale socket
//! file left by a dead daemon is replaced on bind.
//!
//! One thread per connection; the accept loop polls non-blocking so a
//! `shutdown` request (observed by any connection) stops the daemon
//! without needing a self-connect.

use crate::hub::{CampaignConfig, CampaignHub, CampaignView, HubError};
use crate::proto::{
    err_response, hex_encode, ok_response, read_frame, write_frame, ProtoError, Request,
};
use relock_locking::{LockVariant, LockedModel};
use relock_trace::json::Value;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard-coded tunables of the daemon's network surface. A connection
/// that sends no frame for [`ServerConfig::read_deadline`] is dropped —
/// idle clients must reconnect rather than pin a thread forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Per-connection read deadline: the longest the daemon waits for the
    /// next frame before dropping the connection (`None` = wait forever).
    pub read_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_deadline: Some(Duration::from_secs(30)),
        }
    }
}

/// A connected byte stream of either transport.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Connects to a daemon address (`tcp:HOST:PORT` or a socket path).
    pub(crate) fn connect(addr: &str) -> io::Result<Stream> {
        match addr.strip_prefix("tcp:") {
            Some(hostport) => TcpStream::connect(hostport).map(Stream::Tcp),
            None => UnixStream::connect(addr).map(Stream::Unix),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound daemon socket.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-socket listener and the path to unlink on close.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `addr` (`tcp:HOST:PORT` or a Unix socket path).
    pub fn bind(addr: &str) -> io::Result<Listener> {
        match addr.strip_prefix("tcp:") {
            Some(hostport) => TcpListener::bind(hostport).map(Listener::Tcp),
            None => {
                // Replace a stale socket left by a dead daemon.
                let _ = std::fs::remove_file(addr);
                UnixListener::bind(addr).map(|l| Listener::Unix(l, PathBuf::from(addr)))
            }
        }
    }

    /// The address clients should connect to (resolves ephemeral ports).
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => match l.local_addr() {
                Ok(a) => format!("tcp:{a}"),
                Err(_) => "tcp:<unknown>".to_string(),
            },
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A daemon running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: String,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Binds `addr` and serves `hub` on a background thread. The returned
    /// handle reports the bound address (useful with `tcp:127.0.0.1:0`)
    /// and joins the daemon on [`ServerHandle::join`].
    pub fn spawn(hub: Arc<CampaignHub>, addr: &str) -> io::Result<ServerHandle> {
        Self::spawn_with(hub, addr, ServerConfig::default())
    }

    /// Like [`ServerHandle::spawn`] with explicit network tunables.
    pub fn spawn_with(
        hub: Arc<CampaignHub>,
        addr: &str,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = Listener::bind(addr)?;
        let bound = listener.local_addr();
        let thread = std::thread::Builder::new()
            .name("campaign-daemon".to_string())
            .spawn(move || accept_loop(hub, listener, cfg))
            .expect("spawning the daemon thread failed");
        Ok(ServerHandle {
            addr: bound,
            thread,
        })
    }

    /// The bound daemon address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Blocks until the daemon exits (a client sent `shutdown`).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Binds `addr` and serves `hub` until a client sends `shutdown` — the
/// blocking entry point behind `relock serve`.
pub fn serve_forever(hub: Arc<CampaignHub>, addr: &str) -> io::Result<()> {
    let listener = Listener::bind(addr)?;
    accept_loop(hub, listener, ServerConfig::default());
    Ok(())
}

fn accept_loop(hub: Arc<CampaignHub>, listener: Listener, cfg: ServerConfig) {
    let shutdown = Arc::new(AtomicBool::new(false));
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok(stream) => {
                // Accepted sockets may inherit the listener's non-blocking
                // mode on some platforms; frames want blocking reads.
                let blocking_ok = match &stream {
                    Stream::Tcp(s) => s.set_nonblocking(false).is_ok(),
                    Stream::Unix(s) => s.set_nonblocking(false).is_ok(),
                };
                // The read deadline turns an abandoned half-open
                // connection into a `WouldBlock`/`TimedOut` read error,
                // which `serve_connection` treats as a hang-up.
                let deadline_ok = match &stream {
                    Stream::Tcp(s) => s.set_read_timeout(cfg.read_deadline).is_ok(),
                    Stream::Unix(s) => s.set_read_timeout(cfg.read_deadline).is_ok(),
                };
                if !blocking_ok || !deadline_ok {
                    continue;
                }
                let hub = Arc::clone(&hub);
                let shutdown = Arc::clone(&shutdown);
                let _ = std::thread::Builder::new()
                    .name("campaign-conn".to_string())
                    .spawn(move || serve_connection(hub, shutdown, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn serve_connection(hub: Arc<CampaignHub>, shutdown: Arc<AtomicBool>, mut stream: Stream) {
    loop {
        let doc = match read_frame(&mut stream) {
            Ok(Some(doc)) => doc,
            Ok(None) => return, // client hung up cleanly
            // An Io error is a dead or *idle-past-deadline* connection
            // (WouldBlock/TimedOut from the read deadline): drop it.
            Err(ProtoError::Io(_)) => return,
            Err(ProtoError::Malformed(why)) => {
                // One protocol error poisons the framing; answer and drop.
                let _ = write_frame(&mut stream, &err_response("proto_error", &why));
                return;
            }
        };
        let response = match Request::from_value(&doc) {
            Ok(request) => dispatch(&hub, &shutdown, request),
            Err(e) => err_response("bad_request", &e.to_string()),
        };
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

fn hub_error(e: HubError) -> Value {
    let code = match e {
        HubError::UnknownCampaign(_) => "unknown_campaign",
        HubError::InvalidState(_) => "invalid_state",
        HubError::Timeout => "timeout",
        HubError::Overloaded { .. } => "overloaded",
    };
    err_response(code, &e.to_string())
}

/// Serializes a status snapshot for the wire.
fn view_value(v: &CampaignView) -> Value {
    let key = match &v.key {
        Some(key) => Value::str(
            key.bits()
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect::<String>(),
        ),
        None => Value::Null,
    };
    Value::Obj(vec![
        ("id".into(), Value::num_u64(v.id)),
        ("tenant".into(), Value::str(v.tenant.clone())),
        ("state".into(), Value::str(v.state.name())),
        ("queries".into(), Value::num_u64(v.queries)),
        ("requested".into(), Value::num_u64(v.requested)),
        ("cache_hits".into(), Value::num_u64(v.cache_hits)),
        ("layer".into(), Value::num_u64(v.layer as u64)),
        ("phase".into(), Value::str(v.phase.clone())),
        ("segments".into(), Value::num_u64(v.segments)),
        ("crashes".into(), Value::num_u64(v.crashes)),
        ("key".into(), key),
        ("validated".into(), Value::Bool(v.validated)),
        (
            "error".into(),
            match &v.error {
                Some(e) => Value::str(e.clone()),
                None => Value::Null,
            },
        ),
    ])
}

fn dispatch(hub: &Arc<CampaignHub>, shutdown: &AtomicBool, request: Request) -> Value {
    match request {
        Request::Ping => ok_response(vec![]),
        Request::Submit {
            model_path,
            tenant,
            seed,
            weight,
            budget,
            fast,
            monolithic,
            variant,
            checkpoint,
        } => {
            // Reject unknown variants before the model is even opened: a
            // typo must come back as `bad_request`, never take down the
            // daemon or silently run the wrong attack.
            let variant = match variant.parse::<LockVariant>() {
                Ok(v) => v,
                Err(why) => return err_response("bad_request", &why),
            };
            let model = std::fs::File::open(&model_path)
                .map_err(|e| format!("cannot open {model_path:?}: {e}"))
                .and_then(|mut f| {
                    LockedModel::load(&mut f)
                        .map_err(|e| format!("cannot load {model_path:?}: {e}"))
                });
            let model = match model {
                Ok(m) => m,
                Err(why) => return err_response("bad_request", &why),
            };
            let cfg = CampaignConfig {
                tenant,
                seed,
                weight,
                query_budget: budget,
                fast,
                monolithic,
                variant,
                ..CampaignConfig::default()
            };
            let id = match checkpoint {
                Some(bytes) => hub.submit_checkpointed(model, cfg, bytes),
                None => hub.submit(model, cfg),
            };
            match id {
                Ok(id) => ok_response(vec![("id".into(), Value::num_u64(id))]),
                Err(e) => hub_error(e),
            }
        }
        Request::Status { id } => match hub.status(id) {
            Ok(view) => ok_response(vec![("campaign".into(), view_value(&view))]),
            Err(e) => hub_error(e),
        },
        Request::List => {
            let views: Vec<Value> = hub.list().iter().map(view_value).collect();
            ok_response(vec![("campaigns".into(), Value::Arr(views))])
        }
        Request::Pause { id } => match hub.pause(id) {
            Ok(()) => ok_response(vec![]),
            Err(e) => hub_error(e),
        },
        Request::Resume { id } => match hub.resume(id) {
            Ok(()) => ok_response(vec![]),
            Err(e) => hub_error(e),
        },
        Request::Cancel { id } => match hub.cancel(id) {
            Ok(()) => ok_response(vec![]),
            Err(e) => hub_error(e),
        },
        Request::Checkpoint { id } => match hub.checkpoint_bytes(id) {
            Ok(Some(bytes)) => {
                ok_response(vec![("checkpoint".into(), Value::str(hex_encode(&bytes)))])
            }
            Ok(None) => ok_response(vec![("checkpoint".into(), Value::Null)]),
            Err(e) => hub_error(e),
        },
        Request::Stats => {
            let stats = hub.cache_stats();
            ok_response(vec![(
                "cache".into(),
                Value::Obj(vec![
                    ("rows".into(), Value::num_u64(stats.rows as u64)),
                    ("bytes".into(), Value::num_u64(stats.bytes as u64)),
                    ("evicted".into(), Value::num_u64(stats.evicted)),
                ]),
            )])
        }
        Request::Shutdown => {
            shutdown.store(true, Ordering::Relaxed);
            ok_response(vec![])
        }
    }
}
