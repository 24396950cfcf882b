//! The resident server: config validation, the accept loop, routing,
//! and the sealed shutdown path.
//!
//! Routes (one request per connection, `Connection: close`):
//!
//! * `POST /ingest/{tenant}` — upload a catalog body (JSONL/`WTRCAT`).
//!   `200` with a small JSON receipt; `400` with the scanner's
//!   line-numbered error on malformed records; `413` past the body cap.
//! * `GET /report/{tenant}/{table}` — one of [`TABLES`], rendered at
//!   the tenant's current absorb generation (`x-wtr-generation`
//!   header). `404` for unknown tenants or tables.
//! * `GET /healthz` — liveness probe.
//! * `POST /shutdown` — seal every tenant's open days, stop accepting,
//!   drain the worker pool and return from [`Server::run`] cleanly.
//!   This is the sanctioned clean-stop path: the workspace forbids
//!   `unsafe`, so no OS signal handler can be installed — `SIGTERM`
//!   keeps its default disposition and skips the seal.
//!
//! A request not fully received within 30 s of accept, on any route,
//! gets `408`. One that arrived whole while it waited for a worker is
//! answered, however long it waited.

use crate::http::{read_request, write_response, HttpError, Request, REQUEST_DEADLINE};
use crate::pool::Pool;
use crate::tenant::{Tenant, TABLES};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Pause before retrying a failed `accept`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Server configuration, as validated from `wtr serve` flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8080`. Port 0 picks a free one.
    pub addr: String,
    /// Worker threads handling connections; must be at least 1.
    pub workers: usize,
    /// Watermark width in seconds; rounds *up* to whole days (the
    /// catalog's time unit), so any nonzero watermark keeps at least
    /// one trailing day open.
    pub watermark_secs: u64,
    /// Hard cap on request bodies; a larger declared length is `413`.
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8080".to_owned(),
            workers: 4,
            watermark_secs: 86_400,
            max_body_bytes: 64 * 1024 * 1024,
        }
    }
}

impl ServerConfig {
    /// Rejects configurations the server cannot run with.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("--workers must be at least 1".into());
        }
        if self.max_body_bytes == 0 {
            return Err("--max-body-bytes must be at least 1".into());
        }
        Ok(())
    }

    /// The watermark in catalog days (seconds rounded up).
    pub fn watermark_days(&self) -> u32 {
        u32::try_from(self.watermark_secs.div_ceil(86_400)).unwrap_or(u32::MAX)
    }
}

/// Shared server state: the tenant map plus the shutdown latch.
struct State {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    watermark_days: u32,
    max_body_bytes: usize,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl State {
    /// Existing tenant, if any.
    fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("tenants poisoned")
            .get(name)
            .cloned()
    }

    /// Tenant for `name`, created on first ingest.
    fn tenant_or_create(&self, name: &str) -> Arc<Tenant> {
        if let Some(t) = self.tenant(name) {
            return t;
        }
        let mut map = self.tenants.write().expect("tenants poisoned");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Tenant::new(name, self.watermark_days))),
        )
    }

    /// Seals every tenant's open days (the shutdown path).
    fn seal_all(&self) {
        let tenants: Vec<Arc<Tenant>> = self
            .tenants
            .read()
            .expect("tenants poisoned")
            .values()
            .cloned()
            .collect();
        for tenant in tenants {
            tenant.seal_all();
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    workers: usize,
}

impl Server {
    /// Validates `config` and binds the listener.
    pub fn bind(config: ServerConfig) -> Result<Server, String> {
        config.validate()?;
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        Ok(Server {
            listener,
            state: Arc::new(State {
                tenants: RwLock::new(BTreeMap::new()),
                watermark_days: config.watermark_days(),
                max_body_bytes: config.max_body_bytes,
                shutdown: AtomicBool::new(false),
                addr,
            }),
            workers: config.workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A handle that can stop this server from another thread (tests).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Accepts connections until shutdown, dispatching each to the
    /// worker pool with a request deadline 30 s after accept. On
    /// shutdown: stops accepting, drains in-flight requests, seals every
    /// tenant's open days, and returns `Ok(())`. No accept error ends
    /// the loop.
    pub fn run(self) -> io::Result<()> {
        let mut pool = Pool::new(self.workers);
        let mut failing = false;
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    failing = false;
                    let deadline = Instant::now() + REQUEST_DEADLINE;
                    let state = Arc::clone(&self.state);
                    pool.execute(move || handle_connection(stream, deadline, &state));
                }
                // Transient accept errors (aborted handshakes) are not
                // fatal to a resident server.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Anything else, such as a connection flood at the
                // descriptor limit (EMFILE), clears as open connections
                // close: back off and retry, one stderr line per stretch.
                Err(e) => {
                    if !failing {
                        eprintln!("wtr-serve: accept failed, retrying: {e}");
                        failing = true;
                    }
                    thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
        pool.join();
        self.state.seal_all();
        Ok(())
    }
}

/// Stops a running server: sets the latch and wakes the blocked
/// `accept()` with a throwaway connection.
pub struct ShutdownHandle {
    state: Arc<State>,
}

impl ShutdownHandle {
    /// Requests shutdown; idempotent.
    pub fn shutdown(&self) {
        request_shutdown(&self.state);
    }
}

fn request_shutdown(state: &State) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // accept() has no timeout; a loopback connect is the wake-up.
    let _ = TcpStream::connect(state.addr);
}

/// Tenant names are path segments and file-name material in clients:
/// keep them to a conservative charset.
fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// One response: status, extra headers, body.
type Reply = (u16, Vec<(String, String)>, Vec<u8>);

fn reply(status: u16, body: impl Into<Vec<u8>>) -> Reply {
    (status, Vec::new(), body.into())
}

fn handle_connection(mut stream: TcpStream, deadline: Instant, state: &State) {
    let request = match read_request(&mut stream, state.max_body_bytes, deadline) {
        Ok(request) => request,
        Err(HttpError::Bad { status, message }) => {
            let _ = write_response(&mut stream, status, &[], format!("{message}\n").as_bytes());
            return;
        }
        // Socket-level failure: nothing sensible to answer.
        Err(HttpError::Io(_)) => return,
    };
    let (status, headers, body) = route(&request, state);
    let header_refs: Vec<(&str, &str)> = headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    let _ = write_response(&mut stream, status, &header_refs, &body);
}

fn route(request: &Request, state: &State) -> Reply {
    let segments: Vec<&str> = request
        .path
        .trim_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => reply(200, "ok\n"),
        (_, ["healthz"]) => reply(405, "healthz is GET-only\n"),
        ("POST", ["ingest", tenant]) => {
            if !valid_tenant(tenant) {
                return reply(400, format!("invalid tenant name {tenant:?}\n"));
            }
            let tenant = state.tenant_or_create(tenant);
            match tenant.ingest(&request.body) {
                Ok(receipt) => {
                    let body = format!(
                        "{{\"tenant\":\"{}\",\"rows\":{},\"generation\":{},\"sealed_days\":{}}}\n",
                        tenant.name(),
                        receipt.rows,
                        receipt.generation,
                        receipt.sealed_days
                    );
                    (
                        200,
                        vec![(
                            "x-wtr-generation".to_owned(),
                            receipt.generation.to_string(),
                        )],
                        body.into_bytes(),
                    )
                }
                // The IoError Display carries the scanner's 1-based
                // line number ("line N: …") straight to the client.
                Err(e) => reply(400, format!("{e}\n")),
            }
        }
        (_, ["ingest", _]) => reply(405, "ingest is POST-only\n"),
        ("GET", ["report", tenant, table]) => {
            let Some(tenant) = state.tenant(tenant) else {
                return reply(404, format!("unknown tenant {tenant:?}\n"));
            };
            if !TABLES.contains(table) {
                return reply(404, format!("unknown table {table:?}\n"));
            }
            match tenant.reports() {
                Ok(set) => (
                    200,
                    vec![("x-wtr-generation".to_owned(), set.generation.to_string())],
                    set.tables[table].clone().into_bytes(),
                ),
                Err(e) => reply(500, format!("{e}\n")),
            }
        }
        (_, ["report", _, _]) => reply(405, "report is GET-only\n"),
        ("POST", ["shutdown"]) => {
            state.seal_all();
            request_shutdown(state);
            reply(200, "sealed and shutting down\n")
        }
        (_, ["shutdown"]) => reply(405, "shutdown is POST-only\n"),
        _ => reply(404, format!("no route for {}\n", request.path)),
    }
}
