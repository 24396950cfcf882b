//! A one-request-per-connection HTTP/1.1 client for the in-process
//! server, and the server's start/stop around a benchmark phase.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use wtr_serve::server::ShutdownHandle;
use wtr_serve::{Server, ServerConfig};

/// A parsed response.
pub struct Reply {
    pub status: u16,
    /// The `x-wtr-generation` header, when present.
    pub generation: Option<u64>,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Sends one request and reads the reply to the server's close.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut frame = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse(&raw).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response"))
}

fn parse(raw: &[u8]) -> Option<Reply> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut generation = None;
    let mut length = None;
    for line in lines {
        let (name, value) = line.split_once(':')?;
        match name.trim().to_ascii_lowercase().as_str() {
            "x-wtr-generation" => generation = value.trim().parse().ok(),
            "content-length" => length = value.trim().parse::<usize>().ok(),
            _ => {}
        }
    }
    let body = raw[split + 4..].to_vec();
    (length == Some(body.len())).then_some(Reply {
        status,
        generation,
        body,
    })
}

/// A server running on its own thread, bound to a free loopback port.
pub struct Running {
    pub addr: SocketAddr,
    handle: ShutdownHandle,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Running {
    /// Binds and starts a server: one worker (the client is closed-loop
    /// with one connection at a time), a one-day watermark.
    pub fn start() -> Running {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            watermark_secs: 86_400,
            max_body_bytes: 64 * 1024 * 1024,
        })
        .expect("bind a loopback port");
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Running {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    /// Stops accepting, drains the worker, joins the server thread and
    /// returns how the server exited.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server exited with {e}")),
            Some(Err(_)) => Err("server thread panicked".to_owned()),
        }
    }
}

impl Drop for Running {
    /// Stops a server that was not stopped explicitly; errors are
    /// ignored here, `stop` reports them.
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_generation_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nconnection: close\r\nx-wtr-generation: 7\r\ncontent-length: 3\r\n\r\nabc";
        let reply = parse(raw).unwrap();
        assert_eq!((reply.status, reply.generation), (200, Some(7)));
        assert_eq!(reply.body, b"abc");
        assert!(parse(b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nabc").is_none());
    }

    #[test]
    fn healthz_round_trip() {
        let server = Running::start();
        let reply = request(server.addr, "GET", "/healthz", &[]).unwrap();
        assert!(reply.ok());
        server.stop().unwrap();
    }
}
