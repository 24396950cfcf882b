//! Minimal HTTP/1.1 over std: request parsing and response writing for
//! the handful of shapes the server speaks.
//!
//! One request per connection (`Connection: close` on every response) —
//! taps and report clients open short-lived connections, so keep-alive
//! buys nothing but state. The parser is deliberately strict: a bounded
//! header section, a mandatory `Content-Length` for bodies, and an
//! explicit cap on body size enforced *before* the body is read, so an
//! oversized upload is rejected with `413` without buffering it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line + headers, in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Per-connection socket timeout: a stalled peer frees its worker.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed request: method, percent-free path, and the (possibly
/// empty) body.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Declared `Content-Length` body, fully read.
    pub body: Vec<u8>,
}

/// Why a request could not be turned into a [`Request`].
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (including timeouts).
    Io(io::Error),
    /// The head or body violated a protocol bound; the server answers
    /// with this status and message.
    Bad {
        /// Response status to send (400, 413, 431).
        status: u16,
        /// Human-readable reason, sent as the response body.
        message: String,
    },
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn bad(status: u16, message: impl Into<String>) -> HttpError {
    HttpError::Bad {
        status,
        message: message.into(),
    }
}

/// Reads one request from `stream`, enforcing `max_body_bytes`.
///
/// `Expect: 100-continue` is honored (curl sends it for any body over
/// ~1 KiB): the interim `100 Continue` goes out after the head passes
/// validation, so an oversized declared length is refused before the
/// client transmits a single body byte.
pub fn read_request(stream: &mut TcpStream, max_body_bytes: usize) -> Result<Request, HttpError> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    // One-shot request/response: Nagle only adds the delayed-ACK stall.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);

    let mut head_bytes = 0usize;
    let mut read_line = |reader: &mut BufReader<TcpStream>| -> Result<String, HttpError> {
        let mut line = Vec::new();
        // One byte past the budget is enough to refuse: a line with no
        // newline is cut there instead of buffered until the timeout.
        let budget = (MAX_HEAD_BYTES - head_bytes + 1) as u64;
        let n = reader.by_ref().take(budget).read_until(b'\n', &mut line)?;
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(bad(431, "request head too large"));
        }
        if n == 0 {
            return Err(HttpError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            )));
        }
        // Read as bytes: `read_line` would fail a non-UTF-8 line as an
        // I/O error, and the client would get no answer at all.
        let line = String::from_utf8(line).map_err(|_| bad(400, "request head is not UTF-8"))?;
        Ok(line.trim_end_matches(['\r', '\n']).to_owned())
    };

    let request_line = read_line(&mut reader)?;
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_owned(), t.to_owned()),
        _ => return Err(bad(400, format!("malformed request line {request_line:?}"))),
    };
    let path = target
        .split_once('?')
        .map_or(target.as_str(), |(p, _)| p)
        .to_owned();

    let mut content_length: Option<usize> = None;
    let mut expect_continue = false;
    loop {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(400, format!("malformed header line {line:?}")));
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        match name.as_str() {
            "content-length" => {
                // RFC 9112 §6.3: digits only (no sign, no list), and a
                // repeat must agree, or the body's framing is unknown.
                let length = match value.parse::<usize>() {
                    Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
                    _ => return Err(bad(400, format!("bad content-length {value:?}"))),
                };
                if content_length.is_some_and(|seen| seen != length) {
                    return Err(bad(400, "conflicting content-length headers"));
                }
                content_length = Some(length);
            }
            "transfer-encoding" => {
                return Err(bad(
                    400,
                    "chunked bodies are not supported; send content-length",
                ));
            }
            "expect" if value.eq_ignore_ascii_case("100-continue") => expect_continue = true,
            _ => {}
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(bad(
            413,
            format!("body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"),
        ));
    }
    if expect_continue {
        reader
            .get_mut()
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// Writes a response with the given status, extra headers and body,
/// then closes the write side. Every response carries
/// `Connection: close` and an exact `Content-Length`.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    };
    let mut head = format!("HTTP/1.1 {status} {reason}\r\n");
    head.push_str("connection: close\r\n");
    head.push_str("content-type: text/plain; charset=utf-8\r\n");
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    // Head and body go out in one write: two small writes behind Nagle
    // cost a delayed-ACK round trip per response.
    let mut frame = head.into_bytes();
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}
