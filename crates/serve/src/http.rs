//! Minimal HTTP/1.1 over std: request parsing and response writing for
//! the handful of shapes the server speaks.
//!
//! One request per connection (`Connection: close` on every response) —
//! taps and report clients open short-lived connections, so keep-alive
//! buys nothing but state. The parser is deliberately strict: a bounded
//! header section, a mandatory `Content-Length` for bodies, an explicit
//! cap on body size enforced *before* the body is read, so an oversized
//! upload is rejected with `413` without buffering it, and one deadline
//! for the whole request, so a client that stalls or drips bytes gets
//! `408` instead of holding its worker.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request line + headers, in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Time a client has from accept to finish sending its request.
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// Socket write timeout: a peer that stops reading frees its worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

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
    /// Socket-level failure, such as a connection closed mid-request.
    Io(io::Error),
    /// The head or body violated a protocol bound, or missed the
    /// request deadline; the server answers with this status and
    /// message.
    Bad {
        /// Response status to send (400, 408, 413, 431).
        status: u16,
        /// Human-readable reason, sent as the response body.
        message: String,
    },
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::TimedOut {
            bad(408, "request not complete within the deadline")
        } else {
            HttpError::Io(e)
        }
    }
}

/// The read side of a connection. Before every read it sets the socket
/// timeout to the time left until the request deadline. Once none is
/// left it takes only bytes that have already arrived, and fails with
/// `TimedOut` when there are none: a client that stalls or drips bytes
/// gets no more time, yet a request that arrived whole while it waited
/// for a worker is still read.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.stream.set_nonblocking(true)?;
                let read = self.stream.read(buf);
                // The clone shares the socket's flags, and responses
                // are written blocking.
                self.stream.set_nonblocking(false)?;
                return match read {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        Err(io::ErrorKind::TimedOut.into())
                    }
                    other => other,
                };
            }
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(buf) {
                // The socket timeout fired: check the deadline again.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                other => return other,
            }
        }
    }
}

fn bad(status: u16, message: impl Into<String>) -> HttpError {
    HttpError::Bad {
        status,
        message: message.into(),
    }
}

/// Reads one request from `stream`, enforcing `max_body_bytes`. A
/// request whose head and body have not both arrived by `deadline`
/// fails with `408`, however its bytes trickle in.
///
/// `Expect: 100-continue` is honored (curl sends it for any body over
/// ~1 KiB): the interim `100 Continue` goes out after the head passes
/// validation, so an oversized declared length is refused before the
/// client transmits a single body byte.
pub fn read_request(
    stream: &mut TcpStream,
    max_body_bytes: usize,
    deadline: Instant,
) -> Result<Request, HttpError> {
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    // One-shot request/response: Nagle only adds the delayed-ACK stall.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(DeadlineReader {
        stream: stream.try_clone()?,
        deadline,
    });

    let mut head_bytes = 0usize;
    let mut read_line = |reader: &mut BufReader<DeadlineReader>| -> Result<String, HttpError> {
        let mut line = Vec::new();
        // One byte past the budget is enough to refuse: a line with no
        // newline is cut there instead of buffered until the deadline.
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
            .stream
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
        408 => "Request Timeout",
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// Serves one loopback connection whose request deadline is 300 ms
    /// away while `client` sends on it. Returns the status line the
    /// client reads back and how long the server took to answer.
    fn answer_to(client: impl FnOnce(&mut TcpStream) + Send + 'static) -> (String, Duration) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            client(&mut stream);
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut status = String::new();
            let _ = BufReader::new(stream).read_line(&mut status);
            status
        });
        let (mut conn, _) = listener.accept().unwrap();
        let start = Instant::now();
        let (status, message) =
            match read_request(&mut conn, 1 << 20, start + Duration::from_millis(300)) {
                Err(HttpError::Bad { status, message }) => (status, message),
                other => panic!("expected a refusal, got {other:?}"),
            };
        let elapsed = start.elapsed();
        write_response(&mut conn, status, &[], message.as_bytes()).unwrap();
        // Keep the connection open until the client has read the
        // answer: closing with unread bytes would reset it.
        let line = peer.join().unwrap();
        (line, elapsed)
    }

    fn assert_timed_out((status, elapsed): (String, Duration)) {
        assert!(status.starts_with("HTTP/1.1 408 "), "got {status:?}");
        assert!(
            elapsed >= Duration::from_millis(300) && elapsed < Duration::from_secs(2),
            "answered after {elapsed:?}"
        );
    }

    #[test]
    fn body_cut_short_gets_408() {
        assert_timed_out(answer_to(|stream| {
            stream
                .write_all(b"POST /ingest/t HTTP/1.1\r\ncontent-length: 100\r\n\r\n0123456789")
                .unwrap();
        }));
    }

    #[test]
    fn head_cut_short_gets_408() {
        assert_timed_out(answer_to(|stream| {
            stream
                .write_all(b"POST /ingest/t HTTP/1.1\r\ncontent-le")
                .unwrap();
        }));
    }

    #[test]
    fn request_that_arrived_is_read_past_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .write_all(b"POST /ingest/t HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello")
            .unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        // Like a request that waited in the queue: all of it is in the
        // socket before a worker reads it, and its deadline has passed.
        conn.peek(&mut [0u8; 1]).unwrap();
        let start = Instant::now();
        let request = read_request(&mut conn, 1 << 20, start).unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "read after {:?}",
            start.elapsed()
        );
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            ("POST", "/ingest/t")
        );
        assert_eq!(request.body, b"hello");
    }

    #[test]
    fn dripped_body_gets_408() {
        assert_timed_out(answer_to(|stream| {
            stream
                .write_all(b"POST /ingest/t HTTP/1.1\r\ncontent-length: 100\r\n\r\n")
                .unwrap();
            // One byte per 100 ms for a second: every read makes
            // progress, yet the request misses its deadline.
            for _ in 0..10 {
                thread::sleep(Duration::from_millis(100));
                if stream.write_all(b"x").is_err() {
                    break;
                }
            }
        }));
    }
}
