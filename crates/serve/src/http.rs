//! A deliberately minimal HTTP/1.1 server side with keep-alive and
//! pipelining.
//!
//! The service speaks to curl, Prometheus scrapers, perfbench's
//! `serve_mix` clients, and the raw `std::net::TcpStream` clients of the
//! integration tests.
//! A [`Conn`] owns one connection: it reads requests in a loop, keeps the
//! bytes that arrive past the current request body (pipelined requests),
//! and negotiates persistence per request — HTTP/1.1 defaults to
//! keep-alive, HTTP/1.0 to close, and a `Connection:` header overrides
//! either way. Every response carries an exact `Content-Length` and a
//! `Connection:` header that reflects the negotiated semantics.
//!
//! Error handling distinguishes *recoverable* protocol errors, where the
//! request framing is still intact (malformed JSON, oversized-but-drained
//! bodies → 400/413, connection stays up), from *fatal* ones where the
//! byte stream can no longer be trusted (garbled request line, unsupported
//! transfer encoding → respond and close).

use std::io::{ErrorKind, Read, Write};

/// Upper bound on the request line plus headers.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Upper bound on a request body (instance files are a few KB; a megabyte
/// is already a thousand-task instance).
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Oversized bodies up to this declared length are read and discarded so
/// the connection can survive a `413`; beyond it the connection closes.
const MAX_DRAIN_BYTES: usize = 16 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) body: String,
    /// Negotiated persistence: the response must carry the matching
    /// `Connection:` header and the server loop continues only if `true`.
    pub(crate) keep_alive: bool,
    /// The client-supplied `X-Request-Id` header, verbatim; the server
    /// sanitizes it (or generates one) before it enters logs and job
    /// records.
    pub(crate) request_id: Option<String>,
}

/// What [`Conn::read_next`] produced.
pub(crate) enum Next {
    /// A complete, well-framed request.
    Request(Request),
    /// The peer closed (or idled past the read timeout) between requests;
    /// nothing to answer.
    Closed,
    /// A protocol error to report. `keep_alive` is `true` when the framing
    /// survived (the connection may keep serving) and `false` when the
    /// stream is unusable and must close after the error response.
    Error {
        status: u16,
        message: String,
        keep_alive: bool,
    },
}

/// Server side of one connection: a stream plus the bytes read beyond the
/// previous request (pipelining).
pub(crate) struct Conn<S> {
    stream: S,
    buf: Vec<u8>,
}

impl<S: Read + Write> Conn<S> {
    pub(crate) fn new(stream: S) -> Self {
        Self {
            stream,
            buf: Vec::new(),
        }
    }

    /// Reads and parses the next request, consuming exactly its bytes from
    /// the connection. Read timeouts set on the underlying stream surface
    /// as [`Next::Closed`] — the idle-timeout mechanism of the server loop.
    pub(crate) fn read_next(&mut self) -> Next {
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(pos) = find_blank_line(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEADER_BYTES {
                return fatal(400, "request headers too large");
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Next::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // Idle timeout between requests, or a stalled sender
                    // mid-request; either way the connection is done.
                    return Next::Closed;
                }
                Err(_) => return Next::Closed,
            }
        };
        let Ok(head) = std::str::from_utf8(&self.buf[..header_end]) else {
            return fatal(400, "request headers are not UTF-8");
        };
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let method = parts.next().unwrap_or("").to_string();
        let path = parts.next().unwrap_or("").to_string();
        let version = parts.next().unwrap_or("");
        if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
            return fatal(400, &format!("malformed request line {request_line:?}"));
        }
        // HTTP/1.1 persists by default; HTTP/1.0 closes by default; an
        // explicit `Connection:` token overrides either.
        let mut keep_alive = version != "HTTP/1.0";

        let mut content_length = 0usize;
        let mut expects_continue = false;
        let mut request_id = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let Ok(length) = value.parse() else {
                    return fatal(400, &format!("bad Content-Length {value:?}"));
                };
                content_length = length;
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Chunked framing is not spoken here; without a length the
                // stream cannot be re-synchronized, so close.
                return fatal(
                    400,
                    "transfer encodings are not supported (send Content-Length)",
                );
            } else if name.eq_ignore_ascii_case("expect")
                && value.eq_ignore_ascii_case("100-continue")
            {
                expects_continue = true;
            } else if name.eq_ignore_ascii_case("x-request-id") {
                request_id = Some(value.to_string());
            }
        }
        // curl sends `Expect: 100-continue` for larger bodies and stalls
        // until the server approves; acknowledge so uploads don't hang.
        if expects_continue {
            let _ = self.stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
        }
        let body_start = header_end + 4;
        if content_length > MAX_BODY_BYTES {
            // Over the limit but under the drain bound: discard the body
            // chunk-by-chunk — never accumulating it, so a peer cannot pin
            // megabytes per connection — to keep the stream synchronized,
            // then report 413 without closing. Hopelessly large
            // declarations just close.
            if content_length > MAX_DRAIN_BYTES
                || !self.discard(body_start, content_length, &mut chunk)
            {
                return fatal(
                    413,
                    &format!("request body too large ({content_length} bytes)"),
                );
            }
            return Next::Error {
                status: 413,
                message: format!("request body too large ({content_length} bytes)"),
                keep_alive,
            };
        }
        if !self.consume(body_start + content_length, &mut chunk) {
            return Next::Closed;
        }
        let body_bytes = self.buf[body_start..body_start + content_length].to_vec();
        // Anything past the body already read belongs to the next
        // pipelined request; keep it buffered.
        self.buf.drain(..body_start + content_length);
        let Ok(body) = String::from_utf8(body_bytes) else {
            return Next::Error {
                status: 400,
                message: "request body is not UTF-8".to_string(),
                keep_alive,
            };
        };
        Next::Request(Request {
            method,
            path,
            body,
            keep_alive,
            request_id,
        })
    }

    /// Reads until the buffer holds at least `target` bytes; `false` on
    /// EOF, timeout, or transport error.
    fn consume(&mut self, target: usize, chunk: &mut [u8]) -> bool {
        while self.buf.len() < target {
            match self.stream.read(chunk) {
                Ok(0) => return false,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(_) => return false,
            }
        }
        true
    }

    /// Discards the current request head plus `content_length` body bytes
    /// without buffering them: already-read body bytes are dropped in
    /// place, the rest is read into the scratch chunk and thrown away.
    /// Bytes past the body (the next pipelined request) are kept. `false`
    /// on EOF, timeout, or transport error.
    fn discard(&mut self, body_start: usize, content_length: usize, chunk: &mut [u8]) -> bool {
        let buffered = self.buf.len().saturating_sub(body_start);
        if buffered >= content_length {
            self.buf.drain(..body_start + content_length);
            return true;
        }
        self.buf.clear();
        let mut remaining = content_length - buffered;
        while remaining > 0 {
            match self.stream.read(chunk) {
                Ok(0) => return false,
                Ok(n) if n > remaining => {
                    // The tail of this chunk is the next pipelined request.
                    self.buf.extend_from_slice(&chunk[remaining..n]);
                    remaining = 0;
                }
                Ok(n) => remaining -= n,
                Err(_) => return false,
            }
        }
        true
    }

    /// Writes a complete response with the negotiated `Connection` header,
    /// echoing `request_id` as `X-Request-Id` when one is known.
    pub(crate) fn respond(
        &mut self,
        status: u16,
        content_type: &str,
        body: &str,
        keep_alive: bool,
        request_id: Option<&str>,
    ) {
        respond_with_id(
            &mut self.stream,
            status,
            content_type,
            body,
            keep_alive,
            request_id,
        );
    }

    /// Starts a chunked (`Transfer-Encoding: chunked`) response. The body
    /// is then written with [`Conn::write_chunk`] and terminated with
    /// [`Conn::end_stream`]. Chunked framing is self-delimiting, so on a
    /// clean termination the connection can keep serving requests.
    /// Returns `false` when the peer is gone.
    pub(crate) fn start_stream(
        &mut self,
        status: u16,
        content_type: &str,
        keep_alive: bool,
        request_id: &str,
    ) -> bool {
        let reason = reason_phrase(status);
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: {connection}\r\n\
             X-Request-Id: {request_id}\r\n\r\n"
        );
        self.stream.write_all(head.as_bytes()).is_ok() && self.stream.flush().is_ok()
    }

    /// Writes one chunk of a streaming response; `false` means the peer
    /// went away. Empty data is skipped — a zero-length chunk would
    /// terminate the stream (that is [`Conn::end_stream`]'s job).
    pub(crate) fn write_chunk(&mut self, data: &str) -> bool {
        if data.is_empty() {
            return true;
        }
        let head = format!("{:x}\r\n", data.len());
        self.stream.write_all(head.as_bytes()).is_ok()
            && self.stream.write_all(data.as_bytes()).is_ok()
            && self.stream.write_all(b"\r\n").is_ok()
            && self.stream.flush().is_ok()
    }

    /// Terminates a streaming response with the final zero-length chunk.
    pub(crate) fn end_stream(&mut self) -> bool {
        self.stream.write_all(b"0\r\n\r\n").is_ok() && self.stream.flush().is_ok()
    }
}

fn fatal(status: u16, message: &str) -> Next {
    Next::Error {
        status,
        message: message.to_string(),
        keep_alive: false,
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response and flushes it.
pub(crate) fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) {
    respond_with_id(stream, status, content_type, body, keep_alive, None);
}

/// [`respond`], optionally echoing an `X-Request-Id` header.
pub(crate) fn respond_with_id(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    request_id: Option<&str>,
) {
    let reason = reason_phrase(status);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    if let Some(id) = request_id {
        use std::fmt::Write as _;
        let _ = write!(head, "X-Request-Id: {id}\r\n");
    }
    head.push_str("\r\n");
    // The peer may have gone away; nothing useful to do about it.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Index of the first `\r\n\r\n` in `buf`, if any.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A fake duplex stream: reads from a script, discards writes.
    struct Fake(Cursor<Vec<u8>>);

    impl Read for Fake {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for Fake {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn conn(script: &str) -> Conn<Fake> {
        Conn::new(Fake(Cursor::new(script.as_bytes().to_vec())))
    }

    #[test]
    fn blank_line_is_found() {
        assert_eq!(find_blank_line(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_blank_line(b"partial\r\n"), None);
    }

    #[test]
    fn http11_defaults_to_keep_alive_and_close_header_overrides() {
        let mut c = conn("GET /a HTTP/1.1\r\nHost: t\r\n\r\n");
        match c.read_next() {
            Next::Request(r) => {
                assert_eq!((r.method.as_str(), r.path.as_str()), ("GET", "/a"));
                assert!(r.keep_alive, "HTTP/1.1 persists by default");
            }
            _ => panic!("expected a request"),
        }
        let mut c = conn("GET /a HTTP/1.1\r\nConnection: close\r\n\r\n");
        match c.read_next() {
            Next::Request(r) => assert!(!r.keep_alive),
            _ => panic!("expected a request"),
        }
    }

    #[test]
    fn http10_defaults_to_close_and_keep_alive_header_overrides() {
        let mut c = conn("GET /a HTTP/1.0\r\n\r\n");
        match c.read_next() {
            Next::Request(r) => assert!(!r.keep_alive),
            _ => panic!("expected a request"),
        }
        let mut c = conn("GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        match c.read_next() {
            Next::Request(r) => assert!(r.keep_alive),
            _ => panic!("expected a request"),
        }
    }

    #[test]
    fn pipelined_requests_are_served_in_order() {
        let mut c = conn(
            "POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /metrics HTTP/1.1\r\n\r\n",
        );
        match c.read_next() {
            Next::Request(r) => {
                assert_eq!(r.body, "abcd");
                assert_eq!(r.path, "/jobs");
            }
            _ => panic!("expected first request"),
        }
        match c.read_next() {
            Next::Request(r) => {
                assert_eq!(r.path, "/metrics");
                assert!(r.body.is_empty());
            }
            _ => panic!("expected pipelined second request"),
        }
        assert!(matches!(c.read_next(), Next::Closed));
    }

    #[test]
    fn oversized_body_is_drained_and_reported_without_closing() {
        let body = "x".repeat(MAX_BODY_BYTES + 1);
        let script = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}GET /healthz HTTP/1.1\r\n\r\n",
            body.len()
        );
        let mut c = conn(&script);
        match c.read_next() {
            Next::Error {
                status, keep_alive, ..
            } => {
                assert_eq!(status, 413);
                assert!(keep_alive, "drained body keeps the connection usable");
            }
            _ => panic!("expected a 413"),
        }
        match c.read_next() {
            Next::Request(r) => assert_eq!(r.path, "/healthz"),
            _ => panic!("connection must survive the 413"),
        }
    }

    #[test]
    fn oversized_body_drain_does_not_accumulate_the_body() {
        let body = "y".repeat(MAX_BODY_BYTES + 1);
        let script = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}GET /healthz HTTP/1.1\r\n\r\n",
            body.len()
        );
        let mut c = conn(&script);
        match c.read_next() {
            Next::Error { status, .. } => assert_eq!(status, 413),
            _ => panic!("expected a 413"),
        }
        // Only the pipelined follow-up request may remain buffered — the
        // drained body itself must never have been retained.
        assert!(
            c.buf.len() < 4096,
            "drained body must not be buffered, {} bytes retained",
            c.buf.len()
        );
        match c.read_next() {
            Next::Request(r) => assert_eq!(r.path, "/healthz"),
            _ => panic!("connection must survive the 413"),
        }
    }

    #[test]
    fn garbled_request_line_is_fatal() {
        let mut c = conn("NONSENSE\r\n\r\n");
        match c.read_next() {
            Next::Error {
                status, keep_alive, ..
            } => {
                assert_eq!(status, 400);
                assert!(!keep_alive, "framing is unknown, must close");
            }
            _ => panic!("expected a fatal 400"),
        }
    }

    /// A fake duplex stream that records what the server writes.
    struct Duplex {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn request_id_header_is_captured() {
        let mut c = conn("GET /a HTTP/1.1\r\nX-Request-Id: abc-123\r\n\r\n");
        match c.read_next() {
            Next::Request(r) => assert_eq!(r.request_id.as_deref(), Some("abc-123")),
            _ => panic!("expected a request"),
        }
        let mut c = conn("GET /a HTTP/1.1\r\nHost: t\r\n\r\n");
        match c.read_next() {
            Next::Request(r) => assert_eq!(r.request_id, None),
            _ => panic!("expected a request"),
        }
    }

    #[test]
    fn responses_echo_the_request_id_when_known() {
        let mut out = Vec::new();
        respond_with_id(&mut out, 200, "application/json", "{}", true, Some("req-7"));
        let text = String::from_utf8(out).expect("ASCII response");
        assert!(text.contains("X-Request-Id: req-7\r\n"), "{text}");
        let mut out = Vec::new();
        respond(&mut out, 200, "application/json", "{}", true);
        let text = String::from_utf8(out).expect("ASCII response");
        assert!(!text.contains("X-Request-Id"), "{text}");
    }

    #[test]
    fn chunked_stream_frames_each_chunk_and_terminates() {
        let mut c = Conn::new(Duplex {
            input: Cursor::new(Vec::new()),
            output: Vec::new(),
        });
        assert!(c.start_stream(200, "application/x-ndjson", true, "req-1"));
        assert!(c.write_chunk("hello\n"));
        assert!(c.write_chunk(""), "empty chunks are skipped, not fatal");
        assert!(c.write_chunk("{\"a\":1}\n"));
        assert!(c.end_stream());
        let text = String::from_utf8(c.stream.output).expect("ASCII response");
        let (head, body) = text.split_once("\r\n\r\n").expect("header block");
        assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert!(head.contains("X-Request-Id: req-1"), "{head}");
        assert!(
            !head.contains("Content-Length"),
            "chunked responses carry no length: {head}"
        );
        assert_eq!(body, "6\r\nhello\n\r\n8\r\n{\"a\":1}\n\r\n0\r\n\r\n");
    }

    #[test]
    fn responses_carry_the_negotiated_connection_header() {
        let mut out = Vec::new();
        respond(&mut out, 200, "application/json", "{}", true);
        let text = String::from_utf8(out).expect("ASCII response");
        assert!(text.contains("Connection: keep-alive"), "{text}");
        let mut out = Vec::new();
        respond(&mut out, 503, "application/json", "{}", false);
        let text = String::from_utf8(out).expect("ASCII response");
        assert!(text.contains("Connection: close"), "{text}");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
    }
}
