//! A deliberately small HTTP/1.1 subset over `std::net::TcpStream`: just
//! enough to parse the requests the service defines and to write
//! well-formed responses with keep-alive. No chunked bodies, no TLS, no
//! HTTP/2 — clients that need more sit behind a reverse proxy.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Hard limits on message framing, for requests and responses alike:
/// the longest request, status or header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum number of header lines per message.
pub const MAX_HEADERS: usize = 64;
/// Largest `content-length` a response may declare. The largest grid a
/// replica answers by default, 1024 cells, renders to about 300 KB; a
/// peer that declares more than this is broken, and its body is never
/// allocated.
pub const MAX_RESPONSE_BODY: usize = 64 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as received.
    pub method: String,
    /// Request target (path + optional query), as received.
    pub target: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The read timed out while waiting for a new request to begin (the
    /// connection is idle — the caller may poll its shutdown flag and
    /// keep waiting).
    Idle,
    /// The bytes on the wire are not a well-formed request (a 400).
    Malformed(String),
    /// The declared body exceeds the caller's limit (a 413).
    BodyTooLarge(usize),
    /// The socket failed mid-request.
    Io(io::Error),
}

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one CRLF- (or bare-LF-) terminated line without the terminator.
fn read_line(reader: &mut BufReader<&TcpStream>, first: bool) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return Err(if first && line.is_empty() {
                    HttpError::Closed
                } else {
                    HttpError::Malformed("connection closed mid-request".into())
                });
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()));
                }
                line.push(byte[0]);
                if line.len() > MAX_HEADER_LINE {
                    return Err(HttpError::Malformed("header line too long".into()));
                }
            }
            Err(e) if is_timeout(&e) => {
                return Err(if first && line.is_empty() {
                    HttpError::Idle
                } else {
                    HttpError::Malformed("timed out mid-request".into())
                });
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Reads one request. `max_body` bounds the accepted `Content-Length`.
///
/// # Errors
///
/// See [`HttpError`]; [`HttpError::Idle`] and [`HttpError::Closed`] are
/// normal between-request conditions, not faults.
pub fn read_request(
    reader: &mut BufReader<&TcpStream>,
    max_body: usize,
) -> Result<Request, HttpError> {
    let request_line = read_line(reader, true)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut content_length: usize = 0;
    let mut keep_alive = true; // HTTP/1.1 default
    let mut expect_continue = false;
    for _ in 0..=MAX_HEADERS {
        let line = read_line(reader, false)?;
        if line.is_empty() {
            if content_length > max_body {
                return Err(HttpError::BodyTooLarge(content_length));
            }
            if expect_continue {
                // The body is small enough: invite the client to send it.
                let mut stream: &TcpStream = reader.get_ref();
                let _ = stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
            }
            let mut body = vec![0u8; content_length];
            if content_length > 0 {
                reader.read_exact(&mut body).map_err(|e| {
                    if is_timeout(&e) {
                        HttpError::Malformed("timed out reading body".into())
                    } else {
                        HttpError::Io(e)
                    }
                })?;
            }
            return Ok(Request {
                method,
                target,
                body,
                keep_alive,
            });
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("malformed header {line:?}")))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        }
    }
    Err(HttpError::Malformed("too many headers".into()))
}

/// Standard reason phrase for the statuses the service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Writes one response, head and body in a single write: a body sent
/// after its head in a second write would wait out the peer's delayed
/// ACK. `extra_headers` lets a handler attach headers like
/// `Retry-After`.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, String)],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// A parsed response, as the load generator and tests consume them.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Response headers, lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// First header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads one status or header line into `line`, terminator included;
/// `Ok(0)` at end of stream. A line longer than [`MAX_HEADER_LINE`] is
/// `InvalidData`, and no more than that is buffered.
fn read_response_line(reader: &mut BufReader<&TcpStream>, line: &mut String) -> io::Result<usize> {
    line.clear();
    let read = (&mut *reader)
        .take(MAX_HEADER_LINE as u64 + 2)
        .read_line(line)?;
    if line.trim_end_matches(['\r', '\n']).len() > MAX_HEADER_LINE {
        return Err(invalid_data("response line too long".into()));
    }
    Ok(read)
}

/// Reads one response off a client connection (keep-alive aware: reads
/// exactly `content-length` bytes). The peer is not trusted: a line past
/// [`MAX_HEADER_LINE`], more than [`MAX_HEADERS`] header lines or a
/// `content-length` past [`MAX_RESPONSE_BODY`] is `InvalidData`.
///
/// # Errors
///
/// Fails on socket errors or responses this module didn't write.
pub fn read_response(reader: &mut BufReader<&TcpStream>) -> io::Result<Response> {
    let mut line = String::new();
    loop {
        if read_response_line(reader, &mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid_data(format!("bad status line {line:?}")))?;
        // Interim 1xx responses (100 Continue) precede the real one.
        let interim = (100..200).contains(&status);
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        let mut header_lines = 0;
        loop {
            read_response_line(reader, &mut line)?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            header_lines += 1;
            if header_lines > MAX_HEADERS {
                return Err(invalid_data("too many headers".into()));
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid_data("bad content-length".into()))?;
                    if content_length > MAX_RESPONSE_BODY {
                        return Err(invalid_data(format!(
                            "content-length {content_length} exceeds {MAX_RESPONSE_BODY}"
                        )));
                    }
                }
                headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
            }
        }
        if interim {
            continue;
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        return Ok(Response {
            status,
            headers,
            body,
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A `Write` that counts the `write` calls a message takes.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// What `read_response` makes of `wire`, sent by a loopback peer that
    /// then closes.
    fn read_from_peer(wire: &[u8]) -> io::Result<Response> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (mut server, _) = listener.accept()?;
        server.write_all(wire)?;
        drop(server);
        read_response(&mut BufReader::new(&client))
    }

    #[test]
    fn a_response_is_one_write() {
        let mut out = CountingWriter::default();
        write_response(
            &mut out,
            200,
            "application/json",
            b"{\"cells\":[]}",
            &[("retry-after", "1".to_owned())],
            true,
        )
        .unwrap();
        assert_eq!(out.writes, 1, "head and body leave in one write");
        assert!(out.bytes.ends_with(b"\r\n\r\n{\"cells\":[]}"));
    }

    #[test]
    fn read_response_bounds_what_the_peer_declares() {
        let ok = read_from_peer(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}").unwrap();
        assert_eq!((ok.status, ok.body.as_slice()), (200, &b"{}"[..]));

        let huge = b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\n";
        let long_line = format!(
            "HTTP/1.1 200 OK\r\nx: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_LINE)
        );
        let many = format!(
            "HTTP/1.1 200 OK\r\n{}\r\n",
            "x: y\r\n".repeat(MAX_HEADERS + 1)
        );
        for wire in [&huge[..], long_line.as_bytes(), many.as_bytes()] {
            let err = read_from_peer(wire).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        let at_caps = format!(
            "HTTP/1.1 200 OK\r\nx: {}\r\n{}content-length: 0\r\n\r\n",
            "a".repeat(MAX_HEADER_LINE - 3),
            "x: y\r\n".repeat(MAX_HEADERS - 2)
        );
        assert_eq!(read_from_peer(at_caps.as_bytes()).unwrap().status, 200);
    }

    #[test]
    fn response_writing_is_well_formed() {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            503,
            "application/json",
            b"{}",
            &[("retry-after", "1".to_owned())],
            false,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn reason_phrases_cover_emitted_statuses() {
        for status in [200, 400, 404, 405, 408, 413, 500, 503, 504] {
            assert!(!reason(status).is_empty(), "{status}");
        }
    }
}
