//! Minimal HTTP/1.1 request parsing and response formatting.
//!
//! Only what the service needs: `GET` requests with a path and an
//! optional query string, keep-alive connections, and fixed-shape JSON
//! responses formatted into reusable buffers. Both directions are
//! deliberately allocation-free after warm-up: parsing borrows from the
//! connection's read buffer and responses are written into a caller-owned
//! [`ResponseBuf`] that is reused across requests.

use std::fmt::Write as _;
use std::io::{self, Read};
use std::net::TcpStream;

/// [`Request::parse`]'s error for a well-formed request line whose method
/// is not `GET`; the server answers it with 405, every other parse error
/// with 400.
pub const METHOD_NOT_ALLOWED: &str = "only GET is supported";

/// A parsed request line: `GET <path>?<query> HTTP/1.1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    /// The path component, e.g. `/predict`.
    pub path: &'a str,
    /// The raw query string (no leading `?`), empty when absent.
    pub query: &'a str,
}

impl<'a> Request<'a> {
    /// Parses the request line of `head` (everything up to the blank
    /// line). Only `GET` is served: any other method on an HTTP/1.x
    /// request line is [`METHOD_NOT_ALLOWED`], anything else a protocol
    /// error.
    pub fn parse(head: &'a str) -> Result<Self, &'static str> {
        let line = head.lines().next().ok_or("empty request")?;
        let mut parts = line.split(' ');
        let method = parts.next().ok_or("missing method")?;
        let target = parts.next().ok_or("missing request target")?;
        match parts.next() {
            Some(v) if v.starts_with("HTTP/1.") => {}
            _ => return Err("not an HTTP/1.x request"),
        }
        if method != "GET" {
            return Err(METHOD_NOT_ALLOWED);
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        if !path.starts_with('/') {
            return Err("request target must be absolute");
        }
        Ok(Request { path, query })
    }

    /// Looks up a query parameter by key (first match; no decoding — the
    /// service's parameters are plain integers).
    pub fn param(&self, key: &str) -> Option<&'a str> {
        self.query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// A required `usize` query parameter.
    pub fn param_usize(&self, key: &str) -> Result<usize, &'static str> {
        match self.param(key) {
            None => Err("missing parameter"),
            Some(v) => v
                .parse()
                .map_err(|_| "parameter is not a non-negative integer"),
        }
    }
}

/// Reads one request head (through `\r\n\r\n`) from `stream` into `buf`.
///
/// Returns `Ok(None)` on clean EOF before any byte (the client closed a
/// keep-alive connection), `Ok(Some(len))` with the head length once the
/// terminator arrives, and an error on I/O failure, oversized heads, or
/// EOF mid-request. The caller owns clearing `buf` between requests —
/// on a read timeout (`WouldBlock`/`TimedOut`) any partial bytes stay in
/// `buf`, so the caller can poll a shutdown flag and resume the same
/// request.
pub fn read_head(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Option<usize>> {
    const MAX_HEAD: usize = 8 * 1024;
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_head_end(buf) {
            return Ok(Some(end));
        }
        if buf.len() > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF mid-request",
                    ))
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
}

/// Whether a request head declares a body: a `Content-Length` other than
/// `0`, or any `Transfer-Encoding`. The service reads heads only, so the
/// server answers such a request and then closes the connection rather
/// than read the body as the next head. Header names match
/// case-insensitively; a `Content-Length` that is not a plain integer
/// counts as a body.
pub fn declares_body(head: &[u8]) -> bool {
    head.split(|&b| b == b'\n').skip(1).any(|line| {
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            return false;
        };
        let (name, value) = (&line[..colon], line[colon + 1..].trim_ascii());
        if name.eq_ignore_ascii_case(b"transfer-encoding") {
            return true;
        }
        name.eq_ignore_ascii_case(b"content-length")
            && std::str::from_utf8(value)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                != Some(0)
    })
}

/// Index one past the `\r\n\r\n` terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// A reusable response buffer: the body is staged first, then the status
/// line and headers are prepended with the exact `Content-Length`.
#[derive(Debug, Default)]
pub struct ResponseBuf {
    head: String,
    body: String,
}

impl ResponseBuf {
    /// Clears and returns the staging body buffer; write the payload
    /// into it, then call [`Self::finish`].
    pub fn body_mut(&mut self) -> &mut String {
        self.body.clear();
        &mut self.body
    }

    /// Formats the full keep-alive response for `status` around the
    /// staged body. A 405 names the one method served in an `Allow`
    /// header.
    pub fn finish(&mut self, status: u16) -> &str {
        self.render(status, "keep-alive")
    }

    /// [`Self::finish`] for the last response on a connection: it says
    /// `Connection: close`.
    pub fn finish_close(&mut self, status: u16) -> &str {
        self.render(status, "close")
    }

    fn render(&mut self, status: u16, connection: &str) -> &str {
        let (reason, allow) = match status {
            200 => ("OK", ""),
            400 => ("Bad Request", ""),
            404 => ("Not Found", ""),
            405 => ("Method Not Allowed", "Allow: GET\r\n"),
            _ => ("Internal Server Error", ""),
        };
        self.head.clear();
        let _ = write!(
            self.head,
            "HTTP/1.1 {status} {reason}\r\n{allow}Content-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            self.body.len()
        );
        self.head.push_str(&self.body);
        &self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_path_and_query() {
        let r = Request::parse("GET /predict?road=3&t=120 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.path, "/predict");
        assert_eq!(r.param("road"), Some("3"));
        assert_eq!(r.param_usize("t"), Ok(120));
        assert_eq!(r.param("missing"), None);
        assert!(r.param_usize("road").is_ok());
    }

    #[test]
    fn parses_bare_path() {
        let r = Request::parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.query, "");
    }

    #[test]
    fn rejects_non_get_and_garbage() {
        for other in ["POST", "PUT", "DELETE", "HEAD", "get"] {
            let head = format!("{other} /predict?road=1&t=40 HTTP/1.1\r\n\r\n");
            assert_eq!(Request::parse(&head), Err(METHOD_NOT_ALLOWED), "{other}");
        }
        // Not a request line at all: a protocol error, whatever the
        // first word.
        for garbage in [
            "GET /x SPEAK/9",
            "",
            "GET relative HTTP/1.1",
            "POST",
            "hello world",
        ] {
            let err = Request::parse(garbage).unwrap_err();
            assert_ne!(err, METHOD_NOT_ALLOWED, "{garbage:?}");
        }
        let mut buf = ResponseBuf::default();
        buf.body_mut().push_str("{}");
        let text = buf.finish(405);
        assert!(
            text.starts_with("HTTP/1.1 405 Method Not Allowed\r\nAllow: GET\r\n"),
            "{text}"
        );
        assert!(!buf.finish(400).contains("Allow:"));
    }

    #[test]
    fn bad_numbers_are_rejected_not_truncated() {
        let r = Request::parse("GET /predict?road=-1&t=1e3 HTTP/1.1\r\n\r\n").unwrap();
        assert!(r.param_usize("road").is_err());
        assert!(r.param_usize("t").is_err());
    }

    #[test]
    fn bodies_are_declared_by_length_or_transfer_encoding() {
        let head = |headers: &str| format!("POST /predict HTTP/1.1\r\n{headers}\r\n");
        for with_body in [
            "Content-Length: 5\r\n",
            "content-length:5\r\n",
            "Host: x\r\nCONTENT-LENGTH: 12\r\n",
            "Transfer-Encoding: chunked\r\n",
            "Content-Length: five\r\n",
            "Content-Length: -1\r\n",
        ] {
            assert!(declares_body(head(with_body).as_bytes()), "{with_body:?}");
        }
        for without in [
            "",
            "Host: x\r\n",
            "Content-Length: 0\r\n",
            "X-Content-Length: 9\r\n",
        ] {
            assert!(!declares_body(head(without).as_bytes()), "{without:?}");
        }
        // The request line is not a header, whatever it contains.
        assert!(!declares_body(b"GET /content-length:9 HTTP/1.1\r\n\r\n"));
    }

    #[test]
    fn response_buf_sets_exact_content_length() {
        let mut buf = ResponseBuf::default();
        buf.body_mut().push_str("{\"ok\":true}");
        let text = buf.finish(200);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        // Reuse produces a fresh response.
        buf.body_mut().push('x');
        assert!(buf.finish(400).contains("Content-Length: 1\r\n"));
        let last = buf.finish_close(405);
        assert!(last.contains("Connection: close\r\n"), "{last}");
        assert!(last.ends_with("\r\n\r\nx"), "{last}");
    }
}
