//! A keep-alive HTTP/1.1 client that sends one request at a time and frames
//! each response by its `Content-Length`.
//!
//! It never pipelines: the server reads one request head per turn and
//! discards anything after it, so a second request in flight would be
//! silently lost.

use std::io::{self, Read, Write};

/// One response: status code and body text.
#[derive(Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Index one past the blank line ending the head, if it has arrived.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Status and `Content-Length` of a complete response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let head = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(bad("not an HTTP/1.x response"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status code"))?;
    let len = lines
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length").then(|| v.trim())
        })
        .ok_or_else(|| bad("response has no Content-Length"))?
        .parse()
        .map_err(|_| bad("bad Content-Length"))?;
    Ok((status, len))
}

/// Reads exactly one response from `stream`, however its bytes are split
/// across reads. `buf` is scratch space reused between calls. Bytes past
/// the framed body mean the peer answered something not asked for, which
/// is an error.
pub fn read_response<R: Read>(stream: &mut R, buf: &mut Vec<u8>) -> io::Result<Response> {
    const MAX_HEAD: usize = 16 * 1024;
    buf.clear();
    let mut chunk = [0u8; 2048];
    let mut framed: Option<(u16, usize, usize)> = None;
    loop {
        if framed.is_none() {
            if let Some(end) = head_end(buf) {
                let (status, len) = parse_head(&buf[..end])?;
                framed = Some((status, end, len));
            } else if buf.len() > MAX_HEAD {
                return Err(bad("response head too large"));
            }
        }
        if let Some((status, start, len)) = framed {
            match buf.len().cmp(&(start + len)) {
                std::cmp::Ordering::Equal => {
                    let body = std::str::from_utf8(&buf[start..])
                        .map_err(|_| bad("response body is not UTF-8"))?
                        .to_string();
                    return Ok(Response { status, body });
                }
                std::cmp::Ordering::Greater => return Err(bad("bytes after the response body")),
                std::cmp::Ordering::Less => {}
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One keep-alive connection.
pub struct Client<S> {
    stream: S,
    req: Vec<u8>,
    buf: Vec<u8>,
}

impl<S: Read + Write> Client<S> {
    pub fn new(stream: S) -> Self {
        Client {
            stream,
            req: Vec::with_capacity(128),
            buf: Vec::with_capacity(1024),
        }
    }

    /// Sends `GET path` and waits for its whole response.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.req.clear();
        write!(self.req, "GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n")?;
        self.stream.write_all(&self.req)?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `data` in pieces of the given sizes, cycling through them.
    struct Drip<'a> {
        data: &'a [u8],
        pos: usize,
        sizes: &'a [usize],
        turn: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let want = self.sizes[self.turn % self.sizes.len()].max(1);
            self.turn += 1;
            let n = want.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    const BODY: &str = "{\"road\":3,\"t\":120,\"speed_kmh\":71.25}";

    fn wire(body: &str) -> String {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn frames_a_response_split_at_every_boundary() {
        let text = wire(BODY);
        let bytes = text.as_bytes();
        for split in 1..bytes.len() {
            let sizes = [split, bytes.len()];
            let mut r = Drip {
                data: bytes,
                pos: 0,
                sizes: &sizes,
                turn: 0,
            };
            let resp = read_response(&mut r, &mut Vec::new()).unwrap();
            assert_eq!(resp.status, 200, "split {split}");
            assert_eq!(resp.body, BODY, "split {split}");
        }
    }

    #[test]
    fn frames_a_byte_at_a_time() {
        let text = wire(BODY);
        let mut r = Drip {
            data: text.as_bytes(),
            pos: 0,
            sizes: &[1],
            turn: 0,
        };
        assert_eq!(read_response(&mut r, &mut Vec::new()).unwrap().body, BODY);
    }

    #[test]
    fn rejects_truncation_extra_bytes_and_missing_length() {
        let text = wire(BODY);
        let cut = &text.as_bytes()[..text.len() - 3];
        let mut r = Drip {
            data: cut,
            pos: 0,
            sizes: &[7],
            turn: 0,
        };
        assert!(read_response(&mut r, &mut Vec::new()).is_err());

        let doubled = format!("{text}{text}");
        let mut r = Drip {
            data: doubled.as_bytes(),
            pos: 0,
            sizes: &[4096],
            turn: 0,
        };
        assert!(read_response(&mut r, &mut Vec::new()).is_err());

        let no_len = "HTTP/1.1 200 OK\r\n\r\n{}";
        let mut r = Drip {
            data: no_len.as_bytes(),
            pos: 0,
            sizes: &[64],
            turn: 0,
        };
        assert!(read_response(&mut r, &mut Vec::new()).is_err());
    }

    #[test]
    fn non_200_status_is_reported_not_hidden() {
        let text = "HTTP/1.1 400 Bad Request\r\nContent-Length: 2\r\n\r\n{}";
        let mut r = Drip {
            data: text.as_bytes(),
            pos: 0,
            sizes: &[5],
            turn: 0,
        };
        let resp = read_response(&mut r, &mut Vec::new()).unwrap();
        assert_eq!((resp.status, resp.body.as_str()), (400, "{}"));
    }
}
