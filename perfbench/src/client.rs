//! A minimal HTTP/1.1 client over one kept-alive connection.
//!
//! The daemon closes a connection after `keepalive_requests` requests
//! (announcing it with `Connection: close`), so the client reopens on the
//! next request and counts a reconnect; a reconnect is not a failure.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    head: String,
    pub body: Vec<u8>,
}

impl Response {
    /// The value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

/// A kept-alive connection that reopens itself when the server closes it.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    opened: u64,
    /// Connections opened after the first one.
    pub reconnects: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 << 10),
            opened: 0,
            reconnects: 0,
        }
    }

    /// Sends `POST path` with `body` (plus extra header lines, each ending
    /// in `\r\n`) and reads the response.
    pub fn post(&mut self, path: &str, body: &str, extra: &str) -> io::Result<Response> {
        let req = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\n{extra}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.send(req.as_bytes())
    }

    /// Sends `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.send(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }

    fn send(&mut self, req: &[u8]) -> io::Result<Response> {
        let reused = self.stream.is_some();
        match self.exchange(req) {
            // the server may close an idle kept-alive connection between
            // requests; nothing of this request was read, so it is resent
            // once on a fresh connection
            Err(e) if reused && e.kind() == io::ErrorKind::ConnectionAborted => {
                self.stream = None;
                self.exchange(req)
            }
            r => r,
        }
    }

    fn exchange(&mut self, req: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            if self.opened > 0 {
                self.reconnects += 1;
            }
            self.opened += 1;
            self.stream = Some(s);
        }
        let res = self.exchange_on_stream(req);
        if res.is_err() {
            self.stream = None;
        }
        res
    }

    fn exchange_on_stream(&mut self, req: &[u8]) -> io::Result<Response> {
        let s = self.stream.as_mut().expect("connected above");
        s.write_all(req)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 << 10];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = s.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "connection closed before the response head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status = head
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut resp = Response {
            status,
            head,
            body: Vec::new(),
        };
        let len: usize = resp
            .header("content-length")
            .map_or(Ok(0), str::parse)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
        let want = head_end + 4 + len;
        while self.buf.len() < want {
            let n = s.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside the response body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        resp.body = self.buf[head_end + 4..want].to_vec();
        if resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.stream = None;
        }
        Ok(resp)
    }
}
