//! A keep-alive HTTP/1.1 client for the load generator.
//!
//! It sends each request in a single write on a `TCP_NODELAY` socket.
//! The workspace's `KeepAliveClient` writes a POST's head and body
//! separately, and on loopback Nagle's algorithm then holds the body
//! until the server's delayed ACK fires, about 40 ms per submit; that
//! client-side stall would swamp the service costs this benchmark
//! measures.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    /// One request on the pooled connection, reconnecting once if the
    /// server closed it since the last request. Returns the status and
    /// the body.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        match self.round_trip(method, path, body) {
            Err(_) if reused => {
                self.stream = None;
                self.round_trip(method, path, body)
            }
            out => out,
        }
    }

    fn round_trip(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut request = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        if !body.is_empty() {
            request.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        request.push_str("Connection: keep-alive\r\n\r\n");
        request.push_str(body);
        stream.write_all(request.as_bytes())?;

        let mut bytes = Vec::new();
        let mut buf = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            match stream.read(&mut buf)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => bytes.extend_from_slice(&buf[..n]),
            }
        };
        let head = String::from_utf8_lossy(&bytes[..head_end]).into_owned();
        let header = |name: &str| {
            head.lines().find_map(|line| {
                let (k, v) = line.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case(name)
                    .then(|| v.trim().to_string())
            })
        };
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let start = head_end + 4;
        while bytes.len() < start + length {
            match stream.read(&mut buf)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => bytes.extend_from_slice(&buf[..n]),
            }
        }
        if header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.stream = None;
        }
        let body = String::from_utf8_lossy(&bytes[start..start + length]).into_owned();
        Ok((status, body))
    }
}
