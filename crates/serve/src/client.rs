//! A minimal blocking JSONL client for tests, examples and benches.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One persistent connection speaking line-delimited JSON.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    acc: Vec<u8>,
}

impl Client {
    /// Connects with a generous read timeout (the server's deadline
    /// machinery, not the client's, bounds request latency).
    ///
    /// # Errors
    ///
    /// Propagates connect/configure errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            acc: Vec::new(),
        })
    }

    /// Sends one request line and reads one reply line. Returns `Ok(None)`
    /// when the server closed the connection without replying (a dropped
    /// request).
    ///
    /// # Errors
    ///
    /// Propagates socket errors (including read timeouts).
    pub fn send(&mut self, line: &str) -> std::io::Result<Option<String>> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.read_line()
    }

    /// Reads the next reply line without sending anything.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn read_line(&mut self) -> std::io::Result<Option<String>> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(nl) = self.acc.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = self.acc.drain(..=nl).collect();
                return Ok(Some(
                    String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned(),
                ));
            }
            match self.stream.read(&mut buf)? {
                0 => return Ok(None),
                n => self.acc.extend_from_slice(&buf[..n]),
            }
        }
    }
}
