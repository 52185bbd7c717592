//! A minimal keep-alive HTTP/1.1 client for loopback `/v1` queries.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One answered request.
pub struct Answer {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

impl Answer {
    pub fn json(&self) -> Option<serde::Value> {
        serde_json::from_str(std::str::from_utf8(&self.body).ok()?).ok()
    }
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `GET target` (with an `If-None-Match` when given) and
    /// reads the whole answer.
    pub fn get(&mut self, target: &str, if_none_match: Option<&str>) -> io::Result<Answer> {
        let mut head = format!("GET {target} HTTP/1.1\r\nhost: bench\r\n");
        if let Some(tag) = if_none_match {
            head.push_str(&format!("if-none-match: {tag}\r\n"));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        let mut etag = None;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name.eq_ignore_ascii_case("etag") {
                    etag = Some(value.trim().to_string());
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Answer { status, etag, body })
    }
}
