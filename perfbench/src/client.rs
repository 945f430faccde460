//! A minimal blocking HTTP/1.1 client: one request per connection, as
//! the server speaks (`Connection: close`).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Response {
    pub status: u16,
    /// The `x-wtr-generation` header, when present.
    pub generation: Option<u64>,
    pub body: Vec<u8>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let mut frame = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    frame.extend_from_slice(body);
    let mut reader = BufReader::new(stream);
    reader.get_mut().write_all(&frame)?;

    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
    let mut length = None;
    let mut generation = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed in headers".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(invalid(format!("bad header {header:?}")));
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => length = value.trim().parse().ok(),
            "x-wtr-generation" => generation = value.trim().parse().ok(),
            _ => {}
        }
    }
    let length = length.ok_or_else(|| invalid("no content-length".into()))?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(Response {
        status,
        generation,
        body,
    })
}
