//! A keep-alive HTTP/1.1 client for the in-process `graphqe_serve` server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use graphqe_serve::json::Json;

use crate::report::json_string;

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        // Without this, head and body can wait on a delayed ACK.
        stream.set_nodelay(true)?;
        Ok(Client { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    /// One request; returns the status and the parsed JSON body.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, Json), String> {
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(message.as_bytes()).map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("malformed status line {line:?}"))?;
        let mut length = 0;
        loop {
            line.clear();
            self.reader.read_line(&mut line).map_err(|e| e.to_string())?;
            if line.trim_end().is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| "bad Content-Length")?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body).map_err(|e| e.to_string())?;
        let text = String::from_utf8(body).map_err(|e| e.to_string())?;
        Ok((status, Json::parse(&text)?))
    }
}

/// The `/v1/prove` body for `pairs`.
pub fn prove_body<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let pairs: Vec<String> = pairs
        .into_iter()
        .map(|(left, right)| format!("[{},{}]", json_string(left), json_string(right)))
        .collect();
    format!("{{\"pairs\":[{}]}}", pairs.join(","))
}
