//! A minimal roofd client for the load loops: one `run` envelope out,
//! one reply line in, and the reply checked without a JSON parse.
//!
//! The service's own `Client` parses every reply into a tree, which
//! costs the generator milliseconds per request on the same two cores
//! the node runs on. Here a reply is verified by digesting its
//! `artifacts` object as rendered on the wire: the result envelope puts
//! it last, and inside JSON strings every quote is escaped, so the first
//! `,"artifacts":` is the field itself.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use roofline_core::json::{Envelope, Json};
use roofline_service::cache::fnv64;

use crate::load::Key;

/// Digest of an artifact tree as the result envelope renders it.
pub fn tree_digest(tree: &BTreeMap<String, String>) -> u64 {
    let obj = Json::Obj(
        tree.iter()
            .map(|(k, v)| (k.clone(), Json::str(v)))
            .collect(),
    );
    fnv64(obj.render().as_bytes())
}

/// The request line for `key`, newline included.
pub fn request_line(key: &Key) -> String {
    let env = Envelope::new("run")
        .field("experiment", Json::str(key.experiment.id()))
        .field("platform", Json::str(&key.platform))
        .field("fidelity", Json::str(key.fidelity.label()));
    format!("{}\n", env.to_line())
}

/// One connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and reads the reply line.
    pub fn round_trip(&mut self, request: &str) -> Result<Reply<'_>, String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("connection closed".to_string());
        }
        Ok(Reply {
            line: self.line.trim_end(),
        })
    }
}

/// One reply line.
pub struct Reply<'a> {
    line: &'a str,
}

const ARTIFACTS: &str = ",\"artifacts\":";

impl Reply<'_> {
    /// Everything before the artifacts object.
    fn head(&self) -> &str {
        self.line
            .find(ARTIFACTS)
            .map_or(self.line, |i| &self.line[..i])
    }

    /// A top-level string field of the head, e.g. `"source":"mem"`.
    fn field(&self, name: &str) -> Option<&str> {
        let head = self.head();
        let key = format!("\"{name}\":\"");
        let start = head.find(&key)? + key.len();
        let len = head[start..].find('"')?;
        Some(&head[start..start + len])
    }

    /// Where the payload came from (`mem`, `disk`, `computed`, ...);
    /// empty for anything but a result.
    pub fn source(&self) -> &str {
        self.field("source").unwrap_or("")
    }

    /// Digest of the artifacts object, `None` unless this is a
    /// non-failed result without an error.
    pub fn digest(&self) -> Option<u64> {
        let ok = self.field("kind") == Some("result")
            && self.field("status").is_some_and(|s| s != "failed")
            && !self.head().contains(",\"error\":");
        let start = self.line.find(ARTIFACTS)? + ARTIFACTS.len();
        let body = self.line.get(start..self.line.len() - 1)?;
        ok.then(|| fnv64(body.as_bytes()))
    }
}
