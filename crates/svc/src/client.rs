//! A blocking client for the daemon's line-delimited JSON protocol.

use crate::codec::{self, CodecError};
use crate::proto;
use ph_core::OptConfig;
use ph_hw::DeviceProfile;
use ph_ir::ParserSpec;
use ph_obs::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// The longest reply line the client reads, newline excluded.  The
/// largest registry reply is about 4.6 KB (`Sai V1`, 13 entries), so 1 MiB
/// leaves over 200× headroom while bounding what a misbehaving daemon can
/// make the client buffer.
pub const MAX_REPLY_BYTES: u64 = 1 << 20;

/// What went wrong talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, early close).
    Io(std::io::Error),
    /// The daemon answered, but with `"ok": false`.  The bool is the
    /// response's `"rejected"` flag (queue-full backpressure).
    Daemon {
        /// The daemon's error message.
        message: String,
        /// True for explicit queue-full rejections.
        rejected: bool,
    },
    /// The daemon's answer didn't decode.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Daemon { message, rejected } => {
                write!(
                    f,
                    "daemon: {message}{}",
                    if *rejected { " (rejected)" } else { "" }
                )
            }
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// A successful synthesis response.
#[derive(Clone, Debug)]
pub struct SubmitOutcome {
    /// The content key the job was filed under.
    pub key: String,
    /// Whether this submission deduplicated onto an in-flight job.
    pub deduped: bool,
    /// Whether the result came from the result cache.
    pub cache_hit: bool,
    /// The synthesized program.
    pub program: ph_hw::TcamProgram,
    /// The program's display rendering, exactly as the daemon printed it
    /// (byte-compare two of these to prove result identity).
    pub program_text: String,
    /// The run statistics (raw JSON; see [`codec::stats_from_json`]).
    pub stats: Json,
}

/// A blocking connection to a daemon.  Each request goes out in one
/// write on a `TCP_NODELAY` socket, so a round trip never waits on
/// Nagle's algorithm.
pub struct Client {
    stream: BufReader<TcpStream>,
    /// Each request line is rendered, newline included, into this one
    /// buffer.
    out: String,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:9077"`).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
            out: String::new(),
        })
    }

    /// Sends one request object and reads one response line.
    ///
    /// # Errors
    ///
    /// Transport failures and unparsable responses; `"ok": false`
    /// responses are returned as [`ClientError::Daemon`].  A reply line
    /// longer than [`MAX_REPLY_BYTES`] is a [`ClientError::Protocol`] and
    /// closes the connection.
    pub fn request(&mut self, req: &Json) -> Result<Json, ClientError> {
        self.out.clear();
        req.write_to(&mut self.out);
        self.out.push('\n');
        self.stream.get_mut().write_all(self.out.as_bytes())?;
        let mut line = Vec::new();
        let n = (&mut self.stream)
            .take(MAX_REPLY_BYTES + 1)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )));
        }
        if line.len() as u64 > MAX_REPLY_BYTES && !line.ends_with(b"\n") {
            // The rest of the line is still unread: nothing after it on
            // this connection can be trusted.
            let _ = self.stream.get_ref().shutdown(Shutdown::Both);
            return Err(ClientError::Protocol(format!(
                "reply line longer than {MAX_REPLY_BYTES} bytes"
            )));
        }
        let text = std::str::from_utf8(&line)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".into()))?;
        let resp = Json::parse(text.trim())
            .map_err(|e| ClientError::Protocol(format!("bad response JSON: {e}")))?;
        match resp.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(resp),
            Some(false) => Err(ClientError::Daemon {
                message: resp
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified error")
                    .to_string(),
                rejected: resp.get("rejected").and_then(Json::as_bool) == Some(true),
            }),
            None => Err(ClientError::Protocol("response missing \"ok\"".into())),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Json::obj().with("op", "ping")).map(|_| ())
    }

    /// Submits a spec and blocks until the daemon returns the result.
    ///
    /// # Errors
    ///
    /// Queue-full rejections surface as [`ClientError::Daemon`] with
    /// `rejected: true`; synthesis failures as `rejected: false`.
    pub fn submit_wait(
        &mut self,
        spec: &ParserSpec,
        device: &DeviceProfile,
        opts: OptConfig,
        deadline: Option<Duration>,
    ) -> Result<SubmitOutcome, ClientError> {
        let mut req = Json::obj()
            .with("op", "submit")
            .with("spec", codec::spec_to_json(spec))
            .with("device", codec::device_to_json(device))
            .with("opts", proto::opts_to_json(opts))
            .with("wait", true);
        if let Some(d) = deadline {
            req.set("deadline_ms", d.as_millis().max(1) as i64);
        }
        let resp = self.request(&req)?;
        let program_json = resp
            .get("program")
            .ok_or_else(|| ClientError::Protocol("response missing \"program\"".into()))?;
        Ok(SubmitOutcome {
            key: resp
                .get("key")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            deduped: resp.get("deduped").and_then(Json::as_bool) == Some(true),
            cache_hit: resp.get("cache_hit").and_then(Json::as_bool) == Some(true),
            program: codec::program_from_json(program_json)?,
            program_text: resp
                .get("program_text")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            stats: resp.get("stats").cloned().unwrap_or(Json::Null),
        })
    }

    /// Fetches the daemon's counters.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj().with("op", "stats"))
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Json::obj().with("op", "shutdown"))
            .map(|_| ())
    }
}
