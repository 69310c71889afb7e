//! The daemon under test as a child process, and the harness's own line
//! client for its socket. Nothing here links the daemon crate: the
//! harness talks to `bonsai serve` the way any outside client would.

use crate::measure::{vm_hwm_kb, Reaper};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a freshly spawned daemon may take to answer its first `ping`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// No single request of any workload takes anywhere near this long; a
/// reply that does is a wedge, reported instead of waited on.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A `sockaddr_un` path holds 108 bytes with its terminator; the scratch
/// directory is relative to the checkout so that the path stays short
/// wherever the checkout lives.
const SOCKET_PATH_MAX: usize = 107;

/// One request/response connection to the daemon.
pub struct LineClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    reply: String,
}

impl LineClient {
    pub fn connect(socket: &Path) -> Result<Self, String> {
        let open = || -> std::io::Result<LineClient> {
            let stream = UnixStream::connect(socket)?;
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
            Ok(LineClient {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
                reply: String::new(),
            })
        };
        open().map_err(|e| format!("connect {}: {e}", socket.display()))
    }

    /// Sends one request line (the request and its newline in a single
    /// write) and returns the response line without its terminator. The
    /// returned slice lives until the next call.
    pub fn call(&mut self, line_with_newline: &str) -> std::io::Result<&str> {
        debug_assert!(line_with_newline.ends_with('\n'));
        self.writer.write_all(line_with_newline.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.reply.trim_end_matches(['\n', '\r']))
    }
}

pub fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\": true")
}

/// A running `bonsai serve` child. Dropping it kills and reaps the
/// process; [`Daemon::shutdown`] is the graceful path.
pub struct Daemon {
    child: Reaper,
    pub socket: PathBuf,
}

impl Daemon {
    /// Spawns `bonsai serve <config> --socket <dir>/d.sock --failures k
    /// --threads 1` and returns once it answers `ping` — after its cold
    /// build (parse, compress, sweep), as a waiting client feels it.
    pub fn spawn(bin: &Path, config: &Path, dir: &Path, k: usize) -> Result<Daemon, String> {
        let socket = dir.join("d.sock");
        if socket.as_os_str().len() > SOCKET_PATH_MAX {
            return Err(format!(
                "socket path {} is longer than {SOCKET_PATH_MAX} bytes",
                socket.display()
            ));
        }
        let _ = std::fs::remove_file(&socket);
        let err_path = dir.join("daemon.stderr");
        let create = |p: &Path| {
            std::fs::File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()))
        };
        let (out, err) = (create(&dir.join("daemon.stdout"))?, create(&err_path)?);
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg(config)
            .arg("--socket")
            .arg(&socket)
            .args(["--failures", &k.to_string()])
            .args(["--threads", "1"])
            // The harness's connection is never idle long, but a reaped
            // connection mid-run would read as a daemon fault.
            .args(["--idle-timeout", "0"])
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut child = Reaper(child);
        let stderr = || std::fs::read_to_string(&err_path).unwrap_or_default();

        // The daemon binds only after its build, so the first successful
        // connect + ping marks readiness.
        loop {
            if let Some(status) = child.0.try_wait().map_err(|e| format!("wait: {e}"))? {
                return Err(format!(
                    "daemon exited with {status} before listening: {}",
                    stderr().trim()
                ));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err(format!(
                    "daemon not ready within {} s: {}",
                    READY_TIMEOUT.as_secs(),
                    stderr().trim()
                ));
            }
            if socket.exists() {
                if let Ok(mut client) = LineClient::connect(&socket) {
                    if client.call("{\"op\": \"ping\"}\n").is_ok_and(is_ok) {
                        return Ok(Daemon { child, socket });
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's peak resident set so far, in KiB. `VmHWM` is a
    /// high-water mark, so one read before shutdown covers the whole life.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        vm_hwm_kb(self.child.0.id())
            .ok_or_else(|| "daemon has no VmHWM (already exited?)".to_string())
    }

    /// Graceful stop: `shutdown`, then wait for a clean exit. Anything
    /// else is an error (and the drop guard still kills and reaps).
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = LineClient::connect(&self.socket)?;
        let reply = client
            .call("{\"op\": \"shutdown\"}\n")
            .map_err(|e| format!("shutdown: {e}"))?;
        if !is_ok(reply) {
            return Err(format!("shutdown refused: {reply}"));
        }
        let begun = Instant::now();
        loop {
            match self.child.0.try_wait().map_err(|e| format!("wait: {e}"))? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status} after shutdown")),
                None if begun.elapsed() > Duration::from_secs(20) => {
                    return Err("daemon still running 20 s after shutdown".to_string())
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}
