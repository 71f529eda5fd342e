//! Driving the real binaries: the `serve` daemon over one loopback
//! connection, and `dse` as one child process per op.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::host::{self, ChildUsage};

/// The binaries under test, built by the repository's own workspace
/// into the target directory this harness is built into.
pub struct Bins {
    /// The `serve` daemon.
    pub serve: PathBuf,
    /// The `dse` explorer.
    pub dse: PathBuf,
}

impl Bins {
    /// Finds `serve` and `dse` beside the running executable (`run.sh`
    /// builds them at the repository root and this harness here, into
    /// one target directory).
    pub fn locate() -> Result<Bins, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe.parent().ok_or("executable has no directory")?;
        let bins = Bins {
            serve: dir.join("serve"),
            dse: dir.join("dse"),
        };
        for bin in [&bins.serve, &bins.dse] {
            if !bin.is_file() {
                return Err(format!("missing {} (build it with run.sh)", bin.display()));
            }
        }
        Ok(bins)
    }
}

/// Engine threads of the server (and of the in-process replay that
/// mirrors it). With one worker and one engine thread each op is one
/// serial chain of work, the same on any host, and no op waits on the
/// slowest of several threads.
pub const ENGINE_THREADS: usize = 1;

/// Longest the client waits for any one reply line.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// One reply: every line the server sent for a request.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    /// Reply lines, without their newlines.
    pub lines: Vec<String>,
    /// Bytes received, newlines included.
    pub bytes: usize,
}

/// Whether a reply line carries the given `type` (responses always
/// render `type` as their first key).
pub fn has_type(line: &str, kind: &str) -> bool {
    line.strip_prefix(r#"{"type":""#)
        .and_then(|rest| rest.strip_prefix(kind))
        .is_some_and(|rest| rest.starts_with('"'))
}

/// A running `serve` process and the harness's one connection to it.
pub struct Server {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Server {
    /// Starts `serve` with one worker and [`ENGINE_THREADS`] engine
    /// threads (the fan-out for `matrix` and `stream` jobs) on an
    /// ephemeral loopback port, its cache in `cache_dir`, connects, and
    /// waits for a `pong`. `ISOS_*` variables are cleared, so the
    /// run-level pool inside each simulation keeps its default of one
    /// thread.
    pub fn start(bins: &Bins, cache_dir: &Path) -> Result<Server, String> {
        let mut child = Command::new(&bins.serve)
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--threads"])
            .arg(ENGINE_THREADS.to_string())
            .env("ISOS_CACHE_DIR", cache_dir)
            .env_remove("ISOS_THREADS")
            .env_remove("ISOS_NO_CACHE")
            .env_remove("ISOS_CACHE_BYTES")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bins.serve.display()))?;
        let connected = (|| {
            let stdout = child.stdout.take().ok_or("serve stdout not captured")?;
            let mut first = String::new();
            BufReader::new(stdout)
                .read_line(&mut first)
                .map_err(|e| format!("read listening line: {e}"))?;
            let addr = serde::json::parse(first.trim())
                .ok()
                .and_then(|v| {
                    v.field("addr")
                        .ok()
                        .and_then(|a| a.as_str().map(str::to_string))
                })
                .ok_or_else(|| format!("serve did not announce its address: {first:?}"))?;
            let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            stream
                .set_read_timeout(Some(READ_TIMEOUT))
                .map_err(|e| format!("read timeout: {e}"))?;
            let writer = stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?;
            Ok::<_, String>((BufReader::new(stream), writer))
        })();
        let (reader, writer) = match connected {
            Ok(pair) => pair,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut server = Server {
            child,
            reader,
            writer,
        };
        let pong = server.request(r#"{"type":"ping"}"#)?;
        if !pong.lines.iter().any(|l| has_type(l, "pong")) {
            return Err(format!("ping answered with {:?}", pong.lines));
        }
        Ok(server)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request line and reads its reply: rows until `done`, or
    /// a single `stats`/`pong`/`bye`/request-level `error` line.
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = Reply::default();
        loop {
            let mut buf = String::new();
            let n = self
                .reader
                .read_line(&mut buf)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            reply.bytes += n;
            let text = buf.trim_end().to_string();
            let last = ["done", "stats", "pong", "bye"]
                .iter()
                .any(|k| has_type(&text, k))
                || (has_type(&text, "error") && !text.contains(r#""index":"#));
            reply.lines.push(text);
            if last {
                return Ok(reply);
            }
        }
    }

    /// The `stats` response, parsed.
    pub fn stats(&mut self) -> Result<serde::json::Value, String> {
        let reply = self.request(r#"{"type":"stats"}"#)?;
        let line = reply.lines.last().ok_or("empty stats reply")?;
        serde::json::parse(line).map_err(|e| format!("bad stats line: {e}"))
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let bye = self.request(r#"{"type":"shutdown"}"#);
        let status = self.child.wait().map_err(|e| format!("wait serve: {e}"))?;
        bye?;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("serve exited with {status}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After `stop` the child has been reaped and this is a no-op;
        // on an error path it makes sure no server outlives the harness.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs one `dse --arch-space` child to completion, single-threaded
/// (`ISOS_THREADS=1` sizes both its engine and its run-level pool), and
/// returns its own CPU time and peak RSS.
pub fn run_dse(
    bins: &Bins,
    net: &str,
    seed: u64,
    smoke: bool,
    out: &Path,
    cache_dir: &Path,
) -> Result<ChildUsage, String> {
    let mut cmd = Command::new(&bins.dse);
    cmd.args(["--arch-space", "--net", net, "--seed"])
        .arg(seed.to_string())
        .arg("--out")
        .arg(out);
    if smoke {
        cmd.arg("--smoke");
    }
    let child = cmd
        .env("ISOS_CACHE_DIR", cache_dir)
        .env("ISOS_THREADS", "1")
        .env_remove("ISOS_NO_CACHE")
        .env_remove("ISOS_CACHE_BYTES")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bins.dse.display()))?;
    // Reaped here, with its rusage; `Child` is dropped without waiting.
    let (ok, usage) = host::wait_child(child.id())?;
    ok.then_some(usage)
        .ok_or_else(|| format!("dse --net {net} failed"))
}

/// Wall-clock seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_types_are_read_from_the_first_key() {
        assert!(has_type(r#"{"type":"done","jobs":1}"#, "done"));
        assert!(!has_type(r#"{"type":"done_x"}"#, "done"));
        assert!(!has_type(r#"{"kind":"done"}"#, "done"));
        assert!(has_type(r#"{"type":"row","workload":"G58"}"#, "row"));
    }
}
