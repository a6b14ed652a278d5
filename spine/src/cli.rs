//! Driving the real `pasco` binary: build it, run it to completion with
//! its CPU and memory bill, keep a `pasco serve` child alive and reap it.
//!
//! End-to-end numbers come from these child processes only — the same
//! executable a user runs, found next to the spine's own build output.

use crate::procfs;
use pasco_server::PascoClient;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a drained server may take to exit before it is killed.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);
/// Socket deadline on every spine client: a wedged server fails the run
/// instead of hanging it past the driver's limit.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Where Cargo puts build output for this invocation: `CARGO_TARGET_DIR`
/// when the driver sets it, `target/` otherwise. Scratch files live under
/// `<target>/spine/`, never outside the checkout.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from).unwrap_or_else(|| "target".into())
}

/// The built `pasco` executable.
#[derive(Clone, Debug)]
pub struct PascoBin {
    path: PathBuf,
}

/// What one run-to-completion child cost.
#[derive(Clone, Debug)]
pub struct ExitBill {
    /// Spawn to end of output, seconds.
    pub wall_s: f64,
    /// utime + stime of the whole process, seconds.
    pub cpu_s: f64,
    /// Highest `VmHWM` sampled while it ran, KiB.
    pub peak_rss_kb: u64,
    /// Everything it printed to stdout.
    pub stdout: String,
}

impl PascoBin {
    /// Builds `pasco` from the checkout the spine was started in
    /// (release profile, offline) and returns a handle to it. The build
    /// is a fingerprint check when nothing changed.
    pub fn build_from_checkout() -> Result<PascoBin, String> {
        if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/pasco.rs").is_file() {
            return Err("run the spine from the root of a pasco checkout".into());
        }
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "--quiet", "--bin", "pasco"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("cargo build --release --bin pasco failed ({status})"));
        }
        let path = target_dir().join("release").join("pasco");
        if !path.is_file() {
            return Err(format!("built pasco not found at {}", path.display()));
        }
        Ok(PascoBin { path })
    }

    fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.path);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped());
        cmd
    }

    /// Runs `pasco <args>` to completion and bills it. Peak memory is
    /// polled from a sampler thread while the main thread drains stdout;
    /// CPU is read off the zombie before it is reaped.
    pub fn run_to_exit(&self, args: &[&str]) -> Result<ExitBill, String> {
        let t0 = Instant::now();
        let mut child: Child =
            self.command(args).spawn().map_err(|e| format!("spawn pasco {}: {e}", args[0]))?;
        let pid = child.id();
        let mut pipe: ChildStdout = child.stdout.take().ok_or("child stdout not piped")?;
        let done = AtomicBool::new(false);
        let peak = AtomicU64::new(0);
        let mut stdout = String::new();
        let wall_s = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    if let Some(kb) = procfs::read_peak_rss_kb(pid) {
                        peak.fetch_max(kb, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
            // EOF on the pipe means the process is exiting: its work is
            // over and only teardown remains.
            let read = pipe.read_to_string(&mut stdout);
            let wall_s = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::Release);
            read.map(|_| wall_s)
        })
        .map_err(|e| format!("reading pasco {} output: {e}", args[0]))?;
        let cpu_s = final_cpu_seconds(pid);
        let status = child.wait().map_err(|e| format!("wait pasco {}: {e}", args[0]))?;
        if !status.success() {
            return Err(format!("pasco {} exited with {status}", args.join(" ")));
        }
        Ok(ExitBill { wall_s, cpu_s, peak_rss_kb: peak.load(Ordering::Relaxed), stdout })
    }

    /// Spawns `pasco serve <args> --addr 127.0.0.1:0` and waits for its
    /// `listening on <addr>` line.
    pub fn spawn_server(&self, args: &[&str]) -> Result<ServeChild, String> {
        let mut full: Vec<&str> = vec!["serve"];
        full.extend_from_slice(args);
        full.extend_from_slice(&["--addr", "127.0.0.1:0"]);
        let mut child: Child =
            self.command(&full).spawn().map_err(|e| format!("spawn pasco serve: {e}"))?;
        match read_banner(&mut child) {
            Ok((addr, banner_pipe)) => Ok(ServeChild { child, addr, _banner_pipe: banner_pipe }),
            Err(why) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(why)
            }
        }
    }
}

/// Reads the server's first stdout line and parses the address out of it.
fn read_banner(child: &mut Child) -> Result<(SocketAddr, BufReader<ChildStdout>), String> {
    let pipe: ChildStdout = child.stdout.take().ok_or("child stdout not piped")?;
    let mut lines = BufReader::new(pipe);
    let mut line = String::new();
    lines.read_line(&mut line).map_err(|e| format!("reading serve banner: {e}"))?;
    let addr = parse_listening_line(&line)
        .ok_or_else(|| format!("pasco serve did not announce an address: `{}`", line.trim()))?;
    Ok((addr, lines))
}

/// CPU seconds of a finished-but-unreaped child. Waits (briefly) for the
/// zombie state so the last ticks are in; falls back to the last live
/// reading.
fn final_cpu_seconds(pid: u32) -> f64 {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = 0.0;
    loop {
        match procfs::read_stat_line(pid) {
            Some(stat) => {
                last = stat.cpu_seconds();
                if stat.state == 'Z' || Instant::now() >= deadline {
                    return last;
                }
            }
            None => return last,
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Pulls the socket address out of `listening on 127.0.0.1:4242 (…)`.
pub fn parse_listening_line(line: &str) -> Option<SocketAddr> {
    line.strip_prefix("listening on ")?.split_whitespace().next()?.parse().ok()
}

/// A running `pasco serve` child. Dropping it kills and reaps the
/// process, so no error path leaves a server behind.
pub struct ServeChild {
    child: Child,
    addr: SocketAddr,
    /// Held open so the server's closing `drained` line has a reader.
    _banner_pipe: BufReader<ChildStdout>,
}

impl ServeChild {
    /// The address the server announced.
    pub fn listen_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's process id.
    pub fn server_pid(&self) -> u32 {
        self.child.id()
    }

    /// A connected client with the spine's socket deadline.
    pub fn connect_client(&self) -> Result<PascoClient, String> {
        open_client(self.listen_addr())
    }

    /// Drains the server with the protocol's shutdown frame and reaps
    /// it, killing it if it does not exit in time.
    pub fn drain_and_reap(mut self) -> Result<(), String> {
        let client: PascoClient = self.connect_client()?;
        PascoClient::shutdown_server(client).map_err(|e| format!("shutdown frame: {e}"))?;
        let deadline = Instant::now() + REAP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("pasco serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("pasco serve ignored the shutdown frame".into()),
                Err(e) => return Err(format!("wait pasco serve: {e}")),
            }
        }
        // Falling out through an `Err` above still reaps: see `Drop`.
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Connects a [`PascoClient`] with the spine's socket deadline.
pub fn open_client(addr: SocketAddr) -> Result<PascoClient, String> {
    let mut client: PascoClient =
        PascoClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    PascoClient::set_io_timeout(&mut client, Some(CLIENT_IO_TIMEOUT))
        .map_err(|e| format!("socket deadline: {e}"))?;
    Ok(client)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_yields_the_address() {
        let line = "listening on 127.0.0.1:45123 (local engine, 65536 nodes, cohort cache 64)\n";
        assert_eq!(parse_listening_line(line), Some("127.0.0.1:45123".parse().unwrap()));
        assert_eq!(parse_listening_line("error: bind failed"), None);
        assert_eq!(parse_listening_line("listening on nowhere"), None);
    }
}
