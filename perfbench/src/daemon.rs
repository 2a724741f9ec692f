//! Set-up of the daemon under test: `chemcost generate` + `chemcost
//! train` (paper configuration) + `chemcost serve` with its default
//! settings, timed until the first answer, plus `/proc` readings of the
//! running server.

use crate::wire;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `chemcost serve`. Dropping it kills the process and waits
/// for it, so no error path leaves a daemon behind.
pub struct Daemon {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// The model file it serves.
    pub model: PathBuf,
}

/// Run one CLI step to completion, failing on a non-zero exit.
fn run_step(chemcost: &Path, args: &[&str], log: &Path) -> Result<(), String> {
    let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let status = Command::new(chemcost)
        .args(args)
        .stdout(Stdio::null())
        .stderr(log_file)
        .status()
        .map_err(|e| format!("spawning {}: {e}", chemcost.display()))?;
    if !status.success() {
        let tail = std::fs::read_to_string(log).unwrap_or_default();
        return Err(format!("chemcost {} failed ({status}): {tail}", args.join(" ")));
    }
    Ok(())
}

/// Generate the Aurora corpus from `seed`, fit the paper-configuration
/// model on it, start the daemon on that model and wait until it answers
/// `GET /healthz`. Returns the daemon and the seconds this took.
pub fn set_up(chemcost: &Path, dir: &Path, seed: u64) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let data = dir.join("aurora.csv");
    let model = dir.join("model.ccgb");
    let data_s = data.to_str().ok_or("non-UTF-8 run directory")?;
    let model_s = model.to_str().ok_or("non-UTF-8 run directory")?;
    let seed_s = seed.to_string();
    run_step(
        chemcost,
        &["generate", "--machine", "aurora", "--out", data_s, "--seed", &seed_s],
        &dir.join("generate.log"),
    )?;
    run_step(chemcost, &["train", "--data", data_s, "--out", model_s], &dir.join("train.log"))?;

    let log = dir.join("serve.log");
    let log_file = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
    let child = Command::new(chemcost)
        .args(["serve", "--model", model_s, "--machine", "aurora", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(log_file)
        .spawn()
        .map_err(|e| format!("spawning chemcost serve: {e}"))?;
    let mut daemon = Daemon { child, addr: "127.0.0.1:1".parse().expect("literal"), model };
    let deadline = Instant::now() + Duration::from_secs(60);
    daemon.addr = loop {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        if let Some(addr) = text
            .split("listening on http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
        {
            break addr;
        }
        if let Ok(Some(status)) = daemon.child.try_wait() {
            return Err(format!("chemcost serve exited early ({status}): {text}"));
        }
        if Instant::now() > deadline {
            return Err(format!("chemcost serve did not bind within 60 s: {text}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    loop {
        if let Ok((200, _)) = wire::call(daemon.addr, "GET", "/healthz", "") {
            break;
        }
        if Instant::now() > deadline {
            return Err("chemcost serve never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((daemon, started.elapsed().as_secs_f64()))
}

impl Daemon {
    /// Process id of the server.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a graceful drain and wait for the process to exit; kill it
    /// if it is still running after 30 s.
    pub fn shut_down(mut self) -> Result<(), String> {
        let asked = wire::call(self.addr, "POST", "/v1/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("chemcost serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    return Err(format!(
                        "chemcost serve did not drain (shutdown request: {asked:?})"
                    ))
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// User + system CPU time a process has used, in microseconds (fields 14
/// and 15 of `/proc/<pid>/stat`, at the kernel's 100 Hz USER_HZ).
pub fn cpu_us(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may contain spaces; fields restart after its ')'.
    let rest = text.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: malformed"))
    };
    // After the ')' the first field is the state (field 3), so utime
    // (field 14) and stime (field 15) sit at offsets 11 and 12.
    Ok((ticks(11)? + ticks(12)?) * 10_000.0)
}
