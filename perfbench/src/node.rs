//! One `roofd` node run as a child process.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use roofline_service::client::Client;

/// Memory-tier budget the nodes run with. The roofd_hits key set is
/// sized to overflow it, so its tail is served from the disk tier.
const MEM_BUDGET_MB: u32 = 1;

/// A running `roofd` child. Dropping it kills and reaps the process if
/// [`Node::shutdown`] was not called.
pub struct Node {
    child: Option<Child>,
    /// Kept open so a later line on the node's stdout cannot fail.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Node {
    /// Starts a single standalone node on an ephemeral port with two
    /// workers, its disk tier in `cache_dir`, and waits until it answers
    /// a ping.
    pub fn start(roofd: &Path, cache_dir: &Path) -> Result<Node, String> {
        let mut child = Command::new(roofd)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--cache-dir"])
            .arg(cache_dir)
            .args(["--mem-budget-mb", &MEM_BUDGET_MB.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", roofd.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut node = Node {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        node.stdout
            .read_line(&mut line)
            .map_err(|e| format!("read roofd banner: {e}"))?;
        node.addr = line
            .trim()
            .strip_prefix("roofd listening on ")
            .ok_or_else(|| format!("unexpected roofd banner {line:?}"))?
            .to_string();
        node.client()?
            .ping()
            .map_err(|e| format!("ping {}: {e}", node.addr))?;
        Ok(node)
    }

    /// A fresh connection to the node.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect_with(self.addr.as_str(), Some(Duration::from_secs(60)))
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The node's counters.
    pub fn stats(&self) -> Result<Vec<(String, u64)>, String> {
        self.client()?.stats().map_err(|e| format!("stats: {e}"))
    }

    /// Peak resident set of the node so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("node is running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// Graceful stop: the `shutdown` command, then wait for exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let mut child = self.child.take().expect("node is running");
        if let Err(e) = sent {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("shutdown: {e}"));
        }
        let status = child.wait().map_err(|e| format!("wait roofd: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("roofd exited with {status}"))
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
