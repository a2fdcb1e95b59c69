//! Spawning agents and measuring what they really cost.
//!
//! Virtual-time metrics come back on the agent's stdout; this module adds
//! the *wall-clock* side: elapsed time, CPU time and peak RSS per agent
//! process. On Linux both come from `/proc/<pid>` (`status` for `VmHWM`,
//! `stat` for utime/stime), sampled by the orchestrator while the child
//! runs; elsewhere the fields degrade to `None` and only wall time is
//! reported. These numbers feed the human sweep table only — the
//! byte-stable `fleet_summary.json` carries exclusively deterministic
//! virtual-time data.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Linux `USER_HZ`: the unit of utime/stime in `/proc/<pid>/stat`. 100 on
/// every mainstream Linux config; without libc there is no `sysconf`, and
/// a wrong constant here skews a *reported* wall-side number only.
const CLK_TCK: f64 = 100.0;

/// How often the monitor samples `/proc` while the agent runs.
const POLL: Duration = Duration::from_millis(10);

/// Wall-clock resource usage of one finished agent process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// Elapsed wall time.
    pub wall_s: f64,
    /// CPU seconds (user + system), if `/proc` was readable.
    pub cpu_s: Option<f64>,
    /// Peak resident set in KiB (`VmHWM`), if `/proc` was readable.
    pub max_rss_kb: Option<u64>,
}

/// Outcome of running one agent to completion.
#[derive(Debug)]
pub struct AgentRun {
    /// Captured stdout (the metrics line lives here).
    pub stdout: String,
    /// Captured stderr (surfaced on failure).
    pub stderr: String,
    /// Process exit code (`None` if killed by signal/timeout).
    pub exit_code: Option<i32>,
    /// Wall/CPU/RSS usage.
    pub usage: Usage,
}

/// Parse the `VmHWM:` row of `/proc/<pid>/status` into KiB.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Parse utime+stime (clock ticks) from a `/proc/<pid>/stat` line. The
/// comm field (2) may contain spaces and parentheses, so fields are
/// counted after the *last* `)`: utime and stime are fields 14 and 15 of
/// the full line, i.e. positions 11 and 12 after comm.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn sample_proc(pid: u32) -> (Option<u64>, Option<u64>) {
    let rss = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .as_deref()
        .and_then(parse_vmhwm_kb);
    let ticks = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .as_deref()
        .and_then(parse_cpu_ticks);
    (rss, ticks)
}

/// Run `cmd` to completion, capturing output and usage. The child is
/// killed (and an error returned) if it runs past `timeout` — a hung
/// agent must fail the sweep loudly, not wedge CI. `label` names the
/// agent in every error.
pub fn run_agent(label: &str, cmd: &mut Command, timeout: Duration) -> Result<AgentRun, String> {
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).stdin(Stdio::null());
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("agent {label}: failed to spawn {:?}: {e}", cmd.get_program()))?;
    let pid = child.id();

    // Drain both pipes on threads so a chatty agent can't fill a pipe and
    // deadlock against our wait loop.
    let mut stdout_pipe = child.stdout.take().expect("stdout piped");
    let mut stderr_pipe = child.stderr.take().expect("stderr piped");
    let out_thread = std::thread::spawn(move || {
        let mut s = String::new();
        stdout_pipe.read_to_string(&mut s).ok();
        s
    });
    let err_thread = std::thread::spawn(move || {
        let mut s = String::new();
        stderr_pipe.read_to_string(&mut s).ok();
        s
    });

    let (mut max_rss, mut cpu_ticks) = (None, None);
    let status = loop {
        let (rss, ticks) = sample_proc(pid);
        max_rss = max_rss.max(rss);
        cpu_ticks = cpu_ticks.max(ticks);
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if start.elapsed() > timeout {
                    child.kill().ok();
                    child.wait().ok();
                    return Err(format!(
                        "agent {label}: timed out after {}s and was killed",
                        timeout.as_secs()
                    ));
                }
                std::thread::sleep(POLL);
            }
            Err(e) => return Err(format!("agent {label}: wait failed: {e}")),
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let stdout = out_thread.join().unwrap_or_default();
    let stderr = err_thread.join().unwrap_or_default();
    Ok(AgentRun {
        stdout,
        stderr,
        exit_code: status.code(),
        usage: Usage { wall_s, cpu_s: cpu_ticks.map(|t| t as f64 / CLK_TCK), max_rss_kb: max_rss },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_parses_the_proc_status_row() {
        let status =
            "Name:\tbench_agent\nVmPeak:\t  12345 kB\nVmHWM:\t    9876 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(9876));
        assert_eq!(parse_vmhwm_kb("Name: x\n"), None);
        assert_eq!(parse_vmhwm_kb(""), None);
    }

    #[test]
    fn cpu_ticks_survive_hostile_comm_names() {
        // comm with spaces and a ')' — fields must be counted after the
        // LAST close paren. utime=77 stime=23 at fields 14/15.
        let stat = "4242 (a (we)ird) name) R 1 2 3 4 5 6 7 8 9 10 77 23 0 0 20 0 1 0 100 200 300";
        assert_eq!(parse_cpu_ticks(stat), Some(100));
        assert_eq!(parse_cpu_ticks("no parens here"), None);
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None, "truncated line");
    }

    #[test]
    fn run_agent_captures_output_and_usage() {
        // `sh` exists everywhere this repo builds; the child burns a tiny
        // bit of CPU so the usage fields are exercised.
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo '{\"ok\":1}'; echo warn >&2"]);
        let run = run_agent("sh-test", &mut cmd, Duration::from_secs(30)).unwrap();
        assert_eq!(run.exit_code, Some(0));
        assert_eq!(run.stdout.trim(), "{\"ok\":1}");
        assert_eq!(run.stderr.trim(), "warn");
        assert!(run.usage.wall_s >= 0.0);
    }

    #[test]
    fn run_agent_kills_on_timeout_naming_the_agent() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "sleep 30"]);
        let err = run_agent("sleepy", &mut cmd, Duration::from_millis(80)).unwrap_err();
        assert!(err.contains("sleepy") && err.contains("timed out"), "{err}");
    }

    #[test]
    fn run_agent_reports_spawn_failure() {
        let err =
            run_agent("ghost", &mut Command::new("/nonexistent/bin/ghost"), Duration::from_secs(1))
                .unwrap_err();
        assert!(err.contains("ghost") && err.contains("spawn"), "{err}");
    }
}
