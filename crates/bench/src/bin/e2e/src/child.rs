//! The mesh workload's processes: four `parjoin-worker`s and one
//! `parjoin-coordinator`, all children of the harness so it knows every
//! pid (for `/proc`) and kills and reaps every one of them on every
//! path.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker may take to announce its address, and the
/// coordinator to print `mesh up`.
const LAUNCH_DEADLINE: Duration = Duration::from_secs(20);
/// How long the coordinator may stay silent between two lines: a query
/// takes a tenth of a second, a stalled handshake takes forever.
pub const LINE_DEADLINE: Duration = Duration::from_secs(30);

/// The two binaries the mesh workload runs.
pub struct Bins {
    coordinator: PathBuf,
    worker: PathBuf,
}

/// The directory this harness was built into and the cargo profile flag
/// that builds siblings into it.
fn own_target() -> Result<(PathBuf, Option<&'static str>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the harness binary has no parent directory")?;
    let profile = (dir.file_name().is_some_and(|n| n == "release")).then_some("--release");
    Ok((dir.to_path_buf(), profile))
}

impl Bins {
    /// Finds `parjoin-coordinator` and `parjoin-worker` beside the
    /// harness binary.
    pub fn locate() -> Result<Bins, String> {
        let (dir, _) = own_target()?;
        let bins = Bins {
            coordinator: dir.join("parjoin-coordinator"),
            worker: dir.join("parjoin-worker"),
        };
        for bin in [&bins.coordinator, &bins.worker] {
            if !bin.is_file() {
                return Err(format!(
                    "{} is missing: the mesh workload runs the parjoin-coordinator and \
                     parjoin-worker binaries from the harness's own directory. Run the \
                     harness from the repository root, which builds them, or build them \
                     there with `cargo build --release --package parjoin --bins \
                     --target-dir {}`",
                    bin.display(),
                    dir.parent().unwrap_or(&dir).display()
                ));
            }
        }
        Ok(bins)
    }

    /// Builds the two binaries beside the harness when the working
    /// directory is the repository root (where a benchmark driver runs
    /// the harness from a fresh checkout). Elsewhere this does nothing
    /// and [`Bins::locate`] reports what is missing.
    pub fn build_in_checkout() -> Result<(), String> {
        if !Path::new("src/bin/parjoin-coordinator.rs").is_file() {
            return Ok(());
        }
        let (dir, profile) = own_target()?;
        let target = dir
            .parent()
            .ok_or("no target directory above the harness")?;
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--quiet", "--package", "parjoin", "--bins"])
            .args(profile)
            .arg("--target-dir")
            .arg(target)
            // Cargo's own chatter must not end up on the result line's
            // stream.
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("running cargo: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!(
                "`cargo build --package parjoin --bins` failed: {status}"
            ))
        }
    }
}

/// The lines of one child's stdout, read on a helper thread so that the
/// harness can stop waiting for a child that hangs.
struct Lines {
    rx: Receiver<std::io::Result<String>>,
    reader: Option<JoinHandle<()>>,
}

impl Lines {
    fn of(stdout: ChildStdout) -> Lines {
        let (tx, rx) = mpsc::channel();
        // Ends with the child's stdout; joined in `Drop`, which runs
        // after `Children::drop` killed the child. xtask: allow(spawn)
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Lines {
            rx,
            reader: Some(reader),
        }
    }

    /// The next line; `None` once the child closed its stdout. An error
    /// when none arrives within `deadline`.
    fn next(&self, deadline: Duration) -> Result<Option<String>, String> {
        match self.rx.recv_timeout(deadline) {
            Ok(Ok(line)) => Ok(Some(line.trim_end().to_string())),
            Ok(Err(e)) => Err(format!("reading a mesh process: {e}")),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err(format!(
                "a mesh process printed nothing for {} s",
                deadline.as_secs()
            )),
        }
    }
}

impl Drop for Lines {
    fn drop(&mut self) {
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Child processes that are killed and reaped when dropped, with the
/// readers of their stdout, which end once they are.
#[derive(Default)]
struct Children {
    /// Workers first, the coordinator last.
    procs: Vec<Child>,
    /// The workers' stdout (the coordinator's is [`Processes::stdout`]).
    /// Declared after `procs` and so dropped after `drop` below ran.
    worker_lines: Vec<Lines>,
}

impl Drop for Children {
    fn drop(&mut self) {
        // Last launched first: the coordinator must not outlive its
        // workers long enough to report their deaths.
        for c in self.procs.iter_mut().rev() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// A running coordinator with its four workers.
pub struct Processes {
    /// Dropped, and so killed, before `stdout`'s reader is joined.
    children: Children,
    stdout: Lines,
    /// Launch of the first worker → the coordinator's `mesh up` line.
    pub mesh_up: Duration,
}

/// One `Qn CONFIG: …` line of the coordinator's stdout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// `Q1 HC_TJ: 123 tuples, 456 shuffled, 1 rounds, tx/rx reconciled`
    Result {
        /// Result tuples.
        tuples: u64,
        /// Tuples the workers sent.
        shuffled: u64,
        /// Communication rounds.
        rounds: u64,
    },
    /// `Q1 HC_TJ: byte-identical to Local` (from `--check-local`).
    IdenticalToLocal,
    /// Anything else.
    Other,
}

/// Parses one line of coordinator output.
pub fn parse_line(line: &str) -> Line {
    let Some((_, rest)) = line.split_once(": ") else {
        return Line::Other;
    };
    if rest.trim() == "byte-identical to Local" {
        return Line::IdenticalToLocal;
    }
    let mut fields = rest.split(", ");
    let mut number =
        |suffix: &str| -> Option<u64> { fields.next()?.trim().strip_suffix(suffix)?.parse().ok() };
    match (
        number(" tuples"),
        number(" shuffled"),
        number(" rounds"),
        fields.next(),
    ) {
        (Some(tuples), Some(shuffled), Some(rounds), Some(_)) => Line::Result {
            tuples,
            shuffled,
            rounds,
        },
        _ => Line::Other,
    }
}

impl Processes {
    /// Launches `workers` workers on ephemeral loopback ports, then a
    /// coordinator that dials them and runs `coordinator_args`; returns
    /// once the coordinator printed `mesh up`.
    pub fn launch(
        bins: &Bins,
        workers: usize,
        coordinator_args: &[String],
    ) -> Result<Processes, String> {
        let t0 = Instant::now();
        let mut children = Children::default();
        let mut hosts = Vec::with_capacity(workers);
        for i in 0..workers {
            let mut child = Command::new(&bins.worker)
                .args(["--listen", "127.0.0.1:0"])
                .stdout(Stdio::piped())
                // A worker that fails shows up as the coordinator's error;
                // its own last words when the harness kills the mesh
                // mid-query are noise.
                .stderr(Stdio::null())
                // Reaped by `Children::drop`. xtask: allow(spawn)
                .spawn()
                .map_err(|e| format!("launch {}: {e}", bins.worker.display()))?;
            let stdout = child.stdout.take();
            children.procs.push(child);
            let lines = Lines::of(stdout.ok_or("worker stdout not piped")?);
            let line = lines.next(LAUNCH_DEADLINE);
            children.worker_lines.push(lines);
            let line = line?.unwrap_or_default();
            let addr = line
                .strip_prefix("listening ")
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .ok_or_else(|| format!("worker {i} announced {line:?}, not `listening ADDR`"))?;
            hosts.push(addr.to_string());
        }

        let mut coordinator = Command::new(&bins.coordinator)
            .args(["--hosts", &hosts.join(",")])
            .args(coordinator_args)
            .stdout(Stdio::piped())
            // Reaped by `Children::drop`. xtask: allow(spawn)
            .spawn()
            .map_err(|e| format!("launch {}: {e}", bins.coordinator.display()))?;
        let stdout = coordinator.stdout.take();
        children.procs.push(coordinator);
        let mut mesh = Processes {
            children,
            stdout: Lines::of(stdout.ok_or("coordinator stdout not piped")?),
            mesh_up: Duration::ZERO,
        };
        match mesh.stdout.next(LAUNCH_DEADLINE)? {
            Some(line) if line.starts_with("mesh up") => {
                mesh.mesh_up = t0.elapsed();
                Ok(mesh)
            }
            other => Err(format!("coordinator printed {other:?}, not `mesh up`")),
        }
    }

    /// The coordinator's next stdout line; `None` once it closed
    /// stdout, an error when it stays silent for [`LINE_DEADLINE`].
    pub fn next_line(&mut self) -> Result<Option<String>, String> {
        self.stdout.next(LINE_DEADLINE)
    }

    /// Pids of every process of the mesh still running.
    pub fn pids(&self) -> Vec<u32> {
        self.children.procs.iter().map(Child::id).collect()
    }

    /// Kills and reaps every process now, without waiting for the drop.
    pub fn kill(&mut self) {
        drop(std::mem::take(&mut self.children));
    }

    /// Waits, up to [`LINE_DEADLINE`], for the coordinator and then the
    /// workers to exit on their own; fails unless every one exited
    /// cleanly. What still runs at the deadline is killed by the drop.
    pub fn join(mut self) -> Result<(), String> {
        let deadline = Instant::now() + LINE_DEADLINE;
        // The coordinator shuts the workers down, so it is waited first.
        for c in self.children.procs.iter_mut().rev() {
            loop {
                match c.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => return Err(format!("a mesh process exited with {status}")),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok(None) => return Err("a mesh process did not exit".to_string()),
                    Err(e) => return Err(format!("waiting for a mesh process: {e}")),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines() {
        assert_eq!(
            parse_line("Q1 HC_TJ: 1234 tuples, 98765 shuffled, 1 rounds, tx/rx reconciled"),
            Line::Result {
                tuples: 1234,
                shuffled: 98765,
                rounds: 1
            }
        );
        assert_eq!(
            parse_line("Q1 RS_HJ: 0 tuples, 0 shuffled, 2 rounds, tx/rx reconciled\n"),
            Line::Result {
                tuples: 0,
                shuffled: 0,
                rounds: 2
            }
        );
    }

    #[test]
    fn a_silent_child_is_an_error_not_a_hang() {
        let launch = |script: &str| {
            let mut child = Command::new("sh")
                .args(["-c", script])
                .stdout(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("sh: {e}"));
            let lines = Lines::of(child.stdout.take().unwrap_or_else(|| panic!("no stdout")));
            let mut children = Children::default();
            children.procs.push(child);
            (children, lines)
        };
        let t0 = Instant::now();
        let (mut children, lines) = launch("echo one; exec sleep 60");
        assert_eq!(lines.next(LAUNCH_DEADLINE), Ok(Some("one".to_string())));
        assert!(lines.next(Duration::from_millis(50)).is_err());
        // Killed and reaped, and only then is the reader joined.
        children.worker_lines.push(lines);
        drop(children);
        let (_children, lines) = launch("echo last");
        assert_eq!(lines.next(LAUNCH_DEADLINE), Ok(Some("last".to_string())));
        assert_eq!(lines.next(LAUNCH_DEADLINE), Ok(None));
        assert!(t0.elapsed() < LAUNCH_DEADLINE);
    }

    #[test]
    fn other_lines() {
        assert_eq!(
            parse_line("Q1 HC_TJ: byte-identical to Local"),
            Line::IdenticalToLocal
        );
        assert_eq!(parse_line("mesh up: 4 workers"), Line::Other);
        assert_eq!(parse_line("Q1 HC_TJ: many tuples, 1 shuffled"), Line::Other);
        assert_eq!(parse_line("Q1 HC_TJ: 5 tuples, 6 shuffled"), Line::Other);
        assert_eq!(parse_line(""), Line::Other);
    }
}
