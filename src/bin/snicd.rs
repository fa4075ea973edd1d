//! `snicd` — the resident S-NIC serving daemon.
//!
//! Owns one simulated [`snic::core::device::SmartNic`] for its whole
//! lifetime and serves the line-delimited JSON protocol from
//! `snic::serve` — admission control, backpressure, deadlines, fault
//! containment, crash-safe restart.
//!
//! ```text
//! snicd [flags]                      # stdin/stdout, one JSON line each way
//! snicd --socket /run/snicd.sock     # serve Unix-socket connections instead
//! ```
//!
//! Flags:
//!
//! - `--seed N`, `--tick-us N`, `--auto-steps N`, `--deadline-us N`:
//!   daemon configuration (see `DaemonConfig`); all deterministic.
//! - `--journal <path>`: write-ahead log — every request line is
//!   appended and flushed *before* it is executed, so a crashed daemon
//!   can be reconstructed by replaying the journal.
//! - `--restore <image>`: boot by replaying a snapshot image (written
//!   by the `snapshot` op, `--snapshot-out`, or a journal promoted to
//!   an image); replayed responses are not re-emitted.
//! - `--snapshot-out <path>`: whenever a `snapshot` op completes, write
//!   the sealed image there; also writes a final image at clean exit.
//!
//! A request line that is not UTF-8 or longer than [`MAX_LINE_BYTES`]
//! is answered with a `SERVE-BAD-REQUEST` rejection and neither
//! journaled nor ingested; serving continues with the next line.
//!
//! Exit codes (documented in the README): `0` success, `2` usage or
//! I/O error, `8` restore failure.

use std::io::{BufRead, Read, Write};

use snic::serve::daemon::{Daemon, DaemonConfig};
use snic::serve::protocol::reject;
use snic::serve::{codes, snapshot};

/// Longest request line read, in bytes, excluding the newline. The
/// reader never buffers more than this of one line.
const MAX_LINE_BYTES: usize = 1 << 20;

struct Opts {
    cfg: DaemonConfig,
    journal: Option<String>,
    restore: Option<String>,
    snapshot_out: Option<String>,
    socket: Option<String>,
}

const USAGE: &str = "usage: snicd [--seed N] [--tick-us N] [--auto-steps N] [--deadline-us N] \
     [--journal <path>] [--restore <image>] [--snapshot-out <path>] [--socket <path>]";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        cfg: DaemonConfig::default(),
        journal: None,
        restore: None,
        snapshot_out: None,
        socket: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{USAGE}\n({name} needs an integer)"))
        };
        match a.as_str() {
            "--seed" => opts.cfg.seed = num("--seed")?,
            "--tick-us" => opts.cfg.tick_ps = num("--tick-us")?.saturating_mul(1_000_000),
            "--auto-steps" => {
                opts.cfg.auto_steps = u32::try_from(num("--auto-steps")?)
                    .map_err(|_| format!("{USAGE}\n(--auto-steps exceeds u32)"))?
            }
            "--deadline-us" => opts.cfg.default_deadline_us = num("--deadline-us")?,
            "--journal" => opts.journal = it.next().cloned(),
            "--restore" => opts.restore = it.next().cloned(),
            "--snapshot-out" => opts.snapshot_out = it.next().cloned(),
            "--socket" => opts.socket = it.next().cloned(),
            other => return Err(format!("{USAGE}\n(unknown flag '{other}')")),
        }
    }
    Ok(opts)
}

/// Feed one request line through the daemon, honoring the write-ahead
/// journal and snapshot sink, and hand each response to `emit`.
fn serve_line(
    daemon: &mut Daemon,
    opts: &Opts,
    line: &str,
    emit: &mut dyn FnMut(&str) -> std::io::Result<()>,
) -> Result<(), String> {
    if let Some(path) = &opts.journal {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {path}: {e}"))?;
        // Write-ahead: the line is durable before any effect happens.
        writeln!(f, "{line}").map_err(|e| format!("journal write: {e}"))?;
        f.flush().map_err(|e| format!("journal flush: {e}"))?;
    }
    let before = daemon.last_snapshot().map(str::to_string);
    for response in daemon.ingest(line) {
        emit(&response).map_err(|e| format!("write response: {e}"))?;
    }
    if let (Some(path), Some(image)) = (&opts.snapshot_out, daemon.last_snapshot()) {
        if before.as_deref() != Some(image) {
            std::fs::write(path, image).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    Ok(())
}

/// Read the next line of `reader` into `buf` without its line ending,
/// buffering at most [`MAX_LINE_BYTES`] + 1 bytes of it. `None` at end
/// of input; `Some(Err)` carries the rejection text for a line that is
/// too long (the rest of it is skipped) or not UTF-8.
fn read_line<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> std::io::Result<Option<Result<&'a str, String>>> {
    buf.clear();
    if reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)?
        == 0
    {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Some(Err(format!(
            "request line longer than {MAX_LINE_BYTES} bytes"
        ))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|_| {
        "request line is not valid UTF-8".to_string()
    })))
}

/// Serve every line of `reader` until end of input.
fn serve_stream(
    daemon: &mut Daemon,
    opts: &Opts,
    reader: &mut impl BufRead,
    emit: &mut dyn FnMut(&str) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut buf = Vec::new();
    while let Some(line) = read_line(reader, &mut buf).map_err(|e| format!("read: {e}"))? {
        match line {
            Ok(line) => serve_line(daemon, opts, line, emit)?,
            // Not journaled or ingested, so a restore never replays it.
            Err(why) => emit(&reject(0, "", "?", codes::BAD_REQUEST, &why))
                .map_err(|e| format!("write response: {e}"))?,
        }
    }
    Ok(())
}

fn run(opts: &Opts) -> Result<(), (i32, String)> {
    let mut daemon = match &opts.restore {
        Some(path) => {
            let image = std::fs::read_to_string(path)
                .map_err(|e| (2, format!("cannot read {path}: {e}")))?;
            let (daemon, replayed) =
                snapshot::restore(&image).map_err(|e| (8, format!("restore failed: {e}")))?;
            eprintln!(
                "snicd: restored from {path}: {} lines replayed, {} responses suppressed",
                daemon.history().len(),
                replayed.len()
            );
            daemon
        }
        None => Daemon::new(opts.cfg.clone()),
    };

    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| (2, format!("cannot bind {path}: {e}")))?;
        eprintln!("snicd: listening on {path}");
        for stream in listener.incoming() {
            let stream = stream.map_err(|e| (2, format!("accept: {e}")))?;
            let mut reader = std::io::BufReader::new(
                stream.try_clone().map_err(|e| (2, format!("clone: {e}")))?,
            );
            let mut writer = std::io::BufWriter::new(stream);
            serve_stream(&mut daemon, opts, &mut reader, &mut |r| {
                writeln!(writer, "{r}").and_then(|()| writer.flush())
            })
            .map_err(|e| (2, e))?;
            // One connection at a time; a client sending `drain` then
            // disconnecting is the clean shutdown signal.
            if daemon
                .transcript()
                .iter()
                .any(|r| matches!(r.kind, snic::faults::ServeEventKind::DrainCompleted { .. }))
            {
                break;
            }
        }
    } else {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        serve_stream(&mut daemon, opts, &mut std::io::stdin().lock(), &mut |r| {
            writeln!(out, "{r}").and_then(|()| out.flush())
        })
        .map_err(|e| (2, e))?;
    }

    if let Some(path) = &opts.snapshot_out {
        std::fs::write(path, snapshot::render_image(&daemon))
            .map_err(|e| (2, format!("cannot write {path}: {e}")))?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("snicd: {e}");
            std::process::exit(2);
        }
    };
    if let Err((code, e)) = run(&opts) {
        eprintln!("snicd: {e}");
        std::process::exit(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse() {
        let o = parse_opts(&s(&[
            "--seed",
            "9",
            "--auto-steps",
            "0",
            "--tick-us",
            "2",
            "--deadline-us",
            "100",
            "--journal",
            "j.log",
        ]))
        .expect("parse");
        assert_eq!(o.cfg.seed, 9);
        assert_eq!(o.cfg.auto_steps, 0);
        assert_eq!(o.cfg.tick_ps, 2_000_000);
        assert_eq!(o.cfg.default_deadline_us, 100);
        assert_eq!(o.journal.as_deref(), Some("j.log"));
        assert!(parse_opts(&s(&["--bogus"])).is_err());
        assert!(parse_opts(&s(&["--seed", "many"])).is_err());
    }

    #[test]
    fn serve_line_journals_before_effects_and_snapshots() {
        let dir = std::env::temp_dir();
        let journal = dir.join("snicd-test-journal.log");
        let snap = dir.join("snicd-test-snap.img");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&snap);
        let opts = Opts {
            cfg: DaemonConfig::default(),
            journal: Some(journal.to_string_lossy().into_owned()),
            restore: None,
            snapshot_out: Some(snap.to_string_lossy().into_owned()),
            socket: None,
        };
        let mut daemon = Daemon::new(opts.cfg.clone());
        let mut responses = Vec::new();
        for line in [
            r#"{"op":"launch","tenant":"a","id":1,"name":"fw","mem":8}"#,
            r#"{"op":"snapshot","id":2}"#,
        ] {
            serve_line(&mut daemon, &opts, line, &mut |r| {
                responses.push(r.to_string());
                Ok(())
            })
            .expect("serve");
        }
        let logged = std::fs::read_to_string(&journal).expect("journal exists");
        assert_eq!(logged.lines().count(), 2, "both lines journaled");
        let image = std::fs::read_to_string(&snap).expect("snapshot written");
        let (restored, _) = snapshot::restore(&image).expect("image restores");
        assert_eq!(restored.history(), daemon.history());
        assert!(responses.iter().any(|r| r.contains("\"op\":\"snapshot\"")));
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&snap);
    }

    /// Serve `input` with a journal; return the responses and the
    /// journaled lines.
    fn serve_journaled(input: &[u8], name: &str) -> (Vec<String>, Vec<String>) {
        let journal = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&journal);
        let opts = Opts {
            cfg: DaemonConfig::default(),
            journal: Some(journal.to_string_lossy().into_owned()),
            restore: None,
            snapshot_out: None,
            socket: None,
        };
        let mut daemon = Daemon::new(opts.cfg.clone());
        let mut responses = Vec::new();
        serve_stream(&mut daemon, &opts, &mut &input[..], &mut |r| {
            responses.push(r.to_string());
            Ok(())
        })
        .expect("a bad line must not stop serving");
        let logged = std::fs::read_to_string(&journal).expect("journal exists");
        let _ = std::fs::remove_file(&journal);
        assert_eq!(daemon.history(), logged.lines().collect::<Vec<_>>());
        (responses, logged.lines().map(str::to_string).collect())
    }

    fn assert_rejected_then_served(responses: &[String], journaled: &[String]) {
        assert_eq!(responses.len(), 2, "{responses:?}");
        assert!(
            responses[0].contains(codes::BAD_REQUEST),
            "{}",
            responses[0]
        );
        assert!(
            responses[1].contains("\"op\":\"health\",\"ok\":true"),
            "{}",
            responses[1]
        );
        assert_eq!(journaled, [r#"{"op":"health"}"#], "bad line journaled");
    }

    #[test]
    fn non_utf8_line_is_rejected_and_serving_continues() {
        let (responses, journaled) =
            serve_journaled(b"\xff\xfe\n{\"op\":\"health\"}\n", "snicd-test-utf8.log");
        assert!(responses[0].contains("UTF-8"), "{}", responses[0]);
        assert_rejected_then_served(&responses, &journaled);
    }

    #[test]
    fn out_of_range_numbers_are_rejected_and_serving_continues() {
        let dir = std::env::temp_dir();
        let journal = dir.join("snicd-test-range-journal.log");
        let snap = dir.join("snicd-test-range-snap.img");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&snap);
        let opts = Opts {
            cfg: DaemonConfig::default(),
            journal: Some(journal.to_string_lossy().into_owned()),
            restore: None,
            snapshot_out: Some(snap.to_string_lossy().into_owned()),
            socket: None,
        };
        // 2^44 + 8 MiB overflows a byte count, core 65537 does not fit a
        // u16, and 18446744073710 us is more than 2^64 ps.
        let lines = [
            r#"{"op":"launch","tenant":"a","id":1,"name":"fw","mem":17592186044424}"#,
            r#"{"op":"health","id":2}"#,
            r#"{"op":"launch","tenant":"a","id":3,"name":"fw","mem":8,"core":65537}"#,
            r#"{"op":"launch","tenant":"a","id":4,"name":"fw","mem":8}"#,
            r#"{"op":"advance","id":5,"us":18446744073710}"#,
            r#"{"op":"health","id":6}"#,
            r#"{"op":"snapshot","id":7}"#,
        ];
        let input = lines.join("\n") + "\n";
        let mut daemon = Daemon::new(opts.cfg.clone());
        let mut responses = Vec::new();
        serve_stream(&mut daemon, &opts, &mut input.as_bytes(), &mut |r| {
            responses.push(r.to_string());
            Ok(())
        })
        .expect("serving continues");
        assert_eq!(responses.len(), lines.len(), "{responses:?}");
        for (i, field) in [(0, "mem"), (2, "core"), (4, "us")] {
            assert!(
                responses[i].contains(codes::BAD_REQUEST) && responses[i].contains(field),
                "{}",
                responses[i]
            );
        }
        assert!(responses[1].contains("\"ok\":true"), "{}", responses[1]);
        assert!(responses[3].contains("\"ok\":true"), "{}", responses[3]);
        // Only the in-range launch holds an NF.
        assert!(responses[5].contains("\"live\":1"), "{}", responses[5]);
        let logged = std::fs::read_to_string(&journal).expect("journal exists");
        assert_eq!(logged.lines().collect::<Vec<_>>(), lines);
        let image = std::fs::read_to_string(&snap).expect("snapshot written");
        let (restored, replayed) = snapshot::restore(&image).expect("image restores");
        assert_eq!(restored.history(), daemon.history());
        assert_eq!(replayed, responses);
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn over_long_line_is_rejected_and_serving_continues() {
        let mut input = vec![b'['; MAX_LINE_BYTES + 4096];
        input.extend_from_slice(b"\r\n{\"op\":\"health\"}\r\n");
        let (responses, journaled) = serve_journaled(&input, "snicd-test-long.log");
        assert!(responses[0].contains("longer than"), "{}", responses[0]);
        assert_rejected_then_served(&responses, &journaled);
        // A line of exactly the cap is still read whole.
        let mut buf = Vec::new();
        let mut exact = vec![b'x'; MAX_LINE_BYTES];
        exact.push(b'\n');
        let line = read_line(&mut &exact[..], &mut buf).unwrap().unwrap();
        assert_eq!(line.map(str::len), Ok(MAX_LINE_BYTES));
    }
}
