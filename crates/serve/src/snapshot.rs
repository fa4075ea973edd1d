//! Crash-safe snapshot images: event-sourced, integrity-checked,
//! byte-stable.
//!
//! Because the daemon is a pure function of `(config, input lines)`
//! (see [`crate::daemon`]), a snapshot does not serialize the device —
//! it serializes the *cause*: the canonical config plus every ingested
//! line, in order. Restoring replays the lines through a fresh daemon
//! and then checks two SHA-256 digests recorded at snapshot time:
//!
//! - `transcript-sha256` over the rendered [`ServeRecord`] transcript,
//! - `state-sha256` over [`Daemon::state_fingerprint`] — simulated
//!   time, the full resource snapshot **including pending scrub
//!   watermarks**, and per-tenant admission state.
//!
//! A restore that replays to different digests fails loudly instead of
//! resuming from divergent state (a corrupted image, a config edit, a
//! non-deterministic regression — the differential tests exist to keep
//! that last set empty).
//!
//! # Format (version 1)
//!
//! ```text
//! # snicd snapshot v1
//! config <canonical one-line JSON>
//! lines <n>
//! <n raw input lines>
//! transcript-sha256 <64 hex chars>
//! state-sha256 <64 hex chars>
//! ```
//!
//! The version line is a hard gate: readers refuse images whose header
//! they do not know, so the format can evolve by bumping `v1` without
//! silent misparses.

use snic_crypto::sha256::{sha256, to_hex};
use snic_faults::render_serve_transcript;

use crate::daemon::{Daemon, DaemonConfig};

/// The version-1 header line.
pub const HEADER_V1: &str = "# snicd snapshot v1";

/// Digest of the daemon's serve transcript, as recorded in images.
pub fn transcript_digest(daemon: &Daemon) -> String {
    to_hex(&sha256(
        render_serve_transcript(daemon.transcript()).as_bytes(),
    ))
}

/// Digest of the daemon's state fingerprint, as recorded in images.
pub fn state_digest(daemon: &Daemon) -> String {
    to_hex(&sha256(daemon.state_fingerprint().as_bytes()))
}

/// Render a version-1 snapshot image of `daemon` as it stands.
pub fn render_image(daemon: &Daemon) -> String {
    let mut out = String::new();
    out.push_str(HEADER_V1);
    out.push('\n');
    out.push_str("config ");
    out.push_str(&daemon.config().render());
    out.push('\n');
    out.push_str(&format!("lines {}\n", daemon.history().len()));
    for line in daemon.history() {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!(
        "transcript-sha256 {}\n",
        transcript_digest(daemon)
    ));
    out.push_str(&format!("state-sha256 {}\n", state_digest(daemon)));
    out
}

/// Restore a daemon from a snapshot image: parse, replay, verify.
///
/// Returns the restored daemon plus every response line the replay
/// produced — byte-identical to what the original daemon emitted for
/// the same prefix, which is exactly what the differential restart
/// tests assert.
pub fn restore(image: &str) -> Result<(Daemon, Vec<String>), String> {
    let mut lines = image.lines();
    match lines.next() {
        Some(h) if h == HEADER_V1 => {}
        Some(h) => return Err(format!("unknown snapshot header '{h}'")),
        None => return Err("empty snapshot image".to_string()),
    }
    let config_line = lines.next().ok_or("truncated image: missing config")?;
    let cfg_text = config_line
        .strip_prefix("config ")
        .ok_or("malformed config line")?;
    let cfg = DaemonConfig::parse(cfg_text)?;
    let count_line = lines.next().ok_or("truncated image: missing line count")?;
    let n: usize = count_line
        .strip_prefix("lines ")
        .and_then(|s| s.parse().ok())
        .ok_or("malformed lines count")?;
    let mut history = Vec::with_capacity(n);
    for i in 0..n {
        history.push(
            lines
                .next()
                .ok_or_else(|| format!("truncated image: {i} of {n} history lines"))?
                .to_string(),
        );
    }
    let want_transcript = lines
        .next()
        .and_then(|l| l.strip_prefix("transcript-sha256 "))
        .ok_or("truncated image: missing transcript digest")?
        .to_string();
    let want_state = lines
        .next()
        .and_then(|l| l.strip_prefix("state-sha256 "))
        .ok_or("truncated image: missing state digest")?
        .to_string();

    let mut daemon = Daemon::new(cfg);
    let mut replayed = Vec::new();
    for line in &history {
        replayed.extend(daemon.ingest(line));
    }
    let got_transcript = transcript_digest(&daemon);
    if got_transcript != want_transcript {
        return Err(format!(
            "transcript digest mismatch after replay: image {want_transcript}, \
             replay {got_transcript}"
        ));
    }
    let got_state = state_digest(&daemon);
    if got_state != want_state {
        return Err(format!(
            "state digest mismatch after replay: image {want_state}, replay {got_state}"
        ));
    }
    Ok((daemon, replayed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_daemon() -> Daemon {
        let mut d = Daemon::new(DaemonConfig::default());
        for line in [
            r#"{"op":"launch","tenant":"a","id":1,"name":"fw","mem":8,"port":80}"#,
            r#"{"op":"send","tenant":"a","id":2,"count":5,"port":80}"#,
            r#"{"op":"stats","tenant":"a","id":3,"name":"fw"}"#,
        ] {
            d.ingest(line);
        }
        d
    }

    #[test]
    fn image_round_trips_and_verifies() {
        let d = seeded_daemon();
        let image = render_image(&d);
        assert!(image.starts_with(HEADER_V1));
        let (restored, _) = restore(&image).expect("restore");
        assert_eq!(restored.state_fingerprint(), d.state_fingerprint());
        assert_eq!(
            render_serve_transcript(restored.transcript()),
            render_serve_transcript(d.transcript())
        );
        // And the image of the restored daemon is byte-identical.
        assert_eq!(render_image(&restored), image);
    }

    #[test]
    fn replay_reproduces_responses() {
        let mut d = Daemon::new(DaemonConfig::default());
        let mut original = Vec::new();
        for line in [
            r#"{"op":"launch","tenant":"a","id":1,"name":"fw","mem":8}"#,
            r#"{"op":"bogus","tenant":"a","id":2}"#,
        ] {
            original.extend(d.ingest(line));
        }
        let (_, replayed) = restore(&render_image(&d)).expect("restore");
        assert_eq!(replayed, original);
    }

    #[test]
    fn hostile_nesting_is_a_bad_request_and_restores() {
        // 200,000 `[` used to overflow the JSON parser's stack and
        // abort the daemon on one request line.
        let hostile = "[".repeat(200_000);
        let launch = r#"{"op":"launch","tenant":"a","id":1,"name":"fw","mem":8}"#;
        let mut d = Daemon::new(DaemonConfig::default());
        let mut original = d.ingest(&hostile);
        assert_eq!(original.len(), 1, "{original:?}");
        assert!(
            original[0].contains(crate::codes::BAD_REQUEST),
            "{original:?}"
        );
        // The daemon keeps serving: the next request completes normally.
        let mut fresh = Daemon::new(DaemonConfig::default());
        let next = d.ingest(launch);
        assert_eq!(next, fresh.ingest(launch));
        assert!(next.iter().any(|l| l.contains("\"ok\":true")), "{next:?}");
        original.extend(next);
        // A journal holding the line replays without crashing.
        let (_, replayed) = restore(&render_image(&d)).expect("restore");
        assert_eq!(replayed, original);
    }

    #[test]
    fn corrupt_images_are_refused() {
        let d = seeded_daemon();
        let image = render_image(&d);
        assert!(restore("# snicd snapshot v9\n").is_err(), "unknown version");
        assert!(restore("").is_err(), "empty");
        // Tamper with one history line: the transcript digest must
        // catch the divergent replay.
        let tampered = image.replace("\"count\":5", "\"count\":6");
        assert_ne!(tampered, image);
        let err = match restore(&tampered) {
            Err(e) => e,
            Ok(_) => panic!("tampered image must fail"),
        };
        assert!(err.contains("digest mismatch"), "{err}");
        // Truncation is refused before any replay.
        let cut: String = image.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(restore(&cut).is_err());
    }
}
