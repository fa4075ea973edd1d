//! The `snicd` wire protocol: line-delimited JSON requests and
//! responses.
//!
//! One request per line, one response per completed request. Requests
//! are parsed with the workspace's own `snic_telemetry::parse_json`
//! (there is no serde); responses are hand-rendered in a canonical
//! member order (`id`, `tenant`, `op`, `ok`, then op-specific fields)
//! so transcripts are byte-stable and diffable.
//!
//! Every rejection carries a typed, stable `code` from [`codes`]; the
//! human-readable `error` text may evolve, the codes may not (CI and
//! the exit-code table in the README key off them).

use snic_telemetry::{parse_json, Json};

/// Stable rejection codes. These are API: tests, the soak gate, and
/// `snicctl serve` exit codes key off them.
pub mod codes {
    /// The tenant's bounded queue is full; the request was shed.
    pub const OVERLOADED: &str = "SERVE-OVERLOADED";
    /// The tenant's token bucket is empty; slow down.
    pub const RATE_LIMITED: &str = "SERVE-RATE-LIMITED";
    /// The tenant's queue is frozen after a fault attributed to it;
    /// `reclaim` thaws it.
    pub const FROZEN: &str = "SERVE-FROZEN";
    /// The request's deadline passed — either while queued (never
    /// executed) or mid-launch (cancelled between retries, with the
    /// device rolled back to its pre-call resource snapshot).
    pub const EXPIRED: &str = "SERVE-EXPIRED";
    /// The tenant is at its live-NF quota.
    pub const QUOTA: &str = "SERVE-QUOTA";
    /// Malformed request: bad JSON, unknown op, missing field.
    pub const BAD_REQUEST: &str = "SERVE-BAD-REQUEST";
    /// The daemon is draining and admits no new work.
    pub const DRAINING: &str = "SERVE-DRAINING";
    /// The device refused the operation (a `SnicError` that is neither
    /// transient nor a deadline); the `error` field carries it.
    pub const FAULT: &str = "SERVE-FAULT";
    /// Every retry attempt in the policy budget failed transiently.
    pub const RETRIES_EXHAUSTED: &str = "SERVE-RETRIES-EXHAUSTED";
    /// The named NF does not exist for this tenant.
    pub const UNKNOWN_NF: &str = "SERVE-UNKNOWN-NF";
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation name (`launch`, `send`, `drain`, ...).
    pub op: String,
    /// The requesting tenant; empty for daemon-wide management ops.
    pub tenant: String,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The full parsed body, for op-specific parameters.
    pub body: Json,
}

impl Request {
    /// An optional op-specific integer parameter, range-checked into
    /// `T`. `Ok(None)` when absent; `Err` (text for a
    /// [`codes::BAD_REQUEST`] response) when present but not an integer
    /// that fits `T`.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        self.body.get(key).map_or(Ok(None), |v| {
            exact_u64(v)
                .and_then(|n| T::try_from(n).ok())
                .map(Some)
                .ok_or_else(|| {
                    format!(
                        "\"{key}\" must be an integer that fits {} (and at most 2^53)",
                        std::any::type_name::<T>()
                    )
                })
        })
    }

    /// A required op-specific integer parameter (see [`Request::int`]).
    pub fn req_int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.int(key)?.ok_or_else(|| format!("missing \"{key}\""))
    }

    /// An op-specific string parameter.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.body.get(key).and_then(Json::as_str)
    }
}

/// Parse one request line. `Err` carries text for a
/// [`codes::BAD_REQUEST`] response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let body = parse_json(line).map_err(|e| e.to_string())?;
    let op = body
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing \"op\"")?
        .to_string();
    let tenant = body
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let id = match body.get("id") {
        None => 0,
        Some(v) => exact_u64(v).ok_or("\"id\" must be an unsigned integer")?,
    };
    Ok(Request {
        op,
        tenant,
        id,
        body,
    })
}

/// A JSON number as a `u64`, if it is a non-negative integer a double
/// carries exactly (at most 2⁵³) — a larger one may already be rounded.
fn exact_u64(v: &Json) -> Option<u64> {
    v.as_u64().filter(|&n| n <= 1 << 53)
}

/// Escape a string for inclusion in a JSON literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn head(id: u64, tenant: &str, op: &str) -> String {
    let mut s = format!("{{\"id\":{id}");
    if !tenant.is_empty() {
        s.push_str(&format!(",\"tenant\":\"{}\"", esc(tenant)));
    }
    s.push_str(&format!(",\"op\":\"{}\"", esc(op)));
    s
}

/// Render a success response. `extras` are `(key, raw JSON fragment)`
/// pairs appended in order — the caller is responsible for fragment
/// validity (use [`esc`] for strings).
pub fn accept(id: u64, tenant: &str, op: &str, extras: &[(&str, String)]) -> String {
    let mut s = head(id, tenant, op);
    s.push_str(",\"ok\":true");
    for (k, v) in extras {
        s.push_str(&format!(",\"{k}\":{v}"));
    }
    s.push('}');
    s
}

/// Render a typed rejection response.
pub fn reject(id: u64, tenant: &str, op: &str, code: &str, error: &str) -> String {
    let mut s = head(id, tenant, op);
    s.push_str(&format!(
        ",\"ok\":false,\"code\":\"{code}\",\"error\":\"{}\"}}",
        esc(error)
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let r = parse_request(r#"{"op":"launch","tenant":"a","id":7,"mem":8,"name":"fw"}"#)
            .expect("parse");
        assert_eq!(r.op, "launch");
        assert_eq!(r.tenant, "a");
        assert_eq!(r.id, 7);
        assert_eq!(r.int::<u64>("mem"), Ok(Some(8)));
        assert_eq!(r.str("name"), Some("fw"));
        assert_eq!(r.int::<u64>("missing"), Ok(None));
        assert_eq!(
            r.req_int::<u64>("missing"),
            Err("missing \"missing\"".into())
        );
    }

    #[test]
    fn integers_are_range_checked() {
        let r = parse_request(
            r#"{"op":"x","core":65537,"port":65535,"neg":-1,"frac":1.5,"big":9007199254740994,"s":"7"}"#,
        )
        .expect("parse");
        assert_eq!(r.int::<u16>("port"), Ok(Some(65_535)));
        assert_eq!(r.int::<u32>("core"), Ok(Some(65_537)));
        for key in ["core", "neg", "frac", "big", "s"] {
            let e = r.int::<u16>(key).expect_err(key);
            assert!(e.contains(key) && e.contains("u16"), "{e}");
        }
        assert!(parse_request(r#"{"op":"x","id":-3}"#).is_err());
    }

    #[test]
    fn missing_op_is_an_error() {
        assert!(parse_request(r#"{"tenant":"a"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn responses_are_canonical_and_parse_back() {
        let ok = accept(3, "a", "launch", &[("nf", "5".into())]);
        assert_eq!(
            ok,
            r#"{"id":3,"tenant":"a","op":"launch","ok":true,"nf":5}"#
        );
        let no = reject(4, "", "drain", codes::DRAINING, "already draining");
        assert_eq!(
            no,
            r#"{"id":4,"op":"drain","ok":false,"code":"SERVE-DRAINING","error":"already draining"}"#
        );
        for line in [&ok, &no] {
            parse_json(line).expect("responses must be valid JSON");
        }
    }

    #[test]
    fn escapes_are_applied() {
        let r = reject(1, "t\"x", "op", codes::FAULT, "line\nbreak\t\"q\"");
        let parsed = parse_json(&r).expect("valid");
        assert_eq!(parsed.get("tenant").and_then(Json::as_str), Some("t\"x"));
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("line\nbreak\t\"q\"")
        );
    }
}
