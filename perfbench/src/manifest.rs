//! The run manifest stamped on every result: seed, git revision, host
//! thread count, CPU model and input scale.

use std::path::Path;

use snic_serve::protocol::esc;

use crate::{nproc, Opts};

/// The git revision of the checkout in the working directory, read from
/// `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    fn read(p: &Path) -> Option<String> {
        Some(std::fs::read_to_string(p).ok()?.trim().to_string())
    }
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU model named by `/proc/cpuinfo`; `"unknown"` elsewhere.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The manifest as one JSON line.
pub fn render(opts: &Opts) -> String {
    let s = opts.size.scale();
    format!(
        "{{\"manifest\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"host_threads\": {}, \"cpu_model\": \"{}\", \"scale\": \"{}\", \
         \"scale_fields\": {{\"flows\": {}, \"packets\": {}, \"patterns\": {}, \"fw_rules\": {}, \
         \"lpm_prefixes\": {}, \"monitor_ms\": {}}}, \"sim_workers\": {}}}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        esc(&git_revision()),
        nproc(),
        esc(&cpu_model()),
        opts.size.name(),
        s.flows,
        s.packets,
        s.patterns,
        s.fw_rules,
        s.lpm_prefixes,
        s.monitor_ms,
        snic_sim::default_threads(),
    )
}
