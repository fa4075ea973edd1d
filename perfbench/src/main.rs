//! `perfbench` — run one benchmark workload and print its report and,
//! as the last line of standard output, the one-line JSON result.
//!
//! ```text
//! perfbench --workload <fig5-replay|stream-colo|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--size quick|tiny]
//! ```
//!
//! Exits 0 when every correctness check passed, 1 when one failed (the
//! result line is still printed, with `"correct": false`), and 2 on a
//! usage error (nothing is printed to standard output).

use std::process::ExitCode;

use perfbench::{manifest, run, Opts, Size, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--size quick|tiny]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::Fig5Replay,
        seed: perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Quick,
        expect: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => opts.size = Size::parse(value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let mut outcome = run(&opts);
    print!("{}", outcome.render_report());
    println!("{}", manifest::render(&opts));
    let result = outcome.render_result();
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
