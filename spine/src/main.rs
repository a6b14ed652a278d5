#![forbid(unsafe_code)]
//! `spine` — the repository's benchmark.
//!
//! Four workloads on one graph-ladder rung (R-MAT 2^16 nodes, ~0.9M
//! edges, the paper's parameters), end to end through the real `pasco`
//! CLI and its TCP front door with tracing off, plus a traced pass that
//! times each layer's public calls from outside. See `README.md` next to
//! this package for the metric and workload names and why each exists.
//!
//! ```text
//! spine --workload <build|serve_miss|serve_hot|serve_mapped>
//!       --seed <n> --seconds <s> --trace <0|1>      one run, contract mode
//! spine --all   [--seed n] [--seconds s] [--scale k]  every workload, both passes
//! spine --check [--seed n] [--seconds s]              end-to-end set twice, gaps vs bounds
//! spine --smoke                                       --all at scale 10, one second
//! ```
//!
//! Contract mode prints, as the last line of stdout, one JSON object
//! with exactly `correct`, `attempted`, `failed` and `metrics`.

mod answers;
mod cli;
mod e2e;
mod inputs;
mod layers;
mod procfs;
mod report;
mod stats;
mod trace;

use cli::PascoBin;
use inputs::{Inputs, Workload};
use report::{Better, RunReport, END_TO_END};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// One workload, one pass: the driver's interface.
    Contract { workload: Workload, traced: bool },
    /// Every workload, end to end and traced.
    All,
    /// The end-to-end set twice; gaps against the bounds.
    Check,
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    scale: u32,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut traced) = (None, None);
    let (mut all, mut check, mut smoke) = (false, false, false);
    let (mut seed, mut seconds, mut scale) = (11u64, 10.0f64, inputs::CONTRACT_SCALE);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => all = true,
            "--check" => check = true,
            "--smoke" => smoke = true,
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_label(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--seed" => {
                seed = value()?.parse().map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--scale" => {
                scale = value()?.parse().map_err(|_| "--scale takes a whole number".to_string())?;
                if !(10..=20).contains(&scale) {
                    return Err("--scale must be in 10..=20".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if smoke {
        (all, scale, seconds) = (true, 10, 1.0);
    }
    let mode = match (workload, all, check) {
        (Some(workload), false, false) => {
            Mode::Contract { workload, traced: traced.unwrap_or(false) }
        }
        (None, true, false) => Mode::All,
        (None, false, true) => Mode::Check,
        _ => return Err("pick one of --workload <name>, --all, --check, --smoke".into()),
    };
    Ok(Args { mode, seed, seconds, scale })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers came from: one line for stdout, one JSON object for
/// `result.json`.
fn provenance(args: &Args) -> (String, String) {
    let git = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let rustc = command_line("rustc", &["-V"]);
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let processors = procfs::cpuinfo_processors();
    // The workspace resolves `rayon` to a vendored stand-in; numbers from
    // it and from the published crate are not comparable, so say which.
    let rayon = match std::fs::read_to_string("Cargo.toml") {
        Ok(manifest) if manifest.contains("crates/shims/rayon") => "shim",
        Ok(_) => "real",
        Err(_) => "unknown",
    };
    let clients = e2e::client_count();
    let workers = inputs::SERVER_WORKERS;
    let line = format!(
        "# spine: git {git} | {rustc} | nproc {processors} | available_parallelism {parallelism} | \
         rayon {rayon} | clients {clients} | server workers {workers} | scale {} | seed {} | \
         seconds {} | loadavg {}",
        args.scale,
        args.seed,
        args.seconds,
        procfs::read_loadavg()
    );
    let json = format!(
        "{{\"git\": {}, \"rustc\": {}, \"nproc\": {processors}, \"available_parallelism\": {parallelism}, \
         \"rayon\": \"{rayon}\", \"clients\": {clients}, \"server_workers\": {workers}, \"scale\": {}, \
         \"seed\": {}, \"seconds\": {}}}",
        report::json_string(&git),
        report::json_string(&rustc),
        args.scale,
        args.seed,
        args.seconds
    );
    (line, json)
}

fn write_trace(log: &trace::SpanLog, workload: Workload) {
    for (name, spans, self_ns) in log.self_time_by_name() {
        println!(
            "{} # self time {name}: {} ms over {spans} spans",
            workload.label(),
            self_ns as f64 / 1e6
        );
    }
    let path = cli::target_dir().join("spine").join(format!("trace-{}.jsonl", workload.label()));
    match log.write_jsonl(&path) {
        Ok(()) => println!("# trace: {} spans -> {}", log.spans().len(), path.display()),
        Err(e) => eprintln!("spine: cannot write {}: {e}", path.display()),
    }
}

fn run_contract(
    bin: &PascoBin,
    args: &Args,
    workload: Workload,
    traced: bool,
) -> Result<bool, String> {
    // An end-to-end `build` run builds its own index, round after round.
    let with_index = traced || workload != Workload::Build;
    let inputs = Inputs::prepare(bin, args.seed, args.scale, workload.label(), with_index)?;
    let outcome = if traced {
        let (outcome, log) = layers::run_traced(&inputs, workload);
        write_trace(&log, workload);
        outcome
    } else {
        e2e::run_end_to_end(bin, &inputs, workload, args.seconds)
    };
    inputs.discard();
    print!("{}", outcome.table());
    println!("{}", outcome.contract_line());
    Ok(outcome.is_correct())
}

fn run_all(bin: &PascoBin, args: &Args, provenance_json: &str) -> Result<bool, String> {
    let inputs = Inputs::prepare(bin, args.seed, args.scale, "all", true)?;
    let mut runs: Vec<RunReport> = Vec::new();
    for workload in Workload::ALL {
        let outcome = e2e::run_end_to_end(bin, &inputs, workload, args.seconds);
        print!("{}", outcome.table());
        runs.push(outcome);
        let (outcome, log) = layers::run_traced(&inputs, workload);
        write_trace(&log, workload);
        print!("{}", outcome.table());
        runs.push(outcome);
    }
    inputs.discard();
    let mut ok = runs.iter().all(RunReport::is_correct);
    // Same traffic, different storage: the answers must not know.
    let fnv_of = |w: Workload| {
        runs.iter().find(|o| o.workload == w && !o.traced).and_then(|o| o.answers_fnv)
    };
    let (miss, mapped) = (fnv_of(Workload::ServeMiss), fnv_of(Workload::ServeMapped));
    if miss.is_none() || miss != mapped {
        println!("# FAILED: answers_fnv serve_miss {miss:x?} != serve_mapped {mapped:x?}");
        ok = false;
    }
    let objects: Vec<String> = runs.iter().map(RunReport::json_object).collect();
    let path = cli::target_dir().join("spine").join("result.json");
    let body = format!(
        "{{\"provenance\": {provenance_json},\n \"runs\": [\n  {}\n ]}}\n",
        objects.join(",\n  ")
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# result: {}", path.display());
    Ok(ok)
}

/// By how much `second` is worse than `first`, as a share of `first`.
fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

fn run_check(bin: &PascoBin, args: &Args) -> Result<bool, String> {
    let inputs = Inputs::prepare(bin, args.seed, args.scale, "check", true)?;
    let mut sets: Vec<Vec<RunReport>> = Vec::new();
    for _ in 0..2 {
        sets.push(
            Workload::ALL
                .iter()
                .map(|&w| e2e::run_end_to_end(bin, &inputs, w, args.seconds))
                .collect(),
        );
    }
    inputs.discard();
    let mut ok = sets.iter().flatten().all(RunReport::is_correct);
    println!("# workload metric first second gap bound");
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        for m in END_TO_END {
            let (first, second) =
                (a.value_of(m.name).unwrap_or(0.0), b.value_of(m.name).unwrap_or(0.0));
            // Either run may be the slow one; the gap is the larger.
            let gap = worsening(first, second, m.better).max(worsening(second, first, m.better));
            let verdict = if gap <= m.bound { "" } else { "  EXCEEDS" };
            println!(
                "{} {} {first} {second} {gap:.4} {}{verdict}",
                a.workload.label(),
                m.name,
                m.bound
            );
            ok &= gap <= m.bound;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("spine: {why}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let (line, provenance_json) = provenance(&args);
    println!("{line}");
    let verdict = PascoBin::build_from_checkout().and_then(|bin| match args.mode {
        Mode::Contract { workload, traced } => run_contract(&bin, &args, workload, traced),
        Mode::All => run_all(&bin, &args, &provenance_json),
        Mode::Check => run_check(&bin, &args),
    });
    eprintln!("spine: done in {:.1} s", t0.elapsed().as_secs_f64());
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("spine: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args =
            parse(&["--workload", "serve_hot", "--seed", "42", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(args.mode, Mode::Contract { workload: Workload::ServeHot, traced: true });
        assert_eq!((args.seed, args.seconds, args.scale), (42, 10.0, 16));
        assert_eq!(
            parse(&["--smoke"]).unwrap(),
            Args { mode: Mode::All, seed: 11, seconds: 1.0, scale: 10 }
        );
        assert_eq!(parse(&["--check", "--seed", "3"]).unwrap().mode, Mode::Check);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "serve"]).is_err());
        assert!(parse(&["--workload", "build", "--all"]).is_err());
        assert!(parse(&["--workload", "build", "--trace", "2"]).is_err());
        assert!(parse(&["--all", "--seconds", "0"]).is_err());
        assert!(parse(&["--all", "--scale", "40"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!(worsening(10.0, 9.0, Better::Lower) < 0.0);
    }
}
