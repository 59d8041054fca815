//! The `govdns` command-line tool: generate a calibrated world, run the
//! measurement campaign, and read the results every way the workspace
//! supports — the paper's tables, chaos and crash/resume campaigns, the
//! flight recorder, cross-run diffs, counterfactual outages and
//! operational smells.
//!
//! Every subcommand is parsed by one flag parser into one [`RunSpec`];
//! the subcommands differ only in which flags they accept, their
//! defaults, and what they do with the spec (`src/cli/`). A malformed
//! or unknown flag prints the usage text to stderr and exits 2.

mod cli;

use std::fmt::Display;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use govdns::counterfactual::{EnumerationConfig, PartialDial, RecoveryConfig};
use govdns::prelude::*;

/// Everything one invocation asks for: the operands, the world and
/// campaign to run, and every subcommand's paths, views and sweep
/// knobs. Fields the command takes no flag for keep their defaults.
#[derive(Default)]
struct RunSpec {
    operands: Vec<String>,
    // The world and the campaign.
    seed: u64,
    /// World scale in parts per million of paper scale.
    scale_ppm: u64,
    loss: f64,
    workers: usize,
    profile: Option<ChaosProfile>,
    breaker: bool,
    // Journal and flight recorder.
    journal: Option<PathBuf>,
    crash_after: Option<usize>,
    resume: bool,
    sample_ppm: u32,
    inspect: Option<PathBuf>,
    // Outputs.
    out: Option<PathBuf>,
    csv: Option<PathBuf>,
    prom: Option<PathBuf>,
    corpus_dir: Option<PathBuf>,
    case: Option<String>,
    // Views and filters.
    json: bool,
    explain: Option<String>,
    domain: Option<String>,
    dst: Option<Ipv4Addr>,
    class: Option<String>,
    smell: Option<SmellKind>,
    only_changed: bool,
    telemetry: bool,
    gate: bool,
    // Counterfactual sweeps.
    country: Option<String>,
    scenario: Option<String>,
    journal_dir: Option<PathBuf>,
    enumeration: EnumerationConfig,
    partial: Option<PartialDial>,
    degrade_ppm: Option<u32>,
    recovery: Option<RecoveryConfig>,
}

impl RunSpec {
    /// The first operand (empty when there is none).
    fn operand(&self) -> &str {
        self.operands.first().map_or("", String::as_str)
    }

    /// The world scale as a fraction of paper scale.
    fn scale(&self) -> f64 {
        self.scale_ppm as f64 / 1_000_000.0
    }
}

/// The seed, scale (ppm) and worker count a command runs with unless
/// told otherwise.
type Defaults = (u64, u64, usize);

/// The paper commands measure a mid-size world with eight workers.
const PAPER: Defaults = (42, 50_000, 8);
/// The tools run small, single-worker, deterministic campaigns.
const TOOL: Defaults = (7, 20_000, 1);
/// The counterfactual sweep runs one campaign per scenario, so smaller.
const SWEEP: Defaults = (7, 10_000, 1);

/// One subcommand, or one mode of a subcommand.
struct Command {
    /// The command words (`"diff run"`).
    name: &'static str,
    /// Operand placeholders: `<x>` required, `[x]` optional, `<x>...`
    /// one or more.
    operands: &'static str,
    /// The flags it accepts, space-separated.
    flags: &'static str,
    defaults: Defaults,
    about: &'static str,
    run: fn(&RunSpec) -> Result<ExitCode, String>,
}

impl Command {
    /// How many operands the placeholders admit.
    fn arity(&self) -> std::ops::RangeInclusive<usize> {
        let words: Vec<&str> = self.operands.split_whitespace().collect();
        let min = words.iter().filter(|w| !w.starts_with('[')).count();
        let max = if self.operands.ends_with("...") { usize::MAX } else { words.len() };
        min..=max
    }

    fn takes(&self, flag: &str) -> bool {
        self.flags.split_whitespace().any(|f| f == flag)
    }

    fn words(&self) -> usize {
        self.name.split(' ').count()
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "audit",
        operands: "",
        flags: "--seed --scale --loss --workers --csv",
        defaults: PAPER,
        about: "regenerate every table and figure of the paper; --csv writes each as CSV",
        run: cli::paper::audit,
    },
    Command {
        name: "hijack",
        operands: "",
        flags: "--seed --scale --loss --workers",
        defaults: PAPER,
        about: "rank registrable dangling NS domains by exposed victims; exits 2 on exposure",
        run: cli::paper::hijack,
    },
    Command {
        name: "country",
        operands: "<iso2>",
        flags: "--seed --scale --loss --workers",
        defaults: PAPER,
        about: "one country's seed, defects, worst offenders and PDNS history",
        run: cli::paper::country,
    },
    Command {
        name: "remedies",
        operands: "[iso2]",
        flags: "--seed --scale --loss --workers",
        defaults: PAPER,
        about: "remediation plans for broken domains",
        run: cli::paper::remedies,
    },
    Command {
        name: "check",
        operands: "<zonefile>",
        flags: "--seed --scale --loss --workers",
        defaults: PAPER,
        about: "lint a zone master file (parse + local checks)",
        run: cli::paper::check,
    },
    Command {
        name: "chaos",
        operands: "",
        flags: "--seed --scale --profile --breaker",
        defaults: TOOL,
        about: "a single-worker campaign under injected faults; ends in a dataset fingerprint",
        run: cli::chaos::chaos,
    },
    Command {
        name: "resume",
        operands: "",
        flags: "--seed --scale --profile --breaker --journal --crash-after --resume",
        defaults: TOOL,
        about: "a journaled campaign: --crash-after exits 9 mid-run, --resume finishes it",
        run: cli::chaos::resume,
    },
    Command {
        name: "trace",
        operands: "",
        flags: "--seed --scale --workers --sample-ppm --out --explain --prom \
                --inspect --domain --dst --class",
        defaults: TOOL,
        about: "run a traced flaky campaign, or --inspect a trace file",
        run: cli::trace::trace,
    },
    Command {
        name: "diff run",
        operands: "",
        flags: "--seed --scale --workers --out --corpus-dir --case",
        defaults: TOOL,
        about: "archive a replay-safe traced run into --out",
        run: cli::diff::run,
    },
    Command {
        name: "diff diff",
        operands: "<a_dir> <b_dir>",
        flags: "--domain --only-changed --telemetry --json --gate",
        defaults: TOOL,
        about: "compare two archived runs; --gate exits 1 when they differ",
        run: cli::diff::diff,
    },
    Command {
        name: "diff replay",
        operands: "<case.json>...",
        flags: "",
        defaults: TOOL,
        about: "replay regression-corpus cases; exits 1 on a mismatch",
        run: cli::diff::replay,
    },
    Command {
        name: "counterfactual rank",
        operands: "",
        flags: SWEEP_FLAGS,
        defaults: SWEEP,
        about: "sweep outage scenarios and rank the single points of failure",
        run: cli::counterfactual::rank,
    },
    Command {
        name: "counterfactual run",
        operands: "",
        flags: SWEEP_FLAGS,
        defaults: SWEEP,
        about: "rank, plus every darkened domain per scenario; both exit 1 on an empty sweep",
        run: cli::counterfactual::run,
    },
    Command {
        name: "smell run",
        operands: "",
        flags: "--seed --scale --workers --out --csv --smell --explain --json",
        defaults: TOOL,
        about: "detect operational smells with trace-cited evidence",
        run: cli::smell::run,
    },
    Command {
        name: "smell inspect",
        operands: "<smells.json>",
        flags: "--smell --explain --json",
        defaults: TOOL,
        about: "reread an archived smell report with the same filters",
        run: cli::smell::inspect,
    },
];

const SWEEP_FLAGS: &str = "--seed --scale --workers --country --json --out --csv \
                           --max-per-kind --combo --partial --degrade --recovery-window \
                           --recovery-step --scenario --journal-dir";

/// One flag: its name, the placeholder its value shows in the usage
/// text (empty for a switch, which is set from the value `"true"`), and
/// how the value lands in the spec.
struct Flag {
    name: &'static str,
    value: &'static str,
    set: fn(&mut RunSpec, &str) -> Result<(), String>,
}

fn parse<T: FromStr>(value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

/// A scale as whole ppm, within the (0, 2] `WorldConfig::with_scale`
/// takes.
fn scale_ppm(value: &str) -> Result<u64, String> {
    match (parse::<f64>(value)? * 1_000_000.0).round() {
        ppm if (1.0..=2_000_000.0).contains(&ppm) => Ok(ppm as u64),
        _ => Err("scale must be at least 0.000001 and at most 2".to_owned()),
    }
}

/// A rate in [0, 1].
fn rate(value: &str) -> Result<f64, String> {
    match parse(value)? {
        rate if (0.0..=1.0).contains(&rate) => Ok(rate),
        _ => Err("rate must be in [0, 1]".to_owned()),
    }
}

const FLAGS: &[Flag] = &[
    Flag { name: "--seed", value: "N", set: |s, v| parse(v).map(|x| s.seed = x) },
    Flag { name: "--scale", value: "F", set: |s, v| scale_ppm(v).map(|x| s.scale_ppm = x) },
    Flag { name: "--loss", value: "F", set: |s, v| rate(v).map(|x| s.loss = x) },
    Flag { name: "--workers", value: "N", set: |s, v| parse(v).map(|x| s.workers = x) },
    Flag { name: "--profile", value: "P", set: |s, v| parse(v).map(|x| s.profile = Some(x)) },
    Flag { name: "--breaker", value: "", set: |s, v| parse(v).map(|x| s.breaker = x) },
    Flag { name: "--journal", value: "PATH", set: |s, v| parse(v).map(|x| s.journal = Some(x)) },
    Flag {
        name: "--crash-after",
        value: "N",
        set: |s, v| parse(v).map(|x| s.crash_after = Some(x)),
    },
    Flag { name: "--resume", value: "", set: |s, v| parse(v).map(|x| s.resume = x) },
    Flag { name: "--sample-ppm", value: "N", set: |s, v| parse(v).map(|x| s.sample_ppm = x) },
    Flag { name: "--inspect", value: "PATH", set: |s, v| parse(v).map(|x| s.inspect = Some(x)) },
    Flag { name: "--out", value: "PATH", set: |s, v| parse(v).map(|x| s.out = Some(x)) },
    Flag { name: "--csv", value: "PATH", set: |s, v| parse(v).map(|x| s.csv = Some(x)) },
    Flag { name: "--prom", value: "PATH", set: |s, v| parse(v).map(|x| s.prom = Some(x)) },
    Flag {
        name: "--corpus-dir",
        value: "DIR",
        set: |s, v| parse(v).map(|x| s.corpus_dir = Some(x)),
    },
    Flag { name: "--case", value: "NAME", set: |s, v| parse(v).map(|x| s.case = Some(x)) },
    Flag { name: "--json", value: "", set: |s, v| parse(v).map(|x| s.json = x) },
    Flag { name: "--explain", value: "DOMAIN", set: |s, v| parse(v).map(|x| s.explain = Some(x)) },
    Flag { name: "--domain", value: "NAME", set: |s, v| parse(v).map(|x| s.domain = Some(x)) },
    Flag { name: "--dst", value: "ADDR", set: |s, v| parse(v).map(|x| s.dst = Some(x)) },
    Flag { name: "--class", value: "CLASS", set: |s, v| parse(v).map(|x| s.class = Some(x)) },
    Flag { name: "--smell", value: "KIND", set: |s, v| parse(v).map(|x| s.smell = Some(x)) },
    Flag { name: "--only-changed", value: "", set: |s, v| parse(v).map(|x| s.only_changed = x) },
    Flag { name: "--telemetry", value: "", set: |s, v| parse(v).map(|x| s.telemetry = x) },
    Flag { name: "--gate", value: "", set: |s, v| parse(v).map(|x| s.gate = x) },
    Flag { name: "--country", value: "CC", set: |s, v| parse(v).map(|x| s.country = Some(x)) },
    Flag { name: "--scenario", value: "ID", set: |s, v| parse(v).map(|x| s.scenario = Some(x)) },
    Flag {
        name: "--journal-dir",
        value: "DIR",
        set: |s, v| parse(v).map(|x| s.journal_dir = Some(x)),
    },
    Flag {
        name: "--max-per-kind",
        value: "N",
        set: |s, v| parse(v).map(|x| s.enumeration.max_per_kind = x),
    },
    Flag { name: "--combo", value: "", set: |s, v| parse(v).map(|x| s.enumeration.compound = x) },
    Flag { name: "--partial", value: "K/N", set: |s, v| parse(v).map(|x| s.partial = Some(x)) },
    Flag { name: "--degrade", value: "PPM", set: |s, v| parse(v).map(|x| s.degrade_ppm = Some(x)) },
    Flag {
        name: "--recovery-window",
        value: "SECONDS",
        set: |s, v| {
            let recovery = s.recovery.unwrap_or_default();
            parse(v).map(|window_s| s.recovery = Some(RecoveryConfig { window_s, ..recovery }))
        },
    },
    Flag {
        name: "--recovery-step",
        value: "SECONDS",
        set: |s, v| {
            let recovery = s.recovery.unwrap_or_default();
            parse(v).map(|step_s| s.recovery = Some(RecoveryConfig { step_s, ..recovery }))
        },
    },
];

/// Parses `<command words> [operands and flags...]` into the command
/// and a spec that starts from its defaults. Integers parse as
/// integers, the scale is kept as whole ppm, and a flag the command
/// does not take is an error.
fn parse_args(args: &[String]) -> Result<(&'static Command, RunSpec), String> {
    let command = COMMANDS
        .iter()
        .find(|c| c.words() <= args.len() && c.name.split(' ').zip(args).all(|(w, a)| w == a))
        .ok_or_else(|| match args.len() {
            0 => "no command given".to_owned(),
            n => format!("unknown command `{}`", args[..n.min(2)].join(" ")),
        })?;
    let (seed, scale_ppm, workers) = command.defaults;
    let mut spec =
        RunSpec { seed, scale_ppm, workers, sample_ppm: 1_000_000, ..RunSpec::default() };
    let mut rest = args[command.words()..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            spec.operands.push(arg.clone());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg && command.takes(f.name))
            .ok_or_else(|| format!("unknown option {arg} for `{}`", command.name))?;
        let value = match flag.value {
            "" => "true",
            _ => rest.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        (flag.set)(&mut spec, value).map_err(|e| format!("{arg} {value:?}: {e}"))?;
    }
    if !command.arity().contains(&spec.operands.len()) {
        return Err(format!("`{}` takes operands {}", command.name, command.operands));
    }
    Ok((command, spec))
}

/// The usage text, generated from the command and flag tables.
fn usage() -> String {
    let mut text = String::from(
        "govdns — government-DNS measurement pipeline (DSN 2022 reproduction)\n\n\
         USAGE:\n    govdns <command> [mode] [operands] [options]\n\nCOMMANDS:\n",
    );
    for c in COMMANDS {
        let flags = c.flags.split_whitespace().map(|name| {
            match FLAGS.iter().find(|f| f.name == name).map_or("", |f| f.value) {
                "" => format!("[{name}]"),
                value => format!("[{name} {value}]"),
            }
        });
        let mut line = format!("    {}", c.name);
        for word in c.operands.split_whitespace().map(str::to_owned).chain(flags) {
            if line.len() + word.len() >= 80 {
                text.push_str(&line);
                line = "\n       ".to_owned();
            }
            line.push(' ');
            line.push_str(&word);
        }
        text.push_str(&format!("{line}\n        {}\n", c.about));
        let (seed, scale_ppm, workers) = c.defaults;
        let defaults: Vec<String> = [
            ("--seed", seed.to_string()),
            ("--scale", (scale_ppm as f64 / 1_000_000.0).to_string()),
            ("--workers", workers.to_string()),
        ]
        .into_iter()
        .filter(|(name, _)| c.takes(name))
        .map(|(name, value)| format!("{name} {value}"))
        .collect();
        if !defaults.is_empty() {
            text.push_str(&format!("        defaults: {}\n", defaults.join(" ")));
        }
    }
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, spec) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    (command.run)(&spec).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let (c, o) =
            parse_args(&args(&["audit", "--scale", "0.2", "--seed", "9", "--loss", "0.1"]))
                .unwrap();
        assert_eq!(c.name, "audit");
        assert!(o.operands.is_empty());
        assert_eq!(o.scale(), 0.2);
        assert_eq!(o.seed, 9);
        assert_eq!(o.loss, 0.1);
        assert_eq!(o.workers, 8);
        // Integers parse as integers: 2^53 + 1 has no exact f64.
        let (_, o) = parse_args(&args(&["chaos", "--seed", "9007199254740993"])).unwrap();
        assert_eq!(o.seed, 9_007_199_254_740_993);
        assert_eq!((o.scale_ppm, o.workers), (20_000, 1), "tool defaults");
        let (c, o) =
            parse_args(&args(&["counterfactual", "rank", "--partial", "1/2", "--combo"])).unwrap();
        assert_eq!(c.name, "counterfactual rank");
        assert_eq!(o.partial, Some(PartialDial { k: 1, n: 2 }));
        assert!(o.enumeration.compound);
        assert_eq!(o.scale_ppm, 10_000, "sweep default scale");
        for scale in [0.002, 0.004, 0.01, 0.02, 0.05, 0.1] {
            let (_, o) = parse_args(&args(&["audit", "--scale", &scale.to_string()])).unwrap();
            assert_eq!(o.scale(), scale, "scale {scale} survives the ppm round trip");
        }
    }

    #[test]
    fn positional_order_is_preserved() {
        let (c, o) = parse_args(&args(&["country", "br", "--workers", "2"])).unwrap();
        assert_eq!(c.name, "country");
        assert_eq!(o.operands, vec!["br"]);
        assert_eq!(o.workers, 2);
        let (_, o) = parse_args(&args(&["diff", "diff", "runs/a", "--gate", "runs/b"])).unwrap();
        assert_eq!(o.operands, vec!["runs/a", "runs/b"]);
        assert!(o.gate);
    }

    #[test]
    fn rejects_unknown_and_valueless_flags() {
        assert!(parse_args(&args(&["--nope"])).is_err());
        assert!(parse_args(&args(&["--scale"])).is_err());
        assert!(parse_args(&args(&["--seed", "abc"])).is_err());
        for bad in [
            &["audit", "--nope"][..],
            &["audit", "--scale"],
            &["audit", "--seed", "abc"],
            &["audit", "--seed", "-5"],
            &["audit", "--seed", "1e3"],
            &["audit", "--workers", "2.5"],
            &["audit", "--scale", "0"],
            &["audit", "--scale", "nan"],
            &["audit", "--scale", "3"],
            &["trace", "--dst", "not-an-address"],
            &["audit", "--loss", "1.5"],
            &["chaos", "--workers", "2"],
            &["chaos", "--profile", "calm"],
            &["chaos", "stray"],
            &["smell", "run", "--smell", "warp"],
            &["counterfactual", "rank", "--partial", "3/2"],
            &["diff", "run", "--gate"],
            &["diff", "diff", "only-one"],
            &["diff", "replay"],
            &["diff"],
            &["nope"],
            &[],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn every_table_flag_is_defined_and_documented() {
        let text = usage();
        for c in COMMANDS {
            for name in c.flags.split_whitespace() {
                assert!(FLAGS.iter().any(|f| f.name == name), "{name} has no parser");
            }
            assert!(text.contains(c.name), "{} missing from the usage text", c.name);
        }
    }
}
