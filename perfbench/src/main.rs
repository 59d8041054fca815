//! Whole-run, per-layer benchmark of the govdns pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload audit|hostile|sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs passes of one workload until `--seconds` have elapsed, checks
//! every pass's output, and prints each metric by name and unit, then
//! one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits nonzero when any pass
//! fails. README.md in this directory describes the workloads and
//! metrics.

mod checks;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::any::Any;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use checks::{compare, fnv64, parse_pins, pin_lines, Fingerprints, Tally};
use layers::Samples;
use spans::Recorder;
use stats::median;
use workloads::{census, Env, Pass, Workload, SPOF_JSON, SWEEP_PINNED_SEED};

const USAGE: &str = "usage: perfbench --workload audit|hostile|sweep --seed N --seconds S \
                     --trace 0|1 [--workers N] [--pin | --pass-only]";

/// Audit CSV fingerprints captured at `workers: 1`.
const AUDIT_PINS: &str = include_str!("../pins/audit.txt");

/// Scratch space for pass outputs and span files, inside the checkout.
const OUT_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_out");

/// The pinned sweep output.
const SWEEP_CORPUS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../corpus/spof/recovery-seed7.json");

/// Set-up is timed at least this many times per untraced run.
const MIN_SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: Option<usize>,
    pin: bool,
    pass_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workers = None;
    let mut pin = false;
    let mut pass_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--pin" => {
                pin = true;
                continue;
            }
            "--pass-only" => {
                pass_only = true;
                continue;
            }
            _ => {}
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--workers" => workers = Some(value.parse().ok().filter(|w| *w > 0).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        workers,
        pin,
        pass_only,
    })
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    format!("panicked: {text}")
}

/// Runs one pass with panics caught, spans rooted at `pass`.
fn run_pass(workload: Workload, env: &mut Env, id: u32) -> Result<Pass, String> {
    env.rec.set_pass(id);
    env.rec.begin("pass");
    let result = catch_unwind(AssertUnwindSafe(|| workload.pass(env, &id.to_string())));
    env.rec.close_open();
    result.map_err(|p| panic_message(p.as_ref()))
}

/// Runs one untraced pass in a child process, so that its peak memory
/// and allocator state start fresh and carry over to no other pass.
fn child_pass(workload: Workload, seed: u64, workers: usize) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--workers", &workers.to_string(), "--pass-only"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last() {
        Some(line) if out.status.success() => Pass::from_line(line),
        _ => Err(format!("pass process failed ({})", out.status)),
    }
}

/// The output every pass must reproduce: the pins or the corpus
/// artifact when the seed has one, otherwise a `workers: 1` reference
/// pass.
fn expected_output(workload: Workload, seed: u64) -> Result<Fingerprints, String> {
    match workload {
        Workload::Hostile => return Ok(Fingerprints::new()),
        Workload::Audit => {
            if let Some(p) = parse_pins(AUDIT_PINS)?.remove(&(seed, workload.scale().to_string())) {
                return Ok(p);
            }
        }
        Workload::Sweep if seed == SWEEP_PINNED_SEED => {
            return std::fs::read(SWEEP_CORPUS)
                .map(|bytes| [(SPOF_JSON.to_owned(), fnv64(&bytes))].into())
                .map_err(|e| format!("cannot read {SWEEP_CORPUS}: {e}"));
        }
        Workload::Sweep => {}
    }
    child_pass(workload, seed, 1)
        .map(|p| p.output)
        .map_err(|e| format!("workers: 1 reference pass: {e}"))
}

/// CPU ticks stolen by the hypervisor, and all ticks, from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workload = args.workload;
    let dir = PathBuf::from(OUT_ROOT).join(format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut env = Env {
        seed: args.seed,
        workers: args.workers.unwrap_or(cores),
        dir: dir.clone(),
        rec: Recorder::new(false),
        samples: Samples::default(),
    };
    let code = if args.pin {
        pin(&args, &mut env)
    } else if args.pass_only {
        match run_pass(workload, &mut env, 0) {
            Ok(pass) => {
                println!("{}", pass.to_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: pass {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        bench(&args, &mut env, cores)
    };
    // Best effort: a pass that panicked may have left files behind.
    let _ = std::fs::remove_dir_all(&dir);
    code
}

/// Prints the audit CSV fingerprints of one pass as pin lines.
fn pin(args: &Args, env: &mut Env) -> ExitCode {
    if args.workload != Workload::Audit {
        eprintln!("perfbench: --pin applies to the audit workload only");
        return ExitCode::from(2);
    }
    match run_pass(Workload::Audit, env, 0) {
        Ok(pass) => {
            print!("{}", pin_lines(args.seed, &Workload::Audit.scale().to_string(), &pass.output));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: pass {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args, env: &mut Env, cores: usize) -> ExitCode {
    let workload = args.workload;
    let mut tally = Tally::default();
    // (traced, pass) for every pass that ran to completion.
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let start = Instant::now();
    let steal_before = cpu_ticks();
    let mut id = 0u32;
    // Untraced runs give each pass a process of its own. Traced runs
    // alternate untraced and traced passes in this process, so the
    // tracing overhead compares passes of the same process.
    loop {
        let traced = args.trace && id % 2 == 1;
        env.rec.set_enabled(traced);
        let pass = if args.trace {
            run_pass(workload, env, id)
        } else {
            child_pass(workload, env.seed, env.workers)
        };
        match pass {
            Ok(pass) => passes.push((traced, pass)),
            Err(e) => tally.record(&format!("pass {id}"), &Err(e)),
        }
        id += 1;
        let min_passes = if args.trace { 2 } else { 1 };
        if start.elapsed().as_secs_f64() >= args.seconds && id >= min_passes {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let steal_after = cpu_ticks();
    let steal_pct = 100.0 * (steal_after.0 - steal_before.0) as f64
        / (steal_after.1 - steal_before.1).max(1) as f64;
    env.rec.set_enabled(false);
    let mut setups: Vec<f64> = passes.iter().map(|(_, p)| p.setup_s).collect();
    if !args.trace {
        while setups.len() < MIN_SETUPS {
            setups.push(workload.setup_only(env));
        }
    }

    let expected = expected_output(workload, env.seed);
    for (i, (_, pass)) in passes.iter().enumerate() {
        let verdict =
            expected.as_ref().map_err(Clone::clone).and_then(|e| compare(e, &pass.output));
        tally.record(&format!("pass {i}"), &verdict);
    }
    if args.trace {
        env.rec.set_enabled(true);
        env.rec.set_pass(id);
        env.rec.begin("census");
        let result = catch_unwind(AssertUnwindSafe(|| census(workload, env)));
        env.rec.close_open();
        env.rec.set_enabled(false);
        tally.record("census", &result.map_err(|p| panic_message(p.as_ref())));
    }

    let run_s = |traced: bool| -> Vec<f64> {
        passes.iter().filter(|(t, _)| *t == traced).map(|(_, p)| p.run_s).collect()
    };
    let metrics = if args.trace {
        per_layer_metrics(env, &passes, &run_s(false), &run_s(true))
    } else {
        Ok(end_to_end_metrics(&passes, &setups, &tally))
    };

    println!(
        "== perfbench {}: seed {}, scale {}, workers {}, cores {cores}, trace {} ==",
        workload.name(),
        args.seed,
        workload.scale(),
        env.workers,
        u8::from(args.trace)
    );
    println!(
        "{} passes in {measured_s:.1} s ({} traced); {} failed of {} attempted; \
         hypervisor steal {steal_pct:.1}% of CPU time meanwhile",
        id,
        passes.iter().filter(|(t, _)| *t).count(),
        tally.failed,
        tally.attempted
    );
    let per_pass: Vec<String> = passes
        .iter()
        .map(|(t, p)| format!("{:.3}{}", p.run_s, if *t { "t" } else { "" }))
        .collect();
    println!("run_s per pass (t = traced): {}", per_pass.join(" "));
    let metrics = match metrics {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            tally.record("metrics", &Err(e));
            Vec::new()
        }
    };
    for m in &metrics {
        println!("{:<34} {:>16} {:<8} {}", m.name, format!("{:.6}", m.value), m.unit, m.note);
    }
    if !args.trace {
        // Zero on a healthy run, so it is printed here but kept out of
        // the JSON, which carries `pass_share` and the raw counts.
        let note = format!("base: {} attempted passes", tally.attempted);
        println!(
            "{:<34} {:>16} {:<8} {note}",
            "failed_share",
            format!("{:.6}", tally.failed_share()),
            "ratio"
        );
    }
    if args.trace {
        let path = PathBuf::from(OUT_ROOT).join(format!(
            "spans-{}-seed{}.json",
            workload.name(),
            args.seed
        ));
        match std::fs::write(&path, env.rec.to_json()) {
            Ok(()) => println!("spans with self times: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    let correct = tally.failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end_metrics(passes: &[(bool, Pass)], setups: &[f64], tally: &Tally) -> Vec<Metric> {
    let n = passes.len();
    let of = |f: fn(&Pass) -> f64| median(&passes.iter().map(|(_, p)| f(p)).collect::<Vec<_>>());
    let mut out = vec![Metric {
        name: "setup_s",
        value: median(setups),
        unit: "s",
        note: format!("median of {} set-ups (world generation + matchers)", setups.len()),
    }];
    if n > 0 {
        out.push(Metric {
            name: "run_s",
            value: of(|p| p.run_s),
            unit: "s",
            note: format!("median of {n} passes, built world to checked result{}", iqr(passes)),
        });
    }
    if n > 0 {
        out.push(Metric {
            name: "peak_rss_mb",
            value: of(|p| p.peak_rss_mb),
            unit: "MiB",
            note: format!("median of {n} passes, VmHWM of each pass's own process"),
        });
        out.push(Metric {
            name: "queries_per_domain",
            value: of(|p| p.queries_per_domain),
            unit: "1/domain",
            note: format!("median of {n} passes; base: probed domains"),
        });
    }
    out.push(Metric {
        name: "pass_share",
        value: 1.0 - tally.failed_share(),
        unit: "ratio",
        note: format!("base: {} attempted passes", tally.attempted),
    });
    out
}

/// The passes' run-time spread, when there are enough to have one.
fn iqr(passes: &[(bool, Pass)]) -> String {
    let run_s: Vec<f64> = passes.iter().map(|(_, p)| p.run_s).collect();
    if run_s.len() < 2 {
        return String::new();
    }
    let q = stats::quantiles(&run_s, 4);
    format!(
        "; quartiles {:.3}..{:.3} s, IQR/median {:.4}",
        q[0],
        q[2],
        stats::relative_spread(&run_s)
    )
}

fn per_layer_metrics(
    env: &mut Env,
    passes: &[(bool, Pass)],
    untraced_run_s: &[f64],
    traced_run_s: &[f64],
) -> Result<Vec<Metric>, String> {
    if untraced_run_s.is_empty() || traced_run_s.is_empty() {
        return Err("no completed traced and untraced pass to compare".to_owned());
    }
    let samples = &mut env.samples;
    samples.add_spans(&env.rec);
    let need = |samples: &Samples, name: &str| {
        samples.median(name).ok_or_else(|| format!("per-layer metric {name} was not measured"))
    };
    // `sweep` makes no campaign call of its own beyond the census, whose
    // bare campaign runs the sweep's campaign configuration.
    if samples.median("runner.campaign_s").is_none() {
        samples.add("runner.campaign_s", need(samples, "runner.bare_campaign_s")?);
    }
    let overhead =
        need(samples, "runner.sink_campaign_s")? / need(samples, "runner.bare_campaign_s")?;
    samples.add("trace.overhead_ratio", overhead);
    let generations =
        median(&passes.iter().map(|(_, p)| p.world_generations as f64).collect::<Vec<_>>());
    let all_run_s: Vec<f64> = passes.iter().map(|(_, p)| p.run_s).collect();
    samples.add("counterfactual.world_generations", generations);
    samples.add(
        "counterfactual.world_share",
        generations * need(samples, "world.generate_s")? / median(&all_run_s),
    );
    samples.add("bench.trace_overhead_ratio", median(traced_run_s) / median(untraced_run_s));

    let notes = |name: &str| -> String {
        match name {
            "counterfactual.world_share" => {
                "computed: generations x median world.generate_s / median run_s".to_owned()
            }
            "trace.overhead_ratio" => "base: runner.bare_campaign_s (sinks off)".to_owned(),
            "bench.trace_overhead_ratio" => format!(
                "base: median run_s of {} untraced passes vs {} traced",
                untraced_run_s.len(),
                traced_run_s.len()
            ),
            "probe.answered_ratio" => "base: probe.queries".to_owned(),
            "journal.bytes_per_domain" => "base: probed domains".to_owned(),
            _ => String::new(),
        }
    };
    Ok(layers::resolve(samples)?
        .into_iter()
        .map(|(name, unit, value)| Metric { name, value, unit, note: notes(name) })
        .collect())
}
