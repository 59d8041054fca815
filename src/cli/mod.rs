//! The `govdns` subcommands, one module per family. Each takes the
//! parsed [`RunSpec`] and returns its exit code, or an error message
//! that `main` prints before exiting 2.

pub mod chaos;
pub mod counterfactual;
pub mod diff;
pub mod paper;
pub mod smell;
pub mod trace;

use std::path::{Path, PathBuf};

use govdns::prelude::*;

use crate::RunSpec;

/// Generates the spec's world, derives its provider matchers, and hands
/// `f` a campaign over both: the setup every measuring subcommand
/// shares.
fn with_campaign<R>(spec: &RunSpec, f: impl FnOnce(&Campaign<'_>) -> R) -> R {
    let config = WorldConfig::small(spec.seed).with_scale(spec.scale()).with_loss_rate(spec.loss);
    let world = WorldGenerator::new(config).generate();
    let matchers = world.catalog.matchers();
    f(&Campaign::new(&world, &matchers))
}

/// The traced campaign `trace`, `diff run` and `smell run` share: flaky
/// chaos over [`RunnerConfig::worker_invariant`], so the trace file and
/// the canonical dataset are byte-identical at any `--workers`.
fn traced_flaky(spec: &RunSpec, trace: &Path) -> RunnerConfig {
    RunnerConfig {
        chaos: Some(ChaosSpec { profile: ChaosProfile::Flaky, seed: spec.seed }),
        trace: Some(TraceSpec::new(trace).with_seed(spec.seed).with_sample_ppm(spec.sample_ppm)),
        ..RunnerConfig::worker_invariant(spec.workers)
    }
}

/// A per-process temporary trace path, for runs whose stdout must not
/// mention a path.
fn temp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("govdns-{tag}-{}.trace", std::process::id()))
}

/// Writes `bytes` to `path`, naming the path in the error.
fn write(path: &Path, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}
