//! The `experiment` subcommand: list, inspect, run and resume the
//! registered paper experiments through the `ct-exp` run ledger — on one
//! process, or on a fleet of `--op worker` processes leasing trials
//! through `ct_exp::lease` (DESIGN.md §12).

use std::path::{Path, PathBuf};

use ct_corpus::Scale;
use ct_exp::lease::{log_path_in, probe, replay_log, LeaseView};
use ct_exp::{
    num_seeds_or, run_worker, ContextCache, DivergedTrialPolicy, ExperimentDef, ExperimentReport,
    Ledger, Progress, SchedulerConfig, TrialOutcome, TrialSpec, WorkerConfig, EXPERIMENTS,
};

use crate::args::Args;

const FLAGS: &[&str] = &[
    "op",
    "exp",
    "scale",
    "seeds",
    "ledger",
    "out",
    "jobs",
    "limit",
    "timeout-ms",
    "on-diverged",
    "workers",
    "worker-id",
    "lease-ttl-ms",
    "poll-ms",
    "export-models",
    "strict",
];

/// Flags a spawned fleet worker inherits verbatim from the parent run.
const WORKER_PASSTHROUGH: &[&str] = &[
    "exp",
    "seeds",
    "timeout-ms",
    "on-diverged",
    "lease-ttl-ms",
    "poll-ms",
    "export-models",
];

/// Lease state (log + claim files) lives next to the trials ledger.
fn lease_dir_for(ledger_path: &Path) -> PathBuf {
    match ledger_path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Entry point for `contratopic experiment --op <list|status|run|resume|worker>`.
pub fn experiment(args: &Args) -> Result<(), String> {
    if let Some(f) = args.unknown_flags(FLAGS).into_iter().next() {
        return Err(format!("unknown flag --{f} for experiment"));
    }
    let op = args.get_or("op", "list".to_string())?;
    let scale = match args.get("scale") {
        Some(s) => Scale::from_id(s)?,
        None => Scale::from_env()?,
    };
    let ledger_path =
        PathBuf::from(args.get_or("ledger", "results/ledger/trials.jsonl".to_string())?);
    match op.as_str() {
        "list" => list(scale),
        "status" => status(args, scale, &ledger_path),
        "run" => run(args, scale, &ledger_path, false),
        "resume" => run(args, scale, &ledger_path, true),
        "worker" => worker(args, scale, &ledger_path),
        other => Err(format!(
            "unknown op '{other}' (list|status|run|resume|worker)"
        )),
    }
}

fn defs_for(args: &Args) -> Result<Vec<&'static ExperimentDef>, String> {
    match args.get("exp") {
        None => Ok(EXPERIMENTS.iter().collect()),
        Some(names) => names
            .split(',')
            .map(|n| {
                ExperimentDef::find(n.trim())
                    .ok_or_else(|| format!("unknown experiment '{n}' (try --op list)"))
            })
            .collect(),
    }
}

fn grid_for(args: &Args, def: &ExperimentDef, scale: Scale) -> Result<Vec<TrialSpec>, String> {
    let seeds = match args.get("seeds") {
        Some(s) => s
            .parse::<usize>()
            .map_err(|_| format!("--seeds: cannot parse '{s}'"))?,
        None => num_seeds_or(def.default_seeds),
    };
    Ok(def.grid(scale, seeds))
}

fn parse_timeout(args: &Args) -> Result<Option<u64>, String> {
    args.get("timeout-ms")
        .map(str::parse)
        .transpose()
        .map_err(|_| {
            format!(
                "--timeout-ms: cannot parse '{}'",
                args.get("timeout-ms").unwrap_or("")
            )
        })
}

fn parse_policy(args: &Args) -> Result<DivergedTrialPolicy, String> {
    match args.get_or("on-diverged", "skip".to_string())?.as_str() {
        "skip" => Ok(DivergedTrialPolicy::RecordAndSkip),
        "retry" => Ok(DivergedTrialPolicy::RetryFallbackSeed {
            offset: 1000,
            max_retries: 2,
        }),
        other => Err(format!("unknown --on-diverged '{other}' (skip|retry)")),
    }
}

fn list(scale: Scale) -> Result<(), String> {
    println!("{:<10} {:>6} {:>6}  title", "name", "trials", "seeds");
    for def in EXPERIMENTS {
        let grid = def.grid(scale, def.default_seeds);
        println!(
            "{:<10} {:>6} {:>6}  {}",
            def.name,
            grid.len(),
            def.default_seeds,
            def.title
        );
    }
    println!("\nscale: {scale:?} (override with --scale or CT_SCALE)");
    Ok(())
}

fn status(args: &Args, scale: Scale, ledger_path: &Path) -> Result<(), String> {
    let strict: bool = args.get_or("strict", false)?;
    let ledger =
        Ledger::open(ledger_path).map_err(|e| format!("{}: {e}", ledger_path.display()))?;
    println!(
        "ledger {}: {} record(s), {} distinct trial(s), {} malformed line(s), {}-byte torn tail",
        ledger_path.display(),
        ledger.records_on_disk(),
        ledger.distinct_trials(),
        ledger.malformed_lines(),
        ledger.torn_tail_len()
    );
    let lease_dir = lease_dir_for(ledger_path);
    let lease_stats = replay_log(&log_path_in(&lease_dir))
        .map_err(|e| format!("{}: {e}", log_path_in(&lease_dir).display()))?;
    println!(
        "leases {}: {} claim(s), {} reclaim(s), {} release(s), {} renew(s), \
         {} malformed line(s), {}-byte torn tail",
        log_path_in(&lease_dir).display(),
        lease_stats.claims.values().map(|&n| n as u64).sum::<u64>(),
        lease_stats
            .reclaims
            .values()
            .map(|&n| n as u64)
            .sum::<u64>(),
        lease_stats
            .releases
            .values()
            .map(|&n| n as u64)
            .sum::<u64>(),
        lease_stats.renews,
        lease_stats.malformed,
        lease_stats.torn_tail
    );
    println!(
        "\n{:<10} {:>6} {:>8} {:>4} {:>9} {:>8} {:>7} {:>7} {:>8}",
        "name", "trials", "settled", "ok", "diverged", "timeout", "failed", "leased", "pending"
    );
    for def in defs_for(args)? {
        let grid = grid_for(args, def, scale)?;
        let mut distinct = std::collections::HashSet::new();
        let (mut settled, mut ok, mut diverged, mut timeout) = (0, 0, 0, 0);
        let (mut failed, mut leased, mut pending) = (0, 0, 0);
        for spec in &grid {
            let key = spec.key();
            if !distinct.insert(key.clone()) {
                continue;
            }
            match ledger.get(&key) {
                Some(rec) if rec.outcome.is_settled() => {
                    settled += 1;
                    match rec.outcome {
                        TrialOutcome::Ok => ok += 1,
                        TrialOutcome::TimedOut { .. } => timeout += 1,
                        _ => diverged += 1,
                    }
                }
                Some(_) => {
                    failed += 1;
                    pending += 1;
                }
                None => pending += 1,
            }
            if ledger.settled(&key).is_none()
                && matches!(
                    probe(&lease_dir, &key, &lease_stats),
                    LeaseView::Live { .. }
                )
            {
                leased += 1;
            }
        }
        println!(
            "{:<10} {:>6} {:>8} {:>4} {:>9} {:>8} {:>7} {:>7} {:>8}",
            def.name,
            distinct.len(),
            settled,
            ok,
            diverged,
            timeout,
            failed,
            leased,
            pending
        );
    }
    if strict && (ledger.malformed_lines() > 0 || lease_stats.malformed > 0) {
        return Err(format!(
            "--strict: {} malformed ledger line(s), {} malformed lease line(s)",
            ledger.malformed_lines(),
            lease_stats.malformed
        ));
    }
    Ok(())
}

/// Spawn and monitor `workers` fleet processes running `--op worker`
/// against the shared ledger, then wait for all of them. Individual
/// worker deaths are warnings — the parent's aggregation pass trains any
/// leftovers inline — but a fully-failed fleet is an error.
fn spawn_fleet(
    args: &Args,
    scale: Scale,
    ledger_path: &Path,
    workers: usize,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    eprintln!("== spawning {workers} worker(s) ==");
    let mut children = Vec::with_capacity(workers);
    for i in 0..workers {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("experiment")
            .arg("--op")
            .arg("worker")
            .arg("--scale")
            .arg(scale.id())
            .arg("--ledger")
            .arg(ledger_path)
            .arg("--worker-id")
            .arg(format!("w{i}"));
        for flag in WORKER_PASSTHROUGH {
            if let Some(v) = args.get(flag) {
                cmd.arg(format!("--{flag}")).arg(v);
            }
        }
        let child = cmd.spawn().map_err(|e| format!("spawn worker w{i}: {e}"))?;
        children.push((i, child));
    }
    let mut failures = 0usize;
    for (i, mut child) in children {
        let st = child.wait().map_err(|e| format!("wait worker w{i}: {e}"))?;
        if !st.success() {
            failures += 1;
            eprintln!("warning: worker w{i} exited with {st}");
        }
    }
    if failures == workers {
        return Err(format!("all {workers} worker(s) failed"));
    }
    Ok(())
}

fn run(args: &Args, scale: Scale, ledger_path: &Path, resume: bool) -> Result<(), String> {
    if resume && !ledger_path.exists() {
        return Err(format!(
            "--op resume: no ledger at {} (use --op run to start one)",
            ledger_path.display()
        ));
    }
    let defs = defs_for(args)?;
    let workers: usize = args.get_or("workers", 0)?;
    let jobs: usize = args.get_or("jobs", 1)?;
    let limit = args.get("limit").map(str::parse).transpose().map_err(|_| {
        format!(
            "--limit: cannot parse '{}'",
            args.get("limit").unwrap_or("")
        )
    })?;
    if workers > 0 && limit.is_some() {
        return Err("--limit is a single-process interruption hook; \
                    it cannot be combined with --workers"
            .to_string());
    }
    let timeout_ms = parse_timeout(args)?;
    let policy = parse_policy(args)?;
    let out_dir = PathBuf::from(args.get_or("out", "results".to_string())?);

    // Fleet mode: the workers race through the grid via leases first;
    // the pass below then serves everything from the ledger (training
    // inline only what a crashed worker left behind) and aggregates
    // exactly as a single-process run would.
    if workers > 0 {
        spawn_fleet(args, scale, ledger_path, workers)?;
    }

    let mut ledger =
        Ledger::open(ledger_path).map_err(|e| format!("{}: {e}", ledger_path.display()))?;
    let contexts = ContextCache::new();
    let config = SchedulerConfig {
        jobs,
        timeout_ms,
        policy,
        limit,
    };
    let progress = |p: Progress| match p {
        Progress::Started {
            label,
            index,
            pending,
            ..
        } => eprintln!("  [{index}/{pending}] training {label}"),
        Progress::Finished {
            label,
            outcome,
            wall_ms,
            ..
        } if outcome != "ok" => eprintln!("  {label}: {outcome} after {wall_ms} ms"),
        _ => {}
    };

    for def in defs {
        let grid = grid_for(args, def, scale)?;
        eprintln!("== {} ({} trial(s)) ==", def.name, grid.len());
        let (records, summary) =
            ct_exp::run_grid(&grid, &mut ledger, &contexts, &config, &progress)
                .map_err(|e| format!("{}: {e}", ledger_path.display()))?;
        println!(
            "{}: {} trained, {} from ledger, {} diverged, {} failed, {} timed out, {} remaining",
            def.name,
            summary.executed,
            summary.reused,
            summary.diverged,
            summary.failed,
            summary.timed_out,
            summary.remaining
        );
        if summary.remaining == 0 {
            let report = ExperimentReport::build(def.name, def.title, &records);
            let (json, md) = report
                .write_artifacts(&out_dir)
                .map_err(|e| format!("{}: {e}", out_dir.display()))?;
            println!("  wrote {} and {}", json.display(), md.display());
        } else {
            println!(
                "  ({} trial(s) still pending — resume with --op resume)",
                summary.remaining
            );
        }
    }
    Ok(())
}

/// One fleet member: claim trials through the lease dir next to the
/// ledger, train them, publish records, exit when nothing is pending.
fn worker(args: &Args, scale: Scale, ledger_path: &Path) -> Result<(), String> {
    let mut grid = Vec::new();
    for def in defs_for(args)? {
        grid.extend(grid_for(args, def, scale)?);
    }
    let cfg = WorkerConfig {
        worker_id: args.get_or("worker-id", format!("w{}", std::process::id()))?,
        lease_ttl_ms: args.get_or("lease-ttl-ms", 5_000)?,
        poll_ms: args.get_or("poll-ms", 200)?,
        timeout_ms: parse_timeout(args)?,
        policy: parse_policy(args)?,
        export_dir: args.get("export-models").map(PathBuf::from),
    };
    let id = cfg.worker_id.clone();
    let progress = {
        let id = id.clone();
        move |p: Progress| match p {
            Progress::Started {
                label,
                index,
                pending,
                ..
            } => eprintln!("  [{id} {index}/{pending}] training {label}"),
            Progress::Finished {
                label,
                outcome,
                wall_ms,
                ..
            } if outcome != "ok" => eprintln!("  [{id}] {label}: {outcome} after {wall_ms} ms"),
            Progress::Reclaimed { key, from_worker } => {
                eprintln!("  [{id}] reclaimed expired lease on {key} from {from_worker}")
            }
            _ => {}
        }
    };
    let lease_dir = lease_dir_for(ledger_path);
    let summary = run_worker(
        &grid,
        ledger_path,
        &lease_dir,
        &ContextCache::new(),
        &cfg,
        &progress,
    )
    .map_err(|e| format!("{}: {e}", ledger_path.display()))?;
    println!(
        "worker {id}: {} trained, {} diverged, {} failed, {} timed out, \
         {} reclaimed, {} already settled, {} waits",
        summary.executed,
        summary.diverged,
        summary.failed,
        summary.timed_out,
        summary.reclaimed,
        summary.already_settled,
        summary.waits
    );
    Ok(())
}
