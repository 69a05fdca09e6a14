//! `contratopic` — command-line interface for the ContraTopic
//! reproduction.
//!
//! ```sh
//! contratopic generate --preset 20ng --scale tiny --out corpus.txt --labels labels.txt
//! contratopic train    --corpus corpus.txt --topics 20 --epochs 15 --lambda 100 --out model
//! contratopic topics   --model model --corpus corpus.txt --top 10
//! contratopic eval     --model model --corpus corpus.txt
//! ```

mod args;
mod commands;
mod experiment;
mod stream;

use args::Args;

const USAGE: &str = "\
contratopic — topic-wise contrastive neural topic modeling (ICDE 2024 reproduction)

USAGE:
  contratopic <command> [--flag value]...

COMMANDS:
  generate   Write a synthetic labelled corpus as plain text
             --preset 20ng|yahoo|nytimes  --scale tiny|quick|full
             --out corpus.txt  [--labels labels.txt]  [--seed N]
  train      Train ContraTopic on a plain-text corpus (one doc per line)
             --corpus corpus.txt  --out model-prefix
             [--labels labels.txt] [--topics K] [--epochs N] [--lambda L]
             [--v N] [--hidden N] [--embed-dim N] [--batch N] [--lr F]
             [--variant full|p|n|i|s] [--seed N]
             [--trace trace.jsonl]     write per-batch/per-epoch telemetry as JSONL
             [--divergence skip|halt]  non-finite batch policy (default: skip)
  topics     Print each topic's top words from a trained model
             --model model-prefix  [--corpus corpus.txt]  [--top N]
  eval       Score a trained model on a corpus (coherence/diversity/perplexity)
             --model model-prefix  --corpus corpus.txt
  serve      Serve doc→topic queries over a Unix socket and/or TCP (Linux;
             every connection is multiplexed onto one epoll reactor)
             (--model model-prefix | --models name=prefix,name=prefix,...)
             (--socket /path/ct.sock and/or --tcp 127.0.0.1:7070)
             [--corpus corpus.txt]     nearest-topic-by-NPMI annotations
             [--top N] [--max-batch N] [--queue N] [--cache N]
             [--threads N] [--max-inflight N]
             [--trace trace.jsonl]     per-batch serve telemetry as JSONL
  stream     Run the streaming continual-learning pipeline: a drifting
             synthetic document stream trains ContraTopic chunk by chunk
             (incremental NPMI), with live snapshot promotion and resumable
             checkpoints
             [--topics K] [--extra-vocab N] [--start-vocab N] [--docs N]
             [--chunk N] [--avg-len F] [--alpha F] [--seed N]
             [--drift \"vocab:W@D,birth:K@D,death:K@D,alpha:F@D\"]
             [--epochs N] [--batch N] [--lr F] [--lambda L] [--v N]
             [--hidden N] [--embed-dim N]
             [--checkpoint PREFIX] [--checkpoint-every N]   resumable state
             [--tcp HOST:PORT] [--socket PATH]   serve live while training (Linux)
             [--promote-every N] [--model NAME] [--top N] [--hold-ms N]
             [--trace trace.jsonl]   drift/coherence/promotion telemetry
             [--max-chunks N]        stop early (checkpoint, then resume)
  query      Send documents to a running serve instance, print JSON per doc
             (--socket /path/ct.sock | --tcp HOST:PORT)
             (--text \"...\" | --file docs.txt)  [--model NAME]
  experiment List, run and resume the paper experiments through the run ledger
             [--op list|status|run|resume|worker]   (default: list)
             [--exp fig2,fig3,...]           comma-separated names (default: all)
             [--scale tiny|quick|full] [--seeds N]
             [--ledger results/ledger/trials.jsonl] [--out results]
             [--jobs N] [--limit N] [--timeout-ms N] [--on-diverged skip|retry]
             [--workers N]    run/resume on N worker processes leasing trials
                              through <ledger dir>/leases.jsonl + claim files;
                              the parent aggregates once the fleet drains
             [--lease-ttl-ms N] [--poll-ms N]   lease duration / scan back-off
             [--export-models DIR]   save each ok trial's beta as DIR/<key>.ckpt
             [--strict true]  status only: exit nonzero on malformed lines
             (--op worker runs one fleet member by hand: [--worker-id ID])
  help       Show this message
";

fn main() {
    // Exit quietly when stdout is closed early (e.g. piped into `head`).
    reset_sigpipe();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprint!("{USAGE}");
        std::process::exit(2);
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        "generate" => commands::generate(&args),
        "train" => commands::train(&args),
        "topics" => commands::topics(&args),
        "eval" => commands::eval(&args),
        "serve" => commands::serve(&args),
        "stream" => stream::stream(&args),
        "query" => commands::query(&args),
        "experiment" => experiment::experiment(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Restore the default SIGPIPE disposition so writes to a closed pipe kill
/// the process silently instead of panicking (Rust ignores SIGPIPE by
/// default). Uses the unstable-free raw syscall via `std::process` absence;
/// on non-Unix targets this is a no-op.
#[cfg(unix)]
fn reset_sigpipe() {
    // SAFETY: installing SIG_DFL for SIGPIPE is async-signal-safe and has
    // no preconditions.
    unsafe {
        // signal(SIGPIPE=13, SIG_DFL=0)
        type SigHandler = usize;
        extern "C" {
            fn signal(signum: i32, handler: SigHandler) -> SigHandler;
        }
        signal(13, 0);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}
