//! `wtr` — the Where-Things-Roam command line.
//!
//! ```text
//! wtr simulate-mno       --out catalog.jsonl [--devices N] [--days D] [--seed S]
//!                        [--nbiot-meters F] [--sunset-2g] [--transparency]
//! wtr simulate-platform  --out txs.jsonl [--wire txs.bin] [--devices N] [--days D] [--seed S]
//! wtr classify           --catalog catalog.jsonl [--pipeline full|apn|vendor|range]
//! wtr analyze            --catalog catalog.jsonl [labels|home|classes|rat|traffic|smip|verticals|diurnal|revenue ...]
//! wtr platform-stats     --transactions txs.jsonl
//! wtr behavior-template  [--out behaviors.json]
//! ```
//!
//! Datasets flow through the JSONL formats of `wtr_probes::io`, so any
//! external data mapped into those schemas can be classified and analyzed
//! with the same commands.

mod args;
mod commands;

use commands::Failure;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

const USAGE: &str = "\
wtr — Where Things Roam (IMC 2020) reproduction toolkit

USAGE:
    wtr <COMMAND> [OPTIONS]

COMMANDS:
    simulate-mno        simulate the visited-MNO scenario; write a devices-catalog
    simulate-platform   simulate the M2M platform scenario; write a transaction log
    classify            run the §4.3 classification over a catalog
    validate            score a pipeline against exported ground truth
    analyze             print analyses over a catalog (labels, home, rat, …)
    platform-stats      print §3 statistics over a transaction log
    behavior-template   dump the standard per-vertical behaviors as JSON
    serve               run the resident ingest/report server (wtr_serve)
    catalog-split       shuffle + partition a catalog into per-tap upload parts
    help                show this message

Run `wtr <COMMAND> --help` for per-command options.";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Every command writes through this one lock and hands write errors
    // back, so a reader that stops early ends the command instead of
    // panicking it.
    let mut stdout = std::io::stdout().lock();
    let out = &mut stdout;
    let result = match command.as_str() {
        "simulate-mno" => commands::simulate_mno(rest, out),
        "simulate-platform" => commands::simulate_platform(rest, out),
        "classify" => commands::classify(rest, out),
        "validate" => commands::validate_cmd(rest, out),
        "analyze" => commands::analyze(rest, out),
        "platform-stats" => commands::platform_stats(rest, out),
        "behavior-template" => commands::behavior_template(rest, out),
        "serve" => commands::serve(rest, out),
        "catalog-split" => commands::catalog_split(rest, out),
        "help" | "--help" | "-h" => writeln!(out, "{USAGE}").map_err(Failure::from),
        other => Err(format!("unknown command {other:?}; try `wtr help`").into()),
    }
    .and_then(|()| stdout.flush().map_err(Failure::from));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // `wtr analyze … | head -1`: the reader has what it wanted.
        Err(Failure::Stdout(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("error: {failure}");
            ExitCode::FAILURE
        }
    }
}
