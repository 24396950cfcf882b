//! `simulate-mno`: what `wtr simulate-mno --out --out-bin` does.
//!
//! One op is `MnoScenario::run`, then the JSONL and WTRCAT encoders into
//! memory. Set-up is the same op run untimed. Every op's bytes must
//! equal the set-up op's; the set-up op's WTRCAT, decoded and
//! re-encoded, must give its JSONL; the run must dispatch every
//! wake-up it scheduled.

use crate::analyze::analyze_bytes;
use crate::fixture::{self, tables_digest};
use crate::measure::{digest, ms};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::workload::{Ctx, Phase};
use std::time::{Duration, Instant};
use wtr_probes::io::read_catalog_auto;

/// One op's outputs.
struct SimOp {
    jsonl: Vec<u8>,
    wtrcat: Vec<u8>,
    scheduled: u64,
    dispatched: u64,
    elapsed: Duration,
}

fn sim_op(tracer: &mut Tracer, size: fixture::Size, seed: u64) -> SimOp {
    let started = Instant::now();
    let output = fixture::simulate(tracer, size, seed);
    let jsonl = fixture::jsonl(tracer, &output.catalog);
    let wtrcat = fixture::wtrcat(tracer, &output.catalog);
    let stats = output.engine_stats();
    drop(output);
    SimOp {
        jsonl,
        wtrcat,
        scheduled: stats.scheduled,
        dispatched: stats.dispatched,
        elapsed: started.elapsed(),
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (first, setup_s) = ctx.repeat_setup(|ctx| sim_op(&mut ctx.tracer, ctx.size, ctx.seed));
    out.push(setup_s);

    let decoded = ctx.tracer.time("probes.wire.decode", || {
        read_catalog_auto(&first.wtrcat[..]).expect("WTRCAT decodes")
    });
    let round_trip = fixture::jsonl(&mut ctx.tracer, &decoded);
    drop(decoded);
    out.check(round_trip == first.jsonl, || {
        "WTRCAT decoded and re-encoded differs from the JSONL".to_owned()
    });
    drop(round_trip);
    let analysis = analyze_bytes(&mut ctx.tracer, &first.jsonl);
    if ctx.size.has_paper_bands() {
        let bands = fixture::check_bands(&analysis.data, &analysis.suite);
        out.check(bands.is_ok(), || bands.clone().unwrap_err());
        bands
            .iter()
            .flatten()
            .for_each(|line| println!("band {line}"));
    }
    out.digests = vec![
        ("catalog.jsonl", digest(&first.jsonl)),
        ("catalog.wtrcat", digest(&first.wtrcat)),
        ("reports", tables_digest(&analysis.tables)),
    ];
    drop(analysis);
    let mut reference_jsonl = first.jsonl;
    ctx.maybe_corrupt(&mut reference_jsonl);
    let reference = (digest(&reference_jsonl), digest(&first.wtrcat));
    drop((reference_jsonl, first.wtrcat));

    let phase = Phase::start();
    let mut ops = Vec::new();
    while ops.is_empty() || !ctx.done(&phase) {
        ctx.tracer.set_op(Some(ops.len() as u32));
        let root = ctx.tracer.begin("op");
        let op = sim_op(&mut ctx.tracer, ctx.size, ctx.seed);
        ctx.tracer.end(root);
        ctx.tracer.set_op(None);
        ops.push(ms(op.elapsed));
        let same = (digest(&op.jsonl), digest(&op.wtrcat)) == reference;
        out.check(same && op.scheduled == op.dispatched, || {
            format!(
                "op {}: bytes equal the set-up op's: {same}; scheduled {} dispatched {}",
                ops.len() - 1,
                op.scheduled,
                op.dispatched
            )
        });
    }
    phase.finish(&mut out, &ops);
    if ctx.tracer.enabled() {
        let cover = crate::report::coverage(
            &ctx.tracer,
            &["sim.run", "probes.io.write_jsonl", "probes.wire.encode"],
            &[],
        );
        ctx.tracer.count("trace.coverage", cover);
    }
    out
}
