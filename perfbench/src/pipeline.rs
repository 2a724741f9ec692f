//! The offline reproduction pipeline, run in-process for both machines:
//! Table-1 datagen → paper-configuration fit → `FlatGbt::compile` →
//! STQ/BQ tables, then a warm `fit_more` retrain and one short seeded
//! active-learning run on Aurora. Each call into a layer is timed and
//! wrapped in a span.

use crate::trace::Tracer;
use chemcost_active::{run_active_learning, ActiveConfig, Strategy};
use chemcost_core::data::{MachineData, Target};
use chemcost_core::evaluation::prediction_scores;
use chemcost_core::pipeline::{bq_table, stq_table, train_paper_gb};
use chemcost_ml::flat::FlatGbt;
use chemcost_sim::machine::{aurora, frontier};
use std::time::Instant;

/// Stages appended by the warm retrain, at the depth cap the in-service
/// lifecycle uses.
const FIT_MORE_STAGES: usize = 80;
const FIT_MORE_DEPTH: usize = 4;

/// Timings (per layer) and accuracy of one pipeline run.
#[derive(Debug, Default)]
pub struct PipelineReport {
    /// Wall time of the whole pipeline.
    pub pipeline_s: f64,
    /// `MachineData::generate`, both machines.
    pub datagen_s: f64,
    /// Paper-configuration fits, both machines.
    pub fit_s: f64,
    /// `FlatGbt::compile` of the Aurora model.
    pub compile_ms: f64,
    /// Flat nodes of the Aurora model.
    pub flat_nodes: usize,
    /// `stq_table`, both machines.
    pub stq_table_s: f64,
    /// `bq_table`, both machines.
    pub bq_table_s: f64,
    /// Warm `fit_more` retrain of the Aurora model.
    pub fit_more_ms: f64,
    /// Mean wall time of one active-learning round.
    pub al_round_s: f64,
    /// Active-learning rounds run.
    pub al_rounds: usize,
    /// Held-out MAPE of the paper-configuration GB: Aurora, Frontier.
    pub test_mape: [f64; 2],
    /// Goal MAPE of the STQ table, mean over both machines.
    pub stq_goal_mape: f64,
    /// Goal MAPE of the BQ table, mean over both machines.
    pub bq_goal_mape: f64,
    /// Pool MAPE after the last active-learning round.
    pub al_final_mape: f64,
}

fn timed<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = t.span(name, 1, |_| f());
    (out, started.elapsed().as_secs_f64())
}

/// Run the pipeline with every random choice drawn from `seed`.
pub fn run(seed: u64, t: &mut Tracer) -> PipelineReport {
    let started = Instant::now();
    let mut r = PipelineReport::default();
    let (mut stq_mape, mut bq_mape) = (0.0, 0.0);
    let mut aurora_run = None;
    for (i, machine) in [aurora(), frontier()].into_iter().enumerate() {
        let (md, s) = timed(t, "sim.datagen", || MachineData::generate(&machine, seed));
        r.datagen_s += s;
        let (gb, s) = timed(t, "ml.gb.fit", || train_paper_gb(&md));
        r.fit_s += s;
        let (flat, s) = timed(t, "ml.flat.compile", || FlatGbt::compile(&gb));
        let test = md.test_samples();
        r.test_mape[i] =
            t.span("core.evaluation.scores", 1, |_| prediction_scores(&gb, &test).mape);
        let (stq, s_stq) = timed(t, "core.evaluation.stq_table", || stq_table(&md, &flat));
        let (bq, s_bq) = timed(t, "core.evaluation.bq_table", || bq_table(&md, &flat));
        r.stq_table_s += s_stq;
        r.bq_table_s += s_bq;
        stq_mape += stq.scores.mape / 2.0;
        bq_mape += bq.scores.mape / 2.0;
        if i == 0 {
            r.compile_ms = s * 1e3;
            r.flat_nodes = flat.n_nodes();
            aurora_run = Some((md, gb));
        }
    }
    r.stq_goal_mape = stq_mape;
    r.bq_goal_mape = bq_mape;

    let (md, gb) = aurora_run.expect("aurora ran first");
    let test = md.test_dataset(Target::Seconds);
    let mut warm = gb;
    warm.max_depth = FIT_MORE_DEPTH;
    let (fitted, s) =
        timed(t, "ml.gb.fit_more", || warm.fit_more(&test.x, &test.y, FIT_MORE_STAGES));
    fitted.expect("warm retrain on the held-out rows");
    r.fit_more_ms = s * 1e3;

    let cfg = ActiveConfig {
        n_initial: 50,
        query_size: 50,
        n_queries: 4,
        seed,
        ..ActiveConfig::default()
    };
    let pool = md.train_dataset(Target::Seconds);
    let (al, s) = timed(t, "active.run", || {
        run_active_learning(&pool, Strategy::Committee { n_members: 5 }, &cfg, None)
    });
    r.al_rounds = al.rounds.len();
    r.al_round_s = s / r.al_rounds as f64;
    r.al_final_mape = al.rounds.last().expect("at least one round").pool.mape;
    r.pipeline_s = started.elapsed().as_secs_f64();
    r
}
