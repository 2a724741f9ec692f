//! Correctness oracle: the benchmark loads the model file the daemon
//! serves, compiles it with `FlatGbt::compile` (the daemon's quantized
//! inference path) and recomputes every answer offline. Served answers
//! must match bit for bit.

use chemcost_core::advisor::{Advisor, Goal, Recommendation, Sweep};
use chemcost_linalg::Matrix;
use chemcost_ml::flat::FlatGbt;
use chemcost_serve::json::Json;
use chemcost_sim::machine::MachineModel;
use std::path::Path;

/// The three questions `/v1/advise` answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Question {
    /// Shortest time.
    Stq,
    /// Cheapest in node-hours.
    Bq,
    /// The time/cost Pareto frontier.
    Pareto,
}

impl Question {
    /// All three, in a fixed order.
    pub const ALL: [Question; 3] = [Question::Stq, Question::Bq, Question::Pareto];

    fn wire(self) -> &'static str {
        match self {
            Question::Stq => "stq",
            Question::Bq => "bq",
            Question::Pareto => "pareto",
        }
    }
}

/// One advise question. Budgets and deadlines are whole numbers so their
/// decimal form parses back to the same `f64` on both sides.
#[derive(Debug, Clone, Copy)]
pub struct AdviseQ {
    /// Occupied orbitals.
    pub o: usize,
    /// Virtual orbitals.
    pub v: usize,
    /// Which question.
    pub question: Question,
    /// Node-hour budget for `within_budget`.
    pub budget: Option<u32>,
    /// Wall-time deadline (s) for `within_deadline`.
    pub deadline: Option<u32>,
}

impl AdviseQ {
    /// The request body.
    pub fn body(&self) -> String {
        let mut s =
            format!("{{\"o\":{},\"v\":{},\"goal\":\"{}\"", self.o, self.v, self.question.wire());
        if let Some(b) = self.budget {
            s.push_str(&format!(",\"budget\":{b}"));
        }
        if let Some(d) = self.deadline {
            s.push_str(&format!(",\"deadline\":{d}"));
        }
        s.push('}');
        s
    }
}

/// The offline model: the served file, compiled exactly as the daemon
/// compiles it.
pub struct Oracle {
    /// The compiled flat model.
    pub flat: FlatGbt,
    machine: MachineModel,
}

impl Oracle {
    /// Load and compile the model file.
    pub fn load(model: &Path, machine: MachineModel) -> Result<Oracle, String> {
        let gb = chemcost_ml::persist::load_gb(model)
            .map_err(|e| format!("{}: {e}", model.display()))?;
        Ok(Oracle { flat: FlatGbt::compile(&gb), machine })
    }

    /// The advisor over the flat model.
    pub fn advisor(&self) -> Advisor<'_> {
        Advisor::new(&self.flat, self.machine.clone())
    }

    /// Predicted seconds for each feature row, as `/v1/predict` computes
    /// them.
    pub fn predict(&self, rows: &[[f64; 4]]) -> Vec<f64> {
        let x = Matrix::from_fn(rows.len(), 4, |i, j| rows[i][j]);
        self.flat.predict_batch(&x)
    }
}

fn parse(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
    Json::parse(text).map_err(|e| format!("malformed body: {e}"))
}

/// The model version an answer names.
pub fn model_version(body: &[u8]) -> Result<u64, String> {
    parse(body)?
        .get("model_version")
        .and_then(Json::as_usize)
        .map(|v| v as u64)
        .ok_or_else(|| "no model_version".into())
}

fn same_rec(field: &str, got: Option<&Json>, want: Option<Recommendation>) -> Result<(), String> {
    match (got, want) {
        (Some(Json::Null), None) => Ok(()),
        (Some(g), Some(w)) => {
            let num = |k: &str| g.get(k).and_then(Json::as_f64).map(f64::to_bits);
            let ok = g.get("nodes").and_then(Json::as_usize) == Some(w.nodes)
                && g.get("tile").and_then(Json::as_usize) == Some(w.tile)
                && num("predicted_seconds") == Some(w.predicted_seconds.to_bits())
                && num("predicted_node_hours") == Some(w.predicted_node_hours.to_bits());
            if ok {
                Ok(())
            } else {
                Err(format!("{field}: got {}, oracle says {w:?}", g.encode()))
            }
        }
        (g, w) => Err(format!("{field}: got {:?}, oracle says {w:?}", g.map(Json::encode))),
    }
}

/// Check an advise answer against the oracle's sweep of the same
/// problem: every recommendation must match in nodes, tile and the exact
/// bits of the predicted seconds and node-hours.
pub fn check_advise(body: &[u8], q: &AdviseQ, sweep: &Sweep) -> Result<(), String> {
    let json = parse(body)?;
    if json.get("o").and_then(Json::as_usize) != Some(q.o)
        || json.get("v").and_then(Json::as_usize) != Some(q.v)
    {
        return Err(format!("answer is for another problem: {}", json.encode()));
    }
    match q.question {
        Question::Stq => {
            same_rec("recommendation", json.get("recommendation"), sweep.best(Goal::ShortestTime))?
        }
        Question::Bq => {
            same_rec("recommendation", json.get("recommendation"), sweep.best(Goal::Budget))?
        }
        Question::Pareto => {
            let want = sweep.pareto_frontier();
            let got = json.get("frontier").and_then(Json::as_array).ok_or("no frontier")?;
            if got.len() != want.len() {
                return Err(format!("frontier has {} points, oracle {}", got.len(), want.len()));
            }
            for (g, w) in got.iter().zip(want) {
                same_rec("frontier", Some(g), Some(w))?;
            }
        }
    }
    if let Some(b) = q.budget {
        same_rec(
            "within_budget",
            json.get("within_budget"),
            sweep.fastest_within_budget(f64::from(b)),
        )?;
    }
    if let Some(d) = q.deadline {
        same_rec(
            "within_deadline",
            json.get("within_deadline"),
            sweep.cheapest_within_deadline(f64::from(d)),
        )?;
    }
    Ok(())
}

/// Shape check, the only check for answers from a model version the
/// oracle does not have (a promotion by the in-service lifecycle): the
/// answer names the problem and every recommendation carries numeric
/// nodes, tile, seconds and node-hours. Returns whether every runtime is
/// positive and finite, which the caller reports as a finding rather
/// than a failure: a nonsense estimate the oracle agrees with is the
/// model's, not the daemon's.
pub fn check_advise_shape(body: &[u8], q: &AdviseQ) -> Result<bool, String> {
    let json = parse(body)?;
    if json.get("o").and_then(Json::as_usize) != Some(q.o)
        || json.get("v").and_then(Json::as_usize) != Some(q.v)
    {
        return Err(format!("answer is for another problem: {}", json.encode()));
    }
    let recs: Vec<&Json> = match q.question {
        Question::Pareto => {
            json.get("frontier").and_then(Json::as_array).ok_or("no frontier")?.iter().collect()
        }
        _ => vec![json.get("recommendation").ok_or("no recommendation")?],
    };
    let mut plausible = true;
    for r in recs.into_iter().filter(|r| !matches!(r, Json::Null)) {
        let num = |k: &str| r.get(k).and_then(Json::as_f64);
        let (Some(_), Some(_), Some(s), Some(_)) = (
            r.get("nodes").and_then(Json::as_usize),
            r.get("tile").and_then(Json::as_usize),
            num("predicted_seconds"),
            num("predicted_node_hours"),
        ) else {
            return Err(format!("malformed recommendation {}", r.encode()));
        };
        plausible &= s.is_finite() && s > 0.0;
    }
    Ok(plausible)
}

/// Check a predict answer: one prediction per row, with the oracle's
/// exact seconds and `seconds * nodes / 3600` node-hours.
pub fn check_predict(body: &[u8], rows: &[[f64; 4]], want: &[f64]) -> Result<(), String> {
    let json = parse(body)?;
    let got = json.get("predictions").and_then(Json::as_array).ok_or("no predictions")?;
    if got.len() != rows.len() {
        return Err(format!("{} predictions for {} rows", got.len(), rows.len()));
    }
    for (i, (g, (row, &s))) in got.iter().zip(rows.iter().zip(want)).enumerate() {
        let secs = g.get("seconds").and_then(Json::as_f64).map(f64::to_bits);
        let nh = g.get("node_hours").and_then(Json::as_f64).map(f64::to_bits);
        if secs != Some(s.to_bits()) || nh != Some((s * row[2] / 3600.0).to_bits()) {
            return Err(format!("row {i}: got {}, oracle says {s}", g.encode()));
        }
    }
    Ok(())
}
