//! The serving workloads: their seeded questions, schedules, and the
//! per-answer correctness checks.

use crate::load::{Kind, Planned, Traffic, Verdict};
use crate::oracle::{self, AdviseQ, Oracle, Question};
use crate::wire::{self, Response};
use chemcost_core::advisor::Sweep;
use chemcost_serve::json::Json;
use chemcost_sim::ccsd::Problem;
use chemcost_sim::datagen::aurora_problems;
use chemcost_sim::machine::aurora;
use chemcost_sim::simulate::{simulate_iteration, Config};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// Which traffic a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cached advise over the 22 Aurora problems + lone predicts.
    AdviseHot,
    /// Never-seen problems + 256-row predicts.
    AdviseCold,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "advise_hot" => Some(Workload::AdviseHot),
            "advise_cold" => Some(Workload::AdviseCold),
            _ => None,
        }
    }
}

/// Share of `advise_hot` arrivals that are single-row predicts.
const HOT_PREDICT_SHARE: f64 = 0.15;
/// Requests each closed loop keeps in flight per connection; with two
/// connections this stays under the daemon's default queue cap
/// (`workers * 4`), so nothing is shed.
pub const DEPTH: usize = 2;
/// Share of `advise_cold` requests that are 256-row predicts.
const COLD_PREDICT_SHARE: f64 = 0.10;
const COLD_PREDICT_ROWS: usize = 256;
/// Distinct single-row predict questions in the hot set.
const HOT_PREDICT_POOL: usize = 256;

/// What a request asked, indexed by [`Planned::tag`].
pub enum Ask {
    /// Hot advise key.
    Hot(usize),
    /// Hot single-row predict.
    HotPredict(usize),
    /// Never-seen advise question.
    Cold(AdviseQ),
    /// 256-row predict.
    ColdPredict(Vec<[f64; 4]>),
    /// Observe of one prediction id.
    Observe(u64),
}

/// Where a closed loop takes its next request from.
pub enum Source {
    /// A hot question (`advise_hot`).
    Hot,
    /// A fresh never-seen question (`advise_cold`).
    Cold,
    /// A fixed list (warm-up and the write probe's advise phase).
    Backlog(VecDeque<Ask>),
}

/// An answered advise that can be observed: its id, problem, and the
/// configuration it recommended.
#[derive(Debug, Clone, Copy)]
struct Answered {
    id: u64,
    o: usize,
    v: usize,
    nodes: usize,
    tile: usize,
}

/// The workload state the load engine calls back into.
pub struct Load<'a> {
    oracle: &'a Oracle,
    seed: u64,
    rng: StdRng,
    hot: Vec<AdviseQ>,
    /// Framed requests of the hot keys and the predict pool, built once.
    hot_bytes: Vec<Vec<u8>>,
    pool_bytes: Vec<Vec<u8>>,
    hot_sweep: Vec<usize>,
    sweeps: Vec<Sweep>,
    pool_rows: Vec<[f64; 4]>,
    pool_want: Vec<f64>,
    /// Bodies already checked against the oracle, per hot key / predict.
    checked: HashMap<(bool, usize), Vec<u8>>,
    /// What each tag asked.
    asks: Vec<Ask>,
    /// Closed loop: the source of the request scheduled on each answer.
    pub closed: Option<Source>,
    cold_seen: HashSet<(usize, usize)>,
    /// Record the prediction ids of hot answers (for the write probe).
    pub collect_ids: bool,
    /// Advise answers that carried a prediction id.
    answered: Vec<Answered>,
    observed: HashSet<u64>,
    /// Answers from a model version the oracle does not have.
    pub promoted_answers: usize,
    /// Distinct answers recommending a non-positive or non-finite runtime.
    pub implausible_answers: usize,
}

impl<'a> Load<'a> {
    /// Build the hot key set and predict pool from `seed`.
    pub fn new(oracle: &'a Oracle, seed: u64) -> Load<'a> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B5_EED5);
        let advisor = oracle.advisor();
        let problems = aurora_problems();
        let sweeps: Vec<Sweep> = problems.iter().map(|p| advisor.sweep(p.o, p.v)).collect();
        let (mut hot, mut hot_sweep) = (Vec::new(), Vec::new());
        for (i, p) in problems.iter().enumerate() {
            for question in Question::ALL {
                let budget = rng.gen_range(1..60u32);
                let deadline = rng.gen_range(20..600u32);
                for (b, d) in [(None, None), (Some(budget), None), (None, Some(deadline))] {
                    hot.push(AdviseQ { o: p.o, v: p.v, question, budget: b, deadline: d });
                    hot_sweep.push(i);
                }
            }
        }
        let pool_rows: Vec<[f64; 4]> = (0..HOT_PREDICT_POOL)
            .map(|_| {
                let p = problems[rng.gen_range(0..problems.len())];
                let cands = advisor.candidates(p.o, p.v);
                let (n, t) = cands[rng.gen_range(0..cands.len())];
                [p.o as f64, p.v as f64, n as f64, t as f64]
            })
            .collect();
        let pool_want = oracle.predict(&pool_rows);
        let hot_bytes =
            hot.iter().map(|q| wire::request("POST", "/v1/advise", &q.body())).collect();
        let pool_bytes = pool_rows
            .iter()
            .map(|r| wire::request("POST", "/v1/predict", &predict_body(std::slice::from_ref(r))))
            .collect();
        Load {
            oracle,
            seed,
            rng,
            hot,
            hot_bytes,
            pool_bytes,
            hot_sweep,
            sweeps,
            pool_rows,
            pool_want,
            checked: HashMap::new(),
            asks: Vec::new(),
            closed: None,
            cold_seen: problems.iter().map(|p| (p.o, p.v)).collect(),
            collect_ids: false,
            answered: Vec::new(),
            observed: HashSet::new(),
            promoted_answers: 0,
            implausible_answers: 0,
        }
    }

    /// Number of hot advise keys.
    pub fn n_hot(&self) -> usize {
        self.hot.len()
    }

    /// The first `n` never-seen problems asked, for in-process layer
    /// probes.
    pub fn cold_problems(&self, n: usize) -> Vec<(usize, usize)> {
        self.asks
            .iter()
            .filter_map(|a| match a {
                Ask::Cold(q) => Some((q.o, q.v)),
                _ => None,
            })
            .take(n)
            .collect()
    }

    /// The (o, v) sweeps the hot set covers, for in-process layer probes.
    pub fn hot_problems(&self) -> Vec<(usize, usize)> {
        aurora_problems().iter().map(|p| (p.o, p.v)).collect()
    }

    fn plan(&mut self, due_ns: u64, conn: usize, ask: Ask) -> Planned {
        let (kind, bytes) = match &ask {
            Ask::Hot(k) => (Kind::Advise, self.hot_bytes[*k].clone()),
            Ask::HotPredict(i) => (Kind::Predict, self.pool_bytes[*i].clone()),
            Ask::Cold(q) => (Kind::Advise, wire::request("POST", "/v1/advise", &q.body())),
            Ask::ColdPredict(rows) => {
                (Kind::Predict, wire::request("POST", "/v1/predict", &predict_body(rows)))
            }
            Ask::Observe(id) => {
                let a = self
                    .answered
                    .iter()
                    .rev()
                    .find(|a| a.id == *id)
                    .copied()
                    .expect("observing an answered id");
                let measured = simulate_iteration(
                    &Problem::new(a.o, a.v),
                    &Config::new(a.nodes, a.tile),
                    &aurora(),
                    self.seed ^ a.id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
                .seconds;
                let body = format!("{{\"prediction_id\":{id},\"measured_seconds\":{measured}}}");
                (Kind::Observe, wire::request("POST", "/v1/observe", &body))
            }
        };
        self.asks.push(ask);
        Planned { due_ns, open: false, conn, kind, tag: self.asks.len() - 1, bytes }
    }

    /// One hot request: a single-row predict or a hot advise.
    fn hot_request(&mut self, due_ns: u64, conn: usize) -> Planned {
        let ask = if self.rng.gen_bool(HOT_PREDICT_SHARE) {
            Ask::HotPredict(self.rng.gen_range(0..self.pool_rows.len()))
        } else {
            Ask::Hot(self.rng.gen_range(0..self.hot.len()))
        };
        self.plan(due_ns, conn, ask)
    }

    /// Start a closed loop drawing from `source`: the first `depth`
    /// requests of each connection, due at `start_ns`. Each answer then
    /// releases the next request on its connection until the source runs
    /// dry.
    pub fn start_closed(
        &mut self,
        source: Source,
        start_ns: u64,
        n_conns: usize,
        depth: usize,
    ) -> Vec<Planned> {
        self.closed = Some(source);
        (0..n_conns * depth).map_while(|i| self.next_request(start_ns, i % n_conns)).collect()
    }

    fn next_request(&mut self, due_ns: u64, conn: usize) -> Option<Planned> {
        match self.closed.as_mut()? {
            Source::Hot => Some(self.hot_request(due_ns, conn)),
            Source::Cold => Some(self.cold_request(due_ns, conn)),
            Source::Backlog(asks) => {
                let ask = asks.pop_front()?;
                Some(self.plan(due_ns, conn, ask))
            }
        }
    }

    /// Every hot key and predict once: the warm-up that fills the advise
    /// cache.
    pub fn warm_up_asks(&self) -> VecDeque<Ask> {
        (0..self.hot.len())
            .map(Ask::Hot)
            .chain((0..self.pool_rows.len()).map(Ask::HotPredict))
            .collect()
    }

    /// `n` hot advise questions cycling through the key set.
    pub fn hot_asks(&self, n: usize) -> VecDeque<Ask> {
        (0..n).map(|i| Ask::Hot(i % self.hot.len())).collect()
    }

    /// The write probe's questions: observes of the `n` most recent
    /// answered, not yet observed ids, oldest first.
    pub fn observe_asks(&self, n: usize) -> VecDeque<Ask> {
        let ids: Vec<u64> = self
            .answered
            .iter()
            .rev()
            .filter(|a| !self.observed.contains(&a.id))
            .take(n)
            .map(|a| a.id)
            .collect();
        ids.into_iter().rev().map(Ask::Observe).collect()
    }

    /// The next never-seen question of `advise_cold`.
    pub fn cold_request(&mut self, due_ns: u64, conn: usize) -> Planned {
        if self.rng.gen_bool(COLD_PREDICT_SHARE) {
            let grid_n = chemcost_sim::datagen::node_candidates();
            let grid_t = chemcost_sim::datagen::tile_candidates();
            let rows = (0..COLD_PREDICT_ROWS)
                .map(|_| {
                    [
                        self.rng.gen_range(40..=350usize) as f64,
                        self.rng.gen_range(250..=1600usize) as f64,
                        grid_n[self.rng.gen_range(0..grid_n.len())] as f64,
                        grid_t[self.rng.gen_range(0..grid_t.len())] as f64,
                    ]
                })
                .collect();
            return self.plan(due_ns, conn, Ask::ColdPredict(rows));
        }
        let (o, v) = loop {
            let ov = (self.rng.gen_range(40..=350usize), self.rng.gen_range(250..=1600usize));
            if self.cold_seen.insert(ov) {
                break ov;
            }
        };
        let question = Question::ALL[self.rng.gen_range(0..3usize)];
        let budget = self.rng.gen_bool(0.3).then(|| self.rng.gen_range(1..200u32));
        let deadline = self.rng.gen_bool(0.3).then(|| self.rng.gen_range(10..2000u32));
        self.plan(due_ns, conn, Ask::Cold(AdviseQ { o, v, question, budget, deadline }))
    }

    fn remember(&mut self, q: &AdviseQ, resp: &Response) {
        let (Some(id), Ok(json)) =
            (resp.prediction_id, std::str::from_utf8(&resp.body).map(Json::parse))
        else {
            return;
        };
        let Ok(json) = json else { return };
        let rec = match q.question {
            Question::Pareto => {
                json.get("frontier").and_then(Json::as_array).and_then(|f| f.first())
            }
            _ => json.get("recommendation"),
        };
        let field = |k| rec.and_then(|r| r.get(k)).and_then(Json::as_usize);
        if let (Some(nodes), Some(tile)) = (field("nodes"), field("tile")) {
            self.answered.push(Answered { id, o: q.o, v: q.v, nodes, tile });
        }
    }

    /// Check answers the engine deferred: each needs an offline sweep or
    /// a batched predict, done on two threads after the timed window.
    pub fn check_later(&mut self, later: &[(usize, Vec<u8>)]) -> Vec<Result<(), String>> {
        let check = |(tag, body): &(usize, Vec<u8>)| match &self.asks[*tag] {
            Ask::Cold(q) => {
                let sweep = self.oracle.advisor().sweep(q.o, q.v);
                oracle::check_advise(body, q, &sweep)
                    .and_then(|()| oracle::check_advise_shape(body, q))
            }
            Ask::ColdPredict(rows) => {
                oracle::check_predict(body, rows, &self.oracle.predict(rows)).map(|()| true)
            }
            _ => Err("deferred check of a hot answer".into()),
        };
        let half = later.len() / 2;
        let results = std::thread::scope(|s| {
            let first = s.spawn(|| later[..half].iter().map(check).collect::<Vec<_>>());
            let mut out: Vec<_> = later[half..].iter().map(check).collect();
            let mut head = first.join().expect("oracle thread panicked");
            head.append(&mut out);
            head
        });
        results
            .into_iter()
            .map(|r| r.map(|plausible| self.implausible_answers += usize::from(!plausible)))
            .collect()
    }
}

fn predict_body(rows: &[[f64; 4]]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| format!("{{\"o\":{},\"v\":{},\"nodes\":{},\"tile\":{}}}", r[0], r[1], r[2], r[3]))
        .collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

impl Traffic for Load<'_> {
    fn check(
        &mut self,
        req: &Planned,
        resp: &Response,
        now_ns: u64,
        follow: &mut Vec<Planned>,
    ) -> Verdict {
        follow.extend(self.next_request(now_ns, req.conn));
        if resp.status != 200 {
            let why = format!("status {}: {}", resp.status, String::from_utf8_lossy(&resp.body));
            // 503 is the daemon shedding load; any other status is a
            // wrong answer to a well-formed question.
            return if resp.status == 503 { Verdict::Fail(why) } else { Verdict::Wrong(why) };
        }
        let verdict = match &self.asks[req.tag] {
            Ask::Hot(k) => {
                let k = *k;
                if self.checked.get(&(true, k)).is_some_and(|b| *b == resp.body) {
                    Verdict::Ok
                } else {
                    let q = self.hot[k];
                    let result = match oracle::model_version(&resp.body) {
                        Ok(1) => {
                            oracle::check_advise(&resp.body, &q, &self.sweeps[self.hot_sweep[k]])
                        }
                        Ok(_) => {
                            self.promoted_answers += 1;
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                    .and_then(|()| oracle::check_advise_shape(&resp.body, &q));
                    match result {
                        Ok(plausible) => {
                            self.implausible_answers += usize::from(!plausible);
                            self.checked.insert((true, k), resp.body.clone());
                            Verdict::Ok
                        }
                        Err(e) => Verdict::Wrong(e),
                    }
                }
            }
            Ask::HotPredict(i) => {
                let i = *i;
                if self.checked.get(&(false, i)).is_some_and(|b| *b == resp.body) {
                    Verdict::Ok
                } else {
                    match oracle::check_predict(
                        &resp.body,
                        &self.pool_rows[i..i + 1],
                        &self.pool_want[i..i + 1],
                    ) {
                        Ok(()) => {
                            self.checked.insert((false, i), resp.body.clone());
                            Verdict::Ok
                        }
                        Err(e) => Verdict::Wrong(e),
                    }
                }
            }
            Ask::Cold(_) | Ask::ColdPredict(_) => Verdict::Later(resp.body.clone()),
            Ask::Observe(id) => {
                if self.observed.insert(*id) {
                    Verdict::Ok
                } else {
                    Verdict::Wrong(format!("prediction {id} accepted twice"))
                }
            }
        };
        if let (true, Ask::Hot(k)) = (self.collect_ids, &self.asks[req.tag]) {
            let q = self.hot[*k];
            self.remember(&q, resp);
        }
        verdict
    }
}
