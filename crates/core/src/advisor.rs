//! Sweep-based question answering on a trained runtime model (§3.3).
//!
//! The paper's recipe: train one regression model `(O, V, nodes, tile) →
//! seconds`, then, for the user's fixed `(O_user, V_user)`, query it over a
//! grid of `(nodes, tile)` candidates of typical interest and return the
//! argmin — of predicted seconds for STQ, of predicted node-hours for BQ.
//!
//! # The sweep is computed once
//!
//! Every question ([`Advisor::answer`], [`Advisor::pareto_frontier`], the
//! budget/deadline variants) is a different reduction over the *same*
//! predictions, so the advisor materialises one [`Sweep`] per problem: the
//! feasible node counts and the tile grid are crossed once and the model
//! is asked for every candidate in a **single
//! [`Regressor::predict_grid`] call**. The candidates differ only in
//! `(nodes, tile)`, so a grid-aware backend (the flat ensemble in
//! `chemcost_ml::flat`) scores the whole product with one descent per
//! tree instead of one walk per candidate. Callers answering several
//! questions about one problem (as the serve daemon's `/v1/advise` does
//! for goal + budget + deadline) should call [`Advisor::sweep`] once and
//! reduce the result, paying for exactly one model evaluation.
//!
//! # Memory feasibility
//!
//! A candidate `(nodes, tile)` enters the sweep iff the problem's CCSD
//! tensors fit in the machine's aggregate memory at that node count
//! (`chemcost_sim::simulate::fits_in_memory`): the `V⁴/8 + 6·O²V² + O⁴ +
//! 2·O³V` working set, divided over `nodes`, must not exceed
//! `mem_per_node`. Feasibility depends only on `(O, V, nodes)` — the tile
//! size shapes task granularity, not the resident footprint — so the check
//! runs once per node count, with the `Problem` hoisted out of the loop,
//! and every surviving node count is crossed with the full tile grid.
//! An empty sweep therefore means *no* node count can hold the problem,
//! which is itself useful guidance: the user needs a bigger machine.

use chemcost_linalg::Matrix;
use chemcost_ml::traits::{Regressor, UncertaintyRegressor};
use chemcost_sim::ccsd::Problem;
use chemcost_sim::datagen::{node_candidates, tile_candidates};
use chemcost_sim::machine::MachineModel;
use chemcost_sim::simulate::fits_in_memory;

/// Which question the user is asking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Goal {
    /// Shortest-Time Question: minimize wall seconds.
    ShortestTime,
    /// Budget Question: minimize node-hours.
    Budget,
}

impl Goal {
    /// Short label used in reports ("STQ" / "BQ").
    pub fn abbrev(self) -> &'static str {
        match self {
            Goal::ShortestTime => "STQ",
            Goal::Budget => "BQ",
        }
    }
}

/// An answer to a user question.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// Recommended node count.
    pub nodes: usize,
    /// Recommended tile size.
    pub tile: usize,
    /// Model-predicted wall seconds at that configuration.
    pub predicted_seconds: f64,
    /// Model-predicted node-hours at that configuration.
    pub predicted_node_hours: f64,
}

/// A trained-model wrapper that answers STQ/BQ by grid sweep.
pub struct Advisor<'a> {
    model: &'a dyn Regressor,
    machine: MachineModel,
    nodes_grid: Vec<usize>,
    tiles_grid: Vec<usize>,
}

impl<'a> Advisor<'a> {
    /// Wrap a trained seconds-predictor with the default candidate grids
    /// (the same ranges the datasets sweep).
    ///
    /// # Example
    ///
    /// ```
    /// use chemcost_core::advisor::{Advisor, Goal};
    /// use chemcost_linalg::Matrix;
    /// use chemcost_ml::gradient_boosting::GradientBoosting;
    /// use chemcost_ml::Regressor;
    /// use chemcost_sim::datagen::generate_dataset_sized;
    /// use chemcost_sim::machine::aurora;
    ///
    /// // Train a small runtime model on simulated CCSD timings.
    /// let machine = aurora();
    /// let samples = generate_dataset_sized(&machine, 120, 42);
    /// let mut x = Matrix::zeros(0, 4);
    /// let mut y = Vec::new();
    /// for s in &samples {
    ///     x.push_row(&s.features());
    ///     y.push(s.seconds);
    /// }
    /// let mut model = GradientBoosting::new(25, 4, 0.2);
    /// model.fit(&x, &y).unwrap();
    ///
    /// // One sweep answers every question about a problem.
    /// let advisor = Advisor::new(&model, machine);
    /// let sweep = advisor.sweep(116, 840);
    /// let fastest = sweep.best(Goal::ShortestTime).unwrap();
    /// let cheapest = sweep.best(Goal::Budget).unwrap();
    /// assert!(fastest.predicted_seconds <= cheapest.predicted_seconds);
    /// assert!(cheapest.predicted_node_hours <= fastest.predicted_node_hours);
    /// ```
    pub fn new(model: &'a dyn Regressor, machine: MachineModel) -> Self {
        Self { model, machine, nodes_grid: node_candidates(), tiles_grid: tile_candidates() }
    }

    /// Override the candidate grids.
    pub fn with_grids(mut self, nodes: Vec<usize>, tiles: Vec<usize>) -> Self {
        assert!(!nodes.is_empty() && !tiles.is_empty(), "grids must be non-empty");
        self.nodes_grid = nodes;
        self.tiles_grid = tiles;
        self
    }

    /// The node counts of the grid at which the problem's tensors fit in
    /// memory (see the module docs), in grid order.
    fn feasible_nodes(&self, o: usize, v: usize) -> Vec<usize> {
        let p = Problem::new(o, v);
        self.nodes_grid.iter().copied().filter(|&n| fits_in_memory(&p, n, &self.machine)).collect()
    }

    /// Every memory-feasible candidate configuration for a problem: each
    /// feasible node count crossed with the whole tile grid.
    pub fn candidates(&self, o: usize, v: usize) -> Vec<(usize, usize)> {
        cross(&self.feasible_nodes(o, v), &self.tiles_grid)
    }

    /// Evaluate the model over every feasible candidate in **one
    /// [`Regressor::predict_grid`] call** — `(o, v)` fixed, feasible node
    /// counts × tiles — and return the reusable [`Sweep`].
    ///
    /// Every question this advisor answers is a reduction over the sweep;
    /// callers with several questions about the same problem should sweep
    /// once and reduce many times.
    pub fn sweep(&self, o: usize, v: usize) -> Sweep {
        let nodes = self.feasible_nodes(o, v);
        let candidates = cross(&nodes, &self.tiles_grid);
        let axis = |g: &[usize]| g.iter().map(|&k| k as f64).collect::<Vec<f64>>();
        let mut seconds = Vec::new();
        self.model.predict_grid(
            &[o as f64, v as f64],
            &axis(&nodes),
            &axis(&self.tiles_grid),
            &mut seconds,
        );
        assert_eq!(
            seconds.len(),
            candidates.len(),
            "predict_grid must return one value per candidate"
        );
        Sweep { candidates, seconds }
    }

    /// Answer a question for problem size `(o, v)`.
    ///
    /// Returns `None` when no candidate fits in memory (the user needs a
    /// bigger machine, which is itself useful guidance).
    pub fn answer(&self, o: usize, v: usize, goal: Goal) -> Option<Recommendation> {
        self.sweep(o, v).best(goal)
    }

    /// The predicted time/cost Pareto frontier for a problem; see
    /// [`Sweep::pareto_frontier`].
    pub fn pareto_frontier(&self, o: usize, v: usize) -> Vec<Recommendation> {
        self.sweep(o, v).pareto_frontier()
    }

    /// Fastest configuration whose predicted cost stays within
    /// `max_node_hours`; see [`Sweep::fastest_within_budget`].
    pub fn fastest_within_budget(
        &self,
        o: usize,
        v: usize,
        max_node_hours: f64,
    ) -> Option<Recommendation> {
        self.sweep(o, v).fastest_within_budget(max_node_hours)
    }

    /// Cheapest configuration whose predicted wall time stays within
    /// `max_seconds`; see [`Sweep::cheapest_within_deadline`].
    pub fn cheapest_within_deadline(
        &self,
        o: usize,
        v: usize,
        max_seconds: f64,
    ) -> Option<Recommendation> {
        self.sweep(o, v).cheapest_within_deadline(max_seconds)
    }

    /// Answer the shortest-time question.
    pub fn answer_stq(&self, o: usize, v: usize) -> Option<Recommendation> {
        self.answer(o, v, Goal::ShortestTime)
    }

    /// Answer the budget question.
    pub fn answer_bq(&self, o: usize, v: usize) -> Option<Recommendation> {
        self.answer(o, v, Goal::Budget)
    }
}

/// Every `(n, t)` pair, node-major: the row order of
/// [`Regressor::predict_grid`] over `nodes × tiles`.
fn cross(nodes: &[usize], tiles: &[usize]) -> Vec<(usize, usize)> {
    nodes.iter().flat_map(|&n| tiles.iter().map(move |&t| (n, t))).collect()
}

/// One batched model evaluation over every feasible candidate of a
/// problem, from which every advisor question is a cheap reduction.
///
/// Produced by [`Advisor::sweep`]. The candidate list and the predicted
/// seconds are index-aligned; non-finite predictions are retained here and
/// skipped by each reduction, matching the recursive path's behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    candidates: Vec<(usize, usize)>,
    seconds: Vec<f64>,
}

impl Sweep {
    /// The feasible `(nodes, tile)` candidates, in grid order.
    pub fn candidates(&self) -> &[(usize, usize)] {
        &self.candidates
    }

    /// Predicted wall seconds per candidate (index-aligned).
    pub fn seconds(&self) -> &[f64] {
        &self.seconds
    }

    /// Number of feasible candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when no candidate fits in memory.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    fn recommendation(&self, i: usize) -> Recommendation {
        let (nodes, tile) = self.candidates[i];
        Recommendation {
            nodes,
            tile,
            predicted_seconds: self.seconds[i],
            predicted_node_hours: self.seconds[i] * nodes as f64 / 3600.0,
        }
    }

    /// The goal's argmin over the sweep — predicted seconds for STQ,
    /// predicted node-hours for BQ. `None` on an empty sweep or when every
    /// prediction is non-finite.
    pub fn best(&self, goal: Goal) -> Option<Recommendation> {
        let mut best: Option<(usize, f64)> = None;
        for (i, (&(n, _), &s)) in self.candidates.iter().zip(&self.seconds).enumerate() {
            let objective = match goal {
                Goal::ShortestTime => s,
                Goal::Budget => s * n as f64 / 3600.0,
            };
            if objective.is_finite() && best.is_none_or(|(_, b)| objective < b) {
                best = Some((i, objective));
            }
        }
        best.map(|(i, _)| self.recommendation(i))
    }

    /// The predicted time/cost Pareto frontier: every candidate not
    /// dominated in (seconds, node-hours), sorted by predicted seconds
    /// ascending.
    ///
    /// The STQ answer is the frontier's first point and the BQ answer its
    /// last — everything between is the menu of rational compromises a
    /// user with both a deadline and a budget actually chooses from.
    pub fn pareto_frontier(&self) -> Vec<Recommendation> {
        let mut recs: Vec<Recommendation> = (0..self.len())
            .filter(|&i| self.seconds[i].is_finite())
            .map(|i| self.recommendation(i))
            .collect();
        recs.sort_by(|a, b| {
            a.predicted_seconds
                .partial_cmp(&b.predicted_seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // Single pass: with seconds ascending, a point is non-dominated
        // iff its node-hours are strictly below everything kept so far.
        let mut frontier: Vec<Recommendation> = Vec::new();
        let mut best_nh = f64::INFINITY;
        for r in recs {
            if r.predicted_node_hours < best_nh - 1e-12 {
                best_nh = r.predicted_node_hours;
                frontier.push(r);
            }
        }
        frontier
    }

    /// Fastest configuration whose predicted cost stays within
    /// `max_node_hours` — "I have this much allocation left; how fast can
    /// I go?". `None` if no feasible candidate fits the budget.
    pub fn fastest_within_budget(&self, max_node_hours: f64) -> Option<Recommendation> {
        self.pareto_frontier().into_iter().find(|r| r.predicted_node_hours <= max_node_hours)
    }

    /// Cheapest configuration whose predicted wall time stays within
    /// `max_seconds` — "results by tomorrow morning, as cheap as possible".
    /// `None` if no feasible candidate meets the deadline.
    pub fn cheapest_within_deadline(&self, max_seconds: f64) -> Option<Recommendation> {
        self.pareto_frontier()
            .into_iter()
            .rev() // frontier is cheapest-last
            .find(|r| r.predicted_seconds <= max_seconds)
    }
}

/// A risk-aware recommendation: the point estimate plus the model's own
/// predictive uncertainty at the chosen configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskAwareRecommendation {
    /// The underlying recommendation.
    pub rec: Recommendation,
    /// Predictive standard deviation of the seconds estimate.
    pub seconds_std: f64,
}

/// Advisor over a model that quantifies its own uncertainty (Gaussian
/// process, random-forest committee, Bayesian ridge).
///
/// Instead of `argmin μ(x)`, the risk-averse answer minimizes the upper
/// confidence bound `μ(x) + κ·σ(x)`: a configuration the model is merely
/// *hopeful* about loses to one it is *sure* about. With `κ = 0` this
/// reduces to the plain [`Advisor`] answer.
pub struct UncertaintyAdvisor<'a> {
    model: &'a dyn UncertaintyRegressor,
    inner: Advisor<'a>,
}

impl<'a> UncertaintyAdvisor<'a> {
    /// Wrap an uncertainty-quantifying seconds-predictor.
    pub fn new(model: &'a dyn UncertaintyRegressor, machine: MachineModel) -> Self {
        Self { model, inner: Advisor::new(model, machine) }
    }

    /// Access the plain advisor (point-estimate answers, Pareto, …).
    pub fn advisor(&self) -> &Advisor<'a> {
        &self.inner
    }

    /// Risk-averse answer: minimize `μ + κσ` of the goal objective.
    ///
    /// # Panics
    /// Panics if `kappa` is negative or non-finite.
    pub fn answer_risk_averse(
        &self,
        o: usize,
        v: usize,
        goal: Goal,
        kappa: f64,
    ) -> Option<RiskAwareRecommendation> {
        assert!(kappa >= 0.0 && kappa.is_finite(), "kappa must be a non-negative finite number");
        let cands = self.inner.candidates(o, v);
        if cands.is_empty() {
            return None;
        }
        let x = Matrix::from_fn(cands.len(), 4, |i, j| match j {
            0 => o as f64,
            1 => v as f64,
            2 => cands[i].0 as f64,
            _ => cands[i].1 as f64,
        });
        let (mean, std) = self.model.predict_with_std(&x);
        let mut best: Option<(usize, f64)> = None;
        for (i, &(n, _)) in cands.iter().enumerate() {
            let scale = match goal {
                Goal::ShortestTime => 1.0,
                Goal::Budget => n as f64 / 3600.0,
            };
            let objective = (mean[i] + kappa * std[i]) * scale;
            if objective.is_finite() && best.is_none_or(|(_, b)| objective < b) {
                best = Some((i, objective));
            }
        }
        best.map(|(i, _)| {
            let (nodes, tile) = cands[i];
            RiskAwareRecommendation {
                rec: Recommendation {
                    nodes,
                    tile,
                    predicted_seconds: mean[i],
                    predicted_node_hours: mean[i] * nodes as f64 / 3600.0,
                },
                seconds_std: std[i],
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chemcost_ml::FitError;
    use chemcost_sim::machine::aurora;
    use chemcost_sim::simulate::{simulate_iteration_clean, Config};

    /// A "model" that returns the noise-free simulator truth — the advisor
    /// on top of it must recover the simulator's own optima.
    struct OracleModel {
        machine: MachineModel,
    }

    impl Regressor for OracleModel {
        fn fit(&mut self, _x: &Matrix, _y: &[f64]) -> Result<(), FitError> {
            Ok(())
        }
        fn predict(&self, x: &Matrix) -> Vec<f64> {
            (0..x.nrows())
                .map(|i| {
                    let r = x.row(i);
                    let p = Problem::new(r[0] as usize, r[1] as usize);
                    let cfg = Config::new(r[2] as usize, r[3] as usize);
                    simulate_iteration_clean(&p, &cfg, &self.machine).seconds
                })
                .collect()
        }
        fn name(&self) -> &'static str {
            "oracle"
        }
    }

    #[test]
    fn oracle_advisor_finds_true_optimum() {
        let machine = aurora();
        let model = OracleModel { machine: machine.clone() };
        let advisor = Advisor::new(&model, machine.clone())
            .with_grids(vec![5, 20, 50, 150, 300, 600], vec![40, 60, 90, 120]);
        let rec = advisor.answer_stq(116, 840).expect("feasible");
        // Exhaustive check against the simulator.
        let mut best = (0usize, 0usize, f64::INFINITY);
        for &n in &[5usize, 20, 50, 150, 300, 600] {
            for &t in &[40usize, 60, 90, 120] {
                let s =
                    simulate_iteration_clean(&Problem::new(116, 840), &Config::new(n, t), &machine)
                        .seconds;
                if s < best.2 {
                    best = (n, t, s);
                }
            }
        }
        assert_eq!((rec.nodes, rec.tile), (best.0, best.1));
        assert!((rec.predicted_seconds - best.2).abs() < 1e-9);
    }

    #[test]
    fn bq_uses_fewer_nodes_than_stq() {
        let machine = aurora();
        let model = OracleModel { machine: machine.clone() };
        let advisor = Advisor::new(&model, machine);
        let stq = advisor.answer_stq(180, 1070).unwrap();
        let bq = advisor.answer_bq(180, 1070).unwrap();
        assert!(
            bq.nodes < stq.nodes,
            "budget answer ({}) should use fewer nodes than shortest-time ({})",
            bq.nodes,
            stq.nodes
        );
        assert!(bq.predicted_node_hours <= stq.predicted_node_hours);
        assert!(stq.predicted_seconds <= bq.predicted_seconds);
    }

    #[test]
    fn candidates_respect_memory() {
        let machine = aurora();
        let model = OracleModel { machine: machine.clone() };
        let advisor = Advisor::new(&model, machine.clone());
        for (n, _) in advisor.candidates(146, 1568) {
            assert!(fits_in_memory(&Problem::new(146, 1568), n, &machine));
        }
    }

    #[test]
    fn infeasible_problem_returns_none() {
        let machine = aurora();
        let model = OracleModel { machine: machine.clone() };
        // Restrict the grid to node counts that cannot hold the tensors.
        let advisor = Advisor::new(&model, machine).with_grids(vec![5], vec![80]);
        assert!(advisor.answer_stq(400, 3000).is_none());
    }

    #[test]
    fn pareto_frontier_is_sorted_and_nondominated() {
        let machine = aurora();
        let model = OracleModel { machine: machine.clone() };
        let advisor = Advisor::new(&model, machine);
        let frontier = advisor.pareto_frontier(134, 951);
        assert!(frontier.len() >= 2, "expect a real trade-off curve");
        for w in frontier.windows(2) {
            assert!(w[0].predicted_seconds <= w[1].predicted_seconds);
            assert!(w[0].predicted_node_hours > w[1].predicted_node_hours);
        }
        // Endpoints agree with the two point answers.
        let stq = advisor.answer_stq(134, 951).unwrap();
        let bq = advisor.answer_bq(134, 951).unwrap();
        let first = frontier.first().unwrap();
        let last = frontier.last().unwrap();
        assert!((first.predicted_seconds - stq.predicted_seconds).abs() < 1e-9);
        assert!((last.predicted_node_hours - bq.predicted_node_hours).abs() < 1e-9);
    }

    #[test]
    fn budget_constrained_answers_respect_constraints() {
        let machine = aurora();
        let model = OracleModel { machine: machine.clone() };
        let advisor = Advisor::new(&model, machine);
        let bq = advisor.answer_bq(116, 840).unwrap();
        let stq = advisor.answer_stq(116, 840).unwrap();
        // A budget between the two extremes must return something between.
        let budget = (bq.predicted_node_hours + stq.predicted_node_hours) / 2.0;
        let r = advisor.fastest_within_budget(116, 840, budget).unwrap();
        assert!(r.predicted_node_hours <= budget + 1e-12);
        assert!(
            r.predicted_seconds <= bq.predicted_seconds + 1e-9,
            "paying more must not be slower"
        );
        // Impossible budget -> None.
        assert!(advisor.fastest_within_budget(116, 840, bq.predicted_node_hours * 0.01).is_none());
    }

    #[test]
    fn deadline_constrained_answers_respect_constraints() {
        let machine = aurora();
        let model = OracleModel { machine: machine.clone() };
        let advisor = Advisor::new(&model, machine);
        let stq = advisor.answer_stq(99, 718).unwrap();
        let bq = advisor.answer_bq(99, 718).unwrap();
        let deadline = (stq.predicted_seconds + bq.predicted_seconds) / 2.0;
        let r = advisor.cheapest_within_deadline(99, 718, deadline).unwrap();
        assert!(r.predicted_seconds <= deadline + 1e-12);
        assert!(
            r.predicted_node_hours <= stq.predicted_node_hours + 1e-9,
            "meeting a looser deadline must not cost more"
        );
        // Impossible deadline -> None.
        assert!(advisor.cheapest_within_deadline(99, 718, stq.predicted_seconds * 0.01).is_none());
    }

    #[test]
    fn risk_averse_reduces_to_plain_at_kappa_zero() {
        use chemcost_core_test_forest::make_rf;
        let machine = aurora();
        let (rf, _) = make_rf(&machine);
        let ua = UncertaintyAdvisor::new(&rf, machine.clone());
        let plain = ua.advisor().answer_stq(116, 840).unwrap();
        let risk0 = ua.answer_risk_averse(116, 840, Goal::ShortestTime, 0.0).unwrap();
        assert_eq!((plain.nodes, plain.tile), (risk0.rec.nodes, risk0.rec.tile));
    }

    #[test]
    fn risk_averse_objective_penalizes_uncertainty() {
        use chemcost_core_test_forest::make_rf;
        let machine = aurora();
        let (rf, _) = make_rf(&machine);
        let ua = UncertaintyAdvisor::new(&rf, machine);
        let cautious = ua.answer_risk_averse(134, 951, Goal::ShortestTime, 3.0).unwrap();
        let neutral = ua.answer_risk_averse(134, 951, Goal::ShortestTime, 0.0).unwrap();
        assert!(cautious.seconds_std.is_finite() && cautious.seconds_std >= 0.0);
        // The cautious pick's UCB must not exceed the neutral pick's UCB.
        let ucb = |r: &RiskAwareRecommendation| r.rec.predicted_seconds + 3.0 * r.seconds_std;
        assert!(ucb(&cautious) <= ucb(&neutral) + 1e-9);
    }

    #[test]
    #[should_panic(expected = "kappa")]
    fn risk_averse_rejects_negative_kappa() {
        use chemcost_core_test_forest::make_rf;
        let machine = aurora();
        let (rf, _) = make_rf(&machine);
        let ua = UncertaintyAdvisor::new(&rf, machine);
        let _ = ua.answer_risk_averse(99, 718, Goal::ShortestTime, -1.0);
    }

    /// Shared fixture: a small RF trained on simulator data.
    mod chemcost_core_test_forest {
        use super::*;
        use chemcost_ml::forest::RandomForest;

        pub fn make_rf(machine: &MachineModel) -> (RandomForest, usize) {
            let samples = chemcost_sim::datagen::generate_dataset_sized(machine, 300, 9);
            let mut x = Matrix::zeros(0, 4);
            let mut y = Vec::new();
            for s in &samples {
                x.push_row(&s.features());
                y.push(s.seconds);
            }
            let mut rf = RandomForest::new(30, 10);
            rf.seed = 5;
            rf.fit(&x, &y).unwrap();
            (rf, samples.len())
        }
    }

    #[test]
    fn sweep_reductions_match_per_question_answers() {
        let machine = aurora();
        let model = OracleModel { machine: machine.clone() };
        let advisor = Advisor::new(&model, machine);
        let sweep = advisor.sweep(134, 951);
        assert!(!sweep.is_empty());
        assert_eq!(sweep.len(), sweep.seconds().len());
        assert_eq!(sweep.best(Goal::ShortestTime), advisor.answer_stq(134, 951));
        assert_eq!(sweep.best(Goal::Budget), advisor.answer_bq(134, 951));
        assert_eq!(sweep.pareto_frontier(), advisor.pareto_frontier(134, 951));
        let budget = sweep.best(Goal::ShortestTime).unwrap().predicted_node_hours;
        assert_eq!(
            sweep.fastest_within_budget(budget),
            advisor.fastest_within_budget(134, 951, budget)
        );
        let deadline = sweep.best(Goal::Budget).unwrap().predicted_seconds;
        assert_eq!(
            sweep.cheapest_within_deadline(deadline),
            advisor.cheapest_within_deadline(134, 951, deadline)
        );
    }

    #[test]
    fn empty_sweep_reduces_to_nothing() {
        let machine = aurora();
        let model = OracleModel { machine: machine.clone() };
        let advisor = Advisor::new(&model, machine).with_grids(vec![5], vec![80]);
        let sweep = advisor.sweep(400, 3000);
        assert!(sweep.is_empty());
        assert!(sweep.best(Goal::ShortestTime).is_none());
        assert!(sweep.pareto_frontier().is_empty());
        assert!(sweep.fastest_within_budget(f64::INFINITY).is_none());
        assert!(sweep.cheapest_within_deadline(f64::INFINITY).is_none());
    }

    #[test]
    fn flat_model_sweep_identical_to_recursive() {
        // The real serving configuration: a trained GB queried through its
        // flat compilation. The flat default is the quantized path — the
        // candidate grid is all small integers (exactly representable in
        // f32), so routing matches the recursive model exactly and sweep
        // predictions agree within QUANT_REL_TOL (leaf-value rounding
        // only), while the recommendations on every question must agree
        // outright whenever the winner is not inside a tolerance-sized
        // tie (checked via each answer's predicted seconds).
        use chemcost_ml::flat::{FlatGbt, QUANT_REL_TOL};
        use chemcost_ml::gradient_boosting::GradientBoosting;
        let machine = aurora();
        let samples = chemcost_sim::datagen::generate_dataset_sized(&machine, 250, 3);
        let mut x = Matrix::zeros(0, 4);
        let mut y = Vec::new();
        for s in &samples {
            x.push_row(&s.features());
            y.push(s.seconds);
        }
        let mut gb = GradientBoosting::new(80, 6, 0.1);
        gb.seed = 17;
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);

        let close = |q: f64, e: f64| (q - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs());
        let recursive = Advisor::new(&gb, machine.clone());
        let fast = Advisor::new(&flat, machine);
        for &(o, v) in &[(116usize, 840usize), (134, 951), (44, 260), (280, 1040)] {
            let a = recursive.sweep(o, v);
            let b = fast.sweep(o, v);
            assert_eq!(a.candidates(), b.candidates());
            assert_eq!(a.seconds().len(), b.seconds().len());
            for (&ea, &qb) in a.seconds().iter().zip(b.seconds()) {
                assert!(close(qb, ea), "flat sweep differs at ({o},{v}): {qb} vs {ea}");
            }
            for (ra, rb) in [
                (a.best(Goal::ShortestTime), b.best(Goal::ShortestTime)),
                (a.best(Goal::Budget), b.best(Goal::Budget)),
            ] {
                let (ra, rb) = (ra.unwrap(), rb.unwrap());
                // The quantized winner may differ from the exact winner
                // only if the two configurations' predictions are within
                // tolerance of each other — a genuine tie at the model's
                // resolution, not a wrong answer.
                assert!(
                    close(rb.predicted_seconds, ra.predicted_seconds),
                    "flat recommendation off at ({o},{v}): {rb:?} vs {ra:?}"
                );
            }
            // Every exact-frontier point must have a tolerance-equal
            // counterpart on the quantized frontier.
            let bf = b.pareto_frontier();
            for ra in a.pareto_frontier() {
                assert!(
                    bf.iter().any(|rb| close(rb.predicted_seconds, ra.predicted_seconds)),
                    "frontier point lost at ({o},{v}): {ra:?}"
                );
            }
        }
    }

    #[test]
    fn flat_sweep_is_bit_identical_to_batch_over_candidates() {
        // `Advisor::sweep` scores the grid through `predict_grid`; on the
        // flat model that must reproduce `predict_batch` over the
        // materialised candidate matrix bit for bit, on the default grids
        // and on custom ones that arrive unsorted and with duplicates.
        use chemcost_ml::flat::FlatGbt;
        use chemcost_ml::gradient_boosting::GradientBoosting;
        let machine = aurora();
        let samples = chemcost_sim::datagen::generate_dataset_sized(&machine, 250, 5);
        let mut x = Matrix::zeros(0, 4);
        let mut y = Vec::new();
        for s in &samples {
            x.push_row(&s.features());
            y.push(s.seconds);
        }
        let mut gb = GradientBoosting::new(60, 6, 0.1);
        gb.seed = 9;
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<u64>>();
        let advisors = [
            Advisor::new(&flat, machine.clone()),
            Advisor::new(&flat, machine.clone())
                .with_grids(vec![300, 20, 5, 20, 900, 50, 110], vec![120, 40, 90, 40, 180]),
        ];
        for advisor in &advisors {
            for &(o, v) in &[(116usize, 840usize), (44, 260), (280, 1040), (350, 1600)] {
                let sweep = advisor.sweep(o, v);
                let cands = advisor.candidates(o, v);
                assert_eq!(sweep.candidates(), &cands[..]);
                assert!(!cands.is_empty());
                let m = Matrix::from_fn(cands.len(), 4, |i, j| match j {
                    0 => o as f64,
                    1 => v as f64,
                    2 => cands[i].0 as f64,
                    _ => cands[i].1 as f64,
                });
                assert_eq!(bits(sweep.seconds()), bits(&flat.predict_batch(&m)), "({o},{v})");
            }
        }
    }

    #[test]
    fn recommendation_node_hours_consistent() {
        let machine = aurora();
        let model = OracleModel { machine: machine.clone() };
        let advisor = Advisor::new(&model, machine);
        let rec = advisor.answer_bq(99, 718).unwrap();
        assert!(
            (rec.predicted_node_hours - rec.predicted_seconds * rec.nodes as f64 / 3600.0).abs()
                < 1e-12
        );
    }
}
