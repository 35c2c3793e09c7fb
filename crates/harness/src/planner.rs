//! The problem-first planner: from a declarative [`ProblemSpec`] to a
//! classified, solver-resolved [`Plan`].
//!
//! This is the layer that makes LCL *problems*, not algorithms, the unit
//! of the public surface. Planning a problem does three things:
//!
//! 1. **Classify.** Explicit path tables (and proper colorings) run
//!    through the decidability automaton of `lcl_decidability::path_lcl`
//!    (\[BBC+19\], Lemma 16 of the paper); explicit black-white tables run
//!    through the Section 11 testing procedure
//!    (`lcl_decidability::testing`: good-function search plus the
//!    constant-good check of Definition 80); the named paper families
//!    carry their class as declared metadata computed from the closed-form
//!    exponents ([`ProblemSpec::declared_class`]).
//! 2. **Resolve.** Every registered [`Algorithm`] bids on the problem via
//!    [`Algorithm::solves`]; the capability-indexed
//!    [`resolver`](crate::registry::Resolver) picks the highest-scoring
//!    fit.
//! 3. **Concretize.** The problem's canonical instance family plus a
//!    [`RunConfig`] carrying the problem's parameters (`k`, `d`, the
//!    table itself for table-driven solvers) are packed into the [`Plan`].
//!
//! Every failure is a typed [`PlanError`] — malformed specs, unsolvable or
//! undecidable problems, and capability gaps are values, never panics.
//!
//! ```
//! use lcl_harness::planner::plan;
//! use lcl_harness::RunConfig;
//! use lcl_core::problem_spec::ProblemSpec;
//!
//! let problem = ProblemSpec::preset("3-coloring").expect("known preset");
//! let plan = plan(&problem, 2_000, &RunConfig::seeded(7))?;
//! assert_eq!(plan.solver.name(), "linial");
//! assert_eq!(plan.classification.class.describe(), "Θ(log* n)");
//! let record = plan.run()?;
//! assert!(record.verified);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::algorithm::{run_timed, Algorithm, RunConfig, RunRecord};
use crate::instance::{HarnessError, InstanceSpec};
use crate::registry::resolver;
use lcl_core::landscape::ComplexityClass;
use lcl_core::problem_spec::{BwTable, ProblemRegime, ProblemSpec};
use lcl_decidability::path_lcl::{PathClass, PathLcl};
use lcl_decidability::testing::{alternating_path_class, find_good_function, ImpliedComplexity};
use lcl_decidability::{BwProblem, TestingConfig};
use serde::Serialize;
use std::error::Error;
use std::fmt;

/// Why a problem could not be planned.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The spec failed validation (label ranges, parameter domains,
    /// malformed JSON input).
    BadProblem(String),
    /// The decidability machinery proved the problem unsolvable (beyond
    /// trivially small instances).
    Unsolvable(String),
    /// No decision procedure in the workspace settles the problem's class
    /// (e.g. a tree-degree black-white problem the good-function search
    /// leaves unresolved).
    Undecidable(String),
    /// The problem is classified but no registered algorithm bids on it.
    NoSolver(String),
    /// A harness-level failure while queueing or building the plan.
    Harness(HarnessError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadProblem(msg) => write!(f, "invalid problem spec: {msg}"),
            PlanError::Unsolvable(msg) => write!(f, "problem is unsolvable: {msg}"),
            PlanError::Undecidable(msg) => {
                write!(f, "problem class is undecidable by this workspace: {msg}")
            }
            PlanError::NoSolver(msg) => write!(f, "no registered solver fits: {msg}"),
            PlanError::Harness(e) => write!(f, "{e}"),
        }
    }
}

impl Error for PlanError {}

impl From<HarnessError> for PlanError {
    fn from(e: HarnessError) -> Self {
        PlanError::Harness(e)
    }
}

/// One algorithm's bid on a problem: a preference score (higher wins; the
/// resolver picks the unique maximum) and a short human-readable reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SolverFit {
    /// Preference score in `0..=100`.
    pub score: u8,
    /// Why the algorithm fits, e.g. `"the rigid 2-coloring baseline"`.
    pub reason: &'static str,
}

impl SolverFit {
    /// A fit with the given score and reason.
    #[must_use]
    pub fn new(score: u8, reason: &'static str) -> Self {
        SolverFit { score, reason }
    }
}

/// Where a predicted class came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassSource {
    /// The path-LCL automaton (`lcl_decidability::path_lcl`).
    PathAutomaton,
    /// The Section 11 testing procedure (`lcl_decidability::testing`).
    BwTesting,
    /// Declared metadata of a named paper family (closed-form exponents).
    Declared,
}

impl ClassSource {
    /// Stable rendering for tables and JSON.
    #[must_use]
    pub fn describe(&self) -> &'static str {
        match self {
            ClassSource::PathAutomaton => "path-automaton",
            ClassSource::BwTesting => "bw-testing",
            ClassSource::Declared => "declared",
        }
    }
}

/// The predicted node-averaged complexity of a problem, with provenance.
#[derive(Debug, Clone)]
pub struct Classification {
    /// The predicted landscape cell.
    pub class: ComplexityClass,
    /// Which machinery produced the prediction.
    pub source: ClassSource,
    /// Free-form evidence (good-function names, automaton verdicts).
    pub detail: String,
}

/// A fully planned problem: classified, solver-resolved, concretized.
///
/// (`Debug` renders the solver by its registry name; trait objects have
/// no derived representation.)
pub struct Plan {
    /// The problem being planned.
    pub problem: ProblemSpec,
    /// Predicted class plus provenance.
    pub classification: Classification,
    /// The resolved best-fit algorithm.
    pub solver: &'static dyn Algorithm,
    /// The winning bid.
    pub fit: SolverFit,
    /// The concrete instance family the run will use.
    pub spec: InstanceSpec,
    /// The run configuration, carrying the problem's parameters.
    pub config: RunConfig,
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan")
            .field("problem", &self.problem)
            .field("class", &self.classification.class)
            .field("source", &self.classification.source)
            .field("solver", &self.solver.name())
            .field("fit", &self.fit)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl Plan {
    /// Builds the instance and executes the plan, returning the timed
    /// record.
    ///
    /// # Errors
    ///
    /// Instance build failures and the errors of [`Algorithm::run`].
    pub fn run(&self) -> Result<RunRecord, HarnessError> {
        let instance = self.spec.build()?;
        run_timed(self.solver, &instance, &self.config)
    }
}

/// Classifies a problem without resolving a solver (`lcl solve
/// --classify-only` still reports this for solver-less problems).
///
/// # Errors
///
/// [`PlanError::BadProblem`] for invalid specs, [`PlanError::Unsolvable`]
/// and [`PlanError::Undecidable`] per the decidability machinery.
pub fn classify(problem: &ProblemSpec) -> Result<Classification, PlanError> {
    problem.validate().map_err(PlanError::BadProblem)?;
    match problem {
        ProblemSpec::Path(_) | ProblemSpec::Coloring { .. } => {
            let Some(table) = problem.path_table() else {
                unreachable!("Path and Coloring specs are path-expressible")
            };
            let automaton = PathLcl::new(table.matrix(), table.end_vec());
            let class = automaton.classify();
            let mapped = map_path_class(class, problem)?;
            Ok(Classification {
                class: mapped,
                source: ClassSource::PathAutomaton,
                detail: format!("path automaton verdict: {class:?} (Lemma 16: node-averaged = worst-case on paths)"),
            })
        }
        ProblemSpec::Bw(table) => classify_bw(table, problem),
        _ => {
            let class = problem
                .declared_class()
                .ok_or_else(|| PlanError::Undecidable(problem.describe()))?;
            Ok(Classification {
                class,
                source: ClassSource::Declared,
                detail: "declared by the paper's closed-form exponents".to_string(),
            })
        }
    }
}

/// Classifies a black-white table through the Section 11 testing
/// machinery: the good-function search always runs (its outcome is the
/// evidence), and path-degree problems additionally get the exact
/// alternating-automaton verdict.
fn classify_bw(table: &BwTable, problem: &ProblemSpec) -> Result<Classification, PlanError> {
    let bw = to_bw_problem(table);
    let cfg = TestingConfig::for_delta(table.max_degree);
    let report = find_good_function(&bw, &cfg);
    let good_outcomes = report.outcomes.iter().filter(|(_, o)| o.is_good()).count();
    let evidence = match &report.good_function {
        Some(name) => format!(
            "good function `{name}` ({good_outcomes}/{} candidates good, constant-good: {})",
            report.outcomes.len(),
            report
                .constant_good
                .map_or("-".to_string(), |b| b.to_string()),
        ),
        None => format!(
            "no good function among {} candidates",
            report.outcomes.len()
        ),
    };
    if table.max_degree <= 2 {
        let class = alternating_path_class(&bw);
        let mapped = map_path_class(class, problem)?;
        return Ok(Classification {
            class: mapped,
            source: ClassSource::BwTesting,
            detail: format!("alternating automaton verdict: {class:?}; {evidence}"),
        });
    }
    match report.implied {
        ImpliedComplexity::Constant => Ok(Classification {
            class: ComplexityClass::Constant,
            source: ClassSource::BwTesting,
            detail: format!("{evidence} ⇒ O(1) (Theorem 7)"),
        }),
        ImpliedComplexity::LogStar => Ok(Classification {
            class: ComplexityClass::log_star(),
            source: ClassSource::BwTesting,
            detail: format!("{evidence} ⇒ O(log* n) upper bound"),
        }),
        ImpliedComplexity::Unresolved => Err(PlanError::Undecidable(format!(
            "{}: {evidence}; the testing procedure neither confirms nor refutes n^o(1)",
            problem.describe()
        ))),
    }
}

fn map_path_class(class: PathClass, problem: &ProblemSpec) -> Result<ComplexityClass, PlanError> {
    match class {
        PathClass::Unsolvable => Err(PlanError::Unsolvable(format!(
            "{}: no valid labeling exists for all large paths",
            problem.describe()
        ))),
        PathClass::Constant => Ok(ComplexityClass::Constant),
        PathClass::LogStar => Ok(ComplexityClass::log_star()),
        PathClass::Linear => Ok(ComplexityClass::poly(1.0)),
    }
}

/// Converts the declarative table into the decidability crate's
/// formalism (one input label everywhere). The table must have been
/// validated; ranges are re-checked there, so this cannot panic.
fn to_bw_problem(table: &BwTable) -> BwProblem {
    let lift = |sets: &[Vec<u8>]| -> Vec<Vec<(u8, u8)>> {
        sets.iter()
            .map(|m| m.iter().map(|&l| (0u8, l)).collect())
            .collect()
    };
    BwProblem::new(1, table.out_labels, lift(&table.white), lift(&table.black))
}

/// The canonical instance family a problem is solved on, at target size
/// `n` — paths for table problems, the matching paper construction for
/// the named families.
#[must_use]
pub fn canonical_instance(problem: &ProblemSpec, n: usize) -> InstanceSpec {
    match *problem {
        ProblemSpec::Path(_) | ProblemSpec::Coloring { .. } | ProblemSpec::Bw(_) => {
            InstanceSpec::Path { n }
        }
        ProblemSpec::HierarchicalColoring { k } => InstanceSpec::Theorem11 { n, k },
        ProblemSpec::Weighted {
            regime,
            delta,
            d,
            k,
        } => match regime {
            ProblemRegime::Poly => InstanceSpec::WeightedPoly { n, delta, d, k },
            ProblemRegime::LogStar => InstanceSpec::WeightedLogStar { n, delta, d, k },
        },
        ProblemSpec::WeightAugmented { k } => InstanceSpec::WeightedUnit { n, delta: 5, k },
        ProblemSpec::DfreeWeight { .. } => InstanceSpec::BalancedWeight { w: n, delta: 5 },
        ProblemSpec::HierarchicalLabeling { .. } => InstanceSpec::RandomTree {
            n,
            max_degree: 4,
            seed: 7,
        },
    }
}

/// Plans a problem end-to-end: classify, resolve the best-fit solver,
/// concretize the instance and configuration. `base` supplies the seed
/// and the knobs the problem does not fix.
///
/// # Errors
///
/// Every [`PlanError`] variant: malformed specs, unsolvable/undecidable
/// problems, and capability gaps.
pub fn plan(problem: &ProblemSpec, n: usize, base: &RunConfig) -> Result<Plan, PlanError> {
    let classification = classify(problem)?;
    finish_plan(problem, classification, n, base)
}

/// The post-classification tail of [`plan`]: resolve the best-fit solver
/// and concretize the instance and configuration. Split out so the plan
/// cache ([`crate::plan_cache`]) can memoize the expensive classification
/// step and still produce a fresh `Plan` per request.
pub(crate) fn finish_plan(
    problem: &ProblemSpec,
    classification: Classification,
    n: usize,
    base: &RunConfig,
) -> Result<Plan, PlanError> {
    let (solver, fit) = resolver().resolve(problem)?;
    let mut config = base.clone();
    if let Some(k) = problem.hierarchy_k() {
        config.k = Some(k);
    }
    if let Some(d) = problem.decline_d() {
        config.d = Some(d);
    }
    // Table-driven solvers read the problem from the config; black-white
    // problems hand over their reduced path table.
    config.problem = match problem {
        ProblemSpec::Bw(t) => t.symmetric_path_table().map(ProblemSpec::Path),
        other => Some(other.clone()),
    };
    let spec = canonical_instance(problem, n);
    if !solver.supports(spec.kind()) {
        return Err(PlanError::Harness(HarnessError::UnsupportedInstance {
            algorithm: solver.name().to_string(),
            kind: spec.kind(),
        }));
    }
    Ok(Plan {
        problem: problem.clone(),
        classification,
        solver,
        fit,
        spec,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::landscape::Regime;
    use lcl_core::problem_spec::PathTable;

    #[test]
    fn coloring_presets_classify_through_the_automaton() {
        let two = classify(&ProblemSpec::Coloring { colors: 2 }).unwrap();
        assert_eq!(two.source, ClassSource::PathAutomaton);
        assert_eq!(two.class, ComplexityClass::poly(1.0));
        let three = classify(&ProblemSpec::Coloring { colors: 3 }).unwrap();
        assert_eq!(three.class, ComplexityClass::log_star());
    }

    #[test]
    fn unsolvable_tables_surface_as_plan_errors() {
        // Endpoints must carry label 0, but 0 is compatible with nothing.
        let table = PathTable::new(2, vec![(1, 1)], vec![0]);
        let err = classify(&ProblemSpec::Path(table)).unwrap_err();
        assert!(matches!(err, PlanError::Unsolvable(_)), "{err}");
    }

    #[test]
    fn malformed_specs_are_bad_problems() {
        let err = classify(&ProblemSpec::Coloring { colors: 1 }).unwrap_err();
        assert!(matches!(err, PlanError::BadProblem(_)), "{err}");
        let err = plan(
            &ProblemSpec::Path(PathTable::new(2, vec![(0, 9)], vec![0])),
            100,
            &RunConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::BadProblem(_)), "{err}");
    }

    #[test]
    fn bw_path_problem_classifies_via_testing_machinery() {
        let spec = ProblemSpec::preset("bw-all-equal").unwrap();
        let c = classify(&spec).unwrap();
        assert_eq!(c.source, ClassSource::BwTesting);
        assert_eq!(c.class, ComplexityClass::Constant);
        assert!(c.detail.contains("good function"), "{}", c.detail);
    }

    #[test]
    fn named_families_use_declared_metadata() {
        let c = classify(&ProblemSpec::preset("weighted-poly").unwrap()).unwrap();
        assert_eq!(c.source, ClassSource::Declared);
        assert_eq!(c.class.regime(), Regime::Poly);
    }

    #[test]
    fn plan_resolves_canonical_solvers() {
        let cases = [
            ("2-coloring", "two-coloring"),
            ("3-coloring", "linial"),
            ("theorem11-k2", "generic-coloring"),
            ("weighted-poly", "apoly"),
            ("weighted-logstar", "a35"),
            ("weight-augmented-k2", "weight-augmented"),
            ("dfree-anchored", "dfree-a"),
            ("dfree-decay", "fast-decomposition"),
            ("labeling-k2", "labeling-solver"),
            ("bw-all-equal", "path-lcl"),
        ];
        for (preset, solver) in cases {
            let problem = ProblemSpec::preset(preset).unwrap();
            let plan = plan(&problem, 2_000, &RunConfig::seeded(3))
                .unwrap_or_else(|e| panic!("{preset}: {e}"));
            assert_eq!(plan.solver.name(), solver, "{preset}");
            assert!(plan.fit.score > 0);
        }
    }

    #[test]
    fn custom_table_plans_to_the_generic_solver_and_runs() {
        // 0/1 alternate with a wildcard: O(1).
        let table = PathTable::new(3, vec![(0, 1), (0, 2), (1, 2), (2, 2)], vec![0, 1, 2]);
        let problem = ProblemSpec::Path(table);
        let plan = plan(&problem, 600, &RunConfig::seeded(5)).unwrap();
        assert_eq!(plan.solver.name(), "path-lcl");
        assert_eq!(plan.classification.class, ComplexityClass::Constant);
        let record = plan.run().unwrap();
        assert!(record.verified);
        assert_eq!(record.rounds.len(), record.n);
    }

    #[test]
    fn tree_degree_bw_without_resolution_is_undecidable_or_classified() {
        // A degree-3 problem the family may or may not resolve; whichever
        // way it goes, the outcome must be a value, not a panic.
        let table = lcl_core::problem_spec::BwTable::new(
            2,
            3,
            vec![vec![0], vec![0, 1], vec![0, 1, 1]],
            vec![vec![1], vec![0, 1]],
        );
        match classify(&ProblemSpec::Bw(table)) {
            Ok(c) => assert_eq!(c.source, ClassSource::BwTesting),
            Err(e) => assert!(
                matches!(e, PlanError::Undecidable(_) | PlanError::Unsolvable(_)),
                "{e}"
            ),
        }
    }

    #[test]
    fn plan_error_display_is_informative() {
        let e = PlanError::NoSolver("bw(...)".into());
        assert!(e.to_string().contains("no registered solver"));
        let e = PlanError::Undecidable("x".into());
        assert!(e.to_string().contains("undecidable"));
        let e = PlanError::from(HarnessError::BadSpec("x".into()));
        assert!(matches!(e, PlanError::Harness(_)));
    }
}
