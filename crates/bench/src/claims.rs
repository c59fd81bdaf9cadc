//! The paper-claims report (`BENCH_claims.json`) written by `exp_claims`:
//! one row per checked claim — the measured value, the bound it must
//! respect and the relation between them — plus the gate that holds a
//! run to its own bounds and to a committed baseline, exactly.
//!
//! Every measured value comes from seeded runs, so a rerun reproduces
//! each row bit for bit. The baseline comparison therefore tolerates
//! nothing: the same rows in the same order, with `measured` and `bound`
//! equal by [`f64::to_bits`].

use serde::{Deserialize, Serialize};

use crate::Table;

/// Schema tag of `BENCH_claims.json`, checked on every read.
pub const SCHEMA: &str = "treenet-bench/claims/v1";

/// How a claim's measured value must relate to its bound.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relation {
    /// `measured ≤ bound`.
    AtMost,
    /// `measured ≥ bound`.
    AtLeast,
    /// `measured > bound`.
    Above,
    /// `measured == bound`.
    Equal,
}

impl Relation {
    /// Whether `measured` stands in this relation to `bound`.
    pub fn holds(self, measured: f64, bound: f64) -> bool {
        match self {
            Relation::AtMost => measured <= bound,
            Relation::AtLeast => measured >= bound,
            Relation::Above => measured > bound,
            Relation::Equal => measured == bound,
        }
    }

    /// The relation as an operator, for the rendered table.
    pub fn symbol(self) -> &'static str {
        match self {
            Relation::AtMost => "<=",
            Relation::AtLeast => ">=",
            Relation::Above => ">",
            Relation::Equal => "==",
        }
    }
}

/// One checked claim.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Claim {
    /// Unique row id: experiment, parameters and quantity, `/`-separated.
    pub id: String,
    /// Where the paper states the claim (theorem, lemma or section).
    pub source: String,
    /// The measured value.
    pub measured: f64,
    /// The bound, including any rounding slack the comparison allows.
    pub bound: f64,
    /// How `measured` must relate to `bound`.
    pub relation: Relation,
    /// Whether the relation held when the row was measured.
    pub pass: bool,
}

impl Claim {
    /// A measured row; `pass` is computed from the relation. An
    /// unbounded measurement (a ratio over zero profit) is stored as
    /// `f64::MAX`, so the report stays valid JSON and still fails any
    /// finite upper bound.
    pub fn new(id: String, source: &str, measured: f64, relation: Relation, bound: f64) -> Self {
        let measured = if measured == f64::INFINITY {
            f64::MAX
        } else {
            measured
        };
        Claim {
            id,
            source: source.to_string(),
            measured,
            bound,
            relation,
            pass: relation.holds(measured, bound),
        }
    }
}

/// The JSON document `exp_claims` writes and gates against.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClaimsReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// The rows, in the order the bin measures them.
    pub claims: Vec<Claim>,
}

impl ClaimsReport {
    /// Wraps measured rows under the current schema tag.
    pub fn new(claims: Vec<Claim>) -> Self {
        ClaimsReport {
            schema: SCHEMA.to_string(),
            claims,
        }
    }

    /// Reads and validates a report: it must parse, carry [`SCHEMA`]
    /// and hold at least one row.
    ///
    /// # Errors
    ///
    /// A human-readable reason when any of those fails.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report: ClaimsReport =
            serde_json::from_str(&text).map_err(|e| format!("malformed {path}: {e}"))?;
        if report.schema != SCHEMA {
            return Err(format!(
                "schema tag mismatch in {path}: {} != {SCHEMA}",
                report.schema
            ));
        }
        if report.claims.is_empty() {
            return Err(format!("{path} contains no claims"));
        }
        Ok(report)
    }

    /// The rows as one markdown table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Paper claims — measured value against the bound",
            &["claim", "source", "measured", "rel", "bound", "pass"],
        );
        for c in &self.claims {
            table.row(&[
                c.id.clone(),
                c.source.clone(),
                format_value(c.measured),
                c.relation.symbol().to_string(),
                format_value(c.bound),
                if c.pass { "yes" } else { "NO" }.to_string(),
            ]);
        }
        table
    }
}

/// Integers print whole; everything else with four decimals (the JSON
/// keeps the exact value).
fn format_value(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

/// The gate. Every row of `current` must satisfy its own relation and
/// ids must be unique; with a `baseline`, `current` must hold exactly the
/// baseline's rows in the baseline's order, each equal field by field
/// (`measured` and `bound` by [`f64::to_bits`]). Returns the failures as
/// human-readable lines; empty means the gate passed.
pub fn gate(current: &[Claim], baseline: Option<&[Claim]>) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, c) in current.iter().enumerate() {
        if !c.relation.holds(c.measured, c.bound) {
            failures.push(format!(
                "{}: measured {} is not {} {} ({})",
                c.id,
                c.measured,
                c.relation.symbol(),
                c.bound,
                c.source
            ));
        }
        if current[..i].iter().any(|earlier| earlier.id == c.id) {
            failures.push(format!("{}: duplicate claim id", c.id));
        }
    }
    let Some(baseline) = baseline else {
        return failures;
    };
    for old in baseline {
        let Some(new) = current.iter().find(|c| c.id == old.id) else {
            failures.push(format!("{}: baseline claim missing from this run", old.id));
            continue;
        };
        if new.measured.to_bits() != old.measured.to_bits() {
            failures.push(format!(
                "{}: measured {} differs from the baseline's {}",
                old.id, new.measured, old.measured
            ));
        }
        if new.bound.to_bits() != old.bound.to_bits() {
            failures.push(format!(
                "{}: bound {} differs from the baseline's {}",
                old.id, new.bound, old.bound
            ));
        }
        if (&new.source, new.relation, new.pass) != (&old.source, old.relation, old.pass) {
            failures.push(format!(
                "{}: source/relation/pass ({}, {}, {}) differ from the baseline's ({}, {}, {})",
                old.id,
                new.source,
                new.relation.symbol(),
                new.pass,
                old.source,
                old.relation.symbol(),
                old.pass
            ));
        }
    }
    for new in current {
        if !baseline.iter().any(|old| old.id == new.id) {
            failures.push(format!("{}: claim not in the baseline", new.id));
        }
    }
    let ids = |rows: &[Claim]| rows.iter().map(|c| c.id.clone()).collect::<Vec<_>>();
    if failures.is_empty() && ids(current) != ids(baseline) {
        failures.push("claims are in a different order than in the baseline".to_string());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Claim> {
        vec![
            Claim::new("a/ratio".into(), "Thm 5.3", 1.5, Relation::AtMost, 7.0),
            Claim::new("b/lambda".into(), "Sec. 5", 0.91, Relation::AtLeast, 0.9),
            Claim::new("c/stages".into(), "Sec. 5", 40.0, Relation::Equal, 40.0),
        ]
    }

    #[test]
    fn identical_run_passes() {
        assert!(gate(&rows(), None).is_empty());
        assert!(gate(&rows(), Some(&rows())).is_empty());
    }

    #[test]
    fn one_ulp_drift_fails() {
        let mut drifted = rows();
        drifted[0].measured = f64::from_bits(drifted[0].measured.to_bits() + 1);
        let failures = gate(&drifted, Some(&rows()));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("a/ratio: measured"));
        // A drifted bound fails the same way.
        let mut moved = rows();
        moved[1].bound = f64::from_bits(moved[1].bound.to_bits() - 1);
        moved[1].pass = true;
        let failures = gate(&moved, Some(&rows()));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("b/lambda: bound"));
    }

    #[test]
    fn missing_row_fails() {
        let mut fewer = rows();
        fewer.remove(1);
        let failures = gate(&fewer, Some(&rows()));
        assert_eq!(failures, ["b/lambda: baseline claim missing from this run"]);
    }

    #[test]
    fn extra_row_fails() {
        let mut more = rows();
        more.push(Claim::new(
            "d/new".into(),
            "Lemma 4.1",
            3.0,
            Relation::AtMost,
            9.0,
        ));
        let failures = gate(&more, Some(&rows()));
        assert_eq!(failures, ["d/new: claim not in the baseline"]);
    }

    #[test]
    fn reordered_rows_fail() {
        let mut swapped = rows();
        swapped.swap(0, 2);
        let failures = gate(&swapped, Some(&rows()));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("different order"));
    }

    #[test]
    fn bound_violation_fails_with_or_without_baseline() {
        let mut violated = rows();
        violated[1] = Claim::new("b/lambda".into(), "Sec. 5", 0.89, Relation::AtLeast, 0.9);
        assert!(!violated[1].pass);
        let alone = gate(&violated, None);
        assert_eq!(alone.len(), 1, "{alone:?}");
        assert!(alone[0].contains("b/lambda: measured 0.89 is not >= 0.9"));
        // Even a baseline that recorded the violation does not excuse it.
        assert!(gate(&violated, Some(&violated)).contains(&alone[0]));
        // A forged `pass` flag is not trusted either.
        violated[1].pass = true;
        assert_eq!(gate(&violated, None), alone);
    }

    #[test]
    fn duplicate_ids_fail() {
        let mut dup = rows();
        dup[2].id = "a/ratio".into();
        let failures = gate(&dup, None);
        assert_eq!(failures, ["a/ratio: duplicate claim id"]);
    }

    #[test]
    fn relations() {
        assert!(Relation::AtMost.holds(1.0, 1.0) && !Relation::AtMost.holds(1.1, 1.0));
        assert!(Relation::AtLeast.holds(1.0, 1.0) && !Relation::AtLeast.holds(0.9, 1.0));
        assert!(Relation::Above.holds(1.1, 1.0) && !Relation::Above.holds(1.0, 1.0));
        assert!(Relation::Equal.holds(2.0, 2.0) && !Relation::Equal.holds(2.0, 2.5));
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let report = ClaimsReport::new(vec![
            Claim::new(
                "x".into(),
                "Thm 6.3",
                1.0 / 3.0,
                Relation::AtMost,
                88.888_889,
            ),
            Claim::new("y".into(), "Lemma 4.1", 12.0, Relation::AtMost, 21.0),
        ]);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ClaimsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(gate(&back.claims, Some(&report.claims)).is_empty());
        let rendered = report.table().render();
        assert!(rendered.contains("| x "));
        assert!(rendered.contains("0.3333"));
        assert!(rendered.contains("| 12 "));
    }
}
