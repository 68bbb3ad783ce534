//! The answer oracle and failure accounting.
//!
//! Expected answers come from an in-process scan-backend [`TrajDb`] over
//! the raw columns — no index, no sockets, no shards — and every answer
//! the system gives is compared with them value for value. A wrong,
//! refused or errored op counts in `failed`.

use traj_query::{
    f1_sets, mean_f1, BackendKind, DbOptions, Query, QueryBatch, QueryExecutor, QueryResult, TrajDb,
};
use trajectory::parallel::par_map;
use trajectory::{Cube, PointStore, Simplification, TrajId};

pub struct Oracle {
    db: TrajDb,
    /// The simplified database `RangeKept` is answered over, if any.
    simp: Option<Simplification>,
}

impl Oracle {
    pub fn new(store: PointStore, simp: Option<Simplification>) -> Oracle {
        Oracle {
            db: TrajDb::from_store(store, DbOptions::new().backend(BackendKind::Scan)),
            simp,
        }
    }

    pub fn answer(&self, q: &Query) -> QueryResult {
        match q {
            Query::RangeKept(cube) => QueryResult::RangeKept(
                self.simp
                    .as_ref()
                    .map(|simp| self.db.range_simplified(simp, cube)),
            ),
            other => self.db.execute_one(other),
        }
    }

    pub fn answers(&self, batch: &QueryBatch) -> Vec<QueryResult> {
        par_map(batch.queries(), |q| self.answer(q))
    }

    /// Exact range answers over the raw data.
    pub fn range(&self, cube: &Cube) -> Vec<TrajId> {
        self.db.range(cube)
    }
}

/// Mean F1 of `got` against `truth`, query by query.
pub fn mean_f1_of(truth: &[Vec<TrajId>], got: &[Vec<TrajId>]) -> f64 {
    let scores: Vec<_> = truth.iter().zip(got).map(|(t, g)| f1_sets(t, g)).collect();
    mean_f1(&scores)
}

/// Attempted and failed ops of a run, with the first failure kept for
/// the report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, ops: u64, why: impl FnOnce() -> String) {
        self.failed += ops;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Counts `ops` attempted ops that all failed (a refused or errored
    /// request fails every op it carried).
    pub fn refused(&mut self, ops: u64, why: impl FnOnce() -> String) {
        self.attempted += ops;
        self.fail(ops, why);
    }

    /// Counts one op, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why);
        }
    }

    /// Compares one request's answers with the expected ones, op by op.
    /// A short or long response fails the ops it leaves unmatched.
    pub fn check_batch(&mut self, got: &[QueryResult], want: &[QueryResult], request: usize) {
        self.attempted += want.len() as u64;
        if got == want {
            return;
        }
        let wrong = (0..want.len())
            .filter(|&i| got.get(i) != Some(&want[i]))
            .count()
            .max(1);
        self.fail(wrong as u64, || {
            let at = (0..want.len()).find(|&i| got.get(i) != Some(&want[i]));
            format!(
                "request {request}: {wrong} of {} answers differ from the oracle (first at {at:?}: got {:?}, want {:?})",
                want.len(),
                at.and_then(|i| got.get(i)),
                at.map(|i| &want[i]),
            )
        });
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{batches, dataset, Mix};
    use traj_simp::{Adaptation, Simplifier, TopDown};
    use trajectory::ErrorMeasure;

    #[test]
    fn oracle_agrees_with_the_indexed_engine_and_catches_corruption() {
        let db = dataset(20, 11);
        let store = db.to_store();
        let simp = TopDown::new(ErrorMeasure::Sed, Adaptation::Each)
            .simplify_store(&store, store.total_points() / 10);
        let oracle = Oracle::new(store.clone(), Some(simp.clone()));
        let batch = &batches(&db, 1, Mix::STATIC, 4)[0];
        let want = oracle.answers(batch);

        // The octree engine over the same data must agree on every kind
        // but RangeKept, which this in-memory engine has no bitmap for.
        let indexed = TrajDb::from_store(store, DbOptions::new());
        let mut got = indexed.execute_batch(batch);
        for (g, q) in got.iter_mut().zip(batch.queries()) {
            if let Query::RangeKept(c) = q {
                *g = QueryResult::RangeKept(Some(indexed.range_simplified(&simp, c)));
            }
        }
        let mut tally = Tally::default();
        tally.check_batch(&got, &want, 0);
        assert_eq!((tally.attempted, tally.failed), (64, 0));

        // Drop one id from one range answer: exactly one op fails.
        let victim = got
            .iter()
            .position(|r| matches!(r, QueryResult::Range(ids) if !ids.is_empty()))
            .expect("a non-empty range answer");
        if let QueryResult::Range(ids) = &mut got[victim] {
            ids.pop();
        }
        tally.check_batch(&got, &want, 1);
        assert_eq!((tally.attempted, tally.failed), (128, 1));
        let why = tally.first_failure.clone().expect("failure recorded");
        assert!(
            why.contains("request 1") && why.contains(&format!("Some({victim})")),
            "{why}"
        );

        // A truncated response fails the ops it does not answer.
        tally.check_batch(&want[..60], &want, 2);
        assert_eq!(tally.failed, 1 + 4);
        tally.refused(64, || "connection reset".to_owned());
        assert_eq!((tally.attempted, tally.failed), (256, 69));
    }

    #[test]
    fn f1_is_one_for_equal_sets_and_drops_for_misses() {
        let truth = vec![vec![1, 2, 3, 4], vec![7]];
        assert_eq!(mean_f1_of(&truth, &truth), 1.0);
        let got = vec![vec![1, 2], vec![7]];
        let f1 = mean_f1_of(&truth, &got);
        // First query: P = 1, R = 0.5 → F1 = 2/3; second: 1.
        assert!((f1 - (2.0 / 3.0 + 1.0) / 2.0).abs() < 1e-12, "{f1}");
    }
}
