//! The per-stage record an [`AnalysisSession`](crate::AnalysisSession)
//! keeps, which every front end reads instead of timing stages itself.
//! A slot sums a stage's **self time**: its wall time and counters minus
//! those of the stages nested inside it (DESIGN.md §1b). Adding to the
//! fixed-size record never allocates.

/// A pipeline stage the session measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Segmentation, computed or read from the store.
    Segment,
    /// The deduplicated segment store.
    Dedup,
    /// The condensed segment matrix: the field matrix of the
    /// matrix-backed backends, or message typing's segment matrix,
    /// which holds the field matrix as its leading block.
    Matrix,
    /// The k-NN table sweep of the matrix, or the stratified index.
    Neighbors,
    /// ε auto-configuration (Algorithm 1 and its mean fallback).
    Autoconf,
    /// DBSCAN plus the §III-E trimmed rerun.
    Cluster,
    /// §III-F merge and split refinement.
    Refine,
    /// Message type identification: the message matrix, and the
    /// extension of a field matrix by the excluded segments' rows.
    Msgtype,
    /// State machine inference over the message types.
    Fsm,
    /// Interpretation and rendering of the canonical report.
    Report,
}

impl Stage {
    const COUNT: usize = 10;

    /// The stage's name, as every front end prints it.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Segment => "segment",
            Stage::Dedup => "dedup",
            Stage::Matrix => "matrix",
            Stage::Neighbors => "neighbors",
            Stage::Autoconf => "autoconf",
            Stage::Cluster => "cluster",
            Stage::Refine => "refine",
            Stage::Msgtype => "msgtype",
            Stage::Fsm => "fsm",
            Stage::Report => "report",
        }
    }
}

/// One stage's wall time and [neighbor-query counters](crate::AnalysisSession::neighbor_counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Wall time, nanoseconds.
    pub wall_ns: u64,
    /// Kernel evaluations.
    pub kernel_evals: u64,
    /// Candidates a bound pruned.
    pub pruned: u64,
    /// Whole strata a bound skipped.
    pub strata_skipped: u64,
}

impl StageTotals {
    pub(crate) fn zip(self, o: Self, f: fn(u64, u64) -> u64) -> Self {
        Self {
            wall_ns: f(self.wall_ns, o.wall_ns),
            kernel_evals: f(self.kernel_evals, o.kernel_evals),
            pruned: f(self.pruned, o.pruned),
            strata_skipped: f(self.strata_skipped, o.strata_skipped),
        }
    }
}

/// One slot per stage that ran, in the order stages first completed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageRecord {
    order: [Option<Stage>; Stage::COUNT],
    totals: [StageTotals; Stage::COUNT],
}

impl StageRecord {
    /// Adds `totals` to `stage`'s slot, opening the slot after the
    /// existing ones if the stage has not run yet.
    pub fn add(&mut self, stage: Stage, totals: StageTotals) {
        if let Some(free) = self.order.iter().position(|s| s.is_none_or(|s| s == stage)) {
            self.order[free] = Some(stage);
        }
        let slot = &mut self.totals[stage as usize];
        *slot = slot.zip(totals, u64::saturating_add);
    }

    /// Adds every slot of `other`, in `other`'s order.
    pub fn merge(&mut self, other: &StageRecord) {
        for (stage, totals) in other.iter() {
            self.add(stage, totals);
        }
    }

    /// The slots, in the order the stages first completed.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, StageTotals)> + '_ {
        self.order
            .iter()
            .map_while(|s| *s)
            .map(|s| (s, self.totals[s as usize]))
    }

    /// The sum over every slot.
    pub fn total(&self) -> StageTotals {
        self.iter().fold(StageTotals::default(), |acc, (_, t)| {
            acc.zip(t, u64::saturating_add)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(wall_ns: u64, kernel_evals: u64) -> StageTotals {
        StageTotals {
            wall_ns,
            kernel_evals,
            ..StageTotals::default()
        }
    }

    #[test]
    fn slots_keep_first_completion_order_and_sum_per_name() {
        let mut r = StageRecord::default();
        assert_eq!(r.iter().count(), 0);
        r.add(Stage::Dedup, t(5, 0));
        r.add(Stage::Msgtype, t(7, 0));
        r.add(Stage::Cluster, t(1, 3));
        r.add(Stage::Msgtype, t(2, 0));
        let names: Vec<_> = r.iter().map(|(s, _)| s.name()).collect();
        assert_eq!(names, ["dedup", "msgtype", "cluster"]);
        assert_eq!(r.iter().nth(1), Some((Stage::Msgtype, t(9, 0))));
        assert_eq!(r.total(), t(15, 3));
    }

    #[test]
    fn merge_adds_slotwise_and_appends_new_stages() {
        let mut a = StageRecord::default();
        a.add(Stage::Segment, t(1, 0));
        let mut b = StageRecord::default();
        b.add(Stage::Fsm, t(2, 0));
        b.add(Stage::Segment, t(3, 1));
        a.merge(&b);
        let slots: Vec<_> = a.iter().collect();
        assert_eq!(slots, [(Stage::Segment, t(4, 1)), (Stage::Fsm, t(2, 0))]);
    }

    #[test]
    fn every_stage_fits_and_self_time_never_underflows() {
        let all = [
            Stage::Segment,
            Stage::Dedup,
            Stage::Matrix,
            Stage::Neighbors,
            Stage::Autoconf,
            Stage::Cluster,
            Stage::Refine,
            Stage::Msgtype,
            Stage::Fsm,
            Stage::Report,
        ];
        let mut r = StageRecord::default();
        for s in all.iter().rev() {
            r.add(*s, t(1, 0));
        }
        assert_eq!(r.iter().count(), Stage::COUNT);
        assert_eq!(r.iter().next().map(|(s, _)| s), Some(Stage::Report));
        assert_eq!(t(1, 2).zip(t(3, 1), u64::saturating_sub), t(0, 1));
    }
}
