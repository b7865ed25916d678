//! Ensemble scheduling — the paper's closing future-work suggestion
//! ("running multiple algorithms and choosing the best schedule"),
//! generalizing Duplex from {MinMin, MaxMin} to an arbitrary portfolio.
//!
//! A Workflow Management System can use this to cover heterogeneous client
//! workloads: PISA's pairwise matrix identifies a small portfolio whose
//! *combined* worst case is far below any single member's (see the
//! `scheduler_portfolio` example).

use crate::Scheduler;
use saga_core::{Instance, SchedContext, Schedule};

/// Runs every member scheduler and returns the schedule with the smallest
/// makespan (first member wins ties, so member order is a priority).
pub struct Ensemble {
    members: Vec<Box<dyn Scheduler>>,
}

impl Ensemble {
    /// Builds an ensemble over the given members.
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn new(members: Vec<Box<dyn Scheduler>>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Ensemble { members }
    }

    /// The portfolio the `scheduler_portfolio` example typically selects:
    /// HEFT + CPoP + MaxMin (complementary strengths under PISA).
    pub fn default_portfolio() -> Self {
        Ensemble::new(vec![
            Box::new(crate::Heft),
            Box::new(crate::Cpop),
            Box::new(crate::MaxMin),
        ])
    }

    /// Member names, in priority order.
    pub fn member_names(&self) -> Vec<&'static str> {
        self.members.iter().map(|m| m.name()).collect()
    }
}

impl Scheduler for Ensemble {
    fn name(&self) -> &'static str {
        "Ensemble"
    }

    fn schedule_into(&self, inst: &Instance, ctx: &mut SchedContext) -> Schedule {
        let mut best: Option<Schedule> = None;
        for m in &self.members {
            let s = m.schedule_into(inst, ctx);
            let better = match &best {
                None => true,
                Some(b) => s.makespan() < b.makespan(),
            };
            if better {
                best = Some(s);
            }
        }
        best.expect("non-empty ensemble")
    }

    fn makespan_into(&self, inst: &Instance, ctx: &mut SchedContext) -> f64 {
        self.members
            .iter()
            .map(|m| m.makespan_into(inst, ctx))
            .fold(f64::INFINITY, saga_core::earlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures;

    #[test]
    fn never_worse_than_any_member() {
        let e = Ensemble::default_portfolio();
        for inst in fixtures::smoke_instances() {
            let em = e.schedule(&inst).makespan();
            for name in e.member_names() {
                let m = crate::by_name(name).unwrap().schedule(&inst).makespan();
                assert!(em <= m + 1e-9, "ensemble {em} worse than {name} {m}");
            }
        }
    }

    #[test]
    fn schedules_are_valid() {
        let e = Ensemble::default_portfolio();
        for inst in fixtures::smoke_instances() {
            e.schedule(&inst).verify(&inst).unwrap();
        }
    }

    #[test]
    fn singleton_ensemble_equals_member() {
        let e = Ensemble::new(vec![Box::new(crate::Heft)]);
        let inst = fixtures::fig1();
        assert_eq!(
            e.schedule(&inst).makespan(),
            crate::Heft.schedule(&inst).makespan()
        );
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        Ensemble::new(vec![]);
    }

    #[test]
    fn member_names_preserve_order() {
        let e = Ensemble::default_portfolio();
        assert_eq!(e.member_names(), vec!["HEFT", "CPoP", "MaxMin"]);
        assert_eq!(e.name(), "Ensemble");
    }
}
