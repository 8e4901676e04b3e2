//! The multiprogrammed workloads of Tables 2 and 3, typed.
//!
//! The table itself lives once, in the campaign catalog
//! ([`PAPER_WORKLOADS`]); this module gives it typed classes.

use std::sync::OnceLock;

use hdsmt_campaign::PAPER_WORKLOADS;

/// Workload classification: Tables 2–3 use I = high instruction-level
/// parallelism, M = bad memory behaviour, X = a mix of both.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum WorkloadClass {
    Ilp,
    Mem,
    Mix,
}

impl WorkloadClass {
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::Ilp => "ILP",
            WorkloadClass::Mem => "MEM",
            WorkloadClass::Mix => "MIX",
        }
    }

    /// Inverse of [`Self::label`] (the campaign catalog's class labels).
    pub fn from_label(label: &str) -> Option<Self> {
        [WorkloadClass::Ilp, WorkloadClass::Mem, WorkloadClass::Mix]
            .into_iter()
            .find(|c| c.label() == label)
    }
}

/// One multiprogrammed workload.
#[derive(Clone, Debug, serde::Serialize)]
pub struct Workload {
    pub id: &'static str,
    pub benchmarks: &'static [&'static str],
    pub class: WorkloadClass,
}

impl Workload {
    pub fn threads(&self) -> usize {
        self.benchmarks.len()
    }
}

/// Every workload of Tables 2–3, in table order.
pub fn all_workloads() -> &'static [Workload] {
    static TABLE: OnceLock<Vec<Workload>> = OnceLock::new();
    TABLE.get_or_init(|| {
        PAPER_WORKLOADS
            .iter()
            .map(|&(id, benchmarks, class)| Workload {
                id,
                benchmarks,
                class: WorkloadClass::from_label(class).expect("Tables 2-3 use ILP/MEM/MIX"),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_matches_paper() {
        let count = |class: Option<WorkloadClass>, threads: usize| {
            all_workloads()
                .iter()
                .filter(|w| class.is_none_or(|c| w.class == c) && w.threads() == threads)
                .count()
        };
        assert_eq!(all_workloads().len(), 22);
        assert_eq!(count(None, 2), 9);
        assert_eq!(count(None, 4), 9);
        assert_eq!(count(None, 6), 4);
        // "MEM workloads are only feasible for 2 and 4 threads" (§4).
        assert_eq!(count(Some(WorkloadClass::Mem), 6), 0);
        assert_eq!(count(Some(WorkloadClass::Mem), 2), 3);
        assert_eq!(count(Some(WorkloadClass::Ilp), 6), 2);
        assert_eq!(count(Some(WorkloadClass::Mix), 6), 2);
    }

    #[test]
    fn all_benchmarks_exist() {
        for w in all_workloads() {
            for b in w.benchmarks {
                assert!(hdsmt_trace::by_name(b).is_some(), "{}: unknown benchmark {b}", w.id);
            }
            // No duplicate benchmark within a workload (each thread runs a
            // distinct program).
            let mut names: Vec<_> = w.benchmarks.to_vec();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), w.benchmarks.len(), "{}", w.id);
        }
    }

    #[test]
    fn mem_workloads_use_mem_benchmarks() {
        for w in all_workloads().iter().filter(|w| w.class == WorkloadClass::Mem) {
            for b in w.benchmarks {
                assert_eq!(
                    hdsmt_trace::by_name(b).unwrap().class,
                    hdsmt_trace::BenchClass::Mem,
                    "{}: {b}",
                    w.id
                );
            }
        }
    }
}
