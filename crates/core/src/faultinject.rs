//! Deterministic fault injection for robustness testing.
//!
//! Every fault source is seeded through `tp-rng`, so the fault-tolerance
//! suites are as hermetic and reproducible as the rest of tier-1: the same
//! `TP_SEED` injects the same NaN at the same step, corrupts the same
//! checkpoint byte, and poisons the same design feature on every machine.
//!
//! Two pieces:
//!
//! - [`FaultPlan`] — a declarative schedule of *training* faults ("poison
//!   the gradients at global step k") consumed by `Trainer::fit_with`;
//!   injection happens only on a step's first attempt, so the rollback +
//!   learning-rate-backoff retry path sees the clean gradients a real
//!   transient fault would leave behind.
//! - [`FaultInjector`] — a seeded source of *data* faults: checkpoint byte
//!   corruption/truncation and design-tensor poisoning, built on
//!   [`tp_rng::prop::mutate_bytes`].

use std::collections::{BTreeMap, BTreeSet};

use tp_data::DesignGraph;
use tp_rng::{Rng, StdRng};

/// A fault injected into one scenario-sweep grid cell.
///
/// These exist so `tp-scenarios`' quarantine/retry/deadline paths are
/// deterministically testable: the same plan fires the same fault at the
/// same cell and attempt on every machine, mirroring
/// [`FaultPlan::nan_grad_at`] for training steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFault {
    /// The cell panics mid-evaluation.
    Panic,
    /// The cell hangs for this many milliseconds (an injected sleep) and
    /// then completes normally — the input the watchdog-deadline path
    /// needs.
    Hang {
        /// Injected stall, milliseconds.
        ms: u64,
    },
    /// The cell completes but its result metrics are poisoned to NaN —
    /// the degraded-result input to the retry/quarantine path.
    NonFinite,
}

/// A fault injected into one inference-service request.
///
/// Indexed by the server's global request counter, so a seeded plan fires
/// on the same request on every machine — the serve-layer analogue of
/// [`CellFault`] for `tp-serve`'s panic-isolation / deadline / corrupt-reply
/// paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFault {
    /// The connection is dropped without a reply (client sees EOF).
    Drop,
    /// The handler stalls past any reasonable deadline and then completes —
    /// the input the per-request deadline path needs.
    Hang {
        /// Injected stall, milliseconds.
        ms: u64,
    },
    /// The reply bytes are corrupted with this many seeded
    /// [`tp_rng::prop::mutate_bytes`] mutations before being sent.
    CorruptReply {
        /// Number of byte-level mutations applied.
        mutations: usize,
    },
    /// The handler is slowed by this many milliseconds but stays within
    /// reason — the input the backpressure/queue-saturation path needs.
    Slow {
        /// Injected delay, milliseconds.
        ms: u64,
    },
}

/// A declarative schedule of training-step and sweep-cell faults.
///
/// Steps are indexed by the trainer's global step counter (which survives
/// checkpoint/resume), and cells by their sweep-grid index (which survives
/// journal/resume), so a plan means the same thing in a resumed run as in
/// an uninterrupted one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    nan_grad_steps: BTreeSet<u64>,
    /// cell index → (fault, number of leading attempts it fires on).
    cell_faults: BTreeMap<u64, (CellFault, u32)>,
    /// request index → fault (requests are not retried server-side, so a
    /// request fault fires exactly once).
    request_faults: BTreeMap<u64, RequestFault>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Injects NaN gradients at each listed global step.
    pub fn nan_grad_at(steps: impl IntoIterator<Item = u64>) -> FaultPlan {
        FaultPlan {
            nan_grad_steps: steps.into_iter().collect(),
            ..FaultPlan::default()
        }
    }

    /// Whether the gradients of global step `step` should be poisoned.
    pub fn injects_nan_grad(&self, step: u64) -> bool {
        self.nan_grad_steps.contains(&step)
    }

    /// Adds `fault` at grid cell `cell`, firing on the first `attempts`
    /// attempts (1 models a transient fault the first retry clears;
    /// [`u32::MAX`] a persistent one that exhausts every retry and forces
    /// quarantine). Chainable to compose multi-cell plans.
    pub fn with_cell_fault(mut self, cell: u64, fault: CellFault, attempts: u32) -> FaultPlan {
        self.cell_faults.insert(cell, (fault, attempts));
        self
    }

    /// Transient panic at each listed cell (first attempt only).
    pub fn panic_at_cell(cells: impl IntoIterator<Item = u64>) -> FaultPlan {
        cells.into_iter().fold(FaultPlan::none(), |p, c| {
            p.with_cell_fault(c, CellFault::Panic, 1)
        })
    }

    /// Transient `ms`-millisecond hang at each listed cell (first attempt
    /// only).
    pub fn hang_at_cell(cells: impl IntoIterator<Item = u64>, ms: u64) -> FaultPlan {
        cells.into_iter().fold(FaultPlan::none(), |p, c| {
            p.with_cell_fault(c, CellFault::Hang { ms }, 1)
        })
    }

    /// Transient non-finite result at each listed cell (first attempt
    /// only).
    pub fn non_finite_at_cell(cells: impl IntoIterator<Item = u64>) -> FaultPlan {
        cells.into_iter().fold(FaultPlan::none(), |p, c| {
            p.with_cell_fault(c, CellFault::NonFinite, 1)
        })
    }

    /// The fault (if any) that fires on attempt `attempt` (1-based) of
    /// grid cell `cell`.
    pub fn cell_fault(&self, cell: u64, attempt: u32) -> Option<CellFault> {
        match self.cell_faults.get(&cell) {
            Some(&(fault, attempts)) if attempt <= attempts => Some(fault),
            _ => None,
        }
    }

    /// Adds `fault` at serve-request index `request` (0-based, counted
    /// across all connections in arrival order). Chainable.
    pub fn with_request_fault(mut self, request: u64, fault: RequestFault) -> FaultPlan {
        self.request_faults.insert(request, fault);
        self
    }

    /// Dropped connection at each listed request.
    pub fn drop_at_request(requests: impl IntoIterator<Item = u64>) -> FaultPlan {
        requests.into_iter().fold(FaultPlan::none(), |p, r| {
            p.with_request_fault(r, RequestFault::Drop)
        })
    }

    /// `ms`-millisecond stall at each listed request.
    pub fn hang_at_request(requests: impl IntoIterator<Item = u64>, ms: u64) -> FaultPlan {
        requests.into_iter().fold(FaultPlan::none(), |p, r| {
            p.with_request_fault(r, RequestFault::Hang { ms })
        })
    }

    /// The fault (if any) injected into request `request`.
    pub fn request_fault(&self, request: u64) -> Option<RequestFault> {
        self.request_faults.get(&request).copied()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.nan_grad_steps.is_empty()
            && self.cell_faults.is_empty()
            && self.request_faults.is_empty()
    }
}

/// A seeded source of data faults (checkpoint bytes, design tensors).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: StdRng,
}

impl FaultInjector {
    /// Builds an injector whose entire fault stream is a function of
    /// `seed`.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Flips one random bit of the byte at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    pub fn corrupt_at(&mut self, bytes: &mut [u8], offset: usize) {
        bytes[offset] ^= 1 << self.rng.gen_range(0u32..8);
    }

    /// Applies `mutations` random byte-level mutations (flip, overwrite,
    /// insert, delete, duplicate, truncate) to `bytes`.
    pub fn corrupt_bytes(&mut self, bytes: &mut Vec<u8>, mutations: usize) {
        tp_rng::prop::mutate_bytes(&mut self.rng, bytes, mutations);
    }

    /// Truncates `bytes` to a random strict prefix and returns the new
    /// length. Models a torn write.
    pub fn truncate(&mut self, bytes: &mut Vec<u8>) -> usize {
        let keep = if bytes.is_empty() {
            0
        } else {
            self.rng.gen_range(0..bytes.len())
        };
        bytes.truncate(keep);
        keep
    }

    /// Poisons one random pin-feature entry of `design` with NaN — the
    /// in-memory corruption `DesignGraph::validate` must catch before the
    /// trainer touches the design. Returns the flattened index poisoned.
    pub fn poison_design(&mut self, design: &mut DesignGraph) -> usize {
        let n = design.pin_features.numel();
        let at = self.rng.gen_range(0..n.max(1));
        if n > 0 {
            design.pin_features.data_mut()[at] = f32::NAN;
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_precise() {
        let plan = FaultPlan::nan_grad_at([3, 7]);
        assert!(plan.injects_nan_grad(3));
        assert!(plan.injects_nan_grad(7));
        assert!(!plan.injects_nan_grad(4));
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn cell_faults_fire_on_leading_attempts_only() {
        let plan = FaultPlan::panic_at_cell([2])
            .with_cell_fault(5, CellFault::NonFinite, 3)
            .with_cell_fault(9, CellFault::Hang { ms: 40 }, u32::MAX);
        assert_eq!(plan.cell_fault(2, 1), Some(CellFault::Panic));
        assert_eq!(plan.cell_fault(2, 2), None); // transient: retry sees clean run
        assert_eq!(plan.cell_fault(5, 3), Some(CellFault::NonFinite));
        assert_eq!(plan.cell_fault(5, 4), None);
        assert_eq!(plan.cell_fault(9, 1000), Some(CellFault::Hang { ms: 40 }));
        assert_eq!(plan.cell_fault(4, 1), None);
        assert!(!plan.is_empty());
    }

    #[test]
    fn cell_fault_constructors_are_transient() {
        for plan in [
            FaultPlan::panic_at_cell([0, 4]),
            FaultPlan::hang_at_cell([0, 4], 10),
            FaultPlan::non_finite_at_cell([0, 4]),
        ] {
            assert!(plan.cell_fault(0, 1).is_some());
            assert!(plan.cell_fault(0, 2).is_none());
            assert!(plan.cell_fault(4, 1).is_some());
            assert!(plan.cell_fault(1, 1).is_none());
        }
        // Training-step and cell faults compose in one plan.
        let both = FaultPlan::nan_grad_at([1]).with_cell_fault(2, CellFault::Panic, 1);
        assert!(both.injects_nan_grad(1));
        assert_eq!(both.cell_fault(2, 1), Some(CellFault::Panic));
    }

    #[test]
    fn request_faults_fire_once_at_their_index() {
        let plan = FaultPlan::drop_at_request([1])
            .with_request_fault(4, RequestFault::CorruptReply { mutations: 6 })
            .with_request_fault(7, RequestFault::Slow { ms: 25 });
        assert_eq!(plan.request_fault(1), Some(RequestFault::Drop));
        assert_eq!(
            plan.request_fault(4),
            Some(RequestFault::CorruptReply { mutations: 6 })
        );
        assert_eq!(plan.request_fault(7), Some(RequestFault::Slow { ms: 25 }));
        assert_eq!(plan.request_fault(0), None);
        assert!(!plan.is_empty());
        // Request faults compose with training and cell faults in one plan.
        let all = FaultPlan::nan_grad_at([2])
            .with_cell_fault(3, CellFault::Panic, 1)
            .with_request_fault(5, RequestFault::Hang { ms: 10 });
        assert!(all.injects_nan_grad(2));
        assert_eq!(all.cell_fault(3, 1), Some(CellFault::Panic));
        assert_eq!(all.request_fault(5), Some(RequestFault::Hang { ms: 10 }));
        assert_eq!(
            FaultPlan::hang_at_request([0], 5).request_fault(0),
            Some(RequestFault::Hang { ms: 5 })
        );
    }

    #[test]
    fn injector_is_deterministic() {
        let run = |seed: u64| {
            let mut inj = FaultInjector::new(seed);
            let mut bytes: Vec<u8> = (0u8..32).collect();
            inj.corrupt_bytes(&mut bytes, 4);
            let mut tail: Vec<u8> = (0u8..32).collect();
            inj.truncate(&mut tail);
            (bytes, tail)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn truncate_always_shortens() {
        let mut inj = FaultInjector::new(0);
        for _ in 0..50 {
            let mut bytes = vec![0u8; 16];
            let keep = inj.truncate(&mut bytes);
            assert!(keep < 16);
            assert_eq!(bytes.len(), keep);
        }
    }
}
