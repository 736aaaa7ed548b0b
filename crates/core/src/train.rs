//! Multi-design training loop with fault tolerance.
//!
//! Beyond the plain epoch loop, [`Trainer::fit_with`] layers three
//! production protections (DESIGN.md §Fault tolerance):
//!
//! - **checkpoint/resume** — an atomic [`Checkpoint`] after every epoch,
//!   carrying model weights, Adam moments, epoch/step cursors and the RNG
//!   stream; [`Trainer::resume_from_dir`] restores the newest valid one and
//!   the resumed run is bit-identical to an uninterrupted run;
//! - **divergence guards** — a non-finite gradient norm or update never
//!   commits: the step rolls back to the pre-step snapshot, the learning
//!   rate backs off, and the retry is recorded in the [`TrainReport`]. A
//!   non-finite loss would recur on every retry, so it skips the design
//!   for the epoch at once and keeps the learning rate;
//! - **graceful degradation** — designs failing `DesignGraph::validate`
//!   are skipped and reported instead of poisoning the epoch.
//!
//! **Threading model.** Training is per-design SGD: Adam updates every
//! parameter between designs, so the design loop is serial and
//! parallelism sits one layer down, where the dense matmuls behind every
//! forward/backward pass split by output row across `tp-par` workers (see
//! DESIGN.md §8). Loss trajectories and checkpoints are bit-identical at
//! any `TP_THREADS`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tp_data::{r2_score, Dataset, DesignGraph};
use tp_nn::optim::{clip_grad_norm, Adam};
use tp_nn::Module;
use tp_rng::StdRng;
use tp_tensor::Tensor;

use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::faultinject::FaultPlan;
use crate::{combined_loss, AuxMode, LossParts, Prediction, PropPlan, TimingGnn};

/// Global gradient-norm clip (propagation graphs are deep).
const GRAD_CLIP: f32 = 5.0;
/// Final learning rate as a fraction of [`TrainConfig::lr`]: the cosine
/// decay over the epoch budget ends here.
const LR_FLOOR: f32 = 0.1;
/// Rollback + learning-rate-backoff retries per step before the design is
/// skipped for the epoch.
const MAX_RETRIES: u32 = 3;
/// Learning-rate multiplier applied on each rollback.
const LR_BACKOFF: f32 = 0.5;
/// Floor the backoff cannot cross.
const MIN_LR: f32 = 1e-7;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Full passes over the training designs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Auxiliary-task configuration (the Table-5 ablation).
    pub aux: AuxMode,
    /// Print progress every `log_every` epochs (0 = silent).
    pub log_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            lr: 2e-3,
            aux: AuxMode::Full,
            log_every: 0,
        }
    }
}

/// Everything [`Trainer::fit_with`] can be asked to do beyond plain
/// training.
#[derive(Debug, Clone, Default)]
pub struct FitOptions {
    /// Directory a `ckpt-NNNNNN.tpck` checkpoint is written to after every
    /// epoch (created on demand; no checkpoints when `None`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Deterministic fault schedule (tests only; empty in production).
    pub faults: FaultPlan,
}

/// Per-epoch aggregate statistics (averaged over training designs).
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochStats {
    /// Epoch index, 0-based.
    pub epoch: usize,
    /// Mean Eq. (4) loss.
    pub atslew: f32,
    /// Mean Eq. (5) loss.
    pub celld: f32,
    /// Mean Eq. (6) loss.
    pub netd: f32,
    /// Mean combined loss.
    pub total: f32,
    /// Wall-clock seconds for the epoch.
    pub seconds: f64,
    /// Designs skipped this epoch (failed validation or unrecovered
    /// divergence).
    pub skipped: usize,
    /// Rollback + learning-rate-backoff events this epoch.
    pub rollbacks: usize,
}

/// What tripped the divergence guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceCause {
    /// The loss was non-finite at the step's unchanged parameters. The
    /// forward is deterministic, so every retry would see the same loss:
    /// the design is skipped at once and the learning rate is kept.
    NonFiniteLoss,
    /// The gradient norm or an updated parameter was non-finite: rolled
    /// back and retried at a backed-off learning rate.
    NonFiniteUpdate,
}

impl DivergenceCause {
    /// The cause as the run manifest and the tp-obs events spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            DivergenceCause::NonFiniteLoss => "non_finite_loss",
            DivergenceCause::NonFiniteUpdate => "non_finite_update",
        }
    }
}

/// One divergence-guard activation.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceEvent {
    /// Epoch the event occurred in.
    pub epoch: usize,
    /// Global step counter value of the affected step.
    pub step: u64,
    /// Design being trained when the divergence hit.
    pub design: String,
    /// What was non-finite.
    pub cause: DivergenceCause,
    /// Retry attempt number (1-based) this event records.
    pub attempt: u32,
    /// Learning rate before the backoff.
    pub lr_before: f32,
    /// Learning rate after the backoff (equal to `lr_before` when the
    /// design was skipped: a non-finite loss, or an exhausted retry
    /// budget).
    pub lr_after: f32,
    /// Whether a later attempt of this step committed successfully.
    pub recovered: bool,
}

/// Full account of one [`Trainer::fit_with`] run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Per-epoch statistics (same data `fit` returns).
    pub epochs: Vec<EpochStats>,
    /// Names of designs excluded by validation, deduplicated.
    pub invalid_designs: Vec<String>,
    /// Every divergence-guard activation, in order.
    pub divergences: Vec<DivergenceEvent>,
    /// Epoch the run resumed from (0 for a fresh run).
    pub resumed_from_epoch: usize,
    /// Human-readable descriptions of checkpoint writes that failed (the
    /// run continues; losing a checkpoint must not kill training).
    pub checkpoint_failures: Vec<String>,
    /// Wall-clock seconds of the whole `fit_with` call.
    pub total_seconds: f64,
}

impl TrainReport {
    /// Builds a [`tp_obs::manifest::RunReport`] run manifest from this
    /// report plus the observability data gathered during the run (pass
    /// the result of [`tp_obs::drain`], which also holds the events for
    /// the trace exporters).
    ///
    /// The manifest carries the seed, config echo, per-phase wall time
    /// (aggregated from the `epoch` spans), metric summaries and extra
    /// sections for epochs, divergences, invalid designs and checkpoint
    /// failures.
    pub fn run_report(
        &self,
        seed: u64,
        config: &TrainConfig,
        data: &tp_obs::ObsData,
    ) -> tp_obs::manifest::RunReport {
        use tp_obs::json::{escape, fmt_f64};
        let total_ns = (self.total_seconds * 1e9) as u64;
        let mut report = tp_obs::manifest::RunReport::from_obs("train", seed, total_ns, data);
        report
            .config("epochs", config.epochs)
            .config("lr", config.lr)
            .config("aux", format!("{:?}", config.aux))
            .config("threads", tp_par::threads())
            .config("partition_nodes", tp_partition::partition_nodes());
        let epochs: Vec<String> = self
            .epochs
            .iter()
            .map(|e| {
                format!(
                    "{{\"epoch\": {}, \"total\": {}, \"atslew\": {}, \"celld\": {}, \
                     \"netd\": {}, \"seconds\": {}, \"skipped\": {}, \"rollbacks\": {}}}",
                    e.epoch,
                    fmt_f64(e.total as f64),
                    fmt_f64(e.atslew as f64),
                    fmt_f64(e.celld as f64),
                    fmt_f64(e.netd as f64),
                    fmt_f64(e.seconds),
                    e.skipped,
                    e.rollbacks,
                )
            })
            .collect();
        report.section("epochs", format!("[{}]", epochs.join(", ")));
        let divergences: Vec<String> = self
            .divergences
            .iter()
            .map(|d| {
                format!(
                    "{{\"epoch\": {}, \"step\": {}, \"design\": {}, \"cause\": \"{}\", \
                     \"attempt\": {}, \"lr_before\": {}, \"lr_after\": {}, \"recovered\": {}}}",
                    d.epoch,
                    d.step,
                    escape(&d.design),
                    d.cause.as_str(),
                    d.attempt,
                    fmt_f64(d.lr_before as f64),
                    fmt_f64(d.lr_after as f64),
                    d.recovered,
                )
            })
            .collect();
        report.section("divergences", format!("[{}]", divergences.join(", ")));
        let invalid: Vec<String> = self.invalid_designs.iter().map(|n| escape(n)).collect();
        report.section("invalid_designs", format!("[{}]", invalid.join(", ")));
        let failures: Vec<String> = self.checkpoint_failures.iter().map(|f| escape(f)).collect();
        report.section("checkpoint_failures", format!("[{}]", failures.join(", ")));
        report.section("resumed_from_epoch", format!("{}", self.resumed_from_epoch));
        report
    }
}

/// Evaluation over a dataset split with per-design skip reporting.
#[derive(Debug, Clone, Default)]
pub struct EvalReport {
    /// `(design name, arrival R²)` for every design that validated.
    pub scores: Vec<(String, f64)>,
    /// Designs skipped because validation failed.
    pub skipped: Vec<String>,
}

impl EvalReport {
    /// Mean R² over the scored designs (NaN when everything was skipped).
    pub fn mean_r2(&self) -> f64 {
        let n = self.scores.len();
        if n == 0 {
            return f64::NAN;
        }
        self.scores.iter().map(|(_, r)| r).sum::<f64>() / n as f64
    }
}

/// Outcome of one guarded optimization step.
struct StepOutcome {
    /// Loss decomposition of the committed attempt; `None` when the design
    /// was skipped and nothing was committed.
    parts: Option<LossParts>,
    /// Number of rollback + backoff events the step consumed.
    rollbacks: u32,
}

/// Trains a [`TimingGnn`] on a dataset's training split and evaluates it.
pub struct Trainer {
    model: TimingGnn,
    config: TrainConfig,
    optimizer: Adam,
    params: Vec<Tensor>,
    plans: HashMap<String, Arc<PropPlan>>,
    rng: StdRng,
    step_count: u64,
    start_epoch: usize,
}

impl Trainer {
    /// Wraps a model with an optimizer. The trainer's RNG stream is seeded
    /// from `TP_SEED` (falling back to the model seed), and is carried
    /// through checkpoints so resumed runs continue it exactly.
    pub fn new(model: TimingGnn, config: TrainConfig) -> Trainer {
        let params = model.parameters();
        let optimizer = Adam::new(params.clone(), config.lr);
        let rng = StdRng::from_env(model.config().seed);
        Trainer {
            model,
            config,
            optimizer,
            params,
            plans: HashMap::new(),
            rng,
            step_count: 0,
            start_epoch: 0,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &TimingGnn {
        &self.model
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Global step counter (successful or not, each design-step consumes
    /// one index; survives checkpoint/resume).
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// The epoch `fit_with` will start from (non-zero after a resume).
    pub fn start_epoch(&self) -> usize {
        self.start_epoch
    }

    fn plan_for(&mut self, design: &DesignGraph) -> Arc<PropPlan> {
        self.plans
            .entry(design.name.clone())
            .or_insert_with(|| Arc::new(PropPlan::build(design)))
            .clone()
    }

    /// Runs one *unguarded* optimization step on a single design and
    /// returns the loss decomposition. Prefer [`Trainer::fit_with`], which
    /// wraps steps in the divergence guard.
    pub fn step(&mut self, design: &DesignGraph) -> LossParts {
        let plan = self.plan_for(design);
        let parts = self.design_grads(design, &plan);
        clip_grad_norm(&self.params, GRAD_CLIP);
        self.optimizer.step();
        parts
    }

    /// Clones all parameter data (the rollback snapshot).
    fn snapshot_params(&self) -> Vec<Vec<f32>> {
        self.params.iter().map(|p| p.to_vec()).collect()
    }

    fn restore_params(&mut self, snapshot: &[Vec<f32>]) {
        for (p, s) in self.params.iter().zip(snapshot) {
            p.data_mut().copy_from_slice(s);
        }
    }

    fn params_finite(&self) -> bool {
        self.params
            .iter()
            .all(|p| p.data().iter().all(|v| v.is_finite()))
    }

    /// Per-design SGD gradients: one forward/backward on `design`, leaving
    /// the gradients in the parameters' own slots.
    fn design_grads(&self, design: &DesignGraph, plan: &PropPlan) -> LossParts {
        let pred = self.model.forward(design, plan);
        let (loss, parts) = combined_loss(design, plan, &pred, self.config.aux);
        self.optimizer.zero_grad();
        loss.backward();
        parts
    }

    /// One guarded step on `design`: a non-finite loss, gradient norm or
    /// post-update parameter never survives. A non-finite gradient norm or
    /// update is rolled back (or never committed), the learning rate backs
    /// off by [`LR_BACKOFF`], and the step retries up to [`MAX_RETRIES`]
    /// times. A non-finite loss skips the design at once: the parameters
    /// are unchanged, so a retry would see the same loss.
    fn guarded_step(
        &mut self,
        design: &DesignGraph,
        plan: &PropPlan,
        epoch: usize,
        faults: &FaultPlan,
        events: &mut Vec<DivergenceEvent>,
    ) -> StepOutcome {
        let step_id = self.step_count;
        self.step_count += 1;
        let first_event = events.len();
        let mut rollbacks = 0u32;
        loop {
            let parts = self.design_grads(design, plan);
            // Transient faults hit a step once; the post-rollback retry
            // recomputes clean gradients, as after a real bit flip.
            if rollbacks == 0 && faults.injects_nan_grad(step_id) {
                let p0 = &self.params[0];
                p0.replace_grad(vec![f32::NAN; p0.numel()]);
            }
            let norm = clip_grad_norm(&self.params, GRAD_CLIP);
            let cause = if !parts.total.is_finite() {
                DivergenceCause::NonFiniteLoss
            } else {
                if norm.is_finite() {
                    let snapshot = self.snapshot_params();
                    let opt_state = self.optimizer.export_state();
                    self.optimizer.step();
                    if self.params_finite() {
                        for e in &mut events[first_event..] {
                            e.recovered = true;
                        }
                        return StepOutcome {
                            parts: Some(parts),
                            rollbacks,
                        };
                    }
                    // The update itself overflowed: roll back to the last
                    // good parameter snapshot before backing off.
                    self.restore_params(&snapshot);
                    self.optimizer
                        .import_state(opt_state)
                        .expect("own snapshot always fits");
                }
                DivergenceCause::NonFiniteUpdate
            };
            self.optimizer.zero_grad();
            let lr_before = self.optimizer.lr();
            let retry = cause != DivergenceCause::NonFiniteLoss && rollbacks < MAX_RETRIES;
            let lr_after = if retry {
                (lr_before * LR_BACKOFF).max(MIN_LR)
            } else {
                lr_before
            };
            let name = match cause {
                DivergenceCause::NonFiniteLoss => "train.nonfinite_loss",
                DivergenceCause::NonFiniteUpdate => "train.divergence",
            };
            tp_obs::event!(
                name,
                epoch = epoch,
                step = step_id,
                design = design.name.as_str(),
                cause = cause.as_str(),
                attempt = rollbacks + 1,
                lr_before = lr_before,
                lr_after = lr_after,
                skipped = !retry,
            );
            events.push(DivergenceEvent {
                epoch,
                step: step_id,
                design: design.name.clone(),
                cause,
                attempt: rollbacks + 1,
                lr_before,
                lr_after,
                recovered: false,
            });
            if !retry {
                return StepOutcome {
                    parts: None,
                    rollbacks,
                };
            }
            rollbacks += 1;
            self.optimizer.set_lr(lr_after);
            tp_obs::metrics::count("train.rollbacks", 1);
        }
    }

    /// Trains for the configured number of epochs over the dataset's
    /// training split; returns per-epoch statistics.
    ///
    /// Equivalent to [`fit_with`](Self::fit_with) under default options
    /// (guards on, no checkpointing, no faults).
    pub fn fit(&mut self, dataset: &Dataset) -> Vec<EpochStats> {
        self.fit_with(dataset, &FitOptions::default()).epochs
    }

    /// Fault-tolerant training: validates designs up front, guards every
    /// step against divergence, and (optionally) checkpoints after every
    /// epoch.
    pub fn fit_with(&mut self, dataset: &Dataset, options: &FitOptions) -> TrainReport {
        let fit_t0 = Instant::now();
        let mut report = TrainReport {
            resumed_from_epoch: self.start_epoch,
            ..TrainReport::default()
        };
        // Validate once per fit: a bad design is excluded from every epoch
        // and reported, never trained on.
        let mut train: Vec<&DesignGraph> = Vec::new();
        {
            let _validate_span = tp_obs::span!("validate", designs = dataset.train().count());
            for design in dataset.train() {
                match design.validate() {
                    Ok(()) => train.push(design),
                    Err(e) => {
                        report.invalid_designs.push(design.name.clone());
                        tp_obs::event!(
                            "train.degraded_design",
                            design = design.name.as_str(),
                            error = format!("{e}"),
                        );
                        if self.config.log_every > 0 {
                            tp_obs::stderr_line(&format!("skipping design '{}': {e}", design.name));
                        }
                    }
                }
            }
        }

        let base_lr = self.config.lr;
        let first_epoch = self.start_epoch.min(self.config.epochs);
        for epoch in first_epoch..self.config.epochs {
            let _epoch_span = tp_obs::span!("epoch", epoch = epoch);
            // Cosine learning-rate decay toward `LR_FLOOR · lr`.
            if self.config.epochs > 1 {
                let t = epoch as f32 / (self.config.epochs - 1) as f32;
                let cos = 0.5 * (1.0 + (std::f32::consts::PI * t).cos());
                self.optimizer
                    .set_lr(base_lr * (LR_FLOOR + (1.0 - LR_FLOOR) * cos));
            }
            let t0 = Instant::now();
            let mut agg = EpochStats {
                epoch,
                skipped: report.invalid_designs.len(),
                ..EpochStats::default()
            };
            let mut count = 0;
            for &design in &train {
                let _design_span = tp_obs::span!("design", design = design.name.as_str());
                let plan = self.plan_for(design);
                let events = &mut report.divergences;
                let outcome = self.guarded_step(design, &plan, epoch, &options.faults, events);
                tp_obs::metrics::count("train.steps", 1);
                agg.rollbacks += outcome.rollbacks as usize;
                match outcome.parts {
                    Some(p) => {
                        agg.atslew += p.atslew;
                        agg.celld += p.celld;
                        agg.netd += p.netd;
                        agg.total += p.total;
                        count += 1;
                    }
                    None => agg.skipped += 1,
                }
            }
            let k = count.max(1) as f32;
            agg.atslew /= k;
            agg.celld /= k;
            agg.netd /= k;
            agg.total /= k;
            agg.seconds = t0.elapsed().as_secs_f64();
            tp_obs::metrics::gauge_set("train.last_loss", agg.total as f64);
            tp_obs::metrics::observe("train.epoch_ns", (agg.seconds * 1e9) as u64);
            if self.config.log_every > 0 && epoch % self.config.log_every == 0 {
                tp_obs::stderr_line(&format!(
                    "epoch {:>3}: total {:.5} (atslew {:.5} celld {:.5} netd {:.5}) [{:.1}s]",
                    epoch, agg.total, agg.atslew, agg.celld, agg.netd, agg.seconds
                ));
            }
            report.epochs.push(agg);

            if let Some(dir) = &options.checkpoint_dir {
                let done = epoch + 1;
                let _ckpt_span = tp_obs::span!("checkpoint", epoch = done);
                if let Err(e) = self.write_checkpoint(dir, done as u64) {
                    tp_obs::event!(
                        "train.checkpoint_failure",
                        epoch = done,
                        error = format!("{e}"),
                    );
                    report
                        .checkpoint_failures
                        .push(format!("epoch {done}: {e}"));
                }
            }
        }
        // A later fit on the same trainer starts fresh unless another
        // resume repositions it.
        self.start_epoch = 0;
        report.total_seconds = fit_t0.elapsed().as_secs_f64();
        report
    }

    fn write_checkpoint(&self, dir: &Path, epoch: u64) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(dir)?;
        self.checkpoint(epoch)
            .write_atomic(&checkpoint::checkpoint_path(dir, epoch))
    }

    /// Snapshots the complete trainer state as a [`Checkpoint`] claiming
    /// `epochs_done` finished epochs.
    pub fn checkpoint(&self, epochs_done: u64) -> Checkpoint {
        let mut model = Vec::new();
        tp_nn::save_parameters(&self.params, &mut model)
            .expect("writing weights to a Vec cannot fail");
        Checkpoint {
            epoch: epochs_done,
            step: self.step_count,
            lr: self.optimizer.lr(),
            rng_state: self.rng.state(),
            model,
            optimizer: self.optimizer.export_state(),
        }
    }

    /// Restores the trainer from a decoded checkpoint: model weights,
    /// optimizer moments, learning rate, RNG stream and epoch/step
    /// cursors. Nothing is committed if the checkpoint does not fit this
    /// trainer's architecture.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Model`] / [`CheckpointError::Optimizer`] on
    /// architecture mismatch.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        // Validate the optimizer state *before* load_parameters commits
        // the weights, so a mismatched checkpoint leaves the trainer
        // whole rather than half-restored.
        if ck.optimizer.m.len() != self.params.len() || ck.optimizer.v.len() != self.params.len() {
            return Err(CheckpointError::Optimizer(
                tp_nn::optim::OptimStateMismatch {
                    stored: ck.optimizer.m.len().min(ck.optimizer.v.len()),
                    expected: self.params.len(),
                },
            ));
        }
        for (i, p) in self.params.iter().enumerate() {
            if ck.optimizer.m[i].len() != p.numel() || ck.optimizer.v[i].len() != p.numel() {
                return Err(CheckpointError::Optimizer(
                    tp_nn::optim::OptimStateMismatch {
                        stored: ck.optimizer.m[i].len().min(ck.optimizer.v[i].len()),
                        expected: p.numel(),
                    },
                ));
            }
        }
        tp_nn::load_parameters(&self.params, ck.model.as_slice())
            .map_err(CheckpointError::Model)?;
        self.optimizer
            .import_state(ck.optimizer.clone())
            .map_err(CheckpointError::Optimizer)?;
        self.optimizer.set_lr(ck.lr);
        self.rng = StdRng::from_state(ck.rng_state);
        self.start_epoch = ck.epoch as usize;
        self.step_count = ck.step;
        Ok(())
    }

    /// Restores from the newest valid checkpoint in `dir`, skipping
    /// truncated or corrupted files. Returns the epoch training will
    /// continue from, or `None` when no valid checkpoint exists (fresh
    /// start).
    ///
    /// # Errors
    ///
    /// Architecture mismatches from [`Trainer::restore`]; unreadable or
    /// corrupt files are silently skipped, not errors.
    pub fn resume_from_dir(&mut self, dir: &Path) -> Result<Option<usize>, CheckpointError> {
        match checkpoint::latest_valid(dir) {
            Some((_, ck)) => {
                self.restore(&ck)?;
                Ok(Some(self.start_epoch))
            }
            None => Ok(None),
        }
    }

    /// Forward pass without optimization (prediction). Runs inside
    /// [`tp_tensor::no_grad`]: no caller of `predict` consumes gradients,
    /// so it records no autograd tape.
    pub fn predict(&mut self, design: &DesignGraph) -> Prediction {
        let plan = self.plan_for(design);
        tp_tensor::no_grad(|| self.model.forward(design, &plan))
    }

    /// [`Trainer::predict`] returning inference wall-clock seconds, for the
    /// Table-5 runtime comparison.
    pub fn timed_predict(&mut self, design: &DesignGraph) -> (Prediction, f64) {
        let plan = self.plan_for(design);
        let t0 = Instant::now();
        let pred = tp_tensor::no_grad(|| self.model.forward(design, &plan));
        (pred, t0.elapsed().as_secs_f64())
    }

    /// R² of endpoint arrival-time prediction on one design (the Table-5
    /// score).
    pub fn evaluate_arrival_r2(&mut self, design: &DesignGraph) -> f64 {
        let pred = self.predict(design);
        r2_score(
            &design.endpoint_arrival_flat(),
            &pred.endpoint_arrival_flat(design),
        )
    }

    /// Arrival R² over a whole split (test designs), skipping — and
    /// reporting — designs that fail validation instead of panicking on
    /// one malformed netlist mid-batch.
    pub fn evaluate_arrival_r2_suite(&mut self, dataset: &Dataset) -> EvalReport {
        let mut report = EvalReport::default();
        let designs: Vec<DesignGraph> = dataset.test().cloned().collect();
        for design in &designs {
            match design.validate() {
                Ok(()) => {
                    let r2 = self.evaluate_arrival_r2(design);
                    report.scores.push((design.name.clone(), r2));
                }
                Err(_) => report.skipped.push(design.name.clone()),
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultinject::FaultInjector;
    use crate::ModelConfig;
    use tp_data::{Dataset, DatasetConfig};
    use tp_gen::GeneratorConfig;
    use tp_liberty::Library;

    fn tiny_dataset() -> Dataset {
        let lib = Library::synthetic_sky130(0);
        Dataset::build_suite(
            &lib,
            &DatasetConfig {
                generator: GeneratorConfig {
                    scale: 0.001,
                    seed: 4,
                    depth: Some(6),
                },
                ..Default::default()
            },
        )
    }

    fn tiny_trainer(aux: AuxMode) -> Trainer {
        let model = TimingGnn::new(&ModelConfig {
            embed_dim: 4,
            prop_dim: 6,
            hidden: vec![8],
            seed: 2,
            ablation: Default::default(),
        });
        Trainer::new(
            model,
            TrainConfig {
                epochs: 8,
                lr: 3e-3,
                aux,
                ..Default::default()
            },
        )
    }

    #[test]
    fn fit_reduces_loss() {
        let ds = tiny_dataset();
        let mut t = tiny_trainer(AuxMode::Full);
        let history = t.fit(&ds);
        assert_eq!(history.len(), 8);
        let first = history.first().unwrap().total;
        let last = history.last().unwrap().total;
        assert!(last < first, "training loss should drop: {first} -> {last}");
    }

    #[test]
    fn evaluation_improves_with_training() {
        let ds = tiny_dataset();
        let design = ds.designs().first().unwrap();
        let mut t = tiny_trainer(AuxMode::Full);
        let before = t.evaluate_arrival_r2(design);
        t.fit(&ds);
        let after = t.evaluate_arrival_r2(design);
        assert!(after > before, "R2 should improve: {before} -> {after}");
    }

    #[test]
    fn timed_predict_reports_positive_time() {
        let ds = tiny_dataset();
        let mut t = tiny_trainer(AuxMode::None);
        let (_, secs) = t.timed_predict(ds.designs().first().unwrap());
        assert!(secs > 0.0);
    }

    #[test]
    fn predict_records_no_tape_and_matches_a_taped_forward() {
        let ds = tiny_dataset();
        let design = ds.designs().first().unwrap();
        let mut t = tiny_trainer(AuxMode::None);
        assert!(tp_tensor::grad_enabled(), "the check needs the tape on");
        let pred = t.predict(design);
        let taped = t.model().forward(design, &PropPlan::build(design));
        assert!(taped.arrival.requires_grad(), "reference has a tape");
        let bits = |x: &Tensor| -> Vec<u32> { x.to_vec().iter().map(|v| v.to_bits()).collect() };
        for (got, want) in [
            (&pred.arrival, &taped.arrival),
            (&pred.slew, &taped.slew),
            (&pred.net_delay, &taped.net_delay),
            (&pred.cell_delay, &taped.cell_delay),
        ] {
            assert!(!got.requires_grad(), "predict recorded a tape");
            assert_eq!(bits(got), bits(want), "predict drifted from forward");
        }
    }

    #[test]
    fn injected_nan_rolls_back_and_recovers() {
        let ds = tiny_dataset();
        let mut t = tiny_trainer(AuxMode::Full);
        let options = FitOptions {
            faults: FaultPlan::nan_grad_at([1]),
            ..FitOptions::default()
        };
        let report = t.fit_with(&ds, &options);
        assert_eq!(report.epochs.len(), 8);
        // Exactly one step diverged; it rolled back once and recovered.
        assert!(!report.divergences.is_empty());
        assert!(report.divergences.iter().all(|d| d.recovered));
        assert_eq!(report.epochs[0].rollbacks, 1);
        assert_eq!(report.epochs[0].skipped, 0);
        assert!(t.params_finite(), "no NaN may survive the guard");
        let first = report.epochs.first().unwrap().total;
        let last = report.epochs.last().unwrap().total;
        assert!(last < first, "training still converges: {first} -> {last}");
    }

    #[test]
    fn non_finite_loss_skips_the_design_once_at_an_unchanged_rate() {
        let ds = tiny_dataset();
        let mut designs = ds.designs().to_vec();
        let victim = designs
            .iter()
            .position(|d| d.is_train)
            .expect("suite has a training design");
        let name = designs[victim].name.clone();
        // Still finite, so validation passes, but the untrained forward
        // overflows.
        let features = designs[victim].pin_features.to_vec();
        designs[victim].pin_features = Tensor::from_vec(
            features.iter().map(|v| v * 1e30).collect(),
            designs[victim].pin_features.shape(),
        )
        .unwrap();
        let ds = Dataset::from_designs(designs);
        let mut t = tiny_trainer(AuxMode::Full);
        let report = t.fit_with(&ds, &FitOptions::default());
        assert!(report.invalid_designs.is_empty());
        assert_eq!(
            report.divergences.len(),
            report.epochs.len(),
            "one event per epoch"
        );
        for (e, d) in report.epochs.iter().zip(&report.divergences) {
            assert_eq!((d.epoch, d.design.as_str()), (e.epoch, name.as_str()));
            assert_eq!(d.cause, DivergenceCause::NonFiniteLoss);
            assert_eq!(d.attempt, 1);
            assert_eq!(d.lr_after, d.lr_before, "the learning rate is kept");
            assert!(!d.recovered);
            assert_eq!(e.rollbacks, 0);
            assert_eq!(e.skipped, 1);
            assert!(e.total.is_finite());
        }
        assert!(t.params_finite());
    }

    #[test]
    fn poisoned_design_is_skipped_and_reported() {
        let ds = tiny_dataset();
        let mut designs = ds.designs().to_vec();
        let victim = designs
            .iter()
            .position(|d| d.is_train)
            .expect("suite has a training design");
        let name = designs[victim].name.clone();
        FaultInjector::new(7).poison_design(&mut designs[victim]);
        let ds = Dataset::from_designs(designs);
        let mut t = tiny_trainer(AuxMode::Full);
        let report = t.fit_with(&ds, &FitOptions::default());
        assert_eq!(report.invalid_designs, vec![name]);
        assert!(report.epochs.iter().all(|e| e.skipped == 1));
        assert!(t.params_finite());
        let first = report.epochs.first().unwrap().total;
        let last = report.epochs.last().unwrap().total;
        assert!(last < first, "remaining designs still train");
    }

    #[test]
    fn evaluate_suite_skips_invalid_designs() {
        let ds = tiny_dataset();
        let mut designs = ds.designs().to_vec();
        let victim = designs
            .iter()
            .position(|d| !d.is_train)
            .expect("suite has a test design");
        let name = designs[victim].name.clone();
        FaultInjector::new(8).poison_design(&mut designs[victim]);
        let total_test = designs.iter().filter(|d| !d.is_train).count();
        let ds = Dataset::from_designs(designs);
        let mut t = tiny_trainer(AuxMode::None);
        let report = t.evaluate_arrival_r2_suite(&ds);
        assert_eq!(report.skipped, vec![name]);
        assert_eq!(report.scores.len(), total_test - 1);
        assert!(report.mean_r2().is_finite());
    }

    #[test]
    fn checkpoint_roundtrip_restores_trainer() {
        let ds = tiny_dataset();
        let mut a = tiny_trainer(AuxMode::Full);
        a.fit(&ds);
        let ck = a.checkpoint(8);
        let mut b = tiny_trainer(AuxMode::Full);
        b.restore(&ck).unwrap();
        assert_eq!(b.step_count(), a.step_count());
        assert_eq!(b.start_epoch(), 8);
        let design = ds.designs().first().unwrap();
        let pa = a.predict(design);
        let pb = b.predict(design);
        assert_eq!(pa.arrival.to_vec(), pb.arrival.to_vec());
    }

    #[test]
    fn restore_rejects_architecture_mismatch() {
        let ds = tiny_dataset();
        let mut a = tiny_trainer(AuxMode::Full);
        a.fit(&ds);
        let ck = a.checkpoint(8);
        let other = TimingGnn::new(&ModelConfig {
            embed_dim: 6,
            prop_dim: 6,
            hidden: vec![8],
            seed: 2,
            ablation: Default::default(),
        });
        let mut b = Trainer::new(other, *a.config());
        let before: Vec<Vec<f32>> = b.params.iter().map(|p| p.to_vec()).collect();
        assert!(b.restore(&ck).is_err());
        let after: Vec<Vec<f32>> = b.params.iter().map(|p| p.to_vec()).collect();
        assert_eq!(before, after, "failed restore must not half-write");
    }
}
