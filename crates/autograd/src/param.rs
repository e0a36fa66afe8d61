//! Trainable parameter cells shared between modules, graphs, and optimizers.

use std::fmt;
use std::sync::{Arc, RwLock};

use cdcl_tensor::Tensor;

struct ParamInner {
    name: String,
    value: Tensor,
    grad: Tensor,
    trainable: bool,
    lr_scale: f32,
}

/// A named, reference-counted trainable tensor with an accumulated gradient.
///
/// Cloning a `Param` is cheap and aliases the same storage — modules hand
/// clones to optimizers and graphs. Storage is `Arc<RwLock>`, so a model is
/// `Send + Sync` and one published snapshot can serve read-only passes on
/// several daemon connection workers at once. Training steps are
/// sequential; the lock is uncontended there and its overhead is noise next
/// to the GEMMs.
#[derive(Clone)]
pub struct Param {
    inner: Arc<RwLock<ParamInner>>,
}

impl Param {
    /// Creates a trainable parameter with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self {
            inner: Arc::new(RwLock::new(ParamInner {
                name: name.into(),
                value,
                grad,
                trainable: true,
                lr_scale: 1.0,
            })),
        }
    }

    /// Parameter name (for diagnostics).
    pub fn name(&self) -> String {
        self.inner.read().expect("param lock poisoned").name.clone()
    }

    /// Snapshot of the current value.
    pub fn value(&self) -> Tensor {
        self.inner
            .read()
            .expect("param lock poisoned")
            .value
            .clone()
    }

    /// Snapshot of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.inner.read().expect("param lock poisoned").grad.clone()
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> Vec<usize> {
        self.inner
            .read()
            .expect("param lock poisoned")
            .value
            .shape()
            .to_vec()
    }

    /// Number of scalar entries.
    pub fn num_elements(&self) -> usize {
        self.inner.read().expect("param lock poisoned").value.len()
    }

    /// Overwrites the value (e.g. when loading a checkpoint).
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.inner.write().expect("param lock poisoned");
        assert_eq!(
            inner.value.shape(),
            value.shape(),
            "set_value shape mismatch on {}",
            inner.name
        );
        inner.value = value;
    }

    /// Fallible [`Param::set_value`] for checkpoint loaders: a shape
    /// mismatch is reported instead of panicking, so a corrupt snapshot can
    /// be rejected with a typed error.
    pub fn try_set_value(&self, value: Tensor) -> Result<(), String> {
        let mut inner = self.inner.write().expect("param lock poisoned");
        if inner.value.shape() != value.shape() {
            return Err(format!(
                "shape mismatch on {}: have {:?}, snapshot has {:?}",
                inner.name,
                inner.value.shape(),
                value.shape()
            ));
        }
        inner.value = value;
        Ok(())
    }

    /// Per-parameter learning-rate multiplier (default 1). Freshly created
    /// task-specific projections use a boost so they can adapt within a
    /// small per-task epoch budget.
    pub fn lr_scale(&self) -> f32 {
        self.inner.read().expect("param lock poisoned").lr_scale
    }

    /// Sets the per-parameter learning-rate multiplier.
    pub fn set_lr_scale(&self, scale: f32) {
        assert!(scale > 0.0, "lr_scale must be positive");
        self.inner.write().expect("param lock poisoned").lr_scale = scale;
    }

    /// Whether the optimizer and backward pass may touch this parameter.
    pub fn trainable(&self) -> bool {
        self.inner.read().expect("param lock poisoned").trainable
    }

    /// Freezes (`false`) or unfreezes (`true`) the parameter. Frozen
    /// parameters ignore gradient accumulation entirely — this is how the
    /// paper's task-specific `K_i`/`b_i` projections of past tasks are kept
    /// intact (§IV-A: "previously learned K and b are frozen").
    pub fn set_trainable(&self, trainable: bool) {
        self.inner.write().expect("param lock poisoned").trainable = trainable;
    }

    /// Adds `g` into the stored gradient (no-op when frozen).
    pub fn accumulate_grad(&self, g: &Tensor) {
        let mut inner = self.inner.write().expect("param lock poisoned");
        if !inner.trainable {
            return;
        }
        assert_eq!(
            inner.grad.shape(),
            g.shape(),
            "gradient shape mismatch on {}",
            inner.name
        );
        inner.grad.add_assign_scaled(g, 1.0);
    }

    /// Sum of squared entries of the accumulated gradient, computed in
    /// place under the read lock (no tensor clone). Telemetry sums this
    /// across parameters and feeds `sqrt` of the total to the NaN/Inf
    /// watchdog; a non-finite gradient anywhere makes the result
    /// non-finite, so a single scalar check covers the whole model.
    pub fn grad_norm_sq(&self) -> f64 {
        self.inner
            .read()
            .expect("param lock poisoned")
            .grad
            .data()
            .iter()
            .map(|&g| f64::from(g) * f64::from(g))
            .sum()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.inner
            .write()
            .expect("param lock poisoned")
            .grad
            .fill(0.0);
    }

    /// Runs `f(value, grad)` with mutable access to the value — the hook
    /// optimizers use to apply an update in place.
    pub fn apply_update(&self, f: impl FnOnce(&mut Tensor, &Tensor)) {
        let inner = &mut *self.inner.write().expect("param lock poisoned");
        f(&mut inner.value, &inner.grad);
    }

    /// Identity key: two clones of the same parameter compare equal.
    pub fn key(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    /// True when `other` aliases the same storage.
    pub fn same(&self, other: &Param) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read().expect("param lock poisoned");
        write!(
            f,
            "Param({} {:?} trainable={})",
            inner.name,
            inner.value.shape(),
            inner.trainable
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_alias_storage() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        let q = p.clone();
        q.set_value(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        assert_eq!(p.value().data(), &[1.0, 2.0]);
        assert!(p.same(&q));
        assert_eq!(p.key(), q.key());
    }

    #[test]
    fn grad_accumulates_and_zeroes() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        let g = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        p.accumulate_grad(&g);
        p.accumulate_grad(&g);
        assert_eq!(p.grad().data(), &[2.0, -2.0]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_norm_sq_reflects_accumulated_grads() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        assert_eq!(p.grad_norm_sq(), 0.0);
        p.accumulate_grad(&Tensor::from_vec(vec![3.0, 4.0], &[2]));
        assert!((p.grad_norm_sq() - 25.0).abs() < 1e-9);
        // A poisoned gradient makes the norm non-finite (watchdog-visible).
        p.accumulate_grad(&Tensor::from_vec(vec![f32::NAN, 0.0], &[2]));
        assert!(p.grad_norm_sq().is_nan());
    }

    #[test]
    fn frozen_param_ignores_grads() {
        let p = Param::new("k", Tensor::zeros(&[2]));
        p.set_trainable(false);
        p.accumulate_grad(&Tensor::ones(&[2]));
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
        assert!(!p.trainable());
        p.set_trainable(true);
        p.accumulate_grad(&Tensor::ones(&[2]));
        assert_eq!(p.grad().data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_value_rejects_shape_change() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        p.set_value(Tensor::zeros(&[3]));
    }

    #[test]
    fn apply_update_mutates_value() {
        let p = Param::new("w", Tensor::ones(&[2]));
        p.accumulate_grad(&Tensor::from_vec(vec![0.5, 1.0], &[2]));
        p.apply_update(|v, g| v.add_assign_scaled(g, -1.0));
        assert_eq!(p.value().data(), &[0.5, 0.0]);
    }
}
