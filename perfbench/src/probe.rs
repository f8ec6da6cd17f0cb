//! Measurement wrappers placed around the calls the benchmark makes into
//! the simulator, so layer times are taken from outside the program.
//!
//! * [`TimedModel`] decorates a FAS executor instance (`fas.*`);
//! * [`TimedDevice`] decorates the behavioural bridge device (`sim.bridge_*`);
//! * [`ProbeDevice`] is a device that stamps nothing and only counts the
//!   Newton sweeps and accepted points of a rig circuit it is added to.
//!
//! All of them forward every call unchanged, so a traced run solves exactly
//! the same systems as an untraced one.

use gabm_charac::Dut;
use gabm_sim::circuit::{Circuit, NodeId};
use gabm_sim::device::{AcStamper, Device, Stamper, StateView};
use gabm_sim::devices::behavioral::BehavioralDevice;
use gabm_sim::devices::{BehavioralModel, EvalCtx};
use gabm_sim::SimError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters shared between a wrapper (owned by a circuit) and the job that
/// reads them afterwards. Statistics only, hence `Relaxed`; readers look
/// after the circuit's solve has returned (same thread or a joined one).
#[derive(Debug, Default)]
pub struct Counters {
    pub stamp_ns: AtomicU64,
    pub stamp_calls: AtomicU64,
    pub accept_calls: AtomicU64,
    pub eval_ns: AtomicU64,
    pub eval_calls: AtomicU64,
    pub fd_eval_calls: AtomicU64,
}

impl Counters {
    pub fn get(field: &AtomicU64) -> u64 {
        field.load(Ordering::Relaxed)
    }
}

fn bump(field: &AtomicU64, by: u64) {
    field.fetch_add(by, Ordering::Relaxed);
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Times and counts the evaluations of a FAS executor instance.
#[derive(Debug)]
pub struct TimedModel {
    inner: Box<dyn BehavioralModel>,
    counters: Arc<Counters>,
}

impl TimedModel {
    pub fn new(inner: Box<dyn BehavioralModel>, counters: Arc<Counters>) -> Self {
        TimedModel { inner, counters }
    }
}

impl BehavioralModel for TimedModel {
    fn pin_count(&self) -> usize {
        self.inner.pin_count()
    }

    fn eval(&mut self, ctx: &EvalCtx, pin_voltages: &[f64], currents: &mut [f64]) {
        let t0 = Instant::now();
        self.inner.eval(ctx, pin_voltages, currents);
        bump(&self.counters.eval_ns, elapsed_ns(t0));
        bump(&self.counters.eval_calls, 1);
        bump(&self.counters.fd_eval_calls, 1);
    }

    fn eval_with_jacobian(
        &mut self,
        ctx: &EvalCtx,
        pin_voltages: &[f64],
        currents: &mut [f64],
        jacobian: &mut [f64],
    ) -> bool {
        let t0 = Instant::now();
        let analytic = self
            .inner
            .eval_with_jacobian(ctx, pin_voltages, currents, jacobian);
        bump(&self.counters.eval_ns, elapsed_ns(t0));
        bump(&self.counters.eval_calls, 1);
        analytic
    }

    fn accept(&mut self, ctx: &EvalCtx, pin_voltages: &[f64]) {
        self.inner.accept(ctx, pin_voltages);
    }

    fn begin_solve(&mut self) {
        self.inner.begin_solve();
    }
}

/// Times and counts the stamps of the behavioural bridge device.
#[derive(Debug)]
pub struct TimedDevice {
    inner: BehavioralDevice,
    counters: Arc<Counters>,
}

impl TimedDevice {
    pub fn new(inner: BehavioralDevice, counters: Arc<Counters>) -> Self {
        TimedDevice { inner, counters }
    }
}

impl Device for TimedDevice {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_branches(&self) -> usize {
        self.inner.num_branches()
    }

    fn set_branch_base(&mut self, base: usize) {
        self.inner.set_branch_base(base);
    }

    fn is_nonlinear(&self) -> bool {
        self.inner.is_nonlinear()
    }

    fn begin_solve(&mut self) {
        self.inner.begin_solve();
    }

    fn stamp(&mut self, s: &mut Stamper) {
        let t0 = Instant::now();
        self.inner.stamp(s);
        bump(&self.counters.stamp_ns, elapsed_ns(t0));
        bump(&self.counters.stamp_calls, 1);
    }

    fn stamp_ac(&mut self, s: &mut AcStamper) {
        self.inner.stamp_ac(s);
    }

    fn accept_step(&mut self, state: &StateView<'_>) {
        self.inner.accept_step(state);
    }

    fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        self.inner.breakpoints(tstop)
    }

    fn branch_index(&self) -> Option<usize> {
        self.inner.branch_index()
    }

    fn set_dc_value(&mut self, value: f64) -> bool {
        self.inner.set_dc_value(value)
    }
}

/// A device with no electrical effect that counts Newton sweeps (one
/// `stamp` per sweep) and accepted points of the circuit it joins.
#[derive(Debug)]
pub struct ProbeDevice {
    counters: Arc<Counters>,
}

impl Device for ProbeDevice {
    fn name(&self) -> &str {
        "PERFBENCH_PROBE"
    }

    fn stamp(&mut self, _s: &mut Stamper) {
        bump(&self.counters.stamp_calls, 1);
    }

    fn accept_step(&mut self, _state: &StateView<'_>) {
        bump(&self.counters.accept_calls, 1);
    }
}

/// A [`Dut`] that instantiates `inner` and adds a [`ProbeDevice`] to every
/// rig circuit built from it.
pub struct ProbedDut<'a> {
    pub inner: &'a dyn Dut,
    pub counters: Arc<Counters>,
}

impl Dut for ProbedDut<'_> {
    fn pin_names(&self) -> Vec<String> {
        self.inner.pin_names()
    }

    fn instantiate(&self, ckt: &mut Circuit, name: &str, nodes: &[NodeId]) -> Result<(), SimError> {
        self.inner.instantiate(ckt, name, nodes)?;
        ckt.add_device(Box::new(ProbeDevice {
            counters: Arc::clone(&self.counters),
        }))
    }
}
