//! A timing and counting [`StorageDevice`] decorator.
//!
//! The benchmark measures the device layer from outside: every device a
//! traced repetition builds is wrapped in a [`Timed`] that forwards each
//! trait method to the real device and adds the host time and call count
//! of the hot ones to a shared [`Tally`]. Timings are aggregated per
//! method, never stored per call: a placement repetition makes millions
//! of device calls.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

use powadapt_device::{
    DeviceError, DeviceSpec, IoCompletion, IoRequest, PowerStateDesc, PowerStateId, StandbyDepth,
    StandbyState, StorageDevice,
};
use powadapt_obs::RecorderHandle;
use powadapt_sim::SimTime;
use powadapt_snap::{SnapError, SnapReader, SnapWriter};

/// Calls made to one device method and the host time they took.
#[derive(Debug, Default)]
pub struct Op {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Op {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.set(self.ns.get() + ns);
        self.calls.set(self.calls.get() + 1);
        r
    }

    /// Number of calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Host seconds spent inside the calls.
    pub fn secs(&self) -> f64 {
        self.ns.get() as f64 * 1e-9
    }
}

/// Per-method totals over every device wrapped with the same tally.
#[derive(Debug, Default)]
pub struct Tally {
    /// `advance_to` and `advance_to_into`.
    pub advance: Op,
    /// Advances that returned no completion.
    pub advance_idle: Cell<u64>,
    /// Completions returned by advances.
    pub completions: Cell<u64>,
    /// `submit`.
    pub submit: Op,
    /// `next_event`.
    pub next_event: Op,
    /// `power_w`.
    pub power_w: Op,
    /// Power-state and standby commands.
    pub control: Op,
}

impl Tally {
    /// Host seconds spent inside every timed device method.
    pub fn device_secs(&self) -> f64 {
        self.advance.secs()
            + self.submit.secs()
            + self.next_event.secs()
            + self.power_w.secs()
            + self.control.secs()
    }
}

/// A device whose hot methods are timed into a shared [`Tally`].
pub struct Timed {
    inner: Box<dyn StorageDevice>,
    tally: Rc<Tally>,
}

impl Timed {
    /// Wraps `inner`, adding its calls to `tally`.
    pub fn wrap(inner: Box<dyn StorageDevice>, tally: &Rc<Tally>) -> Box<dyn StorageDevice> {
        Box::new(Timed {
            inner,
            tally: Rc::clone(tally),
        })
    }

    fn count_completions(&self, n: usize) {
        if n == 0 {
            self.tally
                .advance_idle
                .set(self.tally.advance_idle.get() + 1);
        }
        self.tally
            .completions
            .set(self.tally.completions.get() + n as u64);
    }
}

impl fmt::Debug for Timed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Timed").field("inner", &self.inner).finish()
    }
}

impl StorageDevice for Timed {
    fn spec(&self) -> &DeviceSpec {
        self.inner.spec()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn submit(&mut self, req: IoRequest) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.tally.submit.time(|| inner.submit(req))
    }

    fn next_event(&mut self) -> Option<SimTime> {
        let inner = &mut self.inner;
        self.tally.next_event.time(|| inner.next_event())
    }

    fn advance_to(&mut self, t: SimTime) -> Vec<IoCompletion> {
        let inner = &mut self.inner;
        let out = self.tally.advance.time(|| inner.advance_to(t));
        self.count_completions(out.len());
        out
    }

    fn advance_to_into(&mut self, t: SimTime, out: &mut Vec<IoCompletion>) {
        let before = out.len();
        let inner = &mut self.inner;
        self.tally.advance.time(|| inner.advance_to_into(t, out));
        self.count_completions(out.len() - before);
    }

    fn power_w(&self) -> f64 {
        self.tally.power_w.time(|| self.inner.power_w())
    }

    fn set_power_state(&mut self, ps: PowerStateId) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.tally.control.time(|| inner.set_power_state(ps))
    }

    fn power_state(&self) -> PowerStateId {
        self.inner.power_state()
    }

    fn power_states(&self) -> &[PowerStateDesc] {
        self.inner.power_states()
    }

    fn request_standby(&mut self) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.tally.control.time(|| inner.request_standby())
    }

    fn request_wake(&mut self) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.tally.control.time(|| inner.request_wake())
    }

    fn request_standby_depth(&mut self, depth: StandbyDepth) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.tally
            .control
            .time(|| inner.request_standby_depth(depth))
    }

    fn standby_depth(&self) -> StandbyDepth {
        self.inner.standby_depth()
    }

    fn standby_state(&self) -> StandbyState {
        self.inner.standby_state()
    }

    fn standby_power_w(&self) -> Option<f64> {
        self.inner.standby_power_w()
    }

    fn inflight(&self) -> usize {
        self.inner.inflight()
    }

    fn set_recorder(&mut self, rec: RecorderHandle, track: &'static str) {
        self.inner.set_recorder(rec, track);
    }

    fn write_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.inner.write_state(w)
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.read_state(r)
    }
}
