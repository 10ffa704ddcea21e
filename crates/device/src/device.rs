//! The [`StorageDevice`] trait implemented by every simulated device.

use std::fmt;

use powadapt_obs::RecorderHandle;
use powadapt_sim::SimTime;
use powadapt_snap::{SnapError, SnapReader, SnapWriter};

use crate::error::DeviceError;
use crate::io::{IoCompletion, IoRequest};
use crate::power::{PowerStateDesc, PowerStateId, StandbyDepth, StandbyState};
use crate::spec::DeviceSpec;

/// A simulated storage device driven by an external event loop.
///
/// Devices are *pull-based*: the caller asks for the device's next internal
/// event time ([`StorageDevice::next_event`]) and advances it
/// ([`StorageDevice::advance_to`]), collecting completions. Power draw is
/// observable at the device's current time via [`StorageDevice::power_w`].
///
/// The trait is object-safe; experiment runners hold `Box<dyn
/// StorageDevice>`.
///
/// # Examples
///
/// ```
/// use powadapt_device::{catalog, IoId, IoKind, IoRequest, StorageDevice, KIB};
/// use powadapt_sim::SimTime;
///
/// let mut dev = catalog::ssd2_d7_p5510(7);
/// dev.submit(IoRequest::new(IoId(0), IoKind::Read, 0, 4 * KIB))?;
/// let mut done = Vec::new();
/// while done.is_empty() {
///     let t = dev.next_event().expect("read completes eventually");
///     done.extend(dev.advance_to(t));
/// }
/// assert_eq!(done[0].id, IoId(0));
/// # Ok::<(), powadapt_device::DeviceError>(())
/// ```
pub trait StorageDevice: fmt::Debug {
    /// Static description of the device.
    fn spec(&self) -> &DeviceSpec;

    /// The device's current simulated time.
    fn now(&self) -> SimTime;

    /// Submits an IO request at the device's current time.
    ///
    /// Submitting to a device in standby triggers an automatic wake; the
    /// request then incurs the wake latency.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfRange`], [`DeviceError::ZeroLength`], or
    /// [`DeviceError::DuplicateRequest`] for invalid requests.
    fn submit(&mut self, req: IoRequest) -> Result<(), DeviceError>;

    /// Time of the device's next internal event, if any work is pending.
    fn next_event(&mut self) -> Option<SimTime>;

    /// Advances the device to time `t`, processing all internal events up to
    /// and including `t`, and appends the completions that occurred to
    /// `out`.
    ///
    /// Experiment loops call this once per event step and reuse `out`
    /// across steps, so implementations drain their internal completion
    /// arena into it without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than [`StorageDevice::now`].
    fn advance_to_into(&mut self, t: SimTime, out: &mut Vec<IoCompletion>);

    /// Like [`StorageDevice::advance_to_into`], returning the completions
    /// in a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than [`StorageDevice::now`].
    fn advance_to(&mut self, t: SimTime) -> Vec<IoCompletion> {
        let mut out = Vec::new();
        self.advance_to_into(t, &mut out);
        out
    }

    /// Instantaneous power draw in watts at the device's current time.
    fn power_w(&self) -> f64;

    /// Selects an NVMe-style power state.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownPowerState`] if the device does not
    /// implement the state.
    fn set_power_state(&mut self, ps: PowerStateId) -> Result<(), DeviceError>;

    /// Currently selected power state.
    fn power_state(&self) -> PowerStateId;

    /// Power states implemented by the device (always non-empty; `ps0`
    /// first).
    fn power_states(&self) -> &[PowerStateDesc];

    /// Requests a transition into low-power standby.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::StandbyUnsupported`] if the device has no
    /// standby mode, or [`DeviceError::StandbyTransitionInProgress`] if a
    /// transition is already underway.
    fn request_standby(&mut self) -> Result<(), DeviceError>;

    /// Requests a wake from standby.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::StandbyUnsupported`] if the device has no
    /// standby mode.
    fn request_wake(&mut self) -> Result<(), DeviceError>;

    /// Requests a transition into low-power standby at the given depth.
    ///
    /// Devices with a single standby mode map it to
    /// [`StandbyDepth::Slumber`] and reject [`StandbyDepth::Partial`]; the
    /// default implementation encodes exactly that, so only devices with a
    /// genuine PARTIAL/SLUMBER ladder (SATA ALPM) need to override it.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::StandbyUnsupported`] if the device does not
    /// implement the requested depth, or
    /// [`DeviceError::StandbyTransitionInProgress`] if a transition is
    /// already underway.
    fn request_standby_depth(&mut self, depth: StandbyDepth) -> Result<(), DeviceError> {
        match depth {
            StandbyDepth::Slumber => self.request_standby(),
            StandbyDepth::Partial => Err(DeviceError::StandbyUnsupported),
        }
    }

    /// Depth of the standby state the device is in or transitioning
    /// toward. Meaningful only while [`StorageDevice::standby_state`] is
    /// not [`StandbyState::Active`]; single-mode devices always report
    /// [`StandbyDepth::Slumber`].
    fn standby_depth(&self) -> StandbyDepth {
        StandbyDepth::Slumber
    }

    /// Current standby status.
    fn standby_state(&self) -> StandbyState;

    /// Steady-state standby power in watts, or `None` if the device has no
    /// standby mode. Planners use this to weigh sleeping a device against
    /// reshaping its IO.
    fn standby_power_w(&self) -> Option<f64>;

    /// Number of submitted-but-not-completed requests.
    fn inflight(&self) -> usize;

    /// Attaches a telemetry recorder and names this device's event track.
    ///
    /// Devices capture the process-global recorder
    /// (`powadapt_obs::current()`) at construction; runners call this to
    /// override the sink or to assign fleet-positional track names
    /// (`device0`, `device1`, ...). The default implementation is a no-op
    /// so uninstrumented device types remain valid.
    fn set_recorder(&mut self, rec: RecorderHandle, track: &'static str) {
        let _ = (rec, track);
    }

    /// Serializes the device's complete dynamic state — event queue,
    /// in-flight IOs, RNG stream position, power accounting — for a
    /// checkpoint. Configuration (spec, power states, geometry) is *not*
    /// written: restore rebuilds the device from its spec and overlays
    /// this state via [`StorageDevice::read_state`].
    ///
    /// The default errors with [`SnapError::Unsupported`], keeping
    /// third-party device types valid; every device in this workspace
    /// implements it.
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] when the device cannot be snapshotted.
    fn write_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        let _ = w;
        Err(SnapError::Unsupported(
            "this device type does not implement snapshotting",
        ))
    }

    /// Overlays dynamic state written by [`StorageDevice::write_state`]
    /// onto a freshly built device of the same spec and configuration.
    /// Must not emit observability events: a restored run's trace
    /// continues the original's rather than replaying it.
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] by default; any [`SnapError`] on
    /// malformed input. A device that returned an error may be partially
    /// overwritten and must be discarded.
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let _ = r;
        Err(SnapError::Unsupported(
            "this device type does not implement snapshotting",
        ))
    }
}

/// Runs a device until it has no pending work, returning all completions.
///
/// For callers that need only the end state (a finished standby or wake
/// transition, a test's completions); experiment runners interleave
/// metering and submission instead.
pub fn drain(device: &mut dyn StorageDevice) -> Vec<IoCompletion> {
    let mut out = Vec::new();
    while let Some(t) = device.next_event() {
        device.advance_to_into(t, &mut out);
    }
    out
}
