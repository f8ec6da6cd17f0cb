//! Regenerates every table and figure of the paper (see DESIGN.md §4).
//!
//! ```text
//! harness [experiment]
//!   fig1       model development steps (definition card → diagram → code → simulation)
//!   fig2       input stage: diagram + extracted Rin/Cin
//!   fig3       output stage: diagram + extracted Rout/Ilim
//!   fig4       power supply: current balance sheet of the comparator
//!   fig5       slew rate: extracted rise/fall slopes
//!   listing42  the generated §4.2 ELDO-FAS listing
//!   fig6       comparator functional diagram
//!   fig7       triggered-comparator transient, behavioural vs 11-MOS CMOS
//!   table1     CPU-cost comparison (the paper's 4.9 s vs 15.2 s result)
//!   modelcheck extracted vs assigned parameters (§2.4)
//!   validity   range-of-validity scan (§2.4)
//!   ablation   transient tolerance / integration-method cost sweep
//!   bode       open-loop Bode of the behavioural opamp vs the analytic pole
//!   fasvm      FAS interpreter vs bytecode VM: same trajectory and output
//!              (writes BENCH_fasvm.json)
//!   parchar    Monte-Carlo bitwise identical on 1/2/4/8 workers + LU
//!              factorization counters (writes BENCH_parchar.json)
//!   traceov    tracing overhead: disabled-probe cost on the comparator
//!              transient + a fully traced all-layer run (writes
//!              BENCH_traceov.json and TRACE_traceov.json)
//!   all        everything above (default)
//! ```
//!
//! The rows written to `BENCH_*.json` record deterministic counters, which
//! `scripts/ci.sh` compares exactly with the committed files. Wall time is
//! taken only where a clock is the point: `table1` (the paper's §5
//! timing) and `traceov`'s in-process overhead gate; every other timing
//! claim is measured by the benchmark (`perfbench/`).
//!
//! The parallel characterization flows run on one worker per hardware
//! thread. `--trace <out.json>` (or env `GABM_TRACE`) records a Chrome
//! trace-event file of the whole invocation and `--trace-summary` prints
//! the hierarchical text summary; both use the same shared flag parser as
//! `gabm`. SVG renderings of the diagrams are written to `figures/`.

use gabm_bench::experiments::comparator_bench::{
    behavioural_comparator_circuit, behavioural_comparator_circuit_around,
    behavioural_comparator_spec, cmos_comparator_circuit, ComparatorStimulus,
};
use gabm_bench::experiments::constructs_bench::{diagram_dut, SlewBufferSpec};
use gabm_charac::{check_model_rigs, rigs, validity, Bias, RigCheck};
use gabm_codegen::{generate, Backend};
use gabm_core::check::check_diagram;
use gabm_core::constructs::{InputStageSpec, OutputStageSpec, PowerSupplySpec, SlewRateSpec};
use gabm_core::diagram::FunctionalDiagram;
use gabm_models::comparator::ComparatorSpec;
use gabm_schematic::{render_ascii, render_svg};
use gabm_sim::analysis::tran::TranSpec;
use std::time::Instant;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // The trace flag parser is shared with `gabm` (gabm_trace::cli) so both
    // binaries reject bad values with identical flag-naming messages.
    let trace_cfg = match gabm_trace::cli::take_trace_flags(&mut argv) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    gabm_trace::cli::maybe_enable(&trace_cfg);
    let which = argv.into_iter().next().unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    std::fs::create_dir_all("figures").ok();
    let mut ran = false;
    if all || which == "fig1" {
        fig1();
        ran = true;
    }
    if all || which == "fig2" {
        fig2();
        ran = true;
    }
    if all || which == "fig3" {
        fig3();
        ran = true;
    }
    if all || which == "fig4" {
        fig4();
        ran = true;
    }
    if all || which == "fig5" {
        fig5();
        ran = true;
    }
    if all || which == "listing42" {
        listing42();
        ran = true;
    }
    if all || which == "fig6" {
        fig6();
        ran = true;
    }
    if all || which == "fig7" {
        fig7();
        ran = true;
    }
    if all || which == "table1" {
        table1();
        ran = true;
    }
    if all || which == "modelcheck" {
        modelcheck();
        ran = true;
    }
    if all || which == "validity" {
        validity_scan();
        ran = true;
    }
    if all || which == "ablation" {
        ablation();
        ran = true;
    }
    if all || which == "bode" {
        bode();
        ran = true;
    }
    if all || which == "fasvm" {
        fasvm();
        ran = true;
    }
    if all || which == "parchar" {
        parchar();
        ran = true;
    }
    if all || which == "traceov" {
        traceov();
        ran = true;
    }
    if !ran {
        eprintln!("unknown experiment '{which}' — see the module docs for the list");
        std::process::exit(2);
    }
    if let Err(msg) = gabm_trace::cli::finalize(&trace_cfg) {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
}

fn banner(title: &str) {
    println!("\n==================================================================");
    println!("  {title}");
    println!("==================================================================");
}

fn save_svg(d: &FunctionalDiagram, file: &str) {
    let svg = render_svg(d);
    let path = format!("figures/{file}");
    if std::fs::write(&path, svg).is_ok() {
        println!("  [svg written to {path}]");
    }
}

/// Runs `setup` and then times `run` on its output, `reps` times, and
/// returns the fastest time in seconds with the last run's result. Set-up
/// and every drop stay outside the timer; the runs are milliseconds long,
/// so the minimum is the run least disturbed by the host.
fn best_of<S, R>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> R,
) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let mut state = setup();
        let t0 = Instant::now();
        let r = run(&mut state);
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("at least one repetition"))
}

/// E1 / Fig. 1 — the model development steps.
fn fig1() {
    banner("Fig. 1 — model development steps: card -> diagram -> code -> simulation");
    let spec = InputStageSpec::new("in", 1.0e-6, 5.0e-12);
    let card = spec.card().expect("card builds");
    println!("{card}");
    let diagram = spec.diagram().expect("diagram builds");
    let report = check_diagram(&diagram);
    println!(
        "consistency check: {} errors, {} warnings",
        report.error_count(),
        report.warning_count()
    );
    print!("{}", render_ascii(&diagram));
    let code = generate(&diagram, Backend::Fas).expect("code generates");
    println!("{}", code.text);
    // Simulate: the model must load a 1 V source with 1 µA.
    let dut = diagram_dut(&diagram).expect("dut builds");
    let rin = rigs::input_resistance(&dut, "in", &[]).expect("rig runs");
    println!("simulated: {rin} (assigned 1e6 ohm)");
}

/// E2 / Fig. 2 — input stage.
fn fig2() {
    banner("Fig. 2 — input stage: functional diagram and extraction");
    let assigned_rin = 1.0e6;
    let assigned_cin = 5.0e-12;
    let spec = InputStageSpec::new("in", 1.0 / assigned_rin, assigned_cin);
    let diagram = spec.diagram().expect("diagram builds");
    print!("{}", render_ascii(&diagram));
    save_svg(&diagram, "fig2_input_stage.svg");
    let dut = diagram_dut(&diagram).expect("dut builds");
    let rin = rigs::input_resistance(&dut, "in", &[]).expect("rin rig");
    let cin = rigs::input_capacitance(&dut, "in", &[], assigned_cin).expect("cin rig");
    println!("{:<12} {:>14} {:>14}", "parameter", "assigned", "extracted");
    println!(
        "{:<12} {:>14.4e} {:>14.4e}",
        "rin [ohm]", assigned_rin, rin.value
    );
    println!(
        "{:<12} {:>14.4e} {:>14.4e}",
        "cin [F]", assigned_cin, cin.value
    );
}

/// E3 / Fig. 3 — output stage.
fn fig3() {
    banner("Fig. 3 — output stage: functional diagram and extraction");
    let gout = 1.0e-3;
    let ilim = 10.0e-3;
    let spec = OutputStageSpec::new("out", gout).with_current_limit(ilim);
    let diagram = spec.diagram().expect("diagram builds");
    print!("{}", render_ascii(&diagram));
    save_svg(&diagram, "fig3_output_stage.svg");
    let dut = diagram_dut(&diagram).expect("dut builds");
    let rout = rigs::output_resistance(&dut, "out", &[], 1.0e-4).expect("rout rig");
    let ilim_x = rigs::output_current_limit(&dut, "out", &[], 0.1, 0.5).expect("ilim rig");
    println!("{:<12} {:>14} {:>14}", "parameter", "assigned", "extracted");
    println!(
        "{:<12} {:>14.4e} {:>14.4e}",
        "rout [ohm]",
        1.0 / gout,
        rout.value
    );
    println!("{:<12} {:>14.4e} {:>14.4e}", "ilim [A]", ilim, ilim_x.value);
}

/// E4 / Fig. 4 — power supply balance sheet.
fn fig4() {
    banner("Fig. 4 — power supply: current balance sheet");
    let psu = PowerSupplySpec::new("vdd", "vss", 1.0e-5, 1.0e-4, 2);
    let diagram = psu.diagram().expect("diagram builds");
    print!("{}", render_ascii(&diagram));
    save_svg(&diagram, "fig4_power_supply.svg");
    // Measure the balance on the full comparator model.
    let spec = ComparatorSpec::default();
    let model = gabm_fas::compile(&spec.fas_code().expect("code")).expect("compiles");
    let dut = gabm_models::dut::fas_dut(model, Default::default()).expect("dut");
    let xs = rigs::supply_currents(
        &dut,
        "vdd",
        "vss",
        &[
            ("inp", Bias::Voltage(0.2)),
            ("inn", Bias::Voltage(-0.2)),
            ("strobe", Bias::Voltage(1.0)),
            ("vdd", Bias::Voltage(2.5)),
            ("vss", Bias::Voltage(-2.5)),
        ],
    )
    .expect("supply rig");
    for x in &xs {
        println!("  {x}");
    }
    let analytic = spec.gpol * 5.0 + spec.iloss;
    println!("  analytic i_vdd ~ gpol*(vdd-vss) + iloss = {analytic:.4e} A (plus stage currents)");
}

/// E5 / Fig. 5 — slew rate.
fn fig5() {
    banner("Fig. 5 — slew-rate block: diagram and extracted slopes");
    let slew = SlewRateSpec::new(1.0e6, 0.5e6);
    let diagram = slew.diagram().expect("diagram builds");
    print!("{}", render_ascii(&diagram));
    save_svg(&diagram, "fig5_slew_rate.svg");
    let buffer = SlewBufferSpec::default();
    let dut = diagram_dut(&buffer.diagram().expect("buffer diagram")).expect("dut");
    let (rise, fall) =
        rigs::slew_rates(&dut, "in", "out", &[], -1.0, 1.0, 40.0e-6).expect("slew rig");
    println!("{:<14} {:>14} {:>14}", "parameter", "assigned", "extracted");
    println!(
        "{:<14} {:>14.4e} {:>14.4e}",
        "srise [V/s]", buffer.slew_rise, rise.value
    );
    println!(
        "{:<14} {:>14.4e} {:>14.4e}",
        "sfall [V/s]", buffer.slew_fall, fall.value
    );
}

/// E6 / §4.2 — the generated FAS listing.
fn listing42() {
    banner("Section 4.2 — generated ELDO-FAS code of the input stage");
    let diagram = InputStageSpec::new("in", 1.0e-6, 5.0e-12)
        .diagram()
        .expect("diagram builds");
    let code = generate(&diagram, Backend::Fas).expect("generates");
    println!("{}", code.text);
    println!("--- the same diagram in VHDL-AMS ---");
    println!(
        "{}",
        generate(&diagram, Backend::VhdlAms).expect("vhdl").text
    );
    println!("--- and in MAST ---");
    println!("{}", generate(&diagram, Backend::Mast).expect("mast").text);
}

/// E7 / Fig. 6 — the comparator functional diagram.
fn fig6() {
    banner("Fig. 6 — functional diagram of the triggered comparator");
    let spec = ComparatorSpec::default();
    println!("{}", spec.card().expect("card builds"));
    let diagram = spec.diagram().expect("diagram builds");
    let report = check_diagram(&diagram);
    println!(
        "symbols: {}, nets: {}, consistency: {} errors / {} warnings",
        diagram.symbol_count(),
        diagram.nets().count(),
        report.error_count(),
        report.warning_count()
    );
    print!("{}", render_ascii(&diagram));
    save_svg(&diagram, "fig6_comparator.svg");
}

/// E8 / Fig. 7 — transient waveforms, behavioural vs transistor-level.
fn fig7() {
    banner("Fig. 7 — simulation of the triggered comparator (60 us)");
    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;
    let (mut beh, bn) = behavioural_comparator_circuit(&stim).expect("behavioural bench");
    let rb = beh.tran(&TranSpec::new(tstop)).expect("behavioural tran");
    let w_beh = rb.voltage_waveform(bn[3]).expect("waveform");
    let w_in = rb.voltage_waveform(bn[0]).expect("waveform");
    let w_stb = rb.voltage_waveform(bn[2]).expect("waveform");
    let (mut cmos, cn) = cmos_comparator_circuit(&stim).expect("cmos bench");
    let rc = cmos.tran(&TranSpec::new(tstop)).expect("cmos tran");
    let w_cmos = rc.voltage_waveform(cn[3]).expect("waveform");

    // Terminal oscillogram, like the paper's figure.
    let opts = gabm_numeric::plot::PlotOptions {
        width: 96,
        height: 14,
        y_range: Some((-2.8, 2.8)),
    };
    if let Ok(plot) = gabm_numeric::plot::ascii_plot(
        &[
            ("input (inp)", &w_in),
            ("out behavioural", &w_beh),
            ("out CMOS", &w_cmos),
        ],
        &opts,
    ) {
        println!("{plot}");
    }
    println!("time_us,vin_p,strobe,out_behavioural,out_cmos");
    let n = 120;
    for k in 0..=n {
        let t = tstop * k as f64 / n as f64;
        println!(
            "{:8.3},{:8.4},{:8.3},{:8.4},{:8.4}",
            t * 1e6,
            w_in.value_at(t).unwrap_or(0.0),
            w_stb.value_at(t).unwrap_or(0.0),
            w_beh.value_at(t).unwrap_or(0.0),
            w_cmos.value_at(t).unwrap_or(0.0)
        );
    }
    // Decision agreement inside strobe windows.
    let mut agree = 0;
    let mut total = 0;
    for (lo, hi) in stim.strobe_windows(tstop) {
        let t = 0.5 * (lo + hi);
        let vb = w_beh.value_at(t).unwrap_or(0.0);
        let vc = w_cmos.value_at(t).unwrap_or(0.0);
        if vb.abs() > 0.5 && vc.abs() > 0.5 {
            total += 1;
            if vb.signum() == vc.signum() {
                agree += 1;
            }
        }
    }
    println!("decision agreement inside strobe windows: {agree}/{total}");
    std::fs::write(
        "figures/fig7_behavioural.csv",
        w_beh.to_csv("out_behavioural"),
    )
    .ok();
    std::fs::write("figures/fig7_cmos.csv", w_cmos.to_csv("out_cmos")).ok();
    println!("  [series written to figures/fig7_*.csv]");
}

/// E9 / the §5 timing table. Each transient is repeated and the fastest
/// run reported (the runs are milliseconds long, so scheduling noise
/// otherwise dominates).
fn table1() {
    banner("Table — CPU cost: FAS model vs transistor circuit (paper: 4.9 s vs 15.2 s)");
    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;
    const REPS: usize = 7;

    let (t_beh, (beh_unknowns, rb)) = best_of(
        REPS,
        || {
            behavioural_comparator_circuit(&stim)
                .expect("behavioural bench")
                .0
        },
        |beh| {
            (
                beh.n_unknowns(),
                beh.tran(&TranSpec::new(tstop)).expect("behavioural tran"),
            )
        },
    );
    let (t_cmos, (cmos_unknowns, rc)) = best_of(
        REPS,
        || cmos_comparator_circuit(&stim).expect("cmos bench").0,
        |cmos| {
            (
                cmos.n_unknowns(),
                cmos.tran(&TranSpec::new(tstop)).expect("cmos tran"),
            )
        },
    );

    println!(
        "{:<24} {:>9} {:>8} {:>9} {:>10} {:>10}",
        "model", "unknowns", "steps", "NR iters", "time [s]", "vs paper"
    );
    println!(
        "{:<24} {:>9} {:>8} {:>9} {:>10.3} {:>10}",
        "FAS behavioural",
        beh_unknowns,
        rb.stats.accepted_steps,
        rb.stats.newton_iterations,
        t_beh,
        "4.9 s"
    );
    println!(
        "{:<24} {:>9} {:>8} {:>9} {:>10.3} {:>10}",
        "CMOS circuit (11 MOS)",
        cmos_unknowns,
        rc.stats.accepted_steps,
        rc.stats.newton_iterations,
        t_cmos,
        "15.2 s"
    );
    println!(
        "speedup: measured {:.2}x — paper reports 15.2/4.9 = 3.1x (Sun Sparc 10/30)",
        t_cmos / t_beh
    );
}

/// E10 / §2.4 — the model check. Each rig is a [`RigCheck`]; the rigs of
/// one model run concurrently on the worker pool.
fn modelcheck() {
    banner("Section 2.4 — model check: extracted vs assigned parameters");
    // Input stage.
    let rin = 1.0e6;
    let cin = 5.0e-12;
    let in_spec = InputStageSpec::new("in", 1.0 / rin, cin);
    let dut = diagram_dut(&in_spec.diagram().expect("diagram")).expect("dut");
    let report = check_model_rigs(
        "input_stage",
        &[
            RigCheck {
                parameter: "rin",
                assigned: rin,
                extract: &|| rigs::input_resistance(&dut, "in", &[]),
            },
            RigCheck {
                parameter: "cin",
                assigned: cin,
                extract: &|| rigs::input_capacitance(&dut, "in", &[], cin),
            },
        ],
        0.15,
    )
    .expect("input-stage rigs run");
    println!("{report}\n");
    // Slew buffer. The slew rig extracts both slopes in one transient; the
    // rise/fall checks each pick their half.
    let buffer = SlewBufferSpec::default();
    let dut = diagram_dut(&buffer.diagram().expect("diagram")).expect("dut");
    let slew = |pick_rise: bool| {
        let (rise, fall) = rigs::slew_rates(&dut, "in", "out", &[], -1.0, 1.0, 40.0e-6)?;
        Ok(if pick_rise { rise } else { fall })
    };
    let report = check_model_rigs(
        "slew_buffer",
        &[
            RigCheck {
                parameter: "srise",
                assigned: buffer.slew_rise,
                extract: &|| slew(true),
            },
            RigCheck {
                parameter: "sfall",
                assigned: buffer.slew_fall,
                extract: &|| slew(false),
            },
            RigCheck {
                parameter: "rout",
                assigned: 1.0 / buffer.gout,
                extract: &|| rigs::output_resistance(&dut, "out", &[], 1.0e-4),
            },
        ],
        0.2,
    )
    .expect("slew-buffer rigs run");
    println!("{report}");
}

/// §2.4 — range of validity: the slew buffer tracks a sine only while the
/// demanded slope stays below its slew limit.
fn validity_scan() {
    banner("Section 2.4 — range of validity of the slew buffer vs input frequency");
    let buffer = SlewBufferSpec::default();
    let diagram = buffer.diagram().expect("diagram");
    let amplitude = 1.0;
    let result = validity::scan_validity("frequency [Hz]", 1.0e3, 3.0e6, 13, 0.2, |f| {
        let dut = diagram_dut(&diagram).map_err(gabm_charac::CharacError::BadRig)?;
        let (mut ckt, nodes) = gabm_charac_scaffold(&dut)?;
        ckt.add_vsource(
            "VIN",
            nodes.0,
            gabm_sim::Circuit::GROUND,
            gabm_sim::devices::SourceWave::sine(0.0, amplitude, f),
        );
        let periods = 3.0;
        let r = ckt
            .tran(&TranSpec::new(periods / f))
            .map_err(gabm_charac::CharacError::Sim)?;
        let w_out = r
            .voltage_waveform(nodes.1)
            .map_err(gabm_charac::CharacError::Sim)?;
        let w_in = r
            .voltage_waveform(nodes.0)
            .map_err(gabm_charac::CharacError::Sim)?;
        let rms = w_out
            .rms_difference(&w_in)
            .map_err(|e| gabm_charac::CharacError::ExtractionFailed(e.to_string()))?;
        Ok(rms / amplitude)
    })
    .expect("scan runs");
    let predicted = buffer.slew_fall / (2.0 * std::f64::consts::PI * amplitude);
    println!(
        "valid from {:.3e} Hz to {:.3e} Hz ({} runs); slew-limit prediction ~{:.3e} Hz",
        result.lo, result.hi, result.evaluations, predicted
    );
}

/// Extension: open-loop Bode plot of the behavioural opamp, extracted with
/// the transient frequency-response rig and compared against the analytic
/// single-pole law A0/√(1+(f/fp)²) — the transfer-function GBS (§3.1b) made
/// measurable.
fn bode() {
    banner("Extension — open-loop Bode of the behavioural opamp (single pole)");
    let a0 = 100.0;
    let pole_hz = 1.0e3;
    let spec = gabm_models::OpampSpec {
        a0,
        pole_hz,
        ..gabm_models::OpampSpec::default()
    };
    let model = gabm_fas::compile(&spec.fas_code().expect("code")).expect("compiles");
    let dut = gabm_models::dut::fas_dut(model, Default::default()).expect("dut");
    let freqs = [
        pole_hz / 100.0,
        pole_hz / 10.0,
        pole_hz,
        pole_hz * 10.0,
        pole_hz * 30.0,
    ];
    let pts = rigs::frequency_response(
        &dut,
        "inp",
        "out",
        &[("inn", Bias::Ground)],
        &freqs,
        1.0e-3,
        3,
    )
    .expect("frequency response");
    println!(
        "{:>12} {:>12} {:>12} {:>10}",
        "f [Hz]", "gain meas", "gain analytic", "phase [deg]"
    );
    for p in &pts {
        let analytic = a0 / (1.0 + (p.freq / pole_hz).powi(2)).sqrt();
        println!(
            "{:>12.3e} {:>12.3} {:>12.3} {:>10.1}",
            p.freq, p.gain, analytic, p.phase_deg
        );
    }
}

/// Ablation: accuracy vs cost of the transient engine on the behavioural
/// comparator — LTE tolerance and integration method sweeps. Quantifies the
/// "variable time intervals" design point of §3.3 and the discontinuity
/// handling of §4.
fn ablation() {
    banner("Ablation — transient tolerance & integration method (behavioural comparator)");
    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;
    // Reference: tight tolerance.
    let reference = {
        let (mut ckt, n) = behavioural_comparator_circuit(&stim).expect("bench builds");
        ckt.options.tran_tol = 1e-5;
        let r = ckt.tran(&TranSpec::new(tstop)).expect("reference tran");
        r.voltage_waveform(n[3]).expect("waveform")
    };
    println!(
        "{:<26} {:>8} {:>10} {:>14}",
        "configuration", "steps", "NR iters", "RMS vs ref [V]"
    );
    for (label, tol, method) in [
        ("tol=1e-2, trapezoidal", 1e-2, None),
        ("tol=1e-3, trapezoidal", 1e-3, None),
        ("tol=1e-4, trapezoidal", 1e-4, None),
        (
            "tol=1e-3, backward Euler",
            1e-3,
            Some(gabm_numeric::integrate::Method::BackwardEuler),
        ),
        (
            "tol=1e-3, Gear-2",
            1e-3,
            Some(gabm_numeric::integrate::Method::Gear2),
        ),
    ] {
        let (mut ckt, n) = behavioural_comparator_circuit(&stim).expect("bench builds");
        ckt.options.tran_tol = tol;
        let mut spec = TranSpec::new(tstop);
        if let Some(m) = method {
            spec = spec.with_method(m);
        }
        let r = ckt.tran(&spec).expect("tran runs");
        let w = r.voltage_waveform(n[3]).expect("waveform");
        let rms = w.rms_difference(&reference).unwrap_or(f64::NAN);
        println!(
            "{label:<26} {:>8} {:>10} {:>14.4e}",
            r.stats.accepted_steps, r.stats.newton_iterations, rms
        );
    }
}

/// Tiny local scaffold for the validity scan: DUT with in/out nodes.
fn gabm_charac_scaffold(
    dut: &impl gabm_charac::Dut,
) -> Result<(gabm_sim::Circuit, (gabm_sim::NodeId, gabm_sim::NodeId)), gabm_charac::CharacError> {
    let mut ckt = gabm_sim::Circuit::new();
    let n_in = ckt.node("in");
    let n_out = ckt.node("out");
    dut.instantiate(&mut ckt, "DUT", &[n_in, n_out])
        .map_err(gabm_charac::CharacError::Sim)?;
    ckt.add_resistor("RL", n_out, gabm_sim::Circuit::GROUND, 10.0e3)
        .map_err(gabm_charac::CharacError::Sim)?;
    Ok((ckt, (n_in, n_out)))
}

/// E8/E9 counter row — the bytecode VM against the FAS interpreter on the
/// comparator transient: both executors must take the same trajectory and
/// give the same output. Writes `BENCH_fasvm.json`. The VM's gain in time
/// is measured by the benchmark (`perfbench/`, see EXPERIMENTS.md).
fn fasvm() {
    use gabm_sim::devices::BehavioralModel;
    use std::collections::BTreeMap;

    banner("FAS execution backends — interpreter vs bytecode VM (comparator transient)");
    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;

    let model = ComparatorSpec::default()
        .model()
        .expect("comparator model compiles");
    let prog = gabm_fasvm::compile_program(&model).expect("comparator bytecode compiles");
    println!(
        "bytecode: {} ops, {} regs",
        prog.op_count(),
        prog.reg_count()
    );

    // Both executors are built directly from the bench's model: the
    // interpreter is the reference the VM is held to.
    let bench_model = behavioural_comparator_spec(&stim)
        .model()
        .expect("comparator model compiles");
    let bench_prog =
        gabm_fasvm::compile_program(&bench_model).expect("comparator bytecode compiles");
    let run = |instance: Box<dyn BehavioralModel>| {
        let (mut ckt, nodes) =
            behavioural_comparator_circuit_around(&stim, instance).expect("bench builds");
        let r = ckt.tran(&TranSpec::new(tstop)).expect("tran runs");
        let w = r.voltage_waveform(nodes[3]).expect("outp waveform");
        (r.stats, w)
    };
    let defaults = BTreeMap::new();
    let (s_interp, w_interp) = run(Box::new(
        bench_model.instantiate(&defaults).expect("defaults"),
    ));
    let (s_vm, w_vm) = run(Box::new(
        bench_prog.instantiate(&defaults).expect("defaults"),
    ));
    assert_eq!(
        s_interp, s_vm,
        "backends must take the same Newton trajectory"
    );
    let rms = w_interp.rms_difference(&w_vm).unwrap_or(f64::NAN);
    assert!(
        rms < 1.0e-9,
        "interpreter and VM transient outputs diverge: rms {rms:e}"
    );
    println!(
        "both executors: {} Newton iterations, {} accepted / {} rejected steps; \
         outputs agree, rms {rms:.1e}",
        s_vm.newton_iterations, s_vm.accepted_steps, s_vm.rejected_steps
    );

    let json = format!(
        "{{\n  \"experiment\": \"fasvm\",\n  \"tstop\": {tstop:e},\n  \"ops\": {},\n  \
         \"regs\": {},\n  \"newton_iterations\": {},\n  \"accepted_steps\": {},\n  \
         \"rejected_steps\": {},\n  \"waveform_rms_diff\": {rms:e}\n}}\n",
        prog.op_count(),
        prog.reg_count(),
        s_vm.newton_iterations,
        s_vm.accepted_steps,
        s_vm.rejected_steps
    );
    if std::fs::write("BENCH_fasvm.json", &json).is_ok() {
        println!("  [written to BENCH_fasvm.json]");
    }
}

/// Counter row for the parallel characterization engine: Monte-Carlo over
/// the comparator's strobe-to-decision delay on pools of 1/2/4/8 workers
/// (bitwise identical by construction, asserted here), plus the LU
/// counters of the 60 µs comparator transient (one factorization per
/// Newton iteration). Writes `BENCH_parchar.json`.
fn parchar() {
    use gabm_charac::monte_carlo::{monte_carlo_on, Scatter};
    use gabm_charac::{CharacError, ThreadPool};
    use std::collections::BTreeMap;

    banner("Parallel characterization + LU factorization counters");

    // --- Monte-Carlo: slew-rate scatter -> response-time distribution. ---
    const SAMPLES: usize = 24;
    const SEED: u64 = 1994;
    let nominal = ComparatorSpec::default();
    let mut scatters = BTreeMap::new();
    scatters.insert("srise".to_string(), Scatter::new(nominal.slew_rise, 0.1));
    scatters.insert("sfall".to_string(), Scatter::new(nominal.slew_fall, 0.1));
    let measure = |p: &BTreeMap<String, f64>| -> Result<f64, CharacError> {
        let spec = ComparatorSpec {
            slew_rise: p["srise"],
            slew_fall: p["sfall"],
            ..ComparatorSpec::default()
        };
        let model = spec
            .model()
            .map_err(|e| CharacError::BadRig(e.to_string()))?;
        let dut = gabm_models::dut::fas_dut(model, BTreeMap::new())
            .map_err(|e| CharacError::BadRig(e.to_string()))?;
        let bias = [
            ("inp", Bias::Voltage(0.3)),
            ("inn", Bias::Voltage(-0.3)),
            ("outp", Bias::Open),
            ("outn", Bias::Open),
            ("vdd", Bias::Voltage(2.5)),
            ("vss", Bias::Voltage(-2.5)),
        ];
        Ok(rigs::response_time(&dut, "strobe", "outp", &bias, -1.0, 1.0, 1.0, 40.0e-6)?.value)
    };
    println!(
        "{:<8} {:>12} {:>12} {:>9}",
        "threads", "mean [s]", "std [s]", "failures"
    );
    let mut reference = None;
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let (dist, failures) =
            monte_carlo_on(&pool, &scatters, SAMPLES, SEED, measure).expect("MC runs");
        println!(
            "{threads:<8} {:>12.4e} {:>12.4e} {failures:>9}",
            dist.mean, dist.std_dev
        );
        let bits = [dist.mean, dist.std_dev, dist.min, dist.max].map(f64::to_bits);
        let run = (dist.n, failures, bits);
        match reference {
            None => reference = Some(run),
            Some(first) => assert_eq!(
                first, run,
                "distribution not bitwise identical at {threads} threads"
            ),
        }
    }
    let (n, failures, [mean, std, min, max]) = reference.expect("fixed-size runs happened");
    println!(
        "PARCHAR-DIST n={n} failures={failures} mean={mean:016x} std={std:016x} \
         min={min:016x} max={max:016x}"
    );

    // --- LU counters of the comparator transient. ---
    let stim = ComparatorStimulus::default();
    let (mut ckt, _) = behavioural_comparator_circuit(&stim).expect("bench builds");
    let s_tran = ckt.tran(&TranSpec::new(60.0e-6)).expect("tran runs").stats;
    assert_eq!(
        (s_tran.factorizations, s_tran.refactorizations),
        (s_tran.newton_iterations, 0),
        "every Newton iteration factors once, in full"
    );
    println!(
        "\ncomparator transient: {} factorizations, {} Newton iterations",
        s_tran.factorizations, s_tran.newton_iterations
    );

    let json = format!(
        "{{\n  \"experiment\": \"parchar\",\n  \"samples\": {SAMPLES},\n  \"seed\": {SEED},\n  \
         \"mc_mean_s\": {:.6e},\n  \"mc_std_s\": {:.6e},\n  \"mc_failures\": {failures},\n  \
         \"factorizations\": {},\n  \"refactorizations\": {},\n  \"newton_iterations\": {},\n  \
         \"accepted_steps\": {},\n  \"rejected_steps\": {}\n}}\n",
        f64::from_bits(mean),
        f64::from_bits(std),
        s_tran.factorizations,
        s_tran.refactorizations,
        s_tran.newton_iterations,
        s_tran.accepted_steps,
        s_tran.rejected_steps
    );
    if std::fs::write("BENCH_parchar.json", &json).is_ok() {
        println!("  [written to BENCH_parchar.json]");
    }
}

/// Tracing-overhead gate: the compiled-in instrumentation must cost no
/// more than 2% of the comparator transient while tracing is disabled.
/// The disabled probe cost is measured directly (a tight span loop) and
/// scaled by the number of probe sites one run passes; a fully traced
/// all-layer run (sim + fasvm + charac + par) is then recorded and its
/// Chrome JSON written to `TRACE_traceov.json` for CI validation.
/// Writes `BENCH_traceov.json`.
fn traceov() {
    use gabm_charac::monte_carlo::{monte_carlo_on, Scatter};
    use gabm_charac::{CharacError, ThreadPool};
    use std::collections::BTreeMap;

    banner("Tracing overhead — disabled-probe cost and a fully traced run");
    let was_enabled = gabm_trace::enabled();
    if was_enabled {
        println!("  [note: traceov drives tracing itself; the --trace file restarts here]");
    }
    gabm_trace::disable();

    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;
    const REPS: usize = 5;
    let (t_disabled, r) = best_of(
        REPS,
        || {
            behavioural_comparator_circuit(&stim)
                .expect("bench builds")
                .0
        },
        |ckt| ckt.tran(&TranSpec::new(tstop)).expect("tran runs"),
    );
    let stats = r.stats;

    // Disabled probe cost: constructing and dropping a span with tracing
    // off is the exact code the hot paths execute.
    const PROBES: u32 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..PROBES {
        let _ = std::hint::black_box(gabm_trace::span("traceov.probe"));
    }
    let ns_per_probe = t0.elapsed().as_nanos() as f64 / f64::from(PROBES);

    // Probe sites one disabled transient passes: the tran/step/newton
    // spans plus every counter bump in the engine (the OP pre-solve adds
    // one more step-less Newton solve).
    let attempts = stats.accepted_steps + stats.rejected_steps;
    let probes_per_run = (1
        + attempts                                      // sim.tran.step spans
        + 2 * (attempts + 1)                            // sim.newton spans + iteration counters
        + stats.factorizations                          // LU counters
        + attempts) as f64; // accepted/rejected counters
    let overhead_disabled_pct = probes_per_run * ns_per_probe / (t_disabled * 1e9) * 100.0;

    // The traced phase drives every instrumented layer once: bytecode
    // compilation (fasvm) while the bench builds, the comparator
    // transient (sim), and a small Monte-Carlo on a 2-worker pool
    // (charac + par).
    gabm_trace::enable();
    let (mut ckt, _) = behavioural_comparator_circuit(&stim).expect("bench builds");
    ckt.tran(&TranSpec::new(tstop)).expect("traced tran runs");
    let mut scatters = BTreeMap::new();
    scatters.insert("r".to_string(), Scatter::new(1.0e3, 0.05));
    let pool = ThreadPool::new(2);
    let measure = |p: &BTreeMap<String, f64>| -> Result<f64, CharacError> {
        let mut ckt = gabm_sim::Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            gabm_sim::Circuit::GROUND,
            gabm_sim::devices::SourceWave::dc(1.0),
        );
        ckt.add_resistor("R1", a, b, p["r"])
            .map_err(CharacError::Sim)?;
        ckt.add_resistor("R2", b, gabm_sim::Circuit::GROUND, 1.0e3)
            .map_err(CharacError::Sim)?;
        let op = ckt.op().map_err(CharacError::Sim)?;
        Ok(op.voltage(b))
    };
    monte_carlo_on(&pool, &scatters, 8, 1994, measure).expect("MC runs");
    let trace = gabm_trace::finish();
    let spans = trace.span_count();
    if std::fs::write("TRACE_traceov.json", trace.to_chrome_json(false)).is_ok() {
        println!("  [traced all-layer run written to TRACE_traceov.json]");
    }
    print!("{}", trace.summary());
    if was_enabled {
        gabm_trace::enable();
    }

    println!("\ncomparator transient: {t_disabled:.4} s (best of {REPS}, tracing disabled)");
    println!(
        "disabled probe: {ns_per_probe:.2} ns x {probes_per_run:.0} sites/run \
         = {overhead_disabled_pct:.4}% of the transient"
    );
    assert!(
        overhead_disabled_pct <= 2.0,
        "disabled tracing overhead {overhead_disabled_pct:.3}% exceeds the 2% budget"
    );
    println!("TRACEOV-OK overhead_disabled_pct={overhead_disabled_pct:.4}");

    let json = format!(
        "{{\n  \"experiment\": \"traceov\",\n  \"tstop\": {tstop:e},\n  \"reps\": {REPS},\n  \
         \"tran_disabled_s\": {t_disabled:.6},\n  \
         \"ns_per_disabled_probe\": {ns_per_probe:.3},\n  \"probes_per_run\": {probes_per_run},\n  \
         \"overhead_disabled_pct\": {overhead_disabled_pct:.4},\n  \"traced_spans\": {spans},\n  \
         \"accepted_steps\": {},\n  \"rejected_steps\": {}\n}}\n",
        stats.accepted_steps, stats.rejected_steps
    );
    if std::fs::write("BENCH_traceov.json", &json).is_ok() {
        println!("  [written to BENCH_traceov.json]");
    }
}
