//! Input decks and circuits, all generated from the seed.

use crate::common::Rng;
use masc_circuit::devices::{Capacitor, CurrentSource, Device, Diode, Resistor};
use masc_circuit::netlist::write_netlist;
use masc_circuit::parser::ParsedNetlist;
use masc_circuit::transient::TranOptions;
use masc_circuit::waveform::Waveform;
use masc_circuit::Circuit;
use masc_datasets::{DatasetSpec, Family};

/// Scales every resistance and capacitance of `circuit` by a factor in
/// `[1 − spread, 1 + spread]` drawn from `rng`. Other model parameters keep
/// their generator values, so every jittered deck stays in the regime its
/// generator was built for.
pub fn jitter_rc(circuit: &mut Circuit, rng: &mut Rng, spread: f64) {
    for p in circuit.params() {
        if p.path.ends_with(".r") || p.path.ends_with(".c") {
            let v = circuit.param_value(&p);
            circuit.set_param_value(&p, v * rng.jitter(spread));
        }
    }
}

/// One deck of the `adjoint-paper` rotation.
#[derive(Debug, Clone)]
pub struct PaperDeck {
    /// Generator family label.
    pub family: &'static str,
    /// Deck text as `write_netlist` renders it.
    pub text: String,
    /// Names of the eight observed nodes.
    pub observe: Vec<String>,
    /// Stage/section count fed to the generator.
    pub size: usize,
    /// Fixed transient steps.
    pub steps: usize,
}

/// The three `adjoint-paper` families with their sizes and step counts,
/// chosen so one job takes about the same time in each.
pub const PAPER_FAMILIES: [(&str, Family, usize, usize); 3] = [
    ("bjt-chain", Family::BjtChain, 96, 300),
    ("nmos-inverter-chain", Family::MosChain, 128, 300),
    ("rc-mesh", Family::RcMesh, 256, 300),
];

/// Builds the `adjoint-paper` deck of family `idx` for `seed`: the
/// `masc-datasets` generator at its default model effort, R/C values
/// jittered by ±10 % from the seed, on a fixed step grid.
pub fn paper_deck(idx: usize, seed: u64) -> PaperDeck {
    let (family_name, family, size, steps) = PAPER_FAMILIES[idx];
    let spec = DatasetSpec {
        name: family_name,
        family,
        size,
        steps,
    };
    let (mut circuit, adaptive) = spec.build_circuit(1.0);
    jitter_rc(&mut circuit, &mut Rng::new(seed, 100 + idx as u64), 0.10);
    let tran = TranOptions::new(adaptive.t_stop, adaptive.dt);
    // Eight observed nodes spread along the circuit (node 0 is ground).
    let nodes = circuit.node_count();
    let observe = (0..8)
        .map(|k| circuit.node_name(1 + (k * (nodes - 2)) / 7).to_string())
        .collect();
    let text = write_netlist(&ParsedNetlist {
        circuit,
        tran: Some(tran),
        title: Some(format!("* perfbench {family_name} seed {seed}")),
    });
    PaperDeck {
        family: family_name,
        text,
        observe,
        size,
        steps,
    }
}

/// The sweep bench's workload: a sine-driven diode RC ladder (shared by
/// every instance) next to one DC-driven RC stage that carries the swept
/// resistor `R0`. `stiff` selects the window bench's quasi-static variant
/// (parasitic-scale capacitances, no swept stage).
pub fn diode_ladder(stages: usize, stiff: bool, rng: &mut Rng) -> Circuit {
    let (cap, cj) = if stiff { (1e-9, 1e-12) } else { (1e-6, 1e-9) };
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..stages)
        .map(|s| ckt.node(&format!("d{s}")).unknown())
        .collect();
    let add = |ckt: &mut Circuit, d: Device| {
        ckt.add(d).expect("generated device names are unique");
    };
    add(
        &mut ckt,
        Device::CurrentSource(CurrentSource::new(
            "IL",
            None,
            nodes[0],
            Waveform::Sin {
                vo: 1e-3,
                va: 8e-4,
                freq: 200.0,
                td: 0.0,
                theta: 0.0,
            },
        )),
    );
    for s in 0..stages {
        let j = rng.jitter(0.05);
        add(
            &mut ckt,
            Device::Resistor(Resistor::new(format!("RL{s}"), nodes[s], None, 1000.0 * j)),
        );
        add(
            &mut ckt,
            Device::Capacitor(Capacitor::new(format!("CL{s}"), nodes[s], None, cap * j)),
        );
        add(
            &mut ckt,
            Device::Diode(Diode::new(format!("DL{s}"), nodes[s], None).with_junction_cap(cj)),
        );
        if s + 1 < stages {
            add(
                &mut ckt,
                Device::Resistor(Resistor::new(
                    format!("RS{s}"),
                    nodes[s],
                    nodes[s + 1],
                    500.0 * rng.jitter(0.05),
                )),
            );
        }
    }
    if !stiff {
        let probe = ckt.node("p0").unknown();
        add(
            &mut ckt,
            Device::CurrentSource(CurrentSource::new("IP", None, probe, Waveform::Dc(1e-3))),
        );
        add(
            &mut ckt,
            Device::Resistor(Resistor::new("R0", probe, None, 1000.0)),
        );
        add(
            &mut ckt,
            Device::Capacitor(Capacitor::new("C0", probe, None, 1e-6)),
        );
    }
    ckt
}
