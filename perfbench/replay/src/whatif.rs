//! The analyst's what-if loop (the shape of `examples/bead_buildout.rs`),
//! run in-process and closed-loop: one iteration at a time, each a pass
//! over a fixed deck of draws. A draw applies a demand scenario to the
//! paper dataset, builds the model, and calls every analysis the model
//! stages call.
//!
//! Draws differ in cost by two orders of magnitude (a large buildout
//! leaves a few demand cells), so single draws would put the median at
//! whatever draw kind happens to sit in the middle of a run's mix. An
//! iteration is therefore the whole deck, the same draws at every seed;
//! the seed drives the order they run in. Every draw recurs once per
//! deck and must reproduce its digest exactly, and every identity draw
//! must reproduce the paper pins.

use crate::sys::{cpu_ticks, process_cpu_ns, steal_pct};
use crate::trace::Tracer;
use leo_cache::fnv1a64;
use leo_capacity::beamspread::Beamspread;
use leo_capacity::Oversubscription;
use leo_demand::scenario::{income_shift, scale_demand, terrestrial_buildout};
use leo_demand::{BroadbandDataset, SynthConfig};
use leo_obs::json::Json;
use starlink_divide::cost::{marginal_cost_curve, FleetCostModel};
use starlink_divide::deployment::{timeline, LaunchModel};
use starlink_divide::{
    afford, coverage_sweep, findings, sensitivity, sizing, strict, subsidy, tail, PaperModel,
};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// How many leading decks the run digest covers; a run always gets this
/// far, so runs of one seed compare across commits.
const DIGEST_DECKS: usize = 2;

/// One scenario draw. Factors are whole percents so a draw has an exact
/// key and recurs bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Draw {
    Buildout(u64),
    ScaleDemand(u32),
    IncomeShift(u32),
}

impl Draw {
    fn key(self) -> String {
        match self {
            Draw::Buildout(n) => format!("buildout:{n}"),
            Draw::ScaleDemand(p) => format!("scale:{p}%"),
            Draw::IncomeShift(p) => format!("income:{p}%"),
        }
    }

    fn is_identity(self) -> bool {
        matches!(
            self,
            Draw::Buildout(0) | Draw::ScaleDemand(100) | Draw::IncomeShift(100)
        )
    }

    fn apply(self, base: &BroadbandDataset) -> BroadbandDataset {
        match self {
            Draw::Buildout(n) => terrestrial_buildout(base, n),
            Draw::ScaleDemand(p) => scale_demand(base, p as f64 / 100.0),
            Draw::IncomeShift(p) => income_shift(base, p as f64 / 100.0),
        }
    }
}

/// The draws of one iteration: buildouts of 0..=3465 locations per cell
/// (the range `examples/bead_buildout.rs` sweeps) in steps of 165,
/// demand scaled 50..=150% and income shifted 80..=125%, both in steps
/// of 5. Each grid holds its identity draw.
fn deck() -> Vec<Draw> {
    let buildout = (0..=21).map(|i| Draw::Buildout(165 * i));
    let scale = (0..=20).map(|i| Draw::ScaleDemand(50 + 5 * i));
    let income = (0..=9).map(|i| Draw::IncomeShift(80 + 5 * i));
    buildout.chain(scale).chain(income).collect()
}

/// The seeded order of the draws (splitmix64).
struct Shuffle(u64);

impl Shuffle {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates.
    fn shuffle(&mut self, draws: &mut [Draw]) {
        for i in (1..draws.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            draws.swap(i, j);
        }
    }
}

/// Everything one draw computes, kept until the timed part is over.
/// The fields are read through `Debug`, which the digest hashes.
#[derive(Debug)]
#[allow(dead_code)]
struct Outcome {
    total_locations: u64,
    peak_locations: u64,
    table2: Vec<sizing::SizingRow>,
    sweep: coverage_sweep::CoverageSweep,
    tail: Vec<tail::TailCurve>,
    afford: Vec<afford::Affordability>,
    findings: (
        findings::Finding1,
        findings::Finding2,
        findings::Finding3,
        findings::Finding4,
    ),
    strict: Vec<strict::StrictBound>,
    efficiency: Vec<sensitivity::EfficiencyRow>,
    threshold: Vec<sensitivity::ThresholdRow>,
    subsidy: Vec<subsidy::SubsidyProgram>,
    cost: Vec<starlink_divide::cost::MarginalCost>,
    timeline: Vec<starlink_divide::deployment::TimelineRow>,
}

impl Outcome {
    fn digest(&self) -> u64 {
        fnv1a64(format!("{self:?}").as_bytes())
    }

    /// The calibrated paper pins an identity draw must reproduce.
    fn check_pins(&self) -> Result<(), String> {
        let b1 = self.table2.iter().find(|r| r.beamspread == 1);
        let got = (
            self.total_locations,
            self.peak_locations,
            b1.map(|r| (r.full_service, r.capped)),
        );
        let want = (4_670_000, 5_998, Some((79_349, 80_555)));
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "identity draw broke the paper pins: got {got:?}, want {want:?}"
            ))
        }
    }
}

fn evaluate(tr: &mut Tracer, base: &BroadbandDataset, draw: Draw) -> Outcome {
    let ds = tr.span("demand.transform", || draw.apply(base));
    let model = tr.span("core.other", || PaperModel::new(ds));
    let (total_locations, peak_locations) = (
        model.dataset.total_locations,
        model.dataset.peak_cell().locations,
    );
    let table2 = tr.span("core.sizing", || sizing::table2(&model));
    let sweep = tr.span("core.sweep", || coverage_sweep::sweep(&model));
    let tail = tr.span("core.tail", || tail::figure3(&model, 70_000));
    let afford = tr.span("core.afford", || afford::figure4(&model));
    let findings = tr.span("core.findings", || {
        (
            findings::finding1(&model),
            findings::finding2(&model),
            findings::finding3(&model),
            findings::finding4(&model),
        )
    });
    let strict = tr.span("core.other", || strict::strict_table(&model));
    let (efficiency, threshold) = tr.span("core.sensitivity", || {
        (
            sensitivity::efficiency_sweep(&model, &[3.0, 3.5, 4.0, 4.5, 5.0, 5.5]),
            sensitivity::threshold_sweep(&model, &[0.01, 0.02, 0.03, 0.05]),
        )
    });
    let (subsidy, cost, timeline) = tr.span("core.other", || {
        let fleet = FleetCostModel::starlink_estimate();
        let cost = [1u32, 5, 15]
            .into_iter()
            .flat_map(|b| {
                let spread = Beamspread::new(b).expect("nonzero");
                marginal_cost_curve(&model, &fleet, Oversubscription::FCC_CAP, spread, 3)
            })
            .collect();
        (
            subsidy::program_table(&model),
            cost,
            timeline(&model, &LaunchModel::current_estimate()),
        )
    });
    tr.span("core.other", || drop(model));
    Outcome {
        total_locations,
        peak_locations,
        table2,
        sweep,
        tail,
        afford,
        findings,
        strict,
        efficiency,
        threshold,
        subsidy,
        cost,
        timeline,
    }
}

/// How one pass over a deck is instrumented in a traced run.
#[derive(Clone, Copy)]
enum Mode {
    /// Benchmark spans on.
    Spans,
    /// Benchmark spans off, program telemetry at its default.
    Plain,
    /// Benchmark spans off and program telemetry off (`DIVIDE_OBS=off`).
    ObsOff,
}

#[derive(Default)]
struct Samples {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
}

impl Samples {
    fn push(&mut self, wall: Duration, cpu_ns: u64) {
        self.wall_ms.push(wall.as_secs_f64() * 1e3);
        self.cpu_ms.push(cpu_ns as f64 / 1e6);
    }

    fn json(&self) -> Json {
        Json::obj()
            .set("wall_ms", numbers(&self.wall_ms))
            .set("cpu_ms", numbers(&self.cpu_ms))
    }
}

fn numbers(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Runs set-up `setups` times, then passes over the deck until `seconds`
/// have gone by; returns the run record.
pub fn run(seed: u64, seconds: f64, setups: usize, traced: bool) -> Json {
    let mut failures: Vec<String> = Vec::new();
    let mut setup_s = Vec::new();
    let mut base = None;
    let mut identity_digest = 0;
    for _ in 0..setups.max(1) {
        let t0 = Instant::now();
        let ds = BroadbandDataset::generate(&SynthConfig::paper());
        let out = evaluate(&mut Tracer::new(false), &ds, Draw::Buildout(0));
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Err(e) = out.check_pins() {
            failures.push(format!("set-up: {e}"));
        }
        identity_digest = out.digest();
        base = Some(ds);
    }
    let base = base.expect("at least one set-up");

    let mut draws = deck();
    let mut order = Shuffle(seed);
    let mut seen: HashMap<String, u64> = HashMap::new();
    let mut sequence = String::new();
    let (mut attempted, mut failed, mut recurrences, mut decks) = (0u64, 0u64, 0u64, 0usize);
    let mut plain = Samples::default();
    let mut spans = Samples::default();
    let mut obs_off = Samples::default();
    let mut layers: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut deck_steal = Vec::new();

    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while decks < DIGEST_DECKS || start.elapsed() < window {
        order.shuffle(&mut draws);
        decks += 1;
        let modes: &[Mode] = if traced {
            const ROTATION: [Mode; 3] = [Mode::Spans, Mode::Plain, Mode::ObsOff];
            let r = decks % 3;
            &[ROTATION[r], ROTATION[(r + 1) % 3], ROTATION[(r + 2) % 3]]
        } else {
            &[Mode::Plain]
        };
        let ticks0 = cpu_ticks();
        // digests[m][d]: the digest of draw d in mode m.
        let mut digests: Vec<Vec<u64>> = Vec::with_capacity(modes.len());
        let mut pin_problems: Vec<Vec<String>> = vec![Vec::new(); draws.len()];
        for &mode in modes {
            leo_obs::set_enabled(!matches!(mode, Mode::ObsOff));
            let mut tr = Tracer::new(matches!(mode, Mode::Spans));
            let mut mode_digests = Vec::with_capacity(draws.len());
            // Only the draws are timed, not the checks between them.
            let (mut wall, mut cpu) = (Duration::ZERO, 0);
            for (d, &draw) in draws.iter().enumerate() {
                let cpu0 = process_cpu_ns();
                let wall0 = Instant::now();
                let out = evaluate(&mut tr, &base, draw);
                wall += wall0.elapsed();
                cpu += process_cpu_ns().saturating_sub(cpu0);
                if draw.is_identity() {
                    if let Err(e) = out.check_pins() {
                        pin_problems[d].push(e);
                    }
                }
                mode_digests.push(out.digest());
            }
            match mode {
                Mode::Plain => plain.push(wall, cpu),
                Mode::ObsOff => obs_off.push(wall, cpu),
                Mode::Spans => {
                    spans.push(wall, cpu);
                    // Every deck crosses the same layers, so the
                    // per-layer sample lists stay aligned by deck.
                    for (name, acc) in &tr.layers {
                        let s = layers.entry(name).or_default();
                        s.wall_ms.push(acc.wall_ns as f64 / 1e6);
                        s.cpu_ms.push(acc.cpu_ns as f64 / 1e6);
                    }
                }
            }
            digests.push(mode_digests);
        }
        leo_obs::set_enabled(true);
        deck_steal.push(steal_pct(ticks0, cpu_ticks()));

        for (d, &draw) in draws.iter().enumerate() {
            let key = draw.key();
            let failures_before = failures.len();
            attempted += 1;
            failures.extend(pin_problems[d].drain(..).map(|e| format!("{key}: {e}")));
            let digest = digests[0][d];
            if digests.iter().any(|m| m[d] != digest) {
                failures.push(format!(
                    "{key}: digest differs between instrumentation modes"
                ));
            }
            if draw.is_identity() && digest != identity_digest {
                failures.push(format!("{key}: identity draw digest differs from set-up"));
            }
            match seen.get(&key) {
                Some(&prev) => {
                    recurrences += 1;
                    if prev != digest {
                        failures.push(format!("{key}: digest changed when the draw recurred"));
                    }
                }
                None => {
                    seen.insert(key.clone(), digest);
                }
            }
            if decks <= DIGEST_DECKS {
                sequence.push_str(&format!("{key}={digest:016x}\n"));
            }
            if failures.len() > failures_before {
                failed += 1;
            }
        }
    }

    let mut draw_digests: Vec<(String, u64)> = seen.into_iter().collect();
    draw_digests.sort();
    let draw_digests = draw_digests
        .into_iter()
        .map(|(k, d)| (k, Json::Str(format!("{d:016x}"))));
    let layers = layers.iter().map(|(name, s)| (name.to_string(), s.json()));
    let failures = failures.into_iter().take(20).map(Json::Str);
    let peak_rss_kb = leo_obs::resource::rss_kb().map_or(0, |r| r.peak_kb);
    Json::obj()
        .set("setup_s", numbers(&setup_s))
        .set("attempted", attempted)
        .set("failed", failed)
        .set("failures", Json::Arr(failures.collect()))
        .set("decks", decks)
        .set("deck_size", draws.len())
        .set("plain", plain.json())
        .set("spans", spans.json())
        .set("obs_off", obs_off.json())
        .set("layers", Json::Obj(layers.collect()))
        .set("deck_steal_pct", numbers(&deck_steal))
        .set("peak_rss_kb", peak_rss_kb)
        .set(
            "run_digest",
            format!("{:016x}", fnv1a64(sequence.as_bytes())),
        )
        .set("digest_draws", sequence.lines().count())
        .set("distinct_draws", draw_digests.len())
        .set("recurrences", recurrences)
        .set("draw_digests", Json::Obj(draw_digests.collect()))
}
