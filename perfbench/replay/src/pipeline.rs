//! Replays, in one process, the public-function calls that each stage
//! of `divide --scale paper all` makes: the same arguments, order,
//! thread count and cache state. Every call into a layer runs under a
//! benchmark-owned span (see `trace`), so the per-layer numbers come
//! from the benchmark's own code and the program is left untouched.
//!
//! The CLI's stage functions are private to its binary, so their bodies
//! are mirrored here with a span around each layer call. The replay
//! writes the same artifacts and collects the same stdout text as
//! `divide`, so the harness checks it against the reference exactly as
//! it checks `divide` itself, which keeps the mirror honest. What it leaves out is the
//! CLI's own work (process start, checkpoint hashing, manifest and
//! ledger writes): that remainder is reported as `cli.unattributed_ms`.

use crate::trace::Tracer;
use leo_cache::{SnapshotStore, DATASET_KIND, FIG2_KIND, SCHEMA_VERSION};
use leo_demand::{BroadbandDataset, SynthConfig};
use leo_report::{CsvWriter, Heatmap, LineChart, PointMap, Series, TextTable};
use starlink_divide::{
    afford, coverage_sweep, demand_stats, findings, sensitivity, sizing, strict, tail, PaperModel,
};
use std::path::{Path, PathBuf};

/// One replay of the `all` command.
pub struct Replay {
    pub tr: Tracer,
    out: PathBuf,
    /// The text `divide` prints to stdout.
    pub stdout: String,
}

impl Replay {
    pub fn new(tr: Tracer, out: &Path) -> Self {
        Replay {
            tr,
            out: out.to_path_buf(),
            stdout: String::new(),
        }
    }

    /// Runs every stage of `divide all`, in the CLI's order, over the
    /// snapshot cache at `cache`.
    pub fn run_all(&mut self, cache: &Path) {
        let cfg = SynthConfig::paper();
        let store = SnapshotStore::new(cache);
        let model = self.dataset(&store, &cfg);
        self.table1(&model);
        self.table2(&model);
        self.fig1(&model);
        self.fig2(&model, &store, &cfg);
        self.fig3(&model);
        self.fig4(&model);
        self.findings(&model);
        self.qoe();
        self.orbit_validate();
        self.strict(&model);
        self.sensitivity(&model);
        self.latency();
        self.uplink(&model);
        self.cost(&model);
        self.timeline(&model);
        self.export(&model);
    }

    fn print(&mut self, text: &str) {
        self.tr.count("report.bytes", text.len() as f64);
        self.stdout.push_str(text);
    }

    fn render<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.tr.span("report.render", f)
    }

    /// `divide`'s artifact write: atomic, counted under `io.*`.
    fn write(&mut self, name: &str, content: &str) {
        let path = self.out.join(name);
        self.tr
            .span("io.write", || {
                leo_fault::safe_io::write_atomic(&path, content.as_bytes())
            })
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        self.tr.count("io.write_calls", 1.0);
        self.tr.count("io.bytes_written", content.len() as f64);
    }

    /// An artifact rendered by `leo-report`.
    fn write_report(&mut self, name: &str, content: &str) {
        self.tr.count("report.bytes", content.len() as f64);
        self.write(name, content);
    }

    /// A snapshot lookup: load (read + verify) and decode, each timed.
    fn lookup<T>(
        &mut self,
        store: &SnapshotStore,
        kind: &str,
        key: u64,
        decode: impl FnOnce(&[u8]) -> Result<T, leo_cache::DecodeError>,
    ) -> Option<T> {
        self.tr.count("cache.lookups", 1.0);
        let loaded = self.tr.span("cache.load", || {
            store.load_payload(kind, key, SCHEMA_VERSION)
        })?;
        self.tr
            .count("cache.bytes_read", loaded.payload().len() as f64);
        let decoded = self
            .tr
            .span("cache.decode", || decode(loaded.payload()))
            .ok()?;
        self.tr.count("cache.hits", 1.0);
        Some(decoded)
    }

    /// A snapshot save: encode, then the store's atomic save.
    fn save(
        &mut self,
        store: &SnapshotStore,
        kind: &str,
        key: u64,
        encode: impl FnOnce() -> Vec<u8>,
    ) {
        let payload = self.tr.span("cache.encode", encode);
        self.tr.span("cache.save", || {
            store.save(kind, key, SCHEMA_VERSION, &payload)
        });
        self.tr.count("cache.bytes_written", payload.len() as f64);
    }

    /// The CLI's dataset stage: `DatasetCache::load_or_generate`, then
    /// `PaperModel::new`.
    fn dataset(&mut self, store: &SnapshotStore, cfg: &SynthConfig) -> PaperModel {
        let key = leo_cache::dataset_key(cfg);
        let ds = match self.lookup(store, DATASET_KIND, key, leo_cache::decode_dataset) {
            Some(ds) => ds,
            None => {
                let ds = self
                    .tr
                    .span("demand.generate", || BroadbandDataset::generate(cfg));
                self.tr.count("demand.locations", ds.total_locations as f64);
                self.save(store, DATASET_KIND, key, || leo_cache::encode_dataset(&ds));
                ds
            }
        };
        self.tr.span("core.other", || PaperModel::new(ds))
    }

    fn table1(&mut self, model: &PaperModel) {
        let m = &model.capacity;
        let (bands, ut_mhz, cell_gbps, ut_beams, total_beams) = self.tr.span("capacity", || {
            (
                m.bands().to_vec(),
                m.ut_downlink_mhz(),
                m.max_cell_capacity_gbps(),
                m.ut_beams(),
                m.total_beams(),
            )
        });
        let text = self.render(|| {
            let mut t = TextTable::new(
                "Table 1a: Starlink downlink spectrum (Schedule S)",
                &["band (GHz)", "width (MHz)", "beams", "usage"],
            );
            for b in &bands {
                t.row(&[
                    format!("{:.1}-{:.2}", b.lo_ghz, b.hi_ghz),
                    format!("{:.0}", b.width_mhz()),
                    b.beams.to_string(),
                    format!("{:?}", b.usage),
                ]);
            }
            t.render()
        });
        self.print(&text);

        let peak = self
            .tr
            .span("core.other", || model.dataset.peak_cell().locations);
        let oversub = self.tr.span("capacity", || {
            leo_capacity::required_oversubscription(peak, cell_gbps)
        });
        let efficiency = m.spectral_efficiency_bps_hz;
        let text = self.render(|| {
            let mut t = TextTable::new(
                "Table 1b: Single-satellite capacity model",
                &["parameter", "value"],
            );
            t.row(&["UT downlink spectrum".into(), format!("{ut_mhz:.0} MHz")]);
            t.row(&[
                "Spectral efficiency".into(),
                format!("{efficiency:.1} bps/Hz"),
            ]);
            t.row(&[
                "Max per-cell capacity".into(),
                format!("{cell_gbps:.3} Gbps"),
            ]);
            t.row(&[
                "UT beams / total beams".into(),
                format!("{ut_beams} / {total_beams}"),
            ]);
            t.row(&["Peak cell users".into(), peak.to_string()]);
            t.row(&[
                "FCC throughput requirement".into(),
                "100/20 Mbps (DL/UL)".into(),
            ]);
            t.row(&[
                "Peak cell DL demand".into(),
                format!("{:.1} Gbps", peak as f64 * 0.1),
            ]);
            t.row(&["Max DL oversubscription".into(), format!("{oversub:.1}:1")]);
            t.render()
        });
        self.print(&text);
    }

    fn table2(&mut self, model: &PaperModel) {
        let rows = self.tr.span("core.sizing", || sizing::table2(model));
        let (text, csv) = self.render(|| {
            let mut t = TextTable::new(
                "Table 2: Predicted constellation size vs beamspread",
                &["beamspread", "full service", "max 20:1 oversub"],
            );
            let mut csv = CsvWriter::new();
            csv.record(&["beamspread", "full_service", "capped_20_1"]);
            for r in &rows {
                t.row(&[
                    r.beamspread.to_string(),
                    r.full_service.to_string(),
                    r.capped.to_string(),
                ]);
                csv.record_display(&[r.beamspread as u64, r.full_service, r.capped]);
            }
            (t.render(), csv)
        });
        self.print(&text);
        self.write_report("table2.csv", csv.finish());
    }

    fn fig1(&mut self, model: &PaperModel) {
        let stats = self
            .tr
            .span("core.other", || demand_stats::demand_stats(model));
        let text = self.render(|| {
            let mut t = TextTable::new(
                "Figure 1: distribution of un(der)served locations per cell",
                &["statistic", "value"],
            );
            t.row(&["demand cells".into(), stats.demand_cells.to_string()]);
            t.row(&["US cells".into(), stats.us_cells.to_string()]);
            t.row(&["total locations".into(), stats.total_locations.to_string()]);
            t.row(&["p50".into(), stats.p50.to_string()]);
            t.row(&["p90".into(), stats.p90.to_string()]);
            t.row(&["p99".into(), stats.p99.to_string()]);
            t.row(&["max".into(), stats.max.to_string()]);
            t.render()
        });
        self.print(&text);

        let cdf = self
            .tr
            .span("core.other", || demand_stats::cdf_series(model, 400));
        let csv = self.render(|| {
            let mut csv = CsvWriter::new();
            csv.record(&["locations_per_cell", "cumulative_probability"]);
            for &(x, p) in &cdf {
                csv.record_display(&[x as f64, p]);
            }
            csv
        });
        self.write_report("fig1_cdf.csv", csv.finish());

        let svg = self.render(|| {
            let mut chart = LineChart::new(
                "Fig 1: CDF of US un(der)served locations per service cell",
                "# of locations per cell",
                "cumulative probability",
            );
            chart.push(Series::line(
                "locations/cell",
                cdf.iter().map(|&(x, p)| (x as f64, p)).collect(),
            ));
            chart.render(720.0, 440.0)
        });
        self.write_report("fig1_cdf.svg", &svg);

        let points = self
            .tr
            .span("core.other", || demand_stats::map_series(model));
        let svg = self.render(|| {
            PointMap {
                title: "Fig 1: un(der)served locations per Starlink service cell".into(),
                points,
            }
            .render(900.0, 560.0)
        });
        self.write_report("fig1_map.svg", &svg);
    }

    fn fig2(&mut self, model: &PaperModel, store: &SnapshotStore, cfg: &SynthConfig) {
        let key = leo_cache::sweep_key(cfg, model);
        let s = match self.lookup(store, FIG2_KIND, key, leo_cache::decode_sweep) {
            Some(s) => s,
            None => {
                let s = self.tr.span("core.sweep", || coverage_sweep::sweep(model));
                self.save(store, FIG2_KIND, key, || leo_cache::encode_sweep(&s));
                s
            }
        };
        let csv = self.render(|| {
            let mut csv = CsvWriter::new();
            csv.record(&["beamspread", "oversubscription", "fraction_served"]);
            for (bi, &b) in s.beamspreads.iter().enumerate() {
                for (ri, &r) in s.oversubs.iter().enumerate() {
                    csv.record_display(&[b as f64, r as f64, s.fraction[bi][ri]]);
                }
            }
            csv
        });
        self.write_report("fig2_sweep.csv", csv.finish());
        let svg = self.render(|| {
            Heatmap {
                title: "Fig 2: fraction of US cells served".into(),
                x_label: "oversubscription factor".into(),
                y_label: "beamspread factor".into(),
                xs: s.oversubs.clone(),
                ys: s.beamspreads.clone(),
                values: s.fraction.clone(),
            }
            .render(760.0, 460.0)
        });
        self.write_report("fig2_heatmap.svg", &svg);
        let (a, b) = self.tr.span("core.sweep", || (s.at(1, 20), s.at(14, 5)));
        self.print(&format!(
            "Figure 2: fraction served at (b=1, rho=20): {:.4}; at (b=14, rho=5): {:.4}\n",
            a.unwrap_or(f64::NAN),
            b.unwrap_or(f64::NAN)
        ));
    }

    fn fig3(&mut self, model: &PaperModel) {
        let curves = self.tr.span("core.tail", || tail::figure3(model, 70_000));
        let (csv, svg) = self.render(|| {
            let mut csv = CsvWriter::new();
            csv.record(&[
                "beamspread",
                "oversubscription",
                "locations_unserved",
                "constellation_size",
            ]);
            let mut chart = LineChart::new(
                "Fig 3: constellation size vs locations left unserved",
                "locations left unserved by Starlink",
                "size of constellation (satellites)",
            );
            chart.reverse_x = true;
            for c in &curves {
                for p in &c.points {
                    csv.record_display(&[
                        c.beamspread as f64,
                        c.oversub,
                        p.unserved as f64,
                        p.constellation as f64,
                    ]);
                }
                chart.push(Series::steps(
                    format!("b={}, oversub {:.0}:1", c.beamspread, c.oversub),
                    c.points
                        .iter()
                        .map(|p| (p.unserved as f64, p.constellation as f64))
                        .collect(),
                ));
            }
            (csv, chart.render(820.0, 480.0))
        });
        self.write_report("fig3_tail.csv", csv.finish());
        self.write_report("fig3_tail.svg", &svg);
        let mut text = String::new();
        for c in &curves {
            text.push_str(&format!(
                "Figure 3: b={:>2} rho={:>2.0}: serve-all={} satellites, first step saves {}\n",
                c.beamspread,
                c.oversub,
                c.points.first().map(|p| p.constellation).unwrap_or(0),
                c.points
                    .first()
                    .zip(c.points.get(1))
                    .map(|(a, b)| a.constellation - b.constellation)
                    .unwrap_or(0),
            ));
        }
        self.print(&text);
    }

    fn fig4(&mut self, model: &PaperModel) {
        let results = self.tr.span("core.afford", || afford::figure4(model));
        let (text, csv, svg) = self.render(|| {
            let mut t = TextTable::new(
                "Figure 4 / F4: locations unable to afford service (2% rule)",
                &["plan", "$/month", "unaffordable", "fraction"],
            );
            let mut csv = CsvWriter::new();
            csv.record(&[
                "plan",
                "monthly_usd",
                "income_proportion",
                "cumulative_locations",
            ]);
            let mut chart = LineChart::new(
                "Fig 4: un(der)served locations unable to afford service",
                "proportion of median income",
                "locations unable to afford (count)",
            );
            for r in &results {
                t.row(&[
                    r.plan.name.to_string(),
                    format!("{:.2}", r.plan.monthly_usd),
                    r.unaffordable_locations.to_string(),
                    format!("{:.1}%", 100.0 * r.unaffordable_fraction()),
                ]);
                let total = r.total_locations;
                let mut pts: Vec<(f64, f64)> = r
                    .cdf
                    .iter()
                    .map(|&(p, cum)| (p, (total - cum) as f64))
                    .collect();
                pts.insert(0, (0.0, total as f64));
                chart.push(Series::steps(r.plan.name, pts));
                for &(p, cum) in &r.cdf {
                    csv.record_with(|row| {
                        row.field(r.plan.name)
                            .field(format_args!("{:.2}", r.plan.monthly_usd))
                            .field(format_args!("{p:.5}"))
                            .field(cum);
                    });
                }
            }
            (t.render(), csv, chart.render(820.0, 480.0))
        });
        self.print(&text);
        self.write_report("fig4_affordability.csv", csv.finish());
        self.write_report("fig4_affordability.svg", &svg);
    }

    fn findings(&mut self, model: &PaperModel) {
        let (f1, f2, f3, f4) = self.tr.span("core.findings", || {
            (
                findings::finding1(model),
                findings::finding2(model),
                findings::finding3(model),
                findings::finding4(model),
            )
        });
        let text = format!(
            "F1: peak cell has {} locations demanding {:.1} Gbps -> {:.1}:1 oversubscription;\n    {} cells ({} locations) exceed the 20:1 capacity; capping at 20:1 sheds {}\n    locations and serves {:.2}% of the total.\nF2: serving all cells at <=20:1 with beamspread 2 needs {} satellites\n    ({} more than the current ~{}).\nF3: the final {} locations cost {} additional satellites (b=5, 20:1).\nF4: {} of {} locations cannot afford Starlink Residential;\n    {} cannot even with Lifeline; cable plans are affordable at {:.2}% of locations.\n",
            f1.peak_locations,
            f1.peak_demand_gbps,
            f1.peak_oversub,
            f1.over_cap_cells,
            f1.over_cap_locations,
            f1.unserved_at_cap,
            100.0 * f1.served_fraction_at_cap,
            f2.required_b2_capped,
            f2.additional_needed,
            f2.current_size,
            f3.tail_locations,
            f3.marginal_satellites,
            f4.unaffordable_residential,
            f4.total_locations,
            f4.unaffordable_with_lifeline,
            100.0 * f4.cable_affordable_fraction
        );
        self.print(&text);
    }

    fn qoe(&mut self) {
        let oversubs = [5.0, 10.0, 20.0, 35.0];
        let reports = self.tr.span("simnet.qoe", || {
            leo_simnet::busy_hour_experiment(1.0, &oversubs, 7)
        });
        let flows: usize = reports.iter().map(|r| r.flows).sum();
        self.tr.count("simnet.flows", flows as f64);
        let (text, csv) = self.render(|| {
            let mut t = TextTable::new(
                "EXT-QOE: busy-hour service quality vs oversubscription (1 Gbps beam share)",
                &[
                    "oversub",
                    "subs",
                    "flows",
                    "mean Mbps",
                    "median Mbps",
                    "p10 Mbps",
                    "full-speed %",
                ],
            );
            let mut csv = CsvWriter::new();
            csv.record(&[
                "oversub",
                "subscribers",
                "flows",
                "mean_mbps",
                "median_mbps",
                "p10_mbps",
                "full_speed_fraction",
            ]);
            for r in &reports {
                t.row(&[
                    format!("{:.0}:1", r.oversub),
                    r.subscribers.to_string(),
                    r.flows.to_string(),
                    format!("{:.1}", r.mean_mbps),
                    format!("{:.1}", r.median_mbps),
                    format!("{:.1}", r.p10_mbps),
                    format!("{:.1}%", 100.0 * r.full_speed_fraction),
                ]);
                csv.record_display(&[
                    r.oversub,
                    r.subscribers as f64,
                    r.flows as f64,
                    r.mean_mbps,
                    r.median_mbps,
                    r.p10_mbps,
                    r.full_speed_fraction,
                ]);
            }
            (t.render(), csv)
        });
        self.print(&text);
        self.write_report("qoe_oversub.csv", csv.finish());
    }

    fn orbit_validate(&mut self) {
        use leo_orbit::coverage::{coverage, expected_in_view, CoverageConfig};
        use leo_orbit::WalkerShell;

        const LATS: [f64; 7] = [0.0, 10.0, 20.0, 30.0, 37.0, 45.0, 50.0];
        const SAMPLES: u32 = 257;
        let shell = WalkerShell::new(550.0, 53.0, 36, 20, 11);
        let rows: Vec<(f64, f64, f64)> = self.tr.span("orbit.density", || {
            LATS.iter()
                .map(|&lat| {
                    let analytic =
                        leo_orbit::density_factor(lat, 53.0).expect("latitude below inclination");
                    let empirical =
                        leo_orbit::density::empirical_density_factor(&shell, lat, 2.0, SAMPLES);
                    (lat, analytic, empirical)
                })
                .collect()
        });
        // Work units follow from the arguments: every satellite is
        // propagated once per time sample per latitude.
        self.tr.count(
            "orbit.propagations",
            (LATS.len() as u64 * SAMPLES as u64 * shell.total() as u64) as f64,
        );
        let (text, csv) = self.render(|| {
            let mut t = TextTable::new(
                "EXT-COV: analytic density factor vs Monte-Carlo (53 deg, 550 km shell)",
                &["latitude", "analytic d", "empirical d", "rel err"],
            );
            let mut csv = CsvWriter::new();
            csv.record(&["latitude", "analytic", "empirical"]);
            for &(lat, analytic, empirical) in &rows {
                t.row(&[
                    format!("{lat:.0}"),
                    format!("{analytic:.4}"),
                    format!("{empirical:.4}"),
                    format!("{:.2}%", 100.0 * (empirical - analytic).abs() / analytic),
                ]);
                csv.record_display(&[lat, analytic, empirical]);
            }
            (t.render(), csv)
        });
        self.print(&text);
        self.write_report("orbit_density.csv", csv.finish());

        let shells = WalkerShell::starlink_current_2025();
        let points = [
            leo_geomath::LatLng::new(39.5, -98.35),
            leo_geomath::LatLng::new(25.8, -80.2),
            leo_geomath::LatLng::new(47.6, -122.3),
            leo_geomath::LatLng::new(37.0, -89.5),
        ];
        let cfg = CoverageConfig::default();
        let (stats, analytic) = self.tr.span("orbit.coverage", || {
            let stats = coverage(&shells, &points, &cfg);
            let analytic: Vec<f64> = points
                .iter()
                .map(|p| expected_in_view(&shells, p.lat_deg(), 25.0))
                .collect();
            (stats, analytic)
        });
        let sats: u64 = shells.iter().map(|s| s.total() as u64).sum();
        self.tr.count(
            "orbit.propagations",
            (cfg.time_samples as u64 * sats) as f64,
        );
        let text = self.render(|| {
            let mut t2 = TextTable::new(
                "EXT-COV: coverage of the ~8000-satellite constellation (min elev 25 deg)",
                &[
                    "point",
                    "min in view",
                    "mean in view",
                    "analytic mean",
                    "availability",
                ],
            );
            for ((p, s), a) in points.iter().zip(&stats).zip(&analytic) {
                t2.row(&[
                    format!("{p}"),
                    s.min_in_view.to_string(),
                    format!("{:.1}", s.mean_in_view),
                    format!("{a:.1}"),
                    format!("{:.0}%", 100.0 * s.availability),
                ]);
            }
            t2.render()
        });
        self.print(&text);
    }

    fn strict(&mut self, model: &PaperModel) {
        let rows = self.tr.span("core.other", || strict::strict_table(model));
        let (text, csv) = self.render(|| {
            let mut t = TextTable::new(
                "EXT-STRICT: paper lower bound vs strict all-cells bound (20:1 cap)",
                &[
                    "beamspread",
                    "paper bound",
                    "strict bound",
                    "underestimate",
                    "binding lat",
                    "beams",
                ],
            );
            let mut csv = CsvWriter::new();
            csv.record(&[
                "beamspread",
                "paper",
                "strict",
                "binding_lat",
                "binding_beams",
            ]);
            for r in &rows {
                t.row(&[
                    r.beamspread.to_string(),
                    r.paper_bound.to_string(),
                    r.strict_bound.to_string(),
                    format!("{:.1}%", 100.0 * r.underestimate_fraction()),
                    format!("{:.2}", r.binding_lat_deg),
                    r.binding_beams.to_string(),
                ]);
                csv.record_display(&[
                    r.beamspread as f64,
                    r.paper_bound as f64,
                    r.strict_bound as f64,
                    r.binding_lat_deg,
                    r.binding_beams as f64,
                ]);
            }
            (t.render(), csv)
        });
        self.print(&text);
        self.write_report("strict_bound.csv", csv.finish());
    }

    fn sensitivity(&mut self, model: &PaperModel) {
        let effs = self.tr.span("core.sensitivity", || {
            sensitivity::efficiency_sweep(model, &[3.0, 3.5, 4.0, 4.5, 5.0, 5.5])
        });
        let (text, csv) = self.render(|| {
            let mut t = TextTable::new(
                "ABL-EFF: spectral-efficiency ablation",
                &[
                    "bps/Hz",
                    "cell Gbps",
                    "peak oversub",
                    "shed at 20:1",
                    "b=2 capped",
                ],
            );
            let mut csv = CsvWriter::new();
            csv.record(&[
                "bps_hz",
                "cell_gbps",
                "peak_oversub",
                "unserved_at_cap",
                "b2_capped",
            ]);
            for r in &effs {
                t.row(&[
                    format!("{:.1}", r.bps_hz),
                    format!("{:.2}", r.cell_capacity_gbps),
                    format!("{:.1}:1", r.peak_oversub),
                    r.unserved_at_cap.to_string(),
                    r.b2_capped.to_string(),
                ]);
                csv.record_display(&[
                    r.bps_hz,
                    r.cell_capacity_gbps,
                    r.peak_oversub,
                    r.unserved_at_cap as f64,
                    r.b2_capped as f64,
                ]);
            }
            (t.render(), csv)
        });
        self.print(&text);
        self.write_report("ablation_efficiency.csv", csv.finish());

        let sizes = self.tr.span("core.sensitivity", || {
            sensitivity::cell_size_sweep(model, &[4, 5, 6])
        });
        let text = self.render(|| {
            let mut t2 = TextTable::new(
                "ABL-CELL: service-cell resolution ablation (b=2, 20:1)",
                &["resolution", "cell km^2", "satellites"],
            );
            for r in &sizes {
                t2.row(&[
                    r.resolution.to_string(),
                    format!("{:.1}", r.cell_area_km2),
                    r.b2_capped.to_string(),
                ]);
            }
            t2.render()
        });
        self.print(&text);

        let ths = self.tr.span("core.sensitivity", || {
            sensitivity::threshold_sweep(model, &[0.01, 0.02, 0.03, 0.05])
        });
        let text = self.render(|| {
            let mut t3 = TextTable::new(
                "ABL-AFF: affordability-threshold ablation (Starlink Residential)",
                &["threshold", "unaffordable", "fraction"],
            );
            for r in &ths {
                t3.row(&[
                    format!("{:.0}%", 100.0 * r.threshold),
                    r.unaffordable.to_string(),
                    format!("{:.1}%", 100.0 * r.fraction),
                ]);
            }
            t3.render()
        });
        self.print(&text);

        let programs = self.tr.span("core.other", || {
            starlink_divide::subsidy::program_table(model)
        });
        let text = self.render(|| {
            let mut t4 = TextTable::new(
                "EXT-SUBSIDY: subsidy program to make each plan affordable everywhere",
                &[
                    "plan",
                    "$/month",
                    "recipients",
                    "mean $/mo",
                    "max $/mo",
                    "program $/yr",
                ],
            );
            for p in &programs {
                t4.row(&[
                    p.plan.name.to_string(),
                    format!("{:.2}", p.plan.monthly_usd),
                    p.recipients.to_string(),
                    format!("{:.2}", p.mean_monthly_usd),
                    format!("{:.2}", p.max_monthly_usd),
                    format!("{:.1}M", p.annual_cost_usd / 1e6),
                ]);
            }
            t4.render()
        });
        self.print(&text);
    }

    fn latency(&mut self) {
        use leo_orbit::gateway::conus_gateways;
        use leo_orbit::isl::{user_gateway_path, IslTopology, PathMode};
        use leo_orbit::WalkerShell;

        const EPOCHS: usize = 8;
        let users = [
            ("rural Montana", leo_geomath::LatLng::new(47.0, -109.0)),
            (
                "peak-demand cell (SE Missouri)",
                leo_geomath::LatLng::new(37.0, -89.5),
            ),
            ("Appalachia", leo_geomath::LatLng::new(37.5, -81.5)),
            (
                "offshore Atlantic (600 km)",
                leo_geomath::LatLng::new(38.0, -60.0),
            ),
            (
                "mid-Atlantic (2,800 km)",
                leo_geomath::LatLng::new(35.0, -38.0),
            ),
        ];
        // Per user: (bent-pipe latencies, ISL latencies, ISL hop counts).
        type Acc = (Vec<f64>, Vec<f64>, Vec<f64>);
        let (shell_sats, per_user): (u32, Vec<Acc>) = self.tr.span("orbit.paths", || {
            let topo = IslTopology::plus_grid(WalkerShell::starlink_gen1_shell1());
            let gws = conus_gateways();
            let per_user = users
                .iter()
                .map(|(_, u)| {
                    let (mut bp, mut isl, mut hops) = (Vec::new(), Vec::new(), Vec::new());
                    for k in 0..EPOCHS {
                        let t_s = k as f64 * 731.0;
                        if let Some(p) = user_gateway_path(&topo, &gws, u, t_s, PathMode::BentPipe)
                        {
                            bp.push(p.latency_ms);
                        }
                        if let Some(p) = user_gateway_path(&topo, &gws, u, t_s, PathMode::IslRelay)
                        {
                            isl.push(p.latency_ms);
                            hops.push(p.isl_hops as f64);
                        }
                    }
                    (bp, isl, hops)
                })
                .collect();
            (topo.shell().total(), per_user)
        });
        // Each path query propagates the whole shell once.
        self.tr.count(
            "orbit.propagations",
            (users.len() * EPOCHS * 2) as f64 * shell_sats as f64,
        );
        let (text, csv) = self.render(|| {
            let mut t = TextTable::new(
                "EXT-LAT: one-way user->gateway latency, bent pipe vs ISL relay (Gen1 shell)",
                &["user", "bent-pipe ms", "ISL ms", "ISL hops"],
            );
            let mut csv = CsvWriter::new();
            csv.record(&["user", "bent_pipe_ms", "isl_ms", "isl_hops"]);
            let mean = |v: &Vec<f64>| {
                if v.is_empty() {
                    f64::NAN
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            };
            let fmt = |x: f64, n: usize, total: usize| {
                if x.is_nan() {
                    "unreachable".to_string()
                } else if n < total {
                    format!("{x:.1} ({n}/{total} epochs)")
                } else {
                    format!("{x:.1}")
                }
            };
            for ((name, _), (bp, isl, hops)) in users.iter().zip(&per_user) {
                t.row(&[
                    name.to_string(),
                    fmt(mean(bp), bp.len(), EPOCHS),
                    fmt(mean(isl), isl.len(), EPOCHS),
                    format!("{:.1}", mean(hops)),
                ]);
                csv.record(&[
                    name.to_string(),
                    format!("{:.2}", mean(bp)),
                    format!("{:.2}", mean(isl)),
                    format!("{:.2}", mean(hops)),
                ]);
            }
            (t.render(), csv)
        });
        self.print(&text);
        self.write_report("latency_paths.csv", csv.finish());
    }

    fn uplink(&mut self, model: &PaperModel) {
        use leo_capacity::uplink::{binding_direction, PolarizationReuse, UplinkModel};
        let peak = self
            .tr
            .span("core.other", || model.dataset.peak_cell().locations);
        let (rows, dl_oversub) = self.tr.span("capacity", || {
            let rows: Vec<[String; 5]> = [PolarizationReuse::Single, PolarizationReuse::Dual]
                .into_iter()
                .map(|reuse| {
                    let ul = UplinkModel::starlink(&model.capacity, reuse);
                    [
                        format!("{reuse:?}"),
                        format!("{:.2}", ul.max_cell_capacity_gbps()),
                        format!("{:.1}:1", ul.required_oversubscription(peak)),
                        ul.max_locations_servable(20.0).to_string(),
                        format!("{:?}", binding_direction(&model.capacity, &ul, peak)),
                    ]
                })
                .collect();
            let dl = leo_capacity::required_oversubscription(
                peak,
                model.capacity.max_cell_capacity_gbps(),
            );
            (rows, dl)
        });
        let text = self.render(|| {
            let mut t = TextTable::new(
                "EXT-UL: does the uplink bind? (20 Mbps/location requirement)",
                &[
                    "polarization",
                    "UL Gbps/cell",
                    "peak UL oversub",
                    "UL locs at 20:1",
                    "binding direction",
                ],
            );
            for r in &rows {
                t.row(r);
            }
            t.render()
        });
        self.print(&text);
        self.print(&format!(
            "(downlink peak requirement: {dl_oversub:.1}:1 — the paper's F1)\n"
        ));
    }

    fn cost(&mut self, model: &PaperModel) {
        use leo_capacity::beamspread::Beamspread;
        use leo_capacity::Oversubscription;
        use starlink_divide::cost::{
            average_cost_per_location_year, marginal_cost_curve, FleetCostModel,
        };
        let fleet = FleetCostModel::starlink_estimate();
        let rho = Oversubscription::FCC_CAP;
        let curves: Vec<(u32, f64, Vec<_>)> = self.tr.span("core.other", || {
            [1u32, 5, 15]
                .into_iter()
                .map(|b| {
                    let spread = Beamspread::new(b).expect("nonzero");
                    let avg = average_cost_per_location_year(model, &fleet, rho, spread);
                    (b, avg, marginal_cost_curve(model, &fleet, rho, spread, 3))
                })
                .collect()
        });
        let (text, csv) = self.render(|| {
            let mut t = TextTable::new(
                "EXT-COST: annualized marginal cost of the demand tail ($1.5M/sat, 5-yr life)",
                &[
                    "beamspread",
                    "segment locs",
                    "marginal sats",
                    "$/location/yr",
                    "fleet avg $/loc/yr",
                ],
            );
            let mut csv = CsvWriter::new();
            csv.record(&[
                "beamspread",
                "segment",
                "locations",
                "satellites",
                "usd_per_location_year",
            ]);
            for (b, avg, segments) in &curves {
                for (i, seg) in segments.iter().enumerate() {
                    t.row(&[
                        b.to_string(),
                        seg.locations.to_string(),
                        seg.satellites.to_string(),
                        format!("{:.0}", seg.usd_per_location_year),
                        if i == 0 {
                            format!("{avg:.0}")
                        } else {
                            String::new()
                        },
                    ]);
                    csv.record_display(&[
                        *b as f64,
                        i as f64,
                        seg.locations as f64,
                        seg.satellites as f64,
                        seg.usd_per_location_year,
                    ]);
                }
            }
            (t.render(), csv)
        });
        self.print(&text);
        self.print("(a $120/month subscription pays $1,440/year)\n");
        self.write_report("cost_marginal.csv", csv.finish());
    }

    fn timeline(&mut self, model: &PaperModel) {
        use starlink_divide::deployment::{timeline, LaunchModel};
        let launch = LaunchModel::current_estimate();
        let four_x = LaunchModel {
            sats_per_year: 8_000.0,
            ..launch
        };
        let (rows, b2) = self.tr.span("core.other", || {
            let rows = timeline(model, &launch);
            let b2 = timeline(model, &four_x)
                .into_iter()
                .find(|r| r.beamspread == 2)
                .expect("b=2 present");
            (rows, b2)
        });
        let text = self.render(|| {
            let mut t = TextTable::new(
                format!(
                    "EXT-TIME: years to reach each requirement at {:.0} sats/yr, {:.0}-yr life              (steady-state ceiling {:.0})",
                    launch.sats_per_year,
                    launch.lifetime_years,
                    launch.steady_state_fleet()
                ),
                &["beamspread", "required (20:1)", "years to reach"],
            );
            for row in &rows {
                t.row(&[
                    row.beamspread.to_string(),
                    row.required.to_string(),
                    match row.years {
                        Some(0.0) => "already met".to_string(),
                        Some(y) => format!("{y:.1}"),
                        None => "never (above ceiling)".to_string(),
                    },
                ]);
            }
            t.render()
        });
        self.print(&text);
        self.print(&format!(
            "(at 4x cadence — 8,000/yr — the b=2 requirement takes {})\n",
            b2.years
                .map(|y| format!("{y:.1} years"))
                .unwrap_or_else(|| "forever".into())
        ));
    }

    fn export(&mut self, model: &PaperModel) {
        let cells = self.tr.span("demand.export", || {
            leo_demand::export::cells_to_csv(&model.dataset)
        });
        self.tr.count("demand.export.bytes", cells.len() as f64);
        self.write("dataset_cells.csv", &cells);
        let counties = self.tr.span("demand.export", || {
            leo_demand::export::counties_to_csv(&model.dataset)
        });
        self.tr.count("demand.export.bytes", counties.len() as f64);
        self.write("dataset_counties.csv", &counties);
    }
}
