//! Benchmark-owned spans around calls into each layer's public
//! functions. Spans are flat (one per layer call, never nested), keyed
//! by layer name, and record wall time plus whole-process CPU time, so
//! a layer's CPU includes the pool workers it fans out to.

use crate::sys::process_cpu_ns;
use leo_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time for one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub calls: u64,
}

/// Span and counter recorder. With `on == false` a span only runs its
/// closure, which is how the overhead of the spans themselves is taken.
#[derive(Debug, Default)]
pub struct Tracer {
    pub on: bool,
    pub layers: BTreeMap<&'static str, Acc>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Runs `f` as one call into `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let cpu0 = process_cpu_ns();
        let wall0 = Instant::now();
        let out = f();
        let wall = wall0.elapsed().as_nanos() as u64;
        let cpu = process_cpu_ns().saturating_sub(cpu0);
        let acc = self.layers.entry(layer).or_default();
        acc.wall_ns += wall;
        acc.cpu_ns += cpu;
        acc.calls += 1;
        out
    }

    /// Adds `v` to a work counter. Counters are kept with spans off too.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// The recorded layers and counters as a JSON object.
    pub fn to_json(&self) -> Json {
        let layers = self.layers.iter().map(|(name, a)| {
            let layer = Json::obj()
                .set("wall_ms", a.wall_ns as f64 / 1e6)
                .set("cpu_ms", a.cpu_ns as f64 / 1e6)
                .set("calls", a.calls);
            (name.to_string(), layer)
        });
        let counts = self
            .counts
            .iter()
            .map(|(name, &v)| (name.to_string(), Json::Num(v)));
        Json::obj()
            .set("layers", Json::Obj(layers.collect()))
            .set("counts", Json::Obj(counts.collect()))
    }
}
