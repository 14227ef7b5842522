//! Every metric the ledger prints, with its unit, and the shared
//! [`Report`] a workload fills. `BENCHMARK.json` lists the same names and
//! units, and adds each metric's direction and bound; the smoke test
//! checks the two agree exactly.

use crate::stats::LayoutMeans;

/// The four memory layouts, in the order of `LayoutChoice::ALL` and under
/// their wire names.
pub const LAYOUTS: [&str; 4] = ["array", "z", "tiled", "hilbert"];

/// The two bilateral configurations of the paper's Fig 2 that the
/// ledger runs: the friendly `r1 px xyz` and the hostile `r3 pz zyx`.
pub const FILTER_CONFIGS: [&str; 2] = ["r1_px_xyz", "r3_pz_zyx"];

/// The workloads, each run in its own process.
pub const WORKLOADS: [&str; 4] = ["filter_batch", "render_orbit", "serve_hot", "serve_cold"];

/// A metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Dotted metric name.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str) -> Def {
    Def {
        name: name.into(),
        unit,
    }
}

/// End-to-end metrics: every workload reports each of them.
pub fn end_to_end() -> Vec<Def> {
    let mut v = vec![
        def("setup_s", "s"),
        def("peak_rss_mb", "MiB"),
        def("throughput_ops_s", "1/s"),
        def("latency_ms", "ms"),
    ];
    v.extend(LAYOUTS.map(|l| def(format!("layout_ms.{l}"), "ms")));
    v
}

/// Per-layer metrics, printed by every `--trace 1` run.
pub fn per_layer() -> Vec<Def> {
    let mut v = Vec::new();
    for l in LAYOUTS {
        v.push(def(format!("core.step_ns.{l}"), "ns"));
    }
    for l in LAYOUTS {
        v.push(def(format!("core.convert_ms.{l}"), "ms"));
    }
    v.push(def("datagen.phantom_ms", "ms"));
    v.push(def("datagen.combustion_ms", "ms"));
    for l in LAYOUTS {
        for c in FILTER_CONFIGS {
            v.push(def(format!("filters.pass_ms.{l}.{c}"), "ms"));
        }
    }
    v.push(def("filters.pass_ms.z.r1_px_xyz.t1", "ms"));
    v.push(def("filters.speedup_2t", "ratio"));
    for l in LAYOUTS {
        for class in ["aligned", "oblique"] {
            v.push(def(format!("volrend.frame_ms.{l}.{class}"), "ms"));
        }
    }
    for l in LAYOUTS {
        v.push(def(format!("volrend.sample_ns.{l}"), "ns"));
    }
    for p in ["plain", "supervised", "degraded", "brownout"] {
        v.push(def(format!("engine.pass_ms.{p}"), "ms"));
    }
    v.push(def("engine.busy_ms_per_req", "ms"));
    for l in LAYOUTS {
        for c in FILTER_CONFIGS {
            v.push(def(format!("memsim.l3_tca.filter.{l}.{c}"), "count"));
        }
    }
    for l in LAYOUTS {
        for vp in ["vp0", "vp2"] {
            v.push(def(format!("memsim.l3_tca.render.{l}.{vp}"), "count"));
        }
    }
    for l in LAYOUTS {
        v.push(def(format!("memsim.l2_fill.filter.{l}.r3_pz_zyx"), "count"));
    }
    v.push(def("store.import_ms", "ms"));
    v.push(def("store.fault_ms", "ms"));
    v.push(def("store.disk_mb", "MiB"));
    v.push(def("protocol.parse_us", "us"));
    v.push(def("protocol.encode_us", "us"));
    v.push(def("cache.hit_share", "ratio"));
    v.push(def("cache.spill_hit_share", "ratio"));
    v.push(def("cache.evictions_per_req", "count"));
    for k in ["hit", "build", "spill"] {
        v.push(def(format!("cache.get_ms.{k}"), "ms"));
    }
    v.push(def("service.save_ms", "ms"));
    v.push(def("service.journal_us", "us"));
    v.push(def("sched.coalesced", "count"));
    v.push(def("sched.overloaded", "count"));
    v.push(def("server.expired", "count"));
    v.push(def("server.dedup.hits", "count"));
    v.push(def("net.overhead_ms", "ms"));
    v
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (passes, frames or requests).
    pub attempted: u64,
    /// Operations that failed or failed verification.
    pub failed: u64,
    /// `(name, value)` pairs; units come from the catalog.
    pub metrics: Vec<(String, f64)>,
    /// Free-form `key=value` lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Record `latency_ms` and every `layout_ms.<layout>` from a run's
    /// operation times.
    pub fn set_times(&mut self, times: &LayoutMeans) {
        self.set("latency_ms", times.all());
        for (l, name) in LAYOUTS.iter().enumerate() {
            self.set(format!("layout_ms.{name}"), times.layout(l));
        }
    }

    /// Count one attempted operation and whether it failed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The catalog entry for `name` among `defs`.
pub fn find<'a>(defs: &'a [Def], name: &str) -> Option<&'a Def> {
    defs.iter().find(|d| d.name == name)
}

/// The layer a metric belongs to (its first dotted component, or
/// `"e2e"` for end-to-end metrics), and the layout and configuration
/// named in it, if any.
pub fn split_name(name: &str) -> (String, Option<String>, Option<String>) {
    let parts: Vec<&str> = name.split('.').collect();
    let is_layer = find(&per_layer(), name).is_some();
    let layer = if is_layer {
        parts[0].to_string()
    } else {
        "e2e".to_string()
    };
    let layout_at = parts.iter().position(|p| LAYOUTS.contains(p));
    let layout = layout_at.map(|i| parts[i].to_string());
    let config = match layout_at {
        Some(i) if i + 1 < parts.len() => Some(parts[i + 1..].join(".")),
        _ => None,
    };
    (layer, layout, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<Def> = end_to_end();
        all.extend(per_layer());
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        for d in &all {
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn names_split_into_layer_layout_and_config() {
        assert_eq!(
            split_name("filters.pass_ms.z.r1_px_xyz"),
            ("filters".into(), Some("z".into()), Some("r1_px_xyz".into()))
        );
        assert_eq!(
            split_name("layout_ms.tiled"),
            ("e2e".into(), Some("tiled".into()), None)
        );
        assert_eq!(split_name("setup_s"), ("e2e".into(), None, None));
        assert_eq!(
            split_name("filters.pass_ms.z.r1_px_xyz.t1"),
            (
                "filters".into(),
                Some("z".into()),
                Some("r1_px_xyz.t1".into())
            )
        );
        assert_eq!(split_name("net.overhead_ms"), ("net".into(), None, None));
    }
}
