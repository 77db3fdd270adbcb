//! Shared pieces of the three workloads: options, the seeded generator,
//! data preparation, pinned engine configuration, latency samples and the
//! report every run prints.

use cypher::{
    EngineConfig, FsyncMode, MatchConfig, PartialAggMode, PlannerMode, Store, WcoJoinMode,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Capacity of the parse+plan cache the benchmark pins (the engine's
/// built-in default).
pub const PLAN_CACHE_SIZE: usize = 128;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Everything one run needs to know.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `serve-mix`, `analytic` or `durable-write`.
    pub workload: String,
    /// Seed of the generated graph and of every op stream.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Persons in the generated `powerlaw_social` graph: `NODES`, or a
    /// tiny graph in the self-test, which generates in-process.
    pub nodes: usize,
    /// Engine threads and writer sessions (`nproc`).
    pub threads: usize,
    /// Directory for data directories and trace files.
    pub out_dir: PathBuf,
    /// Generate the graph in a child process (keeps the generator's
    /// memory out of `peak_rss_mb`); the self-test generates in-process.
    pub isolate_prepare: bool,
}

/// Out-degree of every generated person.
const EDGES_PER: usize = 5;

/// splitmix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What the generated graph holds, by person `i`: out-neighbours (what
/// a 1-hop read must return) and the initial `v` property.
pub struct Expected {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    v: Vec<u32>,
}

impl Expected {
    /// The expected `q.i` values of `MATCH (p {i: k})-[:FOLLOWS]->(q)`,
    /// sorted.
    pub fn of(&self, k: usize) -> &[u32] {
        &self.targets[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// The generated `v` of person `k`.
    pub fn v(&self, k: usize) -> i64 {
        self.v[k] as i64
    }

    /// Number of persons.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of `FOLLOWS` edges.
    pub fn edges(&self) -> usize {
        self.targets.len()
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let words = self.offsets.len() + self.targets.len() + self.v.len();
        let mut bytes = Vec::with_capacity(8 + 4 * words);
        bytes.extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&(self.targets.len() as u32).to_le_bytes());
        for v in self.offsets.iter().chain(&self.targets).chain(&self.v) {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(path, bytes)
    }

    fn read(path: &Path) -> std::io::Result<Expected> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < 8 {
            return Err(std::io::Error::other("truncated expected-answers file"));
        }
        let word = |i: usize| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap());
        let (n_off, n_tgt) = (word(0) as usize, word(1) as usize);
        let n_v = n_off.saturating_sub(1);
        if n_off == 0 || bytes.len() != 4 * (2 + n_off + n_tgt + n_v) {
            return Err(std::io::Error::other("truncated expected-answers file"));
        }
        Ok(Expected {
            offsets: (0..n_off).map(|i| word(2 + i)).collect(),
            targets: (0..n_tgt).map(|i| word(2 + n_off + i)).collect(),
            v: (0..n_v).map(|i| word(2 + n_off + n_tgt + i)).collect(),
        })
    }
}

const EXPECTED_FILE: &str = "expected.bin";

/// Generates `powerlaw_social(nodes, 5, seed)`, writes it as the snapshot
/// of a fresh data directory `dir/data` with `Store::checkpoint`, and
/// records every person's out-neighbours and `v` in `dir/expected.bin`.
pub fn prepare_data(dir: &Path, nodes: usize, seed: u64) -> Result<(), String> {
    let g = cypher::workload::powerlaw_social(nodes, EDGES_PER, seed);
    let data = dir.join("data");
    std::fs::create_dir_all(&data).map_err(|e| format!("create {}: {e}", data.display()))?;
    let (mut store, _) = Store::open(&data).map_err(|e| format!("store open: {e}"))?;
    store
        .checkpoint(&g)
        .map_err(|e| format!("store checkpoint: {e}"))?;
    drop(store);
    // Person `i` is node id `i`: the generator adds nodes in order.
    let mut offsets = Vec::with_capacity(nodes + 1);
    let mut targets = Vec::new();
    let mut v = Vec::with_capacity(nodes);
    offsets.push(0u32);
    for n in 0..nodes {
        let id = cypher::NodeId(n as u64);
        let i = g.node_prop_by_name(id, "i").and_then(|v| v.as_int());
        if i != Some(n as i64) {
            return Err(format!("node {n} has i = {i:?}"));
        }
        let value = g.node_prop_by_name(id, "v").and_then(|v| v.as_int());
        v.push(
            value
                .and_then(|x| u32::try_from(x).ok())
                .ok_or(format!("node {n} has v = {value:?}"))?,
        );
        let mut out: Vec<u32> = g
            .out_rels(id)
            .iter()
            .filter_map(|&r| g.tgt(r))
            .map(|t| t.0 as u32)
            .collect();
        out.sort_unstable();
        targets.extend(out);
        offsets.push(targets.len() as u32);
    }
    Expected {
        offsets,
        targets,
        v,
    }
    .write(&dir.join(EXPECTED_FILE))
    .map_err(|e| format!("write expected: {e}"))
}

/// A prepared data directory: removed again when dropped.
pub struct Prepared {
    /// Root of this run's files.
    pub root: PathBuf,
    /// The durable data directory holding the generated snapshot.
    pub data: PathBuf,
    /// Expected answers.
    pub expected: Expected,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Prepares this run's data directory, in a child process unless the
/// options say otherwise. The child generates `NODES` persons.
pub fn prepare(opts: &Opts) -> Result<Prepared, String> {
    let root = opts.out_dir.join(format!(
        "{}-{}-{}",
        opts.workload,
        opts.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let mut prepared = Prepared {
        data: root.join("data"),
        expected: Expected {
            offsets: vec![0],
            targets: Vec::new(),
            v: Vec::new(),
        },
        root,
    };
    if opts.isolate_prepare {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = std::process::Command::new(exe)
            .arg("--prepare")
            .arg(&prepared.root)
            .args(["--seed", &opts.seed.to_string()])
            .status()
            .map_err(|e| format!("spawn prepare: {e}"))?;
        if !status.success() {
            return Err(format!("prepare child failed: {status}"));
        }
    } else {
        prepare_data(&prepared.root, opts.nodes, opts.seed)?;
    }
    let expected = Expected::read(&prepared.root.join(EXPECTED_FILE))
        .map_err(|e| format!("read expected: {e}"))?;
    if expected.len() != opts.nodes {
        return Err(format!(
            "neighbour file holds {} persons, wanted {}",
            expected.len(),
            opts.nodes
        ));
    }
    prepared.expected = expected;
    Ok(prepared)
}

/// The engine configuration of one workload, every field set explicitly
/// so that no `CYPHER_*` environment variable can change what is
/// measured. A struct literal on purpose: a field added to
/// `EngineConfig` fails to compile here until the benchmark pins it.
pub fn pinned_config(
    data: &Path,
    threads: usize,
    fsync_mode: FsyncMode,
    wal_compact_bytes: u64,
) -> EngineConfig {
    EngineConfig {
        match_config: MatchConfig::default(),
        planner_mode: PlannerMode::default(),
        use_label_index: true,
        use_property_index: true,
        wco_join: WcoJoinMode::Auto,
        morsel_size: cypher_engine::DEFAULT_MORSEL_SIZE,
        num_threads: threads,
        persistence: Some(data.to_path_buf()),
        wal_compact_bytes,
        partial_agg: PartialAggMode::Auto,
        plan_cache_size: PLAN_CACHE_SIZE,
        group_commit: true,
        fsync_mode,
        slow_query_ms: None,
        metrics_enabled: true,
        exec_metrics: None,
    }
}

/// Lines recording the effective configuration and the environment it
/// ran in: `nproc`, the `CYPHER_*` variables that are set (the pinned
/// configuration ignores them) and any malformed ones the engine found.
pub fn config_lines(cfg: &EngineConfig, nodes: usize, edges: usize) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut lines = vec![
        format!("nproc = {nproc}"),
        format!("graph = powerlaw_social: {nodes} nodes, {edges} FOLLOWS edges"),
        format!(
            "config = num_threads {} · morsel_size {} · wco_join {:?} · partial_agg {:?} · \
             planner {:?} · label_index {} · property_index {} · plan_cache_size {} · \
             group_commit {} · fsync_mode {:?} · wal_compact_bytes {} · metrics {} · \
             slow_query_ms {:?}",
            cfg.num_threads,
            cfg.morsel_size,
            cfg.wco_join,
            cfg.partial_agg,
            cfg.planner_mode,
            cfg.use_label_index,
            cfg.use_property_index,
            cfg.plan_cache_size,
            cfg.group_commit,
            cfg.fsync_mode,
            cfg.wal_compact_bytes,
            cfg.metrics_enabled,
            cfg.slow_query_ms,
        ),
    ];
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CYPHER_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    env.sort();
    lines.push(if env.is_empty() {
        "env CYPHER_* = none set".to_string()
    } else {
        format!(
            "env CYPHER_* set (ignored by the pinned config) = {}",
            env.join(" ")
        )
    });
    let issues = cypher::env_config_issues();
    lines.push(if issues.is_empty() {
        "env_config_issues = none".to_string()
    } else {
        let list: Vec<String> = issues.iter().map(|i| i.to_string()).collect();
        format!("env_config_issues = {}", list.join("; "))
    });
    lines
}

/// Latency samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    /// Records one duration.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    /// Nearest-rank quantile, in nanoseconds (0 when empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1] as f64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends another set.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }
}

/// What one closed loop measured: per-class latencies of the ops that
/// started inside the timed window.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Latency samples, by op class.
    pub lat: Vec<Samples>,
    /// Ops started inside the timed window.
    pub ops: u64,
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Failed or wrong ops.
    pub failures: Vec<String>,
}

/// A closed loop: `step` runs one op and returns its class index, its
/// latency (any answer check runs after the clock stops) and the
/// check's outcome. Ops run for `warm` first, then `seconds` are timed.
pub fn closed_loop(
    classes: usize,
    warm: Duration,
    seconds: f64,
    mut step: impl FnMut() -> (usize, Duration, Result<(), String>),
) -> LoopResult {
    let mut r = LoopResult {
        lat: vec![Samples::default(); classes],
        window_s: seconds,
        ..LoopResult::default()
    };
    let window_start = Instant::now() + warm;
    let end = window_start + Duration::from_secs_f64(seconds);
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let (class, latency, outcome) = step();
        r.attempted += 1;
        if now >= window_start {
            r.ops += 1;
            r.lat[class].push(latency);
        }
        if let Err(e) = outcome {
            r.failures.push(e);
        }
    }
    r
}

/// Runs `setup` `SETUP_REPS` times, tearing each one down (untimed)
/// before the next; returns the last set-up and the median set-up time.
pub fn measure_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            teardown(previous)?;
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.ok_or("no set-up ran")?, median(&times)))
}

impl LoopResult {
    /// The result of a loop whose thread panicked.
    pub fn panicked() -> LoopResult {
        LoopResult {
            failures: vec!["worker thread panicked".to_string()],
            ..LoopResult::default()
        }
    }
}

/// The warm-up before a timed window of `seconds`.
pub fn warm_up(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.1).min(1.0))
}

/// Merges the loops of concurrent threads, moving their failures and
/// attempted ops into `report`.
pub fn merge_loops(results: Vec<LoopResult>, report: &mut Report) -> LoopResult {
    let mut all = LoopResult::default();
    for r in results {
        all.lat
            .resize(all.lat.len().max(r.lat.len()), Samples::default());
        for (a, l) in all.lat.iter_mut().zip(&r.lat) {
            a.extend(l);
        }
        all.ops += r.ops;
        all.window_s = all.window_s.max(r.window_s);
        report.attempted += r.attempted;
        for f in r.failures {
            report.fail(f);
        }
    }
    all
}

/// Notes each class's p50 and p99 with its sample count; returns the
/// class medians in ms.
pub fn class_notes(report: &mut Report, names: &[&str], lat: &mut [Samples]) -> Vec<f64> {
    names
        .iter()
        .zip(lat.iter_mut())
        .map(|(name, l)| {
            let (p50, p99) = (l.quantile(0.5), l.quantile(0.99));
            report.note(format!(
                "{name}: p50 {:.1} us, p99 {:.1} us (n={})",
                ns_to_us(p50),
                ns_to_us(p99),
                l.len()
            ));
            ns_to_ms(p50)
        })
        .collect()
}

/// The end-to-end figures of one untraced run, with how each was taken.
pub struct EndToEnd<'a> {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// What one set-up does.
    pub setup_how: &'a str,
    /// Ops completed in the timed window, and the window.
    pub ops: u64,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Who ran the ops.
    pub ops_how: String,
    /// Latencies of the workload's read ops.
    pub reads: Samples,
    /// Which ops count as reads.
    pub reads_how: &'a str,
    /// Median latency of each op class, ms.
    pub class_medians_ms: Vec<f64>,
    /// Which classes the geometric mean is over.
    pub classes_how: &'a str,
    /// `VmHWM` right after the timed window, MB.
    pub peak_rss_mb: f64,
}

impl Report {
    /// Adds every end-to-end metric but `disk_mb`.
    pub fn end_to_end(&mut self, mut e: EndToEnd) {
        let setup = format!("median of {}", e.setup_how);
        self.metric("setup_s", e.setup_s, "s", SETUP_REPS, &setup);
        self.metric(
            "ops_per_s",
            e.ops as f64 / e.window_s,
            "ops/s",
            e.ops as usize,
            &e.ops_how,
        );
        for (name, q) in [("read_p50_us", 0.5), ("read_p95_us", 0.95)] {
            let how = format!("p{} of {}", (q * 100.0) as u32, e.reads_how);
            let v = ns_to_us(e.reads.quantile(q));
            self.metric(name, v, "us", e.reads.len(), &how);
        }
        let how = format!("geometric mean of the {} medians", e.classes_how);
        let n = e.class_medians_ms.len();
        self.metric(
            "query_geomean_ms",
            geomean(&e.class_medians_ms),
            "ms",
            n,
            &how,
        );
        let peak = e.peak_rss_mb;
        self.metric("peak_rss_mb", peak, "MB", 1, "VmHWM after the timed window");
    }
}

/// Median of a set of floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Geometric mean (0 when empty or when any value is not positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One named metric with its unit and how it was derived.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit tag.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
    /// How the value was derived (statistic, percentile).
    pub how: String,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed or answered wrongly (timed window and the
    /// correctness checks after it).
    pub failed: u64,
    /// Descriptions of every failure (capped).
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Informational lines: configuration, checks, breakdowns.
    pub info: Vec<String>,
    /// Path of the span file the traced run wrote.
    pub trace_file: Option<PathBuf>,
}

impl Report {
    /// A report for `workload`.
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            ..Report::default()
        }
    }

    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        how: &str,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            how: how.to_string(),
        });
    }

    /// Records one failed or wrong operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: String) {
        self.info.push(line);
    }

    /// Whether every operation answered correctly.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines printed before the result line.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for line in &self.info {
            let _ = writeln!(s, "[{}] {line}", self.workload);
        }
        for f in &self.failures {
            let _ = writeln!(s, "[{}] FAILED: {f}", self.workload);
        }
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            s,
            "[{}] error_rate = {rate} ratio ({} failed of {} attempted)",
            self.workload, self.failed, self.attempted
        );
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "[{}] {} = {} {} (n={}, {})",
                self.workload, m.name, m.value, m.unit, m.samples, m.how
            );
        }
        if let Some(p) = &self.trace_file {
            let _ = writeln!(s, "[{}] spans written to {}", self.workload, p.display());
        }
        s
    }

    /// The one-line JSON result object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, in MB.
pub fn dir_mb(dir: &Path) -> f64 {
    fn walk(p: &Path) -> u64 {
        std::fs::read_dir(p).map_or(0, |rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
    }
    walk(dir) as f64 / 1e6
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in a nanosecond count.
pub fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Microseconds in a nanosecond count.
pub fn ns_to_us(ns: f64) -> f64 {
    ns / 1e3
}
