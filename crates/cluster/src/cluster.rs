//! The cluster driver: stage execution and broadcast variables.

use crate::config::ClusterConfig;
use crate::error::ClusterError;
use crate::metrics::{simulate_makespan, ClusterReport, MetricsLog, StageMetrics};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A read-only value replicated to every simulated worker.
///
/// Cloning is cheap (an [`Arc`] bump), matching Spark's broadcast handles.
/// Construction goes through [`Cluster::broadcast`], which enforces the
/// per-worker memory budget.
#[derive(Debug)]
pub struct Broadcast<T> {
    value: Arc<T>,
}

impl<T> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Self { value: Arc::clone(&self.value) }
    }
}

impl<T> std::ops::Deref for Broadcast<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

/// Position in the metrics log; used to report the cost of one operation.
#[derive(Clone, Copy, Debug)]
pub struct MetricsMarker {
    stages: usize,
    shuffles: usize,
}

/// The simulated cluster: a thread pool plus metrics accounting.
///
/// Stages run one task per input partition on the pool; real thread count is
/// capped by the host's parallelism while the *simulated* makespan uses the
/// configured `workers × cores` (see [`crate::metrics`]).
pub struct Cluster {
    cfg: ClusterConfig,
    pool: rayon::ThreadPool,
    log: Mutex<MetricsLog>,
}

impl Cluster {
    /// Spins up a cluster. Thread count = `min(virtual cores, host cores)`.
    pub fn new(cfg: ClusterConfig) -> Self {
        let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2);
        let threads = cfg.total_cores().min(host).max(1);
        #[allow(
            clippy::expect_used,
            reason = "`Cluster::new` runs once at startup, before any request is accepted: a \
                      process whose thread pool cannot build cannot serve at all, so aborting \
                      here is the contract; nothing in-flight exists yet for a panic to drop"
        )]
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .thread_name(|i| format!("pasco-worker-{i}"))
            .build()
            .expect("failed to build cluster thread pool");
        Self { cfg, pool, log: Mutex::new(MetricsLog::default()) }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Replicates `value` to every worker. `bytes` is the caller-computed
    /// footprint of the value (e.g. `CsrGraph::memory_bytes`); the call
    /// fails when it exceeds the per-worker budget — the exact condition
    /// that produced the paper's Broadcasting-mode `N/A` on clue-web.
    pub fn broadcast<T>(&self, value: T, bytes: u64) -> Result<Broadcast<T>, ClusterError> {
        if bytes > self.cfg.memory_per_worker {
            return Err(ClusterError::BroadcastExceedsMemory {
                needed: bytes,
                budget: self.cfg.memory_per_worker,
            });
        }
        Ok(Broadcast { value: Arc::new(value) })
    }

    /// Runs one stage: task `i` maps `inputs[i]` to an output. Records
    /// per-task busy times and the stage's metrics under `label`.
    pub fn run_stage<In, Out, F>(&self, label: &str, inputs: Vec<In>, f: F) -> Vec<Out>
    where
        In: Send,
        Out: Send,
        F: Fn(usize, In) -> Out + Sync,
    {
        use rayon::prelude::*;
        let wall_start = Instant::now();
        let timed: Vec<(Out, Duration)> = self.pool.install(|| {
            inputs
                .into_par_iter()
                .enumerate()
                .map(|(i, input)| {
                    let t0 = Instant::now();
                    let out = f(i, input);
                    (out, t0.elapsed())
                })
                .collect()
        });
        let wall = wall_start.elapsed();
        let task_times: Vec<Duration> = timed.iter().map(|&(_, d)| d).collect();
        let busy: Duration = task_times.iter().sum();
        let max_task = task_times.iter().copied().max().unwrap_or(Duration::ZERO);
        let sim_makespan = simulate_makespan(&task_times, &self.cfg);
        self.log.lock().stages.push(StageMetrics {
            label: label.to_string(),
            tasks: task_times.len(),
            wall,
            busy,
            max_task,
            sim_makespan,
        });
        timed.into_iter().map(|(out, _)| out).collect()
    }

    /// Appends a shuffle record to the log (used by `DistVec::shuffle`).
    pub(crate) fn log_shuffle(&self, metrics: crate::metrics::ShuffleMetrics) {
        self.log.lock().shuffles.push(metrics);
    }

    /// Snapshot of the full metrics log.
    pub fn metrics(&self) -> MetricsLog {
        self.log.lock().clone()
    }

    /// Aggregated report over the full log.
    pub fn report(&self) -> ClusterReport {
        self.log.lock().report()
    }

    /// Marks the current log position; pair with [`Cluster::report_since`].
    pub fn marker(&self) -> MetricsMarker {
        let log = self.log.lock();
        MetricsMarker { stages: log.stages.len(), shuffles: log.shuffles.len() }
    }

    /// Aggregated report of everything executed after `marker`.
    pub fn report_since(&self, marker: MetricsMarker) -> ClusterReport {
        let log = self.log.lock();
        let partial = MetricsLog {
            stages: log.stages[marker.stages..].to_vec(),
            shuffles: log.shuffles[marker.shuffles..].to_vec(),
        };
        partial.report()
    }

    /// Clears the metrics log.
    pub fn reset_metrics(&self) {
        let mut log = self.log.lock();
        log.stages.clear();
        log.shuffles.clear();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stage_preserves_order_and_logs() {
        let c = Cluster::new(ClusterConfig::local(3));
        let out = c.run_stage("square", vec![1, 2, 3, 4], |_, x: i32| x * x);
        assert_eq!(out, vec![1, 4, 9, 16]);
        let m = c.metrics();
        assert_eq!(m.stages.len(), 1);
        assert_eq!(m.stages[0].tasks, 4);
        assert_eq!(m.stages[0].label, "square");
    }

    #[test]
    fn broadcast_respects_budget() {
        let c = Cluster::new(ClusterConfig::local(2).with_memory_per_worker(100));
        assert!(c.broadcast(vec![0u8; 50], 50).is_ok());
        let err = c.broadcast(vec![0u8; 500], 500).unwrap_err();
        assert_eq!(err, ClusterError::BroadcastExceedsMemory { needed: 500, budget: 100 });
    }

    #[test]
    fn broadcast_clones_share_value() {
        let c = Cluster::new(ClusterConfig::local(2));
        let b = c.broadcast(String::from("graph"), 5).unwrap();
        let b2 = b.clone();
        assert_eq!(&*b, "graph");
        assert_eq!(&*b2, "graph");
    }

    #[test]
    fn marker_scopes_reports() {
        let c = Cluster::new(ClusterConfig::local(2));
        c.run_stage("first", vec![0u32; 2], |_, x| x);
        let mark = c.marker();
        c.run_stage("second", vec![0u32; 3], |_, x| x);
        let since = c.report_since(mark);
        assert_eq!(since.stages, 1);
        assert_eq!(c.report().stages, 2);
    }

    #[test]
    fn reset_clears_log() {
        let c = Cluster::new(ClusterConfig::local(2));
        c.run_stage("s", vec![1], |_, x: i32| x);
        c.reset_metrics();
        assert_eq!(c.report().stages, 0);
    }

    #[test]
    fn tasks_actually_run_in_pool_threads() {
        let c = Cluster::new(ClusterConfig::local(2));
        let names = c.run_stage("names", vec![(); 4], |_, ()| {
            std::thread::current().name().unwrap_or("").to_string()
        });
        assert!(names.iter().all(|n| n.starts_with("pasco-worker-")), "{names:?}");
    }
}
