//! The context stamp printed with every result, so that numbers from
//! different machines, gemm backends or parallelism are not compared by
//! accident.

use std::fmt;

/// Where and how a run was measured.
#[derive(Debug, Clone)]
pub struct Context {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model as the kernel reports it.
    pub cpu: String,
    /// The gemm backend every dispatch resolves to.
    pub backend: &'static str,
    /// What `workers` counts: attack `threads` or hub `slots`.
    pub workers_kind: &'static str,
    /// Attack threads or campaign-hub slots.
    pub workers: usize,
    /// Source revision, `unknown` outside a git checkout.
    pub rev: String,
}

impl Context {
    /// Stamps a run of `workload` at `seed` with `workers` of `workers_kind`.
    pub fn new(
        workload: &'static str,
        seed: u64,
        workers_kind: &'static str,
        workers: usize,
    ) -> Self {
        Context {
            workload,
            seed,
            nproc: relock_bench::bench_threads(),
            cpu: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            backend: relock_tensor::backend::active_backend().name(),
            workers_kind,
            workers,
            rev: relock_bench::report::git_rev(),
        }
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "context: workload={} seed={} nproc={} cpu=\"{}\" gemm={} {}={} rev={}",
            self.workload,
            self.seed,
            self.nproc,
            self.cpu,
            self.backend,
            self.workers_kind,
            self.workers,
            self.rev
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// Peak resident memory of this process in MiB (`VmHWM`), `None` where the
/// kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
