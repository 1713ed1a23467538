//! The profiler: instrumented training runs, end to end.
//!
//! [`profile`] is the reproduction's equivalent of the paper's instrumented
//! PyTorch: it builds a training program for an architecture, replays it on
//! a simulated device, and returns the full memory-behavior trace plus
//! bookkeeping.

use pinpoint_data::{DatasetSpec, TwoBlobs};
use pinpoint_device::alloc::{AllocError, AllocStats};
use pinpoint_device::{DeviceConfig, SimDevice};
use pinpoint_models::{build_training_program, Architecture, ImageDims};
use pinpoint_nn::exec::{BatchData, ExecMode, Executor};
use pinpoint_nn::{Optimizer, ProgramSummary};
use pinpoint_tensor::rng::Rng64;
use pinpoint_trace::{MemoryKind, Trace, TraceSink};
use std::fmt;

/// A per-epoch device-resident evaluation buffer.
///
/// Models coarse-grained resident data (full-dataset staging / evaluation
/// snapshots) that is touched once per epoch: the source of the paper's
/// Fig. 4 outliers (huge block, ATI ≈ epoch period). The buffer is
/// allocated at the first epoch boundary, accessed by one kernel per epoch,
/// and freed when profiling ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochEval {
    /// Iterations per epoch (how often the buffer is touched).
    pub iters_per_epoch: usize,
    /// Buffer size in bytes (the paper's outlier is 1.2 GB).
    pub buffer_bytes: usize,
}

impl EpochEval {
    /// The paper-scale configuration: a 1.2 GB buffer touched every 2900
    /// iterations (≈ 0.84 s of simulated MLP training at batch 128 — the
    /// Fig. 4 red point's 840 211 µs ATI).
    pub fn paper_scale() -> Self {
        EpochEval {
            iters_per_epoch: 2_900,
            buffer_bytes: 1_200_000_000,
        }
    }
}

/// Everything needed to run one instrumented training profile.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Model architecture.
    pub arch: Architecture,
    /// Dataset geometry.
    pub dataset: DatasetSpec,
    /// Mini-batch size.
    pub batch: usize,
    /// Training iterations to trace.
    pub iterations: usize,
    /// Optimizer emitted into the program.
    pub optimizer: Optimizer,
    /// Simulated device configuration.
    pub device: DeviceConfig,
    /// Concrete (real math) or symbolic (trace-only) execution.
    pub mode: ExecMode,
    /// Optional per-epoch evaluation buffer (Fig. 4 outlier source).
    pub epoch_eval: Option<EpochEval>,
    /// Profile the forward-only program instead of the full training
    /// iteration (the inference-footprint extension experiment).
    pub forward_only: bool,
    /// Apply activation checkpointing with this density before compiling
    /// (keep every k-th activation; `None` disables the transform).
    pub checkpoint_every: Option<usize>,
    /// Profile as one rank of a data-parallel job (adds fused-bucket
    /// gradient all-reduces between backward and the optimizer step).
    pub data_parallel: Option<pinpoint_models::DdpSpec>,
    /// RNG seed (init values, concrete data).
    pub seed: u64,
    /// Worker threads for intra-profile kernel work (concrete conv batch
    /// fan-out); 0 resolves via [`crate::parallel::configured_threads`].
    /// Never affects trace contents or numerics — only wall-clock time.
    pub threads: usize,
}

impl ProfileConfig {
    /// The paper's MLP case study: Fig. 1 topology, batch 128, caching
    /// allocator on a Titan-X-Pascal-like device, symbolic execution.
    pub fn mlp_case_study(iterations: usize) -> Self {
        ProfileConfig {
            arch: Architecture::Mlp(pinpoint_models::MlpConfig::default()),
            dataset: DatasetSpec::two_blobs(),
            batch: 128,
            iterations,
            optimizer: Optimizer::Sgd { lr: 0.05 },
            device: DeviceConfig::titan_x_pascal(),
            mode: ExecMode::Symbolic,
            epoch_eval: None,
            forward_only: false,
            checkpoint_every: None,
            data_parallel: None,
            seed: 0x9_1517,
            threads: 0,
        }
    }

    /// A breakdown-sweep configuration (Figs. 5–7): symbolic, 2 iterations,
    /// and a roomy 256 GB device so even ResNet-152 at batch 256 on
    /// ImageNet-sized inputs fits (the figures report *ratios*, not OOMs).
    pub fn breakdown_sweep(arch: Architecture, dataset: DatasetSpec, batch: usize) -> Self {
        ProfileConfig {
            arch,
            dataset,
            batch,
            iterations: 2,
            optimizer: Optimizer::Sgd { lr: 0.05 },
            device: DeviceConfig {
                capacity_bytes: 256 << 30,
                ..DeviceConfig::titan_x_pascal()
            },
            mode: ExecMode::Symbolic,
            epoch_eval: None,
            forward_only: false,
            checkpoint_every: None,
            data_parallel: None,
            seed: 0x9_1517,
            threads: 0,
        }
    }

    /// The effective intra-profile thread count: the explicit `threads`
    /// field, or the process-wide configuration when it is 0.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            crate::parallel::configured_threads()
        }
    }
}

/// The result of an instrumented training run.
#[derive(Debug)]
pub struct ProfileReport {
    /// Workload label, e.g. `"alexnet/cifar100/bs128"`.
    pub label: String,
    /// The full memory-behavior trace.
    pub trace: Trace,
    /// Loss per iteration (concrete mode only).
    pub loss_history: Vec<f32>,
    /// Final allocator counters.
    pub alloc_stats: AllocStats,
    /// Iterations run.
    pub iterations: usize,
    /// Static program accounting.
    pub program_summary: ProgramSummary,
    /// Total simulated time.
    pub duration_ns: u64,
}

/// The result of an instrumented training run that spilled its trace to an
/// external [`TraceSink`] (e.g. a streaming `.ptrc` writer) instead of
/// holding it in memory.
///
/// Everything from [`ProfileReport`] except the trace itself — the caller
/// re-opens whatever the sink wrote (typically with a store reader) to get
/// the events back.
#[derive(Debug)]
pub struct SinkProfileReport {
    /// Workload label, e.g. `"alexnet/cifar100/bs128"`.
    pub label: String,
    /// Events delivered to the sink.
    pub events_recorded: u64,
    /// Loss per iteration (concrete mode only).
    pub loss_history: Vec<f32>,
    /// Final allocator counters.
    pub alloc_stats: AllocStats,
    /// Iterations run.
    pub iterations: usize,
    /// Static program accounting.
    pub program_summary: ProgramSummary,
    /// Total simulated time.
    pub duration_ns: u64,
}

/// Why a profile failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The simulated device ran out of memory.
    Device(AllocError),
    /// The trace sink failed to persist the trace (I/O).
    Sink(String),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Device(e) => write!(f, "device error: {e}"),
            ProfileError::Sink(msg) => write!(f, "trace sink error: {msg}"),
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Device(e) => Some(e),
            ProfileError::Sink(_) => None,
        }
    }
}

impl From<AllocError> for ProfileError {
    fn from(e: AllocError) -> Self {
        ProfileError::Device(e)
    }
}

/// Runs one instrumented training profile.
///
/// # Errors
///
/// Returns [`ProfileError::Device`] if the device runs out of memory.
///
/// # Panics
///
/// Panics if more than one of `forward_only`, `checkpoint_every`, and
/// `data_parallel` is set — they select mutually exclusive program shapes.
pub fn profile(config: &ProfileConfig) -> Result<ProfileReport, ProfileError> {
    let device = SimDevice::new(config.device.clone());
    let run = run_on_device(config, device)?;
    let device = run.device;
    Ok(ProfileReport {
        label: workload_label(config),
        loss_history: run.loss_history,
        alloc_stats: *device.alloc_stats(),
        iterations: run.iterations,
        program_summary: run.program_summary,
        duration_ns: device.now_ns(),
        trace: device.into_trace(),
    })
}

/// Runs one instrumented training profile, streaming every event into
/// `sink` instead of materializing an in-memory trace.
///
/// The sink's [`TraceSink::finish`] is called after the run (and its
/// deferred I/O error, if any, surfaces as [`ProfileError::Sink`]), so a
/// `.ptrc` [`StoreWriter`](pinpoint_store::StoreWriter) handed in here
/// yields a complete, readable store on success.
///
/// # Errors
///
/// Returns [`ProfileError::Device`] if the device runs out of memory and
/// [`ProfileError::Sink`] if the sink fails to persist the trace.
///
/// # Panics
///
/// Panics under the same mutually-exclusive-mode rule as [`profile`].
pub fn profile_into_sink(
    config: &ProfileConfig,
    sink: Box<dyn TraceSink + Send>,
) -> Result<SinkProfileReport, ProfileError> {
    let device = SimDevice::with_sink(config.device.clone(), sink);
    let run = run_on_device(config, device)?;
    let mut device = run.device;
    device
        .finish_sink()
        .map_err(|e| ProfileError::Sink(e.to_string()))?;
    Ok(SinkProfileReport {
        label: workload_label(config),
        events_recorded: device.events_recorded(),
        loss_history: run.loss_history,
        alloc_stats: *device.alloc_stats(),
        iterations: run.iterations,
        program_summary: run.program_summary,
        duration_ns: device.now_ns(),
    })
}

fn workload_label(config: &ProfileConfig) -> String {
    format!(
        "{}/{}/bs{}",
        config.arch.name(),
        config.dataset.name,
        config.batch
    )
}

/// What a finished run hands back to the report builders.
struct RunOutcome {
    device: SimDevice,
    iterations: usize,
    loss_history: Vec<f32>,
    program_summary: ProgramSummary,
}

fn run_on_device(config: &ProfileConfig, device: SimDevice) -> Result<RunOutcome, ProfileError> {
    let modes = [
        config.forward_only,
        config.checkpoint_every.is_some(),
        config.data_parallel.is_some(),
    ]
    .iter()
    .filter(|&&m| m)
    .count();
    assert!(
        modes <= 1,
        "forward_only, checkpoint_every and data_parallel are mutually exclusive"
    );
    let dims = ImageDims {
        channels: config.dataset.channels,
        height: config.dataset.height,
        width: config.dataset.width,
    };
    let program = if let Some(ddp) = config.data_parallel {
        pinpoint_models::build_data_parallel_training_program(
            &config.arch,
            config.batch,
            dims,
            config.dataset.classes,
            config.optimizer,
            &ddp,
        )
    } else if config.forward_only {
        pinpoint_models::build_forward_program(
            &config.arch,
            config.batch,
            dims,
            config.dataset.classes,
        )
    } else if let Some(keep_every) = config.checkpoint_every {
        let (graph, inputs, loss) = pinpoint_models::build_training_graph(
            &config.arch,
            config.batch,
            dims,
            config.dataset.classes,
            config.optimizer,
        );
        let graph = pinpoint_nn::checkpoint::apply_checkpointing(&graph, loss, keep_every);
        pinpoint_nn::Program::compile(graph, inputs, loss)
    } else {
        build_training_program(
            &config.arch,
            config.batch,
            dims,
            config.dataset.classes,
            config.optimizer,
        )
    };
    let program_summary = program.summary();
    let mut exec = Executor::with_seed(program, device, config.mode, config.seed)?;
    exec.set_threads(config.resolved_threads());
    let mut data_gen = ConcreteDataGen::new(config);
    let mut eval_buffer = None;
    for i in 0..config.iterations {
        let batch = data_gen.next();
        exec.run_iteration(batch.as_ref())?;
        if let Some(eval) = config.epoch_eval {
            if (i + 1) % eval.iters_per_epoch == 0 {
                let dev = exec.device_mut();
                let buf = match eval_buffer {
                    Some(b) => b,
                    None => {
                        let b =
                            dev.malloc(eval.buffer_bytes, MemoryKind::Other, Some("epoch_eval"))?;
                        eval_buffer = Some(b);
                        b
                    }
                };
                dev.mark(format!("epoch:{}", (i + 1) / eval.iters_per_epoch));
                dev.launch_kernel(
                    "epoch_eval.update",
                    0,
                    eval.buffer_bytes as u64,
                    &[buf],
                    &[buf],
                );
            }
        }
    }
    if let Some(buf) = eval_buffer {
        exec.device_mut().free(buf)?;
    }
    let iterations = exec.iterations_run() as usize;
    let loss_history = exec.loss_history().to_vec();
    let device = exec.into_device();
    Ok(RunOutcome {
        device,
        iterations,
        loss_history,
        program_summary,
    })
}

/// Generates concrete batches when the profile runs in concrete mode.
#[derive(Debug)]
enum ConcreteDataGen {
    None,
    Blobs {
        gen: TwoBlobs,
        batch: usize,
    },
    RandomImages {
        rng: Rng64,
        numel: usize,
        batch: usize,
        classes: usize,
    },
}

impl ConcreteDataGen {
    fn new(config: &ProfileConfig) -> Self {
        if config.mode != ExecMode::Concrete {
            return ConcreteDataGen::None;
        }
        match config.arch {
            Architecture::Mlp(_) => ConcreteDataGen::Blobs {
                gen: TwoBlobs::new(config.seed),
                batch: config.batch,
            },
            _ => ConcreteDataGen::RandomImages {
                rng: Rng64::seed_from_u64(config.seed),
                numel: config.dataset.example_numel(),
                batch: config.batch,
                classes: config.dataset.classes,
            },
        }
    }

    fn next(&mut self) -> Option<BatchData> {
        match self {
            ConcreteDataGen::None => None,
            ConcreteDataGen::Blobs { gen, batch } => {
                let b = gen.next_batch(*batch);
                Some(BatchData {
                    input: b.input,
                    labels: b.labels,
                })
            }
            ConcreteDataGen::RandomImages {
                rng,
                numel,
                batch,
                classes,
            } => {
                let input: Vec<f32> = (0..*batch * *numel)
                    .map(|_| rng.gen_range_f32(-1.0, 1.0))
                    .collect();
                let labels: Vec<f32> = (0..*batch)
                    .map(|_| rng.gen_range_usize(0, *classes) as f32)
                    .collect();
                Some(BatchData { input, labels })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_case_study_produces_valid_periodic_trace() {
        let report = profile(&ProfileConfig::mlp_case_study(5)).unwrap();
        report.trace.validate().unwrap();
        assert_eq!(report.iterations, 5);
        assert!(report.duration_ns > 0);
        let iter = pinpoint_analysis::detect(&report.trace);
        assert!(iter.periodic, "{iter:?}");
    }

    #[test]
    fn concrete_mlp_learns_the_blobs() {
        let mut cfg = ProfileConfig::mlp_case_study(20);
        cfg.mode = ExecMode::Concrete;
        cfg.arch = Architecture::Mlp(pinpoint_models::MlpConfig {
            in_features: 2,
            hidden: 64, // small hidden keeps the test fast
            classes: 2,
        });
        let report = profile(&cfg).unwrap();
        assert_eq!(report.loss_history.len(), 20);
        let first = report.loss_history[0];
        let last = *report.loss_history.last().unwrap();
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn epoch_eval_creates_the_outlier_block() {
        let mut cfg = ProfileConfig::mlp_case_study(25);
        cfg.epoch_eval = Some(EpochEval {
            iters_per_epoch: 10,
            buffer_bytes: 700_000_000,
        });
        let report = profile(&cfg).unwrap();
        report.trace.validate().unwrap();
        // the buffer is touched at iters 10 and 20 → one huge ATI
        let atis = pinpoint_analysis::AtiDataset::from_trace(&report.trace);
        let big: Vec<_> = atis
            .records()
            .iter()
            .filter(|r| r.size > 600_000_000)
            .collect();
        assert!(!big.is_empty(), "outlier block has a measured ATI");
        assert!(big.iter().all(|r| r.interval_ns > 1_000_000));
    }

    #[test]
    fn sink_profile_spills_the_same_trace_to_disk() {
        let cfg = ProfileConfig::mlp_case_study(3);
        let in_mem = profile(&cfg).unwrap();
        let path = std::env::temp_dir().join(format!(
            "pinpoint-profiler-sink-{}.ptrc",
            std::process::id()
        ));
        let writer = pinpoint_store::StoreWriter::create(&path).unwrap();
        let report = profile_into_sink(&cfg, Box::new(writer)).unwrap();
        assert_eq!(report.events_recorded, in_mem.trace.len() as u64);
        assert_eq!(report.duration_ns, in_mem.duration_ns);
        assert_eq!(report.iterations, in_mem.iterations);
        let reader = pinpoint_store::StoreReader::open(&path).unwrap();
        let trace = reader.read_trace().unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(trace, in_mem.trace, "spilled trace == in-memory trace");
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let mut cfg = ProfileConfig::mlp_case_study(1);
        cfg.device.capacity_bytes = 1 << 20; // 1 MB device cannot train
        let err = profile(&cfg).unwrap_err();
        assert!(matches!(
            err,
            ProfileError::Device(AllocError::OutOfMemory { .. })
        ));
        assert!(err.to_string().contains("out of device memory"));
    }
}
