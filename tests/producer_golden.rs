//! Golden digests of the producer half (executor → `SimDevice` →
//! allocator → `StoreWriter`): the committed CRC-32 and length of the
//! `.ptrc` bytes `profile_into_sink` writes for a spread of models,
//! allocator policies and program shapes, plus a digest of a seeded
//! `CachingAllocator` malloc/free stream. Any change to the producer must
//! leave every byte of its output, and every allocator decision, as it
//! is here.
//!
//! On a mismatch the assertion prints the whole table as computed, in
//! the form of the constant below.

use pinpoint::core::{profile_into_sink, EpochEval, ProfileConfig};
use pinpoint::data::DatasetSpec;
use pinpoint::device::alloc::{AllocError, CachingAllocator, DeviceAllocator};
use pinpoint::device::AllocatorPolicy;
use pinpoint::models::{Architecture, DdpSpec, DenseNetDepth, MlpConfig, ResNetDepth};
use pinpoint::store::StoreWriter;
use pinpoint::tensor::rng::Rng64;
use pinpoint::trace::BlockId;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Events per chunk: small enough that the larger models span several
/// chunks, so chunk boundaries are pinned too.
const CHUNK_EVENTS: usize = 4096;

/// `(case, .ptrc length, CRC-32 of the .ptrc bytes)`.
const PROFILE_GOLDEN: &[(&str, usize, u32)] = &[
    ("mlp_case_study", 2647, 0xC54DC380),
    ("lenet5", 6637, 0x3F4ABC97),
    ("mobilenet", 68991, 0x282EAF0C),
    ("densenet121", 377958, 0xD9ABA9D4),
    ("resnet18/Caching", 61112, 0x30375903),
    ("resnet18/BestFit", 61019, 0x9E48BB2A),
    ("resnet18/Bump", 61614, 0x58249CE1),
    ("resnet18/checkpoint_every_3", 68351, 0x6679097D),
    ("resnet18/forward_only", 28388, 0xCAC4A905),
    ("resnet18/data_parallel_4", 64088, 0x093B2A68),
    ("mlp/epoch_eval", 4202, 0x61EDA437),
];

/// Digest of the 64-seed allocator stream: `(length of the encoded
/// result stream, CRC-32 of it)`.
const ALLOCATOR_GOLDEN: (usize, u32) = (410856, 0x534DF27F);

/// Bitwise CRC-32/IEEE, independent of the store's table-driven one.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// A `Write` whose bytes stay readable after the writer is boxed away.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn store_bytes(cfg: &ProfileConfig) -> Vec<u8> {
    let buf = SharedBuf::default();
    let writer = StoreWriter::with_chunk_events(buf.clone(), CHUNK_EVENTS).unwrap();
    profile_into_sink(cfg, Box::new(writer)).expect("profile into a store");
    let bytes = buf.0.lock().unwrap().clone();
    bytes
}

/// Small-batch, three-iteration variant of a sweep configuration.
fn small(arch: Architecture, dataset: DatasetSpec, batch: usize) -> ProfileConfig {
    let mut cfg = ProfileConfig::breakdown_sweep(arch, dataset, batch);
    cfg.iterations = 3;
    cfg
}

fn resnet18() -> ProfileConfig {
    small(
        Architecture::ResNet(ResNetDepth::R18),
        DatasetSpec::cifar100(),
        2,
    )
}

fn cases() -> Vec<(String, ProfileConfig)> {
    let mut mlp = ProfileConfig::mlp_case_study(3);
    mlp.batch = 16;
    let mut out = vec![
        ("mlp_case_study".to_string(), mlp.clone()),
        (
            "lenet5".to_string(),
            small(Architecture::LeNet5, DatasetSpec::mnist(), 4),
        ),
        (
            "mobilenet".to_string(),
            small(Architecture::MobileNetV1, DatasetSpec::cifar100(), 2),
        ),
        (
            "densenet121".to_string(),
            small(
                Architecture::DenseNet(DenseNetDepth::D121),
                DatasetSpec::cifar100(),
                1,
            ),
        ),
    ];
    for policy in AllocatorPolicy::ALL {
        let mut cfg = resnet18();
        cfg.device.allocator = policy;
        out.push((format!("resnet18/{policy:?}"), cfg));
    }
    let mut ckpt = resnet18();
    ckpt.checkpoint_every = Some(3);
    out.push(("resnet18/checkpoint_every_3".to_string(), ckpt));
    let mut fwd = resnet18();
    fwd.forward_only = true;
    out.push(("resnet18/forward_only".to_string(), fwd));
    let mut ddp = resnet18();
    ddp.data_parallel = Some(DdpSpec::pcie(4));
    out.push(("resnet18/data_parallel_4".to_string(), ddp));
    let mut eval = mlp;
    eval.arch = Architecture::Mlp(MlpConfig::default());
    eval.iterations = 5;
    eval.epoch_eval = Some(EpochEval {
        iters_per_epoch: 2,
        buffer_bytes: 16_000_000,
    });
    out.push(("mlp/epoch_eval".to_string(), eval));
    out
}

#[test]
fn profile_store_bytes_match_the_golden_digests() {
    let got: Vec<(String, usize, u32)> = cases()
        .into_iter()
        .map(|(name, cfg)| {
            let bytes = store_bytes(&cfg);
            (name, bytes.len(), crc32_reference(&bytes))
        })
        .collect();
    let want: Vec<(String, usize, u32)> = PROFILE_GOLDEN
        .iter()
        .map(|&(n, len, crc)| (n.to_string(), len, crc))
        .collect();
    let table: String = got
        .iter()
        .map(|(n, len, crc)| format!("    (\"{n}\", {len}, 0x{crc:08X}),\n"))
        .collect();
    assert_eq!(got, want, "producer output changed; computed:\n{table}");
}

/// DNN-shaped request sizes: many small tensors, some mid-sized
/// activations and a few large-pool ones.
fn request_size(rng: &mut Rng64) -> usize {
    match rng.gen_below(10) {
        0..=4 => rng.gen_range_usize(1, 64 << 10),
        5..=7 => rng.gen_range_usize(64 << 10, 1 << 20),
        _ => rng.gen_range_usize(1 << 20, 24 << 20),
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[test]
fn caching_allocator_stream_matches_the_golden_digest() {
    let mut log = Vec::new();
    let (mut ooms, mut retries) = (0usize, 0usize);
    for seed in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(0xA110_C000 + seed);
        // every fourth seed runs on a small device, so reservations fail
        // and the empty_cache retry (and plain OOM) paths run
        let capacity = if seed % 4 == 0 { 48 << 20 } else { 1 << 30 };
        let mut a = CachingAllocator::new(capacity);
        let mut live: Vec<BlockId> = Vec::new();
        for step in 0..400 {
            if live.is_empty() || rng.gen_below(8) < 5 {
                let reserved = a.stats().reserved_bytes;
                match a.malloc(request_size(&mut rng)) {
                    Ok(b) => {
                        // reserved shrinks across a malloc only when the
                        // OOM path released cached segments and retried
                        retries += usize::from(a.stats().reserved_bytes < reserved);
                        push_u64(&mut log, b.offset as u64);
                        push_u64(&mut log, b.size as u64);
                        live.push(b.id);
                    }
                    Err(AllocError::OutOfMemory { .. }) => {
                        ooms += 1;
                        push_u64(&mut log, u64::MAX);
                    }
                    Err(e) => panic!("seed {seed}: unexpected error {e}"),
                }
            } else {
                let id = live.remove(rng.gen_below(live.len() as u64) as usize);
                let b = a.free(id).expect("free a live block");
                push_u64(&mut log, b.offset as u64);
                push_u64(&mut log, b.size as u64);
            }
            if step % 97 == 0 {
                push_u64(&mut log, a.empty_cache() as u64);
            }
        }
        let s = a.stats();
        for v in [
            s.allocated_bytes,
            s.peak_allocated_bytes,
            s.reserved_bytes,
            s.peak_reserved_bytes,
        ] {
            push_u64(&mut log, v as u64);
        }
        push_u64(&mut log, s.num_mallocs);
        push_u64(&mut log, s.num_frees);
        push_u64(&mut log, s.cache_hit_mallocs);
        a.debug_check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    assert!(ooms > 0, "the small-device seeds must hit OOM");
    assert!(
        retries > 0,
        "the small-device seeds must retry after empty_cache"
    );
    let got = (log.len(), crc32_reference(&log));
    assert_eq!(
        got, ALLOCATOR_GOLDEN,
        "allocator decisions changed; computed ({}, 0x{:08X})",
        got.0, got.1
    );
}
