//! Microbenchmarks of the device allocators: steady-state malloc/free
//! throughput for DNN-like size mixes.
//!
//! `*_churn` cycles six fixed sizes, which the caching allocator serves
//! from exact-fit cached chunks. `*_staircase` replays a seeded
//! training-shaped pattern instead: activations pile up through the
//! forward pass and are released in reverse through the backward pass,
//! with per-layer workspaces and gradients in between, so chunks split
//! under many free neighbours and coalesce on the way down.

use pinpoint_bench::criterion::Criterion;
use pinpoint_bench::{criterion_group, criterion_main};
use pinpoint_device::alloc::{BestFitAllocator, BumpAllocator, CachingAllocator, DeviceAllocator};
use pinpoint_tensor::rng::Rng64;
use pinpoint_trace::BlockId;

const SIZES: [usize; 6] = [4096, 98_304, 262_144, 1 << 20, 6 << 20, 24 << 20];

fn churn(alloc: &mut dyn DeviceAllocator, rounds: usize) {
    for _ in 0..rounds {
        let ids: Vec<_> = SIZES.iter().map(|&s| alloc.malloc(s).unwrap().id).collect();
        for id in ids {
            alloc.free(id).unwrap();
        }
    }
}

/// Per-layer `(activation, workspace, gradient)` request sizes of the
/// staircase: log-uniform from 512 B to 8 MB, seeded.
fn staircase_layers(layers: usize) -> Vec<(usize, usize, usize)> {
    let mut rng = Rng64::seed_from_u64(0x57A1_2CA5E);
    let mut size = || (512.0 * 2f64.powf(rng.gen_range_f64(0.0, 14.0))) as usize;
    (0..layers).map(|_| (size(), size(), size())).collect()
}

/// One training-shaped iteration over `layers`.
fn staircase(alloc: &mut dyn DeviceAllocator, layers: &[(usize, usize, usize)]) {
    let mut acts: Vec<BlockId> = Vec::with_capacity(layers.len());
    for &(act, ws, _) in layers {
        acts.push(alloc.malloc(act).unwrap().id);
        let w = alloc.malloc(ws).unwrap().id;
        alloc.free(w).unwrap();
    }
    let mut upstream: Option<BlockId> = None;
    for (&(_, _, grad), act) in layers.iter().zip(acts).rev() {
        let g = alloc.malloc(grad).unwrap().id;
        alloc.free(act).unwrap();
        if let Some(u) = upstream.replace(g) {
            alloc.free(u).unwrap();
        }
    }
    if let Some(u) = upstream {
        alloc.free(u).unwrap();
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_allocator");
    g.bench_function("caching_churn", |b| {
        let mut a = CachingAllocator::new(4 << 30);
        churn(&mut a, 1); // warm the cache once
        b.iter(|| churn(&mut a, 10));
    });
    g.bench_function("best_fit_churn", |b| {
        let mut a = BestFitAllocator::new(4 << 30);
        b.iter(|| churn(&mut a, 10));
    });
    g.bench_function("bump_churn", |b| {
        let mut a = BumpAllocator::new(4 << 30);
        b.iter(|| churn(&mut a, 10));
    });
    let layers = staircase_layers(96);
    g.bench_function("caching_staircase", |b| {
        let mut a = CachingAllocator::new(4 << 30);
        staircase(&mut a, &layers); // warm the cache once
        b.iter(|| staircase(&mut a, &layers));
    });
    g.bench_function("best_fit_staircase", |b| {
        let mut a = BestFitAllocator::new(4 << 30);
        b.iter(|| staircase(&mut a, &layers));
    });
    g.bench_function("bump_staircase", |b| {
        let mut a = BumpAllocator::new(4 << 30);
        b.iter(|| staircase(&mut a, &layers));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
