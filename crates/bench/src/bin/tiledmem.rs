//! Peak-memory smoke harness for the tiled dissimilarity build.
//!
//! Streams the tiled build over a mixed-length segment corpus without
//! ever materializing the full condensed matrix: each tile is computed,
//! folded into the k-NN accumulator, and dropped — peak memory is
//! O(tile) + O(u·k) instead of O(u²). Prints the peak RSS and, when a
//! byte budget is given, exits nonzero if the process exceeded it (the
//! `scripts/check.sh` RSS smoke check drives this, preferring
//! `/usr/bin/time -v` where available and falling back to this
//! self-report).
//!
//! Run with:
//! `cargo run --release -p bench --bin tiledmem -- [u] [tile_rows] [budget_bytes]`

use cluster::autoconf::required_k_max;
use dissim::{DissimParams, KnnAccumulator, TiledMatrix};
use rand::{Rng, SeedableRng, StdRng};

/// Same corpus shape as the `canberra_kernel` / `tiled_matrix` benches.
fn mixed_segments(u: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut segments = Vec::with_capacity(u);
    for _ in 0..u {
        let seg: Vec<u8> = match rng.gen_range(0usize..10) {
            0 | 1 => vec![rng.gen_range(0u8..8), rng.gen()],
            2 | 3 => vec![0x00, 0x01, rng.gen(), rng.gen()],
            4..=6 => {
                let mut ts = vec![0xD2, 0x3D, 0x19, rng.gen_range(0u8..4)];
                ts.extend((0..4).map(|_| rng.gen::<u8>()));
                ts
            }
            7 => (0..16).map(|_| rng.gen::<u8>()).collect(),
            _ => {
                let len = rng.gen_range(3usize..32);
                (0..len).map(|_| rng.gen_range(b'a'..=b'z')).collect()
            }
        };
        segments.push(seg);
    }
    segments
}

fn main() {
    let bench_start = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let u: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let tile_rows: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(256);
    let budget: Option<u64> = args.get(2).and_then(|a| a.parse().ok());

    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let segments = mixed_segments(u, 7);
    let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();
    let params = DissimParams::default();
    let k_max = required_k_max(u);

    let mut acc = KnnAccumulator::new(u, k_max);
    let mut tiles = 0usize;
    TiledMatrix::stream_segments(
        &values,
        &params,
        tile_rows,
        threads,
        |_, _| None,
        |_, tile, _| {
            tile.feed(&mut acc);
            tiles += 1;
        },
    );
    let table = acc.finish();
    // Touch the result so the whole chain stays observable.
    let checksum: f64 = (0..u.min(8)).map(|i| table.kth(i, 1)).sum();

    let rss = bench::peak_rss_bytes();
    let tile_bytes = 8 * tile_rows * u;
    println!(
        "tiledmem: u={u} tile_rows={tile_rows} tiles={tiles} k_max={k_max} \
         tile_bytes={tile_bytes} peak_rss_bytes={rss} knn1_sum={checksum:.6}"
    );
    bench::append_trajectory("tiledmem", bench_start.elapsed());
    if let Some(budget) = budget {
        if rss > budget {
            eprintln!("tiledmem: peak RSS {rss} exceeds budget {budget}");
            std::process::exit(1);
        }
        println!("tiledmem: peak RSS within budget ({rss} <= {budget})");
    }
}
