//! Multi-threaded block-parallel compression, in the style of `pbzip2`
//! (which the paper's §3.5 host-compression numbers are based on: 64
//! threads at ~10 MB/s each reach the ~640 MB/s needed to overlap the
//! I/O write).
//!
//! [`ParallelCodec`] wraps any [`Codec`]: the input is split into
//! fixed-size chunks, each chunk is compressed independently on the
//! workspace executor ([`cr_core::par`]), and the framed results are
//! concatenated in chunk order into a container. Decompression is
//! likewise chunk-parallel. The wrapper is itself a `Codec`, so it can
//! be measured by the §5 harness or plugged into the NDP engine.
//!
//! Container: `PAR1`, the input length (`u64`), the chunk size (`u32`),
//! then one `[u32 len][payload]` frame per chunk. The bytes do not
//! depend on the worker count.

use cr_core::par::{default_threads, par_map_in};
use cr_obs::{Bus, Source};

use crate::{Codec, CodecError};

const MAGIC: &[u8; 4] = b"PAR1";

/// A block-parallel wrapper around any codec.
pub struct ParallelCodec {
    inner: Box<dyn Codec>,
    threads: usize,
    /// Workers actually spawned: `threads` capped at the machine's
    /// available parallelism. Oversubscribing a core only adds context
    /// switches (the container bytes are identical either way), so the
    /// cap is pure win.
    workers: usize,
    chunk_size: usize,
    /// Observability bus; disabled by default. Codec work is unclocked
    /// (`t = 0.0`) — spans mark structure, not duration.
    bus: Bus,
}

impl ParallelCodec {
    /// Wraps `inner`, using `threads` workers and `chunk_size`-byte
    /// chunks (1 MiB is a good default; pbzip2 uses its block size).
    pub fn new(inner: Box<dyn Codec>, threads: usize, chunk_size: usize) -> Self {
        assert!(threads >= 1);
        assert!(chunk_size >= 4096, "chunks too small to be worthwhile");
        ParallelCodec {
            inner,
            threads,
            workers: threads.min(default_threads()),
            chunk_size,
            bus: Bus::disabled(),
        }
    }

    /// Attaches an observability bus: each `compress` / `decompress`
    /// call emits a causal span. Observation never changes the
    /// container bytes.
    pub fn set_bus(&mut self, bus: &Bus) {
        self.bus = bus.clone();
    }

    /// Wraps with one worker per available core.
    pub fn with_available_parallelism(inner: Box<dyn Codec>) -> Self {
        Self::new(inner, default_threads(), 1 << 20)
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured chunk size in bytes.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }
}

impl Codec for ParallelCodec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn level(&self) -> u32 {
        self.inner.level()
    }

    fn label(&self) -> String {
        format!("par{}x-{}", self.threads, self.inner.label())
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        self.compress_append(input, out);
    }

    fn compress_append(&self, input: &[u8], out: &mut Vec<u8>) {
        // Codec work is unclocked; the guard's drop closes the span.
        let _span = self.bus.span(Source::Codec, "parallel_compress", 0.0);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.chunk_size as u32).to_le_bytes());
        let chunks: Vec<&[u8]> = input.chunks(self.chunk_size).collect();
        let payloads = par_map_in(self.workers, &chunks, |chunk| {
            self.inner.compress_to_vec(chunk)
        });
        for payload in payloads {
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload);
        }
    }

    fn decompress(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let _span =
            self.bus.span(Source::Codec, "parallel_decompress", 0.0);
        out.clear();
        if input.len() < 16 || &input[0..4] != MAGIC {
            return Err(CodecError::new("bad parallel container"));
        }
        let total =
            u64::from_le_bytes(input[4..12].try_into().unwrap()) as usize;
        let chunk_size =
            u32::from_le_bytes(input[12..16].try_into().unwrap()) as usize;
        if chunk_size == 0 {
            return Err(CodecError::new("zero chunk size"));
        }

        // Slice out the chunk frames.
        let mut frames: Vec<&[u8]> = Vec::new();
        let mut pos = 16usize;
        while pos < input.len() {
            if pos + 4 > input.len() {
                return Err(CodecError::new("truncated chunk header"));
            }
            let len = u32::from_le_bytes(input[pos..pos + 4].try_into().unwrap())
                as usize;
            pos += 4;
            if pos + len > input.len() {
                return Err(CodecError::new("chunk overruns container"));
            }
            frames.push(&input[pos..pos + len]);
            pos += len;
        }
        let expected_chunks = total.div_ceil(chunk_size);
        // Always checked, even for `total == 0`: the per-frame length
        // check below relies on `i * chunk_size < total`.
        if frames.len() != expected_chunks {
            return Err(CodecError::new(format!(
                "expected {expected_chunks} chunks, found {}",
                frames.len()
            )));
        }

        let results = par_map_in(self.workers, &frames, |frame| {
            self.inner.decompress_to_vec(frame)
        });
        for (i, r) in results.into_iter().enumerate() {
            let part = r?;
            let expect = chunk_size.min(total - i * chunk_size);
            if part.len() != expect {
                return Err(CodecError::new("chunk length mismatch"));
            }
            out.extend_from_slice(&part);
        }
        if out.len() != total {
            return Err(CodecError::new("parallel container size mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::Deflate;
    use crate::lzf::Lzf;

    fn par(threads: usize) -> ParallelCodec {
        ParallelCodec::new(Box::new(Deflate::new(1)), threads, 16 << 10)
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i / 13) % 251) as u8 ^ (i % 7) as u8)
            .collect()
    }

    #[test]
    fn round_trip_multi_chunk() {
        let data = sample(200_000); // ~13 chunks
        for threads in [1, 2, 4, 8] {
            let c = par(threads);
            let compressed = c.compress_to_vec(&data);
            let restored = c.decompress_to_vec(&compressed).unwrap();
            assert_eq!(restored, data, "threads {threads}");
        }
    }

    #[test]
    fn output_is_thread_count_independent() {
        let data = sample(150_000);
        let one = par(1).compress_to_vec(&data);
        let eight = par(8).compress_to_vec(&data);
        assert_eq!(one, eight, "container must be deterministic");
    }

    #[test]
    fn adversarial_chunk_counts_match_single_thread() {
        // Regression test for the old mutex-serialized job runner: every
        // thread count must produce the single-thread container for
        // chunk counts around the worker count (0, 1, n-1, n, n+1, and a
        // remainder chunk), and repeated calls (warm thread-local codec
        // state) must not perturb the bytes.
        let chunk = 4096usize;
        for nchunks in [1usize, 2, 3, 7, 8, 9, 16, 33] {
            for tail in [0usize, 1, chunk - 1] {
                let len = (nchunks - 1) * chunk + tail.max(1);
                let data = sample(len);
                let baseline = ParallelCodec::new(
                    Box::new(Lzf::new()),
                    1,
                    chunk,
                )
                .compress_to_vec(&data);
                for threads in [2usize, 3, 8] {
                    let c = ParallelCodec::new(
                        Box::new(Lzf::new()),
                        threads,
                        chunk,
                    );
                    for round in 0..2 {
                        let got = c.compress_to_vec(&data);
                        assert_eq!(
                            got, baseline,
                            "nchunks {nchunks} tail {tail} \
                             threads {threads} round {round}"
                        );
                    }
                    assert_eq!(
                        c.decompress_to_vec(&baseline).unwrap(),
                        data
                    );
                }
            }
        }
    }

    #[test]
    fn observed_codec_emits_spans_without_changing_bytes() {
        let data = sample(100_000);
        let plain = par(4).compress_to_vec(&data);
        let mut observed = par(4);
        let bus = Bus::with_sink(cr_obs::VecSink::new());
        observed.set_bus(&bus);
        let container = observed.compress_to_vec(&data);
        assert_eq!(container, plain, "observation perturbed the bytes");
        let mut back = Vec::new();
        observed.decompress(&container, &mut back).unwrap();
        assert_eq!(back, data);
        let events = bus.drain();
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| match e.kind {
                cr_obs::EventKind::SpanOpen { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["parallel_compress", "parallel_decompress"]);
        // Every open has a matching close.
        let closes = events
            .iter()
            .filter(|e| {
                matches!(e.kind, cr_obs::EventKind::SpanClose { .. })
            })
            .count();
        assert_eq!(closes, 2);
    }

    #[test]
    fn empty_and_single_chunk() {
        let c = par(4);
        for len in [0usize, 1, 100, (16 << 10) - 1, 16 << 10] {
            let data = sample(len);
            let compressed = c.compress_to_vec(&data);
            assert_eq!(c.decompress_to_vec(&compressed).unwrap(), data);
        }
    }

    #[test]
    fn label_reflects_parallelism() {
        assert_eq!(par(4).label(), "par4x-gz(1)");
        assert_eq!(par(4).name(), "gz");
    }

    #[test]
    fn parallel_speedup_on_compressible_data() {
        // Wall-clock speedup is environment-dependent; just check the
        // parallel path is not pathologically slower and round-trips.
        let data = sample(2 << 20);
        let seq = ParallelCodec::new(Box::new(Deflate::new(6)), 1, 256 << 10);
        let parl = ParallelCodec::new(Box::new(Deflate::new(6)), 4, 256 << 10);
        let t0 = std::time::Instant::now();
        let a = seq.compress_to_vec(&data);
        let t_seq = t0.elapsed();
        let t1 = std::time::Instant::now();
        let b = parl.compress_to_vec(&data);
        let t_par = t1.elapsed();
        assert_eq!(a, b);
        assert!(
            t_par < t_seq * 3,
            "parallel {t_par:?} absurdly slower than serial {t_seq:?}"
        );
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        let c = par(2);
        assert!(c.decompress_to_vec(b"XXXX").is_err());
        let data = sample(100_000);
        let compressed = c.compress_to_vec(&data);
        for cut in [4, 15, 16, 20, compressed.len() / 2] {
            assert!(
                c.decompress_to_vec(&compressed[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn inner_codec_can_differ() {
        let c = ParallelCodec::new(Box::new(Lzf::new()), 3, 8 << 10);
        let data = sample(80_000);
        let compressed = c.compress_to_vec(&data);
        assert_eq!(c.decompress_to_vec(&compressed).unwrap(), data);
    }

    #[test]
    fn with_available_parallelism_constructs() {
        let c = ParallelCodec::with_available_parallelism(Box::new(Lzf::new()));
        let data = sample(50_000);
        let compressed = c.compress_to_vec(&data);
        assert_eq!(c.decompress_to_vec(&compressed).unwrap(), data);
    }
}
