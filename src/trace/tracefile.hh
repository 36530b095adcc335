/**
 * @file
 * Compact versioned binary trace format ("ftrace") plus the
 * capture/replay sources that turn a monitored run into a reproducible
 * artifact. A trace file holds the dynamic application instruction
 * streams of one run — one stream per shard — exactly as the cores
 * fetched them from the workload generator, so feeding a stream back
 * through ReplaySource reproduces the run bit for bit (same events,
 * same filtering, same statistics, same bug reports) without paying
 * the generator's RNG and bookkeeping cost, and without the generator
 * having to exist at all on the replay side.
 *
 * File layout (all multi-byte integers are LEB128 varints unless noted
 * as fixed-width little-endian):
 *
 *   magic "FADETRC1" (8 bytes)
 *   header: version, stream count, per-stream metadata (profile name,
 *           seed, thread count, startup layout), a reserved fixed u64
 *           (written as 0, skipped on read), CRC32 of the header bytes
 *           (fixed u32)
 *   blocks: tag 0x01, stream id, record count, payload length,
 *           payload (delta/varint-encoded records), CRC32 of the
 *           payload (fixed u32)
 *   footer: tag 0x02, per-stream record counts, replay manifest
 *           (monitor, slice lengths, topology/core/queue knobs,
 *           expected result-fingerprint hash), CRC32 (fixed u32)
 *   magic "FADEEND1" (8 bytes)
 *
 * Records are delta-encoded against the previous record of the same
 * block (pc, memAddr, frameBase, tid), and every block resets that
 * state, so blocks decode independently and a corrupt block never
 * poisons its neighbours. The reader validates structure, CRCs, and
 * counts up front and throws TraceError — never UB — on malformed
 * input (tests/test_tracefile.cc fuzzes corruption and truncation
 * under ASan/UBSan).
 *
 * Versioning rule: any change to the record encoding, the header, or
 * the footer bumps traceFormatVersion; readers reject versions they do
 * not know. Old golden traces under tests/golden/ are regenerated when
 * the version bumps (docs/BENCHMARKS.md).
 */

#ifndef FADE_TRACE_TRACEFILE_HH
#define FADE_TRACE_TRACEFILE_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/source.hh"
#include "isa/instruction.hh"
#include "isa/layout.hh"

namespace fade
{

/** Malformed or unreadable trace file (reader), or I/O failure
 *  (writer). Always carries a human-readable diagnostic. */
class TraceError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Bumped on any incompatible change to the encoding. v2: hlKind
 *  widened to four bits (synchronization pseudo-ops), mispredict moved
 *  to the previously reserved flags1 bit, and per-stream metadata
 *  gained the owning process's total thread count. */
constexpr std::uint32_t traceFormatVersion = 2;

/** Per-stream metadata: what produced this instruction stream and the
 *  startup state a monitor needs to replay it (Monitor::initShadow
 *  reads the layout from here on the replay side). */
struct TraceStreamMeta
{
    std::string profile;
    std::uint64_t seed = 0;
    unsigned numThreads = 1;
    /** Total threads of the owning multi-threaded process, spread
     *  across all shards (trace/threads.hh); 0 for the classic
     *  single-process-per-shard workloads. */
    unsigned procThreads = 0;
    WorkloadLayout layout;
    /** Total records in the stream (filled in by the reader; ignored
     *  by TraceWriter::addStream). */
    std::uint64_t records = 0;
};

/**
 * Replay manifest: everything needed to re-run the captured experiment
 * and hard-check the result. Written into the footer by closeTrace();
 * a trace captured without one (present == false) still replays
 * through the config knobs, but trace_tool --verify requires it.
 */
struct TraceManifest
{
    bool present = false;

    std::string monitor; ///< "" = unmonitored baseline
    std::uint64_t warmupInstructions = 0;
    std::uint64_t measureInstructions = 0;

    /** System shape (result-affecting knobs only; engine/policy are
     *  proven result-invariant and deliberately excluded). */
    std::uint64_t numShards = 1;
    std::uint64_t clusters = 1;
    std::uint64_t shardsPerCluster = 0;
    std::uint64_t fadesPerShard = 1;
    std::uint64_t remoteLatency = 0;
    std::uint64_t sliceTicks = 0;
    std::uint64_t eqCapacity = 0;
    std::uint64_t ueqCapacity = 0;
    std::string coreName;
    std::uint64_t coreWidth = 0;
    std::uint64_t robSize = 0;
    bool inOrder = false;
    std::uint64_t mispredictPenalty = 0;
    bool accelerated = true;
    bool twoCore = false;
    bool perfectConsumer = false;

    /** FNV-1a hash of the run's resultFingerprint vector; valid only
     *  when hasFingerprint. */
    bool hasFingerprint = false;
    std::uint64_t fingerprintHash = 0;
};

/** FNV-1a over a fingerprint vector (the hash stored in manifests and
 *  golden-trace checks; same function the topology golden tests use). */
std::uint64_t fingerprintHash(const std::vector<std::uint64_t> &v);

/**
 * Streaming trace writer. Streams are registered once (before the
 * first record), records are buffered per stream and emitted as
 * CRC-protected blocks — either when a buffer reaches maxBlockRecords
 * or at an explicit flush() (the shard scheduler flushes at every
 * slice barrier, which keeps capture files byte-identical across
 * scheduler policies). close() writes the footer; a writer destroyed
 * without close() closes itself (best effort, errors swallowed).
 *
 * Thread-safety: append()/flush() for different streams may run on
 * different threads (each stream's buffer is touched only by the
 * thread driving that shard; the file append is serialized
 * internally). addStream(), setManifest() and close() are
 * owner-thread only.
 */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Register a stream; returns its id (dense, in call order). */
    unsigned addStream(const TraceStreamMeta &meta);

    /** Append one fetched instruction to @p stream. */
    void append(unsigned stream, const Instruction &inst);

    /** Emit @p stream's buffered records as one block (no-op when the
     *  buffer is empty). */
    void flush(unsigned stream);

    /** Attach the replay manifest written into the footer. */
    void setManifest(const TraceManifest &m);

    /** Flush every stream, write footer + end magic, close the file. */
    void close();

    const std::string &path() const { return path_; }
    std::uint64_t records(unsigned stream) const;

    /** Auto-flush threshold (bounds buffer memory on sliceless runs;
     *  scheduler slices flush well below it). */
    static constexpr std::size_t maxBlockRecords = 65536;

  private:
    void writeHeader();
    void writeBytes(const void *p, std::size_t n);

    struct Stream
    {
        TraceStreamMeta meta;
        std::vector<Instruction> buf;
        std::uint64_t records = 0;
    };

    std::string path_;
    std::FILE *f_ = nullptr;
    std::vector<Stream> streams_;
    TraceManifest manifest_;
    bool headerWritten_ = false;
    bool closed_ = false;
    /** Serializes block appends from concurrent shard flushes. */
    std::mutex fileMutex_;
};

/**
 * Validating trace reader. The constructor parses the whole file —
 * magic, header, every block header + CRC, footer, record counts —
 * and throws TraceError with a diagnostic on any inconsistency;
 * record payloads are decoded lazily, block by block, by cursors.
 * Immutable after construction, so any number of cursors (one per
 * replaying shard, possibly on different threads) may read
 * concurrently.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);

    std::uint32_t version() const { return version_; }
    unsigned numStreams() const { return unsigned(streams_.size()); }
    const TraceStreamMeta &stream(unsigned s) const;
    const TraceManifest &manifest() const { return manifest_; }
    std::uint64_t fileBytes() const { return bytes_.size(); }
    /** Encoded payload bytes of @p s's records (sum over blocks). */
    std::uint64_t streamBytes(unsigned s) const;
    /** Number of blocks holding @p s's records. */
    std::uint64_t streamBlocks(unsigned s) const;
    const std::string &path() const { return path_; }

    /** Sequential decoder over one stream's records. */
    class Cursor
    {
      public:
        /** Decode the next record into @p out.
         *  @return false at end of stream. */
        bool next(Instruction &out);

        /** Consume up to @p max records as one contiguous span of the
         *  decoded block (block-decode fast path: no per-record copy).
         *  Spans never cross block boundaries; empty at end of
         *  stream. Storage valid until the block is drained and
         *  another record is requested. */
        InstSpan run(std::size_t max);

        /** Ensure the next records are decoded; @return how many are
         *  ready to be served contiguously (min of @p n and the
         *  current block's remainder; 0 at end of stream). */
        std::size_t prepare(std::size_t n);

        std::uint64_t remaining() const { return remaining_; }

      private:
        friend class TraceReader;
        Cursor(const TraceReader &r, unsigned stream);
        void loadBlock();

        const TraceReader *r_;
        unsigned stream_;
        std::size_t blockIdx_ = 0;
        std::vector<Instruction> recs_;
        std::size_t i_ = 0;
        std::uint64_t remaining_;
    };

    Cursor cursor(unsigned stream) const { return Cursor(*this, stream); }

  private:
    friend class Cursor;

    struct BlockRef
    {
        std::uint64_t offset; ///< payload offset into bytes_
        std::uint64_t length; ///< payload length
        std::uint64_t nrec;
    };

    std::string path_;
    std::vector<std::uint8_t> bytes_;
    std::uint32_t version_ = 0;
    std::vector<TraceStreamMeta> streams_;
    std::vector<std::vector<BlockRef>> blocks_; ///< per stream
    TraceManifest manifest_;
};

/**
 * Replays one captured stream as the application core's InstSource,
 * serving contiguous runs of decoded records straight from the block
 * buffer, so replay timing is bit-identical to the live generator's.
 * At end of stream both calls report nothing; a run driven further
 * than the capture surfaces as MonitoringSystem::replayExhausted().
 */
class ReplaySource : public InstSource
{
  public:
    ReplaySource(const TraceReader &reader, unsigned stream)
        : cursor_(reader.cursor(stream))
    {}

    std::size_t
    stageRun(std::size_t n) override
    {
        return cursor_.prepare(n);
    }

    InstSpan
    fetchSpan(std::size_t max) override
    {
        InstSpan s = cursor_.run(max);
        consumed_ += s.count;
        return s;
    }

    /** Records consumed so far. */
    std::uint64_t consumed() const { return consumed_; }
    std::uint64_t remaining() const { return cursor_.remaining(); }

  private:
    TraceReader::Cursor cursor_;
    std::uint64_t consumed_ = 0;
};

/**
 * Tees a live InstSource to a trace writer without perturbing it: both
 * calls forward to the inner source (same call sequence, same RNG draw
 * order) and every fetched span is appended to the stream, so capture
 * order is consumption order. The monitoring system interposes this
 * between the generator and the app core when capture is enabled.
 */
class CaptureSource : public InstSource
{
  public:
    CaptureSource(InstSource &inner, TraceWriter &writer, unsigned stream)
        : inner_(inner), writer_(writer), stream_(stream)
    {}

    std::size_t stageRun(std::size_t n) override
    {
        return inner_.stageRun(n);
    }

    InstSpan
    fetchSpan(std::size_t max) override
    {
        InstSpan s = inner_.fetchSpan(max);
        for (const Instruction &i : s)
            writer_.append(stream_, i);
        return s;
    }

    /** Emit buffered records as a block (slice-barrier hook). */
    void flush() { writer_.flush(stream_); }

    unsigned stream() const { return stream_; }

  private:
    InstSource &inner_;
    TraceWriter &writer_;
    unsigned stream_;
};

} // namespace fade

#endif // FADE_TRACE_TRACEFILE_HH
