/**
 * @file
 * Trace file encoding and decoding. See tracefile.hh for the format
 * contract; this file owns the wire details: LEB128 varints, zigzag
 * deltas, the per-record flag layout, CRC32, and the structural
 * validation the reader performs before any cursor runs.
 */

#include "trace/tracefile.hh"

#include <algorithm>
#include <cstring>

#include "core/regfiles.hh"
#include "sim/logging.hh"
#include "trace/wire.hh"

namespace fade
{

namespace
{

const char headMagic[8] = {'F', 'A', 'D', 'E', 'T', 'R', 'C', '1'};
const char endMagic[8] = {'F', 'A', 'D', 'E', 'E', 'N', 'D', '1'};

constexpr std::uint8_t tagBlock = 0x01;
constexpr std::uint8_t tagFooter = 0x02;

/**
 * Per-record flag bytes. flags0 packs the two enums (class in the low
 * nibble, high-level event kind in the high nibble); flags1 is bools
 * and presence bits. Presence bits are derived purely from field
 * values (a field at its default is simply absent), so
 * encode(decode(x)) == x field for field. Format v2 widened hlKind to
 * the full high nibble (room for the synchronization pseudo-ops) and
 * moved the branch outcome to flags1 bit 7, which v1 kept reserved.
 */
constexpr std::uint8_t f1HasDst = 1 << 0;
constexpr std::uint8_t f1MayPropagate = 1 << 1;
constexpr std::uint8_t f1HasRegs = 1 << 2;
constexpr std::uint8_t f1HasMem = 1 << 3;
constexpr std::uint8_t f1HasFrame = 1 << 4;
constexpr std::uint8_t f1HasTruth = 1 << 5;
constexpr std::uint8_t f1TidChanged = 1 << 6;
constexpr std::uint8_t f1Mispredict = 1 << 7;

using wire::Enc;
using wire::crc32;

/** wire::Dec bound to the trace reader's error contract: every decode
 *  failure surfaces as TraceError with the "trace <region>: ..."
 *  diagnostic the reader documents. */
[[noreturn]] void
traceDecodeFail(const std::string &msg)
{
    throw TraceError("trace " + msg);
}

struct Dec : wire::Dec
{
    Dec(const std::uint8_t *begin, std::size_t n, const char *region)
        : wire::Dec(begin, n, region, &traceDecodeFail)
    {}
};

/** Delta state, reset at every block boundary so blocks decode
 *  independently. */
struct DeltaState
{
    Addr pc = 0;
    Addr memAddr = 0;
    Addr frameBase = 0;
    ThreadId tid = 0;
};

void
encodeRecord(Enc &e, DeltaState &d, const Instruction &in)
{
    bool hasRegs = in.src1 || in.src2 || in.numSrc || in.dst;
    bool hasMem = in.memAddr != 0 || in.memSize != 4;
    bool hasFrame = in.frameBytes != 0 || in.frameBase != 0;
    bool hasTruth = in.truth != truthNone;
    bool tidChanged = in.tid != d.tid;

    std::uint8_t flags0 = std::uint8_t(in.cls) |
                          (std::uint8_t(in.hlKind) << 4);
    std::uint8_t flags1 = (in.mispredict ? f1Mispredict : 0) |
                          (in.hasDst ? f1HasDst : 0) |
                          (in.mayPropagate ? f1MayPropagate : 0) |
                          (hasRegs ? f1HasRegs : 0) |
                          (hasMem ? f1HasMem : 0) |
                          (hasFrame ? f1HasFrame : 0) |
                          (hasTruth ? f1HasTruth : 0) |
                          (tidChanged ? f1TidChanged : 0);

    e.u8(flags0);
    e.u8(flags1);
    e.svarint(in.pc - d.pc);
    d.pc = in.pc;
    if (hasRegs) {
        e.u8(in.src1);
        e.u8(in.src2);
        e.u8(in.numSrc);
        e.u8(in.dst);
    }
    if (hasMem) {
        e.svarint(in.memAddr - d.memAddr);
        d.memAddr = in.memAddr;
        e.u8(in.memSize);
    }
    if (hasFrame) {
        e.varint(in.frameBytes);
        e.svarint(in.frameBase - d.frameBase);
        d.frameBase = in.frameBase;
    }
    if (hasTruth)
        e.u8(in.truth);
    if (tidChanged) {
        e.u8(in.tid);
        d.tid = in.tid;
    }
}

void
decodeRecord(Dec &d, DeltaState &st, Instruction &out)
{
    std::uint8_t flags0 = d.u8();
    std::uint8_t flags1 = d.u8();

    std::uint8_t cls = flags0 & 0x0F;
    std::uint8_t hl = (flags0 >> 4) & 0x0F;
    if (cls >= std::uint8_t(InstClass::NumClasses))
        d.fail("invalid instruction class " + std::to_string(cls));
    if (hl > std::uint8_t(EventKind::ThreadJoin))
        d.fail("invalid high-level event kind " + std::to_string(hl));

    out = Instruction{};
    out.cls = InstClass(cls);
    out.hlKind = EventKind(hl);
    out.mispredict = (flags1 & f1Mispredict) != 0;
    out.hasDst = (flags1 & f1HasDst) != 0;
    out.mayPropagate = (flags1 & f1MayPropagate) != 0;

    st.pc += d.svarint();
    out.pc = st.pc;
    if (flags1 & f1HasRegs) {
        out.src1 = d.u8();
        out.src2 = d.u8();
        out.numSrc = d.u8();
        out.dst = d.u8();
        // Both engines index per-register tables with these.
        unsigned reg = std::max({out.src1, out.src2, out.dst});
        if (reg >= numArchRegs)
            d.fail("register index " + std::to_string(reg) +
                   " out of range");
        if (out.numSrc > 2)
            d.fail("invalid source operand count " +
                   std::to_string(out.numSrc));
    }
    if (flags1 & f1HasMem) {
        st.memAddr += d.svarint();
        out.memAddr = st.memAddr;
        out.memSize = d.u8();
    }
    if (flags1 & f1HasFrame) {
        std::uint64_t fb = d.varint();
        if (fb > 0xFFFFFFFFull)
            d.fail("frame size exceeds 32 bits");
        out.frameBytes = std::uint32_t(fb);
        st.frameBase += d.svarint();
        out.frameBase = st.frameBase;
    }
    if (flags1 & f1HasTruth)
        out.truth = d.u8();
    if (flags1 & f1TidChanged) {
        st.tid = d.u8();
        // Bounded by the metadata register file, not by the stream's
        // numThreads: an injected atomicity bug writes tid 1 into a
        // one-thread stream.
        if (st.tid >= maxThreads)
            d.fail("thread id " + std::to_string(st.tid) +
                   " out of range");
    }
    out.tid = st.tid;
}

void
encodeManifest(Enc &e, const TraceManifest &m)
{
    e.u8(m.present ? 1 : 0);
    if (!m.present)
        return;
    e.str(m.monitor);
    e.varint(m.warmupInstructions);
    e.varint(m.measureInstructions);
    e.varint(m.numShards);
    e.varint(m.clusters);
    e.varint(m.shardsPerCluster);
    e.varint(m.fadesPerShard);
    e.varint(m.remoteLatency);
    e.varint(m.sliceTicks);
    e.varint(m.eqCapacity);
    e.varint(m.ueqCapacity);
    e.str(m.coreName);
    e.varint(m.coreWidth);
    e.varint(m.robSize);
    e.u8(m.inOrder ? 1 : 0);
    e.varint(m.mispredictPenalty);
    e.u8((m.accelerated ? 1 : 0) | (m.twoCore ? 2 : 0) |
         (m.perfectConsumer ? 4 : 0));
    e.u8(m.hasFingerprint ? 1 : 0);
    if (m.hasFingerprint)
        e.fixed64(m.fingerprintHash);
}

TraceManifest
decodeManifest(Dec &d)
{
    TraceManifest m;
    std::uint8_t present = d.u8();
    if (present > 1)
        d.fail("invalid manifest presence byte");
    m.present = present != 0;
    if (!m.present)
        return m;
    m.monitor = d.str();
    m.warmupInstructions = d.varint();
    m.measureInstructions = d.varint();
    m.numShards = d.varint();
    m.clusters = d.varint();
    m.shardsPerCluster = d.varint();
    m.fadesPerShard = d.varint();
    m.remoteLatency = d.varint();
    m.sliceTicks = d.varint();
    m.eqCapacity = d.varint();
    m.ueqCapacity = d.varint();
    m.coreName = d.str();
    m.coreWidth = d.varint();
    m.robSize = d.varint();
    m.inOrder = d.u8() != 0;
    m.mispredictPenalty = d.varint();
    std::uint8_t sys = d.u8();
    if (sys & ~0x07)
        d.fail("invalid manifest system flags");
    m.accelerated = (sys & 1) != 0;
    m.twoCore = (sys & 2) != 0;
    m.perfectConsumer = (sys & 4) != 0;
    std::uint8_t hasFp = d.u8();
    if (hasFp > 1)
        d.fail("invalid manifest fingerprint flag");
    m.hasFingerprint = hasFp != 0;
    if (m.hasFingerprint)
        m.fingerprintHash = d.fixed64();
    return m;
}

} // namespace

std::uint64_t
fingerprintHash(const std::vector<std::uint64_t> &v)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint64_t w : v)
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xFF;
            h *= 1099511628211ULL;
        }
    return h;
}

//
// TraceWriter
//

TraceWriter::TraceWriter(const std::string &path) : path_(path)
{
    f_ = std::fopen(path.c_str(), "wb");
    if (!f_)
        throw TraceError("cannot open '" + path + "' for writing");
}

TraceWriter::~TraceWriter()
{
    if (closed_)
        return;
    try {
        close();
    } catch (const TraceError &e) {
        warn("trace writer shutdown: ", e.what());
    }
}

unsigned
TraceWriter::addStream(const TraceStreamMeta &meta)
{
    panic_if(headerWritten_, "trace stream added after first record");
    streams_.push_back(Stream{meta, {}, 0});
    return unsigned(streams_.size() - 1);
}

void
TraceWriter::writeBytes(const void *p, std::size_t n)
{
    if (std::fwrite(p, 1, n, f_) != n)
        throw TraceError("short write to '" + path_ + "'");
}

void
TraceWriter::writeHeader()
{
    writeBytes(headMagic, sizeof(headMagic));
    Enc e;
    e.varint(traceFormatVersion);
    e.varint(streams_.size());
    for (const Stream &s : streams_) {
        e.str(s.meta.profile);
        e.varint(s.meta.seed);
        e.varint(s.meta.numThreads);
        e.varint(s.meta.procThreads);
        e.varint(s.meta.layout.globalBase);
        e.varint(s.meta.layout.globalLen);
        e.varint(s.meta.layout.stackBase);
        e.varint(s.meta.layout.stackLen);
    }
    e.fixed64(0); // reserved
    std::uint32_t crc = crc32(e.out.data(), e.out.size());
    e.fixed32(crc);
    writeBytes(e.out.data(), e.out.size());
    headerWritten_ = true;
}

void
TraceWriter::append(unsigned stream, const Instruction &inst)
{
    panic_if(stream >= streams_.size(), "trace append to unknown stream ",
             stream);
    Stream &s = streams_[stream];
    s.buf.push_back(inst);
    if (s.buf.size() >= maxBlockRecords)
        flush(stream);
}

void
TraceWriter::flush(unsigned stream)
{
    panic_if(stream >= streams_.size(), "trace flush of unknown stream ",
             stream);
    Stream &s = streams_[stream];
    if (s.buf.empty())
        return;

    Enc payload;
    DeltaState d;
    for (const Instruction &inst : s.buf)
        encodeRecord(payload, d, inst);

    Enc block;
    block.u8(tagBlock);
    block.varint(stream);
    block.varint(s.buf.size());
    block.varint(payload.out.size());

    std::uint32_t crc = crc32(payload.out.data(), payload.out.size());

    {
        std::lock_guard<std::mutex> lock(fileMutex_);
        if (!headerWritten_)
            writeHeader();
        writeBytes(block.out.data(), block.out.size());
        writeBytes(payload.out.data(), payload.out.size());
        Enc tail;
        tail.fixed32(crc);
        writeBytes(tail.out.data(), tail.out.size());
    }

    s.records += s.buf.size();
    s.buf.clear();
}

void
TraceWriter::setManifest(const TraceManifest &m)
{
    manifest_ = m;
}

std::uint64_t
TraceWriter::records(unsigned stream) const
{
    panic_if(stream >= streams_.size(), "trace records of unknown stream ",
             stream);
    const Stream &s = streams_[stream];
    return s.records + s.buf.size();
}

void
TraceWriter::close()
{
    panic_if(closed_, "trace writer closed twice");
    for (unsigned i = 0; i < streams_.size(); ++i)
        flush(i);
    if (!headerWritten_)
        writeHeader();

    Enc body;
    body.varint(streams_.size());
    for (const Stream &s : streams_)
        body.varint(s.records);
    encodeManifest(body, manifest_);

    Enc footer;
    footer.u8(tagFooter);
    footer.out.insert(footer.out.end(), body.out.begin(), body.out.end());
    footer.fixed32(crc32(body.out.data(), body.out.size()));
    writeBytes(footer.out.data(), footer.out.size());
    writeBytes(endMagic, sizeof(endMagic));

    if (std::fclose(f_) != 0) {
        f_ = nullptr;
        closed_ = true;
        throw TraceError("error closing '" + path_ + "'");
    }
    f_ = nullptr;
    closed_ = true;
}

//
// TraceReader
//

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw TraceError("cannot open '" + path + "' for reading");
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 0) {
        std::fclose(f);
        throw TraceError("cannot size '" + path + "'");
    }
    bytes_.resize(std::size_t(size));
    std::size_t got = bytes_.empty()
                          ? 0
                          : std::fread(bytes_.data(), 1, bytes_.size(), f);
    std::fclose(f);
    if (got != bytes_.size())
        throw TraceError("short read from '" + path + "'");

    if (bytes_.size() < sizeof(headMagic) ||
        std::memcmp(bytes_.data(), headMagic, sizeof(headMagic)) != 0)
        throw TraceError("'" + path + "' is not a FADE trace (bad magic)");

    Dec d(bytes_.data() + sizeof(headMagic),
          bytes_.size() - sizeof(headMagic), "header");

    // Header: parse, then CRC-check the exact bytes just consumed.
    const std::uint8_t *headerStart = d.p;
    std::uint64_t version = d.varint();
    if (version != traceFormatVersion)
        throw TraceError("unsupported trace version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(traceFormatVersion) + ")");
    version_ = std::uint32_t(version);
    std::uint64_t nstreams = d.varint();
    if (nstreams == 0 || nstreams > 4096)
        d.fail("implausible stream count " + std::to_string(nstreams));
    for (std::uint64_t i = 0; i < nstreams; ++i) {
        TraceStreamMeta m;
        m.profile = d.str();
        m.seed = d.varint();
        std::uint64_t threads = d.varint();
        if (threads == 0 || threads > 256)
            d.fail("implausible thread count");
        m.numThreads = unsigned(threads);
        std::uint64_t proc = d.varint();
        if (proc > 256)
            d.fail("implausible process thread count");
        m.procThreads = unsigned(proc);
        m.layout.globalBase = d.varint();
        m.layout.globalLen = d.varint();
        m.layout.stackBase = d.varint();
        m.layout.stackLen = d.varint();
        streams_.push_back(std::move(m));
    }
    d.fixed64(); // reserved
    std::uint32_t wantCrc =
        crc32(headerStart, std::size_t(d.p - headerStart));
    if (d.fixed32() != wantCrc)
        d.fail("header CRC mismatch");

    blocks_.resize(streams_.size());
    std::vector<std::uint64_t> counted(streams_.size(), 0);

    // Blocks until the footer tag; every payload is CRC-checked now so
    // cursors can decode later without re-validating integrity.
    bool sawFooter = false;
    while (!sawFooter) {
        Dec b(d.p, d.remaining(), "block");
        std::uint8_t tag = b.u8();
        if (tag == tagBlock) {
            std::uint64_t stream = b.varint();
            if (stream >= streams_.size())
                b.fail("block for unknown stream " +
                       std::to_string(stream));
            std::uint64_t nrec = b.varint();
            std::uint64_t len = b.varint();
            if (len > b.remaining())
                b.fail("truncated block payload");
            std::uint64_t offset =
                std::uint64_t(b.p - bytes_.data());
            std::uint32_t crc = crc32(b.p, std::size_t(len));
            b.p += len;
            if (b.fixed32() != crc)
                b.fail("block CRC mismatch (stream " +
                       std::to_string(stream) + ")");
            blocks_[stream].push_back(BlockRef{offset, len, nrec});
            counted[stream] += nrec;
            d.p = b.p;
        } else if (tag == tagFooter) {
            const std::uint8_t *bodyStart = b.p;
            std::uint64_t n = b.varint();
            if (n != streams_.size())
                b.fail("footer stream count mismatch");
            for (std::size_t i = 0; i < streams_.size(); ++i) {
                streams_[i].records = b.varint();
                if (streams_[i].records != counted[i])
                    b.fail("stream " + std::to_string(i) +
                           " record count mismatch (footer says " +
                           std::to_string(streams_[i].records) +
                           ", blocks hold " +
                           std::to_string(counted[i]) + ")");
            }
            manifest_ = decodeManifest(b);
            std::uint32_t bodyCrc =
                crc32(bodyStart, std::size_t(b.p - bodyStart));
            if (b.fixed32() != bodyCrc)
                b.fail("footer CRC mismatch");
            if (b.remaining() != sizeof(endMagic) ||
                std::memcmp(b.p, endMagic, sizeof(endMagic)) != 0)
                b.fail("missing end marker (file truncated?)");
            sawFooter = true;
        } else {
            b.fail("unknown section tag " + std::to_string(tag));
        }
    }
}

std::uint64_t
TraceReader::streamBytes(unsigned s) const
{
    stream(s); // bounds check
    std::uint64_t n = 0;
    for (const BlockRef &b : blocks_[s])
        n += b.length;
    return n;
}

std::uint64_t
TraceReader::streamBlocks(unsigned s) const
{
    stream(s); // bounds check
    return blocks_[s].size();
}

const TraceStreamMeta &
TraceReader::stream(unsigned s) const
{
    if (s >= streams_.size())
        throw TraceError("no stream " + std::to_string(s) + " in '" +
                         path_ + "'");
    return streams_[s];
}

TraceReader::Cursor::Cursor(const TraceReader &r, unsigned stream)
    : r_(&r), stream_(stream), remaining_(r.stream(stream).records)
{
}

void
TraceReader::Cursor::loadBlock()
{
    const BlockRef &blk = r_->blocks_[stream_][blockIdx_++];
    Dec d(r_->bytes_.data() + blk.offset, std::size_t(blk.length),
          "record");
    DeltaState st;
    recs_.clear();
    recs_.resize(std::size_t(blk.nrec));
    for (std::uint64_t i = 0; i < blk.nrec; ++i)
        decodeRecord(d, st, recs_[std::size_t(i)]);
    if (d.remaining() != 0)
        d.fail("trailing bytes after last record in block");
    i_ = 0;
}

bool
TraceReader::Cursor::next(Instruction &out)
{
    InstSpan s = run(1);
    if (s.empty())
        return false;
    out = *s.data;
    return true;
}

InstSpan
TraceReader::Cursor::run(std::size_t max)
{
    if (remaining_ == 0)
        return {};
    while (i_ == recs_.size())
        loadBlock();
    std::size_t n = std::min(max, recs_.size() - i_);
    InstSpan s{recs_.data() + i_, n};
    i_ += n;
    remaining_ -= n;
    return s;
}

std::size_t
TraceReader::Cursor::prepare(std::size_t n)
{
    if (remaining_ == 0)
        return 0;
    while (i_ == recs_.size())
        loadBlock();
    return std::min(n, recs_.size() - i_);
}

} // namespace fade
