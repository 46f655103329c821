#include "vecsearch/io.h"

#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "vecsearch/fastscan.h"

namespace vlr::vs
{

namespace
{

constexpr std::uint32_t kPqMagic = 0x56505131;    // "VPQ1"
constexpr std::uint32_t kCqMagic = 0x56435131;    // "VCQ1"
constexpr std::uint32_t kListsMagic = 0x564C4C31; // "VLL1"

// Upper bounds on header-declared element counts. Far above any real
// artifact, they bound allocations when a corrupt or adversarial header
// declares absurd sizes, so loaders throw IoError instead of attempting
// a multi-terabyte resize.
constexpr std::uint64_t kMaxElems = std::uint64_t{1} << 40;

void
writeU64(std::ostream &os, std::uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeU32(std::ostream &os, std::uint32_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeFloats(std::ostream &os, const float *data, std::size_t n)
{
    os.write(reinterpret_cast<const char *>(data),
             static_cast<std::streamsize>(n * sizeof(float)));
}

std::uint64_t
readU64(std::istream &is)
{
    std::uint64_t v = 0;
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!is)
        throw IoError("truncated stream");
    return v;
}

std::uint32_t
readU32(std::istream &is)
{
    std::uint32_t v = 0;
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!is)
        throw IoError("truncated stream");
    return v;
}

std::vector<float>
readFloats(std::istream &is, std::uint64_t n, const char *what)
{
    if (n > kMaxElems)
        throw IoError(std::string("implausible element count in ") +
                      what);
    std::vector<float> v(static_cast<std::size_t>(n));
    is.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    if (!is)
        throw IoError(std::string("truncated float payload in ") + what);
    return v;
}

void
expectMagic(std::istream &is, std::uint32_t magic, const char *what)
{
    if (readU32(is) != magic)
        throw IoError(std::string("bad magic for ") + what);
}

/**
 * a * b for two header-declared counts, checked by division first so a
 * wrapped product cannot pass as a small one.
 */
std::uint64_t
elemCount(std::uint64_t a, std::uint64_t b, const char *what)
{
    if (a > kMaxElems || b > kMaxElems || (b != 0 && a > kMaxElems / b))
        throw IoError(std::string("implausible element count in ") + what);
    return a * b;
}

/** The metric word: 0 is L2, 1 inner product, anything else corrupt. */
Metric
readMetric(std::istream &is, const char *what)
{
    switch (readU32(is)) {
    case 0:
        return Metric::L2;
    case 1:
        return Metric::InnerProduct;
    default:
        throw IoError(std::string("unknown metric word in ") + what);
    }
}

std::size_t
listPackedBytes(std::uint64_t count, std::size_t m)
{
    const std::uint64_t nblocks =
        (count + kFastScanBlock - 1) / kFastScanBlock;
    return static_cast<std::size_t>(nblocks * packedBlockBytes(m));
}

std::size_t
segmentBytes(std::uint64_t count, std::size_t m)
{
    return static_cast<std::size_t>(count) * sizeof(idx_t) +
           listPackedBytes(count, m);
}

std::uint64_t
alignUp(std::uint64_t v, std::uint64_t a)
{
    return (v + a - 1) / a * a;
}

PackedListsLayout
computeLayout(const std::vector<std::size_t> &sizes, std::size_t total,
              std::size_t m, std::size_t page_size)
{
    PackedListsLayout layout;
    layout.nlist = sizes.size();
    layout.total = total;
    layout.m = m;
    layout.pageSize = page_size;
    layout.segments.resize(sizes.size());

    const std::uint64_t header_bytes =
        sizeof(std::uint32_t) + 4 * sizeof(std::uint64_t) +
        sizes.size() * 2 * sizeof(std::uint64_t);
    std::uint64_t cursor = alignUp(header_bytes, page_size);
    for (std::size_t c = 0; c < sizes.size(); ++c) {
        if (sizes[c] == 0)
            continue;
        layout.segments[c].offset = cursor;
        layout.segments[c].count = sizes[c];
        cursor = alignUp(cursor + segmentBytes(sizes[c], m), page_size);
    }
    layout.sectionBytes = static_cast<std::size_t>(cursor);
    return layout;
}

void
writeZeros(std::ostream &os, std::uint64_t n)
{
    static constexpr char zeros[4096] = {};
    while (n > 0) {
        const std::uint64_t chunk = n < sizeof(zeros) ? n : sizeof(zeros);
        os.write(zeros, static_cast<std::streamsize>(chunk));
        n -= chunk;
    }
}

} // namespace

void
savePq(std::ostream &os, const ProductQuantizer &pq)
{
    if (!pq.isTrained())
        throw IoError("savePq: quantizer is not trained");
    writeU32(os, kPqMagic);
    writeU64(os, pq.dim());
    writeU64(os, pq.numSub());
    writeU64(os, pq.nbits());
    for (std::size_t s = 0; s < pq.numSub(); ++s) {
        const auto cb = pq.codebook(s);
        writeFloats(os, cb.data(), cb.size());
    }
}

ProductQuantizer
loadPq(std::istream &is)
{
    expectMagic(is, kPqMagic, "ProductQuantizer");
    const std::uint64_t dim = readU64(is);
    const std::uint64_t m = readU64(is);
    const std::uint64_t nbits = readU64(is);
    if (m == 0 || dim == 0 || dim % m != 0 || nbits == 0 || nbits > 8)
        throw IoError("loadPq: invalid dimensions");
    const std::uint64_t ksub = std::uint64_t{1} << nbits;
    // m * ksub * (dim / m) codebook floats, which is ksub * dim.
    auto codebooks = readFloats(is, elemCount(ksub, dim, "PQ codebooks"),
                                "PQ codebooks");
    return ProductQuantizer::fromCodebooks(
        static_cast<std::size_t>(dim), static_cast<std::size_t>(m),
        static_cast<std::size_t>(nbits), std::move(codebooks));
}

void
saveCoarseQuantizer(std::ostream &os, const FlatCoarseQuantizer &cq)
{
    writeU32(os, kCqMagic);
    writeU64(os, cq.nlist());
    writeU64(os, cq.dim());
    writeU32(os, cq.metric() == Metric::L2 ? 0 : 1);
    for (cluster_id_t c = 0; c < static_cast<cluster_id_t>(cq.nlist());
         ++c)
        writeFloats(os, cq.centroid(c), cq.dim());
}

std::shared_ptr<FlatCoarseQuantizer>
loadCoarseQuantizer(std::istream &is)
{
    expectMagic(is, kCqMagic, "FlatCoarseQuantizer");
    const std::uint64_t nlist = readU64(is);
    const std::uint64_t dim = readU64(is);
    const Metric metric = readMetric(is, "FlatCoarseQuantizer");
    if (nlist == 0 || dim == 0)
        throw IoError("loadCoarseQuantizer: zero nlist or dimension");
    auto centroids = readFloats(is, elemCount(nlist, dim, "CQ centroids"),
                                "CQ centroids");
    return std::make_shared<FlatCoarseQuantizer>(
        std::move(centroids), static_cast<std::size_t>(nlist),
        static_cast<std::size_t>(dim), metric);
}

PackedListsLayout
savePackedLists(std::ostream &os, const IvfPqFastScanIndex &index,
                std::size_t page_size)
{
    if (page_size == 0 || (page_size & (page_size - 1)) != 0)
        throw IoError("savePackedLists: page size is not a power of two");
    const std::size_t m = index.pq().numSub();
    const PackedListsLayout layout = computeLayout(
        index.listSizes(), index.size(), m, page_size);

    writeU32(os, kListsMagic);
    writeU64(os, layout.nlist);
    writeU64(os, layout.total);
    writeU64(os, layout.m);
    writeU64(os, layout.pageSize);
    std::uint64_t cursor =
        sizeof(std::uint32_t) + 4 * sizeof(std::uint64_t);
    for (const ListSegment &seg : layout.segments) {
        writeU64(os, seg.offset);
        writeU64(os, seg.count);
        cursor += 2 * sizeof(std::uint64_t);
    }

    for (std::size_t c = 0; c < layout.nlist; ++c) {
        const ListSegment &seg = layout.segments[c];
        if (seg.count == 0)
            continue;
        writeZeros(os, seg.offset - cursor);
        cursor = seg.offset;
        const auto cid = static_cast<cluster_id_t>(c);
        const auto ids = index.listIds(cid);
        const auto packed = index.listPacked(cid);
        os.write(reinterpret_cast<const char *>(ids.data()),
                 static_cast<std::streamsize>(ids.size_bytes()));
        os.write(reinterpret_cast<const char *>(packed.data()),
                 static_cast<std::streamsize>(packed.size()));
        cursor += ids.size_bytes() + packed.size();
    }
    writeZeros(os, layout.sectionBytes - cursor);
    if (!os)
        throw IoError("savePackedLists: stream write failed");
    return layout;
}

namespace
{

// Header + table validation shared by the stream and buffer readers.
// `limit` is the known section size for bounds checks, or 0 when the
// stream reader does not know it upfront (truncation then surfaces as a
// short read instead).
PackedListsLayout
validateListsHeader(std::uint64_t nlist, std::uint64_t total,
                    std::uint64_t m, std::uint64_t page_size,
                    std::size_t expect_m)
{
    if (nlist == 0 || nlist > kMaxElems)
        throw IoError("packed lists: implausible cluster count");
    if (total > kMaxElems)
        throw IoError("packed lists: implausible vector count");
    if (m == 0 || m != expect_m)
        throw IoError("packed lists: sub-quantizer count mismatch");
    if (page_size == 0 || (page_size & (page_size - 1)) != 0)
        throw IoError("packed lists: page size is not a power of two");
    PackedListsLayout layout;
    layout.nlist = static_cast<std::size_t>(nlist);
    layout.total = static_cast<std::size_t>(total);
    layout.m = static_cast<std::size_t>(m);
    layout.pageSize = static_cast<std::size_t>(page_size);
    return layout;
}

void
validateSegments(PackedListsLayout &layout, std::uint64_t limit)
{
    const std::uint64_t header_bytes =
        sizeof(std::uint32_t) + 4 * sizeof(std::uint64_t) +
        layout.nlist * 2 * sizeof(std::uint64_t);
    std::uint64_t end = alignUp(header_bytes, layout.pageSize);
    std::uint64_t counted = 0;
    for (std::size_t c = 0; c < layout.nlist; ++c) {
        const ListSegment &seg = layout.segments[c];
        if (seg.count == 0) {
            if (seg.offset != 0)
                throw IoError("packed lists: empty cluster with "
                              "nonzero offset");
            continue;
        }
        const std::uint64_t bytes = segmentBytes(seg.count, layout.m);
        if (seg.offset % layout.pageSize != 0 ||
            seg.offset < header_bytes || seg.offset + bytes < seg.offset)
            throw IoError("packed lists: misaligned segment offset");
        if (limit != 0 && seg.offset + bytes > limit)
            throw IoError("packed lists: segment out of bounds "
                          "(truncated section?)");
        if (end < seg.offset + bytes)
            end = seg.offset + bytes;
        counted += seg.count;
    }
    if (counted != layout.total)
        throw IoError("packed lists: segment counts do not sum to "
                      "the declared total");
    layout.sectionBytes =
        static_cast<std::size_t>(alignUp(end, layout.pageSize));
    if (limit != 0 && layout.sectionBytes > limit)
        throw IoError("packed lists: truncated section");
}

} // namespace

PackedLists
loadPackedLists(std::istream &is, std::size_t expect_m)
{
    const std::istream::pos_type base = is.tellg();
    if (base == std::istream::pos_type(-1))
        throw IoError("loadPackedLists: stream is not seekable");
    expectMagic(is, kListsMagic, "packed lists");
    // Sequenced reads: argument evaluation order is unspecified.
    const std::uint64_t nlist = readU64(is);
    const std::uint64_t total = readU64(is);
    const std::uint64_t m = readU64(is);
    const std::uint64_t page_size = readU64(is);
    PackedListsLayout layout =
        validateListsHeader(nlist, total, m, page_size, expect_m);
    layout.segments.resize(layout.nlist);
    for (ListSegment &seg : layout.segments) {
        seg.offset = readU64(is);
        seg.count = readU64(is);
    }
    validateSegments(layout, 0);

    PackedLists out;
    out.ids.resize(layout.nlist);
    out.packed.resize(layout.nlist);
    out.total = layout.total;
    for (std::size_t c = 0; c < layout.nlist; ++c) {
        const ListSegment &seg = layout.segments[c];
        if (seg.count == 0)
            continue;
        is.seekg(base + static_cast<std::istream::off_type>(seg.offset));
        const auto n = static_cast<std::size_t>(seg.count);
        out.ids[c].resize(n);
        is.read(reinterpret_cast<char *>(out.ids[c].data()),
                static_cast<std::streamsize>(n * sizeof(idx_t)));
        out.packed[c].resize(listPackedBytes(seg.count, layout.m));
        is.read(reinterpret_cast<char *>(out.packed[c].data()),
                static_cast<std::streamsize>(out.packed[c].size()));
        if (!is)
            throw IoError("loadPackedLists: truncated cluster segment");
    }
    // Leave the stream positioned at the section end so callers can read
    // whatever follows.
    is.seekg(base +
             static_cast<std::istream::off_type>(layout.sectionBytes));
    if (!is)
        throw IoError("loadPackedLists: truncated section padding");
    return out;
}

PackedListsLayout
parsePackedLists(const std::uint8_t *section, std::size_t section_bytes,
                 std::size_t expect_m)
{
    const std::size_t fixed =
        sizeof(std::uint32_t) + 4 * sizeof(std::uint64_t);
    if (section_bytes < fixed)
        throw IoError("parsePackedLists: truncated header");
    std::uint32_t magic;
    std::memcpy(&magic, section, sizeof(magic));
    if (magic != kListsMagic)
        throw IoError("bad magic for packed lists");
    std::uint64_t hdr[4];
    std::memcpy(hdr, section + sizeof(std::uint32_t), sizeof(hdr));
    PackedListsLayout layout =
        validateListsHeader(hdr[0], hdr[1], hdr[2], hdr[3], expect_m);
    const std::size_t table_bytes =
        layout.nlist * 2 * sizeof(std::uint64_t);
    if (section_bytes < fixed + table_bytes)
        throw IoError("parsePackedLists: truncated offset table");
    layout.segments.resize(layout.nlist);
    std::memcpy(layout.segments.data(), section + fixed, table_bytes);
    static_assert(sizeof(ListSegment) == 2 * sizeof(std::uint64_t),
                  "ListSegment must match its on-disk layout");
    validateSegments(layout, section_bytes);
    return layout;
}

} // namespace vlr::vs
