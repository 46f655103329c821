#include "storage/index_store.h"

#include <cstdint>
#include <fstream>

#include "vecsearch/io.h"

namespace vlr::storage
{

namespace
{

constexpr std::uint32_t kArtifactMagic = 0x564C5241; // "VLRA"
constexpr std::size_t kHeaderBytes = 96;

void
writeU32(std::ostream &os, std::uint32_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeU64(std::ostream &os, std::uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

std::uint32_t
readU32(std::istream &is)
{
    std::uint32_t v = 0;
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!is)
        throw vs::IoError("truncated artifact header");
    return v;
}

std::uint64_t
readU64(std::istream &is)
{
    std::uint64_t v = 0;
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!is)
        throw vs::IoError("truncated artifact header");
    return v;
}

std::uint64_t
alignUp(std::uint64_t v, std::uint64_t a)
{
    return (v + a - 1) / a * a;
}

struct Header
{
    std::uint32_t version = IndexStore::kFormatVersion;
    std::uint64_t dim = 0, m = 0, nbits = 0, nlist = 0, total = 0;
    std::uint64_t pageSize = 0;
    std::uint64_t pqOffset = 0, cqOffset = 0;
    std::uint64_t listsOffset = 0, listsBytes = 0, fileBytes = 0;
};

void
writeHeader(std::ostream &os, const Header &h)
{
    writeU32(os, kArtifactMagic);
    writeU32(os, h.version);
    writeU64(os, h.dim);
    writeU64(os, h.m);
    writeU64(os, h.nbits);
    writeU64(os, h.nlist);
    writeU64(os, h.total);
    writeU64(os, h.pageSize);
    writeU64(os, h.pqOffset);
    writeU64(os, h.cqOffset);
    writeU64(os, h.listsOffset);
    writeU64(os, h.listsBytes);
    writeU64(os, h.fileBytes);
}

Header
readHeader(std::istream &is)
{
    if (readU32(is) != kArtifactMagic)
        throw vs::IoError("bad magic for index artifact");
    Header h;
    h.version = readU32(is);
    if (h.version != IndexStore::kFormatVersion)
        throw vs::IoError("unsupported artifact format version " +
                          std::to_string(h.version) + " (this build "
                          "reads version " +
                          std::to_string(IndexStore::kFormatVersion) +
                          ")");
    h.dim = readU64(is);
    h.m = readU64(is);
    h.nbits = readU64(is);
    h.nlist = readU64(is);
    h.total = readU64(is);
    h.pageSize = readU64(is);
    h.pqOffset = readU64(is);
    h.cqOffset = readU64(is);
    h.listsOffset = readU64(is);
    h.listsBytes = readU64(is);
    h.fileBytes = readU64(is);
    if (h.dim == 0 || h.m == 0 || h.nbits == 0 || h.nlist == 0 ||
        h.pageSize == 0 || (h.pageSize & (h.pageSize - 1)) != 0)
        throw vs::IoError("implausible artifact header fields");
    if (h.nbits != 4)
        throw vs::IoError("artifact PQ has nbits = " +
                          std::to_string(h.nbits) +
                          "; fast scan needs 4");
    if (h.m > vs::kMaxFastScanSub)
        throw vs::IoError("artifact PQ has m = " + std::to_string(h.m) +
                          " sub-quantizers, above the fast-scan bound "
                          "of " +
                          std::to_string(vs::kMaxFastScanSub) +
                          " where uint16 scores can overflow");
    if (h.pqOffset < kHeaderBytes || h.cqOffset <= h.pqOffset ||
        h.listsOffset <= h.cqOffset ||
        h.listsOffset % h.pageSize != 0 ||
        h.fileBytes != h.listsOffset + h.listsBytes)
        throw vs::IoError("inconsistent artifact section offsets");
    return h;
}

std::uint64_t
streamSize(std::istream &is)
{
    const auto pos = is.tellg();
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    is.seekg(pos);
    return static_cast<std::uint64_t>(end);
}

ArtifactInfo
toInfo(const Header &h)
{
    ArtifactInfo info;
    info.formatVersion = h.version;
    info.dim = static_cast<std::size_t>(h.dim);
    info.m = static_cast<std::size_t>(h.m);
    info.nbits = static_cast<std::size_t>(h.nbits);
    info.nlist = static_cast<std::size_t>(h.nlist);
    info.total = static_cast<std::size_t>(h.total);
    info.pageSize = static_cast<std::size_t>(h.pageSize);
    info.pqOffset = h.pqOffset;
    info.cqOffset = h.cqOffset;
    info.listsOffset = h.listsOffset;
    info.listsBytes = h.listsBytes;
    info.fileBytes = h.fileBytes;
    return info;
}

Header
openValidated(std::ifstream &is, const std::string &path)
{
    is.open(path, std::ios::binary);
    if (!is)
        throw vs::IoError("cannot open artifact file: " + path);
    const Header h = readHeader(is);
    if (streamSize(is) != h.fileBytes)
        throw vs::IoError("truncated artifact: file size does not "
                          "match the header");
    return h;
}

} // namespace

ArtifactInfo
IndexStore::save(const std::string &path,
                 const vs::IvfPqFastScanIndex &index,
                 std::size_t page_size)
{
    if (page_size == 0 || (page_size & (page_size - 1)) != 0)
        throw vs::IoError("IndexStore::save: page size is not a power "
                          "of two");

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw vs::IoError("IndexStore::save: cannot create " + path);

    Header h;
    h.dim = index.dim();
    h.m = index.pq().numSub();
    h.nbits = index.pq().nbits();
    h.nlist = index.nlist();
    h.total = index.size();
    h.pageSize = page_size;

    // Placeholder header; rewritten once section offsets are known.
    for (std::size_t i = 0; i < kHeaderBytes; ++i)
        os.put('\0');

    h.pqOffset = kHeaderBytes;
    vs::savePq(os, index.pq());
    h.cqOffset = static_cast<std::uint64_t>(os.tellp());
    vs::saveCoarseQuantizer(os, index.quantizer());

    h.listsOffset =
        alignUp(static_cast<std::uint64_t>(os.tellp()), page_size);
    while (static_cast<std::uint64_t>(os.tellp()) < h.listsOffset)
        os.put('\0');
    const vs::PackedListsLayout layout =
        vs::savePackedLists(os, index, page_size);
    h.listsBytes = layout.sectionBytes;
    h.fileBytes = h.listsOffset + h.listsBytes;

    os.seekp(0);
    writeHeader(os, h);
    os.flush();
    if (!os)
        throw vs::IoError("IndexStore::save: write failed for " + path);
    return toInfo(h);
}

vs::IvfPqFastScanIndex
IndexStore::load(const std::string &path)
{
    std::ifstream is;
    const Header h = openValidated(is, path);

    is.seekg(static_cast<std::istream::off_type>(h.pqOffset));
    vs::ProductQuantizer pq = vs::loadPq(is);
    if (pq.dim() != h.dim || pq.numSub() != h.m || pq.nbits() != h.nbits)
        throw vs::IoError("artifact PQ section disagrees with the "
                          "header");

    is.seekg(static_cast<std::istream::off_type>(h.cqOffset));
    std::shared_ptr<vs::FlatCoarseQuantizer> cq =
        vs::loadCoarseQuantizer(is);
    if (cq->dim() != h.dim || cq->nlist() != h.nlist)
        throw vs::IoError("artifact CQ section disagrees with the "
                          "header");

    is.seekg(static_cast<std::istream::off_type>(h.listsOffset));
    vs::PackedLists lists =
        vs::loadPackedLists(is, static_cast<std::size_t>(h.m));
    if (lists.total != h.total || lists.ids.size() != h.nlist)
        throw vs::IoError("artifact lists section disagrees with the "
                          "header");

    return vs::IvfPqFastScanIndex::fromParts(
        std::move(cq), std::move(pq), std::move(lists.ids),
        std::move(lists.packed));
}

ArtifactInfo
IndexStore::inspect(const std::string &path)
{
    std::ifstream is;
    return toInfo(openValidated(is, path));
}

} // namespace vlr::storage
