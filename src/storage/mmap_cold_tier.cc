#include "storage/mmap_cold_tier.h"

#include <cassert>
#include <cstdio>
#include <sstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "vecsearch/fastscan.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "vecsearch/topk.h"

namespace vlr::storage
{

struct MmapColdTier::Mapping
{
    int fd = -1;
    std::uint8_t *data = nullptr;
    std::size_t bytes = 0;
    ArtifactInfo info;
    vs::PackedListsLayout layout;
    /** Start of the packed-lists section inside the mapping. */
    const std::uint8_t *lists = nullptr;
    /** Payload bytes across all cluster segments (no padding). */
    std::size_t listDataBytes = 0;

    ~Mapping()
    {
        if (data != nullptr)
            ::munmap(data, bytes);
        if (fd >= 0)
            ::close(fd);
    }
};

namespace
{

std::size_t
segmentPayloadBytes(std::uint64_t count, std::size_t m)
{
    const std::uint64_t nblocks =
        (count + vs::kFastScanBlock - 1) / vs::kFastScanBlock;
    return static_cast<std::size_t>(count * sizeof(idx_t) +
                                    nblocks * vs::packedBlockBytes(m));
}

vs::ProductQuantizer
loadPqSection(const std::uint8_t *data, std::uint64_t begin,
              std::uint64_t end)
{
    std::istringstream is(std::string(
        reinterpret_cast<const char *>(data + begin),
        static_cast<std::size_t>(end - begin)));
    return vs::loadPq(is);
}

std::shared_ptr<const vs::FlatCoarseQuantizer>
loadCqSection(const std::uint8_t *data, std::uint64_t begin,
              std::uint64_t end)
{
    std::istringstream is(std::string(
        reinterpret_cast<const char *>(data + begin),
        static_cast<std::size_t>(end - begin)));
    return vs::loadCoarseQuantizer(is);
}

} // namespace

std::unique_ptr<MmapColdTier::Mapping>
MmapColdTier::openMapping(const std::string &path,
                          const MmapColdTierOptions &opts)
{
    auto map = std::make_unique<Mapping>();
    map->info = IndexStore::inspect(path);

    map->fd = ::open(path.c_str(), O_RDONLY);
    if (map->fd < 0)
        throw vs::IoError("MmapColdTier: cannot open " + path);
    map->bytes = static_cast<std::size_t>(map->info.fileBytes);

    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    if (opts.prefault)
        flags |= MAP_POPULATE;
#endif
    void *addr = ::mmap(nullptr, map->bytes, PROT_READ, flags, map->fd, 0);
    if (addr == MAP_FAILED)
        throw vs::IoError("MmapColdTier: mmap failed for " + path);
    map->data = static_cast<std::uint8_t *>(addr);

    map->lists = map->data + map->info.listsOffset;
    map->layout = vs::parsePackedLists(
        map->lists, static_cast<std::size_t>(map->info.listsBytes),
        map->info.m);
    if (map->layout.nlist != map->info.nlist ||
        map->layout.total != map->info.total)
        throw vs::IoError("MmapColdTier: lists section disagrees with "
                          "the artifact header");
    for (const vs::ListSegment &seg : map->layout.segments)
        if (seg.count > 0)
            map->listDataBytes +=
                segmentPayloadBytes(seg.count, map->info.m);

    int advice = POSIX_MADV_RANDOM;
    switch (opts.advice) {
    case MmapColdTierOptions::Advice::kNormal:
        advice = POSIX_MADV_NORMAL;
        break;
    case MmapColdTierOptions::Advice::kRandom:
        advice = POSIX_MADV_RANDOM;
        break;
    case MmapColdTierOptions::Advice::kSequential:
        advice = POSIX_MADV_SEQUENTIAL;
        break;
    case MmapColdTierOptions::Advice::kWillNeed:
        advice = POSIX_MADV_WILLNEED;
        break;
    }
    // Advisory only; EINVAL (e.g. artifact page size below the system
    // page size) is harmless.
    (void)::posix_madvise(map->data + map->info.listsOffset,
                          static_cast<std::size_t>(map->info.listsBytes),
                          advice);
    return map;
}

MmapColdTier::MmapColdTier(const std::string &path,
                           const MmapColdTierOptions &opts)
    : MmapColdTier(path, opts, openMapping(path, opts))
{
}

MmapColdTier::MmapColdTier(std::string path,
                           const MmapColdTierOptions &opts,
                           std::unique_ptr<Mapping> map)
    : path_(std::move(path)), opts_(opts),
      pq_(loadPqSection(map->data, map->info.pqOffset,
                        map->info.cqOffset)),
      cq_(loadCqSection(map->data, map->info.cqOffset,
                        map->info.listsOffset)),
      map_(std::move(map)), active_(std::make_unique<DeltaSet>()),
      nextId_(static_cast<idx_t>(map_->info.total))
{
    if (pq_.dim() != map_->info.dim || pq_.numSub() != map_->info.m ||
        cq_->dim() != map_->info.dim ||
        cq_->nlist() != map_->info.nlist)
        throw vs::IoError("MmapColdTier: artifact sections disagree "
                          "with the header");
    active_->clusters.resize(map_->info.nlist);
}

MmapColdTier::~MmapColdTier() = default;

std::vector<vs::SearchHit>
MmapColdTier::searchClusters(const float *query, std::size_t k,
                             std::span<const cluster_id_t> clusters,
                             vs::SearchScratch *scratch) const
{
    vs::SearchScratch local;
    vs::SearchScratch &sc = scratch ? *scratch : local;
    const vs::QuantizedLut qlut = vs::buildQuantizedLut(pq_, query, sc);
    vs::TopK topk(k);
    scanClusters(query, qlut, clusters, sc, topk);
    return topk.sortedHits();
}

void
MmapColdTier::scanClusters(const float *, const vs::QuantizedLut &qlut,
                           std::span<const cluster_id_t> clusters,
                           vs::SearchScratch &sc, vs::TopK &topk) const
{
    const std::size_t m = pq_.numSub();
    // Mapped segments and in-RAM deltas go through the same
    // vs::scanPackedList loop as the in-memory index, which is what
    // keeps the cold tier's distances bit-identical to it.
    std::shared_lock lock(stateMutex_);
    for (const cluster_id_t c : clusters) {
        const auto ci = static_cast<std::size_t>(c);
        assert(ci < map_->layout.nlist);
        const vs::ListSegment &seg = map_->layout.segments[ci];
        if (seg.count > 0) {
            const std::uint8_t *segp = map_->lists + seg.offset;
            vs::scanPackedList(m, reinterpret_cast<const idx_t *>(segp),
                               static_cast<std::size_t>(seg.count),
                               segp + seg.count * sizeof(idx_t), qlut,
                               sc, topk);
        }
        for (const DeltaSet *ds : {sealed_.get(), active_.get()}) {
            if (ds == nullptr)
                continue;
            const ClusterDelta &delta = ds->clusters[ci];
            if (!delta.ids.empty())
                vs::scanPackedList(m, delta.ids.data(), delta.ids.size(),
                                   delta.packed.data(), qlut, sc, topk);
        }
    }
}

std::size_t
MmapColdTier::bytes() const
{
    std::shared_lock lock(stateMutex_);
    std::size_t total = map_->listDataBytes + active_->bytes;
    if (sealed_)
        total += sealed_->bytes;
    return total;
}

std::size_t
MmapColdTier::numClusters() const
{
    // nlist is fixed across merges; no lock needed.
    return map_->info.nlist;
}

std::size_t
MmapColdTier::numVectors() const
{
    std::shared_lock lock(stateMutex_);
    std::size_t total = map_->layout.total + active_->count;
    if (sealed_)
        total += sealed_->count;
    return total;
}

std::size_t
MmapColdTier::residentBytes() const
{
    std::shared_lock lock(stateMutex_);
    std::size_t resident = active_->bytes;
    if (sealed_)
        resident += sealed_->bytes;
#ifdef __linux__
    const auto page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> vec;
    for (const vs::ListSegment &seg : map_->layout.segments) {
        if (seg.count == 0)
            continue;
        const std::size_t bytes =
            segmentPayloadBytes(seg.count, map_->info.m);
        const auto addr =
            reinterpret_cast<std::uintptr_t>(map_->lists + seg.offset);
        const std::uintptr_t lo = addr / page * page;
        const std::uintptr_t hi = (addr + bytes + page - 1) / page * page;
        const std::size_t npages = (hi - lo) / page;
        vec.resize(npages);
        if (::mincore(reinterpret_cast<void *>(lo), hi - lo,
                      vec.data()) != 0)
            continue;
        std::size_t in_core = 0;
        for (std::size_t p = 0; p < npages; ++p)
            if (vec[p] & 1)
                in_core += page;
        resident += std::min(in_core, bytes);
    }
#else
    resident += map_->listDataBytes;
#endif
    return resident;
}

std::size_t
MmapColdTier::residentClusters() const
{
    std::shared_lock lock(stateMutex_);
#ifdef __linux__
    const auto page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    std::size_t count = 0;
    std::vector<unsigned char> vec;
    for (const vs::ListSegment &seg : map_->layout.segments) {
        if (seg.count == 0) {
            // Nothing to fault in: trivially resident.
            ++count;
            continue;
        }
        const std::size_t bytes =
            segmentPayloadBytes(seg.count, map_->info.m);
        const auto addr =
            reinterpret_cast<std::uintptr_t>(map_->lists + seg.offset);
        const std::uintptr_t lo = addr / page * page;
        const std::uintptr_t hi = (addr + bytes + page - 1) / page * page;
        const std::size_t npages = (hi - lo) / page;
        vec.assign(npages, 0);
        if (::mincore(reinterpret_cast<void *>(lo), hi - lo,
                      vec.data()) != 0)
            continue;
        bool all = true;
        for (std::size_t p = 0; p < npages && all; ++p)
            all = (vec[p] & 1) != 0;
        if (all)
            ++count;
    }
    return count;
#else
    return map_->info.nlist;
#endif
}

void
MmapColdTier::append(std::span<const float> vecs, std::size_t n)
{
    const std::size_t d = pq_.dim();
    const std::size_t m = pq_.numSub();
    assert(vecs.size() >= n * d);

    // Assignment and encoding run outside the state lock; only the
    // id-stamped insertion below blocks concurrent scans.
    std::vector<std::int32_t> assign(n);
    std::vector<std::uint8_t> codes(n * m);
    for (std::size_t i = 0; i < n; ++i) {
        assign[i] = cq_->probe(vecs.data() + i * d, 1).clusters[0];
        pq_.encode(vecs.data() + i * d, codes.data() + i * m);
    }

    std::unique_lock lock(stateMutex_);
    for (std::size_t i = 0; i < n; ++i) {
        const auto ci = static_cast<std::size_t>(assign[i]);
        assert(ci < active_->clusters.size());
        ClusterDelta &delta = active_->clusters[ci];
        const std::size_t n_old = delta.ids.size();
        const std::size_t packed_old = delta.packed.size();
        delta.ids.push_back(nextId_++);
        delta.rawCodes.insert(delta.rawCodes.end(),
                              codes.begin() +
                                  static_cast<std::ptrdiff_t>(i * m),
                              codes.begin() +
                                  static_cast<std::ptrdiff_t>((i + 1) * m));
        vs::appendPq4Codes(
            m, delta.packed, n_old,
            std::span<const std::uint8_t>(codes).subspan(i * m, m), 1);
        active_->bytes += sizeof(idx_t) + m +
                          (delta.packed.size() - packed_old);
    }
    active_->count += n;
}

void
MmapColdTier::appendDeltas(DeltaSet &into, DeltaSet &&from,
                           std::size_t m)
{
    for (std::size_t c = 0; c < from.clusters.size(); ++c) {
        ClusterDelta &src = from.clusters[c];
        if (src.ids.empty())
            continue;
        ClusterDelta &dst = into.clusters[c];
        const std::size_t n_old = dst.ids.size();
        const std::size_t packed_old = dst.packed.size();
        dst.ids.insert(dst.ids.end(), src.ids.begin(), src.ids.end());
        dst.rawCodes.insert(dst.rawCodes.end(), src.rawCodes.begin(),
                            src.rawCodes.end());
        vs::appendPq4Codes(m, dst.packed, n_old, src.rawCodes,
                           src.ids.size());
        into.bytes += src.ids.size() * (sizeof(idx_t) + m) +
                      (dst.packed.size() - packed_old);
    }
    into.count += from.count;
}

void
MmapColdTier::mergeDeltas()
{
    std::lock_guard merge_lock(mergeMutex_);
    {
        std::unique_lock lock(stateMutex_);
        if (active_->count > 0) {
            if (sealed_) {
                appendDeltas(*sealed_, std::move(*active_),
                             pq_.numSub());
            } else {
                sealed_ = std::move(active_);
            }
            active_ = std::make_unique<DeltaSet>();
            active_->clusters.resize(map_->info.nlist);
        }
        if (!sealed_)
            return;
    }

    // The sealed set is immutable from here on (scans read it under the
    // shared lock; only merges — serialized by mergeMutex_ — replace
    // it), so the rewrite below runs without blocking searches.
    // Limitation: the base index is loaded fully into RAM for the
    // rewrite; merge cost is O(artifact size), not O(delta size).
    vs::IvfPqFastScanIndex merged = IndexStore::load(path_);
    for (std::size_t c = 0; c < sealed_->clusters.size(); ++c) {
        const ClusterDelta &delta = sealed_->clusters[c];
        if (!delta.ids.empty())
            merged.appendEncoded(static_cast<cluster_id_t>(c),
                                 delta.ids, delta.rawCodes);
    }

    const std::string tmp = path_ + ".merge.tmp";
    IndexStore::save(tmp, merged, map_->info.pageSize);
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw vs::IoError("MmapColdTier::mergeDeltas: rename failed "
                          "for " + path_);
    }
    std::unique_ptr<Mapping> fresh = openMapping(path_, opts_);

    std::unique_lock lock(stateMutex_);
    map_ = std::move(fresh);
    sealed_.reset();
}

ArtifactInfo
MmapColdTier::artifact() const
{
    std::shared_lock lock(stateMutex_);
    return map_->info;
}

std::size_t
MmapColdTier::deltaVectors() const
{
    std::shared_lock lock(stateMutex_);
    return active_->count + (sealed_ ? sealed_->count : 0);
}

} // namespace vlr::storage
