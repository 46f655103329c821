/**
 * @file
 * Versioned on-disk artifact for a complete trained fast-scan index.
 *
 * One artifact file carries everything needed to serve searches —
 * trained PQ codebooks, coarse-quantizer centroids, and every packed
 * inverted list — so an engine cold-starts from disk without
 * re-training or re-encoding and returns bit-identical results to the
 * index it was saved from. The packed-lists section starts at a
 * page-aligned file offset with page-aligned per-cluster segments, so
 * the same file doubles as the backing store of the memory-mapped cold
 * tier (storage::MmapColdTier).
 *
 * On-disk layout (little-endian, 96-byte header):
 *
 *     u32 magic "VLRA"
 *     u32 formatVersion
 *     u64 dim, m, nbits, nlist, total, pageSize
 *     u64 pqOffset, cqOffset, listsOffset, listsBytes, fileBytes
 *     [pqOffset]    PQ section     (vecsearch io "VPQ1")
 *     [cqOffset]    CQ section     (vecsearch io "VCQ1")
 *     ...zero pad to pageSize...
 *     [listsOffset] packed-lists section (vecsearch io "VLL1"),
 *                   page-aligned; see io.h for its internal layout
 *
 * All load paths throw vs::IoError — never abort — on bad magic,
 * unsupported version, truncation, a PQ shape fast scan cannot serve
 * (nbits != 4, m > vs::kMaxFastScanSub), or cross-section
 * inconsistencies.
 */

#ifndef VLR_STORAGE_INDEX_STORE_H
#define VLR_STORAGE_INDEX_STORE_H

#include <cstdint>
#include <string>

#include "vecsearch/ivf_pq_fastscan.h"

namespace vlr::storage
{

/** Parsed artifact header (everything but the sections themselves). */
struct ArtifactInfo
{
    std::uint32_t formatVersion = 0;
    std::size_t dim = 0;
    std::size_t m = 0;
    std::size_t nbits = 0;
    std::size_t nlist = 0;
    /** Vectors stored across all inverted lists. */
    std::size_t total = 0;
    /** Alignment of the lists section and its cluster segments. */
    std::size_t pageSize = 0;
    /** Absolute file offset of the PQ section. */
    std::uint64_t pqOffset = 0;
    /** Absolute file offset of the CQ section. */
    std::uint64_t cqOffset = 0;
    /** Absolute file offset of the packed-lists section. */
    std::uint64_t listsOffset = 0;
    /** Bytes of the packed-lists section. */
    std::uint64_t listsBytes = 0;
    /** Total artifact size; must equal the file's actual size. */
    std::uint64_t fileBytes = 0;
};

/**
 * Save/load of complete index artifacts. Stateless; all members are
 * static. Concurrent load()/inspect() of one file are safe; save()
 * must not race other accessors on the same path (callers who need
 * atomic replacement write to a temp file and rename, as
 * MmapColdTier::mergeDeltas does).
 */
class IndexStore
{
  public:
    /** Bump when the header or section layout changes. */
    static constexpr std::uint32_t kFormatVersion = 1;

    /**
     * Write @p index as one artifact file at @p path (overwriting).
     * Requires a trained PQ. Deterministic: saving an identical index
     * yields a byte-identical file. @throws vs::IoError on unsupported
     * input or write failure.
     */
    static ArtifactInfo save(const std::string &path,
                             const vs::IvfPqFastScanIndex &index,
                             std::size_t page_size = 4096);

    /**
     * Rebuild a complete index from an artifact. Searches on the result
     * are bit-identical to the index save() was given. @throws
     * vs::IoError on bad magic, version, truncation, or inconsistent
     * sections.
     */
    static vs::IvfPqFastScanIndex load(const std::string &path);

    /**
     * Read and validate only the 96-byte header — cheap artifact
     * introspection (used by tooling and MmapColdTier).
     * @throws vs::IoError as load() does.
     */
    static ArtifactInfo inspect(const std::string &path);
};

} // namespace vlr::storage

#endif // VLR_STORAGE_INDEX_STORE_H
