/**
 * @file
 * Binary serialization for trained vector-search artifacts.
 *
 * Training PQ codebooks and coarse-quantizer centroids is the
 * expensive, offline part of index construction (the paper's artifact
 * reports 40-50 hours of preprocessing); these helpers persist them so
 * deployments rebuild inverted lists from raw vectors without
 * re-training. Beyond the trained parameters, the packed-lists section
 * persists a complete set of fast-scan inverted lists behind a
 * per-cluster offset table with page-aligned segments, so a cold tier
 * can serve the very same bytes out of a memory-mapped file
 * (storage::MmapColdTier) and a full index can cold-start without
 * re-encoding (storage::IndexStore).
 *
 * Format: little-endian, versioned magic headers per section. All
 * loaders throw IoError — a recoverable exception, never a process
 * abort — on magic/version mismatch, implausible header values, or a
 * truncated stream, so a corrupt artifact cannot take down a serving
 * process that tries to open it.
 */

#ifndef VLR_VECSEARCH_IO_H
#define VLR_VECSEARCH_IO_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>

#include "vecsearch/ivf.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "vecsearch/pq.h"

namespace vlr::vs
{

/**
 * Recoverable (de)serialization failure: bad magic, unsupported
 * version, implausible header values, or a truncated stream. Callers
 * opening untrusted or possibly-corrupt artifact files catch this and
 * keep serving; it is never raised for programmer errors.
 */
class IoError : public std::runtime_error
{
  public:
    explicit IoError(const std::string &what)
        : std::runtime_error("vecsearch io: " + what)
    {
    }
};

/** Serialize a trained product quantizer. @throws IoError untrained. */
void savePq(std::ostream &os, const ProductQuantizer &pq);

/** Load a product quantizer. @throws IoError on format mismatch. */
ProductQuantizer loadPq(std::istream &is);

/** Serialize a flat coarse quantizer (centroid table). */
void saveCoarseQuantizer(std::ostream &os, const FlatCoarseQuantizer &cq);

/** Load a flat coarse quantizer. @throws IoError on format mismatch. */
std::shared_ptr<FlatCoarseQuantizer> loadCoarseQuantizer(std::istream &is);

/**
 * Packed-lists section layout
 * ---------------------------
 *
 * One section persists every inverted list of an IvfPqFastScanIndex in
 * its native fast-scan blocked layout:
 *
 *     u32 magic "VLL1"
 *     u64 nlist, total, m, pageSize
 *     nlist x { u64 offset, u64 count }     per-cluster offset table
 *     ...zero padding...
 *     per cluster (count > 0), at `offset` from the section start:
 *         idx_t ids[count]                  vector ids, scan order
 *         u8 packed[ceil(count/32) * 16*m]  fast-scan blocks
 *
 * Offsets are relative to the section start and page-aligned; when the
 * section itself starts at a page-aligned file offset every cluster
 * segment is page-aligned in the file, so a memory-mapped reader can
 * madvise() and mincore() individual cluster segments. Empty clusters
 * store offset 0 / count 0. The writer is deterministic: saving equal
 * lists yields byte-identical sections.
 */

/** One cluster's segment in a packed-lists section. */
struct ListSegment
{
    /** Byte offset of the segment from the section start (0 = empty). */
    std::uint64_t offset = 0;
    /** Vectors stored in the segment. */
    std::uint64_t count = 0;
};

/** Parsed header + offset table of a packed-lists section. */
struct PackedListsLayout
{
    std::size_t nlist = 0;
    std::size_t total = 0;
    std::size_t m = 0;
    std::size_t pageSize = 0;
    std::vector<ListSegment> segments;
    /** Total section bytes (header + table + padding + segments). */
    std::size_t sectionBytes = 0;
};

/**
 * Write every inverted list of @p index as one packed-lists section.
 * @param page_size alignment of cluster segments (power of two).
 * @return the layout that was written (offsets relative to section
 *         start).
 */
PackedListsLayout savePackedLists(std::ostream &os,
                                  const IvfPqFastScanIndex &index,
                                  std::size_t page_size = 4096);

/** Lists restored from a packed-lists section. */
struct PackedLists
{
    std::vector<std::vector<idx_t>> ids;
    std::vector<std::vector<std::uint8_t>> packed;
    std::size_t total = 0;
};

/**
 * Read a packed-lists section written by savePackedLists. The stream
 * must be positioned at the section start and seekable. @p expect_m is
 * the sub-quantizer count of the owning index (consistency check).
 * @throws IoError on format mismatch or truncation.
 */
PackedLists loadPackedLists(std::istream &is, std::size_t expect_m);

/**
 * Parse the header + offset table of a packed-lists section sitting in
 * a contiguous buffer (the memory-mapped read path). Validates that
 * every segment lies inside the buffer. @throws IoError on format
 * mismatch, truncation, or an out-of-bounds segment.
 */
PackedListsLayout parsePackedLists(const std::uint8_t *section,
                                   std::size_t section_bytes,
                                   std::size_t expect_m);

} // namespace vlr::vs

#endif // VLR_VECSEARCH_IO_H
