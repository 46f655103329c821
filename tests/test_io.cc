/**
 * @file
 * Round-trip tests for binary serialization of trained artifacts.
 */

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vecsearch/io.h"

namespace vlr::vs
{
namespace
{

std::vector<float>
gaussianData(std::size_t n, std::size_t d, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n * d);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian());
    return v;
}

TEST(Io, PqRoundTripPreservesCodebooks)
{
    const auto data = gaussianData(800, 16, 1);
    ProductQuantizer pq(16, 4, 4);
    pq.train(data, 800);

    std::stringstream buf;
    savePq(buf, pq);
    const auto loaded = loadPq(buf);

    EXPECT_TRUE(loaded.isTrained());
    EXPECT_EQ(loaded.dim(), pq.dim());
    EXPECT_EQ(loaded.numSub(), pq.numSub());
    EXPECT_EQ(loaded.nbits(), pq.nbits());
    for (std::size_t s = 0; s < pq.numSub(); ++s) {
        const auto a = pq.codebook(s);
        const auto b = loaded.codebook(s);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_FLOAT_EQ(a[i], b[i]);
    }
}

TEST(Io, PqRoundTripPreservesEncodings)
{
    const auto data = gaussianData(600, 8, 2);
    ProductQuantizer pq(8, 2, 8);
    pq.train(data, 600);
    std::stringstream buf;
    savePq(buf, pq);
    const auto loaded = loadPq(buf);

    const auto codes_a = pq.encodeBatch(data, 600);
    const auto codes_b = loaded.encodeBatch(data, 600);
    ASSERT_EQ(codes_a.size(), codes_b.size());
    for (std::size_t i = 0; i < codes_a.size(); ++i)
        EXPECT_EQ(codes_a[i], codes_b[i]) << "code " << i;
}

TEST(Io, SaveUntrainedPqIsFatal)
{
    ProductQuantizer pq(8, 2, 4);
    std::stringstream buf;
    EXPECT_THROW(savePq(buf, pq), std::runtime_error);
}

TEST(Io, LoadPqRejectsBadMagic)
{
    std::stringstream buf;
    buf << "not a pq file at all, definitely";
    EXPECT_THROW(loadPq(buf), std::runtime_error);
}

TEST(Io, LoadPqRejectsTruncatedStream)
{
    const auto data = gaussianData(300, 8, 3);
    ProductQuantizer pq(8, 2, 4);
    pq.train(data, 300);
    std::stringstream buf;
    savePq(buf, pq);
    const std::string full = buf.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_THROW(loadPq(cut), std::runtime_error);
}

TEST(Io, CoarseQuantizerRoundTripPreservesProbes)
{
    const std::size_t nlist = 64, dim = 8;
    auto centroids = gaussianData(nlist, dim, 7);
    FlatCoarseQuantizer cq(centroids, nlist, dim);

    std::stringstream buf;
    saveCoarseQuantizer(buf, cq);
    const auto loaded = loadCoarseQuantizer(buf);

    EXPECT_EQ(loaded->nlist(), nlist);
    EXPECT_EQ(loaded->dim(), dim);
    const auto q = gaussianData(1, dim, 8);
    const auto a = cq.probe(q.data(), 16);
    const auto b = loaded->probe(q.data(), 16);
    ASSERT_EQ(a.clusters.size(), b.clusters.size());
    for (std::size_t i = 0; i < a.clusters.size(); ++i) {
        EXPECT_EQ(a.clusters[i], b.clusters[i]);
        EXPECT_FLOAT_EQ(a.dists[i], b.dists[i]);
    }
}

TEST(Io, LoadedCqRebuildsIdenticalIvfIndex)
{
    // The deployment path: persist the trained CQ, reload it, rebuild
    // the inverted lists from raw vectors, and get identical routing.
    const std::size_t nlist = 32, dim = 8, n = 1000;
    auto centroids = gaussianData(nlist, dim, 9);
    auto cq_a = std::make_shared<FlatCoarseQuantizer>(centroids, nlist,
                                                      dim);
    std::stringstream buf;
    saveCoarseQuantizer(buf, *cq_a);
    auto cq_b = loadCoarseQuantizer(buf);

    const auto data = gaussianData(n, dim, 10);
    IvfPqFastScanIndex a(cq_a, dim / 4), b(cq_b, dim / 4);
    a.train(data, n);
    b.train(data, n);
    a.add(data, n);
    b.add(data, n);
    for (cluster_id_t c = 0; c < static_cast<cluster_id_t>(nlist); ++c) {
        const auto ids_a = a.listIds(c);
        const auto ids_b = b.listIds(c);
        EXPECT_TRUE(std::equal(ids_a.begin(), ids_a.end(), ids_b.begin(),
                               ids_b.end()))
            << "cluster " << c;
    }
}

TEST(Io, FromCodebooksValidatesSize)
{
    EXPECT_THROW(
        ProductQuantizer::fromCodebooks(16, 4, 4, std::vector<float>(7)),
        std::runtime_error);
}

TEST(Io, ErrorsAreRecoverableIoErrors)
{
    // Loaders must throw the catchable IoError subtype (callers keep
    // serving the old index on a failed reload), never fatal().
    std::stringstream bad("not an artifact at all");
    try {
        loadPq(bad);
        FAIL() << "bad magic not rejected";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find("vecsearch io:"),
                  std::string::npos);
    }
}

// --- crafted headers ---------------------------------------------------

/** @p words back to back in native byte order, as a loader reads them. */
template <class... Words>
std::string
headerBytes(Words... words)
{
    std::string out;
    (out.append(reinterpret_cast<const char *>(&words), sizeof(words)),
     ...);
    return out;
}

std::string
savedCq(Metric metric = Metric::L2)
{
    std::stringstream buf;
    saveCoarseQuantizer(
        buf, FlatCoarseQuantizer(gaussianData(4, 2, 30), 4, 2, metric));
    return buf.str();
}

constexpr std::uint64_t k2Pow32 = std::uint64_t{1} << 32;

TEST(Io, CoarseQuantizerRejectsAWrappingShape)
{
    // nlist * dim = 2^64 wraps to 0: no payload would be read, the shape
    // check would pass on 0 == 0, and centroid(c) would point nowhere.
    std::stringstream crafted(savedCq().substr(0, 4) +
                              headerBytes(k2Pow32, k2Pow32, std::uint32_t{0}));
    EXPECT_THROW(loadCoarseQuantizer(crafted), IoError);
}

TEST(Io, PqRejectsAWrappingShape)
{
    // ksub * dim = 2^8 * 2^61 wraps to 0 with m = 1.
    const auto data = gaussianData(300, 8, 32);
    ProductQuantizer pq(8, 2, 4);
    pq.train(data, 300);
    std::stringstream buf;
    savePq(buf, pq);
    std::stringstream crafted(
        buf.str().substr(0, 4) +
        headerBytes(std::uint64_t{1} << 61, std::uint64_t{1},
                    std::uint64_t{8}));
    EXPECT_THROW(loadPq(crafted), IoError);
}

TEST(Io, UnknownMetricWordIsRejected)
{
    // The metric word follows magic, nlist and dim in a CQ; only 0 (L2)
    // and 1 (inner product) exist.
    std::string cq = savedCq();
    cq.replace(20, 4, headerBytes(std::uint32_t{2}));
    std::stringstream cq_in(cq);
    EXPECT_THROW(loadCoarseQuantizer(cq_in), IoError);

    std::stringstream ip(savedCq(Metric::InnerProduct));
    EXPECT_EQ(loadCoarseQuantizer(ip)->metric(), Metric::InnerProduct);
}

/** Small trained fast-scan index for packed-lists round trips. */
IvfPqFastScanIndex
tinyFastScan(std::size_t n, std::uint64_t seed)
{
    const std::size_t d = 8, nlist = 4;
    const auto data = gaussianData(n, d, seed);
    const auto centroids = gaussianData(nlist, d, seed + 1);
    auto cq = std::make_shared<FlatCoarseQuantizer>(centroids, nlist, d);
    IvfPqFastScanIndex index(cq, d / 4);
    index.train(data, n);
    index.add(data, n);
    return index;
}

TEST(Io, PackedListsRoundTripIsExact)
{
    const auto index = tinyFastScan(500, 20);
    std::stringstream buf;
    const auto layout = savePackedLists(buf, index);
    EXPECT_EQ(layout.total, index.size());
    EXPECT_EQ(buf.str().size(), layout.sectionBytes);

    const auto lists = loadPackedLists(buf, index.pq().numSub());
    ASSERT_EQ(lists.ids.size(), index.nlist());
    for (std::size_t c = 0; c < index.nlist(); ++c) {
        const auto ids = index.listIds(static_cast<cluster_id_t>(c));
        const auto packed =
            index.listPacked(static_cast<cluster_id_t>(c));
        ASSERT_EQ(lists.ids[c].size(), ids.size()) << "cluster " << c;
        EXPECT_TRUE(std::equal(ids.begin(), ids.end(),
                               lists.ids[c].begin()));
        ASSERT_EQ(lists.packed[c].size(), packed.size());
        EXPECT_TRUE(std::equal(packed.begin(), packed.end(),
                               lists.packed[c].begin()));
    }

    // The zero-copy buffer parser agrees with the stream reader.
    const std::string bytes = buf.str();
    const auto parsed = parsePackedLists(
        reinterpret_cast<const std::uint8_t *>(bytes.data()),
        bytes.size(), index.pq().numSub());
    EXPECT_EQ(parsed.sectionBytes, layout.sectionBytes);
    for (std::size_t c = 0; c < index.nlist(); ++c) {
        EXPECT_EQ(parsed.segments[c].offset, layout.segments[c].offset);
        EXPECT_EQ(parsed.segments[c].count, layout.segments[c].count);
    }
}

TEST(Io, PackedListsRejectsBadMagicAndTruncation)
{
    const auto index = tinyFastScan(300, 21);
    std::stringstream buf;
    savePackedLists(buf, index);
    std::string bytes = buf.str();

    std::string corrupt = bytes;
    corrupt[0] = 'X';
    std::stringstream bad(corrupt);
    EXPECT_THROW(loadPackedLists(bad, index.pq().numSub()), IoError);

    // Truncation mid-segment is an explicit IoError, not garbage lists.
    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(loadPackedLists(cut, index.pq().numSub()), IoError);
    EXPECT_THROW(
        parsePackedLists(
            reinterpret_cast<const std::uint8_t *>(bytes.data()),
            bytes.size() / 2, index.pq().numSub()),
        IoError);

    // Wrong sub-quantizer count is caught before any allocation.
    std::stringstream wrong(bytes);
    EXPECT_THROW(loadPackedLists(wrong, index.pq().numSub() + 1),
                 IoError);
}

} // namespace
} // namespace vlr::vs
