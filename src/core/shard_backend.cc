#include "core/shard_backend.h"

#include <chrono>
#include <thread>

namespace vlr::core
{

FastScanShardBackend::FastScanShardBackend(
    const vs::IvfPqFastScanIndex &source,
    std::span<const cluster_id_t> clusters)
    : source_(source), numClusters_(clusters.size())
{
    for (const cluster_id_t c : clusters)
        bytes_ += source.listBytes(c);
}

std::vector<vs::SearchHit>
FastScanShardBackend::searchClusters(const float *query, std::size_t k,
                                     std::span<const cluster_id_t> clusters,
                                     vs::SearchScratch *scratch) const
{
    return source_.searchClusters(query, k, clusters, nullptr, scratch);
}

ThrottledShardBackend::ThrottledShardBackend(
    std::unique_ptr<HotShardBackend> inner, double delay_seconds)
    : inner_(std::move(inner)), delaySeconds_(delay_seconds)
{
}

std::vector<vs::SearchHit>
ThrottledShardBackend::searchClusters(
    const float *query, std::size_t k,
    std::span<const cluster_id_t> clusters,
    vs::SearchScratch *scratch) const
{
    if (delaySeconds_ > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(delaySeconds_));
    return inner_->searchClusters(query, k, clusters, scratch);
}

ShardBackendFactory
fastScanShardFactory()
{
    return [](const vs::IvfPqFastScanIndex &source,
              std::span<const cluster_id_t> clusters, std::size_t) {
        return std::make_unique<FastScanShardBackend>(source, clusters);
    };
}

ShardBackendFactory
throttledShardFactory(double delay_seconds)
{
    return [delay_seconds](const vs::IvfPqFastScanIndex &source,
                           std::span<const cluster_id_t> clusters,
                           std::size_t) {
        return std::make_unique<ThrottledShardBackend>(
            std::make_unique<FastScanShardBackend>(source, clusters),
            delay_seconds);
    };
}

} // namespace vlr::core
