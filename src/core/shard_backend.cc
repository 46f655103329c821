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

void
FastScanShardBackend::scanClusters(const float *,
                                   const vs::QuantizedLut &qlut,
                                   std::span<const cluster_id_t> clusters,
                                   vs::SearchScratch &scratch,
                                   vs::TopK &topk) const
{
    source_.scanClusters(qlut, clusters, scratch, topk);
}

ThrottledShardBackend::ThrottledShardBackend(
    std::unique_ptr<HotShardBackend> inner, double delay_seconds)
    : inner_(std::move(inner)), delaySeconds_(delay_seconds)
{
}

void
ThrottledShardBackend::scanClusters(const float *query,
                                    const vs::QuantizedLut &qlut,
                                    std::span<const cluster_id_t> clusters,
                                    vs::SearchScratch &scratch,
                                    vs::TopK &topk) const
{
    if (delaySeconds_ > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(delaySeconds_));
    inner_->scanClusters(query, qlut, clusters, scratch, topk);
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
