#include "core/engine_builder.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/slo_autopilot.h"
#include "storage/index_store.h"

namespace vlr::core
{

EngineBuilder::EngineBuilder(const vs::IvfPqFastScanIndex &index)
    : index_(index)
{
}

EngineBuilder::EngineBuilder(TieredIndex &tiered)
    : index_(tiered.source()), tiered_(&tiered)
{
}

EngineBuilder::EngineBuilder(
    std::shared_ptr<const vs::IvfPqFastScanIndex> owned)
    : ownedIndex_(std::move(owned)), index_(*ownedIndex_)
{
}

EngineBuilder
EngineBuilder::fromArtifact(const std::string &path)
{
    return EngineBuilder(std::make_shared<const vs::IvfPqFastScanIndex>(
        storage::IndexStore::load(path)));
}

EngineBuilder &
EngineBuilder::config(EngineConfig cfg)
{
    config_ = std::move(cfg);
    return *this;
}

EngineBuilder &
EngineBuilder::batching(BatchPolicy policy)
{
    config_.batching = policy;
    return *this;
}

EngineBuilder &
EngineBuilder::defaultK(std::size_t k)
{
    config_.defaultK = k;
    return *this;
}

EngineBuilder &
EngineBuilder::defaultNprobe(std::size_t nprobe)
{
    config_.defaultNprobe = nprobe;
    return *this;
}

EngineBuilder &
EngineBuilder::searchThreads(std::size_t n)
{
    config_.numSearchThreads = n;
    return *this;
}

EngineBuilder &
EngineBuilder::pinSearchThreads(bool pin)
{
    config_.pinSearchThreads = pin;
    return *this;
}

EngineBuilder &
EngineBuilder::sloSearchSeconds(double seconds)
{
    config_.sloSearchSeconds = seconds;
    return *this;
}

EngineBuilder &
EngineBuilder::admissionQueueBound(std::size_t max_queued)
{
    config_.batching.maxQueue = max_queued;
    return *this;
}

EngineBuilder &
EngineBuilder::degradation(DegradationPolicy policy)
{
    config_.degrade = policy;
    return *this;
}

EngineBuilder &
EngineBuilder::tenantIsolation(TenantPolicy policy)
{
    config_.tenants = std::move(policy);
    return *this;
}

EngineBuilder &
EngineBuilder::tenantClass(TenantClass cls)
{
    config_.tenants.enable = true;
    for (TenantClass &existing : config_.tenants.classes)
        if (existing.id == cls.id) {
            existing = std::move(cls);
            return *this;
        }
    config_.tenants.classes.push_back(std::move(cls));
    return *this;
}

EngineBuilder &
EngineBuilder::autopilot(AutopilotPolicy policy)
{
    config_.autopilot = policy;
    return *this;
}

EngineBuilder &
EngineBuilder::tieredFromProfile(const AccessProfile &profile,
                                 double rho)
{
    profile_ = &profile;
    rho_ = rho;
    fromProfile_ = true;
    return *this;
}

EngineBuilder &
EngineBuilder::hotShards(std::size_t n)
{
    config_.numHotShards = n;
    shardOptionsSet_ = true;
    return *this;
}

EngineBuilder &
EngineBuilder::shardBackend(ShardBackendFactory factory)
{
    config_.shardBackendFactory = std::move(factory);
    shardOptionsSet_ = true;
    return *this;
}

EngineBuilder &
EngineBuilder::coldTier(const HotShardBackend *backend)
{
    coldBackend_ = backend;
    return *this;
}

std::unique_ptr<RetrievalEngine>
EngineBuilder::build()
{
    config_.validate();
    if (fromProfile_ && tiered_ != nullptr)
        throw std::invalid_argument(
            "EngineBuilder: tieredFromProfile on a builder already "
            "serving a caller-owned TieredIndex");
    if (fromProfile_ && (rho_ < 0.0 || rho_ > 1.0))
        throw std::invalid_argument(
            "EngineBuilder: rho must be in [0, 1]");
    if (shardOptionsSet_ && !fromProfile_)
        throw std::invalid_argument(
            "EngineBuilder: hotShards/shardBackend only shape the "
            "engine-owned tier built by tieredFromProfile");
    if (coldBackend_ != nullptr && !fromProfile_)
        throw std::invalid_argument(
            "EngineBuilder: coldTier() only shapes the engine-owned "
            "tier built by tieredFromProfile");
    if (coldBackend_ != nullptr &&
        coldBackend_->numClusters() != index_.nlist())
        throw std::invalid_argument(
            "EngineBuilder: cold backend cluster count does not match "
            "the served index");
    if (config_.autopilot.enable && tiered_ == nullptr && !fromProfile_)
        throw std::invalid_argument(
            "EngineBuilder: autopilot requires tiered serving "
            "(tieredFromProfile or a caller-owned TieredIndex)");

    std::unique_ptr<TieredIndex> owned;
    if (fromProfile_) {
        TieredOptions topts{config_.numHotShards,
                            config_.shardBackendFactory};
        topts.coldBackend = coldBackend_;
        // Give the autopilot's shard-count actuation headroom to grow
        // the hot tier past the construction-time count.
        if (config_.autopilot.enable)
            topts.maxShards = std::max(config_.autopilot.maxShards,
                                       config_.numHotShards);
        owned = std::make_unique<TieredIndex>(index_, *profile_, rho_,
                                              std::move(topts));
    } else if (tiered_ == nullptr) {
        // A bare index is the rho = 0 end of the tiered axis: a tier
        // with no hot clusters, whose every probe scans the source.
        owned = std::make_unique<TieredIndex>(index_,
                                              std::vector<cluster_id_t>{});
    }
    TieredIndex &tiered = owned ? *owned : *tiered_;
    std::unique_ptr<RetrievalEngine> engine(
        new RetrievalEngine(tiered, std::move(owned), config_));
    // fromArtifact path: the engine adopts the restored index so it
    // outlives every component referencing it.
    engine->ownedIndex_ = std::move(ownedIndex_);
    if (config_.autopilot.enable)
        engine->ownedAutopilot_ = std::make_unique<SloAutopilot>(
            *engine, tiered, config_.autopilot);
    return engine;
}

} // namespace vlr::core
