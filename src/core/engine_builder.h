/**
 * @file
 * Fluent, validating construction of RetrievalEngine — the single
 * entry point replacing the former three-constructor zoo.
 *
 * One chain composes the index source (flat, caller-owned TieredIndex,
 * or an engine-owned TieredIndex built from an AccessProfile at a
 * coverage rho), the hot-tier shape (shard count + backend factory),
 * dispatcher policy, per-engine defaults and the control policies:
 *
 * @code
 * auto engine = core::EngineBuilder(index)
 *                   .tieredFromProfile(profile, 0.25)
 *                   .hotShards(2)
 *                   .batching({.maxBatch = 32, .timeoutSeconds = 1e-3})
 *                   .defaultK(10)
 *                   .defaultNprobe(16)
 *                   .searchThreads(4)
 *                   .build();
 * @endcode
 *
 * build() validates the assembled EngineConfig and the source
 * composition and throws std::invalid_argument before any thread
 * spins up, so a misconfigured engine never serves a single request.
 */

#ifndef VLR_CORE_ENGINE_BUILDER_H
#define VLR_CORE_ENGINE_BUILDER_H

#include <memory>
#include <string>

#include "core/access_profile.h"
#include "core/engine_runtime.h"
#include "core/serving_api.h"
#include "core/tiered_index.h"

namespace vlr::core
{

/**
 * Builder for RetrievalEngine. Referenced objects (index, tiered
 * index, profile) must outlive the built engine; the builder itself
 * may be discarded after build().
 */
class EngineBuilder
{
  public:
    /** Serve @p index flat, or tiered via tieredFromProfile(). */
    explicit EngineBuilder(const vs::IvfPqFastScanIndex &index);

    /**
     * Serve a caller-owned tiered index (its source() provides the
     * flat-path index and dim()). Non-const because an autopilot()
     * repartitions the served tier.
     */
    explicit EngineBuilder(TieredIndex &tiered);

    /**
     * Cold-start path: restore a complete index from a
     * storage::IndexStore artifact and serve it — no training, no
     * re-encoding, and searches bit-identical to the index the
     * artifact was saved from. The engine owns the restored index (it
     * is kept alive for the engine's lifetime), so the builder chains
     * exactly like the in-memory constructors:
     *
     * @code
     * auto engine = core::EngineBuilder::fromArtifact("index.vlra")
     *                   .tieredFromProfile(profile, 0.25)
     *                   .build();
     * @endcode
     *
     * @throws vs::IoError when the artifact is missing, malformed,
     *         from an unsupported format version, or truncated.
     */
    static EngineBuilder fromArtifact(const std::string &path);

    /** Replace the whole configuration in one call. */
    EngineBuilder &config(EngineConfig cfg);

    /** Dispatcher policy: batch cap, timeout, bounded queue. */
    EngineBuilder &batching(BatchPolicy policy);

    /** Results per query for requests that leave k unset. */
    EngineBuilder &defaultK(std::size_t k);

    /** Probed lists for requests that leave nprobe unset. */
    EngineBuilder &defaultNprobe(std::size_t nprobe);

    /** Search worker threads (1 = inline, 0 = hardware-sized). */
    EngineBuilder &searchThreads(std::size_t n);

    /** Pin search workers round-robin to cores (Linux; best effort). */
    EngineBuilder &pinSearchThreads(bool pin);

    /** Retrieval-stage SLO: the search budget the autopilot's
     *  partitioner plans against. */
    EngineBuilder &sloSearchSeconds(double seconds);

    /** Overload nprobe degradation policy (off by default). */
    EngineBuilder &degradation(DegradationPolicy policy);

    /**
     * Multi-tenant service policy keyed by the typed
     * SearchRequest::tenant (off by default): per-tenant admission
     * shares, weighted fair batching (TenantPolicy::fairService) and
     * per-tenant accounting. Requires a bounded admission queue — the
     * shares are fractions of BatchPolicy::maxQueue.
     */
    EngineBuilder &tenantIsolation(TenantPolicy policy);

    /**
     * Register (or replace, by id) one tenant's complete service
     * contract — share, WFQ weight, SLO targets and degradation
     * eligibility in a single validated TenantClass — and enable the
     * tenant policy. Sugar over tenantIsolation() for the common
     * "declare my tenants one by one" flow:
     *
     * @code
     * builder.tenantClass({.id = {1}, .name = "premium",
     *                      .share = 0.4, .weight = 4.0,
     *                      .slo = {.missRateTarget = 0.01,
     *                              .p99TargetSeconds = 0.05},
     *                      .degradable = false});
     * @endcode
     *
     * Inconsistent contracts are rejected by build() with a message
     * naming the offending field.
     */
    EngineBuilder &tenantClass(TenantClass cls);

    /**
     * Closed-loop SLO autopilot policy. Requires tiered serving
     * (tieredFromProfile or a caller-owned TieredIndex). The engine
     * owns the SloAutopilot, which repartitions the served tier
     * itself, and stops it before the tier is torn down.
     */
    EngineBuilder &autopilot(AutopilotPolicy policy);

    /**
     * Bounded admission: submissions beyond @p max_queued queued
     * requests resolve Disposition::kRejected. 0 = unbounded.
     */
    EngineBuilder &admissionQueueBound(std::size_t max_queued);

    /**
     * Build and own a TieredIndex over the flat index: hot set =
     * profile's top-rho clusters, dealt across hotShards() shards
     * behind shardBackend()'s factory. Only valid on a builder
     * constructed from a flat index. @p profile must outlive build().
     */
    EngineBuilder &tieredFromProfile(const AccessProfile &profile,
                                     double rho);

    /** Hot shards for tieredFromProfile (default 1). */
    EngineBuilder &hotShards(std::size_t n);

    /** Shard backend factory for tieredFromProfile. */
    EngineBuilder &shardBackend(ShardBackendFactory factory);

    /**
     * Route the engine-owned tier's cold probes to @p backend instead
     * of scanning the source index in place (TieredOptions::
     * coldBackend) — e.g. a storage::MmapColdTier serving the long
     * tail from a memory-mapped artifact. Caller-owned; must outlive
     * the engine, serve the same cluster contents as the index, and
     * honour the bit-identical parity contract. Only valid with
     * tieredFromProfile.
     */
    EngineBuilder &coldTier(const HotShardBackend *backend);

    /**
     * Validate and construct. @throws std::invalid_argument on an
     * invalid EngineConfig or an inconsistent composition (e.g.
     * tieredFromProfile on a tiered-constructed builder, rho outside
     * [0, 1], shard options without a profile-built tier, an
     * autopilot without tiered serving).
     */
    std::unique_ptr<RetrievalEngine> build();

  private:
    /** fromArtifact delegation target: adopts a restored index. */
    explicit EngineBuilder(
        std::shared_ptr<const vs::IvfPqFastScanIndex> owned);

    /**
     * Restored index backing index_ on the fromArtifact path (heap-
     * stable, so the reference stays valid across builder copies);
     * transferred into the engine by build().
     */
    std::shared_ptr<const vs::IvfPqFastScanIndex> ownedIndex_;
    const vs::IvfPqFastScanIndex &index_;
    TieredIndex *tiered_ = nullptr;
    const AccessProfile *profile_ = nullptr;
    double rho_ = 0.0;
    bool fromProfile_ = false;
    bool shardOptionsSet_ = false;
    const HotShardBackend *coldBackend_ = nullptr;
    EngineConfig config_;
};

} // namespace vlr::core

#endif // VLR_CORE_ENGINE_BUILDER_H
