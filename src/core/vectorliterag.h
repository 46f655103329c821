/**
 * @file
 * Umbrella header for the VectorLiteRAG library: include this to get
 * the full public API (substrates + core pipeline).
 */

#ifndef VLR_CORE_VECTORLITERAG_H
#define VLR_CORE_VECTORLITERAG_H

// Substrates
#include "common/beta_dist.h"
#include "common/piecewise_linear.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "llmsim/cluster.h"
#include "llmsim/engine.h"
#include "llmsim/model_config.h"
#include "simcore/simulator.h"
#include "simgpu/gpu_device.h"
#include "simgpu/gpu_spec.h"
#include "simgpu/search_cost.h"
#include "vecsearch/fastscan.h"
#include "vecsearch/flat_index.h"
#include "vecsearch/ivf.h"
#include "vecsearch/ivf_pq.h"
#include "vecsearch/io.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "workload/arrival.h"
#include "workload/dataset.h"
#include "workload/plans.h"
#include "workload/tenant.h"

// Core pipeline
#include "core/access_profile.h"
#include "core/batch_policy.h"
#include "core/batch_search.h"
#include "core/context.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/hitrate_estimator.h"
#include "core/online_update.h"
#include "core/partitioner.h"
#include "core/perf_model.h"
#include "core/retriever.h"
#include "core/router.h"
#include "core/serving.h"
#include "core/slo_autopilot.h"
#include "core/splitter.h"
#include "core/tiered_index.h"

#endif // VLR_CORE_VECTORLITERAG_H
