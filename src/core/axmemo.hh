/**
 * @file
 * Umbrella header: the public API of the AxMemo reproduction.
 *
 * Quickstart:
 * @code
 *   auto workload = axmemo::makeWorkload("blackscholes");
 *   axmemo::ExperimentConfig config;
 *   config.dataset.scale = 0.125;
 *   config.lut = {8 * 1024, 512 * 1024};
 *   axmemo::ExperimentRunner runner(config);
 *   auto cmp = runner.compare(*workload, "axmemo");
 *   // cmp.speedup, cmp.energyReduction, cmp.qualityLoss, ...
 * @endcode
 */

#ifndef AXMEMO_CORE_AXMEMO_HH
#define AXMEMO_CORE_AXMEMO_HH

#include "common/error_metrics.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "compiler/atm_transform.hh"
#include "compiler/dddg.hh"
#include "compiler/iact_transform.hh"
#include "compiler/region_finder.hh"
#include "compiler/software_transform.hh"
#include "compiler/trace.hh"
#include "compiler/speedup_estimator.hh"
#include "compiler/transform.hh"
#include "core/experiment.hh"
#include "core/memo_backends.hh"
#include "core/sweep.hh"
#include "core/table.hh"
#include "core/truncation_tuner.hh"
#include "energy/area_model.hh"
#include "energy/energy_model.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "memo/backend.hh"
#include "memo/memo_unit.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

#endif // AXMEMO_CORE_AXMEMO_HH
