#include "machines/machines.hpp"

#include <cmath>

#include "util/check.hpp"

namespace afs {
namespace {

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

void MachineConfig::validate() const {
  AFS_CHECK_MSG(max_processors >= 1 && max_processors <= kMaxProcessors,
                "MachineConfig.max_processors must be in [1, "
                    << kMaxProcessors << "] (got " << max_processors
                    << " for machine '" << name << "')");
  AFS_CHECK_MSG(std::isfinite(work_unit_time) && work_unit_time > 0.0,
                "MachineConfig.work_unit_time must be positive (got "
                    << work_unit_time << " for machine '" << name << "')");
  AFS_CHECK_MSG(finite_nonneg(cache_capacity),
                "MachineConfig.cache_capacity must be finite and >= 0 (got "
                    << cache_capacity << " for machine '" << name << "')");
  AFS_CHECK_MSG(finite_nonneg(miss_latency),
                "MachineConfig.miss_latency must be finite and >= 0 (got "
                    << miss_latency << " for machine '" << name << "')");
  AFS_CHECK_MSG(finite_nonneg(transfer_unit_time),
                "MachineConfig.transfer_unit_time must be finite and >= 0 "
                "(got " << transfer_unit_time << " for machine '" << name
                        << "')");
  AFS_CHECK_MSG(finite_nonneg(local_sync_time),
                "MachineConfig.local_sync_time must be finite and >= 0 (got "
                    << local_sync_time << " for machine '" << name << "')");
  AFS_CHECK_MSG(finite_nonneg(remote_sync_time),
                "MachineConfig.remote_sync_time must be finite and >= 0 (got "
                    << remote_sync_time << " for machine '" << name << "')");
  AFS_CHECK_MSG(
      std::isfinite(modfact_sync_multiplier) && modfact_sync_multiplier >= 1.0,
      "MachineConfig.modfact_sync_multiplier must be >= 1 (got "
          << modfact_sync_multiplier << " for machine '" << name << "')");
  AFS_CHECK_MSG(finite_nonneg(probe_time),
                "MachineConfig.probe_time must be finite and >= 0 (got "
                    << probe_time << " for machine '" << name << "')");
  AFS_CHECK_MSG(finite_nonneg(invalidate_time),
                "MachineConfig.invalidate_time must be finite and >= 0 (got "
                    << invalidate_time << " for machine '" << name << "')");
  AFS_CHECK_MSG(finite_nonneg(barrier_base),
                "MachineConfig.barrier_base must be finite and >= 0 (got "
                    << barrier_base << " for machine '" << name << "')");
  AFS_CHECK_MSG(finite_nonneg(barrier_per_proc),
                "MachineConfig.barrier_per_proc must be finite and >= 0 (got "
                    << barrier_per_proc << " for machine '" << name << "')");
  AFS_CHECK_MSG(finite_nonneg(epoch_jitter),
                "MachineConfig.epoch_jitter must be finite and >= 0 (got "
                    << epoch_jitter << " for machine '" << name << "')");
}

// Units: one "work unit" is one kernel inner-loop step (a few flops); one
// "transfer unit" is one matrix element (8 bytes). Absolute scales are
// arbitrary; the ratios below are chosen from the machines' published
// characteristics (§5.1) so the paper's comparative phenomena emerge:
//
//            compute : transfer : miss-latency : sync(remote)
//  Iris        1     :   1.0    :     20       :    60        (comm-bound)
//  Symmetry   30     :   0.8    :     10       :    60        (compute-bound)
//  Butterfly   1     :   0.5    :      7       :    50        (NUMA, no cache)
//  KSR-1       1     :   0.17   :    100       :   300        (ring + costly sync)

MachineConfig iris() {
  MachineConfig m;
  m.name = "iris";
  m.max_processors = 8;
  m.interconnect = Interconnect::kBus;
  m.work_unit_time = 1.0;
  // 1 MB L2 per processor = 128K doubles.
  m.cache_capacity = 128.0 * 1024;
  m.miss_latency = 20.0;
  m.transfer_unit_time = 1.0;
  // Sync on the Iris is cheap relative to its iterations (§4.6 measures
  // it at <1% of execution time).
  m.local_sync_time = 10.0;
  m.remote_sync_time = 25.0;
  m.probe_time = 2.0;
  m.invalidate_time = 10.0;
  m.barrier_base = 50.0;
  m.barrier_per_proc = 10.0;
  m.epoch_jitter = 100.0;
  return m;
}

MachineConfig symmetry() {
  MachineConfig m;
  m.name = "symmetry";
  m.max_processors = 8;  // S81 boards scale further; the paper plots <= 8-ish
  m.interconnect = Interconnect::kBus;
  // ~30x slower processors than the Iris; slightly faster bus (80 vs 64 MB/s).
  m.work_unit_time = 30.0;
  // 64 KB cache per processor = 8K doubles.
  m.cache_capacity = 8.0 * 1024;
  m.miss_latency = 10.0;
  m.transfer_unit_time = 0.8;
  m.local_sync_time = 30.0;
  m.remote_sync_time = 60.0;
  m.probe_time = 2.0;
  m.invalidate_time = 10.0;
  m.barrier_base = 50.0;
  m.barrier_per_proc = 10.0;
  m.epoch_jitter = 100.0;
  return m;
}

MachineConfig butterfly1() {
  MachineConfig m;
  m.name = "butterfly1";
  m.max_processors = 60;
  m.interconnect = Interconnect::kSwitch;
  m.work_unit_time = 1.0;
  m.cache_capacity = 0.0;  // no caches; §4.4 workloads carry no footprints
  m.miss_latency = 7.0;    // published non-local access cost, in units
  m.transfer_unit_time = 0.5;
  // Every queue is in some node's memory: even "local" queue operations
  // are memory transactions, and remote ones cross the switch (§4.4: "even
  // the distributed work queues require non-local access").
  m.local_sync_time = 25.0;
  m.remote_sync_time = 50.0;
  m.probe_time = 7.0;  // load probes cross the switch
  m.invalidate_time = 0.0;
  m.barrier_base = 100.0;
  m.barrier_per_proc = 7.0;
  m.epoch_jitter = 50.0;
  return m;
}

MachineConfig ksr1() {
  MachineConfig m;
  m.name = "ksr1";
  m.max_processors = 64;
  m.interconnect = Interconnect::kRing;
  m.work_unit_time = 1.0;
  // 32 MB all-cache memory per processor = 4M doubles: capacity misses
  // effectively never occur (§5.3).
  m.cache_capacity = 4.0 * 1024 * 1024;
  m.miss_latency = 100.0;
  // Ring bandwidth chosen so non-affinity schedulers saturate near 12
  // processors on Gauss-1024 (Fig. 15/16): ~2 work units per element
  // moved / 0.167 occupancy => saturation ~ 12 streams.
  m.transfer_unit_time = 1.0 / 6.0;
  m.local_sync_time = 30.0;
  m.remote_sync_time = 300.0;  // synchronization is expensive on the KSR (§5.2)
  m.probe_time = 5.0;
  m.invalidate_time = 30.0;
  m.barrier_base = 200.0;
  m.barrier_per_proc = 20.0;
  m.epoch_jitter = 400.0;
  return m;
}

MachineConfig tc2000() {
  MachineConfig m = butterfly1();
  m.name = "tc2000";
  m.max_processors = 64;
  // ~60x the Butterfly I's compute speed, but only ~3.6x its access
  // latency and 2.5x its bandwidth (§5.1): communication looms larger.
  m.work_unit_time = 1.0 / 60.0;
  m.miss_latency = 7.0 / 3.6;
  m.transfer_unit_time = 0.5 / 2.5;
  m.local_sync_time = 25.0 / 3.6;
  m.remote_sync_time = 50.0 / 3.6;
  m.probe_time = 7.0 / 3.6;
  return m;
}

}  // namespace afs
