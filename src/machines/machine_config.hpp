// Simulated machine models.
//
// The paper's four testbeds differ in exactly the ratios that decide which
// loop scheduler wins: compute speed vs. interconnect bandwidth, the price
// of a synchronization operation, cache/local-memory capacity, and how
// remote accesses are served (shared bus, multistage switch, or ring).
// MachineConfig captures those ratios. All costs are in abstract time
// units; within one machine the units are consistent, which is all the
// paper's *comparative* curves need.
//
// Calibration rationale (see DESIGN.md §2 and the per-machine notes in
// machines.cpp):
//  * Iris:      fast RISC + modest bus  -> transfer_unit ~ work_unit, so a
//               Gaussian-elimination row costs about as much to move as to
//               compute: the bus saturates near 2 processors for schedulers
//               that move every row (Fig. 4).
//  * Symmetry:  ~30x slower CPUs, slightly faster bus -> communication is
//               nearly free relative to compute (Fig. 14).
//  * Butterfly: NUMA without caches; only work and (expensive, non-local)
//               queue operations matter for the §4.4 synthetic loops.
//  * KSR-1:     large COMA caches, high-latency ring, very expensive
//               synchronization (Figs. 15-17).
#pragma once

#include <cstdint>
#include <string>

namespace afs {

enum class Interconnect {
  kBus,     ///< Single shared resource; transfers serialize (Iris, Symmetry).
  kSwitch,  ///< Point-to-point; fixed latency, no global serialization (Butterfly).
  kRing,    ///< Shared ring; serializes like a bus but with its own bandwidth (KSR-1).
};

/// The most processors any machine may have: the paper's largest machine
/// (the 64-processor KSR-1) and the width of the coherence directory's
/// 64-bit sharer mask.
inline constexpr int kMaxProcessors = 64;

struct MachineConfig {
  std::string name;
  int max_processors = 1;
  Interconnect interconnect = Interconnect::kBus;

  /// Time per abstract work unit (a kernel inner-loop step).
  double work_unit_time = 1.0;

  /// Local cache / local-memory capacity, in transfer units (matrix
  /// elements). 0 disables caching entirely (Butterfly: all references go
  /// to fixed-latency memory; our Butterfly workloads carry no footprints).
  double cache_capacity = 0.0;

  /// Fixed latency added to the requesting processor per block miss.
  double miss_latency = 0.0;

  /// Shared-resource occupancy per transfer unit moved on a miss
  /// (bus/ring only).
  double transfer_unit_time = 0.0;

  /// Cost of a removal from the processor's own (local) work queue.
  double local_sync_time = 1.0;

  /// Cost of a removal from a remote or central work queue.
  double remote_sync_time = 1.0;

  /// MOD-FACTORING multiplies its central-queue cost by this factor:
  /// finding the processor's reserved chunk is "considerably more
  /// expensive" than popping the head (§2.3).
  double modfact_sync_multiplier = 2.0;

  /// Cost of scanning one queue's load during AFS victim selection
  /// (an unsynchronized read; small but not free on P queues).
  double probe_time = 0.0;

  /// Cost of invalidating other processors' copies on a write upgrade.
  double invalidate_time = 0.0;

  /// Fork/join barrier between epochs of the sequential outer loop:
  /// barrier_base + barrier_per_proc * P.
  double barrier_base = 0.0;
  double barrier_per_proc = 0.0;

  /// Per-epoch per-processor start-time jitter, uniform in [0, epoch_jitter).
  /// Models OS noise and the "short term fluctuations" that §5.2 blames for
  /// MOD-FACTORING's degradation at scale.
  double epoch_jitter = 0.0;

  /// Throws CheckFailure naming the offending field and value when any
  /// cost or capacity is out of range (negative, non-finite, zero where a
  /// positive value is required). MachineSim validates its config on
  /// construction; callers building configs by hand can validate earlier
  /// to get the error next to the mistake.
  void validate() const;
};

}  // namespace afs
