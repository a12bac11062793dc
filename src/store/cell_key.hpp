// Content-addressed identity of one simulation cell.
//
// A cell — one MachineSim::run — is a pure function of (engine version,
// machine config, loop program, scheduler spec, P, sim options including
// the perturbation config and seeds). CellKey renders every one of those
// inputs into a canonical multi-line text (doubles as hexfloats, vectors
// element-by-element) and hashes it with FNV-1a 64. The result store files
// entries under the hash but keeps the full key text inside each entry, so
// a lookup compares text — a hash collision or a corrupted entry reads as
// a miss, never as a wrong result.
//
// Two inputs cannot be derived from the C++ objects themselves and are
// instead carried as strings supplied by the caller:
//
//   * the program key (LoopProgram::key) — lambdas are opaque, so each
//     program factory states its own identity ("gauss(n=768,w=0x1p+1)");
//   * the scheduler key — the make_scheduler spec string, or a caller-
//     chosen tag for hand-built schedulers (e.g. the BEST-STATIC oracles
//     seeded from a recorded trace).
//
// An empty program or scheduler key makes the cell *uncacheable* (the
// identity is unknown), as do side-effecting runs: tracing (the sink must
// observe real events) and time_phases (stored entries carry no host
// timers). Uncacheable cells simply simulate — correctness never depends
// on the store.
#pragma once

#include <cstdint>
#include <string>

#include "machines/machine_config.hpp"
#include "sim/machine_sim.hpp"

namespace afs {

struct CellKey {
  std::string text;         ///< canonical rendering of every cell input
  std::uint64_t hash = 0;   ///< fnv1a64(text); the store's file address
  bool cacheable = false;   ///< false: bypass the store for this cell
};

/// Canonical one-line rendering of a MachineConfig (every cost field,
/// hexfloat). Exposed for tests; embedded in CellKey::text.
std::string machine_key(const MachineConfig& machine);

/// Canonical one-line rendering of a PerturbationConfig (seed, delays,
/// stalls, losses, spikes, bursts). Exposed for tests.
std::string perturb_key(const PerturbationConfig& perturb);

/// The lines of a cell key that depend only on the machine and the
/// options, rendered once: a plan keys every cell it runs on one machine
/// under one set of options from one prefix.
class CellKeyPrefix {
 public:
  CellKeyPrefix(const MachineConfig& machine, const SimOptions& options);

  /// The key of one cell: `program_key` is LoopProgram::key;
  /// `scheduler_key` is the scheduler's spec string or caller tag.
  CellKey key(const std::string& program_key,
              const std::string& scheduler_key, int procs) const;

 private:
  std::string head_;  // schema, engine and machine lines
  std::string tail_;  // option and perturbation lines
  bool storable_;     // neither traced nor host-timed
};

/// Builds the key for one cell: CellKeyPrefix(machine, options).key(...).
CellKey make_cell_key(const MachineConfig& machine,
                      const std::string& program_key,
                      const std::string& scheduler_key, int procs,
                      const SimOptions& options);

}  // namespace afs
